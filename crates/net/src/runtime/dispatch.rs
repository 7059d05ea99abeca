//! The inbound dispatcher: serves protocol requests and folds control
//! traffic into the shared runtime state.

use super::*;

/// The inbound dispatcher: serves protocol requests against the node state
/// and folds control traffic into the shared runtime state.
pub(super) fn dispatch(endpoint: &Endpoint, shared: &Shared, inbound: Inbound) {
    if shared.muted.load(Ordering::Relaxed) {
        // A flapping adversary is dark: it serves nothing and acks nothing,
        // but still folds the state it needs to run the attack — its own
        // eviction (gossiped as a leave) and the controller's release.
        if let Inbound::Control { msg, .. } = inbound {
            match msg {
                Control::Leave { node: leaver, slot } => {
                    shared.roster().learn_leave(leaver, slot);
                }
                Control::Shutdown => shared.shutdown.store(true, Ordering::Relaxed),
                Control::ReportAck => shared.report_acked.store(true, Ordering::Relaxed),
                _ => {}
            }
        }
        return;
    }
    match inbound {
        Inbound::Wire {
            from,
            src,
            seq,
            msg,
            trace: _,
        } => {
            shared.roster().mark_heard(from, None);
            let reply = {
                let node = shared.node.read().expect("node lock poisoned");
                serve_wire_request(&node, &msg)
            };
            if let Some(reply) = reply {
                let _ = endpoint.send_reply(src, seq, &reply);
            }
        }
        Inbound::Control {
            from,
            src,
            msg,
            trace,
        } => {
            // Organic address learning: any authenticated control envelope
            // from a roster member we cannot address yet fills the gap (a
            // scheduled joiner whose announcement we missed, say).
            shared.roster().mark_heard(from, Some(src));
            match msg {
                Control::Hello { from: peer } => {
                    let _ = endpoint.send_control(
                        src,
                        &Control::HelloAck {
                            from: endpoint.id(),
                        },
                    );
                    // Symmetric bootstrap: hearing a hello proves the peer is
                    // up just as well as an ack does.
                    shared
                        .hello_acks
                        .lock()
                        .expect("hello acks poisoned")
                        .insert(peer);
                }
                Control::HelloAck { from: peer } => {
                    shared
                        .hello_acks
                        .lock()
                        .expect("hello acks poisoned")
                        .insert(peer);
                }
                Control::SlotDigest { slot, digest } => {
                    // A trace context riding the gossip stitches the remote
                    // block into this node's timeline: materialize the
                    // origin's gossip-out instant (its clock, carried in
                    // the context), record the receive, and remember the
                    // identity for the commit stamp.
                    if let Some(ctx) = trace {
                        if shared.telemetry.spans.is_enabled() {
                            shared.telemetry.spans.record(SpanEvent {
                                slot: ctx.slot,
                                origin: ctx.origin,
                                prefix: ctx.prefix,
                                node: ctx.origin,
                                kind: SpanKind::GossipedOut,
                                ts_micros: ctx.ts_micros,
                            });
                            record_span(
                                shared,
                                endpoint.id().0,
                                ctx.slot,
                                ctx.origin,
                                ctx.prefix,
                                SpanKind::Received,
                            );
                            let mut keys = shared.trace_keys.lock().expect("trace keys poisoned");
                            let entry = keys.entry(ctx.slot).or_default();
                            if !entry.contains(&(ctx.origin, ctx.prefix)) {
                                entry.push((ctx.origin, ctx.prefix));
                            }
                        }
                    }
                    let conflict = {
                        let mut digests = shared.digests.lock().expect("digests poisoned");
                        let per_slot = digests.entry(from).or_default();
                        match per_slot.get(&slot) {
                            // Two distinct digests for one (peer, slot):
                            // equivocation, a digest lie, or a parasite
                            // re-advertisement. We cannot tell which copy
                            // is canonical, so discard the stored one and
                            // re-pull the slot from the peer directly —
                            // `DigestReq` answers come from its canonical
                            // chain, so the barrier re-converges on truth.
                            Some(stored) if *stored != digest => {
                                per_slot.remove(&slot);
                                true
                            }
                            Some(_) => false,
                            None => {
                                per_slot.insert(slot, digest);
                                false
                            }
                        }
                    };
                    if conflict {
                        NetMetrics::inc(&endpoint.metrics().digest_conflicts);
                        NetMetrics::inc(&endpoint.metrics().conflict_pulls);
                        let _ = endpoint.send_control(src, &Control::DigestReq { slot });
                        let newly = shared
                            .suspects
                            .lock()
                            .expect("suspects poisoned")
                            .insert(from);
                        shared.telemetry.journal.record(
                            slot,
                            EventKind::Penalty,
                            if newly {
                                format!(
                                    "conflicting digests from {from} at slot {slot}: \
peer flagged as adversarial"
                                )
                            } else {
                                format!("conflicting digests from {from} at slot {slot}")
                            },
                        );
                    }
                    // Generating slot t requires having passed the window
                    // gate for t — completion through t-W — so a digest
                    // doubles as a (possibly lost) SlotDone(t-W). W = 1 is
                    // the classic lockstep inference: the loop stays live
                    // even when the explicit announcement was dropped.
                    if slot >= shared.window {
                        mark_done(shared, from, slot - shared.window);
                    }
                }
                Control::SlotDone { slot } => mark_done(shared, from, slot),
                Control::DigestReq { slot } => {
                    let own = shared.own_digests.lock().expect("own digests poisoned");
                    if let Some(&digest) = own.get(&slot) {
                        // Re-sent digests carry the same trace context as
                        // the original gossip, so a pulled straggler still
                        // stitches into the requester's timeline.
                        let ctx =
                            gossip_trace_ctx(shared, endpoint.id().0, slot, digest.prefix_u64());
                        let _ = endpoint.send_control_traced(
                            src,
                            &Control::SlotDigest { slot, digest },
                            ctx,
                        );
                    }
                }
                Control::JoinReq { .. } => {
                    NetMetrics::inc(&endpoint.metrics().joins_served);
                    let entries: Vec<WireMember> = {
                        let roster = shared.roster();
                        roster
                            .entries()
                            .map(|(id, m)| WireMember {
                                id,
                                join_slot: m.join_slot,
                                leave_slot: m.leave_slot,
                                evicted: m.evicted,
                                addr: m.addr,
                            })
                            .collect()
                    };
                    let _ = endpoint.send_control(
                        src,
                        &Control::JoinAck {
                            from: endpoint.id(),
                            slot: shared.current_slot.load(Ordering::Relaxed),
                            members: entries.len() as u32,
                        },
                    );
                    for entry in entries {
                        let _ = endpoint.send_control(src, &Control::RosterEntry(entry));
                    }
                }
                Control::JoinAck {
                    from: responder,
                    slot,
                    members,
                } => {
                    let mut ack = shared.join_ack.lock().expect("join ack poisoned");
                    ack.get_or_insert((responder, slot, members));
                }
                Control::RosterEntry(m) => {
                    {
                        let mut roster = shared.roster();
                        roster.learn_join(m.id, m.addr, m.join_slot);
                        if let Some(leave) = m.leave_slot {
                            if m.evicted {
                                roster.evict(m.id, leave);
                            } else {
                                roster.learn_leave(m.id, leave);
                            }
                        }
                    }
                    shared
                        .transfer_seen
                        .lock()
                        .expect("transfer seen poisoned")
                        .insert(m.id);
                }
                Control::JoinAnnounce { id, slot, addr } => {
                    // A rejoin attempt from a peer that already departed
                    // this run is membership flapping — the attack, not
                    // recovery. Refuse to learn or ack it, so the flapper
                    // never re-enters a barrier set. (An evicted id can
                    // still come back as a fresh process in a later run.)
                    let flapping = {
                        let roster = shared.roster();
                        roster.member(id).is_some_and(|m| m.leave_slot.is_some())
                    };
                    if flapping {
                        NetMetrics::inc(&endpoint.metrics().flap_rejections);
                        let newly = shared
                            .suspects
                            .lock()
                            .expect("suspects poisoned")
                            .insert(id);
                        if newly {
                            shared.telemetry.journal.record(
                                slot,
                                EventKind::Penalty,
                                format!(
                                    "rejected rejoin of departed peer {id}: membership flapping"
                                ),
                            );
                        }
                    } else {
                        let news = shared.roster().learn_join(id, Some(addr), slot);
                        // Always ack: the joiner retries its announcement
                        // until every member confirmed receipt.
                        let _ = endpoint.send_control(
                            src,
                            &Control::HelloAck {
                                from: endpoint.id(),
                            },
                        );
                        if news {
                            NetMetrics::inc(&endpoint.metrics().membership_gossip);
                            shared.telemetry.journal.record(
                                slot,
                                EventKind::Membership,
                                format!("learned join of {id} at slot {slot}"),
                            );
                            gossip_delta(
                                endpoint,
                                shared,
                                src,
                                &Control::JoinAnnounce { id, slot, addr },
                            );
                        }
                    }
                }
                Control::Leave { node: leaver, slot } => {
                    let news = shared.roster().learn_leave(leaver, slot);
                    // A leave at m implies the leaver completed m-1 — keeps
                    // the lockstep live even when its SlotDone was lost and
                    // the process is already gone.
                    if slot > 0 {
                        mark_done(shared, leaver, slot - 1);
                    }
                    if news {
                        NetMetrics::inc(&endpoint.metrics().membership_gossip);
                        shared.telemetry.journal.record(
                            slot,
                            EventKind::Membership,
                            format!("learned leave of {leaver} at slot {slot}"),
                        );
                        gossip_delta(
                            endpoint,
                            shared,
                            src,
                            &Control::Leave { node: leaver, slot },
                        );
                    }
                }
                Control::Shutdown => shared.shutdown.store(true, Ordering::Relaxed),
                Control::ReportAck => shared.report_acked.store(true, Ordering::Relaxed),
                Control::Report(_) => {} // only the harness controller consumes these
            }
            // Any control message may have been the news a barrier wait is
            // parked on.
            notify_progress(shared);
        }
    }
}

/// Forwards a freshly learned membership delta to every addressable
/// member except the one it came from — one re-gossip hop per node per
/// delta (the `news` guard in the caller), enough for any single lost
/// datagram to be healed by whichever peer did hear it.
fn gossip_delta(endpoint: &Endpoint, shared: &Shared, learned_from: SocketAddr, msg: &Control) {
    let targets: Vec<SocketAddr> = {
        let roster = shared.roster();
        roster
            .entries()
            .filter(|(id, m)| *id != endpoint.id() && m.addr.is_some_and(|a| a != learned_from))
            .filter_map(|(_, m)| m.addr)
            .collect()
    };
    for addr in targets {
        let _ = endpoint.send_control(addr, msg);
    }
}

/// Raises `peer`'s highest-completed-slot watermark (monotonic).
fn mark_done(shared: &Shared, peer: NodeId, slot: u64) {
    let mut done = shared.done.lock().expect("done poisoned");
    let entry = done.entry(peer).or_insert(slot);
    if *entry < slot {
        *entry = slot;
    }
}
