//! The inbound dispatcher: serves protocol requests and folds control
//! traffic into the book.

use super::*;

/// The inbound dispatcher: serves protocol requests against the node state
/// and folds control traffic into the book — one book lock per datagram,
/// released before anything is sent.
pub(super) fn dispatch(endpoint: &Endpoint, shared: &Shared, inbound: Inbound) {
    match inbound {
        Inbound::Wire {
            from,
            src,
            seq,
            msg,
            trace: _,
        } => {
            {
                let mut book = shared.book();
                if book.muted {
                    return;
                }
                book.roster.mark_heard(from, None);
            }
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
            // Any control message may have been the news a wait is parked on.
            let sends =
                shared.update(|book| fold_control(endpoint, shared, book, from, src, msg, trace));
            send_all(endpoint, sends);
        }
    }
}

/// Folds one control message from `from` (at `src`) into the book and
/// returns what to send in answer.
fn fold_control(
    endpoint: &Endpoint,
    shared: &Shared,
    book: &mut Book,
    from: NodeId,
    src: SocketAddr,
    msg: Control,
    trace: Option<TraceContext>,
) -> Sends {
    let mut out = Vec::new();
    if book.muted {
        // A flapping adversary is dark: it serves nothing and acks nothing,
        // but still folds the state it needs to run the attack — its own
        // eviction (gossiped as a leave) and the controller's release.
        match msg {
            Control::Leave { node: leaver, slot } => {
                book.roster.learn_leave(leaver, slot);
            }
            Control::Shutdown => book.shutdown = true,
            Control::ReportAck => book.report_acked = true,
            _ => {}
        }
        return out;
    }
    // Organic address learning: any authenticated control envelope from a
    // roster member we cannot address yet fills the gap (a scheduled joiner
    // whose announcement we missed, say).
    book.roster.mark_heard(from, Some(src));
    let me = endpoint.id();
    match msg {
        Control::Hello { from: peer } => {
            out.push((src, Control::HelloAck { from: me }, None));
            // Symmetric bootstrap: hearing a hello proves the peer is up
            // just as well as an ack does.
            book.hello_acks.insert(peer);
        }
        Control::HelloAck { from: peer } => {
            book.hello_acks.insert(peer);
        }
        Control::SlotDigest { slot, digest } => {
            // A trace context riding the gossip stitches the remote block
            // into this node's timeline: materialize the origin's
            // gossip-out instant (its clock, carried in the context), record
            // the receive, and remember the identity for the commit stamp.
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
                        me.0,
                        ctx.slot,
                        ctx.origin,
                        ctx.prefix,
                        SpanKind::Received,
                    );
                    let entry = book.trace_keys.entry(ctx.slot).or_default();
                    if !entry.contains(&(ctx.origin, ctx.prefix)) {
                        entry.push((ctx.origin, ctx.prefix));
                    }
                }
            }
            let per_slot = book.digests.entry(from).or_default();
            match per_slot.get(&slot) {
                // Two distinct digests for one (peer, slot): equivocation,
                // a digest lie, or a parasite re-advertisement. We cannot
                // tell which copy is canonical, so discard the stored one
                // and re-pull the slot from the peer directly — `DigestReq`
                // answers come from its canonical chain, so the barrier
                // re-converges on truth.
                Some(stored) if *stored != digest => {
                    per_slot.remove(&slot);
                    NetMetrics::inc(&endpoint.metrics().digest_conflicts);
                    NetMetrics::inc(&endpoint.metrics().conflict_pulls);
                    out.push((src, Control::DigestReq { slot }, None));
                    let newly = book.suspects.insert(from);
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
                Some(_) => {}
                None => {
                    per_slot.insert(slot, digest);
                }
            }
            // Generating slot t requires having passed the window gate for
            // t — completion through t-W — so a digest doubles as a
            // (possibly lost) SlotDone(t-W). W = 1 is the classic lockstep
            // inference: the loop stays live even when the explicit
            // announcement was dropped.
            if slot >= shared.window {
                book.mark_done(from, slot - shared.window);
            }
        }
        Control::SlotDone { slot } => book.mark_done(from, slot),
        Control::DigestReq { slot } => {
            if let Some(&digest) = book.own_digests.get(&slot) {
                // Re-sent digests carry the same trace context as the
                // original gossip, so a pulled straggler still stitches into
                // the requester's timeline.
                let ctx = gossip_trace_ctx(shared, me.0, slot, digest.prefix_u64());
                out.push((src, Control::SlotDigest { slot, digest }, ctx));
            }
        }
        Control::JoinReq { .. } => {
            NetMetrics::inc(&endpoint.metrics().joins_served);
            let members = book.roster.entries().count() as u32;
            out.push((
                src,
                Control::JoinAck {
                    from: me,
                    slot: book.current_slot,
                    members,
                },
                None,
            ));
            out.extend(book.roster.entries().map(|(id, m)| {
                let entry = WireMember {
                    id,
                    join_slot: m.join_slot,
                    leave_slot: m.leave_slot,
                    evicted: m.evicted,
                    addr: m.addr,
                };
                (src, Control::RosterEntry(entry), None)
            }));
        }
        Control::JoinAck {
            from: responder,
            slot,
            members,
        } => {
            book.join_ack.get_or_insert((responder, slot, members));
        }
        Control::RosterEntry(m) => {
            book.roster.learn_join(m.id, m.addr, m.join_slot);
            if let Some(leave) = m.leave_slot {
                if m.evicted {
                    book.roster.evict(m.id, leave);
                } else {
                    book.roster.learn_leave(m.id, leave);
                }
            }
            book.transfer_seen.insert(m.id);
        }
        Control::JoinAnnounce { id, slot, addr } => {
            // A rejoin attempt from a peer that already departed this run
            // is membership flapping — the attack, not recovery. Refuse to
            // learn or ack it, so the flapper never re-enters a barrier set.
            // (An evicted id can still come back as a fresh process in a
            // later run.)
            let flapping = book
                .roster
                .member(id)
                .is_some_and(|m| m.leave_slot.is_some());
            if flapping {
                NetMetrics::inc(&endpoint.metrics().flap_rejections);
                if book.suspects.insert(id) {
                    shared.telemetry.journal.record(
                        slot,
                        EventKind::Penalty,
                        format!("rejected rejoin of departed peer {id}: membership flapping"),
                    );
                }
            } else {
                let news = book.roster.learn_join(id, Some(addr), slot);
                // Always ack: the joiner retries its announcement until
                // every member confirmed receipt.
                out.push((src, Control::HelloAck { from: me }, None));
                if news {
                    NetMetrics::inc(&endpoint.metrics().membership_gossip);
                    shared.telemetry.journal.record(
                        slot,
                        EventKind::Membership,
                        format!("learned join of {id} at slot {slot}"),
                    );
                    gossip_delta(
                        &mut out,
                        me,
                        book,
                        src,
                        Control::JoinAnnounce { id, slot, addr },
                    );
                }
            }
        }
        Control::Leave { node: leaver, slot } => {
            let news = book.roster.learn_leave(leaver, slot);
            // A leave at m implies the leaver completed m-1 — keeps the
            // lockstep live even when its SlotDone was lost and the process
            // is already gone.
            if slot > 0 {
                book.mark_done(leaver, slot - 1);
            }
            if news {
                NetMetrics::inc(&endpoint.metrics().membership_gossip);
                shared.telemetry.journal.record(
                    slot,
                    EventKind::Membership,
                    format!("learned leave of {leaver} at slot {slot}"),
                );
                gossip_delta(
                    &mut out,
                    me,
                    book,
                    src,
                    Control::Leave { node: leaver, slot },
                );
            }
        }
        Control::Shutdown => book.shutdown = true,
        Control::ReportAck => book.report_acked = true,
        Control::Report(_) => {} // only the harness controller consumes these
    }
    out
}

/// Forwards a freshly learned membership delta to every addressable
/// member except the one it came from — one re-gossip hop per node per
/// delta (the `news` guard in the caller), enough for any single lost
/// datagram to be healed by whichever peer did hear it.
fn gossip_delta(out: &mut Sends, me: NodeId, book: &Book, learned_from: SocketAddr, msg: Control) {
    out.extend(
        book.roster
            .entries()
            .filter(|&(id, _)| id != me)
            .filter_map(|(_, m)| m.addr)
            .filter(|&a| a != learned_from)
            .map(|addr| (addr, msg, None)),
    );
}
