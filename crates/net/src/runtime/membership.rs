//! Membership at slot boundaries, the startup handshakes, and the barrier
//! waits (digest, done, own watermark) with liveness eviction.

use super::*;

impl NetNode {
    /// True when a roster membership event at or before `slot` has not yet
    /// been folded into the local topology.
    pub(super) fn membership_pending(
        &self,
        slot: u64,
        applied_joins: &HashSet<NodeId>,
        applied_leaves: &HashSet<NodeId>,
    ) -> bool {
        let roster = self.shared.roster.lock().expect("roster poisoned");
        let pending = roster.entries().any(|(p, m)| {
            (m.leave_slot.is_some_and(|l| l <= slot) && !applied_leaves.contains(&p))
                || (m.join_slot <= slot && !applied_joins.contains(&p))
        });
        pending
    }

    /// Applies membership events effective at or before `slot` to the
    /// local topology and ledger neighbors: leaves first (cut links, drop
    /// the departed peer's digest from `A_i`), then joins ascending (wire
    /// the newcomer's radio links at its deterministic join site) — the
    /// canonical order shared with the harness's reference replay.
    pub(super) fn apply_membership(
        &self,
        slot: u64,
        applied_joins: &mut HashSet<NodeId>,
        applied_leaves: &mut HashSet<NodeId>,
    ) {
        let me = self.config.id;
        let (pending_leaves, pending_joins) = {
            let roster = self.shared.roster.lock().expect("roster poisoned");
            let leaves: Vec<NodeId> = roster
                .entries()
                .filter(|(p, m)| {
                    m.leave_slot.is_some_and(|l| l <= slot) && !applied_leaves.contains(p)
                })
                .map(|(p, _)| p)
                .collect();
            let joins: Vec<NodeId> = roster
                .entries()
                .filter(|(p, m)| m.join_slot <= slot && !applied_joins.contains(p))
                .map(|(p, _)| p)
                .collect();
            (leaves, joins)
        };
        if pending_leaves.is_empty() && pending_joins.is_empty() {
            return;
        }
        let mut topology = self.shared.topology.write().expect("topology poisoned");
        let mut node = self.shared.node.write().expect("node lock poisoned");
        for peer in pending_leaves {
            self.shared.telemetry.journal.record(
                slot,
                EventKind::Membership,
                format!("{peer} left; links cut at slot {slot}"),
            );
            applied_leaves.insert(peer);
            if peer.index() < topology.len() {
                topology.isolate_node(peer);
            }
            // Dropping the neighbor also drops its last digest from `A_i`,
            // so our next block no longer references the departed node —
            // the engine's `node_leaves` semantics.
            node.remove_neighbor(peer);
        }
        for peer in pending_joins {
            // Joins must land at consecutive topology indices (the engine's
            // `add_node` contract). A gap means we heard about a later join
            // before an earlier one — leave it pending for a later boundary.
            if peer.index() != topology.len() {
                continue;
            }
            let site = {
                let roster = self.shared.roster.lock().expect("roster poisoned");
                let join_slot = roster.member(peer).map_or(slot, |m| m.join_slot);
                join_site(
                    &topology,
                    &roster,
                    self.config.seed,
                    join_slot,
                    peer,
                    deployment_range_m(),
                )
            };
            let assigned = topology.add_node(site, deployment_range_m());
            debug_assert_eq!(assigned, peer, "join ids are consecutive");
            self.shared.telemetry.journal.record(
                slot,
                EventKind::Membership,
                format!("{peer} joined; links wired at slot {slot}"),
            );
            applied_joins.insert(peer);
            if peer == me {
                for nb in topology.neighbors(me).to_vec() {
                    node.add_neighbor(nb);
                }
            } else if me.index() < topology.len() && topology.are_neighbors(me, peer) {
                // (A joiner applying an *earlier* join is not in the graph
                // itself yet; its own join below wires every link at once.)
                node.add_neighbor(peer);
            }
        }
    }

    /// The join handshake: ask the bootstrap peer for the roster, merge
    /// it, resolve our join slot, and announce ourselves to every member
    /// until acknowledged. Returns our first generation slot.
    pub(super) fn join_handshake(&self, bootstrap: SocketAddr) -> Result<u64, String> {
        let me = self.config.id;
        let deadline = Instant::now() + self.config.hello_timeout;

        // Phase 1: pull the roster (re-requesting refreshes lost entries).
        let responder_slot = loop {
            let ack = *self.shared.join_ack.lock().expect("join ack poisoned");
            if let Some((_, slot, members)) = ack {
                let seen = self
                    .shared
                    .transfer_seen
                    .lock()
                    .expect("transfer seen poisoned")
                    .len() as u32;
                if seen >= members {
                    break slot;
                }
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "join handshake with {bootstrap} timed out (no roster)"
                ));
            }
            let _ = self
                .endpoint
                .send_control(bootstrap, &Control::JoinReq { from: me });
            std::thread::sleep(Duration::from_millis(60));
        };

        // Phase 2: resolve the join slot. A scheduled joiner brings it in
        // its config; a dynamic one starts a safety margin past the
        // responder's progress so its announcement can outrun the cluster
        // (which may be generating up to `window` slots past the
        // responder's verified slot).
        let join_slot = self
            .config
            .own_churn_slot(true)
            .unwrap_or(responder_slot + 3 + self.config.window);
        let self_addr = self
            .endpoint
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        {
            let mut roster = self.shared.roster.lock().expect("roster poisoned");
            roster.learn_join(me, Some(self_addr), join_slot);
        }

        // Phase 3: announce until every live member acked (or deadline).
        let announce = Control::JoinAnnounce {
            id: me,
            slot: join_slot,
            addr: self_addr,
        };
        loop {
            let targets = self.generator_addrs(join_slot);
            let missing: Vec<(NodeId, SocketAddr)> = {
                let acks = self.shared.hello_acks.lock().expect("hello acks poisoned");
                targets
                    .into_iter()
                    .filter(|(p, _)| !acks.contains(p))
                    .collect()
            };
            if missing.is_empty() {
                return Ok(join_slot);
            }
            if Instant::now() > deadline {
                // Gossip can still converge the roster; the barrier pulls
                // recover the rest. Proceed rather than abort.
                return Ok(join_slot);
            }
            for (_, addr) in &missing {
                let _ = self.endpoint.send_control(*addr, &announce);
            }
            std::thread::sleep(Duration::from_millis(60));
        }
    }

    /// Sends hellos until every founder peer acked (sockets are up) or the
    /// deadline passes.
    pub(super) fn hello_barrier(&self) -> Result<(), String> {
        let deadline = Instant::now() + self.config.hello_timeout;
        let all: Vec<NodeId> = self.peers.ids();
        loop {
            let missing: Vec<NodeId> = {
                let acks = self.shared.hello_acks.lock().expect("hello acks poisoned");
                all.iter().filter(|p| !acks.contains(p)).copied().collect()
            };
            if missing.is_empty() {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "peers never came up: {:?}",
                    missing.iter().map(|p| p.0).collect::<Vec<_>>()
                ));
            }
            for peer in &missing {
                if let Some(addr) = self.peers.addr(*peer) {
                    let _ = self.endpoint.send_control(
                        addr,
                        &Control::Hello {
                            from: self.config.id,
                        },
                    );
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// One barrier wait quantum: park on the progress condvar, so a
    /// blocked loop burns no syscall churn and wakes the moment the
    /// dispatcher hears news.
    fn barrier_pause(&self) {
        let version = self.shared.progress.lock().expect("progress poisoned");
        let _ = self
            .shared
            .progress_cv
            .wait_timeout(version, Duration::from_millis(25))
            .expect("progress poisoned");
    }

    /// The one wait loop: pauses until `ready()` holds. Gives up,
    /// journaling a `Timeout` for `what` at `slot` and returning `false`,
    /// once the slot timeout passes or the other half of the loop aborted.
    fn wait_until(
        &self,
        slot: u64,
        what: fmt::Arguments<'_>,
        mut ready: impl FnMut() -> bool,
    ) -> bool {
        let deadline = Instant::now() + self.config.slot_timeout;
        while !ready() {
            if Instant::now() > deadline || self.shared.pipeline_abort.load(Ordering::Relaxed) {
                self.shared.telemetry.journal.record(
                    slot,
                    EventKind::Timeout,
                    format!("{what} gave up"),
                );
                return false;
            }
            self.barrier_pause();
        }
        true
    }

    /// Waits until our own slot-`slot` block has been generated (the
    /// verify worker's hand-off from the generation thread).
    pub(super) fn wait_own_generated(&self, slot: u64) -> bool {
        self.wait_until(slot, format_args!("own slot-{slot} generation"), || {
            self.shared
                .own_digests
                .lock()
                .expect("own digests poisoned")
                .contains_key(&slot)
        })
    }

    /// Waits until the local verify watermark reaches `target`.
    pub(super) fn wait_verified_through(&self, target: u64) -> bool {
        let what = format_args!("own verification below slot {target}");
        self.wait_until(target, what, || {
            self.shared.verified_through.load(Ordering::Relaxed) >= target
        })
    }

    /// Waits until every node of `from` that generated at `slot` (per the
    /// live roster — eviction shrinks the set mid-wait) announced its
    /// digest for `slot`, pulling stragglers with [`Control::DigestReq`].
    pub(super) fn digest_barrier(&self, from: &[NodeId], slot: u64) -> bool {
        let mut next_pull = Instant::now() + Duration::from_millis(120);
        self.wait_until(slot, format_args!("slot-{slot} digest barrier"), || {
            let missing: Vec<NodeId> = {
                let buffered = self.shared.digests.lock().expect("digests poisoned");
                let roster = self.shared.roster.lock().expect("roster poisoned");
                from.iter()
                    .filter(|nb| roster.generates_at(**nb, slot))
                    .filter(|nb| {
                        !buffered
                            .get(nb)
                            .is_some_and(|per_slot| per_slot.contains_key(&slot))
                    })
                    .copied()
                    .collect()
            };
            if missing.is_empty() {
                return true;
            }
            self.maybe_evict(&missing, slot);
            let now = Instant::now();
            if now >= next_pull {
                for nb in &missing {
                    if let Some(addr) = self.peers.addr(*nb) {
                        let _ = self
                            .endpoint
                            .send_control(addr, &Control::DigestReq { slot });
                    }
                }
                next_pull = now + Duration::from_millis(120);
            }
            false
        })
    }

    /// Waits until every peer that generated `slot` completed it
    /// (generation *and* its PoP). While blocked, re-broadcasts our own
    /// [`Control::SlotDone`] for `slot` (if we completed it) and pulls the
    /// blockers' slot+W digests — a peer's digest for `slot + W` proves it
    /// completed `slot` (the window gate), which is how a late joiner with
    /// no own progress at `slot` catches up without deadlocking.
    pub(super) fn done_barrier(&self, slot: u64) -> bool {
        let mut next_push = Instant::now() + Duration::from_millis(120);
        self.wait_until(slot, format_args!("slot-{slot} done barrier"), || {
            let blocked: Vec<(NodeId, SocketAddr)> = {
                let done = self.shared.done.lock().expect("done poisoned");
                self.generator_addrs(slot)
                    .into_iter()
                    .filter(|(p, _)| done.get(p).is_none_or(|&s| s < slot))
                    .collect()
            };
            if blocked.is_empty() {
                return true;
            }
            let ids: Vec<NodeId> = blocked.iter().map(|(p, _)| *p).collect();
            self.maybe_evict(&ids, slot);
            let now = Instant::now();
            if now >= next_push {
                // Read fresh each pass: a verify worker can complete `slot`
                // mid-wait.
                let executed_slot = self.shared.verified_through.load(Ordering::Relaxed) > slot;
                for (_, addr) in &blocked {
                    if executed_slot {
                        // If our SlotDone was lost, the peers are the ones
                        // blocked — on us — and the mutual re-broadcast
                        // releases everyone.
                        let _ = self
                            .endpoint
                            .send_control(*addr, &Control::SlotDone { slot });
                    }
                    let _ = self.endpoint.send_control(
                        *addr,
                        &Control::DigestReq {
                            slot: slot + self.shared.window,
                        },
                    );
                }
                next_push = now + Duration::from_millis(120);
            }
            false
        })
    }

    /// Evicts any of `blocking` that was heard from once but has been
    /// silent beyond the configured window: records the departure at
    /// `slot` in the roster (so barriers stop waiting), forgets the
    /// address, and gossips the eviction so the cluster converges.
    fn maybe_evict(&self, blocking: &[NodeId], slot: u64) {
        let Some(window) = self.config.evict_after else {
            return;
        };
        for &peer in blocking {
            if !self.peers.gone_quiet(peer, window) {
                continue;
            }
            let evicted = self
                .shared
                .roster
                .lock()
                .expect("roster poisoned")
                .evict(peer, slot);
            if !evicted {
                continue;
            }
            NetMetrics::inc(&self.endpoint.metrics().evictions);
            self.shared.telemetry.journal.record(
                slot,
                EventKind::Membership,
                format!("evicted silent peer {peer} at slot {slot}"),
            );
            self.peers.forget(peer);
            // Tell the evictee too: `generator_addrs` no longer lists it,
            // and when every honest node evicts inside the same quiet
            // window the `news` re-gossip guard fires nowhere, so without
            // a direct send the verdict never reaches the peer it names
            // (a flapper waits on exactly that signal to start rejoining).
            let mut targets = self.generator_addrs(slot);
            let evictee_addr = self
                .shared
                .roster
                .lock()
                .expect("roster poisoned")
                .member(peer)
                .and_then(|m| m.addr);
            if let Some(addr) = evictee_addr {
                targets.push((peer, addr));
            }
            for (_, addr) in targets {
                let _ = self
                    .endpoint
                    .send_control(addr, &Control::Leave { node: peer, slot });
            }
        }
    }

    /// All generating members at `slot` (other than us) whose address is
    /// known — the gossip/lockstep fan-out set.
    pub(super) fn generator_addrs(&self, slot: u64) -> Vec<(NodeId, SocketAddr)> {
        self.shared
            .roster
            .lock()
            .expect("roster poisoned")
            .peer_addrs_at(slot, self.config.id)
    }
}
