//! Membership at slot boundaries, the startup handshakes, and the barrier
//! waits (digest, done, own watermark) with liveness eviction.

use super::*;

impl NetNode {
    /// The roster's membership events at or before `slot` not yet folded
    /// into the local topology: `(leaves, joins)`, each ascending.
    pub(super) fn pending_membership(
        &self,
        slot: u64,
        applied_joins: &HashSet<NodeId>,
        applied_leaves: &HashSet<NodeId>,
    ) -> (Vec<NodeId>, Vec<NodeId>) {
        let book = self.shared.book();
        let roster = &book.roster;
        let leaves = roster
            .entries()
            .filter(|(p, m)| m.leave_slot.is_some_and(|l| l <= slot) && !applied_leaves.contains(p))
            .map(|(p, _)| p)
            .collect();
        let joins = roster
            .entries()
            .filter(|(p, m)| m.join_slot <= slot && !applied_joins.contains(p))
            .map(|(p, _)| p)
            .collect();
        (leaves, joins)
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
        let (pending_leaves, pending_joins) =
            self.pending_membership(slot, applied_joins, applied_leaves);
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
                let book = self.shared.book();
                let join_slot = book.roster.member(peer).map_or(slot, |m| m.join_slot);
                join_site(
                    &topology,
                    &book.roster,
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
        let transferred = |book: &mut Book| match book.join_ack {
            Some((_, slot, members)) if book.transfer_seen.len() as u32 >= members => Some(slot),
            _ => None,
        };
        let responder_slot = loop {
            if Instant::now() > deadline {
                return Err(format!(
                    "join handshake with {bootstrap} timed out (no roster)"
                ));
            }
            self.endpoint
                .send_control(bootstrap, &Control::JoinReq { from: me });
            let resend = Instant::now() + Duration::from_millis(60);
            if let Some(slot) = self.shared.park(resend, transferred) {
                break slot;
            }
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
        self.shared
            .book()
            .roster
            .learn_join(me, Some(self_addr), join_slot);

        // Phase 3: announce to every live member until each acked. Past
        // the deadline, proceed rather than abort: gossip can still
        // converge the roster, and the barrier pulls recover the rest.
        let announce = Control::JoinAnnounce {
            id: me,
            slot: join_slot,
            addr: self_addr,
        };
        let period = Duration::from_millis(60);
        let _ = self.until_acked(&announce, period, deadline, |book| {
            book.roster.peer_addrs_at(join_slot, me)
        });
        Ok(join_slot)
    }

    /// Sends hellos until every peer addressable at startup (every other
    /// founder) acked — sockets are up — or the deadline passes.
    pub(super) fn hello_barrier(&self) -> Result<(), String> {
        let deadline = Instant::now() + self.config.hello_timeout;
        let founders: Vec<(NodeId, SocketAddr)> = self
            .shared
            .book()
            .roster
            .entries()
            .filter(|&(id, _)| id != self.config.id)
            .filter_map(|(id, m)| Some((id, m.request_addr()?)))
            .collect();
        let hello = Control::Hello {
            from: self.config.id,
        };
        self.until_acked(&hello, Duration::from_millis(50), deadline, |_| {
            founders.clone()
        })
        .map_err(|missing| {
            let ids: Vec<u32> = missing.iter().map(|p| p.0).collect();
            format!("peers never came up: {ids:?}")
        })
    }

    /// The one bootstrap ack loop: every `period`, sends `msg` to each of
    /// `targets()` that has not acked yet, until all have or `deadline`
    /// passes — then returns the ids still missing.
    fn until_acked(
        &self,
        msg: &Control,
        period: Duration,
        deadline: Instant,
        targets: impl Fn(&Book) -> Vec<(NodeId, SocketAddr)>,
    ) -> Result<(), Vec<NodeId>> {
        loop {
            let missing = {
                let book = self.shared.book();
                let mut missing = targets(&book);
                missing.retain(|(p, _)| !book.hello_acks.contains(p));
                missing
            };
            if missing.is_empty() {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(missing.into_iter().map(|(p, _)| p).collect());
            }
            send_all(
                &self.endpoint,
                missing
                    .iter()
                    .map(|&(_, addr)| (addr, *msg, None))
                    .collect(),
            );
            self.shared.park(Instant::now() + period, |book| {
                let acked = missing.iter().all(|(p, _)| book.hello_acks.contains(p));
                acked.then_some(())
            });
        }
    }

    /// The one barrier wait: parks on the book until `check` finds the
    /// barrier passed, making the sends a blocked check asks for with the
    /// book released. Gives up, journaling a `Timeout` for `what` at `slot`
    /// and returning `false`, once the slot timeout passes or the other
    /// half of the loop aborted.
    fn wait_until(
        &self,
        slot: u64,
        what: fmt::Arguments<'_>,
        mut check: impl FnMut(&mut Book) -> ControlFlow<(), Sends>,
    ) -> bool {
        let deadline = Instant::now() + self.config.slot_timeout;
        loop {
            let step = self.shared.park(deadline, |book| match check(book) {
                ControlFlow::Continue(sends) if sends.is_empty() && !book.pipeline_abort => None,
                step => Some(step),
            });
            match step {
                Some(ControlFlow::Break(())) => return true,
                Some(ControlFlow::Continue(sends)) if !sends.is_empty() => {
                    // A blocked check may have evicted a peer: other waits
                    // must look at the roster again too.
                    self.shared.changed.notify_all();
                    send_all(&self.endpoint, sends);
                }
                _ => {
                    self.shared.telemetry.journal.record(
                        slot,
                        EventKind::Timeout,
                        format!("{what} gave up"),
                    );
                    return false;
                }
            }
        }
    }

    /// Waits until our own slot-`slot` block has been generated (the
    /// verify worker's hand-off from the generation thread).
    pub(super) fn wait_own_generated(&self, slot: u64) -> bool {
        self.wait_until(slot, format_args!("own slot-{slot} generation"), |book| {
            passed_if(book.own_digests.contains_key(&slot))
        })
    }

    /// Waits until the local verify watermark reaches `target`.
    pub(super) fn wait_verified_through(&self, target: u64) -> bool {
        let what = format_args!("own verification below slot {target}");
        self.wait_until(target, what, |book| {
            passed_if(book.verified_through >= target)
        })
    }

    /// Waits until every node of `from` that generated at `slot` (per the
    /// live roster — eviction shrinks the set mid-wait) announced its
    /// digest for `slot`, pulling stragglers with [`Control::DigestReq`].
    pub(super) fn digest_barrier(&self, from: &[NodeId], slot: u64) -> bool {
        let mut next_pull = Instant::now() + RESEND_PERIOD;
        self.wait_until(slot, format_args!("slot-{slot} digest barrier"), |book| {
            let missing: Vec<NodeId> = from
                .iter()
                .filter(|&&nb| book.roster.generates_at(nb, slot) && book.heard(nb, slot).is_none())
                .copied()
                .collect();
            if missing.is_empty() {
                return ControlFlow::Break(());
            }
            let mut sends = self.maybe_evict(book, &missing, slot);
            let now = Instant::now();
            if now >= next_pull {
                sends.extend(
                    missing
                        .iter()
                        .filter_map(|&nb| book.roster.request_addr(nb))
                        .map(|addr| (addr, Control::DigestReq { slot }, None)),
                );
                next_pull = now + RESEND_PERIOD;
            }
            ControlFlow::Continue(sends)
        })
    }

    /// Waits until every peer that generated `slot` completed it
    /// (generation *and* its PoP). While blocked, re-broadcasts our own
    /// [`Control::SlotDone`] for `slot` (if we completed it) and pulls the
    /// blockers' slot+W digests — a peer's digest for `slot + W` proves it
    /// completed `slot` (the window gate), which is how a late joiner with
    /// no own progress at `slot` catches up without deadlocking.
    pub(super) fn done_barrier(&self, slot: u64) -> bool {
        let mut next_push = Instant::now() + RESEND_PERIOD;
        self.wait_until(slot, format_args!("slot-{slot} done barrier"), |book| {
            let mut blocked = book.roster.peer_addrs_at(slot, self.config.id);
            blocked.retain(|(p, _)| book.done.get(p).is_none_or(|&s| s < slot));
            if blocked.is_empty() {
                return ControlFlow::Break(());
            }
            let ids: Vec<NodeId> = blocked.iter().map(|(p, _)| *p).collect();
            let mut sends = self.maybe_evict(book, &ids, slot);
            let now = Instant::now();
            if now >= next_push {
                // Read fresh each pass: a verify worker can complete `slot`
                // mid-wait.
                let executed_slot = book.verified_through > slot;
                let pull = Control::DigestReq {
                    slot: slot + self.shared.window,
                };
                for (_, addr) in blocked {
                    if executed_slot {
                        // If our SlotDone was lost, the peers are the ones
                        // blocked — on us — and the mutual re-broadcast
                        // releases everyone.
                        sends.push((addr, Control::SlotDone { slot }, None));
                    }
                    sends.push((addr, pull, None));
                }
                next_push = now + RESEND_PERIOD;
            }
            ControlFlow::Continue(sends)
        })
    }

    /// Evicts any of `blocking` that was heard from once but has been
    /// silent beyond the configured window: records the departure at
    /// `slot` in the roster (so barriers stop waiting), cuts the peer off
    /// from requests, and returns the `Leave`s that gossip the eviction so
    /// the cluster converges.
    fn maybe_evict(&self, book: &mut Book, blocking: &[NodeId], slot: u64) -> Sends {
        let mut sends = Sends::new();
        let Some(window) = self.config.evict_after else {
            return sends;
        };
        for &peer in blocking {
            let roster = &mut book.roster;
            if !roster.gone_quiet(peer, window) || !roster.evict(peer, slot) {
                continue;
            }
            let evictee_addr = roster.cut(peer);
            NetMetrics::inc(&self.endpoint.metrics().evictions);
            self.shared.telemetry.journal.record(
                slot,
                EventKind::Membership,
                format!("evicted silent peer {peer} at slot {slot}"),
            );
            // Tell the evictee too: the roster no longer lists it as a
            // generator, and when every honest node evicts inside the same
            // quiet window the `news` re-gossip guard fires nowhere, so
            // without a direct send the verdict never reaches the peer it
            // names (a flapper waits on exactly that signal to start
            // rejoining).
            let mut targets = roster.peer_addrs_at(slot, self.config.id);
            if let Some(addr) = evictee_addr {
                targets.push((peer, addr));
            }
            let leave = Control::Leave { node: peer, slot };
            sends.extend(targets.into_iter().map(|(_, addr)| (addr, leave, None)));
        }
        sends
    }

    /// All generating members at `slot` (other than us) whose address is
    /// known — the gossip/lockstep fan-out set.
    pub(super) fn generator_addrs(&self, slot: u64) -> Vec<(NodeId, SocketAddr)> {
        self.shared
            .book()
            .roster
            .peer_addrs_at(slot, self.config.id)
    }
}

/// How often a blocked barrier re-sends its pulls and pushes.
const RESEND_PERIOD: Duration = Duration::from_millis(120);

/// A barrier check that only waits for `passed`, sending nothing meanwhile.
fn passed_if(passed: bool) -> ControlFlow<(), Sends> {
    if passed {
        ControlFlow::Break(())
    } else {
        ControlFlow::Continue(Sends::new())
    }
}
