//! The one slot loop: the per-slot generate → gossip step, the per-slot
//! verify step, the digest fold and the slot commit point.

use super::*;

impl NetNode {
    /// The one slot loop. Every slot runs the generate → gossip step
    /// ([`Self::generation_loop`]); PoP runs follow each with the verify
    /// step ([`Self::verify_slot`]), strictly in slot order, behind the
    /// window gate. Horizon-capped child requests
    /// ([`WireMessage::ReqChildAt`]) keep every PoP exchange identical at
    /// every window: a run-ahead responder answers from its store *as of
    /// the slot under verification*. Returns whether any barrier gave up.
    pub(super) fn slot_loop(&self, start_slot: u64, end_slot: u64) -> Result<bool, String> {
        // Slots before our first are nobody's to verify: a joiner's drain
        // and window gates measure from its own start.
        self.shared.update(|b| b.verified_through = start_slot);
        if !self.config.pop {
            return self.generation_loop(start_slot, end_slot, None);
        }
        // The verify step owns the node's trust state for the whole run,
        // returning it at the end; a generation-time fold sees the blank
        // blacklist left behind (see `folds_in_verify`).
        let mut state = {
            let mut node = self.shared.node.write().expect("node lock poisoned");
            VerifyState {
                trust_cache: node.take_trust_cache(),
                blacklist: node.take_blacklist(&self.cfg),
                degraded: false,
                end_slot,
                fetched: BTreeMap::new(),
            }
        };
        // Who calls the verify step. At `W = 1` the window gate already
        // makes generation of `t+1` wait for our own verification of `t`,
        // so a thread hand-off would be pure overhead: the generation
        // thread verifies inline. At `W > 1` a worker verifies while
        // generation runs ahead.
        let gen = if self.config.window == 1 {
            self.generation_loop(start_slot, end_slot, Some(&mut state))
        } else {
            std::thread::scope(|scope| {
                let worker = scope.spawn(|| {
                    for slot in start_slot..end_slot {
                        // Our own slot-`slot` block must exist before the
                        // PoP scans.
                        let aborted = self.shared.book().pipeline_abort;
                        if aborted || !self.wait_own_generated(slot) {
                            state.degraded = true;
                            break;
                        }
                        self.verify_slot(slot, &mut state);
                    }
                    if state.degraded {
                        // Free the generation half from its window-gate waits.
                        abort_pipeline(&self.shared);
                    }
                });
                let gen = self.generation_loop(start_slot, end_slot, None);
                if gen.is_err() {
                    // The worker must not wait out its timeouts slot by slot
                    // for blocks that will never be generated.
                    abort_pipeline(&self.shared);
                }
                let verify = worker
                    .join()
                    .map_err(|_| "verify worker panicked".to_string());
                gen.and_then(|degraded| verify.map(|()| degraded))
            })
        };
        // Fetches sent ahead for slots the worker never verified (it
        // degraded or was aborted) are given up.
        for (_, ticket) in std::mem::take(&mut state.fetched).into_values() {
            self.endpoint.cancel(ticket);
        }
        {
            let mut node = self.shared.node.write().expect("node lock poisoned");
            node.restore_trust_cache(state.trust_cache);
            node.restore_blacklist(state.blacklist);
        }
        Ok(gen? || state.degraded)
    }

    /// Where slot `t`'s neighbour digests are folded into `A_i`. PoP at
    /// `W = 1` folds them inside `verify_slot(t)`, *before* the PoP and
    /// gated by the validator's blacklist — the engine's
    /// gossip-then-verify order, load-bearing for parity under
    /// ban-inducing adversaries (a folded digest earns parole credit and
    /// the PoP records offenses, so folding after it would land each ban
    /// one slot early and change which digests the chain accepts from
    /// then on). Everywhere else the fold waits for the generation of
    /// `t+1` and is not ban-gated: block `t+1` embeds the fold of `t`,
    /// which the engine gates on the blacklist after verify(`t−1`), so
    /// once generation outruns verification exact parity under bans is
    /// impossible beyond `W = 2` without rollback.
    fn folds_in_verify(&self) -> bool {
        self.config.pop && self.config.window == 1
    }

    /// The generate → gossip step of every slot in `start_slot..end_slot`,
    /// each followed by the verify step when the caller hands its state in
    /// (`inline`). Returns whether any barrier degraded.
    fn generation_loop(
        &self,
        start_slot: u64,
        end_slot: u64,
        mut inline: Option<&mut VerifyState>,
    ) -> Result<bool, String> {
        let id = self.config.id;
        let seed = self.config.seed;
        let window = self.config.window;
        let mut degraded = false;
        // Membership events already folded into the local topology; the
        // founders' initial graph counts as applied.
        let mut applied_joins: HashSet<NodeId> =
            (0..self.config.nodes as u32).map(NodeId).collect();
        let mut applied_leaves: HashSet<NodeId> = HashSet::new();
        let mut behavior_applied = false;
        let telemetry = &self.shared.telemetry;
        for slot in start_slot..end_slot {
            self.shared.book().current_slot = slot;
            telemetry
                .journal
                .record(slot, EventKind::SlotStart, format!("slot {slot} begins"));
            if !behavior_applied && self.adversary_active(slot) {
                behavior_applied = true;
                if self.config.behavior == Behavior::Flapper {
                    // A verify worker must not wait out timeouts for
                    // slots the flapper will never generate.
                    abort_pipeline(&self.shared);
                    self.flap_phase(slot);
                    break;
                }
                self.activate_behavior(slot);
            }
            self.shared.book().slot_started.insert(slot, Instant::now());
            // Membership mutates the topology and neighbor set the verify
            // step reads; drain the pipeline to the boundary first so
            // every slot before the change is verified under the graph it
            // was generated under.
            let (leaves, joins) = self.pending_membership(slot, &applied_joins, &applied_leaves);
            if !leaves.is_empty() || !joins.is_empty() {
                degraded |= !self.wait_verified_through(slot);
                self.apply_membership(slot, &mut applied_joins, &mut applied_leaves);
            }
            let neighbors = self.neighbors();

            // --- Digest barrier: our slot-t block embeds the slot-(t-1)
            // digest of every neighbor that generated at t-1 under the
            // current roster. The barrier waits are the wire's cross-shard
            // exchange.
            let exchange_started = Instant::now();
            if slot > start_slot {
                degraded |= !self.digest_barrier(&neighbors, slot - 1);
            }
            // --- Window gate (PoP mode only): generation may run at most
            // `window` slots ahead of the cluster's completion
            // low-watermark and of our own verification — otherwise a fast
            // peer's block could answer a slow validator's PoP with
            // children the reference engine has not generated yet. With
            // `W = 1` this is the engine's phase order: slot t-1 verified
            // everywhere before anyone generates slot t.
            if self.config.pop && slot >= start_slot + window {
                degraded |= !self.done_barrier(slot - window);
                degraded |= !self.wait_verified_through(slot - window + 1);
            }
            telemetry
                .phases
                .record(Phase::Exchange, exchange_started.elapsed());

            // --- Apply gossip and generate, mirroring the engine's phases.
            let generate_started = Instant::now();
            if slot > start_slot && !self.folds_in_verify() {
                degraded |= !self.fold_digests(&neighbors, slot - 1, None);
            }
            let (digest, twin) = {
                let mut node = self.shared.node.write().expect("node lock poisoned");
                node.begin_slot();
                let mut rng = derived_rng(seed, stream::GENERATE, slot, id);
                let payload = sensor_payload(&mut rng, id, slot);
                let block = node
                    .generate_block(&self.cfg, slot, payload)
                    .map_err(|e| format!("generation failed at slot {slot}: {e}"))?;
                telemetry
                    .phases
                    .record(Phase::Generate, generate_started.elapsed());
                telemetry.journal.record(
                    slot,
                    EventKind::Generate,
                    format!("generated block #{}", node.chain_len() - 1),
                );
                // PerSlot durability: the engine's slot-boundary commit point.
                let sync_started = Instant::now();
                node.store_mut()
                    .sync()
                    .map_err(|e| format!("sync failed at slot {slot}: {e}"))?;
                let synced = sync_started.elapsed();
                telemetry.fsync.record(synced);
                telemetry.phases.record(Phase::Commit, synced);
                let twin = (behavior_applied && self.config.behavior == Behavior::Equivocate)
                    .then(|| node.equivocating_twin(&self.cfg, &block).header_digest());
                let digest = node.own_latest_digest().expect("block just appended");
                (digest, twin)
            };
            let gossip_started = Instant::now();
            // A verify worker may be parked on this very digest. PoP walks
            // the whole DAG, so in PoP mode every generating peer needs the
            // digest (the verify step's barrier proves global generation
            // progress); without PoP only neighbors consume it.
            let gossip_targets: Vec<(NodeId, SocketAddr)> = self.shared.update(|book| {
                book.own_digests.insert(slot, digest);
                // Peers can lag at most one window, but a late joiner's
                // catch-up pull may reach further back; 64 slots of
                // 32-byte history is cheap insurance.
                book.own_digests = book.own_digests.split_off(&slot.saturating_sub(64));
                if self.config.pop {
                    book.roster.peer_addrs_at(slot, id)
                } else {
                    neighbors
                        .iter()
                        .filter_map(|&nb| Some((nb, book.roster.request_addr(nb)?)))
                        .collect()
                }
            });
            let prefix = digest.prefix_u64();
            record_span(&self.shared, id.0, slot, id.0, prefix, SpanKind::Generated);
            let trace_ctx = gossip_trace_ctx(&self.shared, id.0, slot, prefix);
            send_all(
                &self.endpoint,
                gossip_targets
                    .iter()
                    .map(|&(_, addr)| (addr, Control::SlotDigest { slot, digest }, trace_ctx))
                    .collect(),
            );
            if !gossip_targets.is_empty() {
                record_span(
                    &self.shared,
                    id.0,
                    slot,
                    id.0,
                    prefix,
                    SpanKind::GossipedOut,
                );
            }
            if behavior_applied {
                self.adversary_gossip(slot, digest, twin, &gossip_targets);
            }
            telemetry
                .phases
                .record(Phase::Gossip, gossip_started.elapsed());
            match inline.as_deref_mut() {
                Some(state) => self.verify_slot(slot, state),
                // Without PoP the slot is fully executed once gossiped.
                None if !self.config.pop => self.commit_slot(slot),
                None => {}
            }
        }
        Ok(degraded)
    }

    /// The verify step of one slot, mirroring the engine's Verify phase —
    /// same barrier, same derived randomness, same target choice — with
    /// every child lookup horizon-capped at the slot under verification.
    fn verify_slot(&self, slot: u64, state: &mut VerifyState) {
        let id = self.config.id;
        let telemetry = &self.shared.telemetry;
        let verify_started = Instant::now();
        // The engine's verify phase starts after *all* generation in the
        // slot: wait until every generating peer announced its slot-t
        // digest, proving its chain holds its blocks through t.
        let all_generators = self.shared.book().other_generators(id, slot);
        if self.digest_barrier(&all_generators, slot) {
            self.fetch_ahead(slot, state);
        } else {
            state.degraded = true;
        }
        if self.folds_in_verify() {
            let fold_started = Instant::now();
            state.degraded |=
                !self.fold_digests(&self.neighbors(), slot, Some(&mut state.blacklist));
            telemetry
                .phases
                .record(Phase::Gossip, fold_started.elapsed());
        }
        let target = self.verify_target(slot);
        // A fetch sent ahead for another block (the roster changed since)
        // is given up, and the walk fetches its target itself.
        let fetched = state.fetched.remove(&slot).and_then(|(sent_for, ticket)| {
            if Some(sent_for) == target {
                return Some(ticket);
            }
            self.endpoint.cancel(ticket);
            None
        });
        if let Some(target) = target {
            telemetry.pop_attempts.fetch_add(1, Ordering::Relaxed);
            let pop_started = Instant::now();
            let report = self.run_pop_with(slot, target, fetched, state);
            self.shared.book().blacklist_banned = state.blacklist.banned_count() as u64;
            telemetry.pop_rtt.record(pop_started.elapsed());
            telemetry.merge_pop(&report.metrics);
            if report.is_success() {
                telemetry.pop_successes.fetch_add(1, Ordering::Relaxed);
            }
            telemetry.journal.record(
                slot,
                EventKind::Pop,
                format!(
                    "verified {target}: {} ({} distinct, {} msgs)",
                    if report.is_success() { "ok" } else { "failed" },
                    report.distinct_nodes,
                    report.metrics.total_messages(),
                ),
            );
            if report.metrics.timeouts > 0 {
                telemetry.journal.record(
                    slot,
                    EventKind::Timeout,
                    format!("{} PoP requests timed out", report.metrics.timeouts),
                );
            }
            if report.metrics.pruned_misses > 0 {
                telemetry.journal.record(
                    slot,
                    EventKind::Pruned,
                    format!("{} pruned misses during PoP", report.metrics.pruned_misses),
                );
            }
        }
        // Slot completed (generated *and* verified): announce it whether
        // or not a target qualified — peers gate their window on it.
        send_all(
            &self.endpoint,
            self.generator_addrs(slot)
                .into_iter()
                .map(|(_, addr)| (addr, Control::SlotDone { slot }, None))
                .collect(),
        );
        self.commit_slot(slot);
        telemetry
            .phases
            .record(Phase::Verify, verify_started.elapsed());
    }

    /// The block this node verifies at `slot`: the engine's choice from the
    /// same derived target stream over the same pool, or `None` when the
    /// pool is empty. The engine never makes a malicious node a validator
    /// (its verify phase filters them out), so an active adversary skips
    /// the PoP identically — no target — or the PoP counters would diverge
    /// from the reference run.
    fn verify_target(&self, slot: u64) -> Option<BlockId> {
        if self.adversary_active(slot) {
            return None;
        }
        let id = self.config.id;
        let mut target_rng = derived_rng(self.config.seed, stream::TARGET, slot, id);
        wire_target_pool(&self.shared.book().roster, slot, self.pop_min_age())
            .choose(id, &mut target_rng)
    }

    /// How many slots old a block must be to be a target: the paper's
    /// workload default, the founder count.
    fn pop_min_age(&self) -> u64 {
        self.config.nodes as u64
    }

    /// Sends the target fetch of each slot `next` in `slot + 1 ..= slot +
    /// k`, below the run's end, with `k = min(W − 1, min_age)`, unless one
    /// is in flight already or the target's owner has not announced its
    /// slot-`next` digest yet. Called once `slot`'s all-generators digest
    /// barrier passed, and again while each ask of its walk is in flight.
    /// The owner's slot-`next` digest proves that the target, at least
    /// `min_age` slots older, is in its chain, and, since an owner turns
    /// adversarial at its own slot start, that the fetch meets the owner
    /// as the verify step of `next` would after that step's own barrier.
    /// That step takes the reply as its walk's first answer. At `W = 1`,
    /// `k = 0`: nothing is sent ahead.
    pub(super) fn fetch_ahead(&self, slot: u64, state: &mut VerifyState) {
        let ahead = self.config.window.saturating_sub(1).min(self.pop_min_age());
        let addr_of = |peer| self.shared.book().roster.request_addr(peer);
        for next in slot + 1..(slot + 1 + ahead).min(state.end_slot) {
            if state.fetched.contains_key(&next) {
                continue;
            }
            let Some(target) = self.verify_target(next) else {
                continue;
            };
            if self.shared.book().heard(target.owner, next).is_none() {
                continue;
            }
            if let Some(ticket) = pop::send_ask(&self.endpoint, addr_of, &Request::Fetch(target)) {
                state.fetched.insert(next, (target, ticket));
            }
        }
    }

    /// Folds every neighbor's slot-`of` digest into `A_i`
    /// (`receive_digest`), ban-gated by `blacklist` when the caller holds
    /// the node's trust state. Returns `false` when a digest the roster
    /// promises could not be had.
    fn fold_digests(
        &self,
        neighbors: &[NodeId],
        of: u64,
        mut blacklist: Option<&mut Blacklist>,
    ) -> bool {
        let mut complete = true;
        let mut folded: Vec<(NodeId, Digest)> = Vec::new();
        for &nb in neighbors {
            let buffered = {
                let book = self.shared.book();
                if !book.roster.generates_at(nb, of) {
                    continue;
                }
                book.heard(nb, of)
            };
            // A conflict discard can empty the entry between the caller's
            // barrier and this read; the re-barrier pulls the canonical
            // digest back from the peer directly.
            let entry = buffered.or_else(|| {
                self.digest_barrier(std::slice::from_ref(&nb), of)
                    .then(|| self.shared.book().heard(nb, of))
                    .flatten()
            });
            match entry {
                Some(d) => folded.push((nb, d)),
                None => {
                    complete = false;
                    self.shared.telemetry.journal.record(
                        of,
                        EventKind::Timeout,
                        format!("no slot-{of} digest from {nb} to fold"),
                    );
                }
            }
        }
        {
            let mut node = self.shared.node.write().expect("node lock poisoned");
            if let Some(held) = blacklist.as_deref_mut() {
                std::mem::swap(held, node.blacklist_mut());
            }
            for (nb, d) in folded {
                node.receive_digest(nb, d);
            }
            if let Some(held) = blacklist {
                std::mem::swap(held, node.blacklist_mut());
            }
        }
        // Applied digests are spent. The newest `window` slots stay
        // buffered — as conflict bait for late fakes, and because the
        // verify step reads digest *presence* up to `window` slots behind
        // generation — so the buffer stays O(window), not O(slots).
        let keep_from = (of + 1).saturating_sub(self.config.window);
        for per_slot in self.shared.book().digests.values_mut() {
            *per_slot = per_slot.split_off(&keep_from);
        }
        complete
    }

    /// The slot's local commit point — fully executed (generated,
    /// gossiped, and in PoP mode verified): journal the retransmissions
    /// since the previous commit, raise the verify watermark, and close
    /// the latency sample. One caller per run, in slot order.
    fn commit_slot(&self, slot: u64) {
        let telemetry = &self.shared.telemetry;
        let total = self.endpoint.stats().request_retries;
        let retries = total - std::mem::replace(&mut self.shared.book().retries_journaled, total);
        if retries > 0 {
            telemetry.journal.record(
                slot,
                EventKind::Retry,
                format!("{retries} request retransmissions"),
            );
        }
        self.record_slot_committed(slot);
        let started = self.shared.update(|book| {
            book.verified_through = slot + 1;
            book.slot_started.remove(&slot)
        });
        if let Some(started) = started {
            telemetry.slot_latency.record(started.elapsed());
        }
    }

    /// This node's current radio neighbors.
    pub(super) fn neighbors(&self) -> Vec<NodeId> {
        self.shared
            .topology
            .read()
            .expect("topology poisoned")
            .neighbors(self.config.id)
            .to_vec()
    }

    /// Stamps a [`SpanKind::Committed`] span on every block of `slot` this
    /// node can identify — its own block plus each traced digest heard —
    /// and prunes the per-slot key buffer up to `slot`. Called at the
    /// slot's local commit point (the verify watermark raise).
    fn record_slot_committed(&self, slot: u64) {
        if !self.shared.telemetry.spans.is_enabled() {
            return;
        }
        let me = self.config.id.0;
        let (own, heard) = {
            let mut book = self.shared.book();
            let own = book.own_digests.get(&slot).copied();
            let heard = book.trace_keys.remove(&slot).unwrap_or_default();
            // Keys below the committed slot can never be consumed anymore.
            book.trace_keys = book.trace_keys.split_off(&slot);
            (own, heard)
        };
        if let Some(digest) = own {
            record_span(
                &self.shared,
                me,
                slot,
                me,
                digest.prefix_u64(),
                SpanKind::Committed,
            );
        }
        for (origin, prefix) in heard {
            record_span(&self.shared, me, slot, origin, prefix, SpanKind::Committed);
        }
    }
}
