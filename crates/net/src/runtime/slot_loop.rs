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
    /// the slot under verification*.
    pub(super) fn slot_loop(
        &self,
        start_slot: u64,
        end_slot: u64,
    ) -> Result<SlotLoopOutcome, String> {
        // Slots before our first are nobody's to verify: a joiner's drain
        // and window gates measure from its own start.
        self.shared
            .verified_through
            .store(start_slot, Ordering::Relaxed);
        if !self.config.pop {
            let degraded = self.generation_loop(start_slot, end_slot, None)?;
            return Ok(SlotLoopOutcome {
                degraded,
                ..SlotLoopOutcome::default()
            });
        }
        // The verify step owns the node's trust state for the whole run,
        // returning it at the end; a generation-time fold sees the blank
        // blacklist left behind (see `folds_in_verify`).
        let mut state = {
            let mut node = self.shared.node.write().expect("node lock poisoned");
            VerifyState {
                trust_cache: node.take_trust_cache(),
                blacklist: node.take_blacklist(&self.cfg),
                outcome: SlotLoopOutcome::default(),
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
                        if self.shared.pipeline_abort.load(Ordering::Relaxed)
                            || !self.wait_own_generated(slot)
                        {
                            state.outcome.degraded = true;
                            break;
                        }
                        self.verify_slot(slot, &mut state);
                    }
                    if state.outcome.degraded {
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
        {
            let mut node = self.shared.node.write().expect("node lock poisoned");
            node.restore_trust_cache(state.trust_cache);
            node.restore_blacklist(state.blacklist);
        }
        Ok(SlotLoopOutcome {
            degraded: gen? || state.outcome.degraded,
            ..state.outcome
        })
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
            self.shared.current_slot.store(slot, Ordering::Relaxed);
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
            self.shared
                .slot_started
                .lock()
                .expect("slot started poisoned")
                .insert(slot, Instant::now());
            // Membership mutates the topology and neighbor set the verify
            // step reads; drain the pipeline to the boundary first so
            // every slot before the change is verified under the graph it
            // was generated under.
            if self.membership_pending(slot, &applied_joins, &applied_leaves) {
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
            let (digest, equivocation) = {
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
                let equivocation = (behavior_applied
                    && self.config.behavior == Behavior::Equivocate)
                    .then(|| (block.id, block.header.digests.clone()));
                let digest = node.own_latest_digest().expect("block just appended");
                (digest, equivocation)
            };
            let gossip_started = Instant::now();
            {
                let mut own = self
                    .shared
                    .own_digests
                    .lock()
                    .expect("own digests poisoned");
                own.insert(slot, digest);
                // Peers can lag at most one window, but a late joiner's
                // catch-up pull may reach further back; 64 slots of
                // 32-byte history is cheap insurance.
                *own = own.split_off(&slot.saturating_sub(64));
            }
            let prefix = digest.prefix_u64();
            record_span(&self.shared, id.0, slot, id.0, prefix, SpanKind::Generated);
            // A verify worker may be parked on this very digest.
            notify_progress(&self.shared);
            // PoP walks the whole DAG, so in PoP mode every generating peer
            // needs the digest (the verify step's barrier proves global
            // generation progress); without PoP only neighbors consume it.
            let gossip_targets: Vec<(NodeId, SocketAddr)> = if self.config.pop {
                self.generator_addrs(slot)
            } else {
                neighbors
                    .iter()
                    .filter_map(|&nb| self.peers.addr(nb).map(|a| (nb, a)))
                    .collect()
            };
            let trace_ctx = gossip_trace_ctx(&self.shared, id.0, slot, prefix);
            for (_, addr) in &gossip_targets {
                let _ = self.endpoint.send_control_traced(
                    *addr,
                    &Control::SlotDigest { slot, digest },
                    trace_ctx,
                );
            }
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
                self.adversary_gossip(slot, digest, equivocation, &gossip_targets);
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
        let all_generators = other_generators(&self.shared, id, slot);
        state.outcome.degraded |= !self.digest_barrier(&all_generators, slot);
        if self.folds_in_verify() {
            let fold_started = Instant::now();
            state.outcome.degraded |=
                !self.fold_digests(&self.neighbors(), slot, Some(&mut state.blacklist));
            telemetry
                .phases
                .record(Phase::Gossip, fold_started.elapsed());
        }
        // The engine never makes a malicious node a validator (its verify
        // phase filters them out), so an active adversary skips the PoP
        // identically — no target — or the PoP counters would diverge from
        // the reference run.
        let target = if self.adversary_active(slot) {
            None
        } else {
            let roster = self.shared.roster.lock().expect("roster poisoned");
            let min_age = self.config.nodes as u64; // the paper's workload default
            let mut target_rng = derived_rng(self.config.seed, stream::TARGET, slot, id);
            wire_target_pool(&roster, slot, min_age).choose(id, &mut target_rng)
        };
        if let Some(target) = target {
            state.outcome.pop_attempts += 1;
            telemetry.pop_attempts.fetch_add(1, Ordering::Relaxed);
            let pop_started = Instant::now();
            let report = self.run_pop_with(slot, target, state);
            self.shared
                .blacklist_banned
                .store(state.blacklist.banned_count() as u64, Ordering::Relaxed);
            telemetry.pop_rtt.record(pop_started.elapsed());
            telemetry.merge_pop(&report.metrics);
            if report.is_success() {
                state.outcome.pop_successes += 1;
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
        for (_, addr) in self.generator_addrs(slot) {
            let _ = self
                .endpoint
                .send_control(addr, &Control::SlotDone { slot });
        }
        self.commit_slot(slot);
        telemetry
            .phases
            .record(Phase::Verify, verify_started.elapsed());
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
            let expected = {
                let roster = self.shared.roster.lock().expect("roster poisoned");
                roster.generates_at(nb, of)
            };
            if !expected {
                continue;
            }
            let buffered = || {
                self.shared
                    .digests
                    .lock()
                    .expect("digests poisoned")
                    .get(&nb)
                    .and_then(|per_slot| per_slot.get(&of))
                    .copied()
            };
            // A conflict discard can empty the entry between the caller's
            // barrier and this read; the re-barrier pulls the canonical
            // digest back from the peer directly.
            let entry = buffered().or_else(|| {
                self.digest_barrier(std::slice::from_ref(&nb), of)
                    .then(buffered)
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
        let mut buffered = self.shared.digests.lock().expect("digests poisoned");
        for per_slot in buffered.values_mut() {
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
        let retries = total - self.shared.retries_journaled.swap(total, Ordering::Relaxed);
        if retries > 0 {
            telemetry.journal.record(
                slot,
                EventKind::Retry,
                format!("{retries} request retransmissions"),
            );
        }
        self.record_slot_committed(slot);
        self.shared
            .verified_through
            .store(slot + 1, Ordering::Relaxed);
        notify_progress(&self.shared);
        let started = self
            .shared
            .slot_started
            .lock()
            .expect("slot started poisoned")
            .remove(&slot);
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
        let own = self
            .shared
            .own_digests
            .lock()
            .expect("own digests poisoned")
            .get(&slot)
            .copied();
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
        let heard = {
            let mut keys = self.shared.trace_keys.lock().expect("trace keys poisoned");
            let heard = keys.remove(&slot).unwrap_or_default();
            // Keys below the committed slot can never be consumed anymore.
            *keys = keys.split_off(&slot);
            heard
        };
        for (origin, prefix) in heard {
            record_span(&self.shared, me, slot, origin, prefix, SpanKind::Committed);
        }
    }
}
