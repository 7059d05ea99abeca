//! Wire adversary behaviours: activation, conflicting gossip, flapping.

use super::*;

impl NetNode {
    /// Whether this node's configured adversarial behaviour is active at
    /// `slot` (honest nodes are never active).
    pub(super) fn adversary_active(&self, slot: u64) -> bool {
        self.config.behavior.is_malicious() && slot >= self.config.behavior_from
    }

    /// Applies the configured behaviour to the ledger node (so the serve
    /// paths — silence, corrupt replies, corrupt bodies — take effect) and
    /// journals the turn. Not used for the flapper, which goes dark via
    /// [`Shared::muted`] instead.
    pub(super) fn activate_behavior(&self, slot: u64) {
        self.shared
            .node
            .write()
            .expect("node lock poisoned")
            .set_behavior(self.config.behavior);
        self.shared.telemetry.journal.record(
            slot,
            EventKind::Penalty,
            format!(
                "{} turns {} at slot {slot}",
                self.config.id, self.config.behavior
            ),
        );
    }

    /// The adversary's extra push-path traffic for `slot`, sent right after
    /// the canonical gossip: a second, genuinely mined block's digest for
    /// the same slot (equivocation), a corrupted digest for the same slot
    /// (digest lie), or a conflicting re-advertisement of the previous
    /// slot's block (parasite side-chain, Cullen et al. arXiv:1904.00996).
    /// The canonical chain is untouched — `DigestReq` pulls still serve it
    /// — which is what lets honest receivers converge after discarding the
    /// conflicting pair.
    pub(super) fn adversary_gossip(
        &self,
        slot: u64,
        canonical: Digest,
        equivocation: Option<(BlockId, Arc<[DigestEntry]>)>,
        targets: &[(NodeId, SocketAddr)],
    ) {
        let id = self.config.id;
        let fake: Option<(u64, Digest)> = match self.config.behavior {
            Behavior::Equivocate => equivocation.map(|(block_id, digests)| {
                // A real second block for the slot: same identity and
                // parents, different body, freshly mined and signed — two
                // distinct histories offered to the same neighbors. The
                // parents are the canonical block's shared list, read only.
                let mut rng = derived_rng(self.config.seed, stream::GENERATE, slot, id);
                let mut payload = sensor_payload(&mut rng, id, slot);
                payload.push(0xEB);
                let alt = DataBlock::create(
                    &self.cfg,
                    block_id,
                    slot,
                    digests,
                    BlockBody::new(payload, self.cfg.body_bits),
                    &KeyPair::from_seed(u64::from(id.0)),
                );
                (slot, alt.header_digest())
            }),
            Behavior::DigestLie => Some((slot, canonical.corrupted())),
            Behavior::Parasite => {
                // Re-advertise a conflicting digest for the previous slot:
                // an abandoned side-chain parent honest nodes must not
                // reference.
                let prev = self
                    .shared
                    .own_digests
                    .lock()
                    .expect("own digests poisoned")
                    .get(&slot.wrapping_sub(1))
                    .copied();
                prev.map(|d| (slot - 1, d.corrupted()))
            }
            _ => None,
        };
        let Some((fake_slot, fake_digest)) = fake else {
            return;
        };
        for (_, addr) in targets {
            let _ = self.endpoint.send_control(
                *addr,
                &Control::SlotDigest {
                    slot: fake_slot,
                    digest: fake_digest,
                },
            );
        }
        self.shared.telemetry.journal.record(
            slot,
            EventKind::Penalty,
            format!(
                "{id} gossiped a conflicting digest for slot {fake_slot} ({})",
                self.config.behavior
            ),
        );
    }

    /// The flapper attack: go dark (stop generating, serving, and acking)
    /// until the cluster evicts us, then spam `JoinAnnounce` rejoin
    /// attempts that honest peers refuse (`flap_rejections`). Bounded by
    /// twice the slot timeout so the process still reports and exits.
    pub(super) fn flap_phase(&self, from_slot: u64) {
        let id = self.config.id;
        self.shared.muted.store(true, Ordering::Relaxed);
        self.shared.telemetry.journal.record(
            from_slot,
            EventKind::Penalty,
            format!("{id} flapping: going dark at slot {from_slot}"),
        );
        let targets = self.generator_addrs(from_slot);
        let deadline = Instant::now() + self.config.slot_timeout * 2;
        let mut rejoins = 0u32;
        while Instant::now() < deadline && !self.shared.shutdown.load(Ordering::Relaxed) {
            let evicted = {
                let roster = self.shared.roster.lock().expect("roster poisoned");
                roster.member(id).is_some_and(|m| m.leave_slot.is_some())
            };
            if evicted && rejoins < 40 {
                // Rejoin churn: announce a join a little past wherever the
                // cluster is, without ever contributing blocks.
                let slot = self
                    .shared
                    .current_slot
                    .load(Ordering::Relaxed)
                    .max(from_slot)
                    + 2;
                if let Ok(addr) = self.endpoint.local_addr() {
                    let announce = Control::JoinAnnounce { id, slot, addr };
                    for (_, peer) in &targets {
                        let _ = self.endpoint.send_control(*peer, &announce);
                    }
                    rejoins += 1;
                    if rejoins == 1 {
                        self.shared.telemetry.journal.record(
                            slot,
                            EventKind::Penalty,
                            format!("{id} evicted; spamming rejoin announcements"),
                        );
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        // The attack is over; unmute so the epilogue's report/ack exchange
        // with the controller works normally.
        self.shared.muted.store(false, Ordering::Relaxed);
    }
}
