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
    /// [`Book::muted`] instead.
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
    /// the canonical gossip: the digest of a second, genuinely mined block
    /// for the same slot (equivocation: `twin`, same identity and parents,
    /// different body — two distinct histories offered to the same
    /// neighbors), a corrupted digest for the same slot (digest lie), or a
    /// conflicting re-advertisement of the previous slot's block (parasite
    /// side-chain, Cullen et al. arXiv:1904.00996). The canonical chain is
    /// untouched — `DigestReq` pulls still serve it — which is what lets
    /// honest receivers converge after discarding the conflicting pair.
    pub(super) fn adversary_gossip(
        &self,
        slot: u64,
        canonical: Digest,
        twin: Option<Digest>,
        targets: &[(NodeId, SocketAddr)],
    ) {
        let id = self.config.id;
        let fake: Option<(u64, Digest)> = match self.config.behavior {
            Behavior::Equivocate => twin.map(|digest| (slot, digest)),
            Behavior::DigestLie => Some((slot, canonical.corrupted())),
            Behavior::Parasite => {
                // Re-advertise a conflicting digest for the previous slot:
                // an abandoned side-chain parent honest nodes must not
                // reference.
                let prev = self
                    .shared
                    .book()
                    .own_digests
                    .get(&slot.wrapping_sub(1))
                    .copied();
                prev.map(|d| (slot - 1, d.corrupted()))
            }
            _ => None,
        };
        let Some((fake_slot, fake_digest)) = fake else {
            return;
        };
        let fake = Control::SlotDigest {
            slot: fake_slot,
            digest: fake_digest,
        };
        send_all(
            &self.endpoint,
            targets
                .iter()
                .map(|&(_, addr)| (addr, fake, None))
                .collect(),
        );
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
        self.shared.book().muted = true;
        self.shared.telemetry.journal.record(
            from_slot,
            EventKind::Penalty,
            format!("{id} flapping: going dark at slot {from_slot}"),
        );
        let targets = self.generator_addrs(from_slot);
        let deadline = Instant::now() + self.config.slot_timeout * 2;
        let mut rejoins = 0u32;
        while Instant::now() < deadline {
            let (shutdown, evicted, current) = {
                let book = self.shared.book();
                let evicted = book
                    .roster
                    .member(id)
                    .is_some_and(|m| m.leave_slot.is_some());
                (book.shutdown, evicted, book.current_slot)
            };
            if shutdown {
                break;
            }
            if evicted && rejoins < 40 {
                // Rejoin churn: announce a join a little past wherever the
                // cluster is, without ever contributing blocks.
                let slot = current.max(from_slot) + 2;
                if let Ok(addr) = self.endpoint.local_addr() {
                    let announce = Control::JoinAnnounce { id, slot, addr };
                    send_all(
                        &self.endpoint,
                        targets
                            .iter()
                            .map(|&(_, peer)| (peer, announce, None))
                            .collect(),
                    );
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
            let next = Instant::now() + Duration::from_millis(50);
            self.shared.park(next, |b| b.shutdown.then_some(()));
        }
        // The attack is over; unmute so the epilogue's report/ack exchange
        // with the controller works normally.
        self.shared.book().muted = false;
    }
}
