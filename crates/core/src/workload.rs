//! Workload synthesis: sensor payloads and verification-target policies.
//!
//! The paper's workload is IoT telemetry flowing toward digital twins: every
//! node samples its environment each slot, packages `C` bits into a block,
//! and — when generating — verifies one previously generated block via PoP
//! (Sec. VI). This module synthesises the payloads and encodes the paper's
//! two target-selection policies.

use tldag_sim::engine::Slot;
use tldag_sim::{DetRng, NodeId};

/// How PoP verification targets are chosen each slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerificationWorkload {
    /// Verify a uniformly random block at least `min_age_slots` old — the
    /// Figs. 7–8 workload ("PoP can only verify a block that is generated
    /// before |V| time slots").
    RandomPast {
        /// Minimum block age in slots (the paper uses `|V|`).
        min_age_slots: u64,
    },
    /// Verify a random block generated in the first `era_slots` slots — the
    /// Fig. 9 workload ("2LDAG verifies a block generated in the first γ
    /// time slots").
    FirstEra {
        /// Length of the target era in slots (the paper uses `γ`).
        era_slots: u64,
    },
    /// Generate blocks only; no PoP traffic (isolates Fig. 8(b)).
    Disabled,
}

impl VerificationWorkload {
    /// The paper's default for a network of `n` nodes.
    pub(crate) fn paper_default(n: usize) -> Self {
        VerificationWorkload::RandomPast {
            min_age_slots: n as u64,
        }
    }

    /// Whether a block generated at `block_slot` qualifies as a target when
    /// the current slot is `now`.
    pub fn qualifies(&self, block_slot: Slot, now: Slot) -> bool {
        match *self {
            VerificationWorkload::RandomPast { min_age_slots } => {
                now >= block_slot && now - block_slot >= min_age_slots
            }
            VerificationWorkload::FirstEra { era_slots } => block_slot < era_slots,
            VerificationWorkload::Disabled => false,
        }
    }

    /// The latest generation slot that [`Self::qualifies`] at `now`, or
    /// `None` when no slot does. Every rule admits a prefix of time, so a
    /// block qualifies exactly when its slot is at or before this cut-off,
    /// and a chain's qualifying blocks are a prefix of it.
    pub(crate) fn latest_target_slot(&self, now: Slot) -> Option<Slot> {
        match *self {
            VerificationWorkload::RandomPast { min_age_slots } => now.checked_sub(min_age_slots),
            VerificationWorkload::FirstEra { era_slots } => era_slots.checked_sub(1),
            VerificationWorkload::Disabled => None,
        }
    }
}

/// Synthesises one sensor reading: a small struct-of-fields payload
/// (node, slot, temperature, humidity, battery) with deterministic jitter.
/// The logical body size `C` is accounted separately; this payload is what
/// Merkle roots and tamper checks operate on.
pub fn sensor_payload(rng: &mut DetRng, node: NodeId, slot: Slot) -> Vec<u8> {
    let temperature_c = 18.0 + 10.0 * rng.unit_f64();
    let humidity_pct = 35.0 + 40.0 * rng.unit_f64();
    let battery_pct = 20.0 + 80.0 * rng.unit_f64();
    let mut out = Vec::with_capacity(36);
    out.extend_from_slice(&node.0.to_be_bytes());
    out.extend_from_slice(&slot.to_be_bytes());
    out.extend_from_slice(&temperature_c.to_be_bytes());
    out.extend_from_slice(&humidity_pct.to_be_bytes());
    out.extend_from_slice(&battery_pct.to_be_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_past_respects_min_age() {
        let w = VerificationWorkload::RandomPast { min_age_slots: 50 };
        assert!(w.qualifies(0, 50));
        assert!(w.qualifies(10, 100));
        assert!(!w.qualifies(60, 100));
        assert!(!w.qualifies(10, 30));
    }

    #[test]
    fn first_era_only_accepts_early_blocks() {
        let w = VerificationWorkload::FirstEra { era_slots: 10 };
        assert!(w.qualifies(0, 500));
        assert!(w.qualifies(9, 500));
        assert!(!w.qualifies(10, 500));
    }

    #[test]
    fn disabled_never_qualifies() {
        assert!(!VerificationWorkload::Disabled.qualifies(0, 1000));
    }

    proptest::proptest! {
        /// The cut-off is `qualifies` restated: a block qualifies exactly
        /// when its slot is at or before it, `now < min_age` and `era = 0`
        /// included.
        #[test]
        fn qualifies_iff_at_or_before_the_cut_off(
            bound in 0u64..12,
            block_slot in 0u64..40,
            now in 0u64..40,
        ) {
            for workload in [
                VerificationWorkload::RandomPast { min_age_slots: bound },
                VerificationWorkload::FirstEra { era_slots: bound },
                VerificationWorkload::Disabled,
            ] {
                let cut = workload.latest_target_slot(now);
                proptest::prop_assert_eq!(
                    workload.qualifies(block_slot, now),
                    cut.is_some_and(|cut| block_slot <= cut),
                    "{:?} block {} now {}", workload, block_slot, now
                );
            }
        }
    }

    #[test]
    fn cut_off_edges() {
        let past = VerificationWorkload::RandomPast { min_age_slots: 5 };
        assert_eq!(past.latest_target_slot(4), None);
        assert_eq!(past.latest_target_slot(5), Some(0));
        let era = |era_slots| VerificationWorkload::FirstEra { era_slots };
        assert_eq!(era(0).latest_target_slot(100), None);
        assert_eq!(era(3).latest_target_slot(0), Some(2));
        assert_eq!(VerificationWorkload::Disabled.latest_target_slot(9), None);
    }

    #[test]
    fn paper_default_uses_network_size() {
        let w = VerificationWorkload::paper_default(50);
        assert_eq!(w, VerificationWorkload::RandomPast { min_age_slots: 50 });
    }

    #[test]
    fn payload_is_deterministic_per_stream() {
        let mut a = DetRng::seed_from(1);
        let mut b = DetRng::seed_from(1);
        assert_eq!(
            sensor_payload(&mut a, NodeId(3), 7),
            sensor_payload(&mut b, NodeId(3), 7)
        );
        assert_eq!(sensor_payload(&mut a, NodeId(3), 7).len(), 36);
    }

    #[test]
    fn payload_embeds_identity() {
        let mut rng = DetRng::seed_from(2);
        let p = sensor_payload(&mut rng, NodeId(0x0102_0304), 0x0506_0708_090a_0b0c);
        assert_eq!(&p[0..4], &[0x01, 0x02, 0x03, 0x04]);
        assert_eq!(&p[4..12], &[0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c]);
    }
}
