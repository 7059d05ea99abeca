//! Property-based tests for the trusted-header cache `H_i`.
//!
//! Trust Path Selection and the PoP success epilogue read a header's digest
//! from the key the cache indexes it under instead of re-hashing the header.
//! That is only sound while every key *is* its value's digest and the
//! contained-digest index points at live keys — the invariant checked here
//! after arbitrary sequences of PoP runs, and across the persistence codec.

use proptest::prelude::*;
use proptest::TestCaseError;
use tldag_core::codec::{decode_trust_cache, encode_trust_cache};
use tldag_core::config::ProtocolConfig;
use tldag_core::network::TldagNetwork;
use tldag_core::store::TrustCache;
use tldag_core::workload::VerificationWorkload;
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::topology::{Topology, TopologyConfig};
use tldag_sim::{DetRng, NodeId};

/// Every key equals its header's digest, every header is findable under
/// every digest it contains, and every candidate handed to TPS is a live
/// `(key, header)` pair whose header really contains the target.
fn check_index(cache: &TrustCache) -> Result<(), TestCaseError> {
    for (key, trusted) in cache.iter() {
        prop_assert_eq!(*key, trusted.header.digest());
        prop_assert_eq!(cache.get(key), Some(trusted));
        for entry in &trusted.header.digests {
            let candidates = cache.children_candidates(&entry.digest);
            prop_assert!(candidates.contains(&(*key, trusted)));
            for (digest, child) in candidates {
                prop_assert_eq!(cache.get(&digest), Some(child));
                prop_assert_eq!(digest, child.header.digest());
                prop_assert!(child.header.contains_digest(&entry.digest));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn trust_cache_keys_are_header_digests_after_any_pop_sequence(
        seed in 0u64..500,
        nodes in 8usize..14,
        gamma in 2usize..4,
        audits in proptest::collection::vec((0u32..14, 0u32..14, 0u32..6), 1..24),
    ) {
        let mut rng = DetRng::seed_from(seed);
        let topology = Topology::random_connected(
            &TopologyConfig { nodes, side_m: 280.0, ..TopologyConfig::paper_default() },
            &mut rng,
        );
        let cfg = ProtocolConfig::test_default().with_gamma(gamma);
        let mut net = TldagNetwork::new(cfg, topology, GenerationSchedule::uniform(nodes), seed);
        // In-run PoPs fill the caches through the engine's verify phase …
        net.set_verification_workload(VerificationWorkload::RandomPast {
            min_age_slots: nodes as u64,
        });
        net.run_slots(nodes as u64 + 8);
        // … and operator audits through `run_pop`, warm and cold, in any order.
        for (validator, owner, seq) in audits {
            let (validator, owner) = (validator % nodes as u32, owner % nodes as u32);
            if validator != owner {
                net.run_pop(NodeId(validator), tldag_core::BlockId::new(NodeId(owner), seq), true);
            }
        }
        let mut cached = 0;
        for node in net.nodes() {
            let cache = node.trust_cache();
            cached += cache.len();
            check_index(cache)?;

            let blob = encode_trust_cache(cache);
            let decoded = decode_trust_cache(&blob).unwrap();
            prop_assert_eq!(decoded.len(), cache.len());
            check_index(&decoded)?;
            prop_assert_eq!(encode_trust_cache(&decoded), blob, "round trip is byte-stable");
        }
        prop_assert!(cached > 0, "the PoP runs cached something");
    }
}
