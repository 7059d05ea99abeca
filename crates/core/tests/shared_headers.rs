//! A header's digest list is one shared allocation: the owner's `S_i`, every
//! clone and every `H_i` that caches the header hold the same list, and the
//! paths that need a different list (a corrupt replier) build a fresh one.
//!
//! The resident-memory claim rests on this sharing, so a silent deep copy
//! fails here instead of only showing up as a larger RSS.

use std::sync::Arc;
use tldag_core::attack::Behavior;
use tldag_core::config::ProtocolConfig;
use tldag_core::network::TldagNetwork;
use tldag_core::workload::VerificationWorkload;
use tldag_core::BlockId;
use tldag_crypto::Digest;
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::topology::{Topology, TopologyConfig};
use tldag_sim::{DetRng, NodeId};

const NODES: usize = 12;

fn memory_net(seed: u64, workload: VerificationWorkload) -> TldagNetwork {
    let mut rng = DetRng::seed_from(seed);
    let topology = Topology::random_connected(&TopologyConfig::small(NODES), &mut rng);
    let cfg = ProtocolConfig::test_default().with_gamma(2);
    let mut net = TldagNetwork::new(cfg, topology, GenerationSchedule::uniform(NODES), seed);
    net.set_verification_workload(workload);
    net
}

#[test]
fn every_cached_header_shares_its_owners_digest_list() {
    let mut net = memory_net(21, VerificationWorkload::RandomPast { min_age_slots: 4 });
    net.run_slots(16);
    let (attempts, successes) = net.pop_counters();
    assert!(attempts > 0 && attempts == successes, "honest PoPs ran");

    let mut cached = 0;
    for node in net.nodes() {
        for (_, trusted) in node.trust_cache().iter() {
            let owner = net.node(trusted.owner);
            let stored = owner
                .store()
                .get(trusted.block_id.seq)
                .expect("owner holds it");
            assert!(
                Arc::ptr_eq(&stored.header.digests, &trusted.header.digests),
                "{} caches a private copy of {}",
                node.id(),
                trusted.block_id
            );
            cached += 1;
        }
    }
    assert!(cached > 0, "the PoPs cached headers");

    // Reads and clones of a stored block hand out the stored list.
    let store = net.node(NodeId(3)).store();
    let first = store.get(2).unwrap();
    let again = store.get(2).unwrap();
    assert!(Arc::ptr_eq(&first.header.digests, &again.header.digests));
    assert!(Arc::ptr_eq(
        &first.header.digests,
        &first.clone().header.digests
    ));
}

#[test]
fn corrupt_replies_build_a_fresh_list_and_are_rejected() {
    // WPS routes most walks of this deployment through n3.
    let corrupt = NodeId(3);
    let mut net = memory_net(11, VerificationWorkload::Disabled);
    net.run_slots(8);
    let audit = |net: &mut TldagNetwork, validators: &[u32]| -> u64 {
        let mut invalid = 0;
        for &validator in validators {
            for owner in (0..NODES as u32).filter(|&o| o != validator) {
                for seq in 0..3 {
                    let target = BlockId::new(NodeId(owner), seq);
                    let report = net.run_pop(NodeId(validator), target, true);
                    invalid += report.metrics.invalid_replies;
                }
            }
        }
        invalid
    };
    let cached_from = |net: &TldagNetwork| -> Vec<(u32, Digest)> {
        let cached = net.nodes().iter().flat_map(|n| n.trust_cache().iter());
        let from_corrupt = cached.filter(|(_, t)| t.owner == corrupt);
        from_corrupt
            .map(|(_, t)| (t.block_id.seq, t.header.digest()))
            .collect()
    };

    // Honest audits first, so `H_i`s hold headers of the node turning bad.
    assert_eq!(audit(&mut net, &[0, 1, 2]), 0, "no bad reply yet");
    let original: Vec<Digest> = net
        .node(corrupt)
        .store()
        .iter()
        .map(|b| b.header_digest())
        .collect();
    assert!(!cached_from(&net).is_empty(), "H_i caches n3's headers");

    net.set_behavior(corrupt, Behavior::CorruptReply);
    let invalid = audit(&mut net, &[5, 6, 7, 8, 9, 10, 11]);
    assert!(
        invalid > 0,
        "the corrupted replies are counted and rejected"
    );

    let stored = net.node(corrupt).store();
    for (seq, digest) in original.iter().enumerate() {
        let block = stored.get(seq as u32).unwrap();
        assert_eq!(block.header_digest(), *digest, "S_i is untouched");
    }
    for (seq, digest) in cached_from(&net) {
        assert_eq!(
            digest, original[seq as usize],
            "H_i holds only real headers"
        );
    }
    for node in net.nodes() {
        for (key, trusted) in node.trust_cache().iter() {
            assert_eq!(*key, trusted.header.digest(), "H_i keys stay digests");
        }
    }
}
