//! Cross-crate end-to-end tests: full slotted runs with verification
//! workloads, global DAG invariants, storage/communication accounting, and
//! determinism.

use tldag::core::analysis;
use tldag::core::config::ProtocolConfig;
use tldag::core::dag::LogicalDag;
use tldag::core::network::TldagNetwork;
use tldag::core::workload::VerificationWorkload;
use tldag::sim::bus::TrafficClass;
use tldag::sim::engine::GenerationSchedule;
use tldag::sim::topology::{Topology, TopologyConfig};
use tldag::sim::{DetRng, NodeId};

fn network(seed: u64, nodes: usize, gamma: usize) -> TldagNetwork {
    let mut rng = DetRng::seed_from(seed);
    let topology = Topology::random_connected(
        &TopologyConfig {
            nodes,
            side_m: 300.0,
            ..TopologyConfig::paper_default()
        },
        &mut rng,
    );
    let cfg = ProtocolConfig::test_default().with_gamma(gamma);
    TldagNetwork::new(cfg, topology, GenerationSchedule::uniform(nodes), seed)
}

#[test]
fn long_run_with_workload_keeps_all_invariants() {
    let mut net = network(1, 14, 3);
    net.set_verification_workload(VerificationWorkload::RandomPast { min_age_slots: 14 });
    net.run_slots(40);

    // Every PoP the workload triggered succeeded (honest network).
    let (attempts, successes) = net.pop_counters();
    assert!(attempts > 100, "workload ran ({attempts} attempts)");
    assert_eq!(attempts, successes);

    // Global logical-DAG invariants.
    let dag = LogicalDag::build(net.nodes());
    assert_eq!(dag.block_count(), 14 * 40);
    assert!(dag.is_acyclic());
    assert!(dag.edges_respect_time());

    // Proposition 1 holds exactly.
    let schedule = GenerationSchedule::uniform(14);
    assert_eq!(
        dag.block_count() as u64,
        analysis::prop1_total_blocks(&schedule, 39)
    );
}

#[test]
fn storage_split_matches_store_plus_cache() {
    let mut net = network(2, 10, 2);
    net.set_verification_workload(VerificationWorkload::RandomPast { min_age_slots: 10 });
    net.run_slots(24);
    let cfg = *net.config();
    for id in net.topology().node_ids() {
        let node = net.node(id);
        let expect = node.store().logical_bits(&cfg) + node.trust_cache().logical_bits(&cfg);
        assert_eq!(node.storage_bits(&cfg), expect, "node {id}");
    }
}

#[test]
fn trust_caches_grow_only_through_successful_pops() {
    let mut net = network(3, 10, 2);
    net.set_verification_workload(VerificationWorkload::Disabled);
    net.run_slots(20);
    for id in net.topology().node_ids() {
        assert_eq!(net.node(id).trust_cache().len(), 0, "no PoP, no cache");
    }
    let target = net.node(NodeId(1)).store().get(0).unwrap().id;
    net.run_pop(NodeId(0), target, true);
    assert!(!net.node(NodeId(0)).trust_cache().is_empty());
    assert_eq!(net.node(NodeId(2)).trust_cache().len(), 0);
}

#[test]
fn consensus_traffic_appears_only_after_min_age() {
    let mut net = network(4, 12, 2);
    net.set_verification_workload(VerificationWorkload::RandomPast { min_age_slots: 12 });
    net.run_slots(12);
    // No block is old enough yet: zero consensus traffic (paper: "almost
    // zero in the first |V| time slots").
    assert_eq!(
        net.accounting()
            .network_total(TrafficClass::Consensus)
            .bits(),
        0
    );
    net.run_slots(6);
    assert!(
        net.accounting()
            .network_total(TrafficClass::Consensus)
            .bits()
            > 0
    );
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    let run = |seed| {
        let mut net = network(seed, 12, 3);
        net.set_verification_workload(VerificationWorkload::RandomPast { min_age_slots: 12 });
        net.run_slots(30);
        let dag = LogicalDag::build(net.nodes());
        (
            net.total_blocks(),
            dag.edge_count(),
            net.pop_counters(),
            net.accounting().network_total(TrafficClass::Consensus),
            net.accounting()
                .network_total(TrafficClass::DagConstruction),
        )
    };
    assert_eq!(run(77), run(77));
    assert_ne!(run(77).3, run(78).3, "different seeds diverge");
}

#[test]
fn message_overhead_within_prop6_bound_for_uniform_rates() {
    let nodes = 12;
    let gamma = 3;
    let mut net = network(6, nodes, gamma);
    net.set_verification_workload(VerificationWorkload::Disabled);
    net.run_slots(30);
    let schedule = GenerationSchedule::uniform(nodes);
    let bound = analysis::prop6_message_upper_bound(&schedule, gamma, nodes);
    for owner in 1..5u32 {
        let target = net.node(NodeId(owner)).store().get(0).unwrap().id;
        let report = net.run_pop(NodeId(0), target, false);
        assert!(report.is_success());
        assert!(
            report.metrics.total_messages() <= bound,
            "{} messages vs bound {bound}",
            report.metrics.total_messages()
        );
    }
}

#[test]
fn pop_report_paths_are_dag_paths_with_distinct_count() {
    let mut net = network(7, 12, 4);
    net.set_verification_workload(VerificationWorkload::Disabled);
    net.run_slots(24);
    let dag = LogicalDag::build(net.nodes());
    for owner in [1u32, 3, 5] {
        let target = net.node(NodeId(owner)).store().get(1).unwrap().id;
        let report = net.run_pop(NodeId(0), target, false);
        assert!(report.is_success(), "owner {owner}");
        let digests: Vec<_> = report.path.iter().map(|s| s.digest).collect();
        assert!(dag.is_valid_path(&digests));
        let mut owners: Vec<NodeId> = report.path.iter().map(|s| s.owner).collect();
        owners.sort_unstable();
        owners.dedup();
        assert_eq!(owners.len(), report.distinct_nodes);
        assert!(report.distinct_nodes >= net.config().consensus_threshold());
    }
}

#[test]
fn mixed_rate_fleet_still_verifies() {
    let nodes = 12;
    let mut rng = DetRng::seed_from(8);
    let topology = Topology::random_connected(
        &TopologyConfig {
            nodes,
            side_m: 300.0,
            ..TopologyConfig::paper_default()
        },
        &mut rng,
    );
    let schedule = GenerationSchedule::random_periods(nodes, &[1, 2], &mut rng);
    let cfg = ProtocolConfig::test_default().with_gamma(3);
    let mut net = TldagNetwork::new(cfg, topology, schedule, 8);
    net.set_verification_workload(VerificationWorkload::RandomPast { min_age_slots: 12 });
    net.run_slots(40);
    let (attempts, successes) = net.pop_counters();
    assert!(attempts > 0);
    // Mixed rates create micro-loops and occasionally orphaned blocks
    // (digests replaced before any neighbor generated); most verifications
    // must still succeed.
    assert!(
        successes as f64 >= attempts as f64 * 0.8,
        "{successes}/{attempts}"
    );
}

/// Protocol bytes pinned **across commits**: parity tests and `--selfcheck`
/// compare a build with itself, so only constants recorded at an earlier
/// commit can prove a hashing/caching change left every digest, every PoP
/// decision and every accounted bit where it was. The expected values were
/// recorded at commit 08abaf8 (before headers were hashed once); a change
/// that moves any of them changed the protocol, not just its cost.
#[test]
fn golden_deployment_digest_and_pop_counters_are_pinned() {
    use tldag::core::pop::validator::PopMetrics;
    use tldag::net::runtime::{deployment_protocol_config, deployment_topology};

    let (seed, nodes, gamma, slots) = (7u64, 12usize, 3usize, 40u64);
    let topology = deployment_topology(seed, nodes, 300.0);
    let mut net = TldagNetwork::new(
        deployment_protocol_config(gamma),
        topology,
        GenerationSchedule::uniform(nodes),
        seed,
    );
    net.set_verification_workload(VerificationWorkload::RandomPast {
        min_age_slots: nodes as u64,
    });
    net.run_slots(slots);

    assert_eq!(
        net.network_digest().to_string(),
        "0b92836b30b9c8f8cd4d0eb7d67dc01ca92069277d83271ab5d40bf8c1bc092a"
    );
    assert_eq!(net.pop_counters(), (336, 336));
    assert_eq!(
        net.accounting()
            .network_total(TrafficClass::Consensus)
            .bits(),
        1_857_344
    );
    assert_eq!(
        net.accounting()
            .network_total(TrafficClass::DagConstruction)
            .bits(),
        1_996_800
    );

    // Two rounds of operator audits on top of the caches the 336 in-run
    // PoPs warmed (their cold walks are what the Consensus bits above pin):
    // these are served almost entirely by TPS, the path this test guards.
    let mut summed = PopMetrics::default();
    for round in 0..2u32 {
        for v in 0..nodes as u32 {
            let owner = NodeId((v + 1 + round) % nodes as u32);
            let target = net.node(owner).store().get(v % 8).unwrap().id;
            let report = net.run_pop(NodeId(v), target, true);
            assert!(report.is_success(), "validator {v} round {round}");
            summed.merge(&report.metrics);
        }
    }
    let expected: Vec<(&str, u64)> = vec![
        ("messages_sent", 25),
        ("messages_received", 25),
        ("bits_sent", 8000),
        ("bits_received", 254_368),
        ("req_child_sent", 1),
        ("replies_received", 1),
        ("invalid_replies", 0),
        ("no_child_replies", 0),
        ("pruned_misses", 0),
        ("timeouts", 0),
        ("offenses", 0),
        ("tps_extensions", 101),
        ("own_store_hits", 0),
        ("rollbacks", 0),
    ];
    assert_eq!(summed.fields(), expected);
    let cached: usize = net.nodes().iter().map(|n| n.trust_cache().len()).sum();
    assert_eq!(cached, 630);
}
