//! Tests for the Sec. VII future-work extensions: dynamic membership
//! (join/leave) and multi-hop physical-layer accounting for PoP traffic.

use tldag::core::config::ProtocolConfig;
use tldag::core::network::TldagNetwork;
use tldag::core::workload::VerificationWorkload;
use tldag::sim::bus::TrafficClass;
use tldag::sim::engine::GenerationSchedule;
use tldag::sim::geometry::Point;
use tldag::sim::topology::{Topology, TopologyConfig};
use tldag::sim::{DetRng, NodeId};

fn network(seed: u64, nodes: usize, gamma: usize, multihop: bool) -> TldagNetwork {
    let mut rng = DetRng::seed_from(seed);
    let topology = Topology::random_connected(
        &TopologyConfig {
            nodes,
            side_m: 260.0,
            ..TopologyConfig::paper_default()
        },
        &mut rng,
    );
    let mut cfg = ProtocolConfig::test_default().with_gamma(gamma);
    cfg.multihop_accounting = multihop;
    let mut net = TldagNetwork::new(cfg, topology, GenerationSchedule::uniform(nodes), seed);
    net.set_verification_workload(VerificationWorkload::Disabled);
    net
}

#[test]
fn joined_node_integrates_and_becomes_verifiable() {
    let mut net = network(1, 10, 2, false);
    net.run_slots(8);

    // A new sensor appears next to node 0.
    let anchor = net.topology().position(NodeId(0));
    let newcomer = net.node_joins(Point::new(anchor.x + 10.0, anchor.y), 50.0, 1);
    assert!(net.topology().degree(newcomer) >= 1, "wired to the anchor");
    assert!(net.node(NodeId(0)).neighbors().contains(&newcomer));

    // It generates from the next slots and its digests reach neighbors.
    net.run_slots(12);
    assert!(net.node(newcomer).chain_len() >= 10);

    // Its early blocks become verifiable once enough children exist.
    let target = net.node(newcomer).store().get(0).unwrap().id;
    let report = net.run_pop(NodeId(1), target, false);
    assert!(report.is_success(), "{:?}", report.outcome);
}

#[test]
fn departed_node_stops_participating_but_history_survives() {
    let mut net = network(2, 10, 2, false);
    net.run_slots(10);
    let leaver = NodeId(4);
    let chain_before = net.node(leaver).chain_len();
    let total_before = net.total_blocks();
    net.node_leaves(leaver);
    net.run_slots(10);

    // No new blocks from the departed node; everyone else keeps going.
    assert_eq!(net.node(leaver).chain_len(), chain_before);
    assert_eq!(net.total_blocks(), total_before + 9 * 10);
    assert_eq!(net.topology().degree(leaver), 0);
    assert!(net.has_departed(leaver));

    // Its data is gone with it (reactive consensus has nothing to verify)…
    let target = net.node(leaver).store().get(0).unwrap().id;
    assert!(!net.run_pop(NodeId(0), target, false).is_success());

    // …but other nodes' pre-departure blocks still verify, even those whose
    // proof paths used to run through the leaver's neighborhood.
    let other = net.node(NodeId(1)).store().get(0).unwrap().id;
    assert!(net.run_pop(NodeId(0), other, false).is_success());
}

#[test]
fn churn_sequence_keeps_network_functional() {
    let mut net = network(3, 10, 2, false);
    net.run_slots(6);
    let p1 = net.topology().position(NodeId(2));
    let joined_a = net.node_joins(Point::new(p1.x + 5.0, p1.y + 5.0), 50.0, 1);
    net.run_slots(6);
    net.node_leaves(NodeId(7));
    let p2 = net.topology().position(NodeId(5));
    let joined_b = net.node_joins(Point::new(p2.x - 5.0, p2.y), 50.0, 2);
    net.run_slots(12);

    assert!(net.node(joined_a).chain_len() > 10);
    assert!(net.node(joined_b).chain_len() >= 5);
    let target = net.node(joined_a).store().get(2).unwrap().id;
    let report = net.run_pop(joined_b, target, false);
    assert!(report.is_success(), "{:?}", report.outcome);
}

#[test]
fn multihop_accounting_costs_at_least_endpoint_accounting() {
    let run = |multihop: bool| {
        let mut net = network(4, 12, 3, multihop);
        net.set_verification_workload(VerificationWorkload::RandomPast { min_age_slots: 12 });
        net.run_slots(30);
        net.accounting()
            .network_total(TrafficClass::Consensus)
            .bits()
    };
    let endpoint = run(false);
    let multihop = run(true);
    assert!(endpoint > 0);
    assert!(
        multihop >= endpoint,
        "relays add cost: multihop {multihop} vs endpoint {endpoint}"
    );
}

#[test]
fn multihop_matches_endpoint_on_single_hop_exchanges() {
    // On a 2-node network every exchange is single-hop, so the two
    // accounting modes must agree exactly.
    let topo = Topology::from_edges(2, &[(0, 1)]);
    let run = |multihop: bool| {
        let mut cfg = ProtocolConfig::test_default().with_gamma(0);
        cfg.multihop_accounting = multihop;
        let mut net = TldagNetwork::new(cfg, topo.clone(), GenerationSchedule::uniform(2), 9);
        net.set_verification_workload(VerificationWorkload::Disabled);
        net.run_slots(6);
        let target = net.node(NodeId(1)).store().get(0).unwrap().id;
        assert!(net.run_pop(NodeId(0), target, true).is_success());
        net.accounting()
            .network_total(TrafficClass::Consensus)
            .bits()
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn relays_earn_traffic_under_multihop_accounting() {
    // Line topology 0-1-2: traffic between 0 and 2 must transit 1.
    let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
    let mut cfg = ProtocolConfig::test_default().with_gamma(1);
    cfg.multihop_accounting = true;
    let mut net = TldagNetwork::new(cfg, topo, GenerationSchedule::uniform(3), 10);
    net.set_verification_workload(VerificationWorkload::Disabled);
    net.run_slots(8);
    let target = net.node(NodeId(2)).store().get(0).unwrap().id;
    let report = net.run_pop(NodeId(0), target, true);
    assert!(report.is_success());
    let relay_traffic = net
        .accounting()
        .node_total(NodeId(1), TrafficClass::Consensus);
    assert!(
        relay_traffic.bits() > 0,
        "the middle node must relay PoP bytes"
    );
}

#[test]
fn trace_captures_protocol_events() {
    use tldag::obs::{EventKind, Journal};

    let mut net = network(11, 8, 2, false);
    net.set_journal(Journal::bounded(256));
    net.set_verification_workload(VerificationWorkload::RandomPast { min_age_slots: 8 });
    net.run_slots(12);
    let p = net.topology().position(NodeId(0));
    let joined = net.node_joins(Point::new(p.x + 3.0, p.y), 50.0, 1);
    net.node_leaves(NodeId(5));

    let journal = net.journal();
    let events = journal.events();
    let of_kind = |kind| events.iter().filter(|e| e.kind == kind).count();
    assert!(!events.is_empty());
    assert!(of_kind(EventKind::Generate) > 0);
    assert!(of_kind(EventKind::Pop) > 0);
    assert_eq!(of_kind(EventKind::Membership), 2);
    let rendered = journal.render();
    assert!(rendered.contains(&format!("{joined} joined")));
    assert!(rendered.contains("n5 left"));
}

#[test]
fn lossy_links_degrade_cost_not_integrity() {
    use tldag::sim::fault::LinkFaults;

    // Identical network, perfect vs 15%-lossy links.
    let run = |loss: f64| {
        let mut net = network(12, 12, 2, false);
        if loss > 0.0 {
            net.set_link_faults(LinkFaults::lossy(loss, DetRng::seed_from(1)));
        }
        net.run_slots(20);
        let mut successes = 0;
        let mut timeouts = 0;
        for owner in 1..=6u32 {
            let target = net.node(NodeId(owner)).store().get(0).unwrap().id;
            let report = net.run_pop(NodeId(0), target, false);
            if report.is_success() {
                successes += 1;
            }
            timeouts += report.metrics.timeouts;
        }
        (successes, timeouts)
    };
    let (clean_ok, clean_timeouts) = run(0.0);
    let (lossy_ok, lossy_timeouts) = run(0.15);
    assert_eq!(clean_ok, 6, "perfect links always verify");
    assert_eq!(clean_timeouts, 0);
    assert!(lossy_timeouts > 0, "loss must surface as timeouts");
    // Retrying other responders keeps most verifications alive.
    assert!(
        lossy_ok >= 4,
        "moderate loss should not collapse PoP: {lossy_ok}/6"
    );
}
