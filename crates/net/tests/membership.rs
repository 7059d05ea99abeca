//! Membership churn edges over real sockets: liveness eviction of a
//! silently dead peer, a manual leave only the leaver was configured
//! with, a dynamic (unscheduled) join racing the slot
//! boundaries of a running cluster, and re-join of a previously evicted
//! id at the addressing layer. Loss injection uses fixed
//! [`FaultyTransport`] seeds, so every run exercises the same datagram
//! fates.

use std::net::SocketAddr;
use std::time::Duration;
use tldag_net::harness::discover_ports;
use tldag_net::{ChurnEvent, Deployment, FaultSpec, LoopbackCluster, NetNodeConfig, Roster};
use tldag_sim::NodeId;

#[test]
fn silent_peer_is_evicted_and_the_cluster_finishes() {
    // Node 2 believes the run is 3 slots long and then goes quiet without
    // any leave announcement — a silent death from the others' viewpoint.
    // Nodes 0 and 1 expect 9 slots; without eviction they would burn a
    // full slot_timeout per remaining slot. With eviction they cut node 2
    // loose at the first blocked barrier and finish.
    let addrs = discover_ports(3).expect("probe ports");
    let mut configs = Deployment::new(90_701, 3, 9).member_configs(&addrs);
    for c in &mut configs {
        c.evict_after = Some(Duration::from_millis(600));
        c.slot_timeout = Duration::from_secs(30);
        c.linger = Duration::from_millis(2500);
    }
    configs[2].slots = 3;
    configs[2].evict_after = None;
    configs[2].linger = Duration::from_millis(200);

    let outcomes = LoopbackCluster::run(configs);
    assert_eq!(outcomes[2].run.chain_len, 3, "the dying node ran 3 slots");
    for survivor in &outcomes[..2] {
        assert_eq!(
            survivor.run.chain_len, 9,
            "survivors must complete the full run past the eviction"
        );
    }
    let evictions: u64 = outcomes.iter().map(|o| o.stats.evictions).sum();
    assert!(
        evictions >= 1,
        "at least one survivor must evict the silent peer (got {evictions})"
    );
    assert!(
        outcomes
            .iter()
            .any(|o| o.stats.evictions > 0 && o.run.degraded),
        "an evicting node must report its run degraded — the chain \
diverged from the reference schedule"
    );
}

#[test]
fn manual_leave_ends_the_leavers_chain_and_degrades_no_one() {
    // Only node 2's own config carries its leave (`--churn leave:2@5`);
    // the others learn it from the departure announcement. The leaver
    // generates its last block at slot 4, and the survivors run all 8
    // slots without a timed-out barrier or an eviction.
    let leave = ChurnEvent::Leave {
        id: NodeId(2),
        slot: 5,
    };
    let addrs = discover_ports(3).expect("probe ports");
    let mut configs = Deployment::new(90_703, 3, 8).member_configs(&addrs);
    configs[2].churn = vec![leave];

    let outcomes = LoopbackCluster::run(configs);
    let leaver = &outcomes[2].run;
    assert_eq!(
        (leaver.slots, leaver.chain_len),
        (5, 5),
        "the leaver generates one block a slot through slot 4"
    );
    for survivor in &outcomes[..2] {
        assert_eq!(survivor.run.chain_len, 8, "survivors run every slot");
    }
    for outcome in &outcomes {
        assert!(!outcome.run.degraded, "node {} degraded", outcome.run.node);
        assert_eq!(outcome.stats.evictions, 0, "a leave is not an eviction");
    }
}

#[test]
fn dynamic_join_races_slot_boundaries_under_loss() {
    // An *unscheduled* join: the founders know nothing in advance; the
    // joiner negotiates its slot from the handshake (bootstrap slot + 4)
    // and its announcement must land before the cluster crosses that
    // boundary. PoP lockstep paces the founders, and fixed fault seeds
    // drop a deterministic subset of the handshake/announce datagrams, so
    // the race is exercised reproducibly.
    let (seed, slots) = (77_412, 12);
    let addrs = discover_ports(4).expect("probe ports");
    let mut deployment = Deployment::new(seed, 3, slots);
    deployment.node.pop = true;
    let mut configs = deployment.member_configs(&addrs[..3]);
    // The joiner is outside the schedule: only its bootstrap is known.
    let mut joiner = NetNodeConfig::new(NodeId(3), addrs[3], seed, 3, slots);
    joiner.pop = true;
    joiner.join = Some(addrs[0]);
    configs.push(joiner);
    for c in &mut configs {
        c.fault = Some(FaultSpec::degraded(0.10));
        c.slot_timeout = Duration::from_secs(20);
        c.hello_timeout = Duration::from_secs(20);
        c.linger = Duration::from_millis(2500);
    }

    let outcomes = LoopbackCluster::run(configs);
    let joiner = &outcomes[3];
    assert!(
        joiner.run.catch_up_ms > 0,
        "the joiner must measure its catch-up latency"
    );
    assert!(
        (1..slots).contains(&joiner.run.slots),
        "the joiner must execute a proper suffix of the run (got {})",
        joiner.run.slots
    );
    assert_eq!(
        joiner.run.chain_len, joiner.run.slots,
        "one block per executed slot"
    );
    for o in &outcomes {
        assert!(
            !o.run.degraded,
            "node {} timed out a barrier — the join lost the race",
            o.run.node
        );
    }
    // The joiner took part in the verification workload once old enough
    // blocks existed.
    assert!(
        joiner.run.pop_attempts > 0,
        "the joiner must run PoP verifications after joining"
    );
}

#[test]
fn evicted_id_can_rejoin_at_the_addressing_layer() {
    // The roster half of re-join: the eviction cut must clear liveness so
    // the fresh incarnation is not instantly re-evicted on stale silence.
    let a: SocketAddr = "127.0.0.1:9401".parse().unwrap();
    let b: SocketAddr = "127.0.0.1:9402".parse().unwrap();
    let mut roster = Roster::founders(2);
    roster.set_addr(NodeId(1), a);
    roster.mark_heard(NodeId(1), None);
    std::thread::sleep(Duration::from_millis(10));
    assert!(roster.gone_quiet(NodeId(1), Duration::from_millis(1)));
    assert!(roster.evict(NodeId(1), 3));
    assert_eq!(roster.cut(NodeId(1)), Some(a), "the evictee is still told");
    assert_eq!(roster.request_addr(NodeId(1)), None);
    // Re-join on a new port: addressable again, not "gone quiet".
    assert!(roster.learn_join(NodeId(1), Some(b), 5));
    assert_eq!(roster.request_addr(NodeId(1)), Some(b));
    assert!(
        !roster.gone_quiet(NodeId(1), Duration::from_millis(1)),
        "a re-joined id must start from a clean liveness slate"
    );
}
