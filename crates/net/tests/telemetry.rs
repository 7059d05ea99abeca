//! Live-telemetry acceptance over real sockets: a 3-node loopback cluster
//! serves `/metrics` and `/journal` while its slot loop runs, a mid-run
//! scrape sees slots advancing and non-zero phase latencies (the `tldag
//! status` path end to end), and — the guardrail the whole subsystem
//! rests on — running with telemetry listeners changes no digest and no
//! PoP counter: observability reads the protocol, never steers it.

use std::time::{Duration, Instant};
use tldag_net::harness::{discover_ports, discover_tcp_ports};
use tldag_net::telemetry::{scrape_metrics, total_row, StatusRow};
use tldag_net::{Deployment, FaultSpec, LoopbackCluster, NetNodeConfig};
use tldag_obs::{http_get, EventKind};

/// Member configs of a 3-founder PoP deployment on fresh loopback ports,
/// with a 2 s serving tail.
fn members(seed: u64, slots: u64) -> Vec<NetNodeConfig> {
    let mut deployment = Deployment::new(seed, 3, slots);
    deployment.pop = true;
    let mut configs = deployment.member_configs(&discover_ports(3).expect("probe ports"));
    for c in &mut configs {
        c.linger = Duration::from_millis(2000);
    }
    configs
}

#[test]
fn live_cluster_is_scrapable_mid_run_with_nonzero_phase_latencies() {
    let metrics = discover_tcp_ports(3).expect("probe metrics ports");
    let mut configs = members(72_001, 150);
    for (config, addr) in configs.iter_mut().zip(&metrics) {
        config.metrics_addr = Some(*addr);
    }

    // Scrape while the cluster runs in its own threads.
    let cluster = LoopbackCluster::spawn(configs);
    let deadline = Instant::now() + Duration::from_secs(30);
    let (mut per_node, mut journal) = (Vec::new(), String::new());
    while Instant::now() < deadline && !cluster.is_finished() {
        let scraped: Vec<Vec<tldag_obs::Sample>> = metrics
            .iter()
            .filter_map(|a| scrape_metrics(*a, Duration::from_millis(400)).ok())
            .collect();
        // A useful sample: every node answered, slots have begun, and the
        // generate-phase histogram has observations.
        let mid_run = scraped.len() == metrics.len()
            && scraped.iter().all(|s| {
                tldag_obs::expo::sample_value(s, "tldag_slot", &[]).unwrap_or(0.0) >= 1.0
                    && tldag_obs::expo::sample_value(
                        s,
                        "tldag_phase_latency_micros_count",
                        &[("phase", "generate")],
                    )
                    .unwrap_or(0.0)
                        >= 1.0
            });
        if mid_run {
            journal =
                http_get(metrics[0], "/journal", Duration::from_millis(400)).unwrap_or_default();
            per_node = scraped;
            break;
        }
        std::thread::sleep(Duration::from_millis(15));
    }
    let outcomes = cluster.join();

    assert_eq!(
        per_node.len(),
        3,
        "the scraper must catch all 3 nodes mid-run (cluster finished too fast?)"
    );

    // The `tldag status` aggregation path on the captured mid-run state.
    let rows: Vec<StatusRow> = per_node
        .iter()
        .enumerate()
        .map(|(i, s)| StatusRow::from_samples(metrics[i].to_string(), s))
        .collect();
    let mut ids: Vec<u64> = rows.iter().map(|r| r.node.expect("node id")).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2]);
    for row in &rows {
        assert!(row.slot >= 1, "scrape was mid-run: {row:?}");
        assert!(row.chain_len >= 1, "chains grow while scraped: {row:?}");
        assert!(
            row.generate_p50 > 0,
            "generate-phase latency must be non-zero mid-run: {row:?}"
        );
    }
    let total = total_row(&per_node, &rows);
    assert_eq!(
        total.chain_len,
        rows.iter().map(|r| r.chain_len).sum::<u64>(),
        "the TOTAL row sums chains"
    );
    assert!(total.requests_sent >= rows.iter().map(|r| r.requests_sent).max().unwrap());

    // The journal served structured JSONL with slot lifecycle events.
    assert!(
        journal.lines().any(|l| l.contains("\"kind\":\"slt\"")),
        "journal must carry slot events, got: {}",
        &journal[..journal.len().min(200)]
    );
    assert!(
        journal.lines().any(|l| l.contains("\"kind\":\"gen\"")),
        "journal must carry generation events"
    );

    // End-of-run reports carry the merged transport counters.
    for (o, _) in &outcomes {
        assert!(o.run.net.datagrams_sent > 0, "RunReport.net must be live");
        assert_eq!(o.run.chain_len, 150);
    }
}

#[test]
fn telemetry_listeners_change_no_digest_and_no_pop_counter() {
    // Identical seed/slots, PoP on: one run with metrics listeners, one
    // without. The protocol outcome must be byte-identical — telemetry is
    // pure observation.
    let seed = 72_002;
    let slots = 8;

    let mut with_metrics = members(seed, slots);
    let metrics = discover_tcp_ports(3).expect("probe metrics ports");
    for (config, addr) in with_metrics.iter_mut().zip(&metrics) {
        config.metrics_addr = Some(*addr);
    }
    let observed = LoopbackCluster::run(with_metrics);

    let unobserved = LoopbackCluster::run(members(seed, slots));

    for (a, b) in observed.iter().zip(&unobserved) {
        assert_eq!(
            a.run.chain_digest, b.run.chain_digest,
            "metrics on/off must not change node {}'s chain",
            a.run.node
        );
        assert_eq!(a.run.pop_attempts, b.run.pop_attempts);
        assert_eq!(a.run.pop_successes, b.run.pop_successes);
        assert_eq!(a.run.chain_len, b.run.chain_len);
    }
}

#[test]
fn retransmissions_are_journaled_exactly_once_at_every_window() {
    // 15% loss forces PoP request retransmissions. Each must land in
    // exactly one journal `Retry` event whichever thread ran the PoP: per
    // node, the counts the journal names sum to the transport's counter.
    for window in [1, 4] {
        let mut configs = members(72_003, 9);
        for config in &mut configs {
            config.window = window;
            config.fault = Some(FaultSpec::loss(0.15));
            config.endpoint.request_timeout = Duration::from_millis(20);
            config.linger = Duration::from_millis(500);
        }
        let mut total = 0;
        for (outcome, telemetry) in LoopbackCluster::spawn(configs).join() {
            let journaled: u64 = telemetry
                .journal
                .events()
                .iter()
                .filter(|e| e.kind == EventKind::Retry)
                .map(|e| {
                    let count = e.message.split(' ').next().expect("count first");
                    count
                        .parse::<u64>()
                        .expect("retry events lead with a count")
                })
                .sum();
            assert_eq!(
                journaled, outcome.stats.request_retries,
                "W={window}: node {} journaled its retransmissions wrongly",
                outcome.run.node
            );
            total += journaled;
        }
        assert!(total > 0, "W={window}: 15% loss must force retransmissions");
    }
}
