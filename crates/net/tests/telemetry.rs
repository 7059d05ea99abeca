//! Live-telemetry acceptance over real sockets: a 3-node loopback cluster
//! serves `/metrics` and `/journal` while its slot loop runs, a mid-run
//! scrape sees slots advancing and non-zero phase latencies (the `tldag
//! status` path end to end), and — the guardrail the whole subsystem
//! rests on — running with telemetry listeners changes no digest and no
//! PoP counter: observability reads the protocol, never steers it.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tldag_net::runtime::NodeOutcome;
use tldag_net::telemetry::{scrape_metrics, total_row, StatusRow};
use tldag_net::{FaultSpec, NetNode, NetNodeConfig};
use tldag_obs::{http_get, EventKind};
use tldag_sim::NodeId;

/// Binds-and-releases `n` loopback UDP ports.
fn discover_udp_ports(n: usize) -> Vec<SocketAddr> {
    let sockets: Vec<std::net::UdpSocket> = (0..n)
        .map(|_| std::net::UdpSocket::bind("127.0.0.1:0").expect("bind probe"))
        .collect();
    sockets
        .iter()
        .map(|s| s.local_addr().expect("probe addr"))
        .collect()
}

/// Binds-and-releases `n` loopback TCP ports (metrics listeners).
fn discover_tcp_ports(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind metrics probe"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("metrics probe addr"))
        .collect()
}

fn founder_configs(addrs: &[SocketAddr], seed: u64, slots: u64, pop: bool) -> Vec<NetNodeConfig> {
    let founders = addrs.len();
    (0..founders)
        .map(|i| {
            let mut config = NetNodeConfig::new(NodeId(i as u32), addrs[i], seed, founders, slots);
            config.peers = (0..founders)
                .filter(|&j| j != i)
                .map(|j| (NodeId(j as u32), addrs[j]))
                .collect();
            config.pop = pop;
            config.linger = Duration::from_millis(2000);
            config
        })
        .collect()
}

fn run_nodes(configs: Vec<NetNodeConfig>) -> Vec<NodeOutcome> {
    let handles: Vec<std::thread::JoinHandle<NodeOutcome>> = configs
        .into_iter()
        .map(|config| {
            std::thread::spawn(move || {
                NetNode::new(config)
                    .expect("node construction")
                    .run()
                    .expect("node run")
            })
        })
        .collect();
    let mut outcomes: Vec<NodeOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect();
    outcomes.sort_by_key(|o| o.run.node.0);
    outcomes
}

#[test]
fn live_cluster_is_scrapable_mid_run_with_nonzero_phase_latencies() {
    let addrs = discover_udp_ports(3);
    let metrics = discover_tcp_ports(3);
    let mut configs = founder_configs(&addrs, 72_001, 150, true);
    for (config, addr) in configs.iter_mut().zip(&metrics) {
        config.metrics_addr = Some(*addr);
    }

    // Scrape from this thread while the cluster runs in its own threads.
    let scraped: Arc<std::sync::Mutex<Vec<Vec<tldag_obs::Sample>>>> =
        Arc::new(std::sync::Mutex::new(Vec::new()));
    let journal_line = Arc::new(std::sync::Mutex::new(String::new()));
    let done = Arc::new(AtomicBool::new(false));
    let scraper = {
        let scraped = Arc::clone(&scraped);
        let journal_line = Arc::clone(&journal_line);
        let done = Arc::clone(&done);
        let targets = metrics.clone();
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(30);
            while Instant::now() < deadline && !done.load(Ordering::Relaxed) {
                let per_node: Vec<Vec<tldag_obs::Sample>> = targets
                    .iter()
                    .filter_map(|a| scrape_metrics(*a, Duration::from_millis(400)).ok())
                    .collect();
                // A useful sample: every node answered, slots have begun,
                // and the generate-phase histogram has observations.
                let mid_run = per_node.len() == targets.len()
                    && per_node.iter().all(|s| {
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
                    *journal_line.lock().expect("journal") =
                        http_get(targets[0], "/journal", Duration::from_millis(400))
                            .unwrap_or_default();
                    *scraped.lock().expect("scraped") = per_node;
                    return;
                }
                std::thread::sleep(Duration::from_millis(15));
            }
        })
    };

    let outcomes = run_nodes(configs);
    done.store(true, Ordering::Relaxed);
    scraper.join().expect("scraper thread panicked");

    let per_node = scraped.lock().expect("scraped").clone();
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
    let journal = journal_line.lock().expect("journal").clone();
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
    for o in &outcomes {
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

    let addrs = discover_udp_ports(3);
    let mut with_metrics = founder_configs(&addrs, seed, slots, true);
    let metrics = discover_tcp_ports(3);
    for (config, addr) in with_metrics.iter_mut().zip(&metrics) {
        config.metrics_addr = Some(*addr);
    }
    let observed = run_nodes(with_metrics);

    let addrs = discover_udp_ports(3);
    let unobserved = run_nodes(founder_configs(&addrs, seed, slots, true));

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
        let addrs = discover_udp_ports(3);
        let handles: Vec<_> = founder_configs(&addrs, 72_003, 9, true)
            .into_iter()
            .map(|mut config| {
                config.window = window;
                config.fault = Some(FaultSpec::loss(0.15));
                config.endpoint.request_timeout = Duration::from_millis(20);
                config.linger = Duration::from_millis(500);
                std::thread::spawn(move || {
                    let node = NetNode::new(config).expect("node construction");
                    let telemetry = node.telemetry();
                    (node.run().expect("node run"), telemetry)
                })
            })
            .collect();
        let mut total = 0;
        for handle in handles {
            let (outcome, telemetry) = handle.join().expect("node thread panicked");
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
