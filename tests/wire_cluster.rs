//! Wire-deployment acceptance: a multi-process localhost UDP cluster
//! reproduces the in-memory engine's `network_digest` on a shared seed —
//! the codec ↔ transport ↔ storage stack is protocol-equivalent to the
//! simulator, over real sockets.

use std::path::PathBuf;
use std::time::Duration;
use tldag::net::{run_cluster, ClusterConfig, ClusterOutcome};

fn tldag_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_tldag"))
}

fn base_config(nodes: usize, slots: u64, seed: u64) -> ClusterConfig {
    let mut config = ClusterConfig::new(tldag_exe(), nodes, slots, seed);
    config.report_timeout = Duration::from_secs(120);
    config
}

/// Runs `config` and asserts the whole parity contract: the engine's
/// network digest and PoP counters, with no barrier timed out (loss must be
/// healed by retries, not by barriers timing out).
fn run_at_parity(config: &ClusterConfig, case: &str) -> ClusterOutcome {
    let outcome = run_cluster(config).expect("cluster run");
    let verdict = &outcome.verdict;
    assert!(
        verdict.holds() && verdict.degraded.is_empty(),
        "{case}: the UDP cluster must reproduce the in-memory engine undegraded:\n{verdict}"
    );
    outcome
}

#[test]
fn three_process_cluster_matches_in_memory_digest() {
    let outcome = run_at_parity(&base_config(3, 5, 20260726), "3 processes");
    for report in &outcome.reports {
        assert_eq!(report.chain_len, 5, "every node generates once per slot");
    }
}

#[test]
fn cluster_with_pop_over_the_wire_matches_engine_counters() {
    // slots > nodes so the paper's min-age workload has qualifying targets;
    // PoP then actually runs over the socket path on every node. The
    // window is an input: W = 1 verifies inline, W = 2 is the smallest
    // window that hands verification to the worker thread, and at W = 8
    // generation runs up to 8 slots ahead. Horizon-capped child requests
    // must keep every PoP exchange — and therefore every chain digest and
    // attempt/success counter — byte-identical to the engine at each.
    for window in [1, 2, 8] {
        let mut config = base_config(4, 9, 7);
        config.deployment.pop = true;
        config.deployment.window = window;
        let verdict = run_at_parity(&config, &format!("W={window}")).verdict;
        assert!(
            verdict.wire_pop.0 > 0,
            "W={window}: the verification workload must trigger over the wire"
        );
    }
}

#[test]
fn churn_cluster_matches_engine_through_join_and_leave() {
    // The dynamic-membership acceptance bar: a 4-founder cluster where
    // node 4 joins at slot 3 (spawned with nothing but a bootstrap
    // address — the join handshake transfers the roster) and node 1
    // leaves gracefully at slot 6 must reach network_digest parity with
    // the in-memory engine driving the same node_joins/node_leaves
    // schedule.
    let mut config = base_config(4, 8, 20260726);
    config.deployment.churn = tldag::net::parse_churn_spec("join:4@3,leave:1@6").expect("spec");
    let outcome = run_at_parity(&config, "churn");
    assert_eq!(outcome.reports.len(), 5, "founders plus the joiner report");
    assert_eq!(
        outcome.reports[4].chain_len, 5,
        "the joiner generates from slot 3 through 7"
    );
    assert_eq!(
        outcome.reports[1].chain_len, 6,
        "the leaver generates slots 0 through 5"
    );
    assert!(
        outcome.reports[4].catch_up_ms > 0,
        "the joiner's catch-up latency is measured"
    );
}

#[test]
fn churn_cluster_with_pop_matches_engine_counters() {
    // Same membership schedule with the verification workload on: the
    // joiner and the survivors all run PoP over the wire, and the
    // attempt/success counters must match the engine exactly (the
    // candidate enumeration is membership-aware on both sides) — at every
    // window, since a membership delta drains the pipeline first.
    for window in [1, 2, 8] {
        let mut config = base_config(4, 10, 7);
        config.deployment.pop = true;
        config.deployment.window = window;
        config.deployment.churn = tldag::net::parse_churn_spec("join:4@3,leave:1@8").expect("spec");
        let verdict = run_at_parity(&config, &format!("churn at W={window}")).verdict;
        assert!(
            verdict.wire_pop.0 > 0,
            "W={window}: the workload must trigger"
        );
    }
}

#[test]
fn lossy_cluster_heals_to_parity() {
    // 10% of every node's datagrams are dropped deterministically; the
    // retry/backoff budget and pull-based digest recovery must heal the
    // run to exact parity (the chance of any request exhausting its
    // 6-retry budget at this rate is ~1e-5 per exchange).
    let mut config = base_config(3, 6, 20260808);
    config.deployment.pop = true;
    config.deployment.drop = 0.1;
    run_at_parity(&config, "10% loss");
}

#[test]
fn disk_backed_cluster_keeps_parity() {
    let dir = std::env::temp_dir().join(format!("tldag-wire-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = base_config(3, 4, 99);
    config.storage_root = Some(dir.clone());
    run_at_parity(&config, "disk");
    // The chains actually live on disk: every node directory has a log.
    for i in 0..3 {
        let node_dir = dir.join(format!("node-{i}"));
        assert!(node_dir.is_dir(), "{} missing", node_dir.display());
        assert!(
            std::fs::read_dir(&node_dir).expect("readable").count() > 0,
            "node {i} wrote nothing"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
