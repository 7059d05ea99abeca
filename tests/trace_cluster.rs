//! Tracing acceptance: a multi-process UDP cluster run with `--trace`
//! yields cross-node stitched block timelines via each node's `/trace`
//! endpoint, and enabling tracing never changes a single protocol byte —
//! digests and PoP counters are identical with the span store on or off.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::Duration;
use tldag::net::{run_cluster, timelines_for_slot, ClusterConfig};

/// Every `"node":N` span attribution inside one timeline's JSON.
fn span_nodes(timeline: &str) -> Vec<u32> {
    timeline
        .match_indices("\"node\":")
        .filter_map(|(i, m)| {
            let digits: String = timeline[i + m.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        })
        .collect()
}

fn tldag_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_tldag"))
}

fn base_config(nodes: usize, slots: u64, seed: u64) -> ClusterConfig {
    let mut config = ClusterConfig::new(tldag_exe(), nodes, slots, seed);
    config.report_timeout = Duration::from_secs(120);
    config
}

#[test]
fn traced_cluster_stitches_timelines_across_all_nodes() {
    let mut config = base_config(3, 6, 20260808);
    config.deployment.pop = true;
    config.metrics = true;
    config.deployment.trace = true;
    let outcome = run_cluster(&config).expect("cluster run");
    let verdict = &outcome.verdict;
    assert!(
        verdict.degraded.is_empty(),
        "no barrier may time out on loopback"
    );
    assert!(
        verdict.holds(),
        "the traced cluster must reproduce the engine's network digest:\n{verdict}"
    );

    assert_eq!(
        outcome.trace_snapshots.len(),
        3,
        "every node's /trace endpoint must be scraped"
    );
    for (i, snapshot) in outcome.trace_snapshots.iter().enumerate() {
        assert!(
            snapshot.contains("\"timelines\":["),
            "node {i} returned no timeline array: {snapshot:.120}"
        );
        assert!(
            snapshot.contains("\"kind\":\"cmt\""),
            "node {i} recorded no commit spans"
        );
    }
    // The envelope's trace-context extension carries the origin's
    // gossip-out instant, so every receiver's local timeline spans both
    // ends of the wire.
    for (i, snapshot) in outcome.trace_snapshots.iter().enumerate() {
        assert!(
            snapshot.contains("\"nodes\":2"),
            "node {i} has no timeline spanning origin and receiver"
        );
    }
    // Merge the three scrapes the way a trace viewer would: at least one
    // block identity must accumulate spans from all three nodes.
    let mut nodes_by_block: HashMap<String, HashSet<u32>> = HashMap::new();
    for snapshot in &outcome.trace_snapshots {
        for slot in 0..6 {
            for timeline in timelines_for_slot(snapshot, slot) {
                // Everything before the node count — `"slot":…,"origin":…,
                // "prefix":"…"` — identifies the block.
                let key = timeline
                    .split("\"nodes\":")
                    .next()
                    .expect("split yields a head")
                    .to_string();
                nodes_by_block
                    .entry(key)
                    .or_default()
                    .extend(span_nodes(&timeline));
            }
        }
    }
    assert!(
        nodes_by_block.values().any(|nodes| nodes.len() == 3),
        "no block accumulated spans from all three nodes across the scrapes"
    );
}

#[test]
fn tracing_never_perturbs_digests_or_pop_counters() {
    // Two runs of the same seeded cluster, span store off then on: the
    // observable protocol state must be byte-identical. (A tracing
    // side-channel that shifted even one datagram would break the
    // engine-parity invariant every other acceptance test relies on.)
    let mut plain = base_config(3, 6, 7);
    plain.deployment.pop = true;
    let baseline = run_cluster(&plain).expect("untraced cluster run");

    let mut traced = base_config(3, 6, 7);
    traced.deployment.pop = true;
    traced.metrics = true;
    traced.deployment.trace = true;
    let observed = run_cluster(&traced).expect("traced cluster run");

    let (plain, traced) = (&baseline.verdict, &observed.verdict);
    assert!(plain.holds(), "untraced run must be at parity:\n{plain}");
    assert!(traced.holds(), "traced run must be at parity:\n{traced}");
    assert_eq!(
        plain.wire_digest, traced.wire_digest,
        "tracing changed the network digest"
    );
    assert_eq!(
        plain.wire_pop, traced.wire_pop,
        "tracing changed the PoP attempt/success counters"
    );
    assert!(plain.wire_pop.0 > 0, "the workload must trigger");
    assert!(
        baseline.trace_snapshots.is_empty(),
        "untraced runs must not scrape /trace"
    );
}
