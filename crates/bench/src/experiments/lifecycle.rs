//! `fig14_lifecycle`: end-to-end block latency from causal lifecycle
//! traces.
//!
//! The span store gives each block a wall-clock timeline across every
//! node — generated at the origin, received/verified at the remotes,
//! committed when each node closes the slot. This experiment measures the
//! distribution of **generate → committed-everywhere** latency (the
//! instant the *last* node of a full quorum committed the block) on an
//! in-process loopback cluster, under the lockstep runtime (`W = 1`) and
//! the pipelined runtime (`W = 8`).
//!
//! The interesting comparison: pipelining raises *throughput* (fig13) by
//! taking the barrier off the hot path, but an individual block's
//! commit-everywhere latency grows with pipeline depth — a slot closes
//! only when the verify worker catches up to it. This panel quantifies
//! that trade with p50/p99 quantiles over all fully-traced blocks, and
//! verifies on the way that tracing itself never perturbs the protocol
//! (digest and PoP-counter parity against the reference engine must hold
//! with the span store enabled, and no barrier may time out).

use crate::report::{Report, Table};
use crate::{row, Scale};
use std::time::Duration;
use tldag_net::harness::discover_ports;
use tldag_net::{judge, Deployment, LoopbackCluster, Verdict};
use tldag_obs::{build_timelines, SpanEvent};

/// Sweep parameters.
#[derive(Clone, Debug)]
pub(crate) struct LifecycleConfig {
    /// Nodes (= UDP endpoints, all founders).
    pub(crate) nodes: usize,
    /// Protocol horizon in slots.
    pub(crate) slots: u64,
    /// Consensus parameter γ.
    pub(crate) gamma: usize,
    /// Experiment seed.
    pub(crate) seed: u64,
    /// Pipeline windows to sweep; 1 = lockstep.
    pub(crate) windows: Vec<u64>,
}

impl LifecycleConfig {
    /// Sweep sized for `scale`.
    pub(crate) fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => LifecycleConfig {
                nodes: 4,
                slots: 40,
                gamma: 3,
                seed: 42,
                windows: vec![1, 8],
            },
            Scale::Quick => LifecycleConfig {
                nodes: 3,
                slots: 18,
                gamma: 2,
                seed: 42,
                windows: vec![1, 8],
            },
        }
    }
}

/// Lifecycle-latency measurements at one window size.
#[derive(Clone, Debug)]
pub(crate) struct LifecyclePoint {
    /// The pipeline window (1 = lockstep).
    pub(crate) window: u64,
    /// Block timelines assembled from the merged span stores.
    pub(crate) timelines: u64,
    /// Timelines with spans from every node of the cluster.
    pub(crate) fully_stitched: u64,
    /// Timelines with a full-quorum committed-everywhere instant.
    pub(crate) committed: u64,
    /// Spans recorded across every node.
    pub(crate) spans: u64,
    /// Spans lost to ring eviction or contention across every node.
    pub(crate) dropped: u64,
    /// Median generate → committed-everywhere latency, µs.
    pub(crate) p50_us: u64,
    /// 99th-percentile generate → committed-everywhere latency, µs.
    pub(crate) p99_us: u64,
    /// Worst generate → committed-everywhere latency, µs.
    pub(crate) max_us: u64,
    /// The traced run judged against the engine reference.
    pub(crate) verdict: Verdict,
}

/// The sweep output.
#[derive(Clone, Debug)]
pub(crate) struct LifecycleData {
    /// One point per window, in sweep order.
    pub(crate) points: Vec<LifecyclePoint>,
}

/// `q`-quantile of an unsorted latency sample (nearest-rank).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the sweep.
pub(crate) fn run(config: &LifecycleConfig) -> LifecycleData {
    let mut deployment = Deployment::new(config.seed, config.nodes, config.slots);
    deployment.node.gamma = config.gamma;
    deployment.node.pop = true;
    deployment.node.trace = true;
    deployment.node.linger = Duration::from_millis(600);
    let reference = deployment.reference();

    let mut points = Vec::with_capacity(config.windows.len());
    for &window in &config.windows {
        let addrs = discover_ports(config.nodes).expect("probe ports");
        deployment.node.window = window;
        // The telemetry handles' span stores outlive the runtimes.
        let results = LoopbackCluster::spawn(deployment.member_configs(&addrs)).join();

        let verdict = judge(
            &deployment,
            &reference,
            results.iter().map(|(o, _)| o.report()),
        );

        // Merge every node's span store into one cross-node event set —
        // the same stitching `/trace` does per node, but cluster-wide.
        let merged: Vec<SpanEvent> = results
            .iter()
            .flat_map(|(_, t)| t.spans.snapshot())
            .collect();
        let spans = results.iter().map(|(_, t)| t.spans.recorded()).sum();
        let dropped = results
            .iter()
            .map(|(_, t)| t.spans.dropped() + t.spans.evicted())
            .sum();

        let timelines = build_timelines(&merged);
        let mut latencies: Vec<u64> = Vec::with_capacity(timelines.len());
        let mut fully_stitched = 0u64;
        for timeline in &timelines {
            if timeline.node_count() == config.nodes {
                fully_stitched += 1;
            }
            if let (Some(generated), Some(committed)) = (
                timeline.generated_at(),
                timeline.committed_everywhere(config.nodes),
            ) {
                latencies.push(committed.saturating_sub(generated));
            }
        }
        latencies.sort_unstable();

        points.push(LifecyclePoint {
            window,
            timelines: timelines.len() as u64,
            fully_stitched,
            committed: latencies.len() as u64,
            spans,
            dropped,
            p50_us: quantile(&latencies, 0.50),
            p99_us: quantile(&latencies, 0.99),
            max_us: latencies.last().copied().unwrap_or(0),
            verdict,
        });
    }
    LifecycleData { points }
}

/// The traced window sweep at `scale`. Tracing must never perturb the
/// protocol: digest parity, PoP-counter parity and an undegraded barrier
/// are invariants at every window.
pub(crate) fn report(scale: Scale) -> Report {
    let cfg = LifecycleConfig::at_scale(scale);
    let data = run(&cfg);
    let mut table = Table::new(
        "fig14_lifecycle",
        format!(
            "Block lifecycle latency: generate → committed everywhere (γ = {})",
            cfg.gamma
        ),
    );
    // Window-independent: every point is judged against one reference.
    let reference_pop = data
        .points
        .first()
        .map_or((0, 0), |p| p.verdict.reference_pop);
    let mut report = Report::new("fig14_lifecycle", scale)
        .param("nodes", cfg.nodes)
        .param("slots", cfg.slots)
        .param("gamma", cfg.gamma)
        .param("reference_pop_attempts", reference_pop.0)
        .param("reference_pop_successes", reference_pop.1);
    for p in &data.points {
        let v = &p.verdict;
        table.push(row![
            "window" => p.window,
            "timelines" => p.timelines,
            "fully_stitched" => p.fully_stitched,
            "committed" => p.committed,
            "spans" => p.spans,
            "dropped" => p.dropped,
            "p50_us" => p.p50_us,
            "p99_us" => p.p99_us,
            "max_us" => p.max_us,
            "parity" => v.honest_parity(),
            "pop_attempts" => v.wire_pop.0,
            "pop_successes" => v.wire_pop.1,
        ]);
        let at = format!("at window {}", p.window);
        report.invariant(
            format!("digest parity under tracing {at}"),
            v.honest_parity(),
        );
        report.invariant(
            format!("PoP counters equal the engine's {at}"),
            v.pop_parity(),
        );
        report.invariant(format!("no degraded node {at}"), v.degraded.is_empty());
    }
    report.tables.push(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_cluster_yields_quorum_committed_timelines_at_parity() {
        let config = LifecycleConfig {
            nodes: 3,
            slots: 10,
            gamma: 2,
            seed: 7,
            windows: vec![1],
        };
        let data = run(&config);
        assert_eq!(data.points.len(), 1);
        let p = &data.points[0];
        assert!(
            p.verdict.holds(),
            "tracing must not perturb the protocol or the engine's PoP counters:\n{}",
            p.verdict
        );
        assert_eq!(
            p.timelines,
            3 * 10,
            "every generated block must have a timeline"
        );
        assert!(
            p.committed >= p.timelines / 2,
            "most blocks must reach committed-everywhere, got {}/{}",
            p.committed,
            p.timelines
        );
        assert!(p.fully_stitched > 0, "cross-node stitching must happen");
        assert!(p.p50_us > 0, "commit-everywhere latency cannot be zero");
        assert!(p.p99_us >= p.p50_us);
        assert_eq!(p.dropped, 0, "this scale must fit the span ring");
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let sorted = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(quantile(&sorted, 0.50), 50);
        assert_eq!(quantile(&sorted, 0.99), 100);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.99), 7);
    }
}
