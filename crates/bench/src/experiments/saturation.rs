//! `fig13_saturation`: the epoch-window pipeline's throughput headroom.
//!
//! The lockstep runtime (window = 1) ends every slot in a digest/done
//! barrier, so slot time is dominated by coordination, not work — the
//! bound DLedger (arXiv:1902.09031) removes by committing asynchronously
//! with lazy interest-based sync. This experiment measures exactly that
//! gap on loopback: for each pipeline window `W` an in-process cluster of
//! [`tldag_net::NetNode`] runtimes executes the same seeded schedule with
//! PoP verification on, and reports
//!
//! * **blocks/s** — cluster-wide generation throughput over the slot
//!   loop's critical path (the slowest node's `slot_loop_ms`, which
//!   excludes bootstrap and linger),
//! * **PoP/s** — verification throughput on the same denominator,
//! * **p50/p99 slot latency** — per-slot generation-to-verified latency
//!   from the merged node telemetry histograms (in pipelined mode this is
//!   true pipeline depth: a slot verifies several generations later), and
//! * **digest + PoP parity** — every window must still reproduce the
//!   in-memory engine byte-for-byte; the pipeline buys speed, not drift.
//!
//! The headline is `speedup`: blocks/s at window `W` relative to the
//! lockstep baseline of the same sweep.

use crate::report::{Report, Table};
use crate::{row, Scale};
use std::time::{Duration, Instant};
use tldag_net::harness::discover_ports;
use tldag_net::{judge, Deployment, LoopbackCluster, Verdict};

/// Sweep parameters.
#[derive(Clone, Debug)]
pub(crate) struct SaturationConfig {
    /// Nodes (= UDP endpoints, all founders).
    pub(crate) nodes: usize,
    /// Protocol horizon in slots.
    pub(crate) slots: u64,
    /// Consensus parameter γ.
    pub(crate) gamma: usize,
    /// Experiment seed.
    pub(crate) seed: u64,
    /// Pipeline windows to sweep; include 1 for the lockstep baseline.
    pub(crate) windows: Vec<u64>,
}

impl SaturationConfig {
    /// Sweep sized for `scale`.
    pub(crate) fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => SaturationConfig {
                nodes: 5,
                slots: 48,
                gamma: 3,
                seed: 42,
                windows: vec![1, 2, 4, 8],
            },
            Scale::Quick => SaturationConfig {
                nodes: 4,
                slots: 30,
                gamma: 3,
                seed: 42,
                windows: vec![1, 4],
            },
        }
    }
}

/// Measurements at one window size.
#[derive(Clone, Debug)]
pub(crate) struct SaturationPoint {
    /// The pipeline window (1 = lockstep baseline).
    pub(crate) window: u64,
    /// Blocks generated across the cluster (nodes × slots).
    pub(crate) blocks: u64,
    /// The run judged against the engine reference on the same seed.
    pub(crate) verdict: Verdict,
    /// Slot-loop critical path: the slowest node's `slot_loop_ms`.
    pub(crate) slot_loop_ms: u64,
    /// Wall-clock for the whole cluster run (bootstrap + linger included).
    pub(crate) wall_ms: f64,
    /// Cluster generation throughput over the slot-loop critical path.
    pub(crate) blocks_per_s: f64,
    /// Cluster verification throughput on the same denominator.
    pub(crate) pops_per_s: f64,
    /// Median generation-to-verified slot latency, ms (merged histograms).
    pub(crate) p50_slot_ms: f64,
    /// 99th-percentile slot latency, ms.
    pub(crate) p99_slot_ms: f64,
    /// blocks/s relative to this sweep's window-1 point (1.0 when this
    /// *is* the baseline; 0.0 when the sweep has no baseline).
    pub(crate) speedup: f64,
}

/// The sweep output.
#[derive(Clone, Debug)]
pub(crate) struct SaturationData {
    /// One point per window, in sweep order.
    pub(crate) points: Vec<SaturationPoint>,
}

/// Runs the sweep.
pub(crate) fn run(config: &SaturationConfig) -> SaturationData {
    // Window-independent: the whole point of the pipeline is that the
    // ledger it converges to is identical.
    let mut deployment = Deployment::new(config.seed, config.nodes, config.slots);
    deployment.node.gamma = config.gamma;
    deployment.node.pop = true;
    deployment.node.linger = Duration::from_millis(600);
    let reference = deployment.reference();

    let mut points: Vec<SaturationPoint> = Vec::with_capacity(config.windows.len());
    for &window in &config.windows {
        let started = Instant::now();
        let addrs = discover_ports(config.nodes).expect("probe ports");
        deployment.node.window = window;
        let results = LoopbackCluster::spawn(deployment.member_configs(&addrs)).join();
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;

        let verdict = judge(
            &deployment,
            &reference,
            results.iter().map(|(o, _)| o.report()),
        );
        let mut latency = results[0].1.slot_latency.snapshot();
        for (_, telemetry) in &results[1..] {
            latency.merge(&telemetry.slot_latency.snapshot());
        }
        let blocks: u64 = results.iter().map(|(o, _)| o.run.chain_len).sum();
        let pop_successes = verdict.wire_pop.1;
        // The cluster is only as fast as its slowest slot loop.
        let slot_loop_ms = results
            .iter()
            .map(|(o, _)| o.run.slot_loop_ms)
            .max()
            .unwrap_or(1);
        let secs = slot_loop_ms as f64 / 1e3;
        points.push(SaturationPoint {
            window,
            blocks,
            verdict,
            slot_loop_ms,
            wall_ms,
            blocks_per_s: blocks as f64 / secs,
            pops_per_s: pop_successes as f64 / secs,
            p50_slot_ms: latency.p50() as f64 / 1e3,
            p99_slot_ms: latency.p99() as f64 / 1e3,
            speedup: 0.0,
        });
    }
    let baseline = points
        .iter()
        .find(|p| p.window == 1)
        .map(|p| p.blocks_per_s);
    for p in &mut points {
        p.speedup = match baseline {
            Some(base) if base > 0.0 => p.blocks_per_s / base,
            _ => 0.0,
        };
    }
    SaturationData { points }
}

/// The window sweep at `scale`. Digest parity, PoP-counter parity and an
/// undegraded barrier are invariants at every window; loopback throughput
/// itself is judged by the repo benchmark's `wire_*` workloads, not here.
pub(crate) fn report(scale: Scale) -> Report {
    let cfg = SaturationConfig::at_scale(scale);
    let data = run(&cfg);
    let mut table = Table::new(
        "fig13_saturation",
        format!(
            "Loopback cluster throughput vs pipeline window (γ = {})",
            cfg.gamma
        ),
    );
    let mut report = Report::new("fig13_saturation", scale)
        .param("nodes", cfg.nodes)
        .param("slots", cfg.slots)
        .param("gamma", cfg.gamma);
    for p in &data.points {
        let v = &p.verdict;
        table.push(row![
            "window" => p.window,
            "blocks" => p.blocks,
            "blocks_per_s" => p.blocks_per_s,
            "pops_per_s" => p.pops_per_s,
            "p50_slot_ms" => p.p50_slot_ms,
            "p99_slot_ms" => p.p99_slot_ms,
            "slot_loop_ms" => p.slot_loop_ms,
            "wall_ms" => p.wall_ms,
            "speedup" => p.speedup,
            "parity" => v.honest_parity(),
            "degraded_nodes" => v.degraded.len(),
            "pop_attempts" => v.wire_pop.0,
            "pop_successes" => v.wire_pop.1,
            "reference_pop_attempts" => v.reference_pop.0,
            "reference_pop_successes" => v.reference_pop.1,
            "retries" => v.net.request_retries,
            "datagrams" => v.net.datagrams_sent,
        ]);
        report.invariant(
            format!("digest parity at window {}", p.window),
            v.honest_parity(),
        );
        report.invariant(
            format!("PoP counters equal the engine's at window {}", p.window),
            v.pop_parity(),
        );
        report.invariant(
            format!("no degraded node at window {}", p.window),
            v.degraded.is_empty(),
        );
    }
    let fastest = data
        .points
        .iter()
        .max_by(|a, b| a.blocks_per_s.total_cmp(&b.blocks_per_s));
    if let (Some(base), Some(best)) = (data.points.iter().find(|p| p.window == 1), fastest) {
        report.headline = format!(
            "window {} reaches {:.0} blocks/s vs {:.0} lockstep — {:.1}x, at byte-identical \
digests",
            best.window, best.blocks_per_s, base.blocks_per_s, best.speedup
        );
    }
    report.tables.push(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_window_keeps_parity_and_pop_counters() {
        let config = SaturationConfig {
            nodes: 3,
            slots: 12,
            gamma: 2,
            seed: 11,
            windows: vec![1, 4],
        };
        let data = run(&config);
        assert_eq!(data.points.len(), 2);
        for p in &data.points {
            let v = &p.verdict;
            assert!(
                v.holds(),
                "window {} must keep digest parity and the engine's PoP counters:\n{v}",
                p.window
            );
            assert!(v.degraded.is_empty(), "no barrier may time out on loopback");
            assert_eq!(p.blocks, 3 * 12, "every node generates once per slot");
            assert!(p.blocks_per_s > 0.0);
        }
    }
}
