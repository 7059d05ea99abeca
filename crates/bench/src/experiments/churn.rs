//! `fig12_churn`: dynamic membership over a *real* (lossy) socket path.
//!
//! The paper's Sec. VII names nodes joining and leaving mid-run as the
//! IoT deployment's normal operating condition; DAG-ledger work aimed at
//! the same setting (DLedger, Cullen et al.) treats churn as the default,
//! not a fault. This experiment measures the wire runtime's membership
//! control plane under both churn *and* injected datagram loss: for each
//! churn level (number of scheduled late joins + graceful leaves) a full
//! in-process cluster of [`tldag_net::NetNode`] runtimes executes the
//! schedule over fault-injecting transports
//! ([`tldag_net::FaultyTransport`]), with PoP verification on, and reports
//!
//! * **PoP completion** — verifications that reached consensus over the
//!   lossy wire, against the in-memory engine's count on the identical
//!   schedule (the reactive protocol's headline),
//! * **catch-up latency** — wall-clock from a joiner's first `JoinReq`
//!   to being announced and slot-ready (the membership plane's cost), and
//! * **digest parity** — whether the wire cluster still reproduced the
//!   engine's `network_digest` byte-for-byte through the churn (an
//!   invariant), and whether its PoP counters matched the engine's (a
//!   column: loss may cost a verification the engine completes).

use crate::experiments::cluster::net_table;
use crate::report::{Report, Table};
use crate::{row, Scale};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use tldag_net::harness::{discover_ports, discover_tcp_ports};
use tldag_net::membership::{validate_churn, ChurnEvent};
use tldag_net::runtime::NodeOutcome;
use tldag_net::telemetry::{scrape_metrics, StatusRow};
use tldag_net::{judge, Deployment, FaultSpec, LoopbackCluster, Verdict};
use tldag_sim::NodeId;

/// One churn level of the sweep: how many late joins and graceful leaves
/// the schedule contains.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChurnLevel {
    /// Late joiners (spawned mid-run, bootstrapped via the handshake).
    pub(crate) joins: usize,
    /// Graceful leavers (founders departing before the horizon).
    pub(crate) leaves: usize,
}

/// Sweep parameters.
#[derive(Clone, Debug)]
pub(crate) struct ChurnConfig {
    /// Founding nodes.
    pub(crate) founders: usize,
    /// Protocol horizon in slots.
    pub(crate) slots: u64,
    /// Consensus parameter γ.
    pub(crate) gamma: usize,
    /// Experiment seed.
    pub(crate) seed: u64,
    /// Injected datagram drop probability (duplication/reordering scaled
    /// off it, see [`FaultSpec::degraded`]).
    pub(crate) loss: f64,
    /// Churn levels to sweep.
    pub(crate) levels: Vec<ChurnLevel>,
}

impl ChurnConfig {
    /// Sweep sized for `scale`.
    pub(crate) fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => ChurnConfig {
                founders: 6,
                slots: 16,
                gamma: 3,
                seed: 42,
                loss: 0.05,
                levels: vec![
                    ChurnLevel {
                        joins: 0,
                        leaves: 0,
                    },
                    ChurnLevel {
                        joins: 1,
                        leaves: 0,
                    },
                    ChurnLevel {
                        joins: 1,
                        leaves: 1,
                    },
                    ChurnLevel {
                        joins: 2,
                        leaves: 2,
                    },
                    ChurnLevel {
                        joins: 3,
                        leaves: 3,
                    },
                ],
            },
            Scale::Quick => ChurnConfig {
                founders: 4,
                slots: 10,
                gamma: 3,
                seed: 42,
                loss: 0.05,
                levels: vec![
                    ChurnLevel {
                        joins: 0,
                        leaves: 0,
                    },
                    ChurnLevel {
                        joins: 1,
                        leaves: 1,
                    },
                    ChurnLevel {
                        joins: 2,
                        leaves: 1,
                    },
                ],
            },
        }
    }

    /// The deterministic schedule for one churn level: joins spread from
    /// slot 2 on (consecutive ids past the founders), leaves walking back
    /// from two slots before the horizon (sparing founder 0, the
    /// bootstrap).
    pub(crate) fn schedule(&self, level: ChurnLevel) -> Vec<ChurnEvent> {
        let mut events = Vec::new();
        for j in 0..level.joins {
            events.push(ChurnEvent::Join {
                id: NodeId((self.founders + j) as u32),
                slot: 2 + j as u64,
            });
        }
        for l in 0..level.leaves {
            events.push(ChurnEvent::Leave {
                id: NodeId(1 + l as u32),
                slot: self.slots - 2 - l as u64,
            });
        }
        events.sort_by_key(|e| (e.slot(), matches!(e, ChurnEvent::Join { .. }), e.id().0));
        events
    }
}

/// One mid-run telemetry sample: the cluster's aggregated state as seen
/// by scraping every live node's `/metrics` endpoint while slots advance.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChurnSample {
    /// Highest slot any scraped node was executing.
    pub(crate) slot: u64,
    /// Nodes that answered the scrape.
    pub(crate) nodes: u64,
    /// Blocks across all answering chains.
    pub(crate) chain_total: u64,
    /// PoP verifications attempted so far (sum).
    pub(crate) pop_attempts: u64,
    /// PoP verifications completed so far (sum).
    pub(crate) pop_successes: u64,
    /// Request retransmissions so far (sum).
    pub(crate) retries: u64,
}

/// Measurements at one churn level.
#[derive(Clone, Debug)]
pub(crate) struct ChurnPoint {
    /// Late joins in the schedule.
    pub(crate) joins: usize,
    /// Graceful leaves in the schedule.
    pub(crate) leaves: usize,
    /// The run judged against the engine reference on the same schedule.
    pub(crate) verdict: Verdict,
    /// Mean joiner catch-up latency (handshake → announced), ms.
    pub(crate) mean_catch_up_ms: f64,
    /// Worst joiner catch-up latency, ms.
    pub(crate) max_catch_up_ms: f64,
    /// Wall-clock for the whole cluster run, ms.
    pub(crate) wall_ms: f64,
    /// Mid-run telemetry time series, oldest first (scraped from the live
    /// nodes' metrics endpoints while the cluster ran).
    pub(crate) samples: Vec<ChurnSample>,
}

impl ChurnPoint {
    /// Fraction of PoP runs that reached consensus.
    pub(crate) fn completion(&self) -> f64 {
        match self.verdict.wire_pop {
            (0, _) => 0.0,
            (attempts, successes) => successes as f64 / attempts as f64,
        }
    }
}

/// The sweep output.
#[derive(Clone, Debug)]
pub(crate) struct ChurnData {
    /// One point per churn level, in sweep order.
    pub(crate) points: Vec<ChurnPoint>,
}

/// Scrapes the live cluster until every node has returned: the same path
/// `tldag status` takes, reduced to one aggregated sample per sweep.
fn sample_until_finished(
    cluster: &LoopbackCluster,
    metrics_addrs: &[SocketAddr],
) -> Vec<ChurnSample> {
    let mut samples = Vec::new();
    while !cluster.is_finished() {
        std::thread::sleep(Duration::from_millis(120));
        let rows: Vec<StatusRow> = metrics_addrs
            .iter()
            .filter_map(|addr| {
                scrape_metrics(*addr, Duration::from_millis(300))
                    .ok()
                    .map(|s| StatusRow::from_samples(addr.to_string(), &s))
            })
            .collect();
        if !rows.is_empty() {
            samples.push(ChurnSample {
                slot: rows.iter().map(|r| r.slot).max().unwrap_or(0),
                nodes: rows.len() as u64,
                chain_total: rows.iter().map(|r| r.chain_len).sum(),
                pop_attempts: rows.iter().map(|r| r.pop_attempts).sum(),
                pop_successes: rows.iter().map(|r| r.pop_successes).sum(),
                retries: rows.iter().map(|r| r.request_retries).sum(),
            });
        }
    }
    samples
}

/// Runs the sweep.
pub(crate) fn run(config: &ChurnConfig) -> ChurnData {
    let mut points = Vec::with_capacity(config.levels.len());
    for &level in &config.levels {
        let events = config.schedule(level);
        validate_churn(&events, config.founders, config.slots).expect("generated schedule");
        let mut deployment = Deployment::new(config.seed, config.founders, config.slots);
        let node = &mut deployment.node;
        node.gamma = config.gamma;
        node.pop = true;
        node.churn = events;
        // The runtime derives each node's fault stream from (seed, id), so
        // the loss pattern is deterministic yet uncorrelated across nodes;
        // the protocol seed stays shared for parity.
        node.fault = Some(FaultSpec::degraded(config.loss));
        node.endpoint.request_timeout = Duration::from_millis(40);
        node.endpoint.max_retries = 8;
        node.endpoint.max_backoff = Duration::from_millis(300);
        node.slot_timeout = Duration::from_secs(20);
        node.hello_timeout = Duration::from_secs(20);
        node.linger = Duration::from_millis(2500);
        let reference = deployment.reference();

        let started = Instant::now();
        let total = deployment.members();
        let addrs = discover_ports(total).expect("probe ports");
        let metrics_addrs = discover_tcp_ports(total).expect("probe metrics ports");
        let mut configs = deployment.member_configs(&addrs);
        for (c, metrics_addr) in configs.iter_mut().zip(&metrics_addrs) {
            c.metrics_addr = Some(*metrics_addr);
        }
        let cluster = LoopbackCluster::spawn(configs);
        let samples = sample_until_finished(&cluster, &metrics_addrs);
        let outcomes: Vec<NodeOutcome> = cluster.join().into_iter().map(|(o, _)| o).collect();
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;

        let verdict = judge(
            &deployment,
            &reference,
            outcomes.iter().map(NodeOutcome::report),
        );
        let catch_ups: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.run.catch_up_ms > 0)
            .map(|o| o.run.catch_up_ms as f64)
            .collect();
        let mean_catch_up = if catch_ups.is_empty() {
            0.0
        } else {
            catch_ups.iter().sum::<f64>() / catch_ups.len() as f64
        };
        points.push(ChurnPoint {
            joins: level.joins,
            leaves: level.leaves,
            verdict,
            mean_catch_up_ms: mean_catch_up,
            max_catch_up_ms: catch_ups.iter().cloned().fold(0.0, f64::max),
            wall_ms,
            samples,
        });
    }
    ChurnData { points }
}

/// The churn sweep at `scale`. Digest parity and an undegraded barrier
/// are invariants at every churn level; PoP-counter parity is a column.
pub(crate) fn report(scale: Scale) -> Report {
    let cfg = ChurnConfig::at_scale(scale);
    let data = run(&cfg);
    let mut points = Table::new(
        "fig12_churn",
        format!(
            "PoP under membership churn over lossy UDP (γ = {}, {:.0}% loss)",
            cfg.gamma,
            cfg.loss * 100.0
        ),
    );
    let mut samples = Table::new(
        "fig12_churn_status",
        "mid-run telemetry scraped from the live nodes",
    );
    let mut report = Report::new("fig12_churn", scale)
        .param("founders", cfg.founders)
        .param("slots", cfg.slots)
        .param("loss", cfg.loss);
    for p in &data.points {
        let v = &p.verdict;
        points.push(row![
            "joins" => p.joins,
            "leaves" => p.leaves,
            "pop_attempts" => v.wire_pop.0,
            "pop_successes" => v.wire_pop.1,
            "completion" => p.completion(),
            "ref_attempts" => v.reference_pop.0,
            "ref_successes" => v.reference_pop.1,
            "pop_parity" => v.pop_parity(),
            "mean_catch_up_ms" => p.mean_catch_up_ms,
            "max_catch_up_ms" => p.max_catch_up_ms,
            "parity" => v.honest_parity(),
            "degraded_nodes" => v.degraded.len(),
            "retries" => v.net.request_retries,
            "datagrams" => v.net.datagrams_sent,
            "wall_ms" => p.wall_ms,
        ]);
        for s in &p.samples {
            samples.push(row![
                "joins" => p.joins,
                "leaves" => p.leaves,
                "slot" => s.slot,
                "nodes" => s.nodes,
                "chain_total" => s.chain_total,
                "pop_attempts" => s.pop_attempts,
                "pop_successes" => s.pop_successes,
                "retries" => s.retries,
            ]);
        }
        let level = format!("{} joins + {} leaves", p.joins, p.leaves);
        report.invariant(format!("digest parity with {level}"), v.honest_parity());
        report.invariant(
            format!("no degraded node with {level}"),
            v.degraded.is_empty(),
        );
    }
    if let Some(p) = data.points.iter().find(|p| p.joins + p.leaves > 0) {
        report.headline = format!(
            "with {} joins + {} leaves at {:.0}% datagram loss, {:.1}% of PoP runs completed \
and the joiners caught up in {:.0} ms mean",
            p.joins,
            p.leaves,
            cfg.loss * 100.0,
            p.completion() * 100.0,
            p.mean_catch_up_ms
        );
    }
    let labelled = |p: &ChurnPoint| (format!("{}+{}", p.joins, p.leaves), p.verdict.net);
    let net = net_table(
        "fig12_churn_net",
        data.points.iter().map(labelled).collect(),
    );
    report.tables = vec![points, samples, net];
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_under_loss_keeps_parity_and_completes_pop() {
        let config = ChurnConfig {
            founders: 4,
            slots: 9,
            gamma: 2,
            seed: 13,
            loss: 0.08,
            levels: vec![ChurnLevel {
                joins: 1,
                leaves: 1,
            }],
        };
        let data = run(&config);
        let p = &data.points[0];
        assert!(
            p.verdict.holds(),
            "churn + loss must keep digest parity and the engine's PoP counters:\n{}",
            p.verdict
        );
        assert!(
            p.mean_catch_up_ms > 0.0,
            "the joiner's catch-up latency must be measured"
        );
        assert!(
            p.verdict.degraded.is_empty(),
            "no barrier may time out at this loss"
        );
    }
}
