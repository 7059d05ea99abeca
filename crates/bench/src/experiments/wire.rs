//! `fig11_wire`: PoP over a *real* socket path under injected datagram
//! faults.
//!
//! The in-memory engine's lossy-link model (Fig. 9) decides drops at the
//! abstraction of "a message"; this experiment measures the actual wire
//! stack — envelope codec, fragmentation, request retry with bounded
//! backoff — by running PoP verifications between UDP endpoints on
//! localhost whose transports inject datagram loss, duplication, and
//! reordering ([`tldag_net::FaultyTransport`]). The sweep reports, per
//! fault rate, the PoP success rate, latency, and the retry/timeout work
//! the transport performed to deliver it.
//!
//! TPS is disabled so every path extension crosses the socket: the numbers
//! measure the transport, not the validator's cache.

use crate::experiments::cluster::net_table;
use crate::report::{Report, Table};
use crate::{row, Scale};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tldag_core::blacklist::Blacklist;
use tldag_core::block::BlockId;
use tldag_core::config::ProtocolConfig;
use tldag_core::network::TldagNetwork;
use tldag_core::node::LedgerNode;
use tldag_core::pop::validator::{PopContext, PopWalk};
use tldag_core::store::TrustCache;
use tldag_core::workload::VerificationWorkload;
use tldag_net::runtime::{ask_over_wire, deployment_protocol_config, deployment_topology};
use tldag_net::{
    Endpoint, EndpointConfig, FaultSpec, FaultyTransport, NetStats, ReceiverGuard, Roster,
    UdpTransport,
};
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::{DetRng, NodeId, Topology};

/// Sweep parameters.
#[derive(Clone, Debug)]
pub(crate) struct WireConfig {
    /// Nodes (= UDP endpoints).
    pub(crate) nodes: usize,
    /// Slots of in-memory warm-up that build the chains to verify.
    pub(crate) warm_slots: u64,
    /// PoP verifications measured per fault rate.
    pub(crate) pops_per_rate: usize,
    /// Consensus parameter γ.
    pub(crate) gamma: usize,
    /// Experiment seed.
    pub(crate) seed: u64,
    /// Datagram fault rates to sweep (drop probability; duplication and
    /// reordering are scaled off it, see [`FaultSpec::degraded`]).
    pub(crate) loss_rates: Vec<f64>,
    /// Datagrams per receiver wakeup on every endpoint: 1 reproduces the
    /// lockstep-era one-datagram-per-wakeup loop, the default is the
    /// pipelined batched receive path.
    pub(crate) batch: usize,
}

impl WireConfig {
    /// Sweep sized for `scale`.
    pub(crate) fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => WireConfig {
                nodes: 12,
                warm_slots: 30,
                pops_per_rate: 25,
                gamma: 3,
                seed: 42,
                loss_rates: vec![0.0, 0.05, 0.10, 0.20, 0.30],
                batch: EndpointConfig::default().batch,
            },
            Scale::Quick => WireConfig {
                nodes: 8,
                warm_slots: 20,
                pops_per_rate: 8,
                gamma: 3,
                seed: 42,
                loss_rates: vec![0.0, 0.10, 0.25],
                batch: EndpointConfig::default().batch,
            },
        }
    }
}

/// Measurements at one fault rate.
#[derive(Clone, Debug)]
pub(crate) struct RatePoint {
    /// Injected datagram drop probability (per direction).
    pub(crate) loss: f64,
    /// PoP runs attempted.
    pub(crate) attempts: u64,
    /// PoP runs that reached consensus.
    pub(crate) successes: u64,
    /// Mean wall-clock latency of one PoP, milliseconds.
    pub(crate) mean_latency_ms: f64,
    /// Worst-case PoP latency, milliseconds.
    pub(crate) max_latency_ms: f64,
    /// Request retransmissions the validator's endpoint performed.
    pub(crate) retries: u64,
    /// Requests that exhausted their retry budget.
    pub(crate) timeouts: u64,
    /// Datagrams sent across every endpoint.
    pub(crate) datagrams: u64,
    /// Datagrams the fault injection swallowed (all endpoints).
    pub(crate) injected_drops: u64,
    /// Protocol messages the validator exchanged (PoP metric).
    pub(crate) messages: u64,
    /// Transport counters merged across every endpoint at this rate.
    pub(crate) net: NetStats,
    /// Median request round trip on the validator's endpoint, µs
    /// (telemetry histogram estimate: upper bound, < 2× exact).
    pub(crate) rtt_p50_us: u64,
    /// 99th-percentile request round trip on the validator's endpoint, µs.
    pub(crate) rtt_p99_us: u64,
}

impl RatePoint {
    /// Fraction of PoP runs that reached consensus.
    pub(crate) fn success_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }
}

/// The sweep output.
#[derive(Clone, Debug)]
pub(crate) struct WireData {
    /// One point per fault rate, in sweep order.
    pub(crate) points: Vec<RatePoint>,
}

/// One live endpoint: a responder (or the validator) with its receiver
/// thread and a handle on its fault injector.
struct WireNode {
    receiver: ReceiverGuard,
    faults: Arc<FaultyTransport<UdpTransport>>,
}

impl WireNode {
    fn spawn(node: Arc<LedgerNode>, spec: FaultSpec, rng: DetRng, batch: usize) -> WireNode {
        let udp = UdpTransport::bind("127.0.0.1:0".parse().expect("addr")).expect("bind");
        let faults = Arc::new(FaultyTransport::new(udp, spec, rng));
        let endpoint = Arc::new(Endpoint::with_transport(
            node.id(),
            Box::new(Arc::clone(&faults)),
            EndpointConfig {
                request_timeout: Duration::from_millis(25),
                max_retries: 7,
                max_backoff: Duration::from_millis(250),
                batch,
                ..EndpointConfig::default()
            },
        ));
        WireNode {
            receiver: endpoint.serve(node),
            faults,
        }
    }

    fn endpoint(&self) -> &Endpoint {
        self.receiver.endpoint()
    }
}

/// Builds the chains once (in memory, workload off) and clones them into
/// standalone responder nodes.
fn warm_nodes(
    cfg: &ProtocolConfig,
    topology: &Topology,
    config: &WireConfig,
) -> Vec<Arc<LedgerNode>> {
    let schedule = GenerationSchedule::uniform(topology.len());
    let mut net = TldagNetwork::new(*cfg, topology.clone(), schedule, config.seed);
    net.set_verification_workload(VerificationWorkload::Disabled);
    net.run_slots(config.warm_slots);
    topology
        .node_ids()
        .map(|id| {
            let mut node = LedgerNode::new(id, topology.neighbors(id).to_vec(), cfg);
            for block in net.node(id).store().iter() {
                node.store_mut().append(block).expect("copy chain");
            }
            Arc::new(node)
        })
        .collect()
}

/// Runs the sweep.
pub(crate) fn run(config: &WireConfig) -> WireData {
    let mut cfg = deployment_protocol_config(config.gamma);
    cfg.enable_tps = false; // measure the wire, not the cache
    let topology = deployment_topology(config.seed, config.nodes, 300.0);
    let nodes = warm_nodes(&cfg, &topology, config);
    let validator_id = NodeId(0);

    let mut points = Vec::with_capacity(config.loss_rates.len());
    for (rate_idx, &loss) in config.loss_rates.iter().enumerate() {
        // Fresh endpoints per rate: counters start at zero.
        let wire: Vec<WireNode> = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                WireNode::spawn(
                    Arc::clone(node),
                    FaultSpec::degraded(loss),
                    DetRng::seed_from(config.seed ^ ((rate_idx as u64) << 32) ^ i as u64),
                    config.batch,
                )
            })
            .collect();
        let mut roster = Roster::founders(wire.len());
        for (i, w) in wire.iter().enumerate() {
            roster.set_addr(NodeId(i as u32), w.endpoint().local_addr().expect("addr"));
        }
        let validator_endpoint = wire[validator_id.index()].endpoint();
        let own_store = nodes[validator_id.index()].store();

        let mut target_rng = DetRng::seed_from(config.seed ^ 0x000f_1611 ^ rate_idx as u64);
        let mut successes = 0u64;
        let mut latencies_ms = Vec::with_capacity(config.pops_per_rate);
        let mut messages = 0u64;
        for _ in 0..config.pops_per_rate {
            // An old block of a random other owner, as the paper's
            // min-age workload would pick.
            let owner = NodeId(1 + target_rng.index(config.nodes - 1) as u32);
            let old = (config.warm_slots / 2).max(1) as u32;
            let target = BlockId::new(owner, target_rng.index(old as usize) as u32);

            // Fresh validator state per run: each PoP is an independent
            // sample of the transport (no cache, no carried-over bans).
            let trust = TrustCache::new();
            let mut blacklist = Blacklist::new(cfg.blacklist);
            let pop_rng = DetRng::seed_from(target_rng.next_u64());
            let mut ctx = PopContext {
                cfg: &cfg,
                topology: &topology,
                id: validator_id,
                own_store,
                trust_cache: &trust,
                blacklist: &mut blacklist,
                horizon: None,
            };
            let addr_of = |peer| roster.request_addr(peer);
            let started = Instant::now();
            let report = PopWalk::run(target, pop_rng, &mut ctx, |request| {
                ask_over_wire(validator_endpoint, addr_of, None, request)
            });
            latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
            messages += report.metrics.total_messages();
            if report.is_success() {
                successes += 1;
            }
        }

        let validator_stats = validator_endpoint.stats();
        let rtt = validator_endpoint.request_rtt().snapshot();
        let mut net = NetStats::default();
        let mut injected_drops = 0u64;
        for w in &wire {
            net.merge(&w.endpoint().stats());
            injected_drops += w.faults.injected_drops();
        }
        let datagrams = net.datagrams_sent;
        let mean = latencies_ms.iter().sum::<f64>() / latencies_ms.len().max(1) as f64;
        let max = latencies_ms.iter().cloned().fold(0.0f64, f64::max);
        points.push(RatePoint {
            loss,
            attempts: config.pops_per_rate as u64,
            successes,
            mean_latency_ms: mean,
            max_latency_ms: max,
            retries: validator_stats.request_retries,
            timeouts: validator_stats.request_timeouts,
            datagrams,
            injected_drops,
            messages,
            net,
            rtt_p50_us: rtt.p50(),
            rtt_p99_us: rtt.p99(),
        });
        drop(wire); // join receiver threads before the next rate
    }
    WireData { points }
}

fn points_table(name: &str, cfg: &WireConfig, data: &WireData) -> Table {
    let mut table = Table::new(
        name,
        format!(
            "PoP over UDP under injected datagram faults (γ = {}, batch {})",
            cfg.gamma, cfg.batch
        ),
    );
    for p in &data.points {
        table.push(row![
            "loss" => p.loss,
            "attempts" => p.attempts,
            "successes" => p.successes,
            "success_rate" => p.success_rate(),
            "mean_latency_ms" => p.mean_latency_ms,
            "max_latency_ms" => p.max_latency_ms,
            "retries" => p.retries,
            "timeouts" => p.timeouts,
            "datagrams" => p.datagrams,
            "injected_drops" => p.injected_drops,
            "messages" => p.messages,
            "rtt_p50_us" => p.rtt_p50_us,
            "rtt_p99_us" => p.rtt_p99_us,
        ]);
    }
    table
}

/// The loss sweep at `scale`, in both I/O modes: the batched receive path
/// the runtime ships, then the one-datagram-per-wakeup loop it replaced.
/// PoP completion must not be lower with batching at any swept loss rate.
pub(crate) fn report(scale: Scale) -> Report {
    let cfg = WireConfig::at_scale(scale);
    let single_cfg = WireConfig {
        batch: 1,
        ..cfg.clone()
    };
    let (batched, single) = (run(&cfg), run(&single_cfg));
    let mut report = Report::new("fig11_wire", scale)
        .param("nodes", cfg.nodes)
        .param("warm_slots", cfg.warm_slots)
        .param("pops_per_rate", cfg.pops_per_rate)
        .param("batch", cfg.batch);
    for (b, s) in batched.points.iter().zip(&single.points) {
        report.invariant(
            format!(
                "batched I/O completes no fewer PoPs than batch 1 at {:.0}% loss",
                b.loss * 100.0
            ),
            b.success_rate() >= s.success_rate(),
        );
    }
    // The wire stack earns its keep when loss is survivable.
    if let Some(p) = batched.points.iter().find(|p| p.loss >= 0.10) {
        report.headline = format!(
            "at {:.0}% injected datagram loss, {:.1}% of PoP runs completed (via {} retries)",
            p.loss * 100.0,
            p.success_rate() * 100.0,
            p.retries
        );
    }
    let labelled = |p: &RatePoint| (format!("loss {}", p.loss), p.net);
    report.tables = vec![
        points_table("fig11_wire", &cfg, &batched),
        points_table("fig11_wire_batch1", &single_cfg, &single),
        net_table(
            "fig11_wire_net",
            batched.points.iter().map(labelled).collect(),
        ),
    ];
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_completes_under_injected_loss_via_retry() {
        // The acceptance bar: ≥10% datagram loss, PoP still completes.
        let config = WireConfig {
            nodes: 8,
            warm_slots: 16,
            pops_per_rate: 3,
            gamma: 2,
            seed: 9,
            loss_rates: vec![0.15],
            batch: EndpointConfig::default().batch,
        };
        let data = run(&config);
        let point = &data.points[0];
        assert_eq!(
            point.successes, point.attempts,
            "PoP must recover via retry"
        );
        assert!(point.retries > 0, "recovery must actually retry");
        assert!(point.injected_drops > 0, "faults must actually fire");
    }

    #[test]
    fn lossless_sweep_point_needs_no_retries() {
        let config = WireConfig {
            nodes: 6,
            warm_slots: 12,
            pops_per_rate: 2,
            gamma: 2,
            seed: 5,
            loss_rates: vec![0.0],
            batch: 1,
        };
        let data = run(&config);
        let point = &data.points[0];
        assert_eq!(point.successes, point.attempts);
        assert_eq!(point.injected_drops, 0);
        assert_eq!(point.timeouts, 0);
    }
}
