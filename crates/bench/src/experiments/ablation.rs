//! Ablations: the design choices DESIGN.md calls out.
//!
//! * **A1 — WPS vs random next-hop** (`ablation_wps`): does the weighted
//!   selection of Algorithm 1 shorten proof paths and cut messages?
//! * **A2 — TPS on vs off** (`ablation_tps`): how much do cached headers save
//!   across repeated verifications of the same region?
//! * **A3 — bounds** (`ablation_bounds`): measured message/storage overhead
//!   against the Proposition 1–6 analytic bounds.

use crate::experiments::scale::Scale;
use crate::report::{Report, Table};
use crate::row;
use tldag_core::analysis;
use tldag_core::block::BlockId;
use tldag_core::config::{PathSelection, ProtocolConfig};
use tldag_core::network::TldagNetwork;
use tldag_core::workload::VerificationWorkload;
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::topology::{Topology, TopologyConfig};
use tldag_sim::{Bits, DetRng, NodeId};

/// Result of one path-selection strategy run.
#[derive(Clone, Debug)]
pub struct SelectionStats {
    /// Strategy label.
    pub label: String,
    /// PoP runs measured.
    pub runs: u64,
    /// Success count.
    pub successes: u64,
    /// Mean `REQ_CHILD` messages per successful run.
    pub mean_requests: f64,
    /// Mean path length per successful run.
    pub mean_path_len: f64,
    /// Mean rollbacks per run.
    pub mean_rollbacks: f64,
}

/// Shared scenario parameters for A1/A2.
#[derive(Clone, Copy, Debug)]
pub struct AblationConfig {
    /// Nodes in the network.
    pub nodes: usize,
    /// Warm-up slots before measuring.
    pub warmup_slots: u64,
    /// PoP probes measured.
    pub probes: usize,
    /// Consensus margin.
    pub gamma: usize,
    /// Seed.
    pub seed: u64,
}

impl AblationConfig {
    /// Defaults sized for the paper topology.
    pub fn paper() -> Self {
        AblationConfig {
            nodes: 50,
            warmup_slots: 120,
            probes: 60,
            gamma: 12,
            seed: 17,
        }
    }

    /// Reduced run.
    pub fn quick() -> Self {
        AblationConfig {
            nodes: 14,
            warmup_slots: 40,
            probes: 20,
            gamma: 4,
            seed: 17,
        }
    }

    fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper(),
            Scale::Quick => Self::quick(),
        }
    }

    fn report(&self, name: &'static str, scale: Scale) -> Report {
        Report::new(name, scale)
            .param("nodes", self.nodes)
            .param("gamma", self.gamma)
            .param("probes", self.probes)
    }
}

fn build_network(cfg: &AblationConfig, selection: PathSelection, enable_tps: bool) -> TldagNetwork {
    let mut rng = DetRng::seed_from(cfg.seed);
    let topology = Topology::random_connected(
        &TopologyConfig {
            nodes: cfg.nodes,
            side_m: if cfg.nodes < 20 { 300.0 } else { 1000.0 },
            ..TopologyConfig::paper_default()
        },
        &mut rng,
    );
    let mut proto = ProtocolConfig::paper_default()
        .with_body_bits(Bits::from_bytes(512).bits())
        .with_gamma(cfg.gamma);
    proto.path_selection = selection;
    proto.enable_tps = enable_tps;
    let schedule = GenerationSchedule::uniform(cfg.nodes);
    let mut net = TldagNetwork::new(proto, topology, schedule, cfg.seed);
    net.set_verification_workload(VerificationWorkload::Disabled);
    net
}

fn probe_targets(net: &TldagNetwork, count: usize, rng: &mut DetRng) -> Vec<(NodeId, BlockId)> {
    let n = net.topology().len() as u32;
    let horizon = net.slot().saturating_sub(n as u64);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let validator = NodeId(rng.next_below(u64::from(n)) as u32);
        let owner = loop {
            let o = NodeId(rng.next_below(u64::from(n)) as u32);
            if o != validator {
                break o;
            }
        };
        let max_seq = net
            .node(owner)
            .store()
            .iter()
            .filter(|b| b.header.time < horizon)
            .count() as u32;
        if max_seq == 0 {
            continue;
        }
        let seq = rng.next_below(u64::from(max_seq)) as u32;
        out.push((validator, BlockId::new(owner, seq)));
    }
    out
}

/// A1: WPS vs uniform-random next-hop selection.
pub fn run_wps_ablation(cfg: &AblationConfig) -> Vec<SelectionStats> {
    [
        ("WPS (Algorithm 1)", PathSelection::Weighted),
        ("random next-hop", PathSelection::Random),
    ]
    .into_iter()
    .map(|(label, selection)| {
        let mut net = build_network(cfg, selection, true);
        for _ in 0..cfg.warmup_slots {
            net.step();
        }
        let mut rng = DetRng::seed_from(cfg.seed ^ 0xabcd);
        let targets = probe_targets(&net, cfg.probes, &mut rng);
        let mut stats = SelectionStats {
            label: label.to_string(),
            runs: 0,
            successes: 0,
            mean_requests: 0.0,
            mean_path_len: 0.0,
            mean_rollbacks: 0.0,
        };
        let mut req_sum = 0u64;
        let mut len_sum = 0u64;
        let mut rb_sum = 0u64;
        for (validator, target) in targets {
            let report = net.run_pop(validator, target, false);
            stats.runs += 1;
            if report.is_success() {
                stats.successes += 1;
                req_sum += report.metrics.req_child_sent;
                len_sum += report.path.len() as u64;
            }
            rb_sum += report.metrics.rollbacks;
        }
        if stats.successes > 0 {
            stats.mean_requests = req_sum as f64 / stats.successes as f64;
            stats.mean_path_len = len_sum as f64 / stats.successes as f64;
        }
        if stats.runs > 0 {
            stats.mean_rollbacks = rb_sum as f64 / stats.runs as f64;
        }
        stats
    })
    .collect()
}

/// Result of the TPS ablation: message counts for repeated verification.
#[derive(Clone, Debug)]
pub struct TpsStats {
    /// "TPS enabled" / "TPS disabled".
    pub label: String,
    /// Requests in the first verification (cold cache).
    pub first_run_requests: u64,
    /// Mean requests across the repeat verifications.
    pub mean_repeat_requests: f64,
    /// Mean TPS extensions across repeats.
    pub mean_tps_extensions: f64,
}

/// A2: repeated verification of blocks in the same DAG region, with and
/// without the trust cache.
pub fn run_tps_ablation(cfg: &AblationConfig) -> Vec<TpsStats> {
    [true, false]
        .into_iter()
        .map(|enable_tps| {
            let mut net = build_network(cfg, PathSelection::Weighted, enable_tps);
            for _ in 0..cfg.warmup_slots {
                net.step();
            }
            // One validator repeatedly audits blocks of the same owner; the
            // verified headers overlap heavily, which is TPS's best case.
            let validator = NodeId(0);
            let owner = NodeId(1);
            let repeats = cfg.probes.min(net.node(owner).store().len() / 2).max(2);
            let mut first_run_requests = 0;
            let mut repeat_req_sum = 0u64;
            let mut tps_sum = 0u64;
            for (i, seq) in (0..repeats as u32).enumerate() {
                let report = net.run_pop(validator, BlockId::new(owner, seq), true);
                if i == 0 {
                    first_run_requests = report.metrics.req_child_sent;
                } else {
                    repeat_req_sum += report.metrics.req_child_sent;
                    tps_sum += report.metrics.tps_extensions;
                }
            }
            let denom = (repeats - 1).max(1) as f64;
            TpsStats {
                label: if enable_tps {
                    "TPS enabled".into()
                } else {
                    "TPS disabled".into()
                },
                first_run_requests,
                mean_repeat_requests: repeat_req_sum as f64 / denom,
                mean_tps_extensions: tps_sum as f64 / denom,
            }
        })
        .collect()
}

/// Result of the multi-hop accounting ablation (A4, the paper's Sec. VII
/// future-work quantification).
#[derive(Clone, Debug)]
pub struct MultihopStats {
    /// "endpoint" / "multi-hop".
    pub label: String,
    /// Mean per-node transmitted consensus traffic, megabits.
    pub mean_node_consensus_mb: f64,
    /// Network-wide consensus traffic, megabits.
    pub network_consensus_mb: f64,
    /// PoP success rate.
    pub success_rate: f64,
}

/// A4: endpoint-only vs shortest-physical-path accounting of PoP traffic.
/// The gap is the relay burden that the paper's proposed validator-to-
/// verifier routing optimisation would address.
pub fn run_multihop_ablation(cfg: &AblationConfig) -> Vec<MultihopStats> {
    [false, true]
        .into_iter()
        .map(|multihop| {
            let mut rng = DetRng::seed_from(cfg.seed);
            let topology = Topology::random_connected(
                &TopologyConfig {
                    nodes: cfg.nodes,
                    side_m: if cfg.nodes < 20 { 300.0 } else { 1000.0 },
                    ..TopologyConfig::paper_default()
                },
                &mut rng,
            );
            let mut proto = ProtocolConfig::paper_default()
                .with_body_bits(Bits::from_bytes(512).bits())
                .with_gamma(cfg.gamma);
            proto.multihop_accounting = multihop;
            let schedule = GenerationSchedule::uniform(cfg.nodes);
            let mut net = TldagNetwork::new(proto, topology, schedule, cfg.seed);
            net.set_verification_workload(tldag_core::workload::VerificationWorkload::RandomPast {
                min_age_slots: cfg.nodes as u64,
            });
            net.run_slots(cfg.warmup_slots + cfg.nodes as u64);
            let (attempts, successes) = net.pop_counters();
            let acc = net.accounting();
            MultihopStats {
                label: if multihop {
                    "multi-hop".into()
                } else {
                    "endpoint".into()
                },
                mean_node_consensus_mb: acc
                    .mean_node_tx(tldag_sim::bus::TrafficClass::Consensus)
                    .as_megabits(),
                network_consensus_mb: acc
                    .network_tx(tldag_sim::bus::TrafficClass::Consensus)
                    .as_megabits(),
                success_rate: if attempts == 0 {
                    0.0
                } else {
                    successes as f64 / attempts as f64
                },
            }
        })
        .collect()
}

/// One row of the bounds report (A3).
#[derive(Clone, Debug)]
pub struct BoundRow {
    /// Which proposition.
    pub proposition: String,
    /// Measured value.
    pub measured: f64,
    /// Analytic bound.
    pub bound: f64,
    /// Whether the bound holds.
    pub holds: bool,
}

/// A3: measured overhead vs Propositions 1–4 on an honest run.
pub fn run_bounds_check(cfg: &AblationConfig) -> Vec<BoundRow> {
    let mut net = build_network(cfg, PathSelection::Weighted, true);
    let schedule = GenerationSchedule::uniform(cfg.nodes);
    for _ in 0..cfg.warmup_slots {
        net.step();
    }
    let t = net.slot() - 1;
    let mut rows = Vec::new();

    // Prop. 1: total blocks.
    let measured_blocks = net.total_blocks() as f64;
    let predicted = analysis::prop1_total_blocks(&schedule, t) as f64;
    rows.push(BoundRow {
        proposition: "P1 total blocks (exact)".into(),
        measured: measured_blocks,
        bound: predicted,
        holds: (measured_blocks - predicted).abs() < f64::EPSILON,
    });

    // Prop. 2/3: storage at node 0 (probe PoPs populate H_0 first).
    let mut rng = DetRng::seed_from(cfg.seed ^ 0x77);
    for (validator, target) in probe_targets(&net, cfg.probes, &mut rng) {
        net.run_pop(validator, target, true);
        let _ = validator;
        let _ = target;
    }
    // Check the *heaviest* node against its per-node bounds, so the measured
    // value reflects real cache growth rather than an idle node.
    let cfg_proto = *net.config();
    let ids: Vec<NodeId> = net.topology().node_ids().collect();
    let heaviest_cache = ids
        .iter()
        .max_by_key(|&&id| net.node(id).trust_cache().logical_bits(&cfg_proto))
        .copied()
        .expect("network is non-empty");
    let h_bits = net
        .node(heaviest_cache)
        .trust_cache()
        .logical_bits(&cfg_proto);
    let h_bound =
        analysis::prop2_trust_cache_bound(&cfg_proto, &schedule, heaviest_cache, t, cfg.nodes);
    rows.push(BoundRow {
        proposition: "P2 trust-cache bits (max node)".into(),
        measured: h_bits.bits() as f64,
        bound: h_bound.bits() as f64,
        holds: h_bits <= h_bound,
    });
    let heaviest_store = ids
        .iter()
        .max_by_key(|&&id| net.node(id).storage_bits(&cfg_proto))
        .copied()
        .expect("network is non-empty");
    let s_bits = net.node(heaviest_store).storage_bits(&cfg_proto);
    let s_bound =
        analysis::prop3_storage_bound(&cfg_proto, &schedule, heaviest_store, t, cfg.nodes);
    rows.push(BoundRow {
        proposition: "P3 node storage bits (max node)".into(),
        measured: s_bits.bits() as f64,
        bound: s_bound.bits() as f64,
        holds: s_bits <= s_bound,
    });

    // Prop. 4: message lower bound with a cold cache.
    let mut cold = build_network(cfg, PathSelection::Weighted, true);
    for _ in 0..cfg.warmup_slots {
        cold.step();
    }
    // Prop. 4 presumes every path extension costs a message exchange, so
    // qualifying runs are those where neither the trust cache nor the
    // validator's own store contributed a step.
    let mut rng = DetRng::seed_from(cfg.seed ^ 0x99);
    let mut min_messages = u64::MAX;
    for (validator, target) in probe_targets(&cold, cfg.probes, &mut rng) {
        let report = cold.run_pop(validator, target, false);
        let pure =
            report.metrics.tps_extensions == 0 && report.path.iter().all(|s| s.owner != validator);
        if report.is_success() && pure {
            min_messages = min_messages.min(report.metrics.total_messages());
        }
    }
    let lower = analysis::prop4_message_lower_bound(cfg.gamma);
    if min_messages != u64::MAX {
        rows.push(BoundRow {
            proposition: "P4 min messages (cold cache)".into(),
            measured: min_messages as f64,
            bound: lower as f64,
            holds: min_messages >= lower,
        });
    }

    rows
}

/// A1 at `scale`.
pub fn report_wps(scale: Scale) -> Report {
    let cfg = AblationConfig::at_scale(scale);
    let mut table = Table::new("ablation_wps", "A1: next-hop selection strategy");
    for s in run_wps_ablation(&cfg) {
        table.push(row![
            "strategy" => s.label,
            "successes" => s.successes,
            "runs" => s.runs,
            "mean_req_child" => s.mean_requests,
            "mean_path_len" => s.mean_path_len,
            "mean_rollbacks" => s.mean_rollbacks,
        ]);
    }
    let mut report = cfg.report("ablation_wps", scale);
    report.tables.push(table);
    report
}

/// A2 at `scale`.
pub fn report_tps(scale: Scale) -> Report {
    let cfg = AblationConfig::at_scale(scale);
    let mut table = Table::new("ablation_tps", "A2: trust-cache (TPS) contribution");
    for s in run_tps_ablation(&cfg) {
        table.push(row![
            "mode" => s.label,
            "first_run_req_child" => s.first_run_requests,
            "mean_repeat_req_child" => s.mean_repeat_requests,
            "mean_tps_extensions" => s.mean_tps_extensions,
        ]);
    }
    let mut report = cfg.report("ablation_tps", scale);
    report.tables.push(table);
    report
}

/// A4 at `scale`.
pub fn report_multihop(scale: Scale) -> Report {
    let cfg = AblationConfig::at_scale(scale);
    let stats = run_multihop_ablation(&cfg);
    let mut table = Table::new(
        "ablation_multihop",
        "A4: physical-layer relaying of PoP traffic",
    );
    for s in &stats {
        table.push(row![
            "accounting" => s.label.as_str(),
            "mean_node_consensus_mb" => s.mean_node_consensus_mb,
            "network_consensus_mb" => s.network_consensus_mb,
            "pop_success_rate" => s.success_rate,
        ]);
    }
    let mut report = cfg.report("ablation_multihop", scale);
    if stats[0].network_consensus_mb > 0.0 {
        report.headline = format!(
            "relay inflation factor {:.2}× — the headroom for the paper's proposed \
shortest-path validator→verifier routing",
            stats[1].network_consensus_mb / stats[0].network_consensus_mb
        );
    }
    report.tables.push(table);
    report
}

/// A3 at `scale`; every bound is an invariant of the run.
pub fn report_bounds(scale: Scale) -> Report {
    let cfg = AblationConfig::at_scale(scale);
    let mut report = cfg.report("ablation_bounds", scale);
    let mut table = Table::new(
        "ablation_bounds",
        "A3: measured vs analytic bounds (Propositions 1–4)",
    );
    for r in run_bounds_check(&cfg) {
        report.invariant(format!("bound holds: {}", r.proposition), r.holds);
        table.push(row![
            "proposition" => r.proposition,
            "measured" => r.measured,
            "bound" => r.bound,
            "holds" => r.holds,
        ]);
    }
    report.tables.push(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wps_beats_random_on_requests() {
        let stats = run_wps_ablation(&AblationConfig::quick());
        assert_eq!(stats.len(), 2);
        let wps = &stats[0];
        let random = &stats[1];
        assert!(wps.successes > 0);
        assert!(
            wps.mean_requests <= random.mean_requests * 1.2,
            "WPS {} vs random {}",
            wps.mean_requests,
            random.mean_requests
        );
    }

    #[test]
    fn tps_saves_messages_on_repeats() {
        let stats = run_tps_ablation(&AblationConfig::quick());
        let enabled = &stats[0];
        let disabled = &stats[1];
        assert!(
            enabled.mean_repeat_requests < disabled.mean_repeat_requests,
            "TPS {} vs no-TPS {}",
            enabled.mean_repeat_requests,
            disabled.mean_repeat_requests
        );
        assert!(enabled.mean_tps_extensions > 0.0);
        assert_eq!(disabled.mean_tps_extensions, 0.0);
    }

    #[test]
    fn multihop_accounting_adds_relay_cost() {
        let stats = run_multihop_ablation(&AblationConfig::quick());
        let endpoint = &stats[0];
        let multihop = &stats[1];
        assert!(endpoint.network_consensus_mb > 0.0);
        assert!(
            multihop.network_consensus_mb >= endpoint.network_consensus_mb,
            "multihop {} vs endpoint {}",
            multihop.network_consensus_mb,
            endpoint.network_consensus_mb
        );
        // Accounting mode must not change protocol outcomes.
        assert!((endpoint.success_rate - multihop.success_rate).abs() < 1e-9);
    }

    #[test]
    fn all_bounds_hold() {
        for row in run_bounds_check(&AblationConfig::quick()) {
            assert!(
                row.holds,
                "{} violated: {} vs {}",
                row.proposition, row.measured, row.bound
            );
        }
    }
}
