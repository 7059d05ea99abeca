//! Fig. 8 — communication overhead.
//!
//! Panel (a): overall average per-node transmitted data (Mb) versus slots for
//! PBFT, IOTA, and 2LDAG with 33 % and 49 % of nodes malicious. Panel (b):
//! the DAG-construction component (digest broadcasts only). Panel (c): the
//! consensus component (PoP header traffic). Panel (d): the CDF of per-node
//! transmitted data at the final slot.
//!
//! The paper's definition — "the total amount of data a node transmits" — is
//! matched by using tx-side accounting; the target-block body retrieval is
//! application traffic and excluded (see DESIGN.md §3.3).

use crate::experiments::scale::Scale;
use crate::report::{Report, Table};
use crate::row;
use tldag_baselines::iota::IotaNetwork;
use tldag_baselines::pbft::PbftNetwork;
use tldag_baselines::BaselineConfig;
use tldag_core::attack::Behavior;
use tldag_core::config::ProtocolConfig;
use tldag_core::network::TldagNetwork;
use tldag_core::workload::VerificationWorkload;
use tldag_sim::bus::TrafficClass;
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::fault::{FaultPlan, MaliciousPlacement};
use tldag_sim::stats::Cdf;
use tldag_sim::topology::{Topology, TopologyConfig};
use tldag_sim::{Bits, DetRng};

/// One 2LDAG adversary setting.
#[derive(Clone, Debug)]
pub struct GammaVariant {
    /// Series label, e.g. `"2LDAG-33%"`.
    pub label: String,
    /// Consensus margin γ.
    pub gamma: usize,
    /// Number of malicious (unresponsive) nodes.
    pub malicious: usize,
}

/// Parameters of the Fig. 8 sweep.
#[derive(Clone, Debug)]
pub struct Fig8Config {
    /// Number of nodes.
    pub nodes: usize,
    /// Horizon in slots.
    pub slots: u64,
    /// Sampling interval.
    pub sample_every: u64,
    /// Body size in MB (the paper uses 0.5).
    pub body_mb: f64,
    /// The 2LDAG adversary settings (paper: 33 % and 49 %).
    pub variants: Vec<GammaVariant>,
    /// Topology parameters.
    pub topology: TopologyConfig,
    /// Root seed.
    pub seed: u64,
}

impl Fig8Config {
    /// Builds the configuration for a [`Scale`].
    pub fn at_scale(scale: Scale) -> Self {
        let nodes = scale.nodes();
        // Floor keeps the 49 % setting feasible at any scale: consensus
        // needs gamma + 1 distinct path nodes among the nodes - gamma honest
        // ones, so gamma <= (nodes - 1) / 2.
        let pct = |f: f64| ((nodes as f64 * f).floor() as usize).min((nodes - 1) / 2);
        Fig8Config {
            nodes,
            slots: scale.slots(),
            sample_every: scale.sample_every(),
            body_mb: 0.5,
            variants: vec![
                GammaVariant {
                    label: "2LDAG-33%".into(),
                    gamma: pct(0.33),
                    malicious: pct(0.33),
                },
                GammaVariant {
                    label: "2LDAG-49%".into(),
                    gamma: pct(0.49),
                    malicious: pct(0.49),
                },
            ],
            topology: TopologyConfig {
                nodes,
                ..TopologyConfig::paper_default()
            },
            seed: 11,
        }
    }
}

/// The full Fig. 8 dataset. All series tables carry a `slot` column and
/// cumulative mean per-node transmitted megabits per system.
#[derive(Clone, Debug)]
pub struct Fig8Data {
    /// Panel (a): PBFT, IOTA, and each 2LDAG variant.
    pub overall: Table,
    /// Panel (b): digest traffic per 2LDAG variant.
    pub dag_construction: Table,
    /// Panel (c): PoP traffic per 2LDAG variant.
    pub consensus: Table,
    /// Panel (d): per-node transmitted Mb at the final slot, per variant.
    pub cdfs: Vec<(String, Cdf)>,
    /// PoP attempt/success counters per variant (diagnostic).
    pub pop_counters: Vec<(String, u64, u64)>,
}

/// Runs the sweep.
pub fn run(cfg: &Fig8Config) -> Fig8Data {
    let mut rng = DetRng::seed_from(cfg.seed);
    let topology = Topology::random_connected(&cfg.topology, &mut rng);
    let body_bits = Bits::from_megabytes_f(cfg.body_mb).bits();
    let schedule = GenerationSchedule::uniform(cfg.nodes);

    let slots: Vec<u64> = (1..=cfg.slots)
        .filter(|slot| slot % cfg.sample_every == 0)
        .collect();
    let mut dag_construction = Vec::new();
    let mut consensus = Vec::new();
    let mut cdfs = Vec::new();
    let mut pop_counters = Vec::new();

    // Baselines.
    let base = BaselineConfig::paper_default().with_body_bits(body_bits);
    let mut pbft = PbftNetwork::new(base, topology.clone(), cfg.seed);
    let mut iota = IotaNetwork::new(base, topology.clone(), cfg.seed);
    let (mut pbft_mb, mut iota_mb) = (vec![], vec![]);
    for slot in 1..=cfg.slots {
        pbft.step();
        iota.step();
        if slot % cfg.sample_every == 0 {
            pbft_mb.push(
                pbft.accounting()
                    .mean_node_tx(TrafficClass::Pbft)
                    .as_megabits(),
            );
            iota_mb.push(
                iota.accounting()
                    .mean_node_tx(TrafficClass::IotaGossip)
                    .as_megabits(),
            );
        }
    }
    let mut overall = vec![("PBFT".to_string(), pbft_mb), ("IOTA".to_string(), iota_mb)];

    // 2LDAG variants.
    for variant in &cfg.variants {
        let proto = ProtocolConfig::paper_default()
            .with_body_bits(body_bits)
            .with_gamma(variant.gamma);
        let mut net = TldagNetwork::new(proto, topology.clone(), schedule.clone(), cfg.seed);
        net.set_verification_workload(VerificationWorkload::RandomPast {
            min_age_slots: cfg.nodes as u64,
        });
        let plan = FaultPlan::select(
            &topology,
            variant.malicious,
            MaliciousPlacement::Uniform,
            &mut rng.fork(variant.gamma as u64),
        );
        net.apply_fault_plan(&plan, Behavior::Unresponsive);

        let (mut both, mut dags, mut pops) = (vec![], vec![], vec![]);
        for slot in 1..=cfg.slots {
            net.step();
            if slot % cfg.sample_every == 0 {
                let acc = net.accounting();
                let dag = acc
                    .mean_node_tx(TrafficClass::DagConstruction)
                    .as_megabits();
                let pop = acc.mean_node_tx(TrafficClass::Consensus).as_megabits();
                both.push(dag + pop);
                dags.push(dag);
                pops.push(pop);
            }
        }
        overall.push((variant.label.clone(), both));
        dag_construction.push((variant.label.clone(), dags));
        consensus.push((variant.label.clone(), pops));
        let per_node: Vec<f64> = net
            .accounting()
            .per_node_tx(&[TrafficClass::DagConstruction, TrafficClass::Consensus])
            .iter()
            .map(|b| b.as_megabits())
            .collect();
        cdfs.push((variant.label.clone(), Cdf::from_samples(per_node)));
        let (attempts, successes) = net.pop_counters();
        pop_counters.push((variant.label.clone(), attempts, successes));
    }

    Fig8Data {
        overall: Table::series(
            "fig8a_comm_overall",
            "Fig. 8(a): overall mean node communication (Mb transmitted)",
            &slots,
            &overall,
        ),
        dag_construction: Table::series(
            "fig8b_comm_dag",
            "Fig. 8(b): DAG-construction component (Mb)",
            &slots,
            &dag_construction,
        ),
        consensus: Table::series(
            "fig8c_comm_consensus",
            "Fig. 8(c): consensus component (Mb)",
            &slots,
            &consensus,
        ),
        cdfs,
        pop_counters,
    }
}

/// Fig. 8 at `scale`: panels (a)–(c), the per-variant CDFs of panel (d),
/// and the PoP counters behind the consensus traffic.
pub fn report(scale: Scale) -> Report {
    let cfg = Fig8Config::at_scale(scale);
    let data = run(&cfg);
    let mut cdf = Table::new(
        "fig8d_comm_cdf",
        "Fig. 8(d): CDF of per-node transmitted Mb at final slot",
    );
    for (label, points) in &data.cdfs {
        for (x, f) in points.points() {
            cdf.push(row!["variant" => label.as_str(), "comm_mb" => x, "cdf" => f]);
        }
    }
    let mut pop = Table::new("fig8_pop", "PoP diagnostics");
    for (label, attempts, successes) in &data.pop_counters {
        pop.push(row![
            "variant" => label.as_str(),
            "pop_attempts" => *attempts,
            "pop_successes" => *successes,
            "success_rate" => *successes as f64 / (*attempts).max(1) as f64,
        ]);
    }
    let mut report = Report::new("fig8_comm", scale)
        .param("nodes", cfg.nodes)
        .param("slots", cfg.slots)
        .param("body_mb", cfg.body_mb);
    report.tables = vec![
        data.overall,
        data.dag_construction,
        data.consensus,
        cdf,
        pop,
    ];
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig8Config {
        Fig8Config {
            nodes: 10,
            slots: 24,
            sample_every: 6,
            body_mb: 0.1,
            variants: vec![
                GammaVariant {
                    label: "2LDAG-2".into(),
                    gamma: 2,
                    malicious: 2,
                },
                GammaVariant {
                    label: "2LDAG-3".into(),
                    gamma: 3,
                    malicious: 3,
                },
            ],
            topology: TopologyConfig::small(10),
            seed: 5,
        }
    }

    #[test]
    fn tldag_transmits_orders_less_than_baselines() {
        let cfg = tiny();
        let data = run(&cfg);
        let last = |set: &Table, name: &str| *set.column(name).last().unwrap();
        let pbft = last(&data.overall, "PBFT");
        let iota = last(&data.overall, "IOTA");
        let tldag = last(&data.overall, "2LDAG-2");
        assert!(pbft > tldag * 20.0, "PBFT {pbft} vs 2LDAG {tldag}");
        assert!(iota > tldag * 20.0, "IOTA {iota} vs 2LDAG {tldag}");
    }

    #[test]
    fn consensus_traffic_dwarfs_dag_construction() {
        // The paper: "the communication overhead of 2LDAG for consensus is
        // much higher than DAG construction" (digests are tiny).
        let cfg = tiny();
        let data = run(&cfg);
        let dag = *data.dag_construction.column("2LDAG-2").last().unwrap();
        let pop = *data.consensus.column("2LDAG-2").last().unwrap();
        // At tiny scale the trust cache quickly blankets the small target
        // era, so late PoPs are nearly free; consensus traffic still must be
        // the same order as digest traffic. The paper-scale run (fig8_comm)
        // shows the full separation.
        assert!(pop > dag * 0.3, "consensus {pop} vs DAG {dag}");
    }

    #[test]
    fn higher_gamma_costs_more_consensus_traffic() {
        let cfg = tiny();
        let data = run(&cfg);
        let lo = *data.consensus.column("2LDAG-2").last().unwrap();
        let hi = *data.consensus.column("2LDAG-3").last().unwrap();
        assert!(hi > lo, "γ=3 ({hi}) should out-talk γ=2 ({lo})");
    }

    #[test]
    fn cdfs_cover_all_nodes() {
        let cfg = tiny();
        let data = run(&cfg);
        assert_eq!(data.cdfs.len(), 2);
        for (label, cdf) in &data.cdfs {
            assert_eq!(cdf.len(), cfg.nodes, "{label}");
        }
    }
}
