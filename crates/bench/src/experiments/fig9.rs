//! Fig. 9 — consensus failure probability versus elapsed slots.
//!
//! For γ ∈ {10, 15, 20, 24} and several malicious-node counts, the network
//! runs with every node generating one block per {1, 2} slots; at sampled
//! slots, probe PoPs verify blocks generated in the first γ slots. The
//! failure probability is the fraction of probes (across seeds) that do not
//! reach `γ + 1` distinct vouching nodes. Consensus "is reached" at the
//! first sampled slot where the probability hits zero.

use crate::experiments::scale::Scale;
use crate::report::{Cell, Report, Table};
use crate::row;
use tldag_core::attack::Behavior;
use tldag_core::block::BlockId;
use tldag_core::config::ProtocolConfig;
use tldag_core::dag::LogicalDag;
use tldag_core::network::TldagNetwork;
use tldag_core::workload::VerificationWorkload;
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::fault::{FaultPlan, MaliciousPlacement};
use tldag_sim::topology::{Topology, TopologyConfig};
use tldag_sim::{Bits, DetRng, NodeId};

/// One Fig. 9 panel setting.
#[derive(Clone, Debug)]
pub struct Fig9Panel {
    /// Consensus margin γ.
    pub gamma: usize,
    /// Malicious-node counts to sweep (one series each).
    pub malicious_counts: Vec<usize>,
    /// Sampled slots: `(start, end, step)`.
    pub slot_range: (u64, u64, u64),
}

/// Parameters of the Fig. 9 sweep.
#[derive(Clone, Debug)]
pub struct Fig9Config {
    /// Number of nodes.
    pub nodes: usize,
    /// Panels to produce.
    pub panels: Vec<Fig9Panel>,
    /// Probe PoPs per sampled slot per seed.
    pub probes_per_sample: usize,
    /// Independent seeds.
    pub seeds: u64,
    /// Body size in MB (the paper uses 0.5; failure probability does not
    /// depend on it, only sizes do).
    pub body_mb: f64,
    /// Topology parameters.
    pub topology: TopologyConfig,
}

impl Fig9Config {
    /// Builds the configuration for a [`Scale`]. Paper panels:
    /// γ=10 with {0,5,8,10} malicious, γ=15 with {0,5,10,15},
    /// γ=20 with {0,5,18,20}, γ=24 with {0,5,10,20,22,24}.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Fig9Config {
                nodes: 50,
                panels: vec![
                    Fig9Panel {
                        gamma: 10,
                        malicious_counts: vec![0, 5, 8, 10],
                        slot_range: (10, 22, 2),
                    },
                    Fig9Panel {
                        gamma: 15,
                        malicious_counts: vec![0, 5, 10, 15],
                        slot_range: (15, 35, 2),
                    },
                    Fig9Panel {
                        gamma: 20,
                        malicious_counts: vec![0, 5, 18, 20],
                        slot_range: (20, 46, 2),
                    },
                    Fig9Panel {
                        gamma: 24,
                        malicious_counts: vec![0, 5, 10, 20, 22, 24],
                        slot_range: (30, 140, 10),
                    },
                ],
                probes_per_sample: 4,
                seeds: 12,
                body_mb: 0.5,
                topology: TopologyConfig::paper_default(),
            },
            Scale::Quick => Fig9Config {
                nodes: 16,
                panels: vec![
                    Fig9Panel {
                        gamma: 4,
                        malicious_counts: vec![0, 2, 4],
                        slot_range: (4, 20, 2),
                    },
                    Fig9Panel {
                        gamma: 6,
                        malicious_counts: vec![0, 3],
                        slot_range: (6, 26, 4),
                    },
                ],
                probes_per_sample: 3,
                seeds: 4,
                body_mb: 0.1,
                topology: TopologyConfig {
                    nodes: 16,
                    side_m: 300.0,
                    ..TopologyConfig::paper_default()
                },
            },
        }
    }
}

/// Result of one panel: a `slot` column and one failure-probability column
/// per malicious count, named `"{m} malicious"`.
#[derive(Clone, Debug)]
pub struct Fig9PanelData {
    /// Consensus margin γ.
    pub gamma: usize,
    /// One series per malicious count; y ∈ [0, 1].
    pub series: Table,
    /// Slots-to-consensus per malicious count (first sampled slot where every
    /// probe succeeded), `None` if never within the range.
    pub slots_to_consensus: Vec<(usize, Option<u64>)>,
}

/// Runs all panels.
pub fn run(cfg: &Fig9Config) -> Vec<Fig9PanelData> {
    cfg.panels
        .iter()
        .enumerate()
        .map(|(i, panel)| run_panel(cfg, panel, (b'a' + i as u8) as char))
        .collect()
}

fn run_panel(cfg: &Fig9Config, panel: &Fig9Panel, letter: char) -> Fig9PanelData {
    let (start, end, step) = panel.slot_range;
    let sample_slots: Vec<u64> = (start..=end).step_by(step as usize).collect();
    let mut series = Vec::new();
    let mut slots_to_consensus = Vec::new();

    for &malicious in &panel.malicious_counts {
        let label = format!("{malicious} malicious");
        // failures[i], attempts[i] accumulated across seeds per sample slot.
        let mut failures = vec![0u64; sample_slots.len()];
        let mut attempts = vec![0u64; sample_slots.len()];

        for seed in 0..cfg.seeds {
            let mut rng = DetRng::seed_from(0x9e37 + seed * 1000 + panel.gamma as u64);
            let topology = Topology::random_connected(&cfg.topology, &mut rng);
            let schedule = GenerationSchedule::random_periods(cfg.nodes, &[1, 2], &mut rng.fork(1));
            let proto = ProtocolConfig::paper_default()
                .with_body_bits(Bits::from_megabytes_f(cfg.body_mb).bits())
                .with_gamma(panel.gamma);
            let mut net = TldagNetwork::new(proto, topology.clone(), schedule, seed);
            // Probes drive the measurement; the regular verification
            // workload stays off so runtime scales with the sweep.
            net.set_verification_workload(VerificationWorkload::Disabled);
            let plan = FaultPlan::select(
                &topology,
                malicious,
                MaliciousPlacement::Uniform,
                &mut rng.fork(2),
            );
            net.apply_fault_plan(&plan, Behavior::Unresponsive);
            let mut probe_rng = rng.fork(3);

            for (i, &sample_slot) in sample_slots.iter().enumerate() {
                while net.slot() < sample_slot {
                    net.step();
                }
                let dag = LogicalDag::build(net.nodes());
                for _ in 0..cfg.probes_per_sample {
                    let Some((validator, target)) =
                        pick_probe(&net, &dag, panel.gamma as u64, &plan, &mut probe_rng)
                    else {
                        continue;
                    };
                    attempts[i] += 1;
                    let report = net.run_pop(validator, target, false);
                    if !report.is_success() {
                        failures[i] += 1;
                    }
                }
            }
        }

        let probability = |i: usize| match attempts[i] {
            0 => 1.0,
            n => failures[i] as f64 / n as f64,
        };
        series.push((label, (0..sample_slots.len()).map(probability).collect()));
        let reached = sample_slots
            .iter()
            .enumerate()
            .find(|(i, _)| attempts[*i] > 0 && failures[*i] == 0)
            .map(|(_, &slot)| slot);
        slots_to_consensus.push((malicious, reached));
    }

    Fig9PanelData {
        gamma: panel.gamma,
        series: Table::series(
            format!("fig9{letter}_failure_gamma{}", panel.gamma),
            format!(
                "Fig. 9({letter}): consensus failure probability, γ = {}",
                panel.gamma
            ),
            &sample_slots,
            &series,
        ),
        slots_to_consensus,
    }
}

/// Picks an honest validator and an honest-owned block from the first γ
/// slots (the paper's probe workload). Targets must have at least one child
/// block at another node: a digest that every neighbor replaced before
/// generating ("orphaned" block) can never be verified no matter how long
/// the DAG grows, and Fig. 9 measures DAG-growth delay, not orphanhood (the
/// paper's curves reach exactly zero). The orphan rate itself is reported by
/// the `ablation_bounds` experiment.
fn pick_probe(
    net: &TldagNetwork,
    dag: &LogicalDag,
    era_slots: u64,
    plan: &FaultPlan,
    rng: &mut DetRng,
) -> Option<(NodeId, BlockId)> {
    let honest = plan.honest_ids();
    let validator = *rng.choose(&honest)?;
    let mut candidates: Vec<BlockId> = Vec::new();
    for &owner in &honest {
        if owner == validator {
            continue;
        }
        for block in net.node(owner).store().iter() {
            if block.header.time >= era_slots {
                continue;
            }
            let digest = block.header_digest();
            let has_foreign_child = dag
                .children_of(&digest)
                .iter()
                .any(|c| dag.block_id(c).is_some_and(|id| id.owner != owner));
            if has_foreign_child {
                candidates.push(block.id);
            }
        }
    }
    rng.choose(&candidates).map(|&t| (validator, t))
}

/// Fig. 9 at `scale`: one failure-probability panel per γ, then the first
/// sampled slot at which every probe succeeded (blank: not within range).
pub fn report(scale: Scale) -> Report {
    let cfg = Fig9Config::at_scale(scale);
    let panels = run(&cfg);
    let mut reached = Table::new(
        "fig9_slots_to_consensus",
        "slots to consensus (first sampled slot with zero failures)",
    );
    for panel in &panels {
        for &(malicious, slot) in &panel.slots_to_consensus {
            reached.push(row![
                "gamma" => panel.gamma,
                "malicious" => malicious,
                "slot" => slot.map_or(Cell::Float(f64::NAN), Cell::Int),
            ]);
        }
    }
    let mut report = Report::new("fig9_failure", scale)
        .param("nodes", cfg.nodes)
        .param("seeds", cfg.seeds)
        .param("probes_per_sample", cfg.probes_per_sample);
    report.tables = panels.into_iter().map(|p| p.series).collect();
    report.tables.push(reached);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig9Config {
        Fig9Config {
            nodes: 10,
            panels: vec![Fig9Panel {
                gamma: 3,
                malicious_counts: vec![0, 2],
                slot_range: (4, 16, 4),
            }],
            probes_per_sample: 2,
            seeds: 2,
            body_mb: 0.05,
            topology: TopologyConfig::small(10),
        }
    }

    #[test]
    fn failure_probability_decreases_with_slots() {
        let data = run(&tiny());
        let points = data[0].series.column("0 malicious");
        let first = points[0];
        let last = points[points.len() - 1];
        assert!(
            last <= first,
            "failure probability should not grow: {first} -> {last}"
        );
        // With zero malicious nodes and enough DAG, probes eventually succeed.
        assert!(last < 0.5, "late failure probability {last} too high");
    }

    #[test]
    fn probabilities_are_valid() {
        let data = run(&tiny());
        for panel in &data {
            for name in &panel.series.columns[1..] {
                for p in panel.series.column(name) {
                    assert!((0.0..=1.0).contains(&p));
                }
            }
        }
    }

    #[test]
    fn malicious_nodes_do_not_reduce_failures() {
        let data = run(&tiny());
        let clean_sum: f64 = data[0].series.column("0 malicious").iter().sum();
        let dirty_sum: f64 = data[0].series.column("2 malicious").iter().sum();
        assert!(dirty_sum >= clean_sum - 0.5, "adversaries should not help");
    }
}
