//! Fig. 7 — storage overhead.
//!
//! Panels (a)–(c): average per-node storage (MB, log scale in the paper)
//! versus elapsed slots for PBFT, IOTA, and 2LDAG at body sizes
//! `C ∈ {0.1, 0.5, 1}` MB, all nodes generating one block per slot.
//! Panel (d): the CDF of per-node storage at 200 slots for `C = 0.5` MB.

use crate::experiments::scale::Scale;
use crate::report::{Report, Table};
use crate::row;
use tldag_baselines::iota::IotaNetwork;
use tldag_baselines::ledger::LedgerSim;
use tldag_baselines::pbft::PbftNetwork;
use tldag_baselines::BaselineConfig;
use tldag_core::config::ProtocolConfig;
use tldag_core::network::TldagNetwork;
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::stats::Cdf;
use tldag_sim::topology::{Topology, TopologyConfig};
use tldag_sim::{Bits, DetRng};

/// Parameters of the Fig. 7 sweep.
#[derive(Clone, Debug)]
pub(crate) struct Fig7Config {
    /// Number of nodes.
    pub(crate) nodes: usize,
    /// Horizon in slots.
    pub(crate) slots: u64,
    /// Sampling interval.
    pub(crate) sample_every: u64,
    /// Body sizes in MB, one panel each.
    pub(crate) bodies_mb: Vec<f64>,
    /// Body size used for the CDF panel.
    pub(crate) cdf_body_mb: f64,
    /// Consensus margin for the 2LDAG runs.
    pub(crate) gamma: usize,
    /// Topology parameters.
    pub(crate) topology: TopologyConfig,
    /// Root seed.
    pub(crate) seed: u64,
}

impl Fig7Config {
    /// Builds the configuration for a [`Scale`].
    pub(crate) fn at_scale(scale: Scale) -> Self {
        Fig7Config {
            nodes: scale.nodes(),
            slots: scale.slots(),
            sample_every: scale.sample_every(),
            bodies_mb: match scale {
                Scale::Paper => vec![0.1, 0.5, 1.0],
                Scale::Quick => vec![0.1, 0.5],
            },
            cdf_body_mb: 0.5,
            gamma: match scale {
                Scale::Paper => 16,
                Scale::Quick => 4,
            },
            topology: TopologyConfig {
                nodes: scale.nodes(),
                ..TopologyConfig::paper_default()
            },
            seed: 7,
        }
    }
}

/// One storage-vs-slots panel.
#[derive(Clone, Debug)]
pub(crate) struct Fig7Panel {
    /// Columns `slot`, `PBFT`, `IOTA`, `2LDAG`; y = mean node storage (MB).
    pub(crate) series: Table,
}

/// The full Fig. 7 dataset.
#[derive(Clone, Debug)]
pub(crate) struct Fig7Data {
    /// Panels (a)–(c).
    pub(crate) panels: Vec<Fig7Panel>,
    /// Panel (d): per-node 2LDAG storage (MB) at the final slot.
    pub(crate) cdf: Cdf,
    /// Body size of the CDF panel.
    pub(crate) cdf_body_mb: f64,
}

/// Runs the sweep.
pub(crate) fn run(cfg: &Fig7Config) -> Fig7Data {
    let mut rng = DetRng::seed_from(cfg.seed);
    let topology = Topology::random_connected(&cfg.topology, &mut rng);
    let mut panels = Vec::new();
    let mut cdf_samples: Vec<f64> = Vec::new();

    for (i, &c_mb) in cfg.bodies_mb.iter().enumerate() {
        let body_bits = Bits::from_megabytes_f(c_mb).bits();
        let schedule = GenerationSchedule::uniform(cfg.nodes);

        let proto = ProtocolConfig::paper_default()
            .with_body_bits(body_bits)
            .with_gamma(cfg.gamma);
        let mut tldag = TldagNetwork::new(proto, topology.clone(), schedule.clone(), cfg.seed);
        let base = BaselineConfig::paper_default().with_body_bits(body_bits);
        let mut pbft = PbftNetwork::new(base, topology.clone(), cfg.seed);
        let mut iota = IotaNetwork::new(base, topology.clone(), cfg.seed);

        let letter = (b'a' + i as u8) as char;
        let mut series = Table::new(
            format!("fig7{letter}_storage_c{c_mb}"),
            format!("Fig. 7({letter}): average node storage (MB), C = {c_mb} MB"),
        );
        for slot in 1..=cfg.slots {
            LedgerSim::step(&mut tldag);
            LedgerSim::step(&mut pbft);
            LedgerSim::step(&mut iota);
            if slot % cfg.sample_every == 0 {
                series.push(row![
                    "slot" => slot,
                    "PBFT" => pbft.mean_storage_mb(),
                    "IOTA" => iota.mean_storage_mb(),
                    "2LDAG" => tldag.mean_storage_mb(),
                ]);
            }
        }
        if (c_mb - cfg.cdf_body_mb).abs() < 1e-9 {
            cdf_samples = LedgerSim::storage_bits_per_node(&tldag)
                .iter()
                .map(|b| b.as_megabytes())
                .collect();
        }
        panels.push(Fig7Panel { series });
    }

    Fig7Data {
        panels,
        cdf: Cdf::from_samples(cdf_samples),
        cdf_body_mb: cfg.cdf_body_mb,
    }
}

/// Fig. 7 at `scale`: panels (a)–(c), then the CDF of panel (d).
pub(crate) fn report(scale: Scale) -> Report {
    let cfg = Fig7Config::at_scale(scale);
    let data = run(&cfg);
    let mut cdf = Table::new(
        "fig7d_storage_cdf",
        format!(
            "Fig. 7(d): CDF of per-node 2LDAG storage at final slot, C = {} MB",
            data.cdf_body_mb
        ),
    );
    for (x, f) in data.cdf.points() {
        cdf.push(row!["storage_mb" => x, "cdf" => f]);
    }
    let mut report = Report::new("fig7_storage", scale)
        .param("nodes", cfg.nodes)
        .param("slots", cfg.slots)
        .param("gamma", cfg.gamma);
    report.tables = data.panels.into_iter().map(|p| p.series).collect();
    report.tables.push(cdf);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig7Config {
        Fig7Config {
            nodes: 8,
            slots: 12,
            sample_every: 4,
            bodies_mb: vec![0.1],
            cdf_body_mb: 0.1,
            gamma: 2,
            topology: TopologyConfig::small(8),
            seed: 3,
        }
    }

    #[test]
    fn storage_orders_match_paper_shape() {
        let data = run(&tiny());
        assert_eq!(data.panels.len(), 1);
        let series = &data.panels[0].series;
        let last = |name: &str| *series.column(name).last().unwrap();
        let (pbft, iota, tldag) = (last("PBFT"), last("IOTA"), last("2LDAG"));
        // Replicated ledgers store ~|V|× more than 2LDAG.
        assert!(pbft > tldag * 4.0, "PBFT {pbft} vs 2LDAG {tldag}");
        assert!(iota > tldag * 4.0, "IOTA {iota} vs 2LDAG {tldag}");
    }

    #[test]
    fn storage_grows_linearly_in_slots() {
        let data = run(&tiny());
        let series = &data.panels[0].series;
        let (slots, values) = (series.column("slot"), series.column("2LDAG"));
        assert!(values.len() >= 3);
        let per_slot_early = values[0] / slots[0];
        let per_slot_late = values[values.len() - 1] / slots[slots.len() - 1];
        // Per-slot growth is nearly constant (headers + H_i add slack).
        assert!((per_slot_late / per_slot_early - 1.0).abs() < 0.25);
    }

    #[test]
    fn cdf_is_tight_around_mean() {
        let data = run(&tiny());
        let (lo, hi) = data.cdf.range().unwrap();
        // The paper observes 199–201 MB at 200 slots: neighbor-count only
        // perturbs header bytes, so spread ≪ mean.
        assert!(hi - lo < 0.2 * hi, "spread [{lo}, {hi}] too wide");
    }
}
