//! Table 1 — the abstract's headline claims, measured.
//!
//! *"2LDAG has storage and communication cost that is respectively two and
//! three orders of magnitude lower than traditional blockchain and also
//! blockchains that use a DAG structure. Moreover, 2LDAG achieves consensus
//! even when 49 % of nodes are malicious."*

use crate::experiments::scale::Scale;
use crate::report::{Report, Table};
use crate::row;
use tldag_baselines::iota::IotaNetwork;
use tldag_baselines::ledger::LedgerSim;
use tldag_baselines::pbft::PbftNetwork;
use tldag_baselines::BaselineConfig;
use tldag_core::attack::Behavior;
use tldag_core::config::ProtocolConfig;
use tldag_core::network::TldagNetwork;
use tldag_core::workload::VerificationWorkload;
use tldag_sim::bus::TrafficClass;
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::fault::{FaultPlan, MaliciousPlacement};
use tldag_sim::topology::{Topology, TopologyConfig};
use tldag_sim::{Bits, DetRng};

/// Per-system measurements at the end of the run.
#[derive(Clone, Debug)]
pub(crate) struct SystemRow {
    /// System name.
    pub(crate) name: String,
    /// Mean per-node storage in MB.
    pub(crate) storage_mb: f64,
    /// Mean per-node transmitted Mb (protocol traffic).
    pub(crate) comm_mb: f64,
}

/// The headline summary.
#[derive(Clone, Debug)]
pub(crate) struct SummaryData {
    /// Rows for 2LDAG, PBFT, IOTA.
    pub(crate) rows: Vec<SystemRow>,
    /// log10 of PBFT/2LDAG and IOTA/2LDAG storage ratios.
    pub(crate) storage_orders: (f64, f64),
    /// log10 of PBFT/2LDAG and IOTA/2LDAG communication ratios.
    pub(crate) comm_orders: (f64, f64),
    /// PoP success rate with 49 % malicious nodes, over the whole run.
    pub(crate) success_rate_49pct: f64,
    /// Slots simulated.
    pub(crate) slots: u64,
}

/// Runs the headline comparison.
pub(crate) fn run(scale: Scale) -> SummaryData {
    let nodes = scale.nodes();
    let slots = scale.slots();
    let seed = 21;
    let body = Bits::from_megabytes_f(0.5).bits();
    let mut rng = DetRng::seed_from(seed);
    let topology = Topology::random_connected(
        &TopologyConfig {
            nodes,
            // Keep density comparable to the paper's 50-node cluster (mean
            // degree ≈ 11-19) when running the reduced sweep: the 49 %
            // resilience claim needs the honest subgraph to stay connected.
            side_m: if nodes < 30 { 150.0 } else { 1000.0 },
            ..TopologyConfig::paper_default()
        },
        &mut rng,
    );
    let schedule = GenerationSchedule::uniform(nodes);
    let gamma = ((nodes as f64 * 0.33).round() as usize).max(1);

    let proto = ProtocolConfig::paper_default()
        .with_body_bits(body)
        .with_gamma(gamma);
    let mut tldag = TldagNetwork::new(proto, topology.clone(), schedule.clone(), seed);
    tldag.set_verification_workload(VerificationWorkload::RandomPast {
        min_age_slots: nodes as u64,
    });
    let base = BaselineConfig::paper_default().with_body_bits(body);
    let mut pbft = PbftNetwork::new(base, topology.clone(), seed);
    let mut iota = IotaNetwork::new(base, topology.clone(), seed);

    for _ in 0..slots {
        LedgerSim::step(&mut tldag);
        pbft.step();
        iota.step();
    }

    let tldag_comm = tldag
        .accounting()
        .mean_node_tx(TrafficClass::DagConstruction)
        .as_megabits()
        + tldag
            .accounting()
            .mean_node_tx(TrafficClass::Consensus)
            .as_megabits();
    let rows = vec![
        SystemRow {
            name: "2LDAG".into(),
            storage_mb: tldag.mean_storage_mb(),
            comm_mb: tldag_comm,
        },
        SystemRow {
            name: "PBFT".into(),
            storage_mb: pbft.storage_bits_per_node()[0].as_megabytes(),
            comm_mb: pbft
                .accounting()
                .mean_node_tx(TrafficClass::Pbft)
                .as_megabits(),
        },
        SystemRow {
            name: "IOTA".into(),
            storage_mb: iota.storage_bits_per_node()[0].as_megabytes(),
            comm_mb: iota
                .accounting()
                .mean_node_tx(TrafficClass::IotaGossip)
                .as_megabits(),
        },
    ];

    // 49 %-malicious consensus capability. Floor keeps the margin feasible:
    // gamma + 1 distinct path nodes must exist among nodes - gamma honest ones.
    let gamma49 = ((nodes as f64 * 0.49).floor() as usize).min((nodes - 1) / 2);
    let proto49 = ProtocolConfig::paper_default()
        .with_body_bits(Bits::from_bytes(512).bits()) // sizes don't matter here
        .with_gamma(gamma49);
    let mut net49 = TldagNetwork::new(proto49, topology.clone(), schedule, seed + 1);
    net49.set_verification_workload(VerificationWorkload::RandomPast {
        min_age_slots: nodes as u64,
    });
    let plan = FaultPlan::select(
        &topology,
        gamma49,
        MaliciousPlacement::Uniform,
        &mut rng.fork(49),
    );
    net49.apply_fault_plan(&plan, Behavior::Unresponsive);
    // Longer horizon: the paper's Fig. 9(d) shows γ=24 needs ~120+ slots.
    for _ in 0..(slots * 2) {
        net49.step();
    }
    let (attempts, successes) = net49.pop_counters();
    let success_rate_49pct = if attempts == 0 {
        0.0
    } else {
        successes as f64 / attempts as f64
    };

    let order = |a: f64, b: f64| (a / b).log10();
    SummaryData {
        storage_orders: (
            order(rows[1].storage_mb, rows[0].storage_mb),
            order(rows[2].storage_mb, rows[0].storage_mb),
        ),
        comm_orders: (
            order(rows[1].comm_mb, rows[0].comm_mb),
            order(rows[2].comm_mb, rows[0].comm_mb),
        ),
        rows,
        success_rate_49pct,
        slots,
    }
}

/// The headline comparison at `scale`: the per-system costs, their log10
/// ratios to 2LDAG, and consensus capability at ~49 % malicious nodes.
pub(crate) fn report(scale: Scale) -> Report {
    let data = run(scale);
    let mut systems = Table::new(
        "table1_summary",
        format!(
            "Headline comparison after {} slots (C = 0.5 MB)",
            data.slots
        ),
    );
    for r in &data.rows {
        systems.push(row![
            "system" => r.name.as_str(),
            "storage_mb" => r.storage_mb,
            "comm_mb" => r.comm_mb,
        ]);
    }
    let mut orders = Table::new(
        "table1_orders",
        "orders of magnitude vs 2LDAG (log10 ratios; paper: storage ≈ 2, comm ≈ 3)",
    );
    let versus = [
        ("PBFT", data.storage_orders.0, data.comm_orders.0),
        ("IOTA", data.storage_orders.1, data.comm_orders.1),
    ];
    for (system, storage, comm) in versus {
        orders.push(row!["versus" => system, "storage_orders" => storage, "comm_orders" => comm]);
    }
    let mut resilience = Table::new(
        "table1_resilience",
        "PoP with ~49% of nodes malicious (paper: consensus achieved)",
    );
    resilience.push(row![
        "malicious_share" => 0.49,
        "pop_success_rate" => data.success_rate_49pct,
    ]);
    let mut report = Report::new("table1_summary", scale).param("slots", data.slots);
    report.headline = format!(
        "storage {:.2}/{:.2} and communication {:.2}/{:.2} orders of magnitude below \
PBFT/IOTA; {:.1}% of PoPs succeed with ~49% of nodes malicious",
        data.storage_orders.0,
        data.storage_orders.1,
        data.comm_orders.0,
        data.comm_orders.1,
        data.success_rate_49pct * 100.0
    );
    report.tables = vec![systems, orders, resilience];
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_shape_holds_at_quick_scale() {
        let data = run(Scale::Quick);
        assert_eq!(data.rows.len(), 3);
        // Replicated ledgers cost roughly |V|× in storage (≈1.2 orders at 16
        // nodes, ≈1.7 at 50); the ratio must be at least one order even at
        // quick scale.
        assert!(data.storage_orders.0 > 0.9, "{:?}", data.storage_orders);
        assert!(data.storage_orders.1 > 0.9);
        // Communication separation is stronger (body flooding vs digests).
        assert!(data.comm_orders.0 > 1.5, "{:?}", data.comm_orders);
        assert!(data.comm_orders.1 > 1.5);
        // Consensus still succeeds with ~49 % malicious nodes. Success is
        // path-dependent at small scale; require a meaningful rate, not
        // perfection (the paper's own gamma = 24 needs 120+ slots).
        assert!(
            data.success_rate_49pct > 0.2,
            "49% success rate {}",
            data.success_rate_49pct
        );
    }
}
