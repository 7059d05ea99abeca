//! `fig15_adversary`: honest reliability as the adversary fraction grows.
//!
//! The paper's security argument (Sec. IV-D) is that Proof-of-Path keeps
//! working while a minority of nodes misbehave: equivocators minting
//! conflicting slot blocks, digest liars poisoning the gossip plane, and
//! parasites re-advertising abandoned side-chain parents. This experiment
//! runs a full in-process wire cluster of [`tldag_net::NetNode`] runtimes
//! over real loopback UDP, placing `k` Byzantine nodes (cycling equivocate /
//! digest-lie / parasite, on the highest ids — node 0 stays honest,
//! matching the `--adversary` CLI convention) and sweeping `k` from zero
//! up to the ⌊n/3⌋ tolerance bound. Per level it reports
//!
//! * **honest PoP completion** — verifications issued by *honest* nodes
//!   that reached consensus despite the adversaries (the headline the
//!   regression gate holds at ≥ 95% for fractions ≤ 1/3),
//! * **honest digest parity** — every honest node's chain digest must be
//!   byte-identical to an in-memory engine run under the *same*
//!   [`Behavior`] placement (the honest-subset parity contract), with the
//!   cluster's PoP-counter parity reported beside it, and
//! * **detection evidence** — conflicting-digest observations and the
//!   `DigestReq` pull recoveries they triggered.

use crate::experiments::cluster::net_table;
use crate::report::{Report, Table};
use crate::{row, Scale};
use std::time::{Duration, Instant};
use tldag_core::attack::Behavior;
use tldag_net::harness::discover_ports;
use tldag_net::runtime::NodeOutcome;
use tldag_net::{judge, AdversaryPlacement, Deployment, LoopbackCluster, Verdict};
use tldag_sim::NodeId;

/// The behavior mix, cycled over the adversary slots of a level: the
/// three gossip-plane attacks (conflicting second histories, corrupted
/// digests, parasite side-chain advertisements). These are the kinds the
/// conflict-detection + pull-recovery defense fully neutralizes, so the
/// sweep measures the defense, not the attack: honest completion must
/// stay at 100% while the detection counters climb. Service-withholding
/// (`selfish`) is exercised separately — by the CI adversary smoke and
/// `crates/net/tests/adversary.rs` — because a silent chain makes some
/// proof paths unsatisfiable by construction and the paper's headline
/// there is detection + blacklisting, not completion.
const KINDS: [Behavior; 3] = [
    Behavior::Equivocate,
    Behavior::DigestLie,
    Behavior::Parasite,
];

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct AdversaryConfig {
    /// Founding nodes (no churn in this sweep — the adversaries are the
    /// variable under test).
    pub founders: usize,
    /// Protocol horizon in slots.
    pub slots: u64,
    /// Consensus parameter γ.
    pub gamma: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Slot from which every placed adversary switches on (honest until
    /// then, so the cluster always bootstraps cleanly).
    pub from_slot: u64,
    /// Adversary counts to sweep, each ≤ ⌊founders/3⌋.
    pub levels: Vec<usize>,
}

impl AdversaryConfig {
    /// Sweep sized for `scale`.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => AdversaryConfig {
                founders: 9,
                slots: 16,
                gamma: 3,
                seed: 42,
                from_slot: 2,
                levels: vec![0, 1, 2, 3],
            },
            Scale::Quick => AdversaryConfig {
                founders: 4,
                slots: 10,
                gamma: 3,
                seed: 42,
                from_slot: 2,
                levels: vec![0, 1],
            },
        }
    }

    /// The placement for one level: `k` adversaries on the highest ids,
    /// walking down, kinds cycling through `KINDS`. Deterministic, so
    /// the wire cluster and the engine reference see the identical cast.
    pub fn placements(&self, adversaries: usize) -> Vec<AdversaryPlacement> {
        assert!(
            adversaries < self.founders,
            "at least one honest node must remain"
        );
        (0..adversaries)
            .map(|i| AdversaryPlacement {
                node: NodeId((self.founders - 1 - i) as u32),
                behavior: KINDS[i % KINDS.len()],
                slot: self.from_slot,
            })
            .collect()
    }
}

/// Measurements at one adversary level.
#[derive(Clone, Debug)]
pub struct AdversaryPoint {
    /// Byzantine nodes in the cluster.
    pub adversaries: usize,
    /// `adversaries / founders`.
    pub fraction: f64,
    /// The cast, e.g. `"n5:selfish n4:equivocate"` (empty at level 0).
    pub behaviors: String,
    /// PoP runs attempted by honest nodes.
    pub honest_attempts: u64,
    /// Honest PoP runs that reached consensus.
    pub honest_successes: u64,
    /// The run judged against the engine reference under the same cast:
    /// honest-subset digest parity, the whole cluster's PoP counters and
    /// the detection counters (`digest_conflicts`, `conflict_pulls`).
    pub verdict: Verdict,
    /// Wall-clock for the whole cluster run, ms.
    pub wall_ms: f64,
}

impl AdversaryPoint {
    /// Fraction of honest PoP runs that reached consensus.
    pub fn honest_completion(&self) -> f64 {
        if self.honest_attempts == 0 {
            0.0
        } else {
            self.honest_successes as f64 / self.honest_attempts as f64
        }
    }
}

/// The sweep output.
#[derive(Clone, Debug)]
pub struct AdversaryData {
    /// One point per adversary level, in sweep order.
    pub points: Vec<AdversaryPoint>,
}

/// Runs the sweep.
pub fn run(config: &AdversaryConfig) -> AdversaryData {
    let mut points = Vec::with_capacity(config.levels.len());
    for &adversaries in &config.levels {
        let placements = config.placements(adversaries);
        let mut deployment = Deployment::new(config.seed, config.founders, config.slots);
        deployment.gamma = config.gamma;
        // PoP mode: digest gossip fans out to every generator, so detection
        // does not depend on where an adversary sits in the radio topology.
        deployment.pop = true;
        deployment.adversaries = placements.clone();
        let reference = deployment.reference();

        let started = Instant::now();
        let addrs = discover_ports(config.founders).expect("probe ports");
        let mut configs = deployment.member_configs(&addrs);
        for c in &mut configs {
            // A selfish node never answers, so requests aimed at it must
            // burn their full retry schedule; keep that schedule short so
            // the failure is cheap and the slot budget generous so the
            // barrier never degrades while it burns.
            c.endpoint.request_timeout = Duration::from_millis(40);
            c.endpoint.max_retries = 8;
            c.endpoint.max_backoff = Duration::from_millis(300);
            c.slot_timeout = Duration::from_secs(20);
            c.hello_timeout = Duration::from_secs(20);
            c.linger = Duration::from_millis(2500);
        }
        let outcomes = LoopbackCluster::run(configs);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;

        let honest: Vec<&NodeOutcome> = outcomes
            .iter()
            .filter(|o| placements.iter().all(|p| p.node != o.run.node))
            .collect();
        points.push(AdversaryPoint {
            adversaries,
            fraction: adversaries as f64 / config.founders as f64,
            behaviors: placements
                .iter()
                .map(|p| format!("{}:{}", p.node, p.behavior))
                .collect::<Vec<_>>()
                .join(" "),
            honest_attempts: honest.iter().map(|o| o.run.pop_attempts).sum(),
            honest_successes: honest.iter().map(|o| o.run.pop_successes).sum(),
            verdict: judge(
                &deployment,
                &reference,
                outcomes.iter().map(NodeOutcome::report),
            ),
            wall_ms,
        });
    }
    AdversaryData { points }
}

/// The adversary-fraction sweep at `scale`. Honest-subset digest parity
/// and an undegraded barrier are invariants at every level; PoP-counter
/// parity is a column.
pub fn report(scale: Scale) -> Report {
    let cfg = AdversaryConfig::at_scale(scale);
    let data = run(&cfg);
    let mut table = Table::new(
        "fig15_adversary",
        format!(
            "Honest PoP reliability vs adversary fraction (γ = {})",
            cfg.gamma
        ),
    );
    let mut report = Report::new("fig15_adversary", scale)
        .param("founders", cfg.founders)
        .param("slots", cfg.slots);
    for p in &data.points {
        let v = &p.verdict;
        table.push(row![
            "adversaries" => p.adversaries,
            "fraction" => p.fraction,
            "behaviors" => p.behaviors.as_str(),
            "honest_attempts" => p.honest_attempts,
            "honest_successes" => p.honest_successes,
            "honest_completion" => p.honest_completion(),
            "total_attempts" => v.wire_pop.0,
            "total_successes" => v.wire_pop.1,
            "ref_attempts" => v.reference_pop.0,
            "ref_successes" => v.reference_pop.1,
            "pop_parity" => v.pop_parity(),
            "parity" => v.honest_parity(),
            "digest_conflicts" => v.net.digest_conflicts,
            "conflict_pulls" => v.net.conflict_pulls,
            "degraded_nodes" => v.degraded.len(),
            "wall_ms" => p.wall_ms,
        ]);
        let level = format!("{} adversaries", p.adversaries);
        report.invariant(
            format!("honest digest parity with {level}"),
            v.honest_parity(),
        );
        report.invariant(
            format!("no degraded node with {level}"),
            v.degraded.is_empty(),
        );
    }
    if let Some(p) = data.points.iter().find(|p| p.adversaries > 0) {
        report.headline = format!(
            "with {} Byzantine node(s) ({:.0}% of the cluster: {}), {:.1}% of honest PoP runs \
completed",
            p.adversaries,
            p.fraction * 100.0,
            p.behaviors,
            p.honest_completion() * 100.0
        );
    }
    let labelled = |p: &AdversaryPoint| (format!("{} adversaries", p.adversaries), p.verdict.net);
    let net = net_table(
        "fig15_adversary_net",
        data.points.iter().map(labelled).collect(),
    );
    report.tables = vec![table, net];
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minority_cast_keeps_honest_parity_and_detection_fires() {
        let config = AdversaryConfig {
            founders: 4,
            slots: 9,
            gamma: 3,
            seed: 19,
            from_slot: 2,
            levels: vec![1],
        };
        let data = run(&config);
        let p = &data.points[0];
        let v = &p.verdict;
        assert_eq!(p.behaviors, "n3:equivocate");
        assert!(
            v.honest_parity(),
            "honest chains must match the engine reference:\n{v}"
        );
        assert!(
            v.pop_parity(),
            "cluster PoP counters must match the engine under the same cast:\n{v}"
        );
        assert!(
            p.honest_attempts > 0,
            "the workload must run honest PoP verifications"
        );
        assert!(
            (p.honest_completion() - 1.0).abs() < f64::EPSILON,
            "gossip-plane attacks must not cost honest completion \
(got {})",
            p.honest_completion()
        );
        assert!(
            v.net.digest_conflicts >= 1 && v.net.conflict_pulls >= 1,
            "detection must fire (conflicts {}, pulls {})",
            v.net.digest_conflicts,
            v.net.conflict_pulls
        );
        assert!(v.degraded.is_empty(), "no barrier may time out");
    }
}
