//! Node-restart recovery — a Fig. 9-style experiment the paper does not
//! run but its storage model implies: when an IoT node's process dies and
//! comes back from durable storage, how does Proof-of-Path availability of
//! its blocks evolve, and does the recovered chain lose anything?
//!
//! Per seed, every node stores its chain in a `tldag-storage` durable engine
//! ([`DiskFactory`]). A [`RestartPlan`] kills scheduled nodes mid-run
//! (dropping all volatile state and unsynced storage tail) and revives them
//! by reopening their block log. At sampled slots, probe PoPs target the
//! victims' pre-crash blocks; the failure probability traces the outage and
//! the recovery. The run also audits the durability contract: a revived
//! node must recover **at least** its durable watermark — with the network's
//! sync-per-slot policy, exactly every block generated before the crash.

use std::path::PathBuf;
use tldag_core::block::BlockId;
use tldag_core::config::ProtocolConfig;
use tldag_core::dag::LogicalDag;
use tldag_core::network::TldagNetwork;
use tldag_core::workload::VerificationWorkload;
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::fault::RestartPlan;
use tldag_sim::topology::{Topology, TopologyConfig};
use tldag_sim::{DetRng, NodeId};
use tldag_storage::{DiskFactory, StorageOptions};

use crate::experiments::scale::Scale;
use crate::report::{Report, Table};
use crate::row;

/// Parameters of the restart-recovery sweep.
#[derive(Clone, Debug)]
pub struct RestartConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Horizon in slots.
    pub slots: u64,
    /// Consensus margin γ.
    pub gamma: usize,
    /// How many distinct nodes crash per run.
    pub restarts: usize,
    /// Crash slots are drawn uniformly from this window.
    pub crash_window: std::ops::Range<u64>,
    /// Slots each crashed node stays down.
    pub downtime_slots: u64,
    /// Probe PoPs per sampled slot per seed.
    pub probes_per_sample: usize,
    /// Sampling interval in slots.
    pub sample_every: u64,
    /// Independent seeds.
    pub seeds: u64,
    /// Topology parameters.
    pub topology: TopologyConfig,
    /// Root directory for the per-seed, per-node block logs.
    pub storage_root: PathBuf,
    /// Durable-engine tuning.
    pub storage: StorageOptions,
}

impl RestartConfig {
    /// Builds the configuration for a [`Scale`].
    pub fn at_scale(scale: Scale) -> Self {
        let storage_root =
            std::env::temp_dir().join(format!("tldag-restart-{}-{scale:?}", std::process::id()));
        match scale {
            Scale::Paper => RestartConfig {
                nodes: 50,
                slots: 80,
                gamma: 10,
                restarts: 3,
                crash_window: 20..40,
                downtime_slots: 10,
                probes_per_sample: 4,
                sample_every: 4,
                seeds: 6,
                topology: TopologyConfig::paper_default(),
                storage_root,
                storage: StorageOptions::default(),
            },
            Scale::Quick => RestartConfig {
                nodes: 12,
                slots: 36,
                gamma: 3,
                restarts: 1,
                crash_window: 10..14,
                downtime_slots: 6,
                probes_per_sample: 3,
                sample_every: 4,
                seeds: 2,
                topology: TopologyConfig::small(12),
                storage_root,
                storage: StorageOptions {
                    segment_bytes: 64 * 1024,
                    ..StorageOptions::default()
                },
            },
        }
    }
}

/// What one crash/revive cycle recovered.
#[derive(Clone, Debug)]
pub struct RecoveryOutcome {
    /// Seed of the run.
    pub seed: u64,
    /// The crashed node.
    pub node: NodeId,
    /// Slot the process died.
    pub crash_slot: u64,
    /// Slot the process returned.
    pub revive_slot: u64,
    /// Chain length when the process died.
    pub blocks_before_crash: usize,
    /// Durability watermark when the process died (synced blocks).
    pub durable_before_crash: usize,
    /// Chain length recovered from the reopened block log.
    pub blocks_recovered: usize,
    /// Whether the revive slot fell inside the run horizon (a crash near
    /// the end of the run may never be revived; that is not data loss).
    pub revived: bool,
}

impl RecoveryOutcome {
    /// The durability contract: nothing synced may be lost on recovery.
    /// Never-revived crashes are excluded — nothing was reopened to audit.
    pub fn lost_committed_blocks(&self) -> bool {
        self.revived && self.blocks_recovered < self.durable_before_crash
    }
}

/// Result of the sweep.
#[derive(Clone, Debug)]
pub struct RestartData {
    /// Failure probability of probes on victims' pre-crash blocks
    /// (column `"victim blocks"`) and on other nodes' blocks
    /// (control column `"control blocks"`), per sampled slot; blank where
    /// a slot had no probe of that kind.
    pub series: Table,
    /// One entry per crash/revive cycle per seed.
    pub recoveries: Vec<RecoveryOutcome>,
    /// Largest resident-memory estimate observed across disk-backed nodes.
    pub peak_resident_bytes: usize,
    /// Largest on-disk chain observed (bytes), for the resident/disk ratio.
    pub peak_disk_bytes: u64,
}

/// Runs the sweep.
pub fn run(cfg: &RestartConfig) -> RestartData {
    let sample_slots: Vec<u64> = (cfg.sample_every..=cfg.slots)
        .step_by(cfg.sample_every as usize)
        .collect();
    let mut victim_failures = vec![0u64; sample_slots.len()];
    let mut victim_attempts = vec![0u64; sample_slots.len()];
    let mut control_failures = vec![0u64; sample_slots.len()];
    let mut control_attempts = vec![0u64; sample_slots.len()];
    let mut recoveries = Vec::new();
    let mut peak_resident_bytes = 0usize;
    let mut peak_disk_bytes = 0u64;

    for seed in 0..cfg.seeds {
        let mut rng = DetRng::seed_from(0x5eed + seed * 7919 + cfg.gamma as u64);
        let topology = Topology::random_connected(&cfg.topology, &mut rng);
        let schedule = GenerationSchedule::uniform(topology.len());
        let proto = ProtocolConfig::test_default().with_gamma(cfg.gamma);
        let factory = DiskFactory::new(
            cfg.storage_root.join(format!("seed-{seed}")),
            cfg.storage.clone(),
        );
        let mut net =
            TldagNetwork::with_factory(proto, topology.clone(), schedule, seed, Box::new(factory));
        net.set_verification_workload(VerificationWorkload::Disabled);
        let plan = RestartPlan::uniform(
            &topology,
            cfg.restarts,
            cfg.crash_window.clone(),
            cfg.downtime_slots,
            &mut rng.fork(1),
        );
        let victims: Vec<NodeId> = plan.events().iter().map(|e| e.node).collect();
        let mut probe_rng = rng.fork(2);
        // Verifiable pre-crash blocks of the victims, captured at crash time
        // (the victims' own stores are unreadable while they are down).
        let mut victim_targets: Vec<BlockId> = Vec::new();

        for slot in 0..cfg.slots {
            let crashes = plan.crashes_at(slot);
            if !crashes.is_empty() {
                let dag = LogicalDag::build(net.nodes());
                for &node in &crashes {
                    victim_targets.extend(verifiable_blocks(&net, &dag, node));
                }
            }
            for node in crashes {
                let store = net.node(node).store();
                let (before, durable) = (store.len(), store.durable_len());
                net.crash_node(node);
                let event = plan
                    .events()
                    .iter()
                    .find(|e| e.node == node && e.crash_slot == slot)
                    .expect("event exists");
                recoveries.push(RecoveryOutcome {
                    seed,
                    node,
                    crash_slot: slot,
                    revive_slot: event.revive_slot,
                    blocks_before_crash: before,
                    durable_before_crash: durable,
                    blocks_recovered: 0, // filled at revive
                    revived: false,
                });
            }
            for node in plan.revives_at(slot) {
                let recovered = net
                    .restart_node(node)
                    .expect("reopen of a cleanly synced log cannot fail");
                let outcome = recoveries
                    .iter_mut()
                    .rev()
                    .find(|r| r.seed == seed && r.node == node)
                    .expect("crash recorded before revive");
                outcome.blocks_recovered = recovered;
                outcome.revived = true;
            }
            net.step();

            for node in net.topology().node_ids() {
                if !net.has_departed(node) {
                    peak_resident_bytes =
                        peak_resident_bytes.max(net.node(node).store().resident_bytes());
                }
            }

            if let Some(i) = sample_slots.iter().position(|&s| s == slot + 1) {
                let dag = LogicalDag::build(net.nodes());
                // The control candidates depend only on the sample-time
                // state, so scan once per sample, not once per probe.
                let controls = control_candidates(&net, &dag, &victims, &plan);
                for _ in 0..cfg.probes_per_sample {
                    // Victim probe: a pre-crash block of a scheduled victim
                    // (only once crashes have started populating the list).
                    if let Some((validator, target)) =
                        pick_victim_probe(&net, &victims, &victim_targets, &mut probe_rng)
                    {
                        victim_attempts[i] += 1;
                        if !net.run_pop(validator, target, false).is_success() {
                            victim_failures[i] += 1;
                        }
                    }
                    // Control probe: an equally old block of a non-victim.
                    if let Some((validator, target)) =
                        pick_control_probe(&net, &victims, &controls, &mut probe_rng)
                    {
                        control_attempts[i] += 1;
                        if !net.run_pop(validator, target, false).is_success() {
                            control_failures[i] += 1;
                        }
                    }
                }
            }
        }

        peak_disk_bytes = peak_disk_bytes.max(estimate_disk_bytes(&cfg.storage_root, seed));
    }

    // 0/0 is NaN: a slot without probes of one kind stays blank.
    let rates = |failures: &[u64], attempts: &[u64]| -> Vec<f64> {
        let pairs = failures.iter().zip(attempts);
        pairs.map(|(&f, &a)| f as f64 / a as f64).collect()
    };
    let series = Table::series(
        "fig9_restart_failure",
        format!(
            "PoP failure probability around node restarts (γ = {})",
            cfg.gamma
        ),
        &sample_slots,
        &[
            (
                "victim blocks".into(),
                rates(&victim_failures, &victim_attempts),
            ),
            (
                "control blocks".into(),
                rates(&control_failures, &control_attempts),
            ),
        ],
    );

    RestartData {
        series,
        recoveries,
        peak_resident_bytes,
        peak_disk_bytes,
    }
}

/// Sums segment-file sizes under one seed's storage root.
fn estimate_disk_bytes(root: &std::path::Path, seed: u64) -> u64 {
    let mut total = 0u64;
    let seed_dir = root.join(format!("seed-{seed}"));
    let Ok(nodes) = std::fs::read_dir(&seed_dir) else {
        return 0;
    };
    for node in nodes.flatten() {
        if let Ok(files) = std::fs::read_dir(node.path()) {
            for f in files.flatten() {
                if let Ok(meta) = f.metadata() {
                    total += meta.len();
                }
            }
        }
    }
    total
}

/// A currently-up validator that is not itself a scheduled victim.
fn pick_validator(net: &TldagNetwork, victims: &[NodeId], rng: &mut DetRng) -> Option<NodeId> {
    let validators: Vec<NodeId> = net
        .topology()
        .node_ids()
        .filter(|id| !victims.contains(id) && !net.has_departed(*id))
        .collect();
    rng.choose(&validators).copied()
}

/// All blocks of `owner` that some *other* node's block references — i.e.
/// blocks PoP can in principle verify (the same orphan exclusion as the
/// Fig. 9 probe).
fn verifiable_blocks(net: &TldagNetwork, dag: &LogicalDag, owner: NodeId) -> Vec<BlockId> {
    net.node(owner)
        .store()
        .iter()
        .filter(|block| {
            let digest = block.header_digest();
            dag.children_of(&digest)
                .iter()
                .any(|c| dag.block_id(c).is_some_and(|id| id.owner != owner))
        })
        .map(|block| block.id)
        .collect()
}

/// Victim probe: one of the pre-crash targets captured at crash time.
fn pick_victim_probe(
    net: &TldagNetwork,
    victims: &[NodeId],
    victim_targets: &[BlockId],
    rng: &mut DetRng,
) -> Option<(NodeId, BlockId)> {
    let target = *rng.choose(victim_targets)?;
    Some((pick_validator(net, victims, rng)?, target))
}

/// Control-probe candidates: blocks generated before the first crash slot
/// by unaffected nodes, with the same verifiability requirement as the
/// victim targets. Computed once per sampled slot.
fn control_candidates(
    net: &TldagNetwork,
    dag: &LogicalDag,
    victims: &[NodeId],
    plan: &RestartPlan,
) -> Vec<BlockId> {
    let Some(era) = plan.events().iter().map(|e| e.crash_slot).min() else {
        return Vec::new();
    };
    let mut candidates: Vec<BlockId> = Vec::new();
    for owner in net.topology().node_ids() {
        if victims.contains(&owner) || net.has_departed(owner) {
            continue;
        }
        for block in net.node(owner).store().iter() {
            if block.header.time >= era {
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
    candidates
}

/// Control probe: a candidate not owned by the chosen validator.
fn pick_control_probe(
    net: &TldagNetwork,
    victims: &[NodeId],
    candidates: &[BlockId],
    rng: &mut DetRng,
) -> Option<(NodeId, BlockId)> {
    let validator = pick_validator(net, victims, rng)?;
    let eligible: Vec<BlockId> = candidates
        .iter()
        .copied()
        .filter(|t| t.owner != validator)
        .collect();
    rng.choose(&eligible).map(|&t| (validator, t))
}

/// The restart sweep at `scale`: the failure-probability series, the
/// per-crash recovery audit, and the durability contract as an invariant.
pub fn report(scale: Scale) -> Report {
    let cfg = RestartConfig::at_scale(scale);
    let data = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.storage_root);

    let mut audit = Table::new("fig9_restart_audit", "recovery audit (crash → reopen)");
    for r in &data.recoveries {
        audit.push(row![
            "seed" => r.seed,
            "node" => r.node.to_string(),
            "crash_slot" => r.crash_slot,
            "revive_slot" => r.revive_slot,
            "blocks_before_crash" => r.blocks_before_crash,
            "durable_before_crash" => r.durable_before_crash,
            "revived" => r.revived,
            "blocks_recovered" => r.blocks_recovered,
            "lost_committed_blocks" => r.lost_committed_blocks(),
        ]);
    }
    let lost = data
        .recoveries
        .iter()
        .filter(|r| r.lost_committed_blocks())
        .count();
    let last = |column: &str| {
        let mut sampled = data.series.column(column).into_iter();
        sampled.rfind(|v| !v.is_nan()).unwrap_or(f64::NAN)
    };
    let mut summary = Table::new("fig9_restart_summary", "durability and footprint");
    summary.push(row![
        "crashes" => data.recoveries.len(),
        "lost_committed_blocks" => lost,
        "final_victim_failure" => last("victim blocks"),
        "final_control_failure" => last("control blocks"),
        "peak_resident_bytes" => data.peak_resident_bytes,
        "peak_disk_bytes" => data.peak_disk_bytes,
    ]);
    let mut report = Report::new("fig9_restart", scale)
        .param("nodes", cfg.nodes)
        .param("seeds", cfg.seeds)
        .param("restarts", cfg.restarts)
        .param("downtime_slots", cfg.downtime_slots);
    report.invariant("no committed block lost across a crash", lost == 0);
    report.tables = vec![data.series, audit, summary];
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> RestartConfig {
        RestartConfig {
            nodes: 10,
            slots: 20,
            gamma: 3,
            restarts: 1,
            crash_window: 6..8,
            downtime_slots: 4,
            probes_per_sample: 2,
            sample_every: 4,
            seeds: 2,
            topology: TopologyConfig::small(10),
            storage_root: std::env::temp_dir()
                .join(format!("tldag-restart-test-{name}-{}", std::process::id())),
            storage: StorageOptions::compact_test(),
        }
    }

    #[test]
    fn no_committed_blocks_lost_and_consensus_recovers() {
        let cfg = tiny("audit");
        let data = run(&cfg);
        let _ = std::fs::remove_dir_all(&cfg.storage_root);

        assert_eq!(
            data.recoveries.len(),
            (cfg.restarts as u64 * cfg.seeds) as usize
        );
        for r in &data.recoveries {
            assert!(
                r.revived,
                "tiny() schedules every revive inside the horizon"
            );
            assert!(
                !r.lost_committed_blocks(),
                "{} lost committed blocks: durable {} > recovered {}",
                r.node,
                r.durable_before_crash,
                r.blocks_recovered
            );
            // The network syncs at every slot end, so a crash at slot start
            // loses nothing at all.
            assert_eq!(r.blocks_recovered, r.blocks_before_crash);
            assert!(r.blocks_recovered > 0, "crash after generation started");
        }

        // Victim-block probes must fail during downtime (owner unreachable)
        // and succeed again afterwards.
        let victim = data.series.column("victim blocks");
        let worst = victim.iter().copied().fold(0.0f64, f64::max);
        assert_eq!(worst, 1.0, "downtime must be observable: {victim:?}");
        let last = victim[victim.len() - 1];
        assert_eq!(last, 0.0, "PoP on victim blocks must recover: {victim:?}");

        // Durable backends keep resident memory well below the on-disk chain.
        assert!(data.peak_disk_bytes > 0);
    }

    #[test]
    fn control_blocks_recover_like_fig9() {
        let cfg = tiny("control");
        let data = run(&cfg);
        let _ = std::fs::remove_dir_all(&cfg.storage_root);
        // Early control probes may fail while the DAG is young (the Fig. 9
        // effect); by the end of the run they must all succeed — restarts
        // elsewhere never regress consensus on unrelated blocks.
        let control = data.series.column("control blocks");
        assert_eq!(
            control[control.len() - 1],
            0.0,
            "control probes must settle at zero: {control:?}"
        );
    }
}
