//! Retention budgets vs the Eq. 2 storage model — the experiment the
//! paper's Propositions 2–3 imply but its evaluation never runs: when a
//! node bounds `S_i` with a disk budget (compacting the oldest segments
//! away), what happens to Proof-of-Path availability, and how much does a
//! persisted trust cache `H_i` buy a restarted node?
//!
//! Two sweeps:
//!
//! * **Retention** — per budget (expressed as an Eq. 2 block horizon:
//!   `budget = horizon × block_bits(mean degree + 1)` plus physical framing),
//!   every node stores its chain in a [`DiskFactory`] with
//!   `retain_disk_bytes` set. After the run, probe PoPs target **old**
//!   blocks (seq 0, the first to be pruned) and **mid-age** blocks (above
//!   every pruned floor). Old-block probes on a compacted chain must come
//!   back as graceful [`PopError::TargetPruned`] misses — counted, never a
//!   panic — while mid-age probes keep succeeding. The measured disk usage
//!   is compared against the Eq. 2 prediction for the retained window.
//! * **Warm restart** — with trust-cache persistence off vs on: a victim
//!   node verifies a fixed target set (filling `H_i`), crashes, restarts,
//!   and re-verifies the same targets. With `--persist-trust-cache`
//!   semantics on, `H_i` is restored and TPS serves the paths from cache
//!   (high hit-rate, no `REQ_CHILD` traffic); cold restarts pay the full
//!   re-verification.

use std::path::PathBuf;
use tldag_core::block::BlockId;
use tldag_core::config::ProtocolConfig;
use tldag_core::error::PopError;
use tldag_core::network::TldagNetwork;
use tldag_core::workload::VerificationWorkload;
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::topology::{Topology, TopologyConfig};
use tldag_sim::{DetRng, NodeId};
use tldag_storage::{DiskFactory, StorageOptions};

use crate::experiments::scale::Scale;
use crate::report::{Report, Table};
use crate::row;

/// Parameters of the retention sweep.
#[derive(Clone, Debug)]
pub struct RetentionConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Horizon in slots (every node generates one block per slot).
    pub slots: u64,
    /// Consensus margin γ.
    pub gamma: usize,
    /// Retention horizons in blocks (`None` = unbounded, the baseline).
    /// The disk budget for horizon `h` is `h × (Eq. 2 block bytes + frame)`.
    pub horizons: Vec<Option<u32>>,
    /// Probe PoPs per age class per budget.
    pub probes: usize,
    /// Slots to run before the warm-restart victim crashes.
    pub warm_slots: u64,
    /// Slots the victim stays down.
    pub downtime_slots: u64,
    /// Targets the victim verifies before the crash (and re-verifies after).
    pub warm_targets: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Topology parameters.
    pub topology: TopologyConfig,
    /// Root directory for the per-budget node stores.
    pub storage_root: PathBuf,
    /// Base engine options (segment size is kept small so budgets bite).
    pub storage: StorageOptions,
}

impl RetentionConfig {
    /// Builds the configuration for a [`Scale`].
    pub fn at_scale(scale: Scale) -> Self {
        let storage_root =
            std::env::temp_dir().join(format!("tldag-fig7ret-{}-{scale:?}", std::process::id()));
        let storage = StorageOptions {
            segment_bytes: 8 * 1024,
            flush_buffer_bytes: 4 * 1024,
            ..StorageOptions::default()
        };
        match scale {
            Scale::Paper => RetentionConfig {
                nodes: 40,
                slots: 80,
                gamma: 8,
                horizons: vec![None, Some(60), Some(40), Some(20)],
                probes: 24,
                warm_slots: 40,
                downtime_slots: 8,
                warm_targets: 12,
                seed: 0x7e7e,
                topology: TopologyConfig {
                    nodes: 40,
                    ..TopologyConfig::paper_default()
                },
                storage_root,
                storage,
            },
            Scale::Quick => RetentionConfig {
                nodes: 12,
                slots: 36,
                gamma: 3,
                horizons: vec![None, Some(12)],
                probes: 8,
                warm_slots: 20,
                downtime_slots: 4,
                warm_targets: 6,
                seed: 0x7e7e,
                topology: TopologyConfig::small(12),
                storage_root,
                storage,
            },
        }
    }
}

/// One budget's measurements.
#[derive(Clone, Debug)]
pub struct BudgetSample {
    /// The retention horizon in blocks (`None` = unbounded).
    pub horizon_blocks: Option<u32>,
    /// The derived per-node disk budget in bytes (`None` = unbounded).
    pub budget_bytes: Option<u64>,
    /// Mean measured on-disk bytes per node at the end of the run.
    pub mean_disk_bytes: f64,
    /// Eq. 2 **logical** size of the retained window, in bytes per node
    /// (the model prices the full sensed body `C`; the simulator's physical
    /// payloads are smaller, so this tracks the *model's* budget).
    pub eq2_retained_bytes: f64,
    /// Mean retained blocks per node (`len − pruned floor`).
    pub mean_retained_blocks: f64,
    /// Mean pruned floor across nodes (0 = nothing pruned).
    pub mean_pruned_floor: f64,
    /// Old-block probes: successes / attempts.
    pub old_success: (u64, u64),
    /// Old-block probes answered with a graceful `TargetPruned` miss.
    pub old_pruned_misses: u64,
    /// Old-block probes where the target itself was still retained but
    /// consensus failed with pruned evidence on the proof path (another
    /// node's compacted chain answered a path extension with `Pruned`) —
    /// the third graceful outcome retention can produce.
    pub old_path_pruned_failures: u64,
    /// Mid-age probes (above every pruned floor): successes / attempts.
    pub mid_success: (u64, u64),
    /// `ChildResponse::Pruned` replies observed on the probe paths.
    pub pruned_replies_on_paths: u64,
}

/// One warm-restart measurement (persistence off or on).
#[derive(Clone, Debug)]
pub struct WarmSample {
    /// Whether `H_i` persistence was enabled.
    pub persist: bool,
    /// Trusted headers in the victim's cache right after the restart.
    pub headers_after_restart: usize,
    /// TPS path extensions across the post-restart re-verifications.
    pub tps_extensions: u64,
    /// `REQ_CHILD` messages the re-verifications still had to send.
    pub req_child_sent: u64,
    /// Post-restart re-verifications that reached consensus.
    pub successes: u64,
    /// TPS cache hit-rate: extensions / (extensions + REQ_CHILDs).
    pub hit_rate: f64,
}

/// Results of both sweeps.
#[derive(Clone, Debug)]
pub struct RetentionData {
    /// One sample per budget, in sweep order.
    pub budgets: Vec<BudgetSample>,
    /// Cold (persist off) then warm (persist on) restart samples.
    pub warm: Vec<WarmSample>,
}

/// Estimated physical bytes of one block record: the Eq. 2 logical size
/// plus the codec/frame overhead (frame header, ids, length fields).
fn record_bytes_estimate(proto: &ProtocolConfig, digest_entries: usize) -> u64 {
    proto.block_bits(digest_entries).bits() / 8 + 64
}

fn protocol(gamma: usize) -> ProtocolConfig {
    ProtocolConfig::test_default().with_gamma(gamma)
}

/// Runs both sweeps.
pub fn run(cfg: &RetentionConfig) -> RetentionData {
    let mut rng = DetRng::seed_from(cfg.seed);
    let topology = Topology::random_connected(&cfg.topology, &mut rng);
    let proto = protocol(cfg.gamma);
    let mean_entries = topology.mean_degree().round() as usize + 1;
    let per_block = record_bytes_estimate(&proto, mean_entries);

    let budgets = cfg
        .horizons
        .iter()
        .map(|h| run_budget(cfg, &topology, *h, h.map(|h| u64::from(h) * per_block)))
        .collect();

    let warm = [false, true]
        .into_iter()
        .map(|persist| run_warm(cfg, &topology, persist))
        .collect();

    let _ = std::fs::remove_dir_all(&cfg.storage_root);
    RetentionData { budgets, warm }
}

/// Runs one retention budget and probes availability by block age.
fn run_budget(
    cfg: &RetentionConfig,
    topology: &Topology,
    horizon_blocks: Option<u32>,
    budget_bytes: Option<u64>,
) -> BudgetSample {
    let proto = protocol(cfg.gamma);
    let label = match horizon_blocks {
        Some(h) => format!("h{h}"),
        None => "unbounded".to_string(),
    };
    eprintln!(
        "fig7_retention: budget sweep `{label}` ({} nodes × {} slots) …",
        cfg.nodes, cfg.slots
    );
    let root = cfg.storage_root.join(format!("budget-{label}"));
    let factory = DiskFactory::new(
        &root,
        cfg.storage.clone().with_retain_disk_bytes(budget_bytes),
    );
    let mut net = TldagNetwork::with_factory(
        proto,
        topology.clone(),
        GenerationSchedule::uniform(topology.len()),
        cfg.seed,
        Box::new(factory),
    );
    net.set_verification_workload(VerificationWorkload::Disabled);
    net.run_slots(cfg.slots);
    net.sync_storage().expect("final flush");

    let floors: Vec<u32> = topology
        .node_ids()
        .map(|id| net.node(id).pruned_floor())
        .collect();
    let mean_pruned_floor = floors.iter().map(|&f| f64::from(f)).sum::<f64>() / cfg.nodes as f64;
    let max_floor = floors.iter().copied().max().unwrap_or(0);
    let mean_retained_blocks = topology
        .node_ids()
        .map(|id| {
            let node = net.node(id);
            (node.chain_len() as u32 - node.pruned_floor()) as f64
        })
        .sum::<f64>()
        / cfg.nodes as f64;
    let mean_disk_bytes = measure_disk_bytes(&root) as f64 / cfg.nodes as f64;
    // Eq. 2 over the retained window: the engines' logical_bits() sums
    // header + body bits of exactly the retained blocks.
    let eq2_retained_bytes = topology
        .node_ids()
        .map(|id| net.node(id).store().logical_bits(&proto).bits() as f64 / 8.0)
        .sum::<f64>()
        / cfg.nodes as f64;

    // Probes. Old targets are seq 0 (pruned first); mid-age targets sit
    // above every pruned floor but old enough to have children everywhere.
    let mut probe_rng = DetRng::seed_from(cfg.seed ^ 0xa9e);
    let mid_seq = max_floor.saturating_add(2).min(cfg.slots as u32 - 2);
    let mut old_success = (0u64, 0u64);
    let mut old_pruned_misses = 0u64;
    let mut old_path_pruned_failures = 0u64;
    let mut mid_success = (0u64, 0u64);
    let mut pruned_replies_on_paths = 0u64;
    let ids: Vec<NodeId> = topology.node_ids().collect();
    for _ in 0..cfg.probes {
        let owner = *probe_rng.choose(&ids).expect("nodes exist");
        let validator = NodeId((owner.0 + 1) % cfg.nodes as u32);
        for (seq, bucket, pruned_counter) in [
            (0u32, &mut old_success, true),
            (mid_seq, &mut mid_success, false),
        ] {
            let report = net.run_pop(validator, BlockId::new(owner, seq), false);
            bucket.1 += 1;
            if report.is_success() {
                bucket.0 += 1;
            } else if pruned_counter {
                if let Err(PopError::TargetPruned { .. }) = report.outcome {
                    old_pruned_misses += 1;
                } else if report.metrics.pruned_misses > 0 {
                    // The target was still on disk at its owner (floors
                    // differ per node), but the proof path ran into other
                    // nodes' pruned chains: a retention-caused failure,
                    // distinct from a graceful target miss.
                    old_path_pruned_failures += 1;
                }
            }
            pruned_replies_on_paths += report.metrics.pruned_misses;
        }
    }

    BudgetSample {
        horizon_blocks,
        budget_bytes,
        mean_disk_bytes,
        eq2_retained_bytes,
        mean_retained_blocks,
        mean_pruned_floor,
        old_success,
        old_pruned_misses,
        old_path_pruned_failures,
        mid_success,
        pruned_replies_on_paths,
    }
}

/// Runs the warm-restart comparison for one persistence setting.
fn run_warm(cfg: &RetentionConfig, topology: &Topology, persist: bool) -> WarmSample {
    eprintln!("fig7_retention: warm-restart sweep (persist_trust_cache = {persist}) …",);
    let proto = protocol(cfg.gamma);
    let root = cfg.storage_root.join(format!("warm-{persist}"));
    let factory = DiskFactory::new(&root, cfg.storage.clone());
    let mut net = TldagNetwork::with_factory(
        proto,
        topology.clone(),
        GenerationSchedule::uniform(topology.len()),
        cfg.seed,
        Box::new(factory),
    );
    net.set_verification_workload(VerificationWorkload::Disabled);
    net.set_persist_trust_cache(persist);
    net.run_slots(cfg.warm_slots);

    // A fixed target set, chosen identically for both settings.
    let mut target_rng = DetRng::seed_from(cfg.seed ^ 0x3aa);
    let victim = NodeId(0);
    let ids: Vec<NodeId> = topology.node_ids().filter(|&id| id != victim).collect();
    let targets: Vec<BlockId> = (0..cfg.warm_targets)
        .map(|_| {
            let owner = *target_rng.choose(&ids).expect("nodes exist");
            let seq = target_rng.next_below(cfg.warm_slots.saturating_sub(4).max(1)) as u32;
            BlockId::new(owner, seq)
        })
        .collect();

    // Pre-crash: the victim verifies every target, filling H_i; the
    // storage flush also persists the cache when enabled.
    for &target in &targets {
        net.run_pop(victim, target, true);
    }
    net.sync_storage().expect("pre-crash flush");

    net.crash_node(victim);
    net.run_slots(cfg.downtime_slots);
    net.restart_node(victim).expect("disk-backed restart");
    let headers_after_restart = net.node(victim).trust_cache().len();

    // Post-restart: re-verify the same targets. Probes (commit = false)
    // leave the restored cache untouched, so every probe measures exactly
    // the restart state.
    let mut tps_extensions = 0u64;
    let mut req_child_sent = 0u64;
    let mut successes = 0u64;
    for &target in &targets {
        let report = net.run_pop(victim, target, false);
        tps_extensions += report.metrics.tps_extensions;
        req_child_sent += report.metrics.req_child_sent;
        if report.is_success() {
            successes += 1;
        }
    }
    let denom = tps_extensions + req_child_sent;
    WarmSample {
        persist,
        headers_after_restart,
        tps_extensions,
        req_child_sent,
        successes,
        hit_rate: if denom == 0 {
            0.0
        } else {
            tps_extensions as f64 / denom as f64
        },
    }
}

/// Sums file sizes under one budget's storage root.
fn measure_disk_bytes(root: &std::path::Path) -> u64 {
    let mut total = 0u64;
    let Ok(nodes) = std::fs::read_dir(root) else {
        return 0;
    };
    for node in nodes.flatten() {
        if let Ok(files) = std::fs::read_dir(node.path()) {
            for f in files.flatten() {
                let name = f.file_name();
                let is_segment = name.to_string_lossy().ends_with(".log");
                if is_segment {
                    if let Ok(meta) = f.metadata() {
                        total += meta.len();
                    }
                }
            }
        }
    }
    total
}

/// Both retention sweeps at `scale`. Invariants: the tightest budget
/// prunes, every old probe ends in one of the three graceful outcomes, and
/// a persisted `H_i` beats a cold restart.
pub fn report(scale: Scale) -> Report {
    let cfg = RetentionConfig::at_scale(scale);
    let data = run(&cfg);
    let mut budgets = Table::new(
        "fig7_retention",
        "disk usage & PoP availability vs retention budget (Eq. 2 horizons; 0 = unbounded)",
    );
    for b in &data.budgets {
        budgets.push(row![
            "horizon_blocks" => b.horizon_blocks.unwrap_or(0),
            "budget_bytes" => b.budget_bytes.unwrap_or(0),
            "mean_disk_bytes" => b.mean_disk_bytes,
            "eq2_retained_bytes" => b.eq2_retained_bytes,
            "mean_retained_blocks" => b.mean_retained_blocks,
            "mean_pruned_floor" => b.mean_pruned_floor,
            "old_ok" => b.old_success.0,
            "old_attempts" => b.old_success.1,
            "old_pruned_misses" => b.old_pruned_misses,
            "old_path_pruned_failures" => b.old_path_pruned_failures,
            "mid_ok" => b.mid_success.0,
            "mid_attempts" => b.mid_success.1,
        ]);
    }
    let mut warm = Table::new(
        "fig7_retention_warm",
        "TPS after restart: cold vs warm (persisted H_i)",
    );
    for w in &data.warm {
        warm.push(row![
            "persist" => w.persist,
            "headers_after_restart" => w.headers_after_restart,
            "tps_extensions" => w.tps_extensions,
            "req_child_sent" => w.req_child_sent,
            "successes" => w.successes,
            "targets" => cfg.warm_targets,
            "hit_rate" => w.hit_rate,
        ]);
    }
    let mut report = Report::new("fig7_retention", scale)
        .param("nodes", cfg.nodes)
        .param("slots", cfg.slots)
        .param("gamma", cfg.gamma);
    let tightest = data.budgets.last().expect("at least one budget");
    if tightest.horizon_blocks.is_some() {
        report.invariant(
            "the tightest budget prunes",
            tightest.mean_pruned_floor > 0.0,
        );
        report.invariant(
            "every old probe succeeds, misses the pruned target gracefully, or fails with \
pruned evidence on the path",
            tightest.old_success.0 + tightest.old_pruned_misses + tightest.old_path_pruned_failures
                == tightest.old_success.1,
        );
    }
    report.invariant(
        "a warm restart's TPS hit rate beats a cold one's",
        data.warm[1].hit_rate > data.warm[0].hit_rate,
    );
    report.tables = vec![budgets, warm];
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> RetentionConfig {
        RetentionConfig {
            nodes: 10,
            slots: 24,
            gamma: 2,
            horizons: vec![None, Some(8)],
            probes: 4,
            warm_slots: 12,
            downtime_slots: 3,
            warm_targets: 4,
            seed: 11,
            topology: TopologyConfig::small(10),
            storage_root: std::env::temp_dir()
                .join(format!("tldag-fig7ret-test-{name}-{}", std::process::id())),
            storage: StorageOptions {
                segment_bytes: 2 * 1024,
                flush_buffer_bytes: 512,
                ..StorageOptions::default()
            },
        }
    }

    #[test]
    fn budgets_prune_and_old_probes_miss_gracefully() {
        let cfg = tiny("budget");
        let data = run(&cfg);
        let _ = std::fs::remove_dir_all(&cfg.storage_root);

        let unbounded = &data.budgets[0];
        assert_eq!(unbounded.mean_pruned_floor, 0.0, "no budget, no pruning");
        assert_eq!(
            unbounded.old_success.0, unbounded.old_success.1,
            "unbounded retention keeps old blocks verifiable"
        );
        assert_eq!(unbounded.old_pruned_misses, 0);

        let tight = &data.budgets[1];
        assert!(tight.mean_pruned_floor > 0.0, "budget must prune");
        assert!(
            tight.old_pruned_misses > 0,
            "pruned targets must surface as graceful TargetPruned misses"
        );
        assert_eq!(
            tight.old_success.0 + tight.old_pruned_misses + tight.old_path_pruned_failures,
            tight.old_success.1,
            "every old probe succeeds, reports a pruned target, or fails \
with pruned evidence on the path — never an unexplained failure"
        );
        assert_eq!(
            tight.mid_success.0, tight.mid_success.1,
            "blocks above the floor stay verifiable"
        );
        assert!(
            tight.mean_disk_bytes < unbounded.mean_disk_bytes,
            "the budget must actually shrink disk usage"
        );
        // The budget is honoured up to one tail segment of slack per node
        // (compaction runs at segment rolls and never drops the tail).
        let cap = tight.budget_bytes.unwrap() as f64 + cfg.storage.segment_bytes as f64;
        assert!(
            tight.mean_disk_bytes <= cap,
            "disk {} exceeds budget {} + segment slack",
            tight.mean_disk_bytes,
            cap
        );
        // The Eq. 2 model prices exactly the retained window: fewer
        // retained blocks ⇒ proportionally smaller modelled footprint.
        assert!(tight.mean_retained_blocks < unbounded.mean_retained_blocks);
        assert!(tight.eq2_retained_bytes < unbounded.eq2_retained_bytes);
        let per_block_tight = tight.eq2_retained_bytes / tight.mean_retained_blocks;
        let per_block_unbounded = unbounded.eq2_retained_bytes / unbounded.mean_retained_blocks;
        assert!(
            (per_block_tight / per_block_unbounded - 1.0).abs() < 0.15,
            "Eq. 2 per-block cost should be budget-independent: {per_block_tight} vs {per_block_unbounded}"
        );
    }

    #[test]
    fn warm_restart_beats_cold_restart() {
        let cfg = tiny("warm");
        let data = run(&cfg);
        let _ = std::fs::remove_dir_all(&cfg.storage_root);

        let cold = &data.warm[0];
        let warm = &data.warm[1];
        assert!(!cold.persist && warm.persist);
        assert_eq!(cold.headers_after_restart, 0, "cold restart loses H_i");
        assert!(warm.headers_after_restart > 0, "warm restart restores H_i");
        assert!(
            warm.hit_rate > cold.hit_rate,
            "persisted H_i must raise the TPS hit-rate: warm {} vs cold {}",
            warm.hit_rate,
            cold.hit_rate
        );
        assert!(
            warm.req_child_sent < cold.req_child_sent,
            "warm TPS must save REQ_CHILD traffic"
        );
    }
}
