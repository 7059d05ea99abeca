//! Slot-loop scaling — the experiment behind the sharded engine and the
//! group-commit storage layer (not a paper panel; the ROADMAP's ~10⁵-node
//! target implies it).
//!
//! Three sweeps:
//!
//! * **Threads** (memory backend, large N): the same fixed-seed run executed
//!   at 1, 2, 4, … worker threads. Reports slot-loop throughput and checks
//!   that every run produced the **byte-identical** network digest — the
//!   determinism guarantee that makes sharding safe to enable anywhere.
//! * **Verify** (memory backend, moderate N): the same thread sweep with the
//!   PoP verification workload and lossy links **on**, so the determinism
//!   check also covers the shard-parallel verify phase (per-validator link
//!   fault streams, accounting merges, trust-cache take/restore).
//! * **Sync policy** (disk backends, moderate N): per-node `fsync` vs
//!   group-committed shard logs under `per-slot` and `grouped:n` policies.
//!   Reports throughput and the measured number of fsyncs, which is the
//!   syscall count the group-commit layer exists to collapse.
//!
//! Wall-clock speedup from threads requires physical cores; on a single-core
//! host the thread sweep degenerates to ~1× (the digest check still runs).
//! The fsync collapse is core-count independent.

use std::path::PathBuf;
use std::time::Instant;
use tldag_core::config::ProtocolConfig;
use tldag_core::network::TldagNetwork;
use tldag_core::store::SyncPolicy;
use tldag_core::workload::VerificationWorkload;
use tldag_sim::engine::{GenerationSchedule, Sharding};
use tldag_sim::topology::{Topology, TopologyConfig};
use tldag_sim::DetRng;
use tldag_storage::{DiskFactory, ShardedDiskFactory, StorageOptions};

use crate::experiments::scale::Scale;
use crate::report::{Report, Table};
use crate::row;

/// Parameters of the scaling sweeps.
#[derive(Clone, Debug)]
pub struct ScalingConfig {
    /// Nodes in the thread sweep (memory backend).
    pub thread_sweep_nodes: usize,
    /// Slots per thread-sweep run.
    pub thread_sweep_slots: u64,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Nodes in the PoP-enabled determinism sweep (smaller than the thread
    /// sweep: the candidate scan is O(nodes²) per slot).
    pub verify_sweep_nodes: usize,
    /// Slots per PoP-enabled determinism run.
    pub verify_sweep_slots: u64,
    /// Nodes in the sync-policy sweep (disk backends).
    pub sync_sweep_nodes: usize,
    /// Slots per sync-policy run.
    pub sync_sweep_slots: u64,
    /// Shards (= engine threads) for the group-committed runs.
    pub sync_sweep_shards: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Root directory for the disk runs (wiped per run).
    pub storage_root: PathBuf,
}

impl ScalingConfig {
    /// Builds the configuration for a [`Scale`].
    pub fn at_scale(scale: Scale) -> Self {
        let (thread_sweep_nodes, thread_sweep_slots, threads) = match scale {
            Scale::Paper => (10_000, 5, vec![1, 2, 4, 8]),
            Scale::Quick => (1_000, 3, vec![1, 2, 4]),
        };
        let (verify_sweep_nodes, verify_sweep_slots) = match scale {
            Scale::Paper => (1_500, 6),
            Scale::Quick => (300, 4),
        };
        let (sync_sweep_nodes, sync_sweep_slots) = match scale {
            Scale::Paper => (256, 12),
            Scale::Quick => (48, 6),
        };
        ScalingConfig {
            thread_sweep_nodes,
            thread_sweep_slots,
            threads,
            verify_sweep_nodes,
            verify_sweep_slots,
            sync_sweep_nodes,
            sync_sweep_slots,
            sync_sweep_shards: 4,
            seed: 1042,
            storage_root: std::env::temp_dir().join(format!("tldag-fig10-{}", std::process::id())),
        }
    }
}

/// One measured run of the thread sweep.
#[derive(Clone, Debug)]
pub struct ThreadSample {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock milliseconds for the whole run.
    pub wall_ms: f64,
    /// Blocks generated per second of wall time.
    pub blocks_per_sec: f64,
    /// Throughput relative to the single-threaded run.
    pub speedup: f64,
    /// Hex prefix of the run's network digest (chains of all nodes).
    pub digest: String,
}

/// One measured run of the sync-policy sweep.
#[derive(Clone, Debug)]
pub struct SyncSample {
    /// Human-readable storage configuration.
    pub config: String,
    /// Wall-clock milliseconds for the whole run.
    pub wall_ms: f64,
    /// Blocks generated per second of wall time.
    pub blocks_per_sec: f64,
    /// Physical fsyncs issued across the run.
    pub fsyncs: u64,
    /// Throughput relative to the per-node-fsync baseline.
    pub speedup: f64,
}

/// One measured run of the PoP-enabled determinism sweep.
#[derive(Clone, Debug)]
pub struct VerifySample {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock milliseconds for the whole run.
    pub wall_ms: f64,
    /// Lifetime PoP attempts / successes — must match across thread counts.
    pub pop_counters: (u64, u64),
    /// Hex prefix of the run's network digest.
    pub digest: String,
}

/// Results of all three sweeps.
#[derive(Clone, Debug)]
pub struct ScalingData {
    /// Thread-sweep samples, in sweep order (threads ascending).
    pub thread_samples: Vec<ThreadSample>,
    /// Whether every thread count produced the identical network digest.
    pub digests_identical: bool,
    /// PoP-enabled determinism samples (verification workload + lossy
    /// links on), exercising the shard-parallel verify phase at scale.
    pub verify_samples: Vec<VerifySample>,
    /// Whether the PoP-enabled runs matched (digests **and** counters).
    pub verify_identical: bool,
    /// Sync-policy samples, baseline first.
    pub sync_samples: Vec<SyncSample>,
}

/// A deployment whose mean degree stays moderate (~7) at any scale: a
/// jittered grid with spacing below the radio range, the standard dense-mesh
/// IoT layout. The anchored placement of `Topology::random_connected` is the
/// wrong tool here — it grows a connected *blob*, so degree (and with it
/// header size and gossip cost) explodes with `nodes`; grid spacing pins the
/// density instead, and adjacency of grid neighbours guarantees
/// connectivity.
fn scaled_topology(nodes: usize, seed: u64) -> Topology {
    let range_m = TopologyConfig::paper_default().range_m; // 50 m radios
    let spacing = range_m * 0.66; // grid neighbours always in range
    let jitter = range_m * 0.15; // ±: breaks the lattice symmetry
    let cols = (nodes as f64).sqrt().ceil() as usize;
    let mut rng = DetRng::seed_from(seed);
    let positions = (0..nodes)
        .map(|i| {
            let (row, col) = (i / cols, i % cols);
            tldag_sim::geometry::Point::new(
                col as f64 * spacing + rng.range_f64(-jitter, jitter),
                row as f64 * spacing + rng.range_f64(-jitter, jitter),
            )
        })
        .collect();
    Topology::from_positions(positions, range_m)
}

fn protocol() -> ProtocolConfig {
    // Small bodies and the CLI's mining difficulty: the sweep measures the
    // slot loop (mining, signing, gossip, sync), not payload memcpy.
    ProtocolConfig::paper_default()
        .with_body_bits(1024)
        .with_gamma(3)
        .with_difficulty(6)
}

fn io_bound_protocol() -> ProtocolConfig {
    // The sync-policy sweep models the disk-bound regime group commit
    // exists for: lightweight sensor blocks (no mining, tiny bodies) where
    // the fsync syscall — not block construction — caps slot throughput.
    ProtocolConfig::paper_default()
        .with_body_bits(256)
        .with_gamma(3)
        .with_difficulty(0)
}

fn run_memory(cfg: &ScalingConfig, topology: &Topology, threads: usize) -> ThreadSample {
    let schedule = GenerationSchedule::uniform(topology.len());
    let mut net = TldagNetwork::new(protocol(), topology.clone(), schedule, cfg.seed);
    net.set_sharding(Sharding::threads(threads));
    net.set_verification_workload(VerificationWorkload::Disabled);
    let start = Instant::now();
    net.run_slots(cfg.thread_sweep_slots);
    let wall = start.elapsed();
    let wall_ms = wall.as_secs_f64() * 1e3;
    let mut digest = net.network_digest().to_string();
    digest.truncate(16);
    ThreadSample {
        threads,
        wall_ms,
        blocks_per_sec: net.total_blocks() as f64 / wall.as_secs_f64(),
        speedup: 0.0, // filled in by the caller relative to threads=1
        digest,
    }
}

/// One run with the verification workload **on** (plus lossy links), so the
/// shard-parallel PoP phase — the most intricate parallel phase — is part of
/// what the determinism check covers.
fn run_verify(cfg: &ScalingConfig, topology: &Topology, threads: usize) -> VerifySample {
    let schedule = GenerationSchedule::uniform(topology.len());
    let mut net = TldagNetwork::new(protocol(), topology.clone(), schedule, cfg.seed);
    net.set_sharding(Sharding::threads(threads));
    net.set_verification_workload(VerificationWorkload::RandomPast { min_age_slots: 2 });
    net.set_link_faults(tldag_sim::fault::LinkFaults::lossy(
        0.02,
        DetRng::seed_from(cfg.seed ^ 0x10),
    ));
    let start = Instant::now();
    net.run_slots(cfg.verify_sweep_slots);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut digest = net.network_digest().to_string();
    digest.truncate(16);
    VerifySample {
        threads,
        wall_ms,
        pop_counters: net.pop_counters(),
        digest,
    }
}

fn run_disk(
    cfg: &ScalingConfig,
    topology: &Topology,
    label: &str,
    sharded: bool,
    policy: SyncPolicy,
) -> SyncSample {
    let schedule = GenerationSchedule::uniform(topology.len());
    let root = cfg.storage_root.join(label.replace([' ', ':'], "-"));
    let factory: Box<dyn tldag_core::store::BackendFactory> = if sharded {
        Box::new(ShardedDiskFactory::new(
            &root,
            cfg.sync_sweep_shards,
            topology.len(),
        ))
    } else {
        Box::new(DiskFactory::new(&root, StorageOptions::default()))
    };
    let mut net = TldagNetwork::with_factory(
        io_bound_protocol(),
        topology.clone(),
        schedule,
        cfg.seed,
        factory,
    );
    net.set_sharding(Sharding::threads(cfg.sync_sweep_shards));
    net.set_sync_policy(policy);
    net.set_verification_workload(VerificationWorkload::Disabled);
    let start = Instant::now();
    net.run_slots(cfg.sync_sweep_slots);
    let wall = start.elapsed();
    // Per-node stores count their own fsyncs; sharded handles report the
    // shared shard log's count, so sum one representative per shard — the
    // first node of each contiguous band.
    let fsyncs: u64 = if sharded {
        Sharding::threads(cfg.sync_sweep_shards)
            .chunk_ranges(topology.len())
            .iter()
            .map(|band| {
                net.node(tldag_sim::NodeId(band.start as u32))
                    .store()
                    .fsync_count()
            })
            .sum()
    } else {
        net.topology()
            .node_ids()
            .map(|id| net.node(id).store().fsync_count())
            .sum()
    };
    let wall_ms = wall.as_secs_f64() * 1e3;
    let blocks_per_sec = net.total_blocks() as f64 / wall.as_secs_f64();
    drop(net);
    let _ = std::fs::remove_dir_all(&root);
    SyncSample {
        config: label.to_string(),
        wall_ms,
        blocks_per_sec,
        fsyncs,
        speedup: 0.0, // filled in by the caller relative to the baseline
    }
}

/// Runs both sweeps.
pub fn run(cfg: &ScalingConfig) -> ScalingData {
    // --- Thread sweep (memory backend). One topology shared by all runs.
    eprintln!(
        "fig10_scaling: building {}-node deployment …",
        cfg.thread_sweep_nodes
    );
    let topo = scaled_topology(cfg.thread_sweep_nodes, cfg.seed);
    let mut thread_samples: Vec<ThreadSample> = Vec::new();
    for &threads in &cfg.threads {
        eprintln!(
            "fig10_scaling: thread sweep {} nodes × {} slots, {} thread(s) …",
            cfg.thread_sweep_nodes, cfg.thread_sweep_slots, threads
        );
        thread_samples.push(run_memory(cfg, &topo, threads));
    }
    let base = thread_samples[0].blocks_per_sec;
    for s in &mut thread_samples {
        s.speedup = s.blocks_per_sec / base;
    }
    let digests_identical = thread_samples
        .iter()
        .all(|s| s.digest == thread_samples[0].digest);

    // --- PoP-enabled determinism sweep.
    let topo = scaled_topology(cfg.verify_sweep_nodes, cfg.seed ^ 0x9e37);
    let mut verify_samples = Vec::new();
    for &threads in &cfg.threads {
        eprintln!(
            "fig10_scaling: verify sweep {} nodes × {} slots (PoP on), {} thread(s) …",
            cfg.verify_sweep_nodes, cfg.verify_sweep_slots, threads
        );
        verify_samples.push(run_verify(cfg, &topo, threads));
    }
    let verify_identical = verify_samples.iter().all(|s| {
        s.digest == verify_samples[0].digest && s.pop_counters == verify_samples[0].pop_counters
    });

    // --- Sync-policy sweep (disk backends).
    let topo = scaled_topology(cfg.sync_sweep_nodes, cfg.seed ^ 0x51ac);
    let shards = cfg.sync_sweep_shards;
    let mut sync_samples = Vec::new();
    for (label, sharded, policy) in [
        ("per-node fsync, per-slot", false, SyncPolicy::PerSlot),
        ("group-commit, per-slot", true, SyncPolicy::PerSlot),
        ("group-commit, grouped:4", true, SyncPolicy::Grouped(4)),
    ] {
        eprintln!(
            "fig10_scaling: sync sweep `{label}` ({} nodes × {} slots, {shards} shards) …",
            cfg.sync_sweep_nodes, cfg.sync_sweep_slots
        );
        sync_samples.push(run_disk(cfg, &topo, label, sharded, policy));
    }
    let base = sync_samples[0].blocks_per_sec;
    for s in &mut sync_samples {
        s.speedup = s.blocks_per_sec / base;
    }
    let _ = std::fs::remove_dir_all(&cfg.storage_root);

    ScalingData {
        thread_samples,
        digests_identical,
        verify_samples,
        verify_identical,
        sync_samples,
    }
}

/// All three scaling sweeps at `scale`. Invariants: every thread count
/// produces the identical chains, with and without the PoP phase.
pub fn report(scale: Scale) -> Report {
    let cfg = ScalingConfig::at_scale(scale);
    // Thread speedups need physical cores: on one core the sweep reads ~1×
    // (the determinism check still runs), so the count is part of the result.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let data = run(&cfg);
    let mut threads = Table::new(
        "fig10_scaling_threads",
        format!(
            "slot-loop throughput vs worker threads ({} nodes, {} slots, memory)",
            cfg.thread_sweep_nodes, cfg.thread_sweep_slots
        ),
    );
    for s in &data.thread_samples {
        threads.push(row![
            "threads" => s.threads,
            "wall_ms" => s.wall_ms,
            "blocks_per_sec" => s.blocks_per_sec,
            "speedup" => s.speedup,
            "digest" => s.digest.as_str(),
        ]);
    }
    let mut verify = Table::new(
        "fig10_scaling_verify",
        format!(
            "determinism with PoP + lossy links on ({} nodes, {} slots, memory)",
            cfg.verify_sweep_nodes, cfg.verify_sweep_slots
        ),
    );
    for s in &data.verify_samples {
        verify.push(row![
            "threads" => s.threads,
            "wall_ms" => s.wall_ms,
            "pop_attempts" => s.pop_counters.0,
            "pop_successes" => s.pop_counters.1,
            "digest" => s.digest.as_str(),
        ]);
    }
    let mut sync = Table::new(
        "fig10_scaling_sync",
        format!(
            "disk-mode throughput vs sync policy ({} nodes, {} slots, {} shards)",
            cfg.sync_sweep_nodes, cfg.sync_sweep_slots, cfg.sync_sweep_shards
        ),
    );
    for s in &data.sync_samples {
        sync.push(row![
            "config" => s.config.as_str(),
            "wall_ms" => s.wall_ms,
            "blocks_per_sec" => s.blocks_per_sec,
            "fsyncs" => s.fsyncs,
            "speedup" => s.speedup,
        ]);
    }
    let mut report = Report::new("fig10_scaling", scale)
        .param("cores_available", cores)
        .param("thread_sweep_nodes", cfg.thread_sweep_nodes)
        .param("verify_sweep_nodes", cfg.verify_sweep_nodes)
        .param("sync_sweep_nodes", cfg.sync_sweep_nodes);
    report.invariant(
        "chain digests identical across thread counts",
        data.digests_identical,
    );
    report.invariant(
        "PoP-phase digests and counters identical across thread counts",
        data.verify_identical,
    );
    report.tables = vec![threads, verify, sync];
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_deterministic_and_collapses_fsyncs() {
        let mut cfg = ScalingConfig::at_scale(Scale::Quick);
        // Keep the unit test fast: tiny run, 1 vs 2 threads.
        cfg.thread_sweep_nodes = 64;
        cfg.thread_sweep_slots = 2;
        cfg.threads = vec![1, 2];
        cfg.verify_sweep_nodes = 48;
        cfg.verify_sweep_slots = 4;
        cfg.sync_sweep_nodes = 16;
        cfg.sync_sweep_slots = 4;
        cfg.storage_root =
            std::env::temp_dir().join(format!("tldag-fig10-test-{}", std::process::id()));
        let data = run(&cfg);
        assert!(data.digests_identical, "thread counts diverged");
        assert_eq!(data.thread_samples.len(), 2);
        assert!(data.verify_identical, "PoP-enabled runs diverged");
        assert!(
            data.verify_samples[0].pop_counters.0 > 0,
            "verify sweep must actually run PoPs"
        );
        let baseline = &data.sync_samples[0];
        let grouped = &data.sync_samples[1];
        // 16 nodes × 4 slots with one fsync per node per slot vs one per
        // shard per slot.
        assert_eq!(baseline.fsyncs, 16 * 4);
        assert_eq!(grouped.fsyncs, 4 * 4);
        assert_eq!(data.sync_samples[2].fsyncs, 4, "grouped:4 syncs once");
    }
}
