//! The `engine_mem` and `engine_disk` workloads: the in-process slot engine
//! at paper scale, driven by one thread in a closed loop.
//!
//! `engine_mem` keeps chains in memory, so crypto, `core::pop` and
//! `core::store` do all the work and `storage` and `net` do none.
//! `engine_disk` runs the identical schedule over `DurableStore`, then
//! crashes and restarts every node, so append+fsync, disk-served audit
//! reads and segment replay are all in one workload: a write gain that
//! costs reads or recovery shows.

use crate::cal::{Calibrator, DiskKernel};
use crate::inputs::{adversaries, audit_target, deployment_seeds, SIDE_M};
use crate::report::{dir_bytes, peak_rss_mb, Metric, Pass, TempDir};
use crate::spans::{set_request, span};
use crate::stats::{median, quantile};
use crate::traced::{TracedFactory, DISK, MEMORY};
use std::time::Instant;
use tldag_core::block::BlockId;
use tldag_core::network::TldagNetwork;
use tldag_core::store::{BackendFactory, MemoryBackendFactory};
use tldag_core::workload::VerificationWorkload;
use tldag_core::Behavior;
use tldag_crypto::Digest;
use tldag_net::runtime::{deployment_protocol_config, deployment_topology};
use tldag_obs::Phase;
use tldag_sim::bus::TrafficClass;
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::{DetRng, NodeId};
use tldag_storage::{DiskFactory, StorageOptions};

/// Paper scale: |V| = 50.
pub const NODES: usize = 50;
/// Paper scale: γ = 16, so a proof path needs 17 distinct nodes.
pub const GAMMA: usize = 16;
/// Edges every generated deployment has (mean degree 18.0, the middle of
/// what `deployment_topology(_, 50, 300.0)` produces).
pub const EDGES: usize = 450;
/// The paper's verification workload audits blocks at least |V| slots old.
const MIN_AGE: u64 = NODES as u64;
/// Warm-up: in-slot PoP starts at slot `MIN_AGE`; ten more slots fill the
/// trust caches before anything is timed.
const WARMUP_SLOTS: u64 = MIN_AGE + 10;
/// Adversaries in the adversarial audit: 24 of 50, the paper's "49%".
const ADVERSARIES: usize = 24;

/// Where chains live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `core::store::BlockStore`.
    Memory,
    /// `storage::DurableStore`, one directory per node, fsync per slot.
    Disk,
}

/// Deployments a pass visits in turn. Each is set up once, so this is also
/// how many times set-up is timed.
const DEPLOYMENTS: usize = 3;
/// Slots per ingest segment.
const SLOTS_PER_SEGMENT: u64 = 6;
/// Operator audits per audit segment. Not the issue's 250: at ~0.5 ms an
/// audit, 500 make the ~0.25 s a segment needs for the kernel to see the
/// same host speed the work does.
const AUDITS_PER_SEGMENT: usize = 500;

/// How much work one pass does. Fixed by operation count: a faster program
/// finishes sooner, it is not given more to do.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Ingest segments, and audit segments, per deployment.
    pub segments: usize,
    /// Audits under 24/50 adversaries per deployment (counted, not timed).
    pub adversarial_audits: usize,
}

impl Sizing {
    /// The pass sized for `--seconds`; 20 s is the reference the issue's
    /// counts (24 × 6 slots, 24 audit segments, 600 adversarial audits)
    /// belong to, here split evenly over three deployments.
    pub fn for_seconds(seconds: f64) -> Self {
        let share = seconds / 20.0;
        Sizing {
            segments: ((8.0 * share).round() as usize).max(2),
            adversarial_audits: ((200.0 * share).round() as usize).max(50),
        }
    }

    /// Slots one deployment has executed when its digest is taken.
    pub fn slots(&self) -> u64 {
        WARMUP_SLOTS + self.segments as u64 * SLOTS_PER_SEGMENT
    }
}

fn build(backend: Backend, traced: bool, seed: u64, dir: Option<&TempDir>) -> TldagNetwork {
    let topology = span("sim.topology", || deployment_topology(seed, NODES, SIDE_M));
    let cfg = deployment_protocol_config(GAMMA);
    let schedule = GenerationSchedule::uniform(topology.len());
    let (factory, names): (Box<dyn BackendFactory>, _) = match backend {
        Backend::Memory => (Box::new(MemoryBackendFactory), MEMORY),
        Backend::Disk => {
            let root = dir.expect("disk backend needs a directory").path();
            // Default options and the default fsync-per-slot policy: what
            // `tldag run --storage disk` gives an operator.
            (
                Box::new(DiskFactory::new(root, StorageOptions::default())),
                DISK,
            )
        }
    };
    let factory: Box<dyn BackendFactory> = if traced {
        Box::new(TracedFactory::new(factory, names))
    } else {
        factory
    };
    let mut net = span("core.build", || {
        TldagNetwork::with_factory(cfg, topology, schedule, seed, factory)
    });
    net.set_verification_workload(VerificationWorkload::RandomPast {
        min_age_slots: MIN_AGE,
    });
    net
}

/// Runs `slots` slots, one span tree per slot, and returns
/// `(blocks, pop attempts, pop successes, storage errors)`.
fn run_slots(net: &mut TldagNetwork, slots: u64) -> (u64, u64, u64, u64) {
    let (mut blocks, mut attempts, mut successes, mut errors) = (0, 0, 0, 0);
    for _ in 0..slots {
        set_request(net.slot());
        match span("bench.slot", || span("core.step", || net.try_step())) {
            Ok(summary) => {
                blocks += summary.blocks_generated as u64;
                attempts += summary.pop_attempts as u64;
                successes += summary.pop_successes as u64;
            }
            Err(_) => errors += 1,
        }
    }
    (blocks, attempts, successes, errors)
}

fn total_tx_bytes(net: &TldagNetwork) -> u64 {
    TrafficClass::ALL
        .iter()
        .map(|&class| net.accounting().network_tx(class).bits())
        .sum::<u64>()
        / 8
}

fn total_fsyncs(net: &TldagNetwork) -> u64 {
    net.nodes().iter().map(|n| n.store().fsync_count()).sum()
}

/// Everything a pass adds up across its deployments.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    setup_norm: Vec<f64>,
    setup_raw: Vec<f64>,
    ingest_blocks: u64,
    ingest_norm_s: f64,
    ingest_raw_s: f64,
    /// Microseconds inside the five slot phases during ingest, by phase.
    phase_us: [u64; 5],
    ingest_slots: u64,
    ingest_fsyncs: u64,
    blocks: u64,
    tx_bytes: u64,
    store_bytes: u64,
    disk_bytes: u64,
    pop_attempts: u64,
    pop_successes: u64,
    audits: Audits,
    adv_audits: u64,
    adv_ok: u64,
    recover_norm_ms: Vec<f64>,
    recover_raw_ms: Vec<f64>,
    digests: Vec<Digest>,
    /// Per deployment, adversary placements drawn and turned away because
    /// they left an honest owner without a proof path.
    placements_turned_away: Vec<usize>,
}

const PHASES: [(Phase, &str); 5] = [
    (Phase::Generate, "core.phase_generate_us_mean"),
    (Phase::Exchange, "core.phase_exchange_us_mean"),
    (Phase::Gossip, "core.phase_gossip_us_mean"),
    (Phase::Verify, "core.phase_verify_us_mean"),
    (Phase::Commit, "core.phase_commit_us_mean"),
];

fn phase_us(net: &TldagNetwork) -> [u64; 5] {
    let snapshot = net.phase_timings().snapshot();
    PHASES.map(|(phase, _)| {
        snapshot
            .iter()
            .find(|(p, _)| *p == phase)
            .map_or(0, |(_, h)| h.sum_micros)
    })
}

/// Seconds `net` has spent at its commit point so far: on disk, waiting for
/// one `fdatasync` per node per slot; next to nothing in memory. This is the
/// share of a segment the disk kernel normalises.
fn commit_s(net: &TldagNetwork) -> f64 {
    let commit = PHASES
        .iter()
        .position(|(phase, _)| *phase == Phase::Commit)
        .expect("PHASES lists the commit phase");
    phase_us(net)[commit] as f64 / 1e6
}

/// Operator audits, timed: what an engine workload and a wire workload
/// both report as `audit_us_*`.
#[derive(Default)]
pub struct Audits {
    /// Audits run.
    pub done: u64,
    /// Audits that did not reach consensus.
    pub failed: u64,
    /// Messages all audits sent.
    pub msgs: u64,
    /// Path extensions served by the trust cache.
    pub tps_hits: u64,
    /// Path extensions in all (trust cache, own store or a request).
    pub extensions: u64,
    /// Each segment's speed-normalised median, in microseconds.
    pub p50_norm: Vec<f64>,
    /// Each segment's speed-normalised 90th percentile.
    pub p90_norm: Vec<f64>,
    /// Each segment's median as measured.
    pub p50_raw: Vec<f64>,
}

impl Audits {
    /// Untimed warm-up: every node of `among` audits every other's every
    /// block at least `min_age` slots old, once, committing what it learns.
    /// After it every trust cache holds every header an audit can reach, so
    /// the timed segments that follow are identical work whatever the seed.
    pub fn sweep(&mut self, net: &mut TldagNetwork, among: &[NodeId], min_age: u64) {
        let eligible = (net.slot() - min_age) as u32;
        for &validator in among {
            for &owner in among.iter().filter(|&&owner| owner != validator) {
                for seq in 0..eligible {
                    let report = net.run_pop(validator, BlockId::new(owner, seq), true);
                    self.done += 1;
                    self.failed += u64::from(!report.is_success());
                }
            }
        }
    }

    /// One segment of `count` audits `run_pop(validator != owner, random
    /// block at least min_age slots old, commit = true)` drawn from `among`.
    /// A run's value is the median across segments of each segment's own
    /// percentile. `commit = true`: a probe (`false`) clones the trust
    /// cache first and the clone would be what is timed. Committing fills
    /// the cache, and a fuller cache makes a longer walk, so a segment
    /// costs somewhat more than the one before it; the seed and the counts
    /// fix the sequence, so the median segment is the same work in every
    /// run. (Where that growth is steep, on the wire workloads' four-node
    /// chains, [`Audits::sweep`] fills the caches first.)
    pub fn segment(
        &mut self,
        net: &mut TldagNetwork,
        rng: &mut DetRng,
        among: &[NodeId],
        min_age: u64,
        count: usize,
        cal: &mut Calibrator,
    ) {
        let mut samples_us = Vec::with_capacity(count);
        let (_, seg) = cal.segment(|| {
            for _ in 0..count {
                let (validator, target) = audit_target(rng, among, net.slot(), min_age);
                set_request(self.done);
                let started = Instant::now();
                let report = span("bench.audit", || {
                    span("core.run_pop", || net.run_pop(validator, target, true))
                });
                samples_us.push(started.elapsed().as_secs_f64() * 1e6);
                self.done += 1;
                if !report.is_success() {
                    eprintln!(
                        "audit of {target} by {validator} failed: {:?}",
                        report.outcome
                    );
                    self.failed += 1;
                }
                self.msgs += report.metrics.total_messages();
                self.tps_hits += report.metrics.tps_extensions;
                self.extensions += report.metrics.tps_extensions
                    + report.metrics.own_store_hits
                    + report.metrics.req_child_sent;
            }
        });
        self.p50_raw.push(quantile(&samples_us, 0.5));
        self.p50_norm.push(quantile(&samples_us, 0.5) * seg.scale);
        self.p90_norm.push(quantile(&samples_us, 0.9) * seg.scale);
    }
}

/// One deployment through the whole schedule: set-up, ingest, operator
/// audits, adversarial audits, and (on disk) recovery.
fn visit(
    backend: Backend,
    seed: u64,
    sizing: Sizing,
    traced: bool,
    cal: &mut Calibrator,
    t: &mut Totals,
) {
    // --- Set-up: build + warm-up, speed-normalised.
    let dir = (backend == Backend::Disk).then(|| TempDir::new("engine"));
    set_request(t.setup_norm.len() as u64);
    let ((mut net, warm), seg) = cal.segment(|| {
        span("bench.setup", || {
            let mut net = build(backend, traced, seed, dir.as_ref());
            let warm = run_slots(&mut net, WARMUP_SLOTS);
            (net, warm)
        })
    });
    let (_, attempts, successes, errors) = warm;
    t.attempted += attempts + errors;
    t.failed += attempts - successes + errors;
    t.setup_norm.push(seg.norm_s(commit_s(&net)));
    t.setup_raw.push(seg.raw_s);

    // --- Ingest: progressive (every slot lengthens every chain), so the
    // run's value is total blocks over total normalised time.
    let phases_before = phase_us(&net);
    let fsyncs_before = total_fsyncs(&net);
    for _ in 0..sizing.segments {
        let committing_before = commit_s(&net);
        let ((blocks, attempts, successes, errors), seg) =
            cal.segment(|| run_slots(&mut net, SLOTS_PER_SEGMENT));
        t.ingest_blocks += blocks;
        t.attempted += attempts + errors;
        t.failed += attempts - successes + errors;
        t.ingest_norm_s += seg.norm_s(commit_s(&net) - committing_before);
        t.ingest_raw_s += seg.raw_s;
        t.ingest_slots += SLOTS_PER_SEGMENT;
    }
    for (total, (after, before)) in t
        .phase_us
        .iter_mut()
        .zip(phase_us(&net).iter().zip(phases_before))
    {
        *total += after - before;
    }
    t.ingest_fsyncs += total_fsyncs(&net) - fsyncs_before;
    let digest = net.network_digest();
    t.digests.push(digest);
    t.blocks += net.total_blocks() as u64;
    t.tx_bytes += total_tx_bytes(&net);
    let disk_bytes = dir.as_ref().map_or(0, |d| dir_bytes(d.path()));
    t.disk_bytes += disk_bytes;
    t.store_bytes += match backend {
        Backend::Memory => net
            .nodes()
            .iter()
            .map(|n| n.store().resident_bytes() as u64)
            .sum(),
        Backend::Disk => disk_bytes,
    };
    let (pop_attempts, pop_successes) = net.pop_counters();
    t.pop_attempts += pop_attempts;
    t.pop_successes += pop_successes;
    if backend == Backend::Disk {
        // Same schedule, same chains: the disk engine must land on the
        // memory engine's digest.
        t.attempted += 1;
        let matches = digest == reference_digest(seed, sizing.slots());
        if !matches {
            eprintln!("engine_disk: digest differs from the memory engine's on seed {seed}");
        }
        t.failed += u64::from(!matches);
    }

    // --- Operator audits.
    let everyone: Vec<NodeId> = net.topology().node_ids().collect();
    let mut audit_rng = DetRng::seed_from(seed).fork(0xa0d1);
    for _ in 0..sizing.segments {
        t.audits.segment(
            &mut net,
            &mut audit_rng,
            &everyone,
            MIN_AGE,
            AUDITS_PER_SEGMENT,
            cal,
        );
    }

    // --- Audits with 24 of 50 nodes malicious: counted, not timed.
    let mut adv_rng = DetRng::seed_from(seed).fork(0xadd);
    let (malicious, turned_away) = adversaries(net.topology(), &mut adv_rng, ADVERSARIES, GAMMA);
    t.placements_turned_away.push(turned_away);
    for (i, &id) in malicious.iter().enumerate() {
        let behavior = if i % 2 == 0 {
            Behavior::Unresponsive
        } else {
            Behavior::CorruptReply
        };
        net.set_behavior(id, behavior);
    }
    t.attempted += 1;
    if malicious.len() != ADVERSARIES {
        eprintln!(
            "only {} of {ADVERSARIES} adversaries could be placed",
            malicious.len()
        );
        t.failed += 1;
    }
    let honest: Vec<NodeId> = everyone
        .iter()
        .copied()
        .filter(|id| !malicious.contains(id))
        .collect();
    for _ in 0..sizing.adversarial_audits {
        let (validator, target) = audit_target(&mut adv_rng, &honest, net.slot(), MIN_AGE);
        set_request(t.adv_audits);
        let report = span("bench.adv_audit", || {
            span("core.run_pop", || net.run_pop(validator, target, true))
        });
        t.adv_audits += 1;
        t.attempted += 1;
        if report.is_success() {
            t.adv_ok += 1;
        } else {
            eprintln!(
                "adversarial audit of {target} by {validator} failed: {:?}",
                report.outcome
            );
            t.failed += 1;
        }
    }

    // --- Recovery (disk): kill and restart every node, timed per node.
    if backend == Backend::Disk {
        let mut raw_ms = Vec::with_capacity(everyone.len());
        let (_, seg) = cal.segment(|| {
            for &id in &everyone {
                let chain_before = net.chain_digest(id);
                let len_before = net.node(id).chain_len();
                net.crash_node(id);
                set_request(u64::from(id.0));
                let started = Instant::now();
                let recovered = span("bench.restart", || {
                    span("core.restart_node", || net.restart_node(id))
                });
                raw_ms.push(started.elapsed().as_secs_f64() * 1e3);
                t.attempted += 1;
                let whole = recovered.is_ok_and(|n| n == len_before)
                    && net.chain_digest(id) == chain_before;
                if !whole {
                    eprintln!("restart of {id} did not recover its whole chain");
                    t.failed += 1;
                }
            }
        });
        t.recover_norm_ms
            .extend(raw_ms.iter().map(|ms| ms * seg.scale));
        t.recover_raw_ms.extend(raw_ms);
    }
}

/// Runs one pass of an engine workload over the deployments `seed` picks.
pub fn run(
    backend: Backend,
    seed: u64,
    sizing: Sizing,
    traced: bool,
    cal: &mut Calibrator,
) -> Pass {
    let mut t = Totals::default();
    let deployments = deployment_seeds(seed, NODES, EDGES, GAMMA, DEPLOYMENTS);
    cal.disk = (backend == Backend::Disk).then(DiskKernel::new);
    for &seed in &deployments.seeds {
        visit(backend, seed, sizing, traced, cal, &mut t);
    }
    cal.disk = None;
    println!(
        "inputs: {DEPLOYMENTS} deployments kept of {} drawn for {EDGES} edges, {} of them turned away for a node \
         without a proof path; adversary placements turned away per deployment before one left every honest \
         owner a proof path: {:?}",
        deployments.drawn, deployments.pathless, t.placements_turned_away
    );

    let blocks = t.blocks as f64;
    let normalised = match backend {
        Backend::Memory => "normalised",
        Backend::Disk => "normalised, the commit point by the disk kernel",
    };
    let end_to_end = vec![
        Metric::new("setup_s", median(&t.setup_norm), "s").note(format!(
            "{normalised}; raw median {:.4} s over {} set-ups",
            median(&t.setup_raw),
            t.setup_raw.len()
        )),
        Metric::new(
            "blocks_per_s",
            t.ingest_blocks as f64 / t.ingest_norm_s,
            "1/s",
        )
        .note(format!(
            "{normalised}; raw {:.1}/s, {} blocks in {:.3} s",
            t.ingest_blocks as f64 / t.ingest_raw_s,
            t.ingest_blocks,
            t.ingest_raw_s
        )),
        Metric::new("audit_us_p50", median(&t.audits.p50_norm), "us").note(format!(
            "normalised; raw {:.1} us; {} segments x {} audits",
            median(&t.audits.p50_raw),
            t.audits.p50_raw.len(),
            AUDITS_PER_SEGMENT
        )),
        Metric::new("audit_us_p90", median(&t.audits.p90_norm), "us"),
        Metric::new("tx_bytes_per_block", t.tx_bytes as f64 / blocks, "B")
            .note("Accounting tx bits / 8, all classes"),
        Metric::new("store_bytes_per_block", t.store_bytes as f64 / blocks, "B").note(
            match backend {
                Backend::Memory => "resident_bytes of every store",
                Backend::Disk => "bytes under the storage directory",
            },
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];

    let slots = t.ingest_slots.max(1) as f64;
    let mut layer: Vec<Metric> = PHASES
        .iter()
        .zip(t.phase_us)
        .map(|((_, name), us)| Metric::new(*name, us as f64 / slots, "us"))
        .collect();
    let explained_us: u64 = t.phase_us.iter().sum();
    let slot_wall_us = t.ingest_raw_s * 1e6;
    layer.push(
        Metric::new(
            "core.phase_unexplained_share",
            1.0 - explained_us as f64 / slot_wall_us,
            "share",
        )
        .note(format!(
            "slot wall {:.0} us = phases {} us + unexplained {:.0} us",
            slot_wall_us,
            explained_us,
            slot_wall_us - explained_us as f64
        )),
    );
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    layer.extend([
        Metric::new(
            "core.pop_msgs_per_audit",
            share(t.audits.msgs, t.audits.done),
            "count",
        ),
        Metric::new(
            "core.pop_tps_hit_share",
            share(t.audits.tps_hits, t.audits.extensions),
            "share",
        ),
        Metric::new(
            "core.adv_audit_ok_share",
            share(t.adv_ok, t.adv_audits),
            "share",
        ),
        Metric::new(
            "storage.fsyncs_per_block",
            share(t.ingest_fsyncs, t.ingest_blocks),
            "count",
        ),
        Metric::new(
            "storage.disk_bytes_per_block",
            t.disk_bytes as f64 / blocks,
            "B",
        ),
        Metric::new("storage.recover_ms_p50", median(&t.recover_norm_ms), "ms").note(format!(
            "normalised; raw {:.3} ms over {} restarts",
            median(&t.recover_raw_ms),
            t.recover_raw_ms.len()
        )),
    ]);

    let counts = vec![
        (
            "digest_prefixes",
            t.digests
                .iter()
                .fold(0u64, |acc, d| acc.rotate_left(21) ^ d.prefix_u64()),
        ),
        ("blocks", t.blocks),
        ("pop_attempts", t.pop_attempts),
        ("pop_successes", t.pop_successes),
        ("tx_bytes", t.tx_bytes),
        ("store_bytes", t.store_bytes),
        ("audit_msgs", t.audits.msgs),
        ("tps_hits", t.audits.tps_hits),
        ("ingest_fsyncs", t.ingest_fsyncs),
        ("adv_audits_ok", t.adv_ok),
    ];
    Pass {
        attempted: t.attempted + t.audits.done,
        failed: t.failed + t.audits.failed,
        end_to_end,
        layer,
        counts,
        ..Pass::default()
    }
}

/// `network_digest` of the same schedule on the memory engine with the
/// verification workload off: chains do not depend on who audits whom, so
/// this is `engine_mem`'s digest at a third of the cost.
fn reference_digest(seed: u64, slots: u64) -> Digest {
    let mut net = build(Backend::Memory, false, seed, None);
    net.set_verification_workload(VerificationWorkload::Disabled);
    net.run_slots(slots);
    net.network_digest()
}
