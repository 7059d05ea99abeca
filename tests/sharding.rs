//! Determinism and durability guarantees of the sharded slot engine:
//! a fixed seed must produce byte-identical chains for every thread count,
//! across storage backends, and `SyncPolicy::PerSlot` must never lose a
//! committed block across a whole-process crash/restart.

use tldag::core::codec::encode_trust_cache;
use tldag::core::config::ProtocolConfig;
use tldag::core::network::TldagNetwork;
use tldag::core::store::{BackendFactory, SyncPolicy};
use tldag::core::workload::VerificationWorkload;
use tldag::crypto::Digest;
use tldag::obs::Journal;
use tldag::sim::bus::TrafficClass;
use tldag::sim::engine::{GenerationSchedule, Sharding};
use tldag::sim::fault::LinkFaults;
use tldag::sim::topology::{Topology, TopologyConfig};
use tldag::sim::{DetRng, NodeId};
use tldag::storage::{DiskFactory, ShardedDiskFactory, StorageOptions};

const NODES: usize = 32;
const SLOTS: u64 = 12;
const SEED: u64 = 4242;

fn build_network(threads: usize, factory: Option<ShardedDiskFactory>) -> TldagNetwork {
    let factory = factory.map(|f| Box::new(f) as Box<dyn BackendFactory>);
    build_network_of(NODES, threads, factory)
}

fn build_network_of(
    nodes: usize,
    threads: usize,
    factory: Option<Box<dyn BackendFactory>>,
) -> TldagNetwork {
    let mut rng = DetRng::seed_from(SEED);
    let topo = Topology::random_connected(&TopologyConfig::small(nodes), &mut rng);
    let cfg = ProtocolConfig::test_default().with_gamma(2);
    let schedule = GenerationSchedule::uniform(topo.len());
    let mut net = match factory {
        None => TldagNetwork::new(cfg, topo, schedule, SEED),
        Some(f) => TldagNetwork::with_factory(cfg, topo, schedule, SEED, f),
    };
    net.set_sharding(Sharding::threads(threads));
    // Young-enough targets so the PoP phase actually runs in every slot, and
    // lossy links so the per-validator fault streams are exercised too.
    net.set_verification_workload(VerificationWorkload::RandomPast { min_age_slots: 4 });
    net.set_link_faults(LinkFaults::lossy(0.05, DetRng::seed_from(SEED ^ 0xfa)));
    net
}

/// Everything observable about a finished run: chains, traffic, PoP
/// counters, and every node's `H_i` as it persists.
type Fingerprint = (Vec<Digest>, u64, u64, (u64, u64), usize, Vec<Vec<u8>>);

fn fingerprint(net: &TldagNetwork) -> Fingerprint {
    let chains: Vec<Digest> = net
        .topology()
        .node_ids()
        .map(|id| net.chain_digest(id))
        .collect();
    let trust = (net.nodes().iter())
        .map(|node| encode_trust_cache(node.trust_cache()))
        .collect();
    (
        chains,
        net.accounting()
            .network_total(TrafficClass::DagConstruction)
            .bits(),
        net.accounting()
            .network_total(TrafficClass::Consensus)
            .bits(),
        net.pop_counters(),
        net.total_blocks(),
        trust,
    )
}

#[test]
fn fixed_seed_is_identical_across_thread_counts() {
    // PoP on, lossy links on, and a journal whose Pop lines pin the order
    // in which the verify phase's results are merged; the `H_i` bytes pin
    // the serial commit into the shared header arena.
    let run = |threads: usize| {
        let mut net = build_network(threads, None);
        net.set_journal(Journal::bounded(usize::MAX));
        net.run_slots(SLOTS);
        (fingerprint(&net), net.journal().to_jsonl())
    };
    let (expected, transcript) = run(1);
    assert!(expected.3 .0 > 0, "PoP workload must trigger");
    assert!(
        expected.5.iter().any(|blob| blob.len() > 12),
        "the PoPs filled some H_i"
    );
    assert!(
        transcript.contains("\"kind\":\"pop\""),
        "the journal records PoPs"
    );
    assert!(
        transcript.lines().all(|line| line.contains("\"ts_ms\":0,")),
        "the engine has no clock: every event is stamped 0"
    );

    for threads in [2, 3, 8] {
        let (got, got_transcript) = run(threads);
        assert_eq!(
            got, expected,
            "threads={threads} diverged from the single-threaded run"
        );
        assert_eq!(
            got_transcript, transcript,
            "threads={threads}: journal transcripts differ"
        );
    }
}

#[test]
fn the_default_width_is_the_available_parallelism() {
    let mut rng = DetRng::seed_from(SEED);
    let topo = Topology::random_connected(&TopologyConfig::small(8), &mut rng);
    let schedule = GenerationSchedule::uniform(topo.len());
    let net = TldagNetwork::new(ProtocolConfig::test_default(), topo, schedule, SEED);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    assert_eq!(net.sharding().threads, cores);
    assert_eq!(Sharding::default().threads, cores);
}

#[test]
fn storage_backend_does_not_change_protocol_outcomes() {
    // Memory vs group-committed sharded disk, 4 threads each: the chains,
    // traffic, and PoP counters must match bit for bit.
    let mut memory = build_network(4, None);
    memory.run_slots(SLOTS);

    let dir = std::env::temp_dir().join(format!("tldag-shard-det-{}", std::process::id()));
    let mut disk = build_network(4, Some(ShardedDiskFactory::new(&dir, 4, NODES)));
    disk.run_slots(SLOTS);

    assert_eq!(fingerprint(&memory), fingerprint(&disk));
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_slot_group_commit_costs_one_fsync_per_shard_per_slot() {
    let dir = std::env::temp_dir().join(format!("tldag-shard-fsync-{}", std::process::id()));
    // The commit point fans out over at least eight threads whatever
    // `threads` says, so in every case below several of them reach one shard
    // log at once, and with (4, 1) a commit thread's chunk straddles shards:
    // the log's dirty flag must still make it one fsync per shard per slot.
    for (shards, threads) in [(4, 4), (2, 2), (4, 1)] {
        let factory = ShardedDiskFactory::new(&dir, shards, NODES);
        let mut net = build_network(threads, Some(factory));
        net.set_sync_policy(SyncPolicy::PerSlot);
        net.run_slots(SLOTS);
        // Read each log's count through the first node of its band (the
        // factory shards by the same contiguous bands as the engine).
        for (shard, band) in Sharding::threads(shards)
            .chunk_ranges(NODES)
            .iter()
            .enumerate()
        {
            let store = net.node(NodeId(band.start as u32)).store();
            assert_eq!(
                store.fsync_count(),
                SLOTS,
                "{shards} shards, {threads} threads, shard {shard}: one fsync per slot"
            );
            assert_eq!(store.durable_len(), SLOTS as usize);
        }
        drop(net);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn per_node_stores_committed_concurrently_recover_every_chain() {
    // One durable store per node: every slot's commit point syncs twelve
    // staged stores, so it takes the fan-out even at `threads(1)`.
    let nodes = 12;
    let mut memory = build_network_of(nodes, 1, None);
    memory.run_slots(20);

    let dir = std::env::temp_dir().join(format!("tldag-shard-pernode-{}", std::process::id()));
    let factory = DiskFactory::new(&dir, StorageOptions::default());
    let mut disk = build_network_of(nodes, 1, Some(Box::new(factory)));
    disk.run_slots(20);
    assert_eq!(fingerprint(&disk), fingerprint(&memory));
    for id in (0..nodes as u32).map(NodeId) {
        assert_eq!(disk.node(id).store().durable_len(), 20, "{id}");
        assert_eq!(disk.node(id).store().fsync_count(), 20, "{id}");
        disk.crash_node(id);
    }
    for id in (0..nodes as u32).map(NodeId) {
        assert_eq!(disk.restart_node(id).expect("reopen"), 20, "{id}");
    }
    assert_eq!(
        disk.network_digest(),
        memory.network_digest(),
        "every chain came back whole from its own directory"
    );
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn grouped_policy_syncs_every_n_slots() {
    let dir = std::env::temp_dir().join(format!("tldag-shard-grouped-{}", std::process::id()));
    let mut net = build_network(2, Some(ShardedDiskFactory::new(&dir, 2, NODES)));
    net.set_sync_policy(SyncPolicy::Grouped(3));
    net.run_slots(SLOTS); // 12 slots / 3 = 4 sync points
    assert_eq!(net.node(NodeId(0)).store().fsync_count(), SLOTS / 3);
    assert_eq!(
        net.node(NodeId(0)).store().durable_len(),
        SLOTS as usize,
        "last slot (11) is a Grouped(3) sync point, so everything is durable"
    );
    drop(net);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn grouped_policy_trailing_slots_need_the_shutdown_flush() {
    // 11 slots with Grouped(3): boundaries at slots 2, 5, 8 — slots 9-10 are
    // only staged. A clean shutdown must flush them via sync_storage(), or a
    // cold reattach comes back short.
    let dir = std::env::temp_dir().join(format!("tldag-shard-tail-{}", std::process::id()));
    let factory = ShardedDiskFactory::new(&dir, 2, NODES).with_options(StorageOptions {
        flush_buffer_bytes: 1 << 24,
        ..StorageOptions::default()
    });
    let mut net = build_network(2, Some(factory));
    net.set_sync_policy(SyncPolicy::Grouped(3));
    net.run_slots(11);
    assert_eq!(
        net.node(NodeId(0)).store().durable_len(),
        9,
        "slots past the last group boundary are staged, not durable"
    );
    net.sync_storage().expect("shutdown flush");
    assert_eq!(net.node(NodeId(0)).store().durable_len(), 11);
    drop(net);

    let mut revived = ShardedDiskFactory::attach(&dir, 2, NODES);
    let store = BackendFactory::reopen(&mut revived, NodeId(0)).expect("shard log reopens");
    assert_eq!(store.len(), 11, "flushed tail survives the cold reattach");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_slot_policy_loses_no_committed_block_across_process_crash() {
    let dir = std::env::temp_dir().join(format!("tldag-shard-crash-{}", std::process::id()));
    let shards = 4;
    // Huge flush buffer: unsynced records live in process memory only, so
    // dropping the network + factory models a whole-process crash.
    let factory = ShardedDiskFactory::new(&dir, shards, NODES).with_options(StorageOptions {
        flush_buffer_bytes: 1 << 24,
        ..StorageOptions::default()
    });
    let mut net = build_network(shards, Some(factory));
    net.set_sync_policy(SyncPolicy::PerSlot);
    net.run_slots(SLOTS);
    let committed: Vec<usize> = net
        .topology()
        .node_ids()
        .map(|id| net.node(id).store().durable_len())
        .collect();
    assert!(committed.iter().all(|&len| len == SLOTS as usize));
    drop(net); // the whole process dies; every handle and log goes away

    // Cold restart: a fresh factory replays the shard logs from disk.
    let mut revived = ShardedDiskFactory::attach(&dir, shards, NODES);
    for (idx, &expect) in committed.iter().enumerate() {
        let store =
            BackendFactory::reopen(&mut revived, NodeId(idx as u32)).expect("shard log reopens");
        assert_eq!(
            store.len(),
            expect,
            "node {idx}: committed blocks must survive the crash"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_and_restart_of_one_node_recovers_its_group_committed_chain() {
    let dir = std::env::temp_dir().join(format!("tldag-shard-restart-{}", std::process::id()));
    let mut net = build_network(2, Some(ShardedDiskFactory::new(&dir, 2, NODES)));
    net.set_sync_policy(SyncPolicy::PerSlot);
    net.run_slots(6);
    let victim = NodeId(3);
    let chain_before = net.node(victim).chain_len();
    net.crash_node(victim);
    net.run_slots(3);
    let recovered = net.restart_node(victim).expect("restart from shard log");
    assert_eq!(recovered, chain_before, "full chain recovered");
    net.run_slots(3);
    assert_eq!(
        net.node(victim).chain_len(),
        chain_before + 3,
        "victim resumes generating after revival"
    );
    drop(net);
    let _ = std::fs::remove_dir_all(&dir);
}
