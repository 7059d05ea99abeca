//! Retention and trust-cache persistence acceptance: fixed-seed runs stay
//! byte-identical across every storage backend with retention **off**; with
//! retention **on**, PoP requests for pruned blocks come back as graceful
//! counted misses (never a panic); a node restarted with a persisted `H_i`
//! resumes TPS warm while a cold restart starts from scratch, its `H_i`
//! back in the header arena the other nodes share; and the slot
//! engine's verification targets, looked up by generation time, are the
//! scan's on pruned, restarted and sharded durable stores.

use tldag::core::block::BlockId;
use tldag::core::config::ProtocolConfig;
use tldag::core::error::PopError;
use tldag::core::network::{derived_rng, stream, TargetPool, TldagNetwork};
use tldag::core::store::BackendFactory;
use tldag::core::workload::VerificationWorkload;
use tldag::crypto::Digest;
use tldag::sim::engine::{GenerationSchedule, Sharding};
use tldag::sim::topology::{Topology, TopologyConfig};
use tldag::sim::{DetRng, NodeId};
use tldag::storage::{DiskFactory, ShardedDiskFactory, StorageOptions};

const NODES: usize = 16;
const SLOTS: u64 = 20;
const SEED: u64 = 9_1842;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tldag-retention-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build(factory: Option<Box<dyn tldag::core::store::BackendFactory>>) -> TldagNetwork {
    let mut rng = DetRng::seed_from(SEED);
    let topo = Topology::random_connected(&TopologyConfig::small(NODES), &mut rng);
    let cfg = ProtocolConfig::test_default().with_gamma(2);
    let schedule = GenerationSchedule::uniform(topo.len());
    let mut net = match factory {
        None => TldagNetwork::new(cfg, topo, schedule, SEED),
        Some(f) => TldagNetwork::with_factory(cfg, topo, schedule, SEED, f),
    };
    net.set_verification_workload(VerificationWorkload::RandomPast { min_age_slots: 4 });
    net
}

fn digests(net: &TldagNetwork) -> Vec<Digest> {
    net.topology()
        .node_ids()
        .map(|id| net.chain_digest(id))
        .collect()
}

/// Acceptance: with retention off, `memory`, `disk`, and `disk-sharded`
/// backends produce byte-identical chains and PoP counters for a fixed
/// seed, across thread counts.
#[test]
fn backends_and_threads_agree_with_retention_off() {
    let mut reference = build(None);
    reference.run_slots(SLOTS);
    let expected = (digests(&reference), reference.pop_counters());
    assert!(expected.1 .0 > 0, "PoP workload must trigger");

    let disk_dir = scratch("det-disk");
    let mut disk = build(Some(Box::new(DiskFactory::new(
        &disk_dir,
        StorageOptions::default(),
    ))));
    disk.run_slots(SLOTS);
    assert_eq!(
        (digests(&disk), disk.pop_counters()),
        expected,
        "disk backend diverged"
    );
    drop(disk);
    let _ = std::fs::remove_dir_all(&disk_dir);

    for threads in [1usize, 3] {
        let shard_dir = scratch(&format!("det-shard-{threads}"));
        let mut sharded = build(Some(Box::new(ShardedDiskFactory::new(
            &shard_dir, threads, NODES,
        ))));
        sharded.set_sharding(Sharding::threads(threads));
        sharded.run_slots(SLOTS);
        assert_eq!(
            (digests(&sharded), sharded.pop_counters()),
            expected,
            "disk-sharded backend diverged at {threads} thread(s)"
        );
        drop(sharded);
        let _ = std::fs::remove_dir_all(&shard_dir);
    }
}

/// Acceptance: a PoP request targeting a pruned block returns a graceful
/// miss — counted in the metrics, no panic — on both disk backends.
#[test]
fn pruned_targets_miss_gracefully_on_both_disk_backends() {
    let tight = StorageOptions {
        segment_bytes: 2 * 1024,
        flush_buffer_bytes: 512,
        retain_disk_bytes: Some(4 * 1024),
        ..StorageOptions::default()
    };

    let per_node_dir = scratch("prune-disk");
    let per_node: Box<dyn tldag::core::store::BackendFactory> =
        Box::new(DiskFactory::new(&per_node_dir, tight.clone()));
    let sharded_dir = scratch("prune-shard");
    let sharded: Box<dyn tldag::core::store::BackendFactory> = Box::new(
        ShardedDiskFactory::new(&sharded_dir, 2, NODES).with_options(StorageOptions {
            // Shard logs hold a whole band of chains: scale the budget so
            // each member still ends up pruned.
            retain_disk_bytes: Some(24 * 1024),
            ..tight.clone()
        }),
    );

    for (label, factory, dir) in [
        ("disk", per_node, per_node_dir),
        ("disk-sharded", sharded, sharded_dir),
    ] {
        let mut net = build(Some(factory));
        net.set_verification_workload(VerificationWorkload::Disabled);
        net.run_slots(40);
        net.sync_storage().unwrap();

        let owner = NodeId(1);
        let floor = net.node(owner).pruned_floor();
        assert!(floor > 0, "{label}: the budget must prune node 1's prefix");

        // Target a pruned block: graceful TargetPruned, counted, no panic.
        let report = net.run_pop(NodeId(0), BlockId::new(owner, 0), false);
        assert!(!report.is_success());
        match report.outcome {
            Err(PopError::TargetPruned {
                owner: o,
                retained_from,
            }) => {
                assert_eq!(o, owner, "{label}");
                assert_eq!(retained_from, floor, "{label}");
            }
            ref other => panic!("{label}: expected TargetPruned, got {other:?}"),
        }
        assert_eq!(
            report.metrics.pruned_misses, 1,
            "{label}: the miss is counted in the metrics"
        );

        // A retained block above every floor still verifies, even though
        // responders may answer some REQ_CHILDs with pruned misses.
        let max_floor = net
            .topology()
            .node_ids()
            .map(|id| net.node(id).pruned_floor())
            .max()
            .unwrap();
        let target = BlockId::new(owner, max_floor + 2);
        let report = net.run_pop(NodeId(0), target, false);
        assert!(
            report.is_success(),
            "{label}: retained blocks stay verifiable: {:?}",
            report.outcome
        );
        drop(net);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Acceptance: a restarted node with a persisted `H_i` resumes TPS warm —
/// the restored cache serves path extensions a cold restart pays
/// `REQ_CHILD` traffic for.
#[test]
fn persisted_trust_cache_survives_restart_and_warms_tps() {
    let mut results = Vec::new();
    for persist in [false, true] {
        let dir = scratch(&format!("warm-{persist}"));
        let mut net = build(Some(Box::new(DiskFactory::new(
            &dir,
            StorageOptions::default(),
        ))));
        net.set_verification_workload(VerificationWorkload::Disabled);
        net.set_persist_trust_cache(persist);
        assert_eq!(net.persists_trust_cache(), persist);
        net.run_slots(12);

        // The victim verifies a fixed target set, filling H_i.
        let victim = NodeId(2);
        let targets: Vec<BlockId> = (0..4)
            .map(|i| BlockId::new(NodeId((4 + i) % NODES as u32), 3 + i))
            .collect();
        for &t in &targets {
            assert!(net.run_pop(victim, t, true).is_success());
        }
        let cached_before = net.node(victim).trust_cache().len();
        assert!(cached_before > 0);
        net.sync_storage().unwrap(); // commit point: persists H_i when on

        net.crash_node(victim);
        net.run_slots(3);
        net.restart_node(victim).unwrap();

        let restored = net.node(victim).trust_cache().len();
        if persist {
            assert_eq!(restored, cached_before, "warm restart restores H_i");
        } else {
            assert_eq!(restored, 0, "cold restart loses H_i");
        }

        let mut tps = 0u64;
        let mut req_child = 0u64;
        for &t in &targets {
            let report = net.run_pop(victim, t, false);
            assert!(report.is_success());
            tps += report.metrics.tps_extensions;
            req_child += report.metrics.req_child_sent;
        }
        results.push((persist, tps, req_child));
        drop(net);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let (_, cold_tps, cold_req) = results[0];
    let (_, warm_tps, warm_req) = results[1];
    assert_eq!(cold_tps, 0, "a cold cache cannot extend paths");
    assert!(warm_tps > 0, "the restored cache must serve extensions");
    assert!(
        warm_req < cold_req,
        "warm TPS must save REQ_CHILD traffic ({warm_req} vs {cold_req})"
    );
}

/// A node restarted with its persisted `H_i` rejoins the header arena the
/// other nodes share: it trusts what the decoded file holds, in the file's
/// order, and every lookup answers as the standalone decoded cache does.
#[test]
fn restarted_trust_cache_rejoins_the_shared_arena() {
    let dir = scratch("rejoin");
    let mut net = build(Some(Box::new(DiskFactory::new(
        &dir,
        StorageOptions::default(),
    ))));
    net.set_persist_trust_cache(true);
    net.run_slots(SLOTS);
    let victim = NodeId(5);
    assert!(!net.node(victim).trust_cache().is_empty());
    net.sync_storage().unwrap();
    net.crash_node(victim);
    net.run_slots(2);
    let arena_before = net.trust_arena().len();
    net.restart_node(victim).unwrap();

    let decoded = DiskFactory::new(&dir, StorageOptions::default())
        .load_trust_cache(victim)
        .unwrap()
        .expect("H_i was persisted");
    let rejoined = net.node(victim).trust_cache();
    assert!(
        std::ptr::eq(rejoined.arena(), net.trust_arena()),
        "the restarted node shares the arena"
    );
    assert_eq!(
        net.trust_arena().len(),
        arena_before,
        "every header it trusts was in the arena already"
    );
    assert!(
        rejoined.iter().eq(decoded.iter()),
        "the file's headers, in its order"
    );
    let mut probes = 0;
    for (digest, trusted) in decoded.iter() {
        let contained = trusted.header.digests.iter().map(|e| e.digest);
        for target in contained.chain([*digest]) {
            let got: Vec<_> = rejoined.children_candidates(&target).collect();
            let want: Vec<_> = decoded.children_candidates(&target).collect();
            assert_eq!(got, want, "children of {target}");
            probes += 1;
        }
    }
    assert!(
        probes > 20,
        "the comparison must see real lookups: {probes}"
    );
    net.run_slots(2);
    assert!(std::ptr::eq(
        net.node(victim).trust_cache().arena(),
        net.trust_arena()
    ));
    drop(net);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The verification targets the slot engine draws from, against the scan
/// they replaced: every qualifying block of every other live owner, listed
/// from `iter_meta` and drawn with `rng.choose`. Checks every validator id
/// (plus one past the last) under several workloads at the network's
/// current slot, and returns how many draws found a target.
fn assert_targets_match_the_scan(net: &TldagNetwork, label: &str) -> usize {
    let now = net.slot();
    let departed: Vec<bool> = (net.topology().node_ids())
        .map(|id| net.has_departed(id))
        .collect();
    let mut chosen = 0;
    for workload in [
        VerificationWorkload::RandomPast { min_age_slots: 1 },
        VerificationWorkload::RandomPast { min_age_slots: 4 },
        VerificationWorkload::RandomPast { min_age_slots: 40 }, // nothing qualifies
        VerificationWorkload::FirstEra { era_slots: 12 },
    ] {
        let pool = TargetPool::new(net.nodes(), &departed, workload, now);
        for validator in (0..=net.nodes().len() as u32).map(NodeId) {
            let mut scan_rng = derived_rng(SEED, stream::TARGET, now, validator);
            let mut pool_rng = scan_rng.clone();
            let candidates: Vec<BlockId> = (net.nodes().iter())
                .filter(|node| node.id() != validator && !departed[node.id().index()])
                .flat_map(|node| node.store().iter_meta())
                .filter(|&(_, time)| workload.qualifies(time, now))
                .map(|(id, _)| id)
                .collect();
            let expect = scan_rng.choose(&candidates).copied();
            let got = pool.choose(validator, &mut pool_rng);
            assert_eq!(got, expect, "{label}: {workload:?} {validator}");
            assert_eq!(
                pool_rng.next_u64(),
                scan_rng.next_u64(),
                "{label}: stream position, {workload:?} {validator}"
            );
            chosen += usize::from(got.is_some());
        }
    }
    chosen
}

/// Acceptance: the range-based target pool picks the scan's block on the
/// durable backends — pruned chain prefixes, chains that resumed after a
/// crash and restart, and the sharded log's per-member indexes.
#[test]
fn target_pool_matches_the_scan_on_pruned_restarted_and_sharded_stores() {
    let tight = StorageOptions {
        segment_bytes: 2 * 1024,
        flush_buffer_bytes: 512,
        retain_disk_bytes: Some(4 * 1024),
        ..StorageOptions::default()
    };
    let disk_dir = scratch("targets-disk");
    let mut disk = build(Some(Box::new(DiskFactory::new(&disk_dir, tight.clone()))));
    disk.run_slots(30);
    let floors = || (disk.topology().node_ids()).filter(|&id| disk.node(id).pruned_floor() > 0);
    assert!(
        floors().count() > NODES / 2,
        "the budget prunes most chains"
    );
    let mut chosen = assert_targets_match_the_scan(&disk, "pruned");

    // Two nodes go down for three slots: their chains sit out of the pool,
    // then come back with a gap in generation time.
    let (a, b) = (NodeId(3), NodeId(11));
    disk.crash_node(a);
    disk.crash_node(b);
    disk.run_slots(3);
    chosen += assert_targets_match_the_scan(&disk, "crashed");
    disk.restart_node(a).unwrap();
    disk.restart_node(b).unwrap();
    disk.run_slots(4);
    chosen += assert_targets_match_the_scan(&disk, "restarted");
    drop(disk);
    let _ = std::fs::remove_dir_all(&disk_dir);

    let shard_dir = scratch("targets-shard");
    let mut sharded = build(Some(Box::new(
        ShardedDiskFactory::new(&shard_dir, 3, NODES).with_options(StorageOptions {
            retain_disk_bytes: Some(24 * 1024),
            ..tight
        }),
    )));
    sharded.run_slots(30);
    let pruned = (sharded.topology().node_ids()).any(|id| sharded.node(id).pruned_floor() > 0);
    assert!(pruned, "the shard budget prunes some member chain");
    chosen += assert_targets_match_the_scan(&sharded, "sharded");
    drop(sharded);
    let _ = std::fs::remove_dir_all(&shard_dir);

    assert!(
        chosen > 100,
        "the comparison must see real choices: {chosen}"
    );
}
