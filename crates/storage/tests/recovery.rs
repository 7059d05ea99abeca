//! Crash-recovery properties of the durable engine: reopen after clean
//! shutdown, crash (drop without sync), torn tail writes, snapshot
//! corruption, and segment compaction.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use tldag_core::config::ProtocolConfig;
use tldag_core::error::TldagError;
use tldag_core::store::{BlockBackend, BlockStore};
use tldag_core::{BlockBody, BlockId, DataBlock, DigestEntry};
use tldag_crypto::schnorr::KeyPair;
use tldag_crypto::Digest;
use tldag_sim::NodeId;
use tldag_storage::{DurableStore, ShardLog, ShardedNodeStore, StorageOptions};

/// A scratch directory removed on drop (best-effort).
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("tldag-storage-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds a linked chain of `n` blocks for node 1 (each block references its
/// predecessor, like real generation does).
fn chain(n: u32, payload_bytes: usize) -> Vec<DataBlock> {
    let cfg = ProtocolConfig::test_default();
    let kp = KeyPair::from_seed(1);
    let mut blocks: Vec<DataBlock> = Vec::with_capacity(n as usize);
    for seq in 0..n {
        let digests = blocks
            .last()
            .map(|prev: &DataBlock| {
                vec![DigestEntry {
                    origin: NodeId(1),
                    digest: prev.header_digest(),
                }]
            })
            .unwrap_or_default();
        blocks.push(DataBlock::create(
            &cfg,
            BlockId::new(NodeId(1), seq),
            u64::from(seq),
            digests,
            BlockBody::new(vec![seq as u8; payload_bytes], cfg.body_bits),
            &kp,
        ));
    }
    blocks
}

fn opts() -> StorageOptions {
    StorageOptions::compact_test()
}

/// A block of `owner` at slot `time` whose Digests field holds `contained`.
fn block_containing(owner: u32, seq: u32, time: u64, contained: &[Digest]) -> DataBlock {
    let cfg = ProtocolConfig::test_default();
    let entry = |&digest| DigestEntry {
        origin: NodeId(7),
        digest,
    };
    DataBlock::create(
        &cfg,
        BlockId::new(NodeId(owner), seq),
        time,
        contained.iter().map(entry).collect::<Vec<_>>(),
        BlockBody::new(vec![seq as u8; 64], cfg.body_bits),
        &KeyPair::from_seed(u64::from(owner)),
    )
}

#[test]
fn oldest_child_within_is_answered_from_the_index_as_the_default_defines_it() {
    // The trait's default body, which all three backends override.
    fn by_definition(store: &dyn BlockBackend, target: &Digest, horizon: u64) -> Option<DataBlock> {
        let mut children = store.children_of(target).into_iter();
        children.find(|b| b.header.time <= horizon)
    }
    let [none, once, thrice] = [1, 2, 3].map(|d| Digest::from_bytes([d; 32]));
    // Slots 1, 3, 5, …, so horizons fall on and between block times; long
    // enough to roll segments and outgrow the 4-block read cache.
    let chain: Vec<DataBlock> = (0..60u32)
        .map(|seq| {
            let contained: &[Digest] = match seq {
                20 | 50 => &[thrice],
                35 => &[once, thrice],
                _ => &[],
            };
            block_containing(1, seq, 2 * u64::from(seq) + 1, contained)
        })
        .collect();

    let scratch = Scratch::new("child-within");
    let mut memory = BlockStore::new();
    let mut durable = DurableStore::open(scratch.path().join("node"), opts()).unwrap();
    let log = ShardLog::open(scratch.path().join("shard"), opts()).unwrap();
    let log = Arc::new(Mutex::new(log));
    let mut sharded = ShardedNodeStore::new(Arc::clone(&log), NodeId(1));
    // A shard-mate containing the same digest earlier: never node 1's child.
    let mut mate = ShardedNodeStore::new(log, NodeId(2));
    mate.append(block_containing(2, 0, 0, &[thrice])).unwrap();
    for block in &chain {
        memory.append(block.clone()).unwrap();
        durable.append(block.clone()).unwrap();
        sharded.append(block.clone()).unwrap();
    }
    durable.sync().unwrap();
    sharded.sync().unwrap();
    drop(durable);
    let reopened = DurableStore::open(scratch.path().join("node"), opts()).unwrap();

    let backends: [(&str, &dyn BlockBackend); 3] = [
        ("memory", &memory),
        ("durable, reopened", &reopened),
        ("sharded", &sharded),
    ];
    for (name, store) in backends {
        assert_eq!(store.children_of(&thrice).len(), 3, "{name}");
        for target in [&none, &once, &thrice] {
            for horizon in 0..=120 {
                assert_eq!(
                    store.oldest_child_of_within(target, horizon),
                    by_definition(store, target, horizon),
                    "{name}, horizon {horizon}"
                );
            }
        }
        assert_eq!(
            store.oldest_child_of_within(&thrice, 41),
            Some(chain[20].clone())
        );
        assert_eq!(store.oldest_child_of_within(&once, 70), None, "{name}");
        assert_eq!(store.oldest_child_of(&once), Some(chain[35].clone()));
    }
}

#[test]
fn clean_reopen_recovers_everything() {
    let scratch = Scratch::new("clean-reopen");
    let blocks = chain(40, 64);
    {
        let mut store = DurableStore::open(scratch.path(), opts()).unwrap();
        for b in &blocks {
            store.append(b.clone()).unwrap();
        }
        store.sync().unwrap();
        assert_eq!(store.durable_len(), 40);
    }
    let store = DurableStore::open(scratch.path(), opts()).unwrap();
    assert_eq!(store.len(), 40);
    for b in &blocks {
        assert_eq!(store.get(b.id.seq).as_ref(), Some(b));
        assert_eq!(store.by_header_digest(&b.header_digest()).as_ref(), Some(b));
    }
    // 40 × ~100-byte records across 4 KiB segments: rolls must have happened.
    assert!(
        std::fs::read_dir(scratch.path())
            .unwrap()
            .filter(|e| e
                .as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("seg-"))
            .count()
            > 1,
        "test must exercise multiple segments"
    );
}

#[test]
fn crash_without_sync_keeps_synced_prefix() {
    let scratch = Scratch::new("crash-prefix");
    let blocks = chain(30, 64);
    {
        let mut store = DurableStore::open(scratch.path(), opts()).unwrap();
        for b in &blocks[..20] {
            store.append(b.clone()).unwrap();
        }
        store.sync().unwrap();
        for b in &blocks[20..] {
            store.append(b.clone()).unwrap();
        }
        assert_eq!(
            store.durable_len(),
            20,
            "only the synced prefix is promised"
        );
        assert_eq!(store.len(), 30);
        // Dropped here without sync: the buffered tail may be lost.
    }
    let store = DurableStore::open(scratch.path(), opts()).unwrap();
    assert!(store.len() >= 20, "synced blocks must survive a crash");
    for b in &blocks[..store.len()] {
        assert_eq!(
            store.get(b.id.seq).as_ref(),
            Some(b),
            "recovered prefix intact"
        );
    }
}

#[test]
fn chain_continues_after_restart() {
    let scratch = Scratch::new("continue");
    let blocks = chain(12, 32);
    {
        let mut store = DurableStore::open(scratch.path(), opts()).unwrap();
        for b in &blocks[..8] {
            store.append(b.clone()).unwrap();
        }
        store.sync().unwrap();
    }
    let mut store = DurableStore::open(scratch.path(), opts()).unwrap();
    assert_eq!(store.len(), 8);
    // Appending the next seq succeeds; skipping one is rejected.
    assert!(matches!(
        store.append(blocks[9].clone()),
        Err(tldag_core::TldagError::OutOfOrderAppend {
            expected: 8,
            got: 9
        })
    ));
    store.append(blocks[8].clone()).unwrap();
    assert_eq!(store.len(), 9);
}

#[test]
fn a_sync_that_takes_a_snapshot_costs_one_fsync() {
    let scratch = Scratch::new("snapshot-fsync");
    let mut store = DurableStore::open(scratch.path(), opts()).unwrap();
    for b in chain(8, 32) {
        store.append(b).unwrap(); // snapshot_every = 8
    }
    let before = store.fsync_count();
    store.sync().unwrap();
    assert!(scratch.path().join("index.snap").exists());
    assert_eq!(
        store.fsync_count() - before,
        1,
        "the snapshot is written over the log this sync already made durable"
    );
}

#[test]
fn corrupt_snapshot_falls_back_to_full_scan() {
    let scratch = Scratch::new("bad-snapshot");
    let blocks = chain(20, 64);
    {
        let mut store = DurableStore::open(scratch.path(), opts()).unwrap();
        for b in &blocks {
            store.append(b.clone()).unwrap();
        }
        store.sync().unwrap();
        store.sync().unwrap(); // second sync crosses snapshot_every = 8
    }
    let snap = scratch.path().join("index.snap");
    assert!(snap.exists(), "snapshot must have been written");
    std::fs::write(&snap, b"garbage that is definitely not a snapshot").unwrap();

    let store = DurableStore::open(scratch.path(), opts()).unwrap();
    assert_eq!(store.len(), 20, "full scan recovers the chain");
    for b in &blocks {
        assert_eq!(store.get(b.id.seq).as_ref(), Some(b));
    }
}

#[test]
fn compaction_honours_budget_and_keeps_chain_length() {
    let scratch = Scratch::new("compaction");
    let blocks = chain(60, 64);
    let mut store = DurableStore::open(scratch.path(), opts()).unwrap();
    for b in &blocks {
        store.append(b.clone()).unwrap();
    }
    store.sync().unwrap();
    let before = store.disk_usage_bytes();
    let pruned = store.compact_to_budget(before / 2).unwrap();
    assert!(pruned > 0, "budget must force pruning");
    assert!(store.disk_usage_bytes() <= before / 2);
    assert_eq!(store.len(), 60, "chain length keeps counting pruned blocks");
    let base = store.base_seq();
    assert!(base > 0);
    assert!(store.get(base - 1).is_none(), "pruned blocks are gone");
    assert_eq!(store.get(base).as_ref(), Some(&blocks[base as usize]));

    // The retained suffix (and only it) is what a reopen recovers.
    drop(store);
    let reopened = DurableStore::open(scratch.path(), opts()).unwrap();
    assert_eq!(reopened.len(), 60);
    assert_eq!(reopened.base_seq(), base);
    assert_eq!(reopened.get(base).as_ref(), Some(&blocks[base as usize]));
    assert_eq!(reopened.get(59).as_ref(), Some(&blocks[59]));
}

#[test]
fn auto_compaction_snapshot_survives_crash_and_reopen() {
    // Regression: a roll-triggered compaction writes an index snapshot; the
    // record that triggered the roll must already be indexed, or the
    // snapshot covers its bytes without its entry and a reopen replays past
    // it into a bogus sequence-gap corruption error.
    let scratch = Scratch::new("auto-compact");
    let blocks = chain(40, 64);
    let auto = StorageOptions {
        segment_bytes: 1024,
        snapshot_every: 1024, // the compaction snapshot stays the latest
        retain_disk_bytes: Some(2 * 1024),
        ..StorageOptions::compact_test()
    };
    {
        let mut store = DurableStore::open(scratch.path(), auto.clone()).unwrap();
        for b in &blocks {
            store.append(b.clone()).unwrap();
        }
        store.sync().unwrap();
        assert!(store.base_seq() > 0, "budget must prune");
        assert!(store.disk_usage_bytes() <= 2 * 1024 + auto.segment_bytes);
    }
    let store = DurableStore::open(scratch.path(), auto).unwrap();
    assert_eq!(store.len(), 40, "chain length survives the reopen");
    let base = store.base_seq();
    assert!(base > 0);
    for b in &blocks[base as usize..] {
        assert_eq!(
            store.get(b.id.seq).as_ref(),
            Some(b),
            "retained suffix intact"
        );
    }
}

#[test]
fn compaction_never_prunes_the_chain_head() {
    let scratch = Scratch::new("head-guard");
    let blocks = chain(60, 64);
    let mut store = DurableStore::open(scratch.path(), opts()).unwrap();
    for b in &blocks {
        store.append(b.clone()).unwrap();
    }
    store.sync().unwrap();
    // An absurdly small budget must still keep the newest block reachable —
    // the node's own prev-digest linkage depends on latest().
    store.compact_to_budget(1).unwrap();
    let latest = store.latest().expect("chain head survives any budget");
    assert_eq!(latest.id.seq, 59);
    assert!(store.base_seq() < 60);
    assert!(store.len() == 60);
}

#[test]
fn child_lookups_span_segments() {
    let scratch = Scratch::new("children");
    let cfg = ProtocolConfig::test_default();
    let kp = KeyPair::from_seed(1);
    let target = Digest::from_bytes([9; 32]);
    let mut store = DurableStore::open(scratch.path(), opts()).unwrap();
    // Blocks 3 and 47 contain `target`; everything else does not.
    for seq in 0..50u32 {
        let digests = if seq == 3 || seq == 47 {
            vec![DigestEntry {
                origin: NodeId(2),
                digest: target,
            }]
        } else {
            vec![]
        };
        let block = DataBlock::create(
            &cfg,
            BlockId::new(NodeId(1), seq),
            u64::from(seq),
            digests,
            BlockBody::new(vec![seq as u8; 64], cfg.body_bits),
            &kp,
        );
        store.append(block).unwrap();
    }
    store.sync().unwrap();
    assert_eq!(store.oldest_child_of(&target).unwrap().id.seq, 3);
    let children: Vec<u32> = store
        .children_of(&target)
        .iter()
        .map(|b| b.id.seq)
        .collect();
    assert_eq!(children, vec![3, 47]);
    assert_eq!(store.iter().count(), 50);
}

#[test]
fn resident_memory_stays_bounded_by_index_and_cache() {
    let scratch = Scratch::new("resident");
    let payload = 512usize;
    let blocks = chain(200, payload);
    let mut store = DurableStore::open(
        scratch.path(),
        StorageOptions {
            cache_blocks: 4,
            flush_buffer_bytes: 2 * 1024,
            ..StorageOptions::compact_test()
        },
    )
    .unwrap();
    for b in &blocks {
        store.append(b.clone()).unwrap();
    }
    store.sync().unwrap();
    let resident = store.resident_bytes();
    let on_disk = store.disk_usage_bytes() as usize;
    assert!(
        resident < on_disk / 2,
        "resident {resident} B should be far below the {on_disk} B chain"
    );
}

#[test]
fn resident_memory_stays_bounded_at_the_benchmark_block_shape() {
    // `engine_disk`'s blocks: a 36-byte payload and 19 digest entries, the
    // predecessor and 18 neighbours' digests. Header digests outweigh the
    // payload, so an index that copied them would pin more than the disk.
    let scratch = Scratch::new("resident-shape");
    let cfg = ProtocolConfig::test_default();
    let kp = KeyPair::from_seed(1);
    let neighbour = |seq: u32, k: u32| {
        let seed = [seq.to_be_bytes(), k.to_be_bytes()].concat();
        DigestEntry {
            origin: NodeId(2 + k),
            digest: tldag_crypto::sha256::sha256(&seed),
        }
    };
    let mut store = DurableStore::open(
        scratch.path(),
        StorageOptions {
            cache_blocks: 4,
            flush_buffer_bytes: 2 * 1024,
            ..StorageOptions::compact_test()
        },
    )
    .unwrap();
    let mut prev = None;
    for seq in 0..200u32 {
        let mut digests: Vec<DigestEntry> = (0..18).map(|k| neighbour(seq, k)).collect();
        digests.push(DigestEntry {
            origin: NodeId(1),
            digest: prev.unwrap_or_else(|| neighbour(seq, 18).digest),
        });
        let block = DataBlock::create(
            &cfg,
            BlockId::new(NodeId(1), seq),
            u64::from(seq),
            digests,
            BlockBody::new(vec![seq as u8; 36], cfg.body_bits),
            &kp,
        );
        prev = Some(block.header_digest());
        store.append(block).unwrap();
    }
    store.sync().unwrap();
    let resident = store.resident_bytes();
    let on_disk = store.disk_usage_bytes() as usize;
    assert!(
        resident < on_disk / 2,
        "resident {resident} B should be under half the {on_disk} B chain"
    );
}

#[test]
fn a_checksummed_record_that_does_not_decode_is_corruption_even_at_the_tail() {
    // A torn write leaves a short frame or a checksum mismatch; a frame whose
    // CRC holds over bytes the codec rejects is a log in another layout, and
    // truncating it away would silently drop the tail segment.
    let scratch = Scratch::new("undecodable-tail");
    let blocks = chain(4, 32);
    {
        let mut store = DurableStore::open(scratch.path(), opts()).unwrap();
        for b in &blocks {
            store.append(b.clone()).unwrap();
        }
        store.sync().unwrap();
    }
    let _ = std::fs::remove_file(scratch.path().join("index.snap"));
    let seg = scratch.path().join("seg-000000.log");
    // A block's encoding plus one stray byte: framed and checksummed, but
    // `decode_block` rejects it.
    let mut payload = tldag_core::codec::encode_block(&blocks[0]);
    payload.push(0);
    assert!(tldag_core::codec::decode_block(&payload).is_err());
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    bytes.extend_from_slice(&tldag_storage::crc32::crc32(&payload).to_be_bytes());
    bytes.extend_from_slice(&payload);
    std::fs::write(&seg, &bytes).unwrap();

    match DurableStore::open(scratch.path(), opts()) {
        Err(TldagError::Corrupt(msg)) => assert!(msg.contains("decode"), "{msg}"),
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(store) => panic!("reopened with {} blocks", store.len()),
    }
    assert_eq!(
        std::fs::metadata(&seg).unwrap().len(),
        bytes.len() as u64,
        "the segment keeps its length"
    );
}

#[test]
fn a_fixed_width_log_fails_to_open_even_under_its_snapshot() {
    // `fixtures/fixed-width-log` was written by the store before blocks were
    // varint-coded: `chain(8, 32)` appended and synced under `opts()`, so its
    // format 2 `index.snap` covers the whole segment. Trusting that snapshot
    // would skip the replay and open a log whose every read fails; it is
    // refused, and the full scan stops at the first record.
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fixed-width-log");
    let scratch = Scratch::new("fixed-width-log");
    std::fs::create_dir_all(scratch.path()).unwrap();
    for name in ["seg-000000.log", "index.snap"] {
        std::fs::copy(fixture.join(name), scratch.path().join(name)).unwrap();
    }
    let snapshot = std::fs::read(scratch.path().join("index.snap")).unwrap();
    assert_eq!(snapshot[8..12], 2u32.to_be_bytes(), "a format 2 snapshot");
    let seg = scratch.path().join("seg-000000.log");
    let seg_len = std::fs::metadata(&seg).unwrap().len();

    match DurableStore::open(scratch.path(), opts()) {
        Err(TldagError::Corrupt(msg)) => {
            assert!(msg.contains("offset 0") && msg.contains("decode"), "{msg}")
        }
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(store) => panic!("opened with {} blocks", store.len()),
    }
    assert_eq!(
        std::fs::metadata(&seg).unwrap().len(),
        seg_len,
        "the segment keeps its length"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any prefix truncation of the tail segment (a torn write) reopens to a
    /// consistent chain prefix: every surviving block equals the original,
    /// every fully-durable record survives, and the rebuilt index answers
    /// digest lookups for exactly the surviving blocks.
    #[test]
    fn torn_tail_recovers_longest_valid_prefix(
        n in 4u32..24,
        payload in 8usize..96,
        cut_fraction in 0.0f64..1.0,
    ) {
        let scratch = Scratch::new(&format!("torn-{n}-{payload}"));
        let blocks = chain(n, payload);
        // Single-segment store so the cut always lands in the tail.
        let big = StorageOptions {
            segment_bytes: u64::MAX,
            flush_buffer_bytes: 1,
            ..StorageOptions::compact_test()
        };
        let mut record_ends: Vec<u64> = Vec::new();
        {
            let mut store = DurableStore::open(scratch.path(), big.clone()).unwrap();
            let mut end = 0u64;
            for b in &blocks {
                end += tldag_storage::record::encode_record(b).len() as u64;
                record_ends.push(end);
                store.append(b.clone()).unwrap();
            }
            store.sync().unwrap();
        }
        let seg = scratch.path().join("seg-000000.log");
        let full = std::fs::metadata(&seg).unwrap().len();
        prop_assert_eq!(full, *record_ends.last().unwrap());
        let cut = (full as f64 * cut_fraction) as u64;
        // Remove the snapshot so recovery must replay the (torn) log.
        let _ = std::fs::remove_file(scratch.path().join("index.snap"));
        let file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let store = DurableStore::open(scratch.path(), big).unwrap();
        // Expected survivors: records that end at or before the cut.
        let expect = record_ends.iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(store.len(), expect, "longest valid prefix");
        for b in &blocks[..expect] {
            prop_assert_eq!(store.get(b.id.seq), Some(b.clone()));
            prop_assert_eq!(store.by_header_digest(&b.header_digest()), Some(b.clone()));
        }
        for b in &blocks[expect..] {
            prop_assert!(store.by_header_digest(&b.header_digest()).is_none());
        }
        // The truncated file was trimmed to the record boundary.
        let trimmed = std::fs::metadata(&seg).unwrap().len();
        let boundary = record_ends.iter().rev().find(|&&e| e <= cut).copied().unwrap_or(0);
        prop_assert_eq!(trimmed, boundary);
    }

    /// A bit flip anywhere in a sealed chain prefix is either behind the
    /// snapshot (invisible to replay) or surfaces as an error / shorter
    /// prefix — never as silently wrong data.
    #[test]
    fn bitflip_never_yields_wrong_blocks(
        n in 4u32..16,
        flip_fraction in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let scratch = Scratch::new(&format!("flip-{n}-{bit}"));
        let blocks = chain(n, 48);
        let big = StorageOptions {
            segment_bytes: u64::MAX,
            flush_buffer_bytes: 1,
            ..StorageOptions::compact_test()
        };
        {
            let mut store = DurableStore::open(scratch.path(), big.clone()).unwrap();
            for b in &blocks {
                store.append(b.clone()).unwrap();
            }
            store.sync().unwrap();
        }
        let _ = std::fs::remove_file(scratch.path().join("index.snap"));
        let seg = scratch.path().join("seg-000000.log");
        let mut bytes = std::fs::read(&seg).unwrap();
        let idx = ((bytes.len() - 1) as f64 * flip_fraction) as usize;
        bytes[idx] ^= 1 << bit;
        std::fs::write(&seg, &bytes).unwrap();

        match DurableStore::open(scratch.path(), big) {
            Err(_) => {} // detected corruption: acceptable
            Ok(store) => {
                // The flipped record (and everything after it) is dropped;
                // whatever survived must byte-match the originals.
                prop_assert!(store.len() < blocks.len());
                for b in &blocks[..store.len()] {
                    prop_assert_eq!(store.get(b.id.seq), Some(b.clone()));
                }
            }
        }
    }
}
