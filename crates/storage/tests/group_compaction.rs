//! Compaction + recovery interplay of the group-commit shard log on the
//! shared segment core: with segment rolls and an active retention budget,
//! a `ShardLog` must recover every non-pruned chain **byte-identically**
//! after a crash — including a torn tail write — and the single-writer lock
//! must refuse a second live handle instead of corrupting the log.

use proptest::prelude::*;
use tldag_core::config::ProtocolConfig;
use tldag_core::error::TldagError;
use tldag_core::{BlockBody, BlockId, DataBlock, DigestEntry};
use tldag_crypto::schnorr::KeyPair;
use tldag_sim::NodeId;
use tldag_storage::{ShardLog, StorageOptions};

/// A scratch directory removed on drop (best-effort).
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("tldag-groupc-{name}-{}", std::process::id()));
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

/// Linked per-owner chains, interleaved in generation order (seq-major),
/// exactly like the slot loop appends them into a shard log.
fn interleaved_chains(owners: u32, blocks_per_owner: u32, payload: usize) -> Vec<DataBlock> {
    let cfg = ProtocolConfig::test_default();
    let mut prev: Vec<Option<tldag_crypto::Digest>> = vec![None; owners as usize];
    let mut out = Vec::with_capacity((owners * blocks_per_owner) as usize);
    for seq in 0..blocks_per_owner {
        for owner in 0..owners {
            let digests = prev[owner as usize]
                .map(|digest| {
                    vec![DigestEntry {
                        origin: NodeId(owner),
                        digest,
                    }]
                })
                .unwrap_or_default();
            let block = DataBlock::create(
                &cfg,
                BlockId::new(NodeId(owner), seq),
                u64::from(seq),
                digests,
                BlockBody::new(vec![owner as u8 ^ seq as u8; payload], cfg.body_bits),
                &KeyPair::from_seed(u64::from(owner)),
            );
            prev[owner as usize] = Some(block.header_digest());
            out.push(block);
        }
    }
    out
}

fn tiny_segments(retain: Option<u64>) -> StorageOptions {
    StorageOptions {
        segment_bytes: 2 * 1024,
        flush_buffer_bytes: 1, // every append reaches the file: torn cuts bite
        retain_disk_bytes: retain,
        ..StorageOptions::default()
    }
}

#[test]
fn durable_store_and_shard_log_share_the_lock_guard() {
    let scratch = Scratch::new("lock");
    // ShardLog holds the directory; a DurableStore on the same directory is
    // the classic "two engines, one log" operator mistake.
    let log = ShardLog::open(scratch.path(), tiny_segments(None)).unwrap();
    let err = tldag_storage::DurableStore::open(scratch.path(), tiny_segments(None)).unwrap_err();
    assert!(
        matches!(err, TldagError::Locked { .. }),
        "expected Locked, got {err}"
    );
    let msg = err.to_string();
    assert!(msg.contains("locked by live process"), "{msg}");
    drop(log);
    // Released: the per-node engine can now legitimately take over the dir.
    let reopened = tldag_storage::DurableStore::open(scratch.path(), tiny_segments(None));
    // (The shard log's records are multiplexed, so the per-node engine
    // rejects them as out-of-order — what matters here is that the lock no
    // longer refuses the open attempt.)
    match reopened {
        Ok(_) | Err(TldagError::Corrupt(_)) => {}
        Err(other) => panic!("lock must be released on drop: {other}"),
    }
}

#[test]
fn budgeted_log_survives_clean_reopen_byte_identically() {
    let scratch = Scratch::new("clean");
    let blocks = interleaved_chains(3, 40, 48);
    let opts = tiny_segments(Some(6 * 1024));
    let floors: Vec<u32> = {
        let mut log = ShardLog::open(scratch.path(), opts.clone()).unwrap();
        for b in &blocks {
            log.append(b.clone()).unwrap();
        }
        log.sync().unwrap();
        (0..3).map(|o| log.pruned_floor_of(NodeId(o))).collect()
    };
    assert!(
        floors.iter().all(|&f| f > 0),
        "budget must prune: {floors:?}"
    );

    let log = ShardLog::open(scratch.path(), opts).unwrap();
    for owner in 0..3u32 {
        assert_eq!(log.pruned_floor_of(NodeId(owner)), floors[owner as usize]);
        assert_eq!(log.len_of(NodeId(owner)), 40);
        for b in blocks.iter().filter(|b| b.id.owner == NodeId(owner)) {
            let recovered = log.get_of(NodeId(owner), b.id.seq);
            if b.id.seq >= floors[owner as usize] {
                assert_eq!(recovered.as_ref(), Some(b), "retained block byte-identical");
            } else {
                assert_eq!(recovered, None, "pruned block stays pruned");
            }
        }
    }
}

#[test]
fn corrupt_snapshot_under_a_multi_owner_log_falls_back_to_full_scan() {
    let scratch = Scratch::new("bad-snapshot");
    let blocks = interleaved_chains(3, 20, 48);
    let opts = StorageOptions {
        snapshot_every: 8,
        ..tiny_segments(None)
    };
    {
        let mut log = ShardLog::open(scratch.path(), opts.clone()).unwrap();
        for b in &blocks {
            log.append(b.clone()).unwrap();
        }
        log.sync().unwrap();
    }
    let snap = scratch.path().join("index.snap");
    assert!(snap.exists(), "snapshot must have been written");
    std::fs::write(&snap, b"garbage that is definitely not a snapshot").unwrap();

    let log = ShardLog::open(scratch.path(), opts).unwrap();
    for b in &blocks {
        assert_eq!(log.len_of(b.id.owner), 20, "full scan recovers every chain");
        assert_eq!(log.get_of(b.id.owner, b.id.seq).as_ref(), Some(b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The satellite property: a shard log with segment rolls and an active
    /// retention budget, crashed with a torn tail write, recovers every
    /// non-pruned chain byte-identically — each member chain comes back as
    /// a contiguous suffix `floor..recovered_len` of the original, with
    /// every surviving block equal to what was appended. Whether recovery
    /// starts from an index snapshot or scans every segment depends on
    /// `snapshot_every`, which is an input too.
    #[test]
    fn torn_tail_crash_recovers_non_pruned_chains_byte_identically(
        owners in 2u32..5,
        blocks_per_owner in 8u32..28,
        payload in 8usize..80,
        budget_kib in 3u64..10,
        cut_back in 1u64..160,
        snapshot_pick in 0usize..3,
    ) {
        let scratch = Scratch::new(&format!("torn-{owners}-{blocks_per_owner}-{payload}"));
        let blocks = interleaved_chains(owners, blocks_per_owner, payload);
        let opts = StorageOptions {
            snapshot_every: [1, 8, 1024][snapshot_pick],
            ..tiny_segments(Some(budget_kib * 1024))
        };
        {
            let mut log = ShardLog::open(scratch.path(), opts.clone()).unwrap();
            for b in &blocks {
                log.append(b.clone()).unwrap();
            }
            log.sync().unwrap();
        }
        // Crash artifact: tear the tail segment mid-record.
        let mut segs: Vec<_> = std::fs::read_dir(scratch.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.file_name().is_some_and(|n| {
                let n = n.to_string_lossy();
                n.starts_with("seg-") && n.ends_with(".log")
            }))
            .collect();
        segs.sort();
        let tail = segs.last().expect("tail exists");
        let len = std::fs::metadata(tail).unwrap().len();
        let cut = len.saturating_sub(cut_back);
        let file = std::fs::OpenOptions::new().write(true).open(tail).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let log = ShardLog::open(scratch.path(), opts).unwrap();
        for owner in 0..owners {
            let node = NodeId(owner);
            let floor = log.pruned_floor_of(node);
            let recovered_len = log.len_of(node) as u32;
            prop_assert!(recovered_len <= blocks_per_owner);
            prop_assert!(floor <= recovered_len);
            // Non-pruned, non-torn-away blocks are byte-identical.
            for b in blocks.iter().filter(|b| b.id.owner == node) {
                let recovered = log.get_of(node, b.id.seq);
                if b.id.seq >= floor && b.id.seq < recovered_len {
                    prop_assert_eq!(recovered.as_ref(), Some(b));
                    let by_digest = log.by_header_digest_of(node, &b.header_digest());
                    prop_assert_eq!(by_digest.as_ref(), Some(b));
                } else {
                    prop_assert_eq!(recovered, None);
                }
            }
        }
    }

    /// Compaction never violates the budget by more than one tail segment
    /// and never prunes a chain head, for arbitrary member/size mixes.
    #[test]
    fn budget_is_honoured_with_head_guard(
        owners in 1u32..6,
        blocks_per_owner in 6u32..24,
        payload in 8usize..96,
        budget_kib in 3u64..12,
    ) {
        let scratch = Scratch::new(&format!("budget-{owners}-{blocks_per_owner}-{payload}"));
        let blocks = interleaved_chains(owners, blocks_per_owner, payload);
        let opts = tiny_segments(Some(budget_kib * 1024));
        let mut log = ShardLog::open(scratch.path(), opts.clone()).unwrap();
        for b in &blocks {
            log.append(b.clone()).unwrap();
        }
        log.sync().unwrap();
        prop_assert!(
            log.disk_usage_bytes() <= budget_kib * 1024 + opts.segment_bytes,
            "usage {} exceeds budget {} + one segment",
            log.disk_usage_bytes(),
            budget_kib * 1024
        );
        for owner in 0..owners {
            let node = NodeId(owner);
            prop_assert_eq!(log.len_of(node) as u32, blocks_per_owner);
            // The head guard: the newest block is always retrievable.
            prop_assert!(log.get_of(node, blocks_per_owner - 1).is_some());
        }
    }
}
