//! The durable block-log engine: the shared segmented-log core
//! ([`crate::segment::SegmentSet`]) plus an in-memory index, snapshot/
//! tail-replay recovery, and segment-aware compaction.
//!
//! ## Layout
//!
//! A store owns one directory:
//!
//! ```text
//! node-7/
//!   seg-000000.log     sealed segment (never written again)
//!   seg-000001.log     …
//!   seg-000002.log     tail segment (appends go here)
//!   index.snap         checksummed index snapshot + covered log position
//!   LOCK               single-writer guard (holder PID)
//! ```
//!
//! Records are CRC-framed codec-encoded blocks ([`crate::record`]); a record
//! never spans segments. Appends accumulate in the core's write buffer and
//! [`DurableStore::sync`] flushes, `fsync`s, and advances the durability
//! watermark. A crash (dropping the store without sync) loses at most the
//! buffered tail — exactly the contract [`BlockBackend::durable_len`]
//! advertises.
//!
//! ## Recovery
//!
//! `open` loads `index.snap` if present and valid, then replays only the log
//! records after the snapshot's covered position; without a usable snapshot
//! it scans every segment. The core handles torn-tail truncation (a torn
//! write in the final segment is an expected crash artifact) and reports
//! damage in earlier segments as corruption.
//!
//! ## Compaction
//!
//! [`DurableStore::compact_to_budget`] drops whole sealed segments oldest
//! first until disk usage fits the budget, pruning the index with them. The
//! budget is naturally expressed through the paper's storage-overhead model
//! (Eq. 2): pick a block-count horizon, multiply by `cfg.block_bits`, and the
//! engine keeps disk usage within it while `len()` keeps counting the full
//! chain so sequence numbers never regress. The first still-retained
//! sequence number is the **pruned floor** surfaced through
//! [`BlockBackend::pruned_floor`] — the responder side of PoP uses it to
//! answer requests for compacted blocks gracefully.

use crate::index::BlockIndex;
use crate::record;
use crate::segment::{SegmentSet, StorageOptions};
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use tldag_core::config::ProtocolConfig;
use tldag_core::error::TldagError;
use tldag_core::store::{BackendFactory, BlockBackend, TrustCache};
use tldag_core::{codec, BlockId, DataBlock};
use tldag_crypto::Digest;
use tldag_sim::{Bits, NodeId};

/// Bounded FIFO cache of decoded blocks.
#[derive(Debug, Default)]
struct BlockCache {
    capacity: usize,
    order: VecDeque<u32>,
    blocks: HashMap<u32, DataBlock>,
}

impl BlockCache {
    fn new(capacity: usize) -> Self {
        BlockCache {
            capacity,
            order: VecDeque::with_capacity(capacity),
            blocks: HashMap::with_capacity(capacity),
        }
    }

    fn get(&self, seq: u32) -> Option<DataBlock> {
        self.blocks.get(&seq).cloned()
    }

    fn insert(&mut self, seq: u32, block: DataBlock) {
        if self.capacity == 0 || self.blocks.contains_key(&seq) {
            return;
        }
        while self.blocks.len() >= self.capacity {
            let Some(evict) = self.order.pop_front() else {
                break;
            };
            self.blocks.remove(&evict);
        }
        self.order.push_back(seq);
        self.blocks.insert(seq, block);
    }

    fn evict_below(&mut self, seq: u32) {
        self.order.retain(|&s| s >= seq);
        self.blocks.retain(|&s, _| s >= seq);
    }

    fn resident_bytes(&self) -> usize {
        self.blocks
            .values()
            .map(|b| 256 + b.header.digests.len() * 36 + b.body.payload.len())
            .sum()
    }
}

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("index.snap")
}

/// The durable, segmented block-log storage engine.
///
/// Implements [`BlockBackend`], so a [`tldag_core::LedgerNode`] can run on it
/// interchangeably with the in-memory store — but with a bounded resident
/// footprint (index + write buffer + read cache) and a chain that survives
/// process restarts.
#[derive(Debug)]
pub struct DurableStore {
    set: SegmentSet,
    opts: StorageOptions,
    index: BlockIndex,
    /// Blocks guaranteed on stable storage (advanced by [`Self::sync`]).
    durable_seq: u32,
    appends_since_snapshot: u32,
    cache: Mutex<BlockCache>,
}

impl DurableStore {
    /// Opens (or creates) the store in `dir`, running crash recovery:
    /// snapshot load, tail replay, and torn-tail truncation.
    ///
    /// # Errors
    ///
    /// [`TldagError::Locked`] when another live handle owns the directory,
    /// [`TldagError::Storage`] on I/O failure, [`TldagError::Corrupt`] when
    /// a **sealed** segment fails validation (a corrupt snapshot alone is
    /// not fatal — it falls back to a full scan).
    pub fn open(dir: impl Into<PathBuf>, opts: StorageOptions) -> Result<Self, TldagError> {
        let dir = dir.into();
        let mut set = SegmentSet::open(&dir, "seg", opts.segment_bytes, opts.flush_buffer_bytes)?;
        let segment_ids = set.segment_ids();

        // Snapshot load is best-effort: any inconsistency downgrades to a
        // full log scan starting at the oldest live segment.
        let snapshot = fs::read(snapshot_path(&dir))
            .ok()
            .and_then(|blob| BlockIndex::decode_snapshot(&blob).ok())
            .filter(|(_, seg, _)| segment_ids.contains(seg))
            // If the snapshot claims coverage beyond its segment's file (it
            // was taken right before a crash that also tore the tail),
            // rescan from scratch.
            .filter(|&(_, seg, off)| set.segment_len(seg).is_ok_and(|len| off <= len));
        let (mut index, replay_start) = match snapshot {
            Some((index, seg, off)) => (index, Some((seg, off))),
            None => (BlockIndex::new(), None),
        };

        set.replay(replay_start, &mut |block, location| {
            let fresh = index.retained() == 0 && index.base_seq() == 0;
            if fresh && block.id.seq != 0 {
                // Full scan after compaction: the first surviving record
                // defines the chain base.
                index.start_at(block.id.seq);
            }
            let expected = index.next_seq();
            if block.id.seq != expected {
                return Err(TldagError::Corrupt(format!(
                    "segment {}: expected seq {expected}, found {}",
                    location.segment, block.id.seq
                )));
            }
            index.push(&block, location);
            Ok(())
        })?;
        let durable_seq = index.next_seq();

        Ok(DurableStore {
            cache: Mutex::new(BlockCache::new(opts.cache_blocks)),
            set,
            opts,
            index,
            durable_seq,
            appends_since_snapshot: 0,
        })
    }

    /// Total bytes on disk (flushed) plus the pending write buffer.
    pub fn disk_usage_bytes(&self) -> u64 {
        self.set.disk_usage_bytes()
    }

    /// Drops whole sealed segments, oldest first, until disk usage is within
    /// `max_bytes` (the tail is never dropped). Returns the number of blocks
    /// pruned; they are no longer retrievable from this store.
    ///
    /// The chain length ([`BlockBackend::len`]) is unaffected — sequence
    /// numbers keep counting — which is what lets a node honour the paper's
    /// storage budget (Eq. 2 × retention horizon) without forking its chain.
    ///
    /// # Errors
    ///
    /// [`TldagError::Storage`] on I/O failure.
    pub fn compact_to_budget(&mut self, max_bytes: u64) -> Result<usize, TldagError> {
        let mut pruned_total = 0usize;
        let mut removed: Vec<u32> = Vec::new();
        while self.set.disk_usage_bytes() > max_bytes {
            let Some(oldest) = self.set.oldest_sealed() else {
                break; // only the tail is left
            };
            // The first seq stored past the dropped segment becomes the base.
            let next_seq_after = (self.index.base_seq()..self.index.next_seq())
                .find(|&seq| {
                    self.index
                        .entry(seq)
                        .is_some_and(|e| e.location.segment > oldest)
                })
                .unwrap_or(self.index.next_seq());
            if next_seq_after >= self.index.next_seq() {
                // This segment holds the chain head (the tail is empty right
                // after a roll). Dropping it would lose `latest()` and break
                // the node's own prev-digest linkage — keep it, budget or no.
                break;
            }
            pruned_total += self.index.prune_below(next_seq_after);
            self.cache
                .lock()
                .expect("cache lock")
                .evict_below(next_seq_after);
            self.set.retire_segment(oldest);
            removed.push(oldest);
        }
        if pruned_total > 0 {
            // Publish the pruned index BEFORE deleting the files: a crash
            // between the two leaves harmless orphan segments (skipped on
            // replay, re-collected by the next compaction) instead of a
            // snapshot whose entries point at segments that no longer exist.
            self.set.sync()?;
            self.write_snapshot()?;
        }
        for id in removed {
            self.set.delete_segment_file(id)?;
        }
        Ok(pruned_total)
    }

    /// Writes a fresh snapshot covering the whole log. The caller has just
    /// synced the log: a snapshot must never cover a record that a crash
    /// could still lose.
    fn write_snapshot(&mut self) -> Result<(), TldagError> {
        let blob = self.index.encode_snapshot(
            self.set.tail_id(),
            self.set.segment_len(self.set.tail_id())?,
        );
        let tmp = self.set.dir().join("index.snap.tmp");
        fs::write(&tmp, &blob).map_err(|e| TldagError::io("write snapshot", &e))?;
        fs::rename(&tmp, snapshot_path(self.set.dir()))
            .map_err(|e| TldagError::io("publish snapshot", &e))?;
        self.appends_since_snapshot = 0;
        Ok(())
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        self.set.dir()
    }

    /// First sequence number still retained (> 0 after compaction).
    pub fn base_seq(&self) -> u32 {
        self.index.base_seq()
    }

    fn get_inner(&self, seq: u32) -> Option<DataBlock> {
        let entry = self.index.entry(seq)?;
        if let Some(block) = self.cache.lock().expect("cache lock").get(seq) {
            return Some(block);
        }
        // Index and log are maintained together; a read failure here is
        // storage corruption, which the simulator treats as fatal.
        let block = self
            .set
            .read(entry.location)
            .expect("indexed record must decode");
        self.cache
            .lock()
            .expect("cache lock")
            .insert(seq, block.clone());
        Some(block)
    }
}

impl BlockBackend for DurableStore {
    fn append(&mut self, block: DataBlock) -> Result<(), TldagError> {
        let expected = self.index.next_seq();
        if block.id.seq != expected {
            return Err(TldagError::OutOfOrderAppend {
                expected,
                got: block.id.seq,
            });
        }
        let rec = record::encode_record(&block);
        let outcome = self.set.append_record(&rec)?;
        // Index BEFORE any compaction: a roll-triggered compaction writes a
        // snapshot covering the tail — including the record just staged —
        // so the record's index entry must already exist or a reopen from
        // that snapshot would replay past an unindexed block and fail with
        // a bogus sequence-gap corruption error.
        self.index.push(&block, outcome.location);
        self.cache
            .lock()
            .expect("cache lock")
            .insert(block.id.seq, block);
        self.appends_since_snapshot += 1;
        if outcome.rolled {
            if let Some(budget) = self.opts.retain_disk_bytes {
                self.compact_to_budget(budget)?;
            }
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.index.next_seq() as usize
    }

    fn get(&self, seq: u32) -> Option<DataBlock> {
        self.get_inner(seq)
    }

    fn latest_digest(&self) -> Option<Digest> {
        self.index.latest_digest()
    }

    fn by_header_digest(&self, digest: &Digest) -> Option<DataBlock> {
        self.get_inner(self.index.seq_of_digest(digest)?)
    }

    fn oldest_child_of(&self, target: &Digest) -> Option<DataBlock> {
        self.get_inner(self.index.oldest_child_of(target)?)
    }

    fn children_of(&self, target: &Digest) -> Vec<DataBlock> {
        self.index
            .children_of(target)
            .iter()
            .filter_map(|&seq| self.get_inner(seq))
            .collect()
    }

    fn oldest_child_of_within(&self, target: &Digest, horizon: u64) -> Option<DataBlock> {
        self.get_inner(self.index.oldest_child_of_within(target, horizon)?)
    }

    fn iter(&self) -> Box<dyn Iterator<Item = DataBlock> + '_> {
        Box::new(
            (self.index.base_seq()..self.index.next_seq()).filter_map(|seq| self.get_inner(seq)),
        )
    }

    fn iter_meta(&self) -> Box<dyn Iterator<Item = (BlockId, u64)> + '_> {
        let Some(owner) = self.index.owner() else {
            return Box::new(std::iter::empty());
        };
        Box::new(
            (self.index.base_seq()..self.index.next_seq()).filter_map(move |seq| {
                self.index
                    .entry(seq)
                    .map(|e| (BlockId::new(NodeId(owner), seq), e.time))
            }),
        )
    }

    fn generated_through(&self, slot: u64) -> Range<u32> {
        self.index.generated_through(slot)
    }

    fn logical_bits(&self, cfg: &ProtocolConfig) -> Bits {
        self.index.logical_bits(cfg)
    }

    fn resident_bytes(&self) -> usize {
        self.index.resident_bytes()
            + self.set.buffered_bytes()
            + self.cache.lock().expect("cache lock").resident_bytes()
    }

    fn sync(&mut self) -> Result<(), TldagError> {
        self.set.sync()?;
        self.durable_seq = self.index.next_seq();
        if self.appends_since_snapshot >= self.opts.snapshot_every {
            self.write_snapshot()?;
        }
        Ok(())
    }

    fn durable_len(&self) -> usize {
        self.durable_seq as usize
    }

    fn pruned_floor(&self) -> u32 {
        self.index.base_seq()
    }

    fn fsync_count(&self) -> u64 {
        self.set.fsync_count()
    }

    fn segment_count(&self) -> u64 {
        self.set.segment_count()
    }
}

/// Provisions one [`DurableStore`] per node under a root directory
/// (`root/node-<id>/`), implementing [`BackendFactory`] so
/// `TldagNetwork::with_factory` can run any experiment disk-backed. Also
/// persists each node's trusted-header cache `H_i` (`trust.cache` in the
/// node directory) when the network opts in.
#[derive(Debug)]
pub struct DiskFactory {
    root: PathBuf,
    opts: StorageOptions,
}

impl DiskFactory {
    /// A factory rooted at `root` with the given engine options.
    pub fn new(root: impl Into<PathBuf>, opts: StorageOptions) -> Self {
        DiskFactory {
            root: root.into(),
            opts,
        }
    }

    /// The per-node storage directory.
    pub fn node_dir(&self, node: NodeId) -> PathBuf {
        self.root.join(format!("node-{}", node.0))
    }

    fn trust_path(&self, node: NodeId) -> PathBuf {
        self.node_dir(node).join("trust.cache")
    }
}

impl BackendFactory for DiskFactory {
    /// Creates a **fresh** store for `node`, wiping any leftovers from a
    /// previous run of the same experiment.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created — a simulation cannot
    /// proceed without its storage root.
    fn create(&mut self, node: NodeId) -> Box<dyn BlockBackend> {
        let dir = self.node_dir(node);
        let _ = fs::remove_dir_all(&dir);
        Box::new(
            DurableStore::open(&dir, self.opts.clone())
                .unwrap_or_else(|e| panic!("cannot create store in {}: {e}", dir.display())),
        )
    }

    /// Reopens `node`'s directory, recovering the durable chain prefix.
    fn reopen(&mut self, node: NodeId) -> Result<Box<dyn BlockBackend>, TldagError> {
        Ok(Box::new(DurableStore::open(
            self.node_dir(node),
            self.opts.clone(),
        )?))
    }

    fn save_trust_cache(&mut self, node: NodeId, cache: &TrustCache) -> Result<(), TldagError> {
        write_trust_cache(&self.trust_path(node), cache)
    }

    fn load_trust_cache(&mut self, node: NodeId) -> Result<Option<TrustCache>, TldagError> {
        Ok(read_trust_cache(&self.trust_path(node)))
    }
}

/// Atomically persists `H_i` (tmp + rename over the previous file).
pub(crate) fn write_trust_cache(path: &Path, cache: &TrustCache) -> Result<(), TldagError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(|e| TldagError::io("create trust-cache dir", &e))?;
    }
    let blob = codec::encode_trust_cache(cache);
    let tmp = path.with_extension("cache.tmp");
    fs::write(&tmp, &blob).map_err(|e| TldagError::io("write trust cache", &e))?;
    fs::rename(&tmp, path).map_err(|e| TldagError::io("publish trust cache", &e))
}

/// Loads a persisted `H_i`; a missing or undecodable file yields `None`
/// (the node simply restarts cold — `H_i` is a cache, not ledger state).
pub(crate) fn read_trust_cache(path: &Path) -> Option<TrustCache> {
    let blob = fs::read(path).ok()?;
    codec::decode_trust_cache(&blob).ok()
}
