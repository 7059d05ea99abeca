//! The durable block log: one segmented, group-committed log that serves a
//! single chain ([`DurableStore`]) or every chain of a shard
//! ([`ShardedNodeStore`]).
//!
//! ## Layout
//!
//! A log owns one directory (`node-<id>/` or `shard-NNNN/`):
//!
//! ```text
//! seg-000000.log     sealed segment (never written again)
//! seg-000001.log     tail segment (appends go here)
//! index.snap         checksummed per-owner index snapshot + covered position
//! LOCK               single-writer guard (holder PID, 4 bytes)
//! ```
//!
//! Records are CRC-framed codec-encoded blocks ([`crate::record`]) and never
//! span segments. No extra framing is needed for several owners: the
//! canonical block encoding carries the owner id ([`DataBlock::id`]), which
//! is what demultiplexes the log back into per-owner chains on recovery.
//!
//! ## Group commit
//!
//! Appends from every owner are staged into one buffer, and
//! [`ShardLog::sync`] makes the batch durable with one `fsync`: the first
//! member to sync after an append pays the syscall, the rest of the batch
//! gets a no-op. A crash (dropping the log without sync) loses at most the
//! records staged since the last sync, never a block whose sync point
//! already returned. This is why the multi-owner log is the one that stays:
//! `fig10_scaling --quick` (48 nodes × 6 slots, per-slot sync, 2 vCPUs)
//! measured 30.5 k blocks/s and 288 fsyncs with one log per node against
//! 89.0 k blocks/s and 24 fsyncs with one log per shard.
//!
//! ## Recovery
//!
//! `open` loads `index.snap` if present and valid, then replays only the
//! records after the snapshot's covered position; without a usable snapshot
//! it scans every segment, and the first record seen for an owner sets that
//! chain's base. The segment core truncates a torn tail (an expected crash
//! artifact) and reports damage in a sealed segment as corruption.
//!
//! ## Compaction
//!
//! With [`StorageOptions::retain_disk_bytes`] set, a segment roll compacts
//! the log to the budget (Eq. 2 × a retention horizon). The oldest sealed
//! segment is dropped only when every owner keeps its chain head in a later
//! segment: dropping a head would break that node's prev-digest linkage.
//! Appends interleave in generation order, so a dropped segment removes a
//! prefix of every chain. `len()` keeps counting the full chain; the first
//! retained seq is the **pruned floor** ([`BlockBackend::pruned_floor`]).
//!
//! ## Views
//!
//! [`LogView`] is the one [`BlockBackend`] over a log, generic over how it
//! holds it ([`LogHolder`]). A [`DurableStore`] owns its log and serves its
//! only owner. A [`ShardedNodeStore`] shares its shard's log behind an
//! `Arc<Mutex<…>>`: `TldagNetwork::crash_node` drops only the node's handle,
//! so its staged records survive in the log its neighbours still hold, like
//! a thread dying inside a surviving storage process. Dropping every handle
//! (and the factory) models the whole process dying.

use crate::index::BlockIndex;
use crate::record;
use crate::segment::{SegmentSet, StorageOptions};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fs;
use std::ops::{Deref, DerefMut, Range};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use tldag_core::config::ProtocolConfig;
use tldag_core::error::TldagError;
use tldag_core::store::BlockBackend;
use tldag_core::{BlockId, DataBlock};
use tldag_crypto::Digest;
use tldag_sim::{Bits, NodeId};

/// Bounded FIFO cache of decoded blocks, keyed by `(owner, seq)`. It holds
/// a few dozen blocks ([`StorageOptions::cache_blocks`]), so a key is found
/// by a scan of the key ring rather than by hashing.
#[derive(Debug, Default)]
struct BlockCache {
    keys: VecDeque<(u32, u32)>,
    blocks: VecDeque<DataBlock>,
}

impl BlockCache {
    fn get(&self, key: (u32, u32)) -> Option<DataBlock> {
        let at = self.keys.iter().position(|&k| k == key)?;
        Some(self.blocks[at].clone())
    }

    fn insert(&mut self, capacity: usize, key: (u32, u32), block: DataBlock) {
        if capacity == 0 || self.keys.contains(&key) {
            return;
        }
        if self.keys.len() >= capacity {
            self.keys.pop_front();
            self.blocks.pop_front();
        }
        self.keys.push_back(key);
        self.blocks.push_back(block);
    }

    fn evict_below(&mut self, owner: u32, seq: u32) {
        while let Some(at) = self.keys.iter().position(|&(o, s)| o == owner && s < seq) {
            self.keys.remove(at);
            self.blocks.remove(at);
        }
    }

    fn resident_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| 256 + b.header.digests.len() * 36 + b.body.payload.len())
            .sum()
    }
}

const SNAPSHOT: &str = "index.snap";

/// The durable block log: a segmented, group-committed log holding the
/// chains of one or more owners.
///
/// Appends from any owner are staged into one buffer and indexed per owner;
/// [`ShardLog::sync`] makes the whole batch durable with a single `fsync`.
/// Reads are index-driven and served from a bounded cache of decoded blocks,
/// the segment files, or the staging buffer for records not yet written out.
#[derive(Debug)]
pub struct ShardLog {
    set: SegmentSet,
    opts: StorageOptions,
    /// Per-owner chain indexes over the log.
    indexes: BTreeMap<u32, BlockIndex>,
    /// The owners that appended since the last fsync, each with its first
    /// such seq. Empty means a sync has nothing to do: this is what
    /// collapses N member syncs into one fsync per batch.
    staged: BTreeMap<u32, u32>,
    appends_since_snapshot: u32,
    cache: Mutex<BlockCache>,
}

impl ShardLog {
    /// Opens (or creates) the log in directory `dir`, running crash
    /// recovery: snapshot load, tail replay demultiplexed by owner, and
    /// torn-tail truncation.
    ///
    /// # Errors
    ///
    /// [`TldagError::Locked`] when another live handle owns the directory,
    /// [`TldagError::Storage`] on I/O failure, [`TldagError::Corrupt`] when
    /// a sealed segment is damaged or a checksummed record decodes to an
    /// out-of-order sequence number (which no torn write can produce). A
    /// corrupt snapshot alone is not fatal: it falls back to a full scan.
    pub fn open(dir: impl Into<PathBuf>, opts: StorageOptions) -> Result<Self, TldagError> {
        let mut set = SegmentSet::open(dir, "seg", opts.segment_bytes, opts.flush_buffer_bytes)?;
        // Snapshot load is best-effort: any inconsistency downgrades to a
        // full scan. A snapshot claiming coverage beyond its segment's file
        // was taken right before a crash that also tore the tail.
        let snapshot = fs::read(set.dir().join(SNAPSHOT))
            .ok()
            .and_then(|blob| BlockIndex::decode_chains(&blob).ok())
            .filter(|(_, seg, off)| set.segment_len(*seg).is_ok_and(|len| *off <= len));
        let (mut indexes, start) = match snapshot {
            Some((chains, seg, off)) => (
                chains
                    .into_iter()
                    .filter_map(|chain| Some((chain.owner()?, chain)))
                    .collect(),
                Some((seg, off)),
            ),
            None => (BTreeMap::new(), None),
        };
        set.replay(start, &mut |block, location| {
            let owner = block.id.owner.0;
            let index: &mut BlockIndex = indexes.entry(owner).or_default();
            if index.retained() == 0 && index.base_seq() == 0 && block.id.seq != 0 {
                // Compacted log: the first surviving record of this owner
                // defines its chain base.
                index.start_at(block.id.seq);
            }
            let expected = index.next_seq();
            if block.id.seq != expected {
                return Err(TldagError::Corrupt(format!(
                    "segment {}: node {owner} expected seq {expected}, found {}",
                    location.segment, block.id.seq
                )));
            }
            index.push(&block, location);
            Ok(())
        })?;
        Ok(ShardLog {
            cache: Mutex::default(),
            set,
            opts,
            indexes,
            staged: BTreeMap::new(),
            appends_since_snapshot: 0,
        })
    }

    /// Physical fsync calls issued so far.
    pub(crate) fn fsync_count(&self) -> u64 {
        self.set.fsync_count()
    }

    /// Total bytes on disk (flushed) plus the pending staging buffer.
    pub fn disk_usage_bytes(&self) -> u64 {
        self.set.disk_usage_bytes()
    }

    /// The owners with a chain in this log, ascending.
    pub fn owners(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.indexes.keys().map(|&owner| NodeId(owner))
    }

    /// Chain length of `node`.
    pub fn len_of(&self, node: NodeId) -> usize {
        self.indexes
            .get(&node.0)
            .map_or(0, |idx| idx.next_seq() as usize)
    }

    /// Durable chain length of `node` (blocks covered by the last fsync;
    /// everything recovered on open counts).
    pub(crate) fn durable_len_of(&self, node: NodeId) -> usize {
        let staged = self.staged.get(&node.0).copied();
        staged.map_or_else(|| self.len_of(node), |seq| seq as usize)
    }

    /// First sequence number of `node`'s chain still retained (> 0 once
    /// compaction has pruned its prefix).
    pub fn pruned_floor_of(&self, node: NodeId) -> u32 {
        self.indexes.get(&node.0).map_or(0, BlockIndex::base_seq)
    }

    /// Appends the next block of its owner's chain. A segment roll under an
    /// active [`StorageOptions::retain_disk_bytes`] budget triggers
    /// compaction.
    ///
    /// # Errors
    ///
    /// [`TldagError::OutOfOrderAppend`] when the block skips a sequence
    /// number, [`TldagError::Storage`] when the medium fails.
    pub fn append(&mut self, block: DataBlock) -> Result<(), TldagError> {
        let key = (block.id.owner.0, block.id.seq);
        let expected = self.indexes.get(&key.0).map_or(0, BlockIndex::next_seq);
        if key.1 != expected {
            return Err(TldagError::OutOfOrderAppend {
                expected,
                got: key.1,
            });
        }
        let outcome = self.set.append_record(&record::encode_record(&block))?;
        // Index BEFORE any compaction: a roll-triggered compaction writes a
        // snapshot covering the tail, including the record just staged, so
        // its entry must already exist or a reopen from that snapshot would
        // replay past an unindexed block into a bogus sequence gap.
        self.indexes
            .entry(key.0)
            .or_default()
            .push(&block, outcome.location);
        let capacity = self.opts.cache_blocks;
        self.cache_mut().insert(capacity, key, block);
        self.staged.entry(key.0).or_insert(key.1);
        self.appends_since_snapshot += 1;
        if outcome.rolled {
            if let Some(budget) = self.opts.retain_disk_bytes {
                self.compact_to_budget(budget)?;
            }
        }
        Ok(())
    }

    /// Drops whole sealed segments, oldest first, until disk usage is within
    /// `max_bytes` (the tail is never dropped). A segment is only droppable
    /// when **every** owner keeps its chain head in a later segment; each
    /// owner's index is pruned below its first sequence number stored beyond
    /// the dropped segment. Returns the number of blocks pruned across all
    /// owners; they are no longer retrievable from this log.
    ///
    /// # Errors
    ///
    /// [`TldagError::Storage`] on I/O failure.
    pub(crate) fn compact_to_budget(&mut self, max_bytes: u64) -> Result<usize, TldagError> {
        let mut pruned_total = 0usize;
        let mut removed: Vec<u32> = Vec::new();
        while self.set.disk_usage_bytes() > max_bytes {
            let Some(oldest) = self.set.oldest_sealed() else {
                break; // only the tail is left
            };
            // Per owner: the first retained seq located beyond `oldest`
            // becomes the new base. An owner whose head still lives in
            // `oldest` (or earlier) has none, and blocks the drop.
            let cuts: Option<Vec<(u32, u32)>> = self
                .indexes
                .iter()
                .filter(|(_, index)| index.retained() > 0)
                .map(|(&owner, index)| {
                    let beyond = |seq: &u32| {
                        index
                            .entry(*seq)
                            .is_some_and(|e| e.location.segment > oldest)
                    };
                    let new_base = (index.base_seq()..index.next_seq()).find(beyond)?;
                    Some((owner, new_base))
                })
                .collect();
            let Some(cuts) = cuts else {
                break; // an owner's head lives in `oldest`
            };
            // The head guard trusts index entries whose records may still
            // sit in the staging buffer (the roll-triggering append). Make
            // the tail durable BEFORE any sealed segment goes, or a crash
            // could lose an owner's only fsynced block with its buffered
            // head.
            if removed.is_empty() {
                self.make_durable()?;
            }
            for (owner, new_base) in cuts {
                let index = self.indexes.get_mut(&owner).expect("owner indexed");
                pruned_total += index.prune_below(new_base);
                self.cache_mut().evict_below(owner, new_base);
            }
            self.set.retire_segment(oldest);
            removed.push(oldest);
        }
        // Publish the pruned index BEFORE deleting the retired files: a
        // crash between the two leaves harmless orphan segments (skipped on
        // replay, collected by the next compaction) instead of a snapshot
        // whose entries point at deleted segments. Deleting oldest-first
        // keeps the surviving segments contiguous, so a full scan never
        // sees a gap in a chain.
        if pruned_total > 0 {
            self.write_snapshot()?;
        }
        for id in removed {
            self.set.delete_segment_file(id)?;
        }
        Ok(pruned_total)
    }

    /// Makes every staged append durable with (at most) one `fsync`, and
    /// writes an index snapshot once [`StorageOptions::snapshot_every`]
    /// appends have accumulated since the last one.
    ///
    /// The first member to sync after an append pays the syscall; everyone
    /// else in the same batch gets a no-op. This is the group-commit dedup
    /// that turns N per-node slot syncs into one fsync per log per slot.
    ///
    /// # Errors
    ///
    /// [`TldagError::Storage`] when the medium fails.
    pub fn sync(&mut self) -> Result<(), TldagError> {
        self.make_durable()?;
        if self.appends_since_snapshot >= self.opts.snapshot_every {
            self.write_snapshot()?;
        }
        Ok(())
    }

    fn make_durable(&mut self) -> Result<(), TldagError> {
        if !self.staged.is_empty() {
            self.set.sync()?;
            self.staged.clear();
        }
        Ok(())
    }

    /// Writes a fresh snapshot covering the whole log. The caller has just
    /// made the log durable: a snapshot must never cover a record that a
    /// crash could still lose.
    fn write_snapshot(&mut self) -> Result<(), TldagError> {
        let tail = self.set.tail_id();
        let covered = self.set.segment_len(tail)?;
        let blob = BlockIndex::encode_chains(self.indexes.values(), tail, covered);
        let tmp = self.set.dir().join("index.snap.tmp");
        fs::write(&tmp, &blob).map_err(|e| TldagError::io("write snapshot", &e))?;
        fs::rename(&tmp, self.set.dir().join(SNAPSHOT))
            .map_err(|e| TldagError::io("publish snapshot", &e))?;
        self.appends_since_snapshot = 0;
        Ok(())
    }

    /// The block at `seq` of `node`'s chain (`None` below the pruned floor
    /// or beyond the tip).
    pub fn get_of(&self, node: NodeId, seq: u32) -> Option<DataBlock> {
        let entry = self.indexes.get(&node.0)?.entry(seq)?;
        let key = (node.0, seq);
        if let Some(block) = self.cache().get(key) {
            return Some(block);
        }
        // Index and log are maintained together; a decode failure here is
        // real corruption, which the simulator treats as fatal.
        let block = self
            .set
            .read(entry.location)
            .expect("indexed record must decode");
        self.cache()
            .insert(self.opts.cache_blocks, key, block.clone());
        Some(block)
    }

    /// Looks a block of `node`'s chain up by its header digest.
    pub fn by_header_digest_of(&self, node: NodeId, digest: &Digest) -> Option<DataBlock> {
        let seq = self.indexes.get(&node.0)?.seq_of_digest(digest)?;
        self.get_of(node, seq)
    }

    /// Approximate resident bytes of the whole log (indexes, staging buffer
    /// and read cache).
    fn resident_bytes(&self) -> usize {
        self.set.buffered_bytes()
            + self.cache().resident_bytes()
            + self
                .indexes
                .values()
                .map(BlockIndex::resident_bytes)
                .sum::<usize>()
    }

    fn cache(&self) -> MutexGuard<'_, BlockCache> {
        self.cache.lock().expect("cache lock")
    }

    fn cache_mut(&mut self) -> &mut BlockCache {
        self.cache.get_mut().expect("cache lock")
    }
}

/// How a [`LogView`] holds its log: outright ([`DurableStore`]) or shared
/// with the other members of a shard ([`ShardedNodeStore`]).
pub trait LogHolder: fmt::Debug + Send + Sync {
    /// The log, for reading.
    fn log(&self) -> impl Deref<Target = ShardLog> + '_;
    /// The log, for writing.
    fn log_mut(&mut self) -> impl DerefMut<Target = ShardLog> + '_;
}

impl LogHolder for ShardLog {
    fn log(&self) -> impl Deref<Target = ShardLog> + '_ {
        self
    }

    fn log_mut(&mut self) -> impl DerefMut<Target = ShardLog> + '_ {
        self
    }
}

/// The engine's threads claim nodes one at a time, so two of them can append
/// to one shard's log in the same slot; the mutex serialises them.
impl LogHolder for Arc<Mutex<ShardLog>> {
    fn log(&self) -> impl Deref<Target = ShardLog> + '_ {
        self.lock().expect("shard log lock")
    }

    fn log_mut(&mut self) -> impl DerefMut<Target = ShardLog> + '_ {
        self.lock().expect("shard log lock")
    }
}

/// One node's [`BlockBackend`] over a [`ShardLog`]: the chain of `node`.
///
/// Implements the trait once for both ways of holding the log, so a
/// [`tldag_core::node::LedgerNode`] runs on it interchangeably with the in-memory
/// store, with a bounded resident footprint (index + write buffer + read
/// cache) and a chain that survives process restarts.
#[derive(Debug)]
pub struct LogView<L> {
    log: L,
    /// The chain this view serves; `None` only for an owned log that holds
    /// no block yet (its first append names the owner).
    node: Option<NodeId>,
}

/// The per-node store: a view that owns its log and serves its only owner.
pub type DurableStore = LogView<ShardLog>;

/// One shard member's view of the log it shares with its shard.
pub type ShardedNodeStore = LogView<Arc<Mutex<ShardLog>>>;

impl DurableStore {
    /// Opens (or creates) the store in `dir`; see [`ShardLog::open`].
    ///
    /// # Errors
    ///
    /// As [`ShardLog::open`], plus [`TldagError::Corrupt`] when the log
    /// holds the chains of more than one owner.
    pub fn open(dir: impl Into<PathBuf>, opts: StorageOptions) -> Result<Self, TldagError> {
        let log = ShardLog::open(dir, opts)?;
        let mut owners = log.indexes.keys().map(|&owner| NodeId(owner));
        let node = owners.next();
        if owners.next().is_some() {
            return Err(TldagError::Corrupt(format!(
                "{}: a per-node store holds {} chains",
                log.set.dir().display(),
                log.indexes.len()
            )));
        }
        Ok(LogView { log, node })
    }

    /// Total bytes on disk (flushed) plus the pending write buffer.
    pub fn disk_usage_bytes(&self) -> u64 {
        self.log.disk_usage_bytes()
    }

    /// Drops whole sealed segments, oldest first, until disk usage is within
    /// `max_bytes` (the tail is never dropped), and returns the number of
    /// blocks pruned. The chain length ([`BlockBackend::len`]) is
    /// unaffected, which is what lets a node honour the paper's storage
    /// budget without forking its chain.
    ///
    /// # Errors
    ///
    /// [`TldagError::Storage`] on I/O failure.
    pub fn compact_to_budget(&mut self, max_bytes: u64) -> Result<usize, TldagError> {
        self.log.compact_to_budget(max_bytes)
    }

    /// First sequence number still retained (> 0 after compaction).
    pub fn base_seq(&self) -> u32 {
        self.pruned_floor()
    }
}

impl ShardedNodeStore {
    /// Creates a member handle for `node` and registers it with the log, so
    /// an empty chain has an index and the resident-memory split counts it.
    pub fn new(mut log: Arc<Mutex<ShardLog>>, node: NodeId) -> Self {
        log.log_mut().indexes.entry(node.0).or_default();
        LogView {
            log,
            node: Some(node),
        }
    }
}

impl<L: LogHolder> LogView<L> {
    /// `f` over the log and this view's chain index (`None` while the chain
    /// has none).
    fn chain<R>(&self, f: impl FnOnce(&ShardLog, &BlockIndex) -> R) -> Option<R> {
        let log = self.log.log();
        let index = log.indexes.get(&self.node?.0)?;
        Some(f(&log, index))
    }

    /// The block at the seq `pick` chooses from this view's chain index.
    fn read(&self, pick: impl FnOnce(&BlockIndex) -> Option<u32>) -> Option<DataBlock> {
        let node = self.node?;
        self.chain(|log, index| log.get_of(node, pick(index)?))
            .flatten()
    }

    /// `f` over this view's children of `target` generated at or before
    /// `horizon` ([`BlockIndex::children`]), each prefix hit read once,
    /// through the decoded-block cache and then the segment.
    fn children<R>(
        &self,
        target: &Digest,
        horizon: u64,
        f: impl FnOnce(&mut dyn Iterator<Item = (DataBlock, usize)>) -> R,
    ) -> Option<R> {
        let node = self.node?;
        self.chain(
            |log, index| f(&mut index.children(target, horizon, |seq| log.get_of(node, seq))),
        )
    }

    /// The retained seqs of this view's chain.
    fn retained(&self) -> Range<u32> {
        self.chain(|_, index| index.base_seq()..index.next_seq())
            .unwrap_or(0..0)
    }
}

impl<L: LogHolder> BlockBackend for LogView<L> {
    fn append(&mut self, block: DataBlock) -> Result<(), TldagError> {
        let owner = block.id.owner;
        if let Some(node) = self.node.filter(|&node| node != owner) {
            return Err(TldagError::Storage(format!(
                "node {node} cannot append a block owned by {owner}"
            )));
        }
        self.log.log_mut().append(block)?;
        self.node = Some(owner);
        Ok(())
    }

    fn len(&self) -> usize {
        self.retained().end as usize
    }

    fn get(&self, seq: u32) -> Option<DataBlock> {
        self.read(|_| Some(seq))
    }

    fn latest_digest(&self) -> Option<Digest> {
        self.chain(|_, index| index.latest_digest()).flatten()
    }

    fn by_header_digest(&self, digest: &Digest) -> Option<DataBlock> {
        self.read(|index| index.seq_of_digest(digest))
    }

    fn oldest_child_of(&self, target: &Digest) -> Option<DataBlock> {
        self.oldest_child_of_within(target, u64::MAX)
    }

    fn children_of(&self, target: &Digest) -> Vec<DataBlock> {
        let copies = |(block, copies)| std::iter::repeat_n(block, copies);
        self.children(target, u64::MAX, |children| {
            children.flat_map(copies).collect()
        })
        .unwrap_or_default()
    }

    fn oldest_child_of_within(&self, target: &Digest, horizon: u64) -> Option<DataBlock> {
        let oldest = self.children(target, horizon, |children| children.next());
        oldest.flatten().map(|(block, _)| block)
    }

    fn iter(&self) -> Box<dyn Iterator<Item = DataBlock> + '_> {
        Box::new(self.retained().filter_map(|seq| self.get(seq)))
    }

    fn iter_meta(&self) -> Box<dyn Iterator<Item = (BlockId, u64)> + '_> {
        Box::new(self.retained().filter_map(|seq| {
            let time = self.chain(|_, index| Some(index.entry(seq)?.time))??;
            Some((BlockId::new(self.node?, seq), time))
        }))
    }

    fn generated_through(&self, slot: u64) -> Range<u32> {
        self.chain(|_, index| index.generated_through(slot))
            .unwrap_or(0..0)
    }

    fn logical_bits(&self, cfg: &ProtocolConfig) -> Bits {
        self.chain(|_, index| index.logical_bits(cfg))
            .unwrap_or(Bits::ZERO)
    }

    /// The log's resident bytes split evenly over its members.
    fn resident_bytes(&self) -> usize {
        let log = self.log.log();
        log.resident_bytes() / log.indexes.len().max(1)
    }

    fn sync(&mut self) -> Result<(), TldagError> {
        self.log.log_mut().sync()
    }

    fn durable_len(&self) -> usize {
        self.node
            .map_or(0, |node| self.log.log().durable_len_of(node))
    }

    fn pruned_floor(&self) -> u32 {
        self.retained().start
    }

    /// The log's count: shared by every member of a shard — see the trait
    /// docs for the double-counting caveat when summing over members.
    fn fsync_count(&self) -> u64 {
        self.log.log().fsync_count()
    }

    /// The log's segment count (same caveat as
    /// [`BlockBackend::fsync_count`] when summing over members).
    fn segment_count(&self) -> u64 {
        self.log.log().set.segment_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::ShardedDiskFactory;
    use tldag_core::store::BackendFactory;
    use tldag_core::BlockBody;
    use tldag_crypto::schnorr::KeyPair;

    fn block(owner: u32, seq: u32) -> DataBlock {
        block_with_payload(owner, seq, 2)
    }

    fn block_with_payload(owner: u32, seq: u32, payload: usize) -> DataBlock {
        let cfg = ProtocolConfig::test_default();
        DataBlock::create(
            &cfg,
            BlockId::new(NodeId(owner), seq),
            u64::from(seq),
            vec![],
            BlockBody::new(vec![owner as u8 ^ seq as u8; payload], cfg.body_bits),
            &KeyPair::from_seed(u64::from(owner)),
        )
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tldag-group-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn opts(flush_buffer_bytes: usize) -> StorageOptions {
        StorageOptions {
            flush_buffer_bytes,
            ..StorageOptions::default()
        }
    }

    #[test]
    fn multiplexed_chains_round_trip() {
        let dir = temp_dir("mux");
        let mut log = ShardLog::open(dir.join("shard"), opts(64)).unwrap();
        for seq in 0..3 {
            log.append(block(1, seq)).unwrap();
            log.append(block(5, seq)).unwrap();
        }
        assert_eq!(log.len_of(NodeId(1)), 3);
        assert_eq!(log.len_of(NodeId(5)), 3);
        assert_eq!(
            log.get_of(NodeId(5), 2).unwrap().id,
            BlockId::new(NodeId(5), 2)
        );
        assert_eq!(log.get_of(NodeId(9), 0), None);
        let err = log.append(block(1, 7)).unwrap_err();
        assert!(matches!(
            err,
            TldagError::OutOfOrderAppend {
                expected: 3,
                got: 7
            }
        ));
        drop(log);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_is_deduplicated_per_batch() {
        let dir = temp_dir("dedup");
        let mut log = ShardLog::open(dir.join("shard"), opts(1 << 20)).unwrap();
        log.append(block(0, 0)).unwrap();
        log.append(block(2, 0)).unwrap();
        log.sync().unwrap();
        log.sync().unwrap(); // second member of the same slot: no-op
        log.sync().unwrap();
        assert_eq!(log.fsync_count(), 1, "one fsync per batch");
        assert_eq!(log.durable_len_of(NodeId(0)), 1);
        assert_eq!(log.durable_len_of(NodeId(2)), 1);
        log.append(block(0, 1)).unwrap();
        assert_eq!(log.durable_len_of(NodeId(0)), 1, "staged, not durable");
        log.sync().unwrap();
        assert_eq!(log.fsync_count(), 2);
        assert_eq!(log.durable_len_of(NodeId(0)), 2);
        drop(log);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_recovers_synced_records_only() {
        let dir = temp_dir("recover");
        let path = dir.join("shard");
        {
            // Large flush buffer: unsynced records stay in process memory,
            // so dropping the log models a crash that loses them.
            let mut log = ShardLog::open(&path, opts(1 << 20)).unwrap();
            log.append(block(0, 0)).unwrap();
            log.append(block(2, 0)).unwrap();
            log.sync().unwrap();
            log.append(block(0, 1)).unwrap(); // never synced
        }
        let log = ShardLog::open(&path, opts(1 << 20)).unwrap();
        assert_eq!(log.len_of(NodeId(0)), 1, "unsynced append lost");
        assert_eq!(log.len_of(NodeId(2)), 1);
        assert_eq!(log.durable_len_of(NodeId(0)), 1);
        drop(log);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = temp_dir("torn");
        let path = dir.join("shard");
        {
            let mut log = ShardLog::open(&path, opts(1)).unwrap();
            log.append(block(0, 0)).unwrap();
            log.append(block(0, 1)).unwrap();
            log.sync().unwrap();
        }
        // Tear the last record mid-frame.
        let seg = path.join("seg-000000.log");
        let len = fs::metadata(&seg).unwrap().len();
        let file = fs::OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        let log = ShardLog::open(&path, opts(1)).unwrap();
        assert_eq!(log.len_of(NodeId(0)), 1, "torn record discarded");
        assert!(
            fs::metadata(&seg).unwrap().len() < len - 3,
            "file truncated"
        );
        drop(log);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_live_handles_on_one_shard_dir_are_refused() {
        let dir = temp_dir("locked");
        let first = ShardLog::open(dir.join("shard"), opts(64)).unwrap();
        let err = ShardLog::open(dir.join("shard"), opts(64)).unwrap_err();
        assert!(matches!(err, TldagError::Locked { .. }), "{err}");
        drop(first);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_budget_prunes_prefixes_and_recovers_bases() {
        let dir = temp_dir("retention");
        let path = dir.join("shard");
        let small = StorageOptions {
            segment_bytes: 2 * 1024,
            flush_buffer_bytes: 1,
            retain_disk_bytes: Some(4 * 1024),
            ..StorageOptions::default()
        };
        let rounds = 60u32;
        {
            let mut log = ShardLog::open(&path, small.clone()).unwrap();
            for seq in 0..rounds {
                log.append(block(0, seq)).unwrap();
                log.append(block(1, seq)).unwrap();
            }
            log.sync().unwrap();
            assert!(
                log.disk_usage_bytes() <= 4 * 1024 + 2 * 1024,
                "budget bounds disk usage up to one tail segment of slack"
            );
            for owner in [0u32, 1] {
                let floor = log.pruned_floor_of(NodeId(owner));
                assert!(floor > 0, "node {owner} must have pruned its prefix");
                assert_eq!(log.len_of(NodeId(owner)), rounds as usize);
                assert_eq!(log.get_of(NodeId(owner), floor - 1), None);
                assert!(log.get_of(NodeId(owner), floor).is_some());
                // The chain head always survives (head guard).
                assert!(log.get_of(NodeId(owner), rounds - 1).is_some());
            }
        }
        // Recovery re-derives the same floors from the surviving segments.
        let log = ShardLog::open(&path, small).unwrap();
        for owner in [0u32, 1] {
            assert!(log.pruned_floor_of(NodeId(owner)) > 0);
            assert_eq!(log.len_of(NodeId(owner)), rounds as usize);
            assert!(log.get_of(NodeId(owner), rounds - 1).is_some());
        }
        drop(log);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_never_sacrifices_durable_blocks_to_a_buffered_head() {
        // Regression: the head guard trusts index entries whose records may
        // only exist in the volatile staging buffer (the roll-triggering
        // append). Compaction must make the tail durable before deleting a
        // sealed segment, or a crash loses both the deleted durable block
        // and the buffered head that justified deleting it.
        let dir = temp_dir("durable-head");
        let path = dir.join("shard");
        let opts = StorageOptions {
            segment_bytes: 1024,
            flush_buffer_bytes: 1 << 20, // staged records stay in memory
            retain_disk_bytes: Some(2 * 1024),
            ..StorageOptions::default()
        };
        {
            let mut log = ShardLog::open(&path, opts.clone()).unwrap();
            log.append(block(0, 0)).unwrap();
            log.sync().unwrap();
            assert_eq!(log.durable_len_of(NodeId(0)), 1);
            // Filler pushes usage past the budget, but node 0's head still
            // sits in segment 0, so the head guard blocks every compaction.
            for seq in 0..20 {
                log.append(block(1, seq)).unwrap();
            }
            assert_eq!(log.pruned_floor_of(NodeId(0)), 0, "guard must hold");
            // Node 0's big seq-1 record triggers the roll itself: at
            // compaction time it is the only record in the staging buffer,
            // and it is what unblocks pruning node 0's durable seq 0.
            log.append(block_with_payload(0, 1, 900)).unwrap();
            assert!(
                log.pruned_floor_of(NodeId(0)) > 0,
                "compaction must prune node 0's prefix for this test to bite"
            );
            // Crash: drop without sync — the staging buffer dies with us.
        }
        let log = ShardLog::open(&path, opts).unwrap();
        assert_eq!(
            log.len_of(NodeId(0)),
            2,
            "node 0's chain must survive: seq 0 was durable before compaction \
traded it for seq 1"
        );
        assert!(log.get_of(NodeId(0), 1).is_some());
        assert_eq!(log.pruned_floor_of(NodeId(0)), 1);
        drop(log);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn factory_routes_nodes_to_shards() {
        let dir = temp_dir("factory");
        let mut factory = ShardedDiskFactory::new(&dir, 2, 4);
        let mut stores: Vec<Box<dyn BlockBackend>> =
            (0..4).map(|i| factory.create(NodeId(i))).collect();
        for (i, store) in stores.iter_mut().enumerate() {
            store.append(block(i as u32, 0)).unwrap();
        }
        for store in &mut stores {
            store.sync().unwrap();
        }
        // 4 nodes, 2 shards, 1 batch: one fsync in each shard log.
        assert_eq!(stores[0].fsync_count(), 1);
        assert_eq!(stores[3].fsync_count(), 1);
        assert_eq!(factory.shard_of(NodeId(3)), 1);
        for store in &stores {
            assert_eq!(store.durable_len(), 1);
        }
        drop(stores);
        drop(factory);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_factory_wipes_only_its_own_shard_state() {
        let dir = temp_dir("wipe");
        fs::create_dir_all(dir.join("shard-0000")).unwrap();
        fs::write(dir.join("precious.txt"), b"user data").unwrap();
        fs::write(dir.join("shard-0000").join("seg-000000.log"), b"stale").unwrap();
        fs::create_dir_all(dir.join("trust")).unwrap();
        fs::write(dir.join("trust").join("node-0.cache"), b"stale").unwrap();
        let _factory = ShardedDiskFactory::new(&dir, 2, 4);
        assert!(
            dir.join("precious.txt").exists(),
            "unrelated files must survive"
        );
        assert!(
            !dir.join("shard-0000").exists(),
            "stale shard directories are wiped"
        );
        assert!(!dir.join("trust").exists(), "stale trust caches are wiped");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_owner_append_is_refused() {
        let dir = temp_dir("owner");
        let mut factory = ShardedDiskFactory::new(&dir, 1, 4);
        let mut store = factory.create(NodeId(0));
        let err = store.append(block(1, 0)).unwrap_err();
        assert!(err.to_string().contains("owned by"), "{err}");
        drop(store);
        drop(factory);
        fs::remove_dir_all(&dir).unwrap();
    }
}
