//! Group-commit storage: one multiplexed block log per **shard** of nodes.
//!
//! The per-node [`DurableStore`](crate::engine::DurableStore) issues one
//! `fsync` per node per sync point; at the 10⁴–10⁵-node scale the ROADMAP
//! targets, that makes the sync syscall — not the protocol — the slot-loop
//! bottleneck in disk mode. This module batches durability the way real
//! databases do (group commit): all nodes of a shard append CRC-framed
//! records into **one** shared segmented log, staged writes accumulate per
//! shard, and a slot-boundary sync costs **one** `fsync` per shard per slot
//! no matter how many nodes the shard holds.
//!
//! ## Layout
//!
//! Since the segmented-core refactor each shard owns a **directory** of
//! segment files (the same [`crate::segment::SegmentSet`] the per-node
//! engine uses), so the shard log rolls and compacts exactly like a
//! per-node log:
//!
//! ```text
//! root/
//!   shard-0000/
//!     seg-000000.log   sealed segment (records of the shard's node band)
//!     seg-000001.log   tail segment
//!     LOCK             single-writer guard
//!   shard-0001/        …  (contiguous node-id bands, Sharding::chunk_ranges)
//! ```
//!
//! Records reuse the [`crate::record`] frame; no extra framing is needed
//! because the canonical block encoding already carries the owner id
//! ([`DataBlock::id`]), which is what demultiplexes the log back into
//! per-node chains on recovery.
//!
//! ## Retention
//!
//! With [`StorageOptions::retain_disk_bytes`] set, a segment roll compacts
//! the log to the budget: the oldest sealed segment is dropped **only** when
//! every member chain keeps its newest retained block in a later segment
//! (dropping a chain head would break that node's own prev-digest linkage).
//! Because appends from all members interleave in generation order, a
//! dropped segment removes a *prefix* of every member chain — each member's
//! index is pruned below its first sequence number stored beyond the dropped
//! segment, and [`ShardLog::pruned_floor_of`] reports the per-member floor.
//! Recovery demultiplexes the surviving segments: the first record seen for
//! an owner re-establishes that chain's base.
//!
//! ## Durability contract
//!
//! [`ShardLog::sync`] is idempotent per batch: the first member handle that
//! syncs after an append flushes the shared buffer and `fsync`s the file;
//! subsequent syncs in the same slot see a clean log and do nothing. A crash
//! (dropping the log without sync) loses at most the records staged since
//! the last sync — for [`SyncPolicy::PerSlot`](tldag_core::store::SyncPolicy)
//! that is at most the current slot, and **never** a block whose sync point
//! already returned.
//!
//! Unlike the per-node engine, one crash takes down a whole shard *process*:
//! `TldagNetwork::crash_node` only drops the node's handle, so its staged
//! records survive in the shard log held by its neighbours' handles, exactly
//! like a thread dying inside a surviving storage process. Dropping every
//! handle (and the factory) models the whole process dying.

use crate::index::BlockIndex;
use crate::record;
use crate::segment::{SegmentSet, StorageOptions};
use std::collections::BTreeMap;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use tldag_core::config::ProtocolConfig;
use tldag_core::error::TldagError;
use tldag_core::store::{BackendFactory, BlockBackend, TrustCache};
use tldag_core::{BlockId, DataBlock};
use tldag_crypto::Digest;
use tldag_sim::engine::Sharding;
use tldag_sim::{Bits, NodeId};

/// Default staging-buffer size that triggers a (non-fsync) write to the file.
pub const DEFAULT_FLUSH_BUFFER_BYTES: usize = 256 * 1024;

/// A multiplexed, group-committed block log shared by every node of a shard.
///
/// Appends from any member node are staged into one buffer and indexed
/// per-node; [`ShardLog::sync`] makes the whole batch durable with a single
/// `fsync`. Reads are index-driven and served from the segment files (or the
/// staging buffer for records not yet written out).
#[derive(Debug)]
pub struct ShardLog {
    set: SegmentSet,
    opts: StorageOptions,
    /// Whether any record since the last fsync is not yet durable. This flag
    /// is what collapses N member syncs into one fsync per batch.
    dirty: bool,
    /// Per-node chain indexes over the shared log.
    indexes: BTreeMap<u32, BlockIndex>,
    /// Per-node durable chain length (next seq covered by the last fsync).
    durable: BTreeMap<u32, u32>,
}

impl ShardLog {
    /// Opens (or creates) the shard log in directory `dir`, replaying the
    /// surviving segments into per-node indexes. The segmented core handles
    /// torn-tail truncation (an invalid frame in the tail segment marks a
    /// crash artifact) and treats sealed-segment damage as fatal.
    ///
    /// # Errors
    ///
    /// [`TldagError::Locked`] when another live handle owns the directory,
    /// [`TldagError::Storage`] on I/O failure, [`TldagError::Corrupt`] when
    /// a checksummed record decodes to an out-of-order sequence number
    /// (which no torn write can produce) or a sealed segment is damaged.
    pub fn open(dir: impl Into<PathBuf>, opts: StorageOptions) -> Result<Self, TldagError> {
        let mut set = SegmentSet::open(dir, "seg", opts.segment_bytes, opts.flush_buffer_bytes)?;
        let mut indexes: BTreeMap<u32, BlockIndex> = BTreeMap::new();
        set.replay(None, &mut |block, location| {
            let owner = block.id.owner.0;
            let index = indexes.entry(owner).or_default();
            if index.retained() == 0 && index.base_seq() == 0 && block.id.seq != 0 {
                // Compacted log: the first surviving record of this owner
                // defines its chain base.
                index.start_at(block.id.seq);
            }
            let expected = index.next_seq();
            if block.id.seq != expected {
                return Err(TldagError::Corrupt(format!(
                    "shard segment {}: node {owner} expected seq {expected}, found {}",
                    location.segment, block.id.seq
                )));
            }
            index.push(&block, location);
            Ok(())
        })?;
        // Everything replayed from the files was covered by a prior fsync
        // (or is about to be overwritten) — report it as durable, like the
        // per-node engine does after recovery.
        let durable = indexes
            .iter()
            .map(|(&n, idx)| (n, idx.next_seq()))
            .collect();

        Ok(ShardLog {
            set,
            opts,
            dirty: false,
            indexes,
            durable,
        })
    }

    /// The directory holding the log's segments.
    pub fn dir(&self) -> &Path {
        self.set.dir()
    }

    /// Registers `node` as a member (so empty chains have an index and the
    /// resident-memory attribution knows the member count).
    pub fn register(&mut self, node: NodeId) {
        self.indexes.entry(node.0).or_default();
        self.durable.entry(node.0).or_insert(0);
    }

    /// Number of member nodes (registered or recovered).
    pub fn members(&self) -> usize {
        self.indexes.len()
    }

    /// Physical fsync calls issued so far.
    pub fn fsync_count(&self) -> u64 {
        self.set.fsync_count()
    }

    /// Number of live segment files backing the shared log.
    pub fn segment_count(&self) -> u64 {
        self.set.segment_count()
    }

    /// Total bytes on disk (flushed) plus the pending staging buffer.
    pub fn disk_usage_bytes(&self) -> u64 {
        self.set.disk_usage_bytes()
    }

    /// Chain length of `node`.
    pub fn len_of(&self, node: NodeId) -> usize {
        self.indexes
            .get(&node.0)
            .map_or(0, |idx| idx.next_seq() as usize)
    }

    /// Header digest of `node`'s newest block.
    pub fn latest_digest_of(&self, node: NodeId) -> Option<Digest> {
        self.indexes.get(&node.0)?.latest_digest()
    }

    /// Durable chain length of `node` (blocks covered by the last fsync).
    pub fn durable_len_of(&self, node: NodeId) -> usize {
        self.durable.get(&node.0).copied().unwrap_or(0) as usize
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
        let index = self.indexes.entry(block.id.owner.0).or_default();
        let expected = index.next_seq();
        if block.id.seq != expected {
            return Err(TldagError::OutOfOrderAppend {
                expected,
                got: block.id.seq,
            });
        }
        let rec = record::encode_record(&block);
        let outcome = self.set.append_record(&rec)?;
        self.indexes
            .get_mut(&block.id.owner.0)
            .expect("index created above")
            .push(&block, outcome.location);
        self.dirty = true;
        if outcome.rolled {
            if let Some(budget) = self.opts.retain_disk_bytes {
                self.compact_to_budget(budget)?;
            }
        }
        Ok(())
    }

    /// Drops whole sealed segments, oldest first, until disk usage is within
    /// `max_bytes`. A segment is only droppable when **every** member chain
    /// keeps its newest retained block in a later segment (a node's own
    /// prev-digest linkage needs `latest()`); each member's index is pruned
    /// below its first sequence number stored beyond the dropped segment.
    /// Returns the number of blocks pruned across all members.
    ///
    /// # Errors
    ///
    /// [`TldagError::Storage`] on I/O failure.
    pub fn compact_to_budget(&mut self, max_bytes: u64) -> Result<usize, TldagError> {
        let mut pruned_total = 0usize;
        let mut synced_for_drop = false;
        while self.set.disk_usage_bytes() > max_bytes {
            let Some(oldest) = self.set.oldest_sealed() else {
                break; // only the tail is left
            };
            // Per member: the first retained seq located beyond `oldest`
            // becomes the new base. A member whose retained head still
            // lives in `oldest` blocks the drop entirely.
            let mut cuts: Vec<(u32, u32)> = Vec::new();
            let mut head_guard = false;
            for (&owner, index) in &self.indexes {
                if index.retained() == 0 {
                    continue; // empty chain, nothing in any segment
                }
                let head = index
                    .entry(index.next_seq() - 1)
                    .expect("retained head exists");
                if head.location.segment <= oldest {
                    head_guard = true;
                    break;
                }
                let new_base = (index.base_seq()..index.next_seq())
                    .find(|&seq| {
                        index
                            .entry(seq)
                            .is_some_and(|e| e.location.segment > oldest)
                    })
                    .expect("head lies beyond the dropped segment");
                cuts.push((owner, new_base));
            }
            if head_guard {
                break;
            }
            // The head guard trusts index entries whose records may still
            // sit in the volatile staging buffer (the roll-triggering
            // append). Make the tail durable BEFORE deleting any sealed
            // segment, or a crash right after the deletion could lose a
            // member's only fsynced block together with its buffered head.
            if !synced_for_drop {
                self.set.sync()?;
                self.dirty = false;
                for (&node, index) in &self.indexes {
                    self.durable.insert(node, index.next_seq());
                }
                synced_for_drop = true;
            }
            for (owner, new_base) in cuts {
                pruned_total += self
                    .indexes
                    .get_mut(&owner)
                    .expect("owner indexed")
                    .prune_below(new_base);
            }
            // Dropping oldest-first keeps the surviving segment set
            // contiguous even if a crash interrupts between deletions, so
            // recovery (a full scan) never sees a gap in any member chain.
            self.set.retire_segment(oldest);
            self.set.delete_segment_file(oldest)?;
        }
        Ok(pruned_total)
    }

    /// Makes every staged append durable with (at most) one `fsync`.
    ///
    /// The first member to sync after an append pays the syscall; everyone
    /// else in the same batch gets a no-op. This is the group-commit dedup
    /// that turns N per-node slot syncs into one fsync per shard per slot.
    ///
    /// # Errors
    ///
    /// [`TldagError::Storage`] when the medium fails.
    pub fn sync(&mut self) -> Result<(), TldagError> {
        if !self.dirty {
            return Ok(());
        }
        self.set.sync()?;
        self.dirty = false;
        for (&node, index) in &self.indexes {
            self.durable.insert(node, index.next_seq());
        }
        Ok(())
    }

    /// The block at `seq` of `node`'s chain (`None` below the pruned floor
    /// or beyond the tip).
    pub fn get_of(&self, node: NodeId, seq: u32) -> Option<DataBlock> {
        let entry = self.indexes.get(&node.0)?.entry(seq)?;
        // Index and log are maintained together; a decode failure here is
        // real corruption, which the simulator treats as fatal.
        Some(
            self.set
                .read(entry.location)
                .expect("indexed shard record must decode"),
        )
    }

    /// Looks a block of `node`'s chain up by its header digest.
    pub fn by_header_digest_of(&self, node: NodeId, digest: &Digest) -> Option<DataBlock> {
        let seq = self.indexes.get(&node.0)?.seq_of_digest(digest)?;
        self.get_of(node, seq)
    }

    fn oldest_child_of_within(
        &self,
        node: NodeId,
        target: &Digest,
        horizon: u64,
    ) -> Option<DataBlock> {
        let index = self.indexes.get(&node.0)?;
        self.get_of(node, index.oldest_child_of_within(target, horizon)?)
    }

    fn children_of(&self, node: NodeId, target: &Digest) -> Vec<DataBlock> {
        let Some(index) = self.indexes.get(&node.0) else {
            return Vec::new();
        };
        index
            .children_of(target)
            .iter()
            .filter_map(|&seq| self.get_of(node, seq))
            .collect()
    }

    fn iter_of(&self, node: NodeId) -> Vec<DataBlock> {
        let Some(index) = self.indexes.get(&node.0) else {
            return Vec::new();
        };
        (index.base_seq()..index.next_seq())
            .filter_map(|seq| self.get_of(node, seq))
            .collect()
    }

    fn iter_meta_of(&self, node: NodeId) -> Vec<(BlockId, u64)> {
        let Some(index) = self.indexes.get(&node.0) else {
            return Vec::new();
        };
        (index.base_seq()..index.next_seq())
            .filter_map(|seq| index.entry(seq).map(|e| (BlockId::new(node, seq), e.time)))
            .collect()
    }

    fn generated_through_of(&self, node: NodeId, slot: u64) -> Range<u32> {
        self.indexes
            .get(&node.0)
            .map_or(0..0, |idx| idx.generated_through(slot))
    }

    fn logical_bits_of(&self, node: NodeId, cfg: &ProtocolConfig) -> Bits {
        self.indexes
            .get(&node.0)
            .map_or(Bits::ZERO, |idx| idx.logical_bits(cfg))
    }

    /// Approximate resident bytes of the whole log (indexes + staging
    /// buffer).
    pub fn resident_bytes(&self) -> usize {
        self.set.buffered_bytes()
            + self
                .indexes
                .values()
                .map(BlockIndex::resident_bytes)
                .sum::<usize>()
    }
}

/// One node's [`BlockBackend`] view over a shared [`ShardLog`].
///
/// Handles of the same shard share the log through an `Arc<Mutex<…>>`.
/// The engine's threads claim nodes one at a time, so two of them can
/// append to one shard's log in the same slot; the mutex serialises them.
#[derive(Debug)]
pub struct ShardedNodeStore {
    log: Arc<Mutex<ShardLog>>,
    node: NodeId,
}

impl ShardedNodeStore {
    /// Creates a member handle for `node` and registers it with the log.
    pub fn new(log: Arc<Mutex<ShardLog>>, node: NodeId) -> Self {
        log.lock().expect("shard log lock").register(node);
        ShardedNodeStore { log, node }
    }

    fn log(&self) -> std::sync::MutexGuard<'_, ShardLog> {
        self.log.lock().expect("shard log lock")
    }
}

impl BlockBackend for ShardedNodeStore {
    fn append(&mut self, block: DataBlock) -> Result<(), TldagError> {
        if block.id.owner != self.node {
            return Err(TldagError::Storage(format!(
                "node {} cannot append a block owned by {}",
                self.node, block.id.owner
            )));
        }
        self.log().append(block)
    }

    fn len(&self) -> usize {
        self.log().len_of(self.node)
    }

    fn get(&self, seq: u32) -> Option<DataBlock> {
        self.log().get_of(self.node, seq)
    }

    fn latest_digest(&self) -> Option<Digest> {
        self.log().latest_digest_of(self.node)
    }

    fn by_header_digest(&self, digest: &Digest) -> Option<DataBlock> {
        self.log().by_header_digest_of(self.node, digest)
    }

    fn oldest_child_of(&self, target: &Digest) -> Option<DataBlock> {
        self.oldest_child_of_within(target, u64::MAX)
    }

    fn oldest_child_of_within(&self, target: &Digest, horizon: u64) -> Option<DataBlock> {
        self.log()
            .oldest_child_of_within(self.node, target, horizon)
    }

    fn children_of(&self, target: &Digest) -> Vec<DataBlock> {
        self.log().children_of(self.node, target)
    }

    fn iter(&self) -> Box<dyn Iterator<Item = DataBlock> + '_> {
        Box::new(self.log().iter_of(self.node).into_iter())
    }

    fn iter_meta(&self) -> Box<dyn Iterator<Item = (BlockId, u64)> + '_> {
        Box::new(self.log().iter_meta_of(self.node).into_iter())
    }

    fn generated_through(&self, slot: u64) -> Range<u32> {
        self.log().generated_through_of(self.node, slot)
    }

    fn logical_bits(&self, cfg: &ProtocolConfig) -> Bits {
        self.log().logical_bits_of(self.node, cfg)
    }

    fn resident_bytes(&self) -> usize {
        let log = self.log();
        log.resident_bytes() / log.members().max(1)
    }

    fn sync(&mut self) -> Result<(), TldagError> {
        self.log().sync()
    }

    fn durable_len(&self) -> usize {
        self.log().durable_len_of(self.node)
    }

    fn pruned_floor(&self) -> u32 {
        self.log().pruned_floor_of(self.node)
    }

    /// The **shared** shard log's count — see the trait docs for the
    /// double-counting caveat when summing over members.
    fn fsync_count(&self) -> u64 {
        self.log().fsync_count()
    }

    /// The **shared** shard log's segment count (same caveat as
    /// [`BlockBackend::fsync_count`] when summing over members).
    fn segment_count(&self) -> u64 {
        self.log().segment_count()
    }
}

/// Provisions group-committed storage: `shards` shard logs under a root
/// directory, each shared by one **contiguous band** of node ids
/// (`tldag_sim::engine::Sharding::chunk_ranges` over the sized node
/// count). A log belongs to node ids, not to threads: the engine's threads
/// claim nodes one at a time, so with more than one thread a shard's
/// records from one slot can interleave in any order. Each member's own
/// records stay in its append order, which is all recovery needs; the byte
/// layout of a file, and so which records share a segment, can differ
/// between runs. Under a retention budget a member's pruned floor can
/// therefore differ by run too.
///
/// Implements [`BackendFactory`], so `TldagNetwork::with_factory` can run
/// any experiment with one fsync per shard per sync point. Trust caches
/// (`H_i`) are persisted per node under `root/trust/` when the network opts
/// in.
#[derive(Debug)]
pub struct ShardedDiskFactory {
    root: PathBuf,
    sharding: Sharding,
    /// Node count the bands were sized for (joiners beyond it land in the
    /// last shard). Must be the same on reattach for chains to be found.
    nodes: usize,
    opts: StorageOptions,
    logs: Vec<Option<Arc<Mutex<ShardLog>>>>,
}

impl ShardedDiskFactory {
    /// A **fresh** factory rooted at `root`, with `shards` shard logs sized
    /// for `nodes` node ids: shard-log directories (and persisted trust
    /// caches) left by a previous run are deleted. Only `shard-*`
    /// directories, legacy `shard-*.log` files, and the `trust/` directory
    /// are touched — the root may hold other data (it is often a
    /// user-supplied `--storage-dir`).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(root: impl Into<PathBuf>, shards: usize, nodes: usize) -> Self {
        let root = root.into();
        if let Ok(entries) = fs::read_dir(&root) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let is_shard_dir = name.starts_with("shard-") && entry.path().is_dir();
                let is_legacy_log = name.starts_with("shard-") && name.ends_with(".log");
                if is_shard_dir {
                    let _ = fs::remove_dir_all(entry.path());
                } else if is_legacy_log {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        let _ = fs::remove_dir_all(root.join("trust"));
        Self::attach(root, shards, nodes)
    }

    /// Attaches to an existing root **without wiping**, recovering whatever
    /// the shard logs persisted — the whole-process restart path. `shards`
    /// and `nodes` must match the values the directory was created with,
    /// or chains will be looked up in the wrong log.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn attach(root: impl Into<PathBuf>, shards: usize, nodes: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedDiskFactory {
            root: root.into(),
            sharding: Sharding::threads(shards),
            nodes,
            opts: StorageOptions {
                flush_buffer_bytes: DEFAULT_FLUSH_BUFFER_BYTES,
                ..StorageOptions::default()
            },
            logs: vec![None; shards.min(nodes).max(1)],
        }
    }

    /// Overrides the engine options (segment size, flush threshold,
    /// retention budget) used for every shard log opened from now on.
    pub fn with_options(mut self, opts: StorageOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Overrides the staging-buffer flush threshold (tests use a large value
    /// to keep unsynced records in memory, so a simulated crash loses them).
    pub fn with_flush_buffer(mut self, bytes: usize) -> Self {
        self.opts.flush_buffer_bytes = bytes.max(1);
        self
    }

    /// The shard a node's chain lives in: the contiguous band of
    /// [`Sharding::chunk_ranges`] over the sized node count. Stable under
    /// joins — ids at or beyond the sized count use the last shard.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.sharding.shard_of(self.nodes, node.index())
    }

    /// Number of shard logs (capped at the sized node count).
    pub fn shards(&self) -> usize {
        self.logs.len()
    }

    /// The shard log directory for `shard`.
    pub fn shard_dir(&self, shard: usize) -> PathBuf {
        self.root.join(format!("shard-{shard:04}"))
    }

    fn trust_path(&self, node: NodeId) -> PathBuf {
        self.root
            .join("trust")
            .join(format!("node-{}.cache", node.0))
    }

    /// Handles on every currently open shard log (experiments read fsync
    /// counts through these after moving the factory into the network).
    pub fn open_logs(&self) -> Vec<Arc<Mutex<ShardLog>>> {
        self.logs.iter().flatten().cloned().collect()
    }

    /// Total fsyncs across all open shard logs.
    pub fn total_fsyncs(&self) -> u64 {
        self.open_logs()
            .iter()
            .map(|l| l.lock().expect("shard log lock").fsync_count())
            .sum()
    }

    fn log_for(&mut self, shard: usize) -> Result<Arc<Mutex<ShardLog>>, TldagError> {
        if let Some(log) = &self.logs[shard] {
            return Ok(Arc::clone(log));
        }
        let log = Arc::new(Mutex::new(ShardLog::open(
            self.shard_dir(shard),
            self.opts.clone(),
        )?));
        self.logs[shard] = Some(Arc::clone(&log));
        Ok(log)
    }
}

impl BackendFactory for ShardedDiskFactory {
    /// Attaches `node` to its shard log (creating the log on first use).
    /// Unlike `DiskFactory::create`, nothing is wiped here — the wipe
    /// happened once in [`ShardedDiskFactory::new`] — because a joining
    /// node must not erase its shard-mates' chains.
    ///
    /// # Panics
    ///
    /// Panics when the shard log cannot be opened — a simulation cannot
    /// proceed without its storage root.
    fn create(&mut self, node: NodeId) -> Box<dyn BlockBackend> {
        let shard = self.shard_of(node);
        let log = self
            .log_for(shard)
            .unwrap_or_else(|e| panic!("cannot open shard log {shard}: {e}"));
        Box::new(ShardedNodeStore::new(log, node))
    }

    /// Reattaches `node` to its shard log. While the factory (or any member
    /// handle) is alive the log keeps its staged state — the shard process
    /// survived the node's crash; a factory built with
    /// [`ShardedDiskFactory::attach`] over a cold directory recovers only
    /// what was fsynced.
    fn reopen(&mut self, node: NodeId) -> Result<Box<dyn BlockBackend>, TldagError> {
        let log = self.log_for(self.shard_of(node))?;
        Ok(Box::new(ShardedNodeStore::new(log, node)))
    }

    fn save_trust_cache(&mut self, node: NodeId, cache: &TrustCache) -> Result<(), TldagError> {
        crate::engine::write_trust_cache(&self.trust_path(node), cache)
    }

    fn load_trust_cache(&mut self, node: NodeId) -> Result<Option<TrustCache>, TldagError> {
        Ok(crate::engine::read_trust_cache(&self.trust_path(node)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tldag_core::config::ProtocolConfig;
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
        // 4 nodes, 2 shards, 1 batch: exactly 2 fsyncs.
        assert_eq!(factory.total_fsyncs(), 2);
        assert_eq!(factory.open_logs().len(), 2);
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
        fs::write(dir.join("shard-0001.log"), b"legacy single-file log").unwrap();
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
        assert!(
            !dir.join("shard-0001.log").exists(),
            "legacy shard logs are wiped"
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
