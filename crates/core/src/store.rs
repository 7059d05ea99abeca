//! Per-node storage: the block set `S_i` and the trusted-header cache `H_i`.
//!
//! A 2LDAG node stores **only its own blocks** (`S_i`, Sec. III-A) plus the
//! headers it has already verified through PoP (`H_i`, Sec. IV-B). Both are
//! sized by the overhead model so Propositions 2 and 3 can be checked against
//! simulated runs. A node's `H_i` ([`TrustCache`]) is its view of a
//! [`HeaderArena`], which the slot engine shares between all its nodes so
//! that each trusted header is indexed once per process.
//!
//! `S_i` is accessed through the [`BlockBackend`] trait so a node can run on
//! either the in-memory [`BlockStore`] (fast, volatile — the original seed
//! behaviour) or a durable engine such as `tldag-storage`'s segmented block
//! log, which survives process restarts and keeps resident memory bounded.
//!
//! [`SyncPolicy`] decides **when** appended blocks are forced to stable
//! storage: per append, per slot (the default commit point), or every `n`
//! slots. The policy is enforced by the slot engine
//! (`tldag_core::network::TldagNetwork`), not by the backends themselves.

use crate::block::{BlockHeader, BlockId, DataBlock};
use crate::config::ProtocolConfig;
use crate::error::TldagError;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use tldag_crypto::Digest;
use tldag_sim::{Bits, NodeId};

/// When appended blocks are forced onto stable storage.
///
/// The slot engine drives the cadence: `PerAppend` syncs inside the
/// generation phase right after each append, the other two sync at slot
/// boundaries. A slot-boundary sync is one commit point: every store's
/// [`BlockBackend::sync`] is called exactly once — from several threads at
/// once when more than one store has staged appends, because every node
/// flushes its own device — and the slot returns only when all of them are
/// durable. Durable backends translate a sync into an `fsync`; the
/// group-commit shard log in `tldag-storage` additionally collapses the
/// slot-boundary syncs of all nodes sharing a shard into **one** `fsync`
/// per shard per slot, whichever threads they arrive on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Every append is made durable immediately (one fsync per block).
    /// Maximum durability, minimum throughput.
    PerAppend,
    /// Sync once per slot at the slot boundary (the seed behaviour): a crash
    /// loses at most the current slot's blocks.
    #[default]
    PerSlot,
    /// Sync every `n` slots: a crash loses at most `n` slots of blocks.
    /// `Grouped(1)` is equivalent to [`SyncPolicy::PerSlot`]. Slots after
    /// the last group boundary are only staged — a clean shutdown must
    /// flush them explicitly (`TldagNetwork::sync_storage`), or they are
    /// lost exactly as in a crash.
    Grouped(u32),
}

impl SyncPolicy {
    /// Whether the engine should sync backends at the **end** of `slot`.
    pub(crate) fn syncs_at_slot_end(self, slot: u64) -> bool {
        match self {
            SyncPolicy::PerAppend => false, // already durable per append
            SyncPolicy::PerSlot => true,
            SyncPolicy::Grouped(n) => {
                let n = u64::from(n.max(1));
                slot % n == n - 1
            }
        }
    }

    /// Whether the engine should sync right after each append.
    pub(crate) fn syncs_per_append(self) -> bool {
        matches!(self, SyncPolicy::PerAppend)
    }
}

impl fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncPolicy::PerAppend => write!(f, "per-append"),
            SyncPolicy::PerSlot => write!(f, "per-slot"),
            SyncPolicy::Grouped(n) => write!(f, "grouped:{n}"),
        }
    }
}

impl std::str::FromStr for SyncPolicy {
    type Err = String;

    /// Parses `per-append`, `per-slot`, or `grouped:N` (N ≥ 1).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "per-append" => Ok(SyncPolicy::PerAppend),
            "per-slot" => Ok(SyncPolicy::PerSlot),
            other => {
                let n = other
                    .strip_prefix("grouped:")
                    .and_then(|raw| raw.parse::<u32>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| {
                        format!("invalid sync policy `{other}` (per-append|per-slot|grouped:N)")
                    })?;
                Ok(SyncPolicy::Grouped(n))
            }
        }
    }
}

/// Storage abstraction over a node's own chain `S_i`.
///
/// Implementations must preserve the append-only, strictly sequential chain
/// discipline (Sec. III-D) and answer the responder-side lookups of Eq. 10–11.
/// Methods return **owned** blocks because durable backends decode records
/// from disk; the in-memory backend clones, which is cheap — block bodies
/// and headers' digest lists are both reference-counted, so a clone copies
/// no payload and no digest entry.
///
/// Backends must be `Send + Sync`: the shard-parallel engine reads peer
/// stores from several worker threads at once (PoP responder lookups), so
/// interior caches need thread-safe interior mutability.
///
/// # Example
///
/// The in-memory [`BlockStore`] is the reference implementation:
///
/// ```
/// use tldag_core::config::ProtocolConfig;
/// use tldag_core::store::{BlockBackend, BlockStore};
/// use tldag_core::{BlockBody, BlockId, DataBlock};
/// use tldag_crypto::schnorr::KeyPair;
/// use tldag_sim::NodeId;
///
/// let cfg = ProtocolConfig::test_default();
/// let keypair = KeyPair::from_seed(7);
/// let mut store = BlockStore::new();
///
/// // Appends must follow the chain: seq 0, then 1, then 2, …
/// let genesis = DataBlock::create(
///     &cfg,
///     BlockId::new(NodeId(7), 0),
///     0,
///     vec![],
///     BlockBody::new(vec![1, 2, 3], cfg.body_bits),
///     &keypair,
/// );
/// let digest = genesis.header_digest();
/// store.append(genesis.clone()).unwrap();
///
/// assert_eq!(store.len(), 1);
/// assert_eq!(store.latest(), Some(genesis.clone()));
/// assert_eq!(store.by_header_digest(&digest), Some(genesis));
///
/// // Skipping a sequence number is refused.
/// let wrong = DataBlock::create(
///     &cfg,
///     BlockId::new(NodeId(7), 5),
///     1,
///     vec![],
///     BlockBody::new(vec![], cfg.body_bits),
///     &keypair,
/// );
/// assert!(store.append(wrong).is_err());
///
/// // Volatile backends treat sync as a no-op but still report durability.
/// store.sync().unwrap();
/// assert_eq!(store.durable_len(), 1);
/// ```
pub trait BlockBackend: fmt::Debug + Send + Sync {
    /// Appends the next block of the chain.
    ///
    /// # Errors
    ///
    /// [`TldagError::OutOfOrderAppend`] when `block.id.seq` is not `len()`,
    /// or [`TldagError::Storage`] when the medium fails.
    fn append(&mut self, block: DataBlock) -> Result<(), TldagError>;

    /// Number of blocks in the chain.
    fn len(&self) -> usize;

    /// True if no block has been generated yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The block with sequence number `seq`.
    fn get(&self, seq: u32) -> Option<DataBlock>;

    /// The most recent block.
    fn latest(&self) -> Option<DataBlock> {
        match self.len() {
            0 => None,
            n => self.get((n - 1) as u32),
        }
    }

    /// Header digest of the most recent block. Backends answer from the
    /// digest `append` computed for their index; the default re-reads and
    /// re-hashes [`Self::latest`].
    fn latest_digest(&self) -> Option<Digest> {
        self.latest().map(|b| b.header_digest())
    }

    /// Looks a block up by its header digest.
    fn by_header_digest(&self, digest: &Digest) -> Option<DataBlock>;

    /// The **oldest** own block whose Digests field contains `target` —
    /// the responder's selection rule (Eq. 11). Multiple blocks may contain
    /// the digest when this node generates faster than the target's owner.
    fn oldest_child_of(&self, target: &Digest) -> Option<DataBlock>;

    /// All own blocks whose Digests field contains `target`
    /// (`C_{j'}(b_v)` of Eq. 10), in generation order.
    fn children_of(&self, target: &Digest) -> Vec<DataBlock>;

    /// [`Self::oldest_child_of`] restricted to blocks generated at or
    /// before slot `horizon`. Pipelined responders answer slot-`horizon`
    /// verification with this so blocks minted while running ahead of the
    /// verification front never leak into a proof path — the reply is
    /// exactly what a lockstep responder would have held at `horizon`.
    ///
    /// Every responder lookup comes through here, so backends answer from
    /// their index and materialise one block; the default is the
    /// definition (and the reference the backends' tests compare against).
    fn oldest_child_of_within(&self, target: &Digest, horizon: u64) -> Option<DataBlock> {
        self.children_of(target)
            .into_iter()
            .find(|b| b.header.time <= horizon)
    }

    /// Iterates over all blocks in generation order.
    fn iter(&self) -> Box<dyn Iterator<Item = DataBlock> + '_>;

    /// Iterates `(id, generation slot)` in generation order **without**
    /// materialising blocks — the candidate-scan fast path. Durable backends
    /// serve this from their index; the default decodes full blocks.
    fn iter_meta(&self) -> Box<dyn Iterator<Item = (BlockId, u64)> + '_> {
        Box::new(self.iter().map(|b| (b.id, b.header.time)))
    }

    /// Seqs of the retained blocks generated at or before `slot`: the
    /// verification-target lookup, called for every node once a slot.
    /// Empty, and starting at the pruned floor, when none is.
    ///
    /// Relies on the chain's generation order: `time` never decreases along
    /// a chain (the engine appends one block per node per slot, a restart
    /// resumes at a later slot, and pruning drops a prefix), so the blocks
    /// this selects are a prefix of the retained ones. Backends binary-search
    /// their index; the default walks [`Self::iter_meta`] up to the first
    /// later block.
    fn generated_through(&self, slot: u64) -> Range<u32> {
        let mut blocks = self.iter_meta().take_while(|&(_, time)| time <= slot);
        match blocks.next() {
            Some((first, _)) => first.seq..first.seq + 1 + blocks.count() as u32,
            None => self.pruned_floor()..self.pruned_floor(),
        }
    }

    /// Logical storage footprint of `S_i` (Eq. 2 summed over blocks).
    fn logical_bits(&self, cfg: &ProtocolConfig) -> Bits;

    /// Approximate bytes of process memory pinned by this backend (full
    /// blocks for the memory store; index + caches for durable engines).
    fn resident_bytes(&self) -> usize;

    /// Forces buffered appends onto stable storage.
    ///
    /// A no-op for volatile backends. After `sync` returns, every block
    /// appended so far must survive a crash of the process.
    ///
    /// # Errors
    ///
    /// [`TldagError::Storage`] when the medium fails.
    fn sync(&mut self) -> Result<(), TldagError> {
        Ok(())
    }

    /// Number of leading chain blocks guaranteed to survive a crash.
    ///
    /// Volatile backends report `len()` (nothing survives, but nothing more
    /// was ever promised); durable engines report the synced watermark.
    fn durable_len(&self) -> usize {
        self.len()
    }

    /// First sequence number still retained — the **pruned floor**.
    ///
    /// 0 until a retention budget compacts the chain prefix away; after
    /// compaction, `get(seq)` returns `None` for every `seq` below the
    /// floor even though `len()` keeps counting the full chain. The PoP
    /// responder path uses the floor to answer requests for compacted
    /// blocks with a graceful miss instead of feigning silence. Volatile
    /// backends never prune.
    fn pruned_floor(&self) -> u32 {
        0
    }

    /// Number of physical `fsync` calls this backend has issued so far.
    ///
    /// Volatile backends report 0. Group-committed backends sharing one log
    /// report the **shared** log's count, so summing over the members of one
    /// shard overcounts; sum one backend per shard instead (the experiment
    /// harness reads counts from the factory, which does exactly that).
    fn fsync_count(&self) -> u64 {
        0
    }

    /// Number of on-disk log segments currently backing this store.
    ///
    /// A telemetry gauge: grows as the log rolls, shrinks when retention
    /// prunes whole segments. Volatile backends report 0.
    fn segment_count(&self) -> u64 {
        0
    }
}

/// Creates block backends for nodes, so `TldagNetwork` can provision storage
/// without depending on a concrete engine crate.
pub trait BackendFactory: fmt::Debug {
    /// A fresh (empty) backend for `node`.
    fn create(&mut self, node: NodeId) -> Box<dyn BlockBackend>;

    /// Reopens `node`'s backend after a crash, recovering durable state.
    ///
    /// # Errors
    ///
    /// [`TldagError::Storage`] / [`TldagError::Corrupt`] from the engine;
    /// volatile factories cannot recover and return an empty store.
    fn reopen(&mut self, node: NodeId) -> Result<Box<dyn BlockBackend>, TldagError>;

    /// Persists `node`'s trusted-header cache `H_i` alongside its chain, so
    /// a restarted node can resume Trust Path Selection warm instead of
    /// re-verifying paths from scratch. Volatile factories ignore the call.
    ///
    /// # Errors
    ///
    /// [`TldagError::Storage`] when the medium fails.
    fn save_trust_cache(&mut self, _node: NodeId, _cache: &TrustCache) -> Result<(), TldagError> {
        Ok(())
    }

    /// Loads `node`'s persisted `H_i`, if any. `H_i` is a cache, not ledger
    /// state: a missing or unreadable file means a cold restart (`None`),
    /// never an error.
    ///
    /// # Errors
    ///
    /// [`TldagError::Storage`] for genuine medium failures (durable
    /// implementations treat decode failures as `None`).
    fn load_trust_cache(&mut self, _node: NodeId) -> Result<Option<TrustCache>, TldagError> {
        Ok(None)
    }
}

/// The factory for the seed's in-memory stores: `create` and `reopen` both
/// yield empty [`BlockStore`]s (a crashed memory-backed node loses its chain).
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryBackendFactory;

impl BackendFactory for MemoryBackendFactory {
    fn create(&mut self, _node: NodeId) -> Box<dyn BlockBackend> {
        Box::new(BlockStore::new())
    }

    fn reopen(&mut self, _node: NodeId) -> Result<Box<dyn BlockBackend>, TldagError> {
        Ok(Box::new(BlockStore::new()))
    }
}

/// The value of a [`ChildIndex`] entry: the positions (slab index and
/// digest-list position) of the arena headers containing a digest with one
/// 64-bit prefix. Most prefixes are contained by a few headers, so up to
/// [`ChildList::INLINE`] children live inline and only the next one
/// allocates. The list is no larger than a `Vec`, so an index bucket is 32
/// bytes. Never empty: the index only creates a list with a child in it.
#[derive(Clone, Debug)]
pub(crate) enum ChildList {
    /// The only child.
    One(u32),
    /// Two or three children: the first `len` of `items`.
    Few {
        /// Live children (2 or 3).
        len: u8,
        /// The children, in list order; slots past `len` are unused.
        items: [u32; ChildList::INLINE],
    },
    /// Four or more children, in the order the index keeps them.
    Many(Vec<u32>),
}

const _: () = assert!(std::mem::size_of::<ChildList>() == std::mem::size_of::<Vec<u32>>());

impl ChildList {
    /// Most children a list holds without allocating.
    pub(crate) const INLINE: usize = 3;

    /// The children, in list order.
    pub(crate) fn as_slice(&self) -> &[u32] {
        match self {
            ChildList::One(only) => std::slice::from_ref(only),
            ChildList::Few { len, items } => &items[..usize::from(*len)],
            ChildList::Many(all) => all,
        }
    }

    fn insert(&mut self, at: usize, child: u32) {
        if let ChildList::Many(all) = self {
            all.insert(at, child);
            return;
        }
        let old = self.as_slice();
        let mut buf = [0; Self::INLINE + 1];
        buf[..at].copy_from_slice(&old[..at]);
        buf[at] = child;
        buf[at + 1..=old.len()].copy_from_slice(&old[at..]);
        let grown = &buf[..=old.len()];
        *self = if grown.len() <= Self::INLINE {
            let mut items = [0; Self::INLINE];
            items[..grown.len()].copy_from_slice(grown);
            ChildList::Few {
                len: grown.len() as u8,
                items,
            }
        } else {
            ChildList::Many(grown.to_vec())
        };
    }
}

/// The header arena's index: every digest some arena header *contains*,
/// keyed by its first 8 bytes, to the [`ChildList`] of headers containing a
/// digest with that prefix, each list in the order the arena inserts into
/// it.
///
/// A prefix is a quarter of the digest, so a bucket is 32 bytes, not 56.
/// The price is that two contained digests may share a key: a list is a
/// superset of one digest's children, so [`TrustCache::children_candidates`]
/// confirms every hit against the full digest. Keys stay under std's
/// SipHash with a random key, because contained digests are whatever a
/// neighbor gossips. Nothing is ever removed: the arena only grows.
#[derive(Clone, Debug, Default)]
pub(crate) struct ChildIndex(HashMap<u64, ChildList>);

const _: () = assert!(std::mem::size_of::<(u64, ChildList)>() == 32);

impl ChildIndex {
    fn key(digest: &Digest) -> u64 {
        let (prefix, _) = digest.as_bytes().split_first_chunk::<8>().expect("32 > 8");
        u64::from_le_bytes(*prefix)
    }

    /// Every child indexed under a digest sharing `target`'s prefix, in list
    /// order. Unconfirmed: some may not contain `target` itself, so only
    /// this module, which confirms them, reads it.
    fn candidates(&self, target: &Digest) -> &[u32] {
        self.0
            .get(&Self::key(target))
            .map_or(&[], ChildList::as_slice)
    }

    /// Adds `child` under `target`'s prefix, at the position `at` picks from
    /// the list as it stands (`<[u32]>::len` appends).
    pub(crate) fn insert(&mut self, target: &Digest, child: u32, at: impl FnOnce(&[u32]) -> usize) {
        match self.0.entry(Self::key(target)) {
            Entry::Vacant(slot) => {
                slot.insert(ChildList::One(child));
            }
            Entry::Occupied(mut slot) => {
                let list = slot.get_mut();
                list.insert(at(list.as_slice()), child);
            }
        }
    }
}

/// One [`ChainIndex`] entry: a contained digest's 64-bit prefix as two
/// words, high first, then the seq of the block containing it; 12 bytes,
/// where a `(u64, u32)` pair would pad to 16. Runs are sorted by
/// `(prefix, seq)`, the array's lexicographic order.
type ChainEntry = [u32; 3];

/// `e`'s 64-bit prefix.
fn prefix(e: &ChainEntry) -> u64 {
    u64::from(e[0]) << 32 | u64::from(e[1])
}

/// A sorted run of a [`ChainIndex`], with the seqs it spans.
#[derive(Clone, Debug)]
struct Run {
    entries: Box<[ChainEntry]>,
    /// Smallest and largest seq of an entry.
    first: u32,
    last: u32,
}

impl Run {
    /// `older` and `newer` as one run; every seq of `older` is at most every
    /// seq of `newer`, so of two entries with one prefix the newer run's
    /// goes last. Merges from the back into `older`'s allocation, grown in
    /// place where the allocator can.
    fn merge(older: Run, newer: Run) -> Run {
        let (mut i, mut j) = (older.entries.len(), newer.entries.len());
        let mut merged = older.entries.into_vec();
        merged.reserve_exact(j);
        merged.resize(i + j, [0; 3]);
        // Branch-free: which side an entry comes from is a coin toss for
        // random prefixes. What is left of `older` at the end is in place.
        while i > 0 && j > 0 {
            let (last_older, last_newer) = (merged[i - 1], newer.entries[j - 1]);
            let from_older = prefix(&last_older) > prefix(&last_newer);
            merged[i + j - 1] = if from_older { last_older } else { last_newer };
            i -= usize::from(from_older);
            j -= usize::from(!from_older);
        }
        merged[..j].copy_from_slice(&newer.entries[..j]);
        Run {
            entries: merged.into_boxed_slice(),
            first: older.first,
            last: newer.last,
        }
    }
}

/// The contained-digest index of one chain (`S_i`'s in [`BlockStore`],
/// and `tldag-storage`'s `BlockIndex`): for every digest a block contains,
/// one 12-byte entry of its 64-bit prefix and the block's seq, nothing
/// hashed.
///
/// A chain only grows at its end, so entries arrive in seq order. The
/// newest sit in a tail of fewer than [`Self::TAIL`], in arrival order;
/// when it fills it is sorted into an exact-size run, and runs merge like a
/// binary counter (each run larger than the next newer one), so `n` entries
/// sit in at most `log2(n / 64) + 1` runs, oldest first. A lookup
/// binary-searches each run for the prefix, oldest first, then scans the
/// tail: its hits come out in seq order, for O(runs · log n + hits) whatever
/// the keys, so gossiped digests chosen to collide buy an attacker nothing
/// beyond the prefix hits [`Self::children`] confirms away.
#[derive(Clone, Debug, Default)]
pub struct ChainIndex {
    runs: Vec<Run>,
    tail: Vec<ChainEntry>,
}

impl ChainIndex {
    /// Entries the tail holds before it becomes a run.
    pub const TAIL: usize = 64;

    /// Indexes `target` as contained by block `seq`, which is no older than
    /// any block indexed before it.
    pub fn push(&mut self, target: &Digest, seq: u32) {
        self.push_prefix(ChildIndex::key(target), seq);
    }

    /// [`Self::push`] of a digest already cut to its 64-bit prefix, as
    /// [`Self::entries_by_seq`] hands it out.
    pub fn push_prefix(&mut self, key: u64, seq: u32) {
        debug_assert!(
            self.last_seq().is_none_or(|last| last <= seq),
            "a chain index grows in seq order"
        );
        self.tail.push([(key >> 32) as u32, key as u32, seq]);
        if self.tail.len() == Self::TAIL {
            let mut entries: Box<[ChainEntry]> = self.tail.as_slice().into();
            entries.sort_unstable_by_key(|e| (prefix(e), e[2]));
            let (first, last) = (self.tail[0][2], self.tail[Self::TAIL - 1][2]);
            self.tail.clear();
            self.runs.push(Run {
                entries,
                first,
                last,
            });
            self.settle();
        }
    }

    fn last_seq(&self) -> Option<u32> {
        (self.tail.last().map(|e| e[2])).or(self.runs.last().map(|r| r.last))
    }

    /// Merges neighbouring runs until each is larger than the next newer
    /// one.
    fn settle(&mut self) {
        let small = |runs: &[Run]| {
            (1..runs.len())
                .rev()
                .find(|&at| runs[at - 1].entries.len() <= runs[at].entries.len())
        };
        while let Some(at) = small(&self.runs) {
            let newer = self.runs.remove(at);
            let older = self.runs.remove(at - 1);
            self.runs.insert(at - 1, Run::merge(older, newer));
        }
    }

    /// Seqs of the blocks holding a digest with `target`'s prefix, once per
    /// such digest, ascending. Unconfirmed, so private.
    fn hits(&self, target: &Digest) -> impl Iterator<Item = u32> + '_ {
        let key = ChildIndex::key(target);
        let same = move |e: &&ChainEntry| prefix(e) == key;
        let runs = self.runs.iter().flat_map(move |run| {
            let from = run.entries.partition_point(|e| prefix(e) < key);
            run.entries[from..].iter().take_while(same)
        });
        runs.chain(self.tail.iter().filter(same)).map(|e| e[2])
    }

    /// The blocks containing `target`, ascending, each as many times as its
    /// digest list names `target`: `count(seq)`, which reads that list, and
    /// which is 0 for a block that only holds a digest sharing the prefix.
    pub fn children<'a>(
        &'a self,
        target: &Digest,
        mut count: impl FnMut(u32) -> usize + 'a,
    ) -> impl Iterator<Item = u32> + 'a {
        let mut previous = None;
        let seqs = self.hits(target);
        seqs.filter(move |&seq| previous.replace(seq) != Some(seq))
            .flat_map(move |seq| std::iter::repeat_n(seq, count(seq)))
    }

    /// Drops every entry of a block older than `floor`: whole runs below
    /// it, and the older entries of the run (or tail) that straddles it.
    pub fn prune_below(&mut self, floor: u32) {
        let below = self.runs.partition_point(|run| run.last < floor);
        self.runs.drain(..below);
        if let Some(run) = self.runs.first_mut().filter(|run| run.first < floor) {
            let kept: Box<[ChainEntry]> = run
                .entries
                .iter()
                .filter(|e| e[2] >= floor)
                .copied()
                .collect();
            run.first = kept
                .iter()
                .map(|e| e[2])
                .min()
                .expect("the run reaches the floor");
            run.entries = kept;
            self.settle();
        }
        self.tail.retain(|e| e[2] >= floor);
    }

    /// Every entry as `(prefix, seq)`, ordered by seq, then prefix: pushed
    /// back in this order through [`Self::push_prefix`], they rebuild an
    /// index that answers every lookup as this one does.
    pub fn entries_by_seq(&self) -> Vec<(u64, u32)> {
        let runs = self.runs.iter().flat_map(|run| run.entries.iter());
        let mut entries: Vec<(u64, u32)> = (runs.chain(&self.tail))
            .map(|e| (prefix(e), e[2]))
            .collect();
        entries.sort_unstable_by_key(|&(prefix, seq)| (seq, prefix));
        entries
    }

    /// Number of entries: one per contained digest of an indexed block.
    pub fn len(&self) -> usize {
        self.tail.len() + self.run_lens().sum::<usize>()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries in each run, oldest first (the tail not included).
    pub fn run_lens(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.runs.iter().map(|run| run.entries.len())
    }

    /// Entries waiting in the tail.
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// Bytes the index pins: 12 per entry in the runs and per tail slot
    /// allocated, plus the run table at its capacity.
    pub fn resident_bytes(&self) -> usize {
        let entries = self.run_lens().sum::<usize>() + self.tail.capacity();
        entries * std::mem::size_of::<ChainEntry>()
            + self.runs.capacity() * std::mem::size_of::<Run>()
    }
}

/// The append-only chain of blocks generated by one node (`S_i`),
/// held entirely in memory.
#[derive(Clone, Debug, Default)]
pub struct BlockStore {
    blocks: Vec<DataBlock>,
    /// Header digest of the last block in `blocks`.
    latest_digest: Option<Digest>,
    /// Header digest → seq of the block with that header.
    by_digest: HashMap<Digest, u32>,
    /// Contained-digest prefix → seqs of blocks whose Digests field holds
    /// it (the responder's `C_{j'}(b_v)` lookup, Eq. 10).
    children_of: ChainIndex,
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seqs of the blocks containing `target`, ascending, each as many times
    /// as its header names `target`.
    fn child_seqs<'a>(&'a self, target: &'a Digest) -> impl Iterator<Item = u32> + 'a {
        self.children_of.children(target, move |seq| {
            let digests = self.blocks[seq as usize].header.digests.iter();
            digests.filter(|e| e.digest == *target).count()
        })
    }
}

impl BlockBackend for BlockStore {
    fn append(&mut self, block: DataBlock) -> Result<(), TldagError> {
        if block.id.seq as usize != self.blocks.len() {
            return Err(TldagError::OutOfOrderAppend {
                expected: self.blocks.len() as u32,
                got: block.id.seq,
            });
        }
        let digest = block.header_digest();
        self.latest_digest = Some(digest);
        self.by_digest.insert(digest, block.id.seq);
        for entry in block.header.digests.iter() {
            self.children_of.push(&entry.digest, block.id.seq);
        }
        self.blocks.push(block);
        Ok(())
    }

    fn len(&self) -> usize {
        self.blocks.len()
    }

    fn get(&self, seq: u32) -> Option<DataBlock> {
        self.blocks.get(seq as usize).cloned()
    }

    fn latest_digest(&self) -> Option<Digest> {
        self.latest_digest
    }

    fn by_header_digest(&self, digest: &Digest) -> Option<DataBlock> {
        self.by_digest.get(digest).and_then(|&seq| self.get(seq))
    }

    fn oldest_child_of(&self, target: &Digest) -> Option<DataBlock> {
        self.oldest_child_of_within(target, u64::MAX)
    }

    fn children_of(&self, target: &Digest) -> Vec<DataBlock> {
        self.child_seqs(target)
            .filter_map(|s| self.get(s))
            .collect()
    }

    fn oldest_child_of_within(&self, target: &Digest, horizon: u64) -> Option<DataBlock> {
        let mut children = self
            .child_seqs(target)
            .map(|seq| &self.blocks[seq as usize]);
        children.find(|b| b.header.time <= horizon).cloned()
    }

    fn iter(&self) -> Box<dyn Iterator<Item = DataBlock> + '_> {
        Box::new(self.blocks.iter().cloned())
    }

    fn iter_meta(&self) -> Box<dyn Iterator<Item = (BlockId, u64)> + '_> {
        Box::new(self.blocks.iter().map(|b| (b.id, b.header.time)))
    }

    fn generated_through(&self, slot: u64) -> Range<u32> {
        0..self.blocks.partition_point(|b| b.header.time <= slot) as u32
    }

    fn logical_bits(&self, cfg: &ProtocolConfig) -> Bits {
        self.blocks.iter().map(|b| b.logical_bits(cfg)).sum()
    }

    fn resident_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| {
                std::mem::size_of::<DataBlock>()
                    + b.header.digests.len() * std::mem::size_of::<crate::block::DigestEntry>()
                    + b.body.payload.len()
            })
            .sum::<usize>()
            + self.by_digest.len() * (32 + 4)
            + self.children_of.resident_bytes()
    }
}

/// A header verified via PoP, cached in `H_i` together with its provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrustedHeader {
    /// Node that generated the header's block.
    pub owner: NodeId,
    /// Block identity in the owner's chain.
    pub block_id: BlockId,
    /// The verified header. Its digest list is the one the reply carried,
    /// shared with the responder's `S_i` in the in-process engine.
    pub header: BlockHeader,
}

impl TrustedHeader {
    /// Whether both name the same block: the provenance a header digest
    /// does not cover.
    fn same_block(&self, other: &TrustedHeader) -> bool {
        (self.owner, self.block_id) == (other.owner, other.block_id)
    }
}

/// Headers a PoP run verified, each with its header digest, in path order:
/// what the validator trusts once the run is committed
/// ([`TrustCache::commit`], or [`HeaderArena::commit`] for the engine's
/// shared arena). Built by the validator from digests it already holds, or
/// collected from headers, which hashes each one, so every digest is its
/// header's.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FreshHeaders(Vec<(Digest, TrustedHeader)>);

impl FreshHeaders {
    /// Adds a header under `digest`, which must be `trusted.header.digest()`.
    pub(crate) fn push(&mut self, digest: Digest, trusted: TrustedHeader) {
        debug_assert_eq!(digest, trusted.header.digest(), "cache key is the digest");
        self.0.push((digest, trusted));
    }
}

impl FromIterator<TrustedHeader> for FreshHeaders {
    fn from_iter<I: IntoIterator<Item = TrustedHeader>>(headers: I) -> Self {
        let keyed = headers.into_iter().map(|t| (t.header.digest(), t));
        FreshHeaders(keyed.collect())
    }
}

/// The trusted headers of every `H_i` in one process, each indexed once:
/// the first time any member trusts it.
///
/// Headers live in a slab in first-trusted order, each beside the digest it
/// is indexed under, and two maps point into the slab: one by the header's
/// own digest, one (`ChildIndex`) by the prefix of every digest the header
/// *contains*, so TPS can answer "is there a cached child of block `d`?"
/// with one probe. Two invariants hold after every insert: each key equals
/// `header.digest()` of its value, and each child list is in
/// `(time, owner, seq)` order with ties in first-trusted order — the order
/// TPS prefers children in, kept at insert so that no lookup sorts.
///
/// A child-list element is `slab index << 8 | position`: where in that
/// header's digest list the indexed digest sits, capped at 255. Confirming
/// a prefix hit against the full digest then reads one entry of the list
/// instead of scanning it; slab indices are bounded at 2^24.
///
/// A [`TrustCache`] is one member's view of an arena. [`TrustCache::new`]
/// gives a cache an arena of its own (a device's `H_i`, a `NetNode`'s);
/// the slot engine makes every node a member of one arena
/// ([`TrustCache::member_of`]), whose information is per header while the
/// per-node caches it replaces paid per (node, header). An arena changes
/// only at serial points — [`TrustCache::commit`], [`HeaderArena::commit`]
/// — so reading it takes no lock.
#[derive(Clone, Debug, Default)]
pub struct HeaderArena {
    slab: Vec<(Digest, TrustedHeader)>,
    /// Header digest → slab index of the first header trusted under it.
    by_digest: HashMap<Digest, u32>,
    /// Header digest → slab indices of later headers under the same digest
    /// that name another block (a responder's claim the digest does not
    /// cover). Empty unless a peer lies about a block id.
    renamed: HashMap<Digest, Vec<u32>>,
    /// Contained-digest prefix → `index << 8 | position` of headers that
    /// include it.
    children_of: ChildIndex,
}

impl HeaderArena {
    /// The position field's cap: an element at `FAR` stands for a digest at
    /// position 255 or later, confirmed by scanning the list from there.
    const FAR: usize = 255;

    /// Number of headers, over all members.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True if no member trusts anything.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// The slab index of `trusted`, which is `digest`'s header: the entry an
    /// earlier member trusted for the same block, or a new one, indexed now.
    fn intern(&mut self, digest: Digest, trusted: TrustedHeader) -> u32 {
        let same_block = |&i: &u32| self.slab[i as usize].1.same_block(&trusted);
        if let Some(index) = self.under(&digest).find(same_block) {
            return index;
        }
        let known = self.by_digest.contains_key(&digest);
        let index = self.index(digest, trusted);
        if known {
            self.renamed.entry(digest).or_default().push(index);
        } else {
            self.by_digest.insert(digest, index);
        }
        index
    }

    /// Slab indices of every header trusted under `digest`, the first first.
    fn under(&self, digest: &Digest) -> impl Iterator<Item = u32> + '_ {
        let first = self.by_digest.get(digest).copied();
        let renamed = self.renamed.get(digest).into_iter().flatten().copied();
        first.into_iter().chain(renamed)
    }

    /// Appends a header to the slab and indexes every digest it contains.
    fn index(&mut self, digest: Digest, trusted: TrustedHeader) -> u32 {
        let index = u32::try_from(self.slab.len())
            .ok()
            .filter(|&i| i < 1 << 24)
            .expect("an arena holds fewer than 2^24 headers");
        self.slab.push((digest, trusted));
        let slab = &self.slab;
        let order = |child: u32| {
            let t = &slab[(child >> 8) as usize].1;
            (t.header.time, t.owner, t.block_id.seq)
        };
        let key = order(index << 8);
        for (position, entry) in slab[index as usize].1.header.digests.iter().enumerate() {
            let child = index << 8 | position.min(Self::FAR) as u32;
            self.children_of.insert(&entry.digest, child, |list| {
                list.partition_point(|&c| order(c) <= key)
            });
        }
        index
    }

    /// Commits `fresh` — batches of headers, each beside the index in
    /// `caches` of the cache trusting it — in the order given: the serial
    /// point at which a shared arena grows.
    ///
    /// Every cache that is a member of `shared` hands its handle back
    /// first, so the arena has one owner and grows in place, and gets the
    /// grown arena back after. (A handle held anywhere else, say a cloned
    /// cache, keeps the arena it saw and makes this one commit copy it.) A
    /// cache with an arena of its own commits to that.
    pub fn commit(
        shared: &mut Arc<HeaderArena>,
        caches: &mut [&mut TrustCache],
        fresh: impl IntoIterator<Item = (usize, FreshHeaders)>,
    ) {
        let parked = Arc::new(HeaderArena::default());
        let members: Vec<bool> = (caches.iter_mut())
            .map(|cache| {
                let member = Arc::ptr_eq(&cache.arena, shared);
                if member {
                    cache.arena = Arc::clone(&parked);
                }
                member
            })
            .collect();
        let arena = Arc::make_mut(shared);
        for (at, headers) in fresh {
            if members[at] {
                caches[at].own.trust_all(arena, headers);
            } else {
                caches[at].commit(headers);
            }
        }
        for (cache, member) in caches.iter_mut().zip(members) {
            if member {
                cache.arena = Arc::clone(shared);
            }
        }
    }
}

/// One member's headers: slab indices in the order it trusted them, and the
/// same set as a bitset over the slab, which lookups test before touching
/// an entry.
#[derive(Clone, Debug, Default)]
struct Membership {
    order: Vec<u32>,
    bits: Vec<u64>,
}

impl Membership {
    fn contains(&self, index: u32) -> bool {
        let word = self.bits.get(index as usize / 64).copied().unwrap_or(0);
        word >> (index % 64) & 1 == 1
    }

    /// The index of this member's header under `digest`, if it trusts one.
    fn find(&self, arena: &HeaderArena, digest: &Digest) -> Option<u32> {
        arena.under(digest).find(|&index| self.contains(index))
    }

    /// Trusts each header in `fresh`, in order, indexing it in `arena` if no
    /// member did before. A header already trusted under its digest is
    /// ignored.
    fn trust_all(&mut self, arena: &mut HeaderArena, fresh: FreshHeaders) {
        for (digest, trusted) in fresh.0 {
            if self.find(arena, &digest).is_some() {
                continue;
            }
            let index = arena.intern(digest, trusted);
            let word = index as usize / 64;
            if self.bits.len() <= word {
                self.bits.resize(word + 1, 0);
            }
            self.bits[word] |= 1 << (index % 64);
            self.order.push(index);
        }
    }
}

/// The trusted-header cache `H_i` used by Trust Path Selection (Sec. IV-B):
/// one member's view of a [`HeaderArena`], its headers in the order it
/// trusted them.
///
/// Lookups walk the arena's structures and keep this member's headers, so
/// every answer — candidates and their order, `get`, `iter` — is the one a
/// cache holding only these headers would give, whoever else shares the
/// arena. The one exception is the order of children with equal
/// `(time, owner, seq)`, which follows the arena's first-trusted order
/// rather than this member's; only equivocating headers tie, and the engine
/// mints none.
#[derive(Clone, Debug, Default)]
pub struct TrustCache {
    arena: Arc<HeaderArena>,
    own: Membership,
}

impl TrustCache {
    /// Creates an empty cache with an arena of its own: a device's `H_i`,
    /// or a `NetNode`'s, whose arena has one member.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty member of `arena`, which grows through
    /// [`HeaderArena::commit`].
    pub fn member_of(arena: &Arc<HeaderArena>) -> Self {
        TrustCache {
            arena: Arc::clone(arena),
            own: Membership::default(),
        }
    }

    /// Whether this cache is a member of `arena`.
    pub fn is_member_of(&self, arena: &Arc<HeaderArena>) -> bool {
        Arc::ptr_eq(&self.arena, arena)
    }

    /// The arena this cache is a view of.
    pub fn arena(&self) -> &HeaderArena {
        &self.arena
    }

    /// Inserts a verified header. Duplicate insertions are ignored.
    pub fn insert(&mut self, trusted: TrustedHeader) {
        self.commit(std::iter::once(trusted).collect());
    }

    /// Trusts every header of a committed PoP run, in path order, in this
    /// cache's arena. A cache sharing its arena copies it first (see
    /// [`HeaderArena::commit`] for growing a shared arena in place).
    pub fn commit(&mut self, fresh: FreshHeaders) {
        self.own.trust_all(Arc::make_mut(&mut self.arena), fresh);
    }

    /// This cache's headers as fresh ones, in the order it trusted them: to
    /// trust them again in another arena.
    pub(crate) fn to_fresh(&self) -> FreshHeaders {
        let entries = self
            .iter()
            .map(|(digest, trusted)| (*digest, trusted.clone()));
        FreshHeaders(entries.collect())
    }

    /// Number of cached headers.
    pub fn len(&self) -> usize {
        self.own.order.len()
    }

    /// True if the cache is empty (`H_i = ∅`, the Prop. 4 worst case).
    pub fn is_empty(&self) -> bool {
        self.own.order.is_empty()
    }

    /// Fetches a cached header by its digest.
    pub fn get(&self, digest: &Digest) -> Option<&TrustedHeader> {
        let index = self.own.find(&self.arena, digest)?;
        Some(&self.arena.slab[index as usize].1)
    }

    /// All cached headers whose Digests field contains `target` — the TPS
    /// condition `H(b^h_v) ∈ b^h ∈ H_i` (Eq. 9) — each with the digest it is
    /// indexed under, ordered by (time, owner, seq) so TPS is deterministic.
    /// TPS consumers filter this sequence (e.g. skipping rolled-back blocks)
    /// and take the first survivor. A header naming `target` twice appears
    /// twice; one that only shares its prefix never appears.
    pub fn children_candidates(
        &self,
        target: &Digest,
    ) -> impl Iterator<Item = (Digest, &TrustedHeader)> {
        let target = *target;
        let arena = &*self.arena;
        // (slab index, far elements of it seen so far)
        let mut far = (u32::MAX, 0);
        let candidates = arena.children_of.candidates(&target).iter();
        candidates.filter_map(move |&child| {
            let (index, position) = (child >> 8, (child & 0xff) as usize);
            if !self.own.contains(index) {
                return None;
            }
            let (digest, trusted) = &arena.slab[index as usize];
            let digests = &trusted.header.digests;
            let hit = if position < HeaderArena::FAR {
                digests[position].digest == target
            } else {
                // A header's far elements are adjacent and in list order, so
                // the k-th is a hit when `target` sits past `FAR` k times.
                far = (index, if far.0 == index { far.1 + 1 } else { 1 });
                let tail = digests[HeaderArena::FAR..].iter();
                tail.filter(|e| e.digest == target).count() >= far.1
            };
            hit.then_some((*digest, trusted))
        })
    }

    /// What one device holding these headers alone would pin: the slab,
    /// `by_digest` and the child index of a cache with an arena of its own,
    /// at exact fit (no table slack). It counts this member's headers and
    /// index entries only, so sharing an arena never shrinks it;
    /// `HeaderArena::resident_bytes` is the process's side.
    pub fn resident_bytes(&self) -> usize {
        let mut children: HashMap<u64, usize> = HashMap::new();
        for (_, trusted) in self.iter() {
            for entry in trusted.header.digests.iter() {
                *children.entry(ChildIndex::key(&entry.digest)).or_default() += 1;
            }
        }
        let heap = (children.values())
            .filter(|&&n| n > ChildList::INLINE)
            .map(|n| n * std::mem::size_of::<u32>());
        self.len()
            * (std::mem::size_of::<(Digest, TrustedHeader)>()
                + std::mem::size_of::<(Digest, u32)>())
            + children.len() * std::mem::size_of::<(u64, ChildList)>()
            + heap.sum::<usize>()
    }

    /// Logical storage footprint of `H_i` (header bits summed; Prop. 2).
    pub fn logical_bits(&self, cfg: &ProtocolConfig) -> Bits {
        self.iter().map(|(_, t)| t.header.logical_bits(cfg)).sum()
    }

    /// Iterates over cached headers, each with the digest it is indexed
    /// under, in the order this cache trusted them.
    pub fn iter(&self) -> impl Iterator<Item = (&Digest, &TrustedHeader)> {
        self.own.order.iter().map(|&index| {
            let (digest, trusted) = &self.arena.slab[index as usize];
            (digest, trusted)
        })
    }
}

#[cfg(test)]
impl FreshHeaders {
    /// True if the run verified nothing to trust.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockBody, DigestEntry};
    use tldag_crypto::schnorr::KeyPair;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::test_default()
    }

    fn make_block(
        cfg: &ProtocolConfig,
        owner: NodeId,
        seq: u32,
        time: u64,
        digests: Vec<DigestEntry>,
    ) -> DataBlock {
        let kp = KeyPair::from_seed(u64::from(owner.0));
        let body = BlockBody::new(vec![seq as u8; 16], cfg.body_bits);
        DataBlock::create(cfg, BlockId::new(owner, seq), time, digests, body, &kp)
    }

    #[test]
    fn append_and_lookup() {
        let cfg = cfg();
        let mut store = BlockStore::new();
        let b0 = make_block(&cfg, NodeId(0), 0, 0, vec![]);
        let d0 = b0.header_digest();
        store.append(b0).unwrap();
        let b1 = make_block(
            &cfg,
            NodeId(0),
            1,
            1,
            vec![DigestEntry {
                origin: NodeId(0),
                digest: d0,
            }],
        );
        store.append(b1).unwrap();

        assert_eq!(store.len(), 2);
        assert_eq!(store.latest().unwrap().id.seq, 1);
        assert_eq!(
            store.latest_digest(),
            store.latest().map(|b| b.header_digest())
        );
        assert!(store.by_header_digest(&d0).is_some());
        assert_eq!(store.oldest_child_of(&d0).unwrap().id.seq, 1);
        assert_eq!(store.durable_len(), 2);
        assert!(store.resident_bytes() > 0);
        store.sync().unwrap();
    }

    #[test]
    fn out_of_order_append_rejected() {
        let cfg = cfg();
        let mut store = BlockStore::new();
        let err = store
            .append(make_block(&cfg, NodeId(0), 5, 0, vec![]))
            .unwrap_err();
        assert_eq!(
            err,
            crate::error::TldagError::OutOfOrderAppend {
                expected: 0,
                got: 5
            }
        );
        assert!(
            store.is_empty(),
            "rejected append must not mutate the chain"
        );
    }

    #[test]
    fn oldest_child_picks_minimum_seq() {
        let cfg = cfg();
        let mut store = BlockStore::new();
        let target = Digest::from_bytes([9; 32]);
        // Block 0 without the digest; blocks 1 and 2 both contain it.
        store
            .append(make_block(&cfg, NodeId(1), 0, 0, vec![]))
            .unwrap();
        for seq in 1..=2 {
            store
                .append(make_block(
                    &cfg,
                    NodeId(1),
                    seq,
                    u64::from(seq),
                    vec![DigestEntry {
                        origin: NodeId(7),
                        digest: target,
                    }],
                ))
                .unwrap();
        }
        assert_eq!(store.oldest_child_of(&target).unwrap().id.seq, 1);
        assert_eq!(store.children_of(&target).len(), 2);
        assert!(store.oldest_child_of(&Digest::ZERO).is_none());
    }

    #[test]
    fn storage_bits_sum_block_sizes() {
        let cfg = cfg();
        let mut store = BlockStore::new();
        store
            .append(make_block(&cfg, NodeId(0), 0, 0, vec![]))
            .unwrap();
        let expect = cfg.block_bits(0);
        assert_eq!(store.logical_bits(&cfg), expect);
    }

    #[test]
    fn memory_factory_reopens_empty() {
        let mut factory = MemoryBackendFactory;
        let mut backend = factory.create(NodeId(0));
        backend
            .append(make_block(&cfg(), NodeId(0), 0, 0, vec![]))
            .unwrap();
        assert_eq!(backend.len(), 1);
        // Volatile storage: a reopen after crash recovers nothing.
        let reopened = factory.reopen(NodeId(0)).unwrap();
        assert_eq!(reopened.len(), 0);
    }

    #[test]
    fn trust_cache_insert_and_child_lookup() {
        let cfg = cfg();
        let parent_digest = Digest::from_bytes([5; 32]);
        let block = make_block(
            &cfg,
            NodeId(2),
            0,
            3,
            vec![DigestEntry {
                origin: NodeId(1),
                digest: parent_digest,
            }],
        );
        let mut cache = TrustCache::new();
        cache.insert(TrustedHeader {
            owner: NodeId(2),
            block_id: block.id,
            header: block.header.clone(),
        });
        assert_eq!(cache.len(), 1);
        let hits: Vec<_> = cache.children_candidates(&parent_digest).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, block.header_digest(), "keyed by its digest");
        assert_eq!(hits[0].1.owner, NodeId(2));
        assert_eq!(cache.children_candidates(&Digest::ZERO).count(), 0);
    }

    #[test]
    fn trust_cache_dedups_and_prefers_oldest_child() {
        let cfg = cfg();
        let target = Digest::from_bytes([8; 32]);
        let early = make_block(
            &cfg,
            NodeId(3),
            0,
            1,
            vec![DigestEntry {
                origin: NodeId(9),
                digest: target,
            }],
        );
        let late = make_block(
            &cfg,
            NodeId(4),
            0,
            7,
            vec![DigestEntry {
                origin: NodeId(9),
                digest: target,
            }],
        );
        let mut cache = TrustCache::new();
        for b in [&late, &early, &late] {
            cache.insert(TrustedHeader {
                owner: b.id.owner,
                block_id: b.id,
                header: b.header.clone(),
            });
        }
        assert_eq!(cache.len(), 2, "duplicate insert ignored");
        let owners: Vec<NodeId> = cache
            .children_candidates(&target)
            .map(|(_, t)| t.owner)
            .collect();
        assert_eq!(owners, [NodeId(3), NodeId(4)], "oldest child first");
    }

    /// `H_i` as it was: headers in a digest-keyed map, child lists of
    /// digests in insertion order, collected and sorted on every lookup.
    /// The reference the slab-backed cache must agree with.
    #[derive(Default)]
    struct ReferenceCache {
        by_digest: HashMap<Digest, TrustedHeader>,
        children_of: HashMap<Digest, Vec<Digest>>,
    }

    impl ReferenceCache {
        fn insert(&mut self, trusted: TrustedHeader) {
            let digest = trusted.header.digest();
            if self.by_digest.contains_key(&digest) {
                return;
            }
            for entry in trusted.header.digests.iter() {
                self.children_of
                    .entry(entry.digest)
                    .or_default()
                    .push(digest);
            }
            self.by_digest.insert(digest, trusted);
        }

        fn children_candidates(&self, target: &Digest) -> Vec<(Digest, &TrustedHeader)> {
            let mut candidates: Vec<(Digest, &TrustedHeader)> = self
                .children_of
                .get(target)
                .map(|ds| {
                    ds.iter()
                        .filter_map(|d| Some((*d, self.by_digest.get(d)?)))
                        .collect()
                })
                .unwrap_or_default();
            candidates.sort_by_key(|(_, t)| (t.header.time, t.owner, t.block_id.seq));
            candidates
        }
    }

    /// A digest with `d`'s 64-bit prefix, the child index's key, that is
    /// not `d`.
    fn twin(d: Digest, salt: u8) -> Digest {
        let mut bytes = d.into_bytes();
        bytes[31] ^= salt;
        Digest::from_bytes(bytes)
    }

    fn entries(digests: &[Digest]) -> Vec<DigestEntry> {
        let entry = |&digest| DigestEntry {
            origin: NodeId(7),
            digest,
        };
        digests.iter().map(entry).collect()
    }

    fn trusted(block: &DataBlock) -> TrustedHeader {
        TrustedHeader {
            owner: block.id.owner,
            block_id: block.id,
            header: block.header.clone(),
        }
    }

    #[test]
    fn child_lists_sorted_at_insert_match_collect_and_sort() {
        let cfg = cfg();
        let mut parents: Vec<Digest> = (1..=6).map(|p| Digest::from_bytes([p; 32])).collect();
        // Keys shared between parents, and one with `Digest::ZERO`, which no
        // header contains: a probe meets children of another digest.
        parents.extend([
            twin(parents[0], 1),
            twin(parents[0], 2),
            twin(parents[1], 1),
        ]);
        parents.push(twin(Digest::ZERO, 1));
        for seed in 0..6 {
            let mut rng = tldag_sim::DetRng::seed_from(seed);
            // Few owners, seqs and slots, so many headers share a
            // (time, owner, seq) key while differing in body and digests:
            // equivocating headers, whose relative order is insertion order.
            let mut headers: Vec<TrustedHeader> = (0..48u8)
                .map(|salt| {
                    let owner = NodeId(rng.index(4) as u32);
                    let digests = (0..1 + rng.index(4))
                        .map(|_| DigestEntry {
                            origin: NodeId(rng.index(4) as u32),
                            // May repeat within one header.
                            digest: parents[rng.index(parents.len())],
                        })
                        .collect::<Vec<_>>();
                    let block = DataBlock::create(
                        &cfg,
                        BlockId::new(owner, rng.index(3) as u32),
                        rng.index(5) as u64,
                        digests,
                        BlockBody::new(vec![salt; 8], cfg.body_bits),
                        &KeyPair::from_seed(u64::from(owner.0)),
                    );
                    TrustedHeader {
                        owner,
                        block_id: block.id,
                        header: block.header,
                    }
                })
                .collect();
            // Random order, a third of the headers offered twice.
            headers.extend_from_within(..16);
            rng.shuffle(&mut headers);

            let (mut cache, mut reference) = (TrustCache::new(), ReferenceCache::default());
            for trusted in headers {
                cache.insert(trusted.clone());
                reference.insert(trusted);
                assert_eq!(cache.len(), reference.by_digest.len());
            }
            for target in parents.iter().chain([&Digest::ZERO]) {
                let got: Vec<_> = cache.children_candidates(target).collect();
                assert_eq!(got, reference.children_candidates(target), "seed {seed}");
            }
            for (digest, trusted) in cache.iter() {
                assert_eq!(reference.by_digest.get(digest), Some(trusted));
                assert_eq!(cache.get(digest), Some(trusted));
            }
        }
    }

    #[test]
    fn oldest_child_within_matches_the_trait_default() {
        // The trait's default body, which `BlockStore` overrides.
        fn by_definition(store: &BlockStore, target: &Digest, horizon: u64) -> Option<DataBlock> {
            let mut children = store.children_of(target).into_iter();
            children.find(|b| b.header.time <= horizon)
        }
        let cfg = cfg();
        let [none, once, thrice] = [1, 2, 3].map(|d| Digest::from_bytes([d; 32]));
        // Each target shares its key with a digest some block contains.
        let [near_none, near_once, near_thrice] = [none, once, thrice].map(|d| twin(d, 1));
        let mut store = BlockStore::new();
        let chain = [
            entries(&[near_thrice, near_none]),
            entries(&[thrice]),
            entries(&[near_once, once, thrice, near_thrice]),
            entries(&[near_once]),
            entries(&[thrice]),
        ];
        for (seq, digests) in chain.into_iter().enumerate() {
            // Slots 1, 3, 5, …: horizons fall on and between block times.
            let time = 2 * seq as u64 + 1;
            store
                .append(make_block(&cfg, NodeId(1), seq as u32, time, digests))
                .unwrap();
        }
        assert_eq!(store.children_of(&thrice).len(), 3);
        for target in [&none, &once, &thrice, &near_none, &near_once, &near_thrice] {
            // The children are what a scan of the chain finds.
            let scan: Vec<DataBlock> = (store.iter())
                .filter(|b| b.header.contains_digest(target))
                .collect();
            assert_eq!(store.children_of(target), scan);
            for horizon in 0..=10 {
                assert_eq!(
                    store.oldest_child_of_within(target, horizon),
                    by_definition(&store, target, horizon),
                    "horizon {horizon}"
                );
            }
            assert_eq!(
                store.oldest_child_of(target),
                by_definition(&store, target, u64::MAX)
            );
        }
        assert_eq!(store.oldest_child_of_within(&thrice, 4).unwrap().id.seq, 1);
        assert_eq!(store.oldest_child_of_within(&once, 4), None);
    }

    /// A store answering `generated_through` by the trait's default.
    #[derive(Debug)]
    struct DefaultRange(BlockStore);

    impl BlockBackend for DefaultRange {
        fn append(&mut self, block: DataBlock) -> Result<(), TldagError> {
            self.0.append(block)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn get(&self, seq: u32) -> Option<DataBlock> {
            self.0.get(seq)
        }
        fn by_header_digest(&self, digest: &Digest) -> Option<DataBlock> {
            self.0.by_header_digest(digest)
        }
        fn oldest_child_of(&self, target: &Digest) -> Option<DataBlock> {
            self.0.oldest_child_of(target)
        }
        fn children_of(&self, target: &Digest) -> Vec<DataBlock> {
            self.0.children_of(target)
        }
        fn iter(&self) -> Box<dyn Iterator<Item = DataBlock> + '_> {
            self.0.iter()
        }
        fn logical_bits(&self, cfg: &ProtocolConfig) -> Bits {
            self.0.logical_bits(cfg)
        }
        fn resident_bytes(&self) -> usize {
            self.0.resident_bytes()
        }
    }

    #[test]
    fn generated_through_matches_the_trait_default_and_the_definition() {
        let cfg = cfg();
        // Equal times are allowed: the contract is that time never decreases.
        let times = [2u64, 2, 3, 5, 5, 5, 9];
        let mut store = DefaultRange(BlockStore::new());
        assert_eq!(store.generated_through(100), 0..0);
        assert_eq!(store.0.generated_through(100), 0..0);
        for (seq, &time) in times.iter().enumerate() {
            let block = make_block(&cfg, NodeId(4), seq as u32, time, vec![]);
            store.append(block).unwrap();
        }
        for slot in 0..=10 {
            let expect = times.iter().filter(|&&t| t <= slot).count() as u32;
            assert_eq!(store.0.generated_through(slot), 0..expect, "slot {slot}");
            assert_eq!(store.generated_through(slot), 0..expect, "slot {slot}");
        }
    }

    /// The list's form follows its length: one child in `One`, two or three
    /// inline in `Few`, the heap only from four on.
    fn form_fits(list: &ChildList) -> bool {
        let len = list.as_slice().len();
        match list {
            ChildList::One(_) => len == 1,
            ChildList::Few { .. } => (2..=ChildList::INLINE).contains(&len),
            ChildList::Many(_) => len > ChildList::INLINE,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Random inserts at random positions, replayed on a `Vec`: same
        /// children in the same order, in the smallest form.
        #[test]
        fn child_list_matches_a_vec_reference(
            ops in proptest::collection::vec((0u32..40, 0usize..12), 1..80),
        ) {
            let mut list: Option<ChildList> = None;
            let mut reference: Vec<u32> = Vec::new();
            for (child, at) in ops {
                let at = at % (reference.len() + 1);
                match list.as_mut() {
                    Some(l) => l.insert(at, child),
                    None => list = Some(ChildList::One(child)),
                }
                reference.insert(at, child);
                let l = list.as_ref().expect("a child was inserted");
                proptest::prop_assert_eq!(l.as_slice(), reference.as_slice());
                proptest::prop_assert!(form_fits(l), "{:?}", l);
            }
        }
    }

    #[test]
    fn sync_policy_slot_cadence() {
        for slot in 0..8 {
            assert!(!SyncPolicy::PerAppend.syncs_at_slot_end(slot));
            assert!(SyncPolicy::PerSlot.syncs_at_slot_end(slot));
            assert!(SyncPolicy::Grouped(1).syncs_at_slot_end(slot));
            assert_eq!(
                SyncPolicy::Grouped(3).syncs_at_slot_end(slot),
                slot % 3 == 2
            );
        }
        assert!(SyncPolicy::PerAppend.syncs_per_append());
        assert!(!SyncPolicy::PerSlot.syncs_per_append());
        // Grouped(0) is clamped to Grouped(1) rather than dividing by zero.
        assert!(SyncPolicy::Grouped(0).syncs_at_slot_end(0));
    }

    #[test]
    fn sync_policy_parse_round_trip() {
        for policy in [
            SyncPolicy::PerAppend,
            SyncPolicy::PerSlot,
            SyncPolicy::Grouped(4),
        ] {
            let parsed: SyncPolicy = policy.to_string().parse().unwrap();
            assert_eq!(parsed, policy);
        }
        assert!("grouped:0".parse::<SyncPolicy>().is_err());
        assert!("grouped:x".parse::<SyncPolicy>().is_err());
        assert!("sometimes".parse::<SyncPolicy>().is_err());
    }

    #[test]
    fn trust_cache_never_offers_a_header_that_only_shares_the_prefix() {
        let cfg = cfg();
        let target = Digest::from_bytes([5; 32]);
        let near = twin(target, 1);
        // The impostor is the oldest, so an unconfirmed lookup offers it first.
        let impostor = make_block(&cfg, NodeId(1), 0, 1, entries(&[near]));
        let both = make_block(&cfg, NodeId(2), 0, 2, entries(&[near, target]));
        let child = make_block(&cfg, NodeId(3), 0, 3, entries(&[target]));
        let mut cache = TrustCache::new();
        for block in [&child, &impostor, &both] {
            cache.insert(trusted(block));
        }
        let owners = |d: &Digest| -> Vec<NodeId> {
            let candidates = cache.children_candidates(d);
            candidates.map(|(_, t)| t.owner).collect()
        };
        assert_eq!(owners(&target), [NodeId(2), NodeId(3)]);
        assert_eq!(owners(&near), [NodeId(1), NodeId(2)]);
        assert_eq!(owners(&twin(target, 2)), []);
    }

    #[test]
    fn children_candidates_scans_past_position_255() {
        let cfg = cfg();
        let target = Digest::from_bytes([6; 32]);
        let near = twin(target, 1);
        // Distinct digests whose prefixes are not the target's.
        let mut far: Vec<Digest> = (0..300u32)
            .map(|i| {
                let mut bytes = [0xee; 32];
                bytes[..4].copy_from_slice(&i.to_be_bytes());
                Digest::from_bytes(bytes)
            })
            .collect();
        far[290] = target;
        far[260] = near;
        let once_far = make_block(&cfg, NodeId(2), 0, 2, entries(&far));
        far[291] = near;
        far[299] = target;
        let twice_far = make_block(&cfg, NodeId(3), 0, 3, entries(&far));
        // Named twice, both within the position field.
        let twice_near = make_block(&cfg, NodeId(1), 0, 1, entries(&[target, near, target]));
        let mut cache = TrustCache::new();
        for block in [&twice_far, &once_far, &twice_near] {
            cache.insert(trusted(block));
        }
        let owners = |d: &Digest| -> Vec<NodeId> {
            let candidates = cache.children_candidates(d);
            candidates.map(|(_, t)| t.owner).collect()
        };
        let [one, two, three] = [1, 2, 3].map(NodeId);
        assert_eq!(owners(&target), [one, one, two, three, three]);
        assert_eq!(owners(&near), [one, two, three, three]);
    }

    /// Four headers: one naming `a, b, a`, three naming `a`.
    fn four_headers() -> Vec<TrustedHeader> {
        let cfg = cfg();
        let [a, b] = [1, 2].map(|d| Digest::from_bytes([d; 32]));
        let first = make_block(&cfg, NodeId(0), 0, 0, entries(&[a, b, a]));
        let rest =
            (1..4).map(|seq| make_block(&cfg, NodeId(0), seq, u64::from(seq), entries(&[a])));
        std::iter::once(first)
            .chain(rest)
            .map(|b| trusted(&b))
            .collect()
    }

    #[test]
    fn a_members_resident_bytes_is_what_one_device_would_hold() {
        let headers = four_headers();
        let header = std::mem::size_of::<(Digest, TrustedHeader)>();
        // Exact fit: four slab entries and digest-map entries, two keys,
        // and `a`'s five children on the heap.
        let one_device = 4 * (header + 36) + 2 * 32 + 5 * 4;
        let mut alone = TrustCache::new();
        assert_eq!(alone.resident_bytes(), 0);
        headers.iter().cloned().for_each(|t| alone.insert(t));
        assert_eq!(alone.resident_bytes(), one_device);

        // The same headers beside a member trusting two of them and one
        // more: the arena holds five headers once, and the first member's
        // figure does not move.
        let other = make_block(&cfg(), NodeId(1), 0, 9, vec![]);
        let mut shared = Arc::new(HeaderArena::default());
        let (mut a, mut b) = (
            TrustCache::member_of(&shared),
            TrustCache::member_of(&shared),
        );
        let fresh = [
            (0, headers.iter().cloned().collect()),
            (
                1,
                [&headers[3], &headers[0], &trusted(&other)]
                    .into_iter()
                    .cloned()
                    .collect(),
            ),
        ];
        HeaderArena::commit(&mut shared, &mut [&mut a, &mut b], fresh);
        assert_eq!(shared.len(), 5);
        assert_eq!((a.len(), b.len()), (4, 3));
        assert_eq!(a.resident_bytes(), one_device);
        assert_eq!(b.resident_bytes(), 3 * (header + 36) + 2 * 32);
    }

    #[test]
    fn a_shared_arena_grows_in_place_and_a_held_handle_keeps_its_snapshot() {
        let headers = four_headers();
        let mut shared = Arc::new(HeaderArena::default());
        let (mut a, mut b) = (
            TrustCache::member_of(&shared),
            TrustCache::member_of(&shared),
        );
        let first: FreshHeaders = headers[..2].iter().cloned().collect();
        HeaderArena::commit(&mut shared, &mut [&mut a, &mut b], [(1, first)]);
        assert!(a.is_member_of(&shared) && b.is_member_of(&shared));
        assert_eq!((a.len(), b.len(), shared.len()), (0, 2, 2));
        let slab = shared.slab.as_ptr();

        // A clone holds a handle: the next commit copies the arena, the
        // members move on to the copy, and the clone still sees two headers.
        let snapshot = b.clone();
        let rest: FreshHeaders = headers[1..].iter().cloned().collect();
        HeaderArena::commit(&mut shared, &mut [&mut a, &mut b], [(0, rest)]);
        assert!(a.is_member_of(&shared) && b.is_member_of(&shared));
        assert!(!snapshot.is_member_of(&shared));
        assert_eq!((a.len(), b.len(), shared.len()), (3, 2, 4));
        assert_eq!((snapshot.len(), snapshot.arena().len()), (2, 2));
        assert_ne!(shared.slab.as_ptr(), slab, "copied, not grown in place");

        // With no handle elsewhere the arena grows in place.
        drop(snapshot);
        let slab = shared.slab.as_ptr();
        let capacity = shared.slab.capacity();
        let again: FreshHeaders = headers[..1].iter().cloned().collect();
        HeaderArena::commit(&mut shared, &mut [&mut a, &mut b], [(0, again)]);
        assert_eq!((a.len(), shared.len()), (4, 4));
        assert_eq!(
            (shared.slab.as_ptr(), shared.slab.capacity()),
            (slab, capacity)
        );

        // A cache with an arena of its own commits to it.
        let mut private = TrustCache::new();
        let fresh: FreshHeaders = headers[..1].iter().cloned().collect();
        HeaderArena::commit(&mut shared, &mut [&mut a, &mut private], [(1, fresh)]);
        assert_eq!(
            (private.len(), private.arena().len(), shared.len()),
            (1, 1, 4)
        );
    }

    #[test]
    fn a_renamed_header_keeps_each_members_block_id() {
        let headers = four_headers();
        let mut renamed = headers[2].clone();
        renamed.block_id.seq += 7;
        let mut shared = Arc::new(HeaderArena::default());
        let (mut a, mut b) = (
            TrustCache::member_of(&shared),
            TrustCache::member_of(&shared),
        );
        let fresh = [
            (0, headers.iter().cloned().collect()),
            (
                1,
                [renamed.clone(), headers[2].clone()].into_iter().collect(),
            ),
        ];
        HeaderArena::commit(&mut shared, &mut [&mut a, &mut b], fresh);
        let digest = headers[2].header.digest();
        assert_eq!(shared.len(), 5, "one slab entry per (digest, block)");
        assert_eq!(a.get(&digest), Some(&headers[2]));
        assert_eq!(b.get(&digest), Some(&renamed), "b's first claim wins for b");
        assert_eq!(
            b.len(),
            1,
            "the second offer under the digest is a duplicate"
        );
        let a_target = Digest::from_bytes([1; 32]);
        let seqs = |cache: &TrustCache| -> Vec<u32> {
            let hits = cache.children_candidates(&a_target);
            hits.map(|(_, t)| t.block_id.seq).collect()
        };
        assert_eq!(seqs(&a), [0, 0, 1, 2, 3]);
        assert_eq!(seqs(&b), [9]);
    }

    #[test]
    fn trust_cache_bits_counts_headers_only() {
        let cfg = cfg();
        let block = make_block(&cfg, NodeId(0), 0, 0, vec![]);
        let mut cache = TrustCache::new();
        cache.insert(TrustedHeader {
            owner: NodeId(0),
            block_id: block.id,
            header: block.header.clone(),
        });
        assert_eq!(cache.logical_bits(&cfg), cfg.header_bits(0));
        assert!(cache.logical_bits(&cfg).bits() < cfg.block_bits(0).bits());
    }
}
