//! The in-memory digest → (segment, offset) index over the block log,
//! plus its checksummed snapshot encoding.
//!
//! The index holds **fixed-size entries and no digest lists**. Per retained
//! block it keeps one `IndexEntry` (the 32-byte header digest, the
//! record's location, the generation slot, and the two numbers the overhead
//! model needs) and one 12-byte prefix entry per digest it names, in two
//! [`ChainIndex`]es: one over header digests, one over contained digests.
//! Nothing is hashed and nothing is allocated per block. A header-digest hit
//! is confirmed against `IndexEntry::digest`; a contained-digest hit is
//! confirmed against the record the lookup reads anyway
//! ([`BlockIndex::children`]). That is what bounds a durable node's resident
//! memory: `O(index) + O(tail buffer) + O(cache)` instead of `O(chain)`.

use crate::crc32::crc32;
use std::ops::Range;
use tldag_core::config::ProtocolConfig;
use tldag_core::error::TldagError;
use tldag_core::store::ChainIndex;
use tldag_core::DataBlock;
use tldag_crypto::Digest;
use tldag_sim::Bits;

/// Where one block's record lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordLocation {
    /// Segment file id.
    pub segment: u32,
    /// Byte offset of the record frame within the segment.
    pub offset: u64,
    /// Total frame length in bytes.
    pub len: u32,
}

/// Per-block index entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct IndexEntry {
    /// Header digest `H(b^h)`.
    pub(crate) digest: Digest,
    /// Record location.
    pub(crate) location: RecordLocation,
    /// Generation slot from the block header (`f_t`), kept in the index so
    /// candidate scans never decode bodies.
    pub(crate) time: u64,
    /// Number of digest entries in the header (for Eq. 2 sizing).
    pub(crate) digest_entries: u32,
    /// Logical body bits `C` (for Eq. 2 sizing).
    pub(crate) body_bits: u64,
}

const _: () = assert!(std::mem::size_of::<IndexEntry>() == 72);

/// The full index over a (possibly pruned) chain prefix.
#[derive(Clone, Debug, Default)]
pub struct BlockIndex {
    /// Owner of the chain (set by the first push; `None` while empty).
    owner: Option<u32>,
    /// Sequence number of the first retained entry (> 0 after compaction).
    base_seq: u32,
    /// Entries for seqs `base_seq ..`.
    entries: Vec<IndexEntry>,
    /// Header-digest prefix → seq, confirmed against [`IndexEntry::digest`].
    by_digest: ChainIndex,
    /// Contained-digest prefix → seqs of retained blocks containing it,
    /// confirmed against the blocks' records.
    children: ChainIndex,
}

impl BlockIndex {
    /// Empty index starting at seq 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total chain length (next sequence number to append).
    pub fn next_seq(&self) -> u32 {
        self.base_seq + self.entries.len() as u32
    }

    /// First retained sequence number.
    pub fn base_seq(&self) -> u32 {
        self.base_seq
    }

    /// Owner id of the chain, once at least one block has been indexed.
    pub(crate) fn owner(&self) -> Option<u32> {
        self.owner
    }

    /// Number of retained entries.
    pub(crate) fn retained(&self) -> usize {
        self.entries.len()
    }

    /// Looks up a retained entry by sequence number.
    pub(crate) fn entry(&self, seq: u32) -> Option<&IndexEntry> {
        let idx = seq.checked_sub(self.base_seq)? as usize;
        self.entries.get(idx)
    }

    /// Seqs of the retained entries generated at or before `slot`, found by
    /// binary search over [`IndexEntry::time`], which never decreases along
    /// a chain. Empty, starting at the base, when none is.
    pub(crate) fn generated_through(&self, slot: u64) -> Range<u32> {
        let count = self.entries.partition_point(|e| e.time <= slot);
        self.base_seq..self.base_seq + count as u32
    }

    /// Header digest of the newest retained entry.
    pub(crate) fn latest_digest(&self) -> Option<Digest> {
        self.entries.last().map(|e| e.digest)
    }

    /// Seq of the retained block with header digest `digest`.
    pub fn seq_of_digest(&self, digest: &Digest) -> Option<u32> {
        let is_it = |seq| usize::from(self.entry(seq).is_some_and(|e| e.digest == *digest));
        self.by_digest.children(digest, is_it).next()
    }

    /// The retained blocks whose header contains `target` and that were
    /// generated at or before slot `horizon`, oldest first, each with the
    /// number of times its Digests field names `target`.
    ///
    /// The index keeps only a 64-bit prefix of each contained digest, so
    /// every prefix hit is confirmed against its block, which `read` fetches
    /// by seq: once per hit, and only for a hit inside the horizon
    /// (`IndexEntry::time` is checked first). A hit whose block names only
    /// another digest with `target`'s prefix is read and dropped. The
    /// iterator is lazy, so a caller after the oldest child reads no block
    /// past it.
    pub fn children<'a>(
        &'a self,
        target: &'a Digest,
        horizon: u64,
        mut read: impl FnMut(u32) -> Option<DataBlock> + 'a,
    ) -> impl Iterator<Item = (DataBlock, usize)> + 'a {
        // A count of 1: each block holding a prefix hit once, unconfirmed.
        let hits = self.children.children(target, |_| 1);
        hits.filter(move |&seq| self.entry(seq).is_some_and(|e| e.time <= horizon))
            .filter_map(move |seq| {
                let block = read(seq)?;
                let digests = block.header.digests.iter();
                let copies = digests.filter(|e| e.digest == *target).count();
                (copies > 0).then_some((block, copies))
            })
    }

    /// Sets the chain base of an **empty** index (full-scan recovery of a
    /// compacted log, where the oldest surviving record defines the base).
    ///
    /// # Panics
    ///
    /// Panics if the index already has entries or a non-zero base.
    pub fn start_at(&mut self, seq: u32) {
        assert!(
            self.entries.is_empty() && self.base_seq == 0,
            "start_at requires a pristine index"
        );
        self.base_seq = seq;
    }

    /// Registers the next block of the chain.
    pub fn push(&mut self, block: &DataBlock, location: RecordLocation) {
        debug_assert_eq!(block.id.seq, self.next_seq(), "index append out of order");
        debug_assert!(
            self.owner.is_none_or(|o| o == block.id.owner.0),
            "one chain, one owner"
        );
        self.owner = Some(block.id.owner.0);
        for entry in block.header.digests.iter() {
            self.children.push(&entry.digest, block.id.seq);
        }
        self.push_entry(IndexEntry {
            digest: block.header_digest(),
            location,
            time: block.header.time,
            digest_entries: block.header.digests.len() as u32,
            body_bits: block.body.logical_bits,
        });
    }

    /// Appends the entry of seq [`Self::next_seq`] and indexes its digest.
    fn push_entry(&mut self, entry: IndexEntry) {
        self.by_digest.push(&entry.digest, self.next_seq());
        self.entries.push(entry);
    }

    /// Drops every entry below `new_base` (compaction). Returns the number
    /// of entries removed.
    pub fn prune_below(&mut self, new_base: u32) -> usize {
        let new_base = new_base.clamp(self.base_seq, self.next_seq());
        let drop = (new_base - self.base_seq) as usize;
        self.entries.drain(..drop);
        self.by_digest.prune_below(new_base);
        self.children.prune_below(new_base);
        self.base_seq = new_base;
        drop
    }

    /// Logical bits of the retained chain (Eq. 2 summed over blocks).
    pub(crate) fn logical_bits(&self, cfg: &ProtocolConfig) -> Bits {
        self.entries
            .iter()
            .map(|e| cfg.header_bits(e.digest_entries as usize) + Bits::from_bits(e.body_bits))
            .sum()
    }

    /// Bytes the index pins: the entry array at its capacity, plus both
    /// prefix indexes as [`ChainIndex::resident_bytes`] counts them.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<IndexEntry>()
            + self.by_digest.resident_bytes()
            + self.children.resident_bytes()
    }

    /// Serializes the chains of one log (with the log position they cover)
    /// into one checksummed snapshot blob: a header, then one section per
    /// chain, `[owner, base, count, covered segment, covered offset,
    /// entries…, contained count, (prefix, seq)…]`, the contained-digest
    /// prefixes in [`ChainIndex::entries_by_seq`] order.
    pub fn encode_chains<'a>(
        chains: impl IntoIterator<Item = &'a BlockIndex>,
        covered_segment: u32,
        covered_offset: u64,
    ) -> Vec<u8> {
        let mut body = Vec::new();
        for chain in chains {
            body.extend_from_slice(&chain.owner.unwrap_or(u32::MAX).to_be_bytes());
            body.extend_from_slice(&chain.base_seq.to_be_bytes());
            body.extend_from_slice(&(chain.entries.len() as u32).to_be_bytes());
            body.extend_from_slice(&covered_segment.to_be_bytes());
            body.extend_from_slice(&covered_offset.to_be_bytes());
            for e in &chain.entries {
                body.extend_from_slice(e.digest.as_bytes());
                body.extend_from_slice(&e.location.segment.to_be_bytes());
                body.extend_from_slice(&e.location.offset.to_be_bytes());
                body.extend_from_slice(&e.location.len.to_be_bytes());
                body.extend_from_slice(&e.time.to_be_bytes());
                body.extend_from_slice(&e.digest_entries.to_be_bytes());
                body.extend_from_slice(&e.body_bits.to_be_bytes());
            }
            let contained = chain.children.entries_by_seq();
            body.extend_from_slice(&(contained.len() as u32).to_be_bytes());
            for (prefix, seq) in contained {
                body.extend_from_slice(&prefix.to_be_bytes());
                body.extend_from_slice(&seq.to_be_bytes());
            }
        }
        let mut out = Vec::with_capacity(16 + body.len());
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_be_bytes());
        out.extend_from_slice(&crc32(&body).to_be_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Restores every chain of an [`Self::encode_chains`] blob, with the
    /// `(segment, offset)` position up to which the log is covered.
    ///
    /// # Errors
    ///
    /// [`TldagError::Corrupt`] on any framing, checksum, or structure
    /// violation, on a snapshot format other than 3, or when the
    /// blob holds no chain or its sections disagree on the covered position
    /// — the caller falls back to a full log scan.
    pub fn decode_chains(data: &[u8]) -> Result<(Vec<Self>, u32, u64), TldagError> {
        let corrupt = |msg: &str| TldagError::Corrupt(format!("snapshot: {msg}"));
        if data.len() < 16 || &data[0..8] != SNAPSHOT_MAGIC {
            return Err(corrupt("missing magic"));
        }
        let version = u32::from_be_bytes(data[8..12].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(corrupt("unknown version"));
        }
        let expect_crc = u32::from_be_bytes(data[12..16].try_into().expect("4 bytes"));
        let body = &data[16..];
        if crc32(body) != expect_crc {
            return Err(corrupt("checksum mismatch"));
        }

        let mut rest = body;
        let mut chains = Vec::new();
        let mut covered = None;
        while !rest.is_empty() {
            let owner_raw = u32::from_be_bytes(take(&mut rest)?);
            let base_seq = u32::from_be_bytes(take(&mut rest)?);
            let count = u32::from_be_bytes(take(&mut rest)?) as usize;
            let position = (
                u32::from_be_bytes(take(&mut rest)?),
                u64::from_be_bytes(take(&mut rest)?),
            );
            if covered.is_some_and(|c| c != position) {
                return Err(corrupt("sections cover different positions"));
            }
            covered = Some(position);
            if count > rest.len() / ENTRY_BYTES {
                return Err(corrupt("truncated body"));
            }
            let mut index = BlockIndex {
                owner: (owner_raw != u32::MAX).then_some(owner_raw),
                base_seq,
                entries: Vec::with_capacity(count),
                ..BlockIndex::default()
            };
            for _ in 0..count {
                let digest = Digest::from_bytes(take(&mut rest)?);
                let segment = u32::from_be_bytes(take(&mut rest)?);
                let offset = u64::from_be_bytes(take(&mut rest)?);
                let len = u32::from_be_bytes(take(&mut rest)?);
                let time = u64::from_be_bytes(take(&mut rest)?);
                let digest_entries = u32::from_be_bytes(take(&mut rest)?);
                let body_bits = u64::from_be_bytes(take(&mut rest)?);
                index.push_entry(IndexEntry {
                    digest,
                    location: RecordLocation {
                        segment,
                        offset,
                        len,
                    },
                    time,
                    digest_entries,
                    body_bits,
                });
            }
            let contained = u32::from_be_bytes(take(&mut rest)?);
            let mut floor = index.base_seq;
            for _ in 0..contained {
                let prefix = u64::from_be_bytes(take(&mut rest)?);
                let seq = u32::from_be_bytes(take(&mut rest)?);
                if !(floor..index.next_seq()).contains(&seq) {
                    return Err(corrupt("contained entry out of order"));
                }
                floor = seq;
                index.children.push_prefix(prefix, seq);
            }
            chains.push(index);
        }
        let (segment, offset) = covered.ok_or_else(|| corrupt("no chain"))?;
        Ok((chains, segment, offset))
    }
}

/// Splits the next `N` bytes off a snapshot body.
fn take<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N], TldagError> {
    let head = rest
        .split_off(..N)
        .ok_or_else(|| TldagError::Corrupt("snapshot: truncated body".into()))?;
    Ok(head.try_into().expect("N bytes"))
}

const SNAPSHOT_MAGIC: &[u8; 8] = b"TLDAGSNP";
/// 3: the body of version 2 (contained digests as `(prefix, seq)` entries
/// after a chain's entries) over a log whose records hold varint-coded
/// blocks. A version 2 blob sits over fixed-width records, so it is rejected
/// like any unknown version, and the scan it falls back to reports the first
/// fixed-width record as corruption instead of opening a log no read can
/// decode. A version 1 blob (each entry followed by its contained digests in
/// full) is rejected the same way.
const SNAPSHOT_VERSION: u32 = 3;
/// Encoded bytes of one entry, contained digests aside.
const ENTRY_BYTES: usize = 32 + 4 + 8 + 4 + 8 + 4 + 8;

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::{HashMap, HashSet};
    use tldag_core::config::ProtocolConfig;
    use tldag_core::{BlockBody, BlockId, DataBlock, DigestEntry};
    use tldag_crypto::schnorr::KeyPair;
    use tldag_sim::NodeId;

    fn block(seq: u32, contained: Vec<Digest>) -> DataBlock {
        block_at(seq, u64::from(seq), contained)
    }

    fn block_at(seq: u32, time: u64, contained: Vec<Digest>) -> DataBlock {
        let cfg = ProtocolConfig::test_default();
        let digests = contained
            .into_iter()
            .map(|digest| DigestEntry {
                origin: NodeId(9),
                digest,
            })
            .collect::<Vec<_>>();
        DataBlock::create(
            &cfg,
            BlockId::new(NodeId(1), seq),
            time,
            digests,
            BlockBody::new(vec![seq as u8; 8], cfg.body_bits),
            &KeyPair::from_seed(1),
        )
    }

    fn loc(seq: u32) -> RecordLocation {
        RecordLocation {
            segment: seq / 4,
            offset: u64::from(seq % 4) * 100,
            len: 100,
        }
    }

    /// [`BlockIndex::children`] with `chain` (every block by seq, pruned ones
    /// included) as the records: each child's seq once per copy of `target`
    /// its header names.
    fn children_of(index: &BlockIndex, chain: &[DataBlock], target: &Digest) -> Vec<u32> {
        let read = |seq: u32| chain.get(seq as usize).cloned();
        let children = index.children(target, u64::MAX, read);
        children
            .flat_map(|(b, copies)| std::iter::repeat_n(b.id.seq, copies))
            .collect()
    }

    /// The oldest child at or before `horizon`, read from `chain`.
    fn oldest_child_within(
        index: &BlockIndex,
        chain: &[DataBlock],
        target: &Digest,
        horizon: u64,
    ) -> Option<u32> {
        let read = |seq: u32| chain.get(seq as usize).cloned();
        let mut children = index.children(target, horizon, read);
        children.next().map(|(b, _)| b.id.seq)
    }

    fn oldest_child(index: &BlockIndex, chain: &[DataBlock], target: &Digest) -> Option<u32> {
        oldest_child_within(index, chain, target, u64::MAX)
    }

    #[test]
    fn push_and_lookup() {
        let mut index = BlockIndex::new();
        let parent = Digest::from_bytes([7; 32]);
        let chain = [
            block(0, vec![]),
            block(1, vec![parent]),
            block(2, vec![parent]),
        ];
        for b in &chain {
            index.push(b, loc(b.id.seq));
        }
        assert_eq!(index.next_seq(), 3);
        assert_eq!(index.seq_of_digest(&chain[1].header_digest()), Some(1));
        assert_eq!(oldest_child(&index, &chain, &parent), Some(1));
        assert_eq!(children_of(&index, &chain, &parent), vec![1, 2]);
    }

    #[test]
    fn snapshot_round_trip() {
        let mut index = BlockIndex::new();
        let parent = Digest::from_bytes([3; 32]);
        let chain: Vec<DataBlock> = (0..5)
            .map(|seq| block(seq, if seq > 0 { vec![parent] } else { vec![] }))
            .collect();
        for b in &chain {
            index.push(b, loc(b.id.seq));
        }
        let blob = BlockIndex::encode_chains([&index], 1, 777);
        let (mut chains, seg, off) = BlockIndex::decode_chains(&blob).unwrap();
        assert_eq!(chains.len(), 1);
        let restored = chains.pop().unwrap();
        assert_eq!(seg, 1);
        assert_eq!(off, 777);
        assert_eq!(restored.next_seq(), 5);
        assert_eq!(restored.entries, index.entries);
        assert_eq!(
            children_of(&restored, &chain, &parent),
            children_of(&index, &chain, &parent)
        );
    }

    #[test]
    fn snapshot_corruption_rejected() {
        let mut index = BlockIndex::new();
        index.push(&block(0, vec![]), loc(0));
        let blob = BlockIndex::encode_chains([&index], 0, 10);
        for cut in [0, 8, 15, blob.len() - 1] {
            assert!(BlockIndex::decode_chains(&blob[..cut]).is_err());
        }
        let mut flipped = blob.clone();
        let idx = flipped.len() - 5;
        flipped[idx] ^= 1;
        assert!(BlockIndex::decode_chains(&flipped).is_err());
        // The checksum covers the body only: a version 1 header over a
        // valid body is still refused, and the log falls back to a scan.
        let mut old = blob.clone();
        old[8..12].copy_from_slice(&1u32.to_be_bytes());
        assert!(BlockIndex::decode_chains(&old).is_err());
    }

    #[test]
    fn prune_below_rewrites_base_and_children() {
        let mut index = BlockIndex::new();
        let parent = Digest::from_bytes([3; 32]);
        let mut blocks: Vec<DataBlock> = (0..6)
            .map(|seq| block(seq, if seq % 2 == 1 { vec![parent] } else { vec![] }))
            .collect();
        for b in &blocks {
            index.push(b, loc(b.id.seq));
        }
        assert_eq!(index.prune_below(3), 3);
        assert_eq!(index.base_seq(), 3);
        assert_eq!(index.next_seq(), 6);
        assert_eq!(index.retained(), 3);
        assert!(index.entry(2).is_none());
        assert!(index.entry(3).is_some());
        assert_eq!(index.seq_of_digest(&blocks[1].header_digest()), None);
        assert_eq!(index.seq_of_digest(&blocks[3].header_digest()), Some(3));
        // Children below the new base (seq 1) are gone, and never read;
        // 3 and 5 survive.
        let read = |seq: u32| {
            assert!(seq >= 3, "seq {seq} is below the base");
            blocks.get(seq as usize).cloned()
        };
        let survivors: Vec<u32> = (index.children(&parent, u64::MAX, read))
            .map(|(b, _)| b.id.seq)
            .collect();
        assert_eq!(survivors, vec![3, 5]);
        // Appending continues at the chain seq, not the retained count.
        blocks.push(block(6, vec![]));
        index.push(&blocks[6], loc(6));
        assert_eq!(index.next_seq(), 7);
        assert_eq!(index.seq_of_digest(&blocks[6].header_digest()), Some(6));
    }

    #[test]
    fn generated_through_is_the_retained_prefix_at_or_before_a_slot() {
        let mut index = BlockIndex::new();
        assert_eq!(index.generated_through(9), 0..0);
        // Times 1, 1, 4, 4, 7, …: equal neighbours and gaps.
        let time = |seq: u32| u64::from(seq / 2 * 3 + 1);
        for seq in 0..12 {
            index.push(&block_at(seq, time(seq), vec![]), loc(seq));
        }
        for new_base in [0, 5, 11] {
            index.prune_below(new_base);
            for slot in 0..=20 {
                let kept = (new_base..12).filter(|&seq| time(seq) <= slot).count() as u32;
                assert_eq!(
                    index.generated_through(slot),
                    new_base..new_base + kept,
                    "base {new_base} slot {slot}"
                );
            }
        }
    }

    /// The child index as it was: a `Vec` of seqs per contained digest,
    /// cloned and sorted by `children_of`, scanned for a minimum by the
    /// `oldest_*` lookups. The reference the chain index must agree with.
    #[derive(Default)]
    struct ReferenceChildren {
        children: HashMap<Digest, Vec<u32>>,
        /// Retained `(seq, time, contained)`, oldest first.
        entries: Vec<(u32, u64, Vec<Digest>)>,
    }

    impl ReferenceChildren {
        fn push(&mut self, block: &DataBlock) {
            let contained: Vec<Digest> = block.header.digests.iter().map(|e| e.digest).collect();
            for d in &contained {
                self.children.entry(*d).or_default().push(block.id.seq);
            }
            self.entries
                .push((block.id.seq, block.header.time, contained));
        }

        fn children_of(&self, target: &Digest) -> Vec<u32> {
            let mut seqs = self.children.get(target).cloned().unwrap_or_default();
            seqs.sort_unstable();
            seqs
        }

        fn oldest_child_of(&self, target: &Digest) -> Option<u32> {
            self.children.get(target)?.iter().min().copied()
        }

        fn oldest_child_of_within(&self, target: &Digest, horizon: u64) -> Option<u32> {
            let time_of = |seq: u32| self.entries.iter().find(|e| e.0 == seq).map(|e| e.1);
            let within = |seq: &u32| time_of(*seq).is_some_and(|time| time <= horizon);
            self.children
                .get(target)?
                .iter()
                .copied()
                .filter(within)
                .min()
        }

        fn prune_below(&mut self, new_base: u32) {
            let keep = self.entries.partition_point(|e| e.0 < new_base);
            for (_, _, contained) in self.entries.drain(..keep) {
                for d in &contained {
                    if let Some(seqs) = self.children.get_mut(d) {
                        seqs.retain(|&s| s >= new_base);
                        if seqs.is_empty() {
                            self.children.remove(d);
                        }
                    }
                }
            }
        }
    }

    /// A digest with `d`'s 64-bit prefix, the child index's key, that is
    /// not `d`.
    fn twin(d: Digest, salt: u8) -> Digest {
        let mut bytes = d.into_bytes();
        bytes[31] ^= salt;
        Digest::from_bytes(bytes)
    }

    /// The chain index's shape: a tail short of a run, runs each larger than
    /// the next newer one, every run but the oldest (which a prune may have
    /// filtered) a power-of-two multiple of the tail, so at most
    /// `log2(n / 64) + 1` of them.
    fn assert_chain_index_shape(children: &ChainIndex) {
        assert!(children.tail_len() < ChainIndex::TAIL);
        let runs: Vec<usize> = children.run_lens().collect();
        assert!(runs.windows(2).all(|w| w[0] > w[1]), "{runs:?}");
        let doubled =
            |&n: &usize| n % ChainIndex::TAIL == 0 && (n / ChainIndex::TAIL).is_power_of_two();
        assert!(runs.iter().skip(1).all(doubled), "{runs:?}");
        let chunks = runs.iter().sum::<usize>() / ChainIndex::TAIL;
        let bound = (usize::BITS - chunks.leading_zeros()).max(1) as usize;
        assert!(runs.len() <= bound, "{runs:?}");
    }

    #[test]
    fn confirmed_children_match_the_vec_and_sort_reference() {
        let digest = |d: u8| Digest::from_bytes([d; 32]);
        // Contained by no block, by exactly one, by exactly four; the pool
        // digests land wherever the stream puts them.
        let (none, once, four) = (digest(1), digest(2), digest(3));
        let mut pool: Vec<Digest> = (10..15).map(digest).collect();
        // Digests sharing a key: with each other, with a pool digest, and
        // with `none` and `four`, so a probe meets children of another digest.
        let (ten, eleven) = (pool[0], pool[1]);
        pool.extend([twin(ten, 1), twin(ten, 2), twin(eleven, 1)]);
        pool.extend([twin(none, 1), twin(four, 1)]);
        let mut targets = vec![none, once, four];
        targets.extend(&pool);
        let mut shared_a_key = false;

        for seed in 0..8u64 {
            let mut rng = tldag_sim::DetRng::seed_from(seed);
            let (mut index, mut reference) = (BlockIndex::new(), ReferenceChildren::default());
            let mut chain = Vec::new();
            let once_at = rng.index(6) as u32;
            let four_at: [u32; 4] = [2, 3 + rng.index(3) as u32, 9, 11 + rng.index(8) as u32];
            let mut max_time = 0;
            for _ in 0..40 {
                if rng.index(5) == 0 {
                    let span = index.next_seq() - index.base_seq();
                    let new_base = index.base_seq() + rng.index(span as usize + 1) as u32;
                    let dropped = index.prune_below(new_base);
                    reference.prune_below(new_base);
                    assert_eq!(index.base_seq(), new_base);
                    assert_eq!(index.retained(), reference.entries.len());
                    assert_eq!(dropped, span as usize - index.retained());
                } else {
                    let seq = index.next_seq();
                    // A header may name one digest twice; up to nine pool
                    // digests a block fill the chain index's tail into runs.
                    let mut contained: Vec<Digest> = (0..rng.index(10))
                        .map(|_| pool[rng.index(pool.len())])
                        .collect();
                    contained.extend((seq == once_at).then_some(once));
                    contained.extend(four_at.contains(&seq).then_some(four));
                    // Slots 1, 3, 5, …: horizons fall on and between them.
                    let time = 2 * u64::from(seq) + 1;
                    max_time = time;
                    let block = block_at(seq, time, contained);
                    index.push(&block, loc(seq));
                    reference.push(&block);
                    chain.push(block);
                }

                // One entry per contained digest of a retained block.
                let contained = reference.entries.iter().map(|e| e.2.len());
                assert_eq!(index.children.len(), contained.sum::<usize>());
                assert_eq!(index.by_digest.len(), index.retained());
                let prefixes: HashSet<&[u8]> = (reference.children.keys())
                    .map(|d| &d.as_bytes()[..8])
                    .collect();
                shared_a_key |= prefixes.len() < reference.children.len();
                assert_chain_index_shape(&index.children);
                assert_chain_index_shape(&index.by_digest);
                for target in &targets {
                    assert_eq!(
                        children_of(&index, &chain, target),
                        reference.children_of(target)
                    );
                    assert_eq!(
                        oldest_child(&index, &chain, target),
                        reference.oldest_child_of(target)
                    );
                    for horizon in 0..=max_time + 1 {
                        assert_eq!(
                            oldest_child_within(&index, &chain, target, horizon),
                            reference.oldest_child_of_within(target, horizon),
                            "seed {seed} horizon {horizon}"
                        );
                    }
                }
            }
            assert!(index.next_seq() > 19, "every placed digest was pushed");
        }
        assert!(shared_a_key, "the streams put two digests under one key");
    }

    #[test]
    fn colliding_prefixes_are_confirmed_and_pruned_per_digest() {
        let target = Digest::from_bytes([4; 32]);
        let (near, nearer) = (twin(target, 1), twin(target, 2));
        let mut index = BlockIndex::new();
        let contents: [&[Digest]; 7] = [
            &[near],
            &[target, near],
            &[near, nearer, near],
            &[target, target],
            &[nearer],
            &[],
            &[near, target],
        ];
        let chain: Vec<DataBlock> = (contents.into_iter().enumerate())
            .map(|(seq, contained)| block(seq as u32, contained.to_vec()))
            .collect();
        for b in &chain {
            index.push(b, loc(b.id.seq));
        }
        assert_eq!(index.children.len(), 11, "one entry per contained digest");
        assert_eq!(children_of(&index, &chain, &target), [1, 3, 3, 6]);
        assert_eq!(children_of(&index, &chain, &near), [0, 1, 2, 2, 6]);
        assert_eq!(children_of(&index, &chain, &nearer), [2, 4]);
        assert_eq!(oldest_child(&index, &chain, &target), Some(1));
        assert_eq!(oldest_child(&index, &chain, &nearer), Some(2));
        assert_eq!(oldest_child_within(&index, &chain, &target, 0), None);
        assert_eq!(oldest_child_within(&index, &chain, &nearer, 3), Some(2));
        assert_eq!(oldest_child(&index, &chain, &twin(target, 3)), None);

        // Each hit's block is read once, each copy counted from that read;
        // the oldest child reads the blocks up to it, and a horizon check
        // reads nothing past the horizon.
        let reads = Cell::new(Vec::new());
        let read = |seq: u32| {
            let mut seen = reads.take();
            seen.push(seq);
            reads.set(seen);
            chain.get(seq as usize).cloned()
        };
        let children: Vec<(u32, usize)> = (index.children(&target, u64::MAX, read))
            .map(|(b, copies)| (b.id.seq, copies))
            .collect();
        assert_eq!(children, [(1, 1), (3, 2), (6, 1)]);
        assert_eq!(
            reads.take(),
            [0, 1, 2, 3, 4, 6],
            "every hit once, seq 5 never"
        );
        assert!(index.children(&nearer, u64::MAX, read).next().is_some());
        assert_eq!(reads.take(), [0, 1, 2], "a forgery older than the child");
        assert!(index.children(&target, 0, read).next().is_none());
        assert_eq!(reads.take(), [0], "only the hit inside the horizon");

        // Dropping `near`'s oldest children leaves the survivors of all
        // three digests under the shared key.
        index.prune_below(3);
        assert_eq!(children_of(&index, &chain, &target), [3, 3, 6]);
        assert_eq!(children_of(&index, &chain, &near), [6]);
        assert_eq!(children_of(&index, &chain, &nearer), [4]);
        index.prune_below(6);
        assert_eq!(index.children.len(), 2, "seq 6's two entries remain");
        assert_eq!(oldest_child(&index, &chain, &nearer), None);
        index.prune_below(7);
        assert!(index.children.is_empty(), "the last block's entries go");
        assert!(index.by_digest.is_empty(), "and its header digest");
        assert_eq!(children_of(&index, &chain, &target), [0u32; 0]);
    }

    #[test]
    fn header_digests_sharing_a_prefix_are_confirmed_per_entry() {
        // Header digests are hashes, so the collisions are forced: the
        // index is rebuilt from entries whose digests share one prefix.
        let real = Digest::from_bytes([5; 32]);
        let mut index = BlockIndex::new();
        for seq in 0..5 {
            index.push_entry(IndexEntry {
                digest: twin(real, seq as u8),
                location: loc(seq),
                time: u64::from(seq),
                digest_entries: 0,
                body_bits: 0,
            });
        }
        for seq in 0..5 {
            assert_eq!(index.seq_of_digest(&twin(real, seq as u8)), Some(seq));
        }
        assert_eq!(index.seq_of_digest(&twin(real, 9)), None);
        index.prune_below(3);
        assert_eq!(index.seq_of_digest(&twin(real, 1)), None);
        assert_eq!(index.seq_of_digest(&twin(real, 4)), Some(4));
    }

    /// The chain of the pinned snapshot tests: seqs 0–8 each name one of
    /// three digests, plus `once` at seq 4 and `four` at odd seqs, and seq 9
    /// names `four` twice.
    fn pinned_chain() -> (Vec<DataBlock>, Digest, Digest) {
        let digest = |d: u8| Digest::from_bytes([d; 32]);
        let (once, four) = (digest(2), digest(3));
        let mut chain: Vec<DataBlock> = (0..9u32)
            .map(|seq| {
                let mut contained = vec![digest(10 + (seq % 3) as u8)];
                contained.extend((seq == 4).then_some(once));
                contained.extend((seq % 2 == 1).then_some(four));
                block(seq, contained)
            })
            .collect();
        chain.push(block(9, vec![four, four]));
        (chain, once, four)
    }

    /// The pinned chain indexed with seqs 0 and 1 pruned before seq 9.
    fn pinned_index(chain: &[DataBlock]) -> BlockIndex {
        let mut index = BlockIndex::new();
        for b in &chain[..9] {
            index.push(b, loc(b.id.seq));
        }
        index.prune_below(2);
        index.push(&chain[9], loc(9));
        index
    }

    #[test]
    fn snapshot_bytes_are_pinned() {
        let (chain, once, four) = pinned_chain();
        let index = pinned_index(&chain);
        let blob = BlockIndex::encode_chains([&index], 2, 300);
        // Recorded when version 3 was introduced: other bytes here are a
        // new format, and need a new `SNAPSHOT_VERSION`.
        assert_eq!(
            tldag_crypto::sha256::sha256(&blob).to_string(),
            "fd14f0a89224490d513f223adee93d8a948dbedec6c67b3676e6f450f1bc7087"
        );
        let (mut chains, ..) = BlockIndex::decode_chains(&blob).unwrap();
        let restored = chains.pop().unwrap();
        assert_eq!(restored.entries, index.entries);
        assert_eq!(children_of(&restored, &chain, &four), [3, 5, 7, 9, 9]);
        assert_eq!(children_of(&restored, &chain, &once), [4]);
    }

    #[test]
    fn resident_bytes_count_allocations_not_lengths() {
        let (chain, ..) = pinned_chain();
        let mut index = BlockIndex::new();
        assert_eq!(index.resident_bytes(), 0);
        for b in &chain {
            index.push(b, loc(b.id.seq));
        }
        let held = index.resident_bytes();
        let contained: usize = chain.iter().map(|b| b.header.digests.len()).sum();
        let entries = index.entries.capacity() * std::mem::size_of::<IndexEntry>();
        assert!(held >= entries + 12 * (contained + chain.len()), "{held}");
        // The entry `Vec` and the tails keep their capacity through a prune,
        // and this chain's entries all sit in the tails (no run to
        // reallocate), so the count does not fall.
        assert_eq!(index.children.run_lens().len(), 0);
        assert_eq!(index.by_digest.run_lens().len(), 0);
        index.prune_below(8);
        assert_eq!(index.resident_bytes(), held);
    }

    #[test]
    fn logical_bits_match_blocks() {
        let cfg = ProtocolConfig::test_default();
        let mut index = BlockIndex::new();
        let b = block(0, vec![Digest::from_bytes([1; 32])]);
        index.push(&b, loc(0));
        assert_eq!(index.logical_bits(&cfg), b.logical_bits(&cfg));
    }
}
