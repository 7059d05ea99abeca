//! The in-memory digest → (segment, offset) index over the block log,
//! plus its checksummed snapshot encoding.
//!
//! The index holds **no block bodies** — per retained block it keeps the
//! 32-byte header digest, the record's location, and the two numbers the
//! overhead model needs (digest-entry count, logical body bits). That is what
//! bounds a durable node's resident memory: `O(index) + O(tail buffer) +
//! O(cache)` instead of `O(chain)`.

use crate::crc32::crc32;
use std::collections::HashMap;
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// Header digest `H(b^h)`.
    pub digest: Digest,
    /// Record location.
    pub location: RecordLocation,
    /// Generation slot from the block header (`f_t`), kept in the index so
    /// candidate scans never decode bodies.
    pub time: u64,
    /// Number of digest entries in the header (for Eq. 2 sizing).
    pub digest_entries: u32,
    /// Logical body bits `C` (for Eq. 2 sizing).
    pub body_bits: u64,
    /// Digests contained in the header's Digests field (for the responder's
    /// `C_{j'}(b_v)` lookup and for snapshot-time children rebuilding).
    pub contained: Vec<Digest>,
}

/// The full index over a (possibly pruned) chain prefix.
#[derive(Clone, Debug, Default)]
pub struct BlockIndex {
    /// Owner of the chain (set by the first push; `None` while empty).
    owner: Option<u32>,
    /// Sequence number of the first retained entry (> 0 after compaction).
    base_seq: u32,
    /// Entries for seqs `base_seq ..`.
    entries: Vec<IndexEntry>,
    /// Header digest → seq.
    by_digest: HashMap<Digest, u32>,
    /// Contained-digest prefix → seqs of retained blocks containing it.
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
    pub fn owner(&self) -> Option<u32> {
        self.owner
    }

    /// Number of retained entries.
    pub fn retained(&self) -> usize {
        self.entries.len()
    }

    /// Looks up a retained entry by sequence number.
    pub fn entry(&self, seq: u32) -> Option<&IndexEntry> {
        let idx = seq.checked_sub(self.base_seq)? as usize;
        self.entries.get(idx)
    }

    /// Seqs of the retained entries generated at or before `slot`, found by
    /// binary search over [`IndexEntry::time`], which never decreases along
    /// a chain. Empty, starting at the base, when none is.
    pub fn generated_through(&self, slot: u64) -> Range<u32> {
        let count = self.entries.partition_point(|e| e.time <= slot);
        self.base_seq..self.base_seq + count as u32
    }

    /// Header digest of the newest retained entry.
    pub fn latest_digest(&self) -> Option<Digest> {
        self.entries.last().map(|e| e.digest)
    }

    /// Seq of the block with header digest `digest`.
    pub fn seq_of_digest(&self, digest: &Digest) -> Option<u32> {
        self.by_digest.get(digest).copied()
    }

    /// Retained seqs (ascending) of blocks whose header contains `target`,
    /// each as many times as the header names it.
    pub fn children_of(&self, target: &Digest) -> Vec<u32> {
        self.child_seqs(target).collect()
    }

    /// Oldest retained seq of a block whose header contains `target`.
    pub fn oldest_child_of(&self, target: &Digest) -> Option<u32> {
        self.child_seqs(target).next()
    }

    /// Oldest retained seq of a block that contains `target` and was
    /// generated at or before slot `horizon`, answered from
    /// [`IndexEntry::time`] without reading a record.
    pub fn oldest_child_of_within(&self, target: &Digest, horizon: u64) -> Option<u32> {
        let within = |seq: &u32| self.entry(*seq).is_some_and(|e| e.time <= horizon);
        self.child_seqs(target).find(within)
    }

    /// The prefix hits of `target`, confirmed against
    /// [`IndexEntry::contained`].
    fn child_seqs<'a>(&'a self, target: &'a Digest) -> impl Iterator<Item = u32> + 'a {
        self.children.children(target, move |seq| {
            let contained = self.entry(seq).map_or(&[][..], |e| &e.contained);
            contained.iter().filter(|d| *d == target).count()
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
        let digest = block.header_digest();
        let seq = block.id.seq;
        let contained: Vec<Digest> = block.header.digests.iter().map(|e| e.digest).collect();
        debug_assert!(
            self.owner.is_none_or(|o| o == block.id.owner.0),
            "one chain, one owner"
        );
        self.owner = Some(block.id.owner.0);
        self.by_digest.insert(digest, seq);
        for d in &contained {
            self.children.push(d, seq);
        }
        self.entries.push(IndexEntry {
            digest,
            location,
            time: block.header.time,
            digest_entries: block.header.digests.len() as u32,
            body_bits: block.body.logical_bits,
            contained,
        });
    }

    /// Drops every entry below `new_base` (compaction). Returns the number
    /// of entries removed.
    pub fn prune_below(&mut self, new_base: u32) -> usize {
        let new_base = new_base.clamp(self.base_seq, self.next_seq());
        let drop = (new_base - self.base_seq) as usize;
        for entry in self.entries.drain(..drop) {
            self.by_digest.remove(&entry.digest);
        }
        self.children.prune_below(new_base);
        self.base_seq = new_base;
        drop
    }

    /// Logical bits of the retained chain (Eq. 2 summed over blocks).
    pub fn logical_bits(&self, cfg: &ProtocolConfig) -> Bits {
        self.entries
            .iter()
            .map(|e| cfg.header_bits(e.digest_entries as usize) + Bits::from_bits(e.body_bits))
            .sum()
    }

    /// Rough resident-memory estimate in bytes.
    pub fn resident_bytes(&self) -> usize {
        let per_entry = std::mem::size_of::<IndexEntry>();
        let contained: usize = self.entries.iter().map(|e| e.contained.len() * 32).sum();
        self.entries.len() * per_entry
            + contained
            + self.by_digest.len() * (32 + 4)
            + self.children.resident_bytes()
    }

    /// Serializes the index (with the log position it covers) into a
    /// checksummed snapshot blob: [`Self::encode_chains`] of this one chain.
    pub fn encode_snapshot(&self, covered_segment: u32, covered_offset: u64) -> Vec<u8> {
        Self::encode_chains([self], covered_segment, covered_offset)
    }

    /// Serializes the chains of one log (with the log position they cover)
    /// into one checksummed snapshot blob: a header, then one section per
    /// chain, `[owner, base, count, covered segment, covered offset,
    /// entries…]`. A one-chain blob is the single-chain format unchanged.
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
                body.extend_from_slice(&(e.contained.len() as u32).to_be_bytes());
                for d in &e.contained {
                    body.extend_from_slice(d.as_bytes());
                }
            }
        }
        let mut out = Vec::with_capacity(16 + body.len());
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_be_bytes());
        out.extend_from_slice(&crc32(&body).to_be_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Restores an index from a one-chain snapshot blob, returning it
    /// together with the `(segment, offset)` position up to which the log
    /// is covered.
    ///
    /// # Errors
    ///
    /// As [`Self::decode_chains`], and when the blob holds another number
    /// of chains than one.
    pub fn decode_snapshot(data: &[u8]) -> Result<(Self, u32, u64), TldagError> {
        let (chains, segment, offset) = Self::decode_chains(data)?;
        let [index] = <[Self; 1]>::try_from(chains)
            .map_err(|_| TldagError::Corrupt("snapshot: not one chain".into()))?;
        Ok((index, segment, offset))
    }

    /// Restores every chain of an [`Self::encode_chains`] blob, with the
    /// `(segment, offset)` position up to which the log is covered.
    ///
    /// # Errors
    ///
    /// [`TldagError::Corrupt`] on any framing, checksum, or structure
    /// violation, or when the blob holds no chain or its sections disagree
    /// on the covered position — the caller falls back to a full log scan.
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
            let mut index = BlockIndex {
                owner: (owner_raw != u32::MAX).then_some(owner_raw),
                base_seq,
                entries: Vec::with_capacity(count),
                by_digest: HashMap::with_capacity(count),
                children: ChainIndex::default(),
            };
            for i in 0..count {
                let seq = base_seq + i as u32;
                let digest = Digest::from_bytes(take(&mut rest)?);
                let segment = u32::from_be_bytes(take(&mut rest)?);
                let offset = u64::from_be_bytes(take(&mut rest)?);
                let len = u32::from_be_bytes(take(&mut rest)?);
                let time = u64::from_be_bytes(take(&mut rest)?);
                let digest_entries = u32::from_be_bytes(take(&mut rest)?);
                let body_bits = u64::from_be_bytes(take(&mut rest)?);
                let contained_count = u32::from_be_bytes(take(&mut rest)?) as usize;
                if contained_count > 1 << 20 {
                    return Err(corrupt("absurd contained-digest count"));
                }
                let contained = (0..contained_count)
                    .map(|_| take(&mut rest).map(Digest::from_bytes))
                    .collect::<Result<Vec<_>, _>>()?;
                index.by_digest.insert(digest, seq);
                for d in &contained {
                    index.children.push(d, seq);
                }
                index.entries.push(IndexEntry {
                    digest,
                    location: RecordLocation {
                        segment,
                        offset,
                        len,
                    },
                    time,
                    digest_entries,
                    body_bits,
                    contained,
                });
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
const SNAPSHOT_VERSION: u32 = 1;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
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

    #[test]
    fn push_and_lookup() {
        let mut index = BlockIndex::new();
        let parent = Digest::from_bytes([7; 32]);
        let b0 = block(0, vec![]);
        let b1 = block(1, vec![parent]);
        let b2 = block(2, vec![parent]);
        for b in [&b0, &b1, &b2] {
            index.push(b, loc(b.id.seq));
        }
        assert_eq!(index.next_seq(), 3);
        assert_eq!(index.seq_of_digest(&b1.header_digest()), Some(1));
        assert_eq!(index.oldest_child_of(&parent), Some(1));
        assert_eq!(index.children_of(&parent), vec![1, 2]);
    }

    #[test]
    fn snapshot_round_trip() {
        let mut index = BlockIndex::new();
        let parent = Digest::from_bytes([3; 32]);
        for seq in 0..5 {
            let contained = if seq > 0 { vec![parent] } else { vec![] };
            index.push(&block(seq, contained), loc(seq));
        }
        let blob = index.encode_snapshot(1, 777);
        let (restored, seg, off) = BlockIndex::decode_snapshot(&blob).unwrap();
        assert_eq!(seg, 1);
        assert_eq!(off, 777);
        assert_eq!(restored.next_seq(), 5);
        assert_eq!(restored.entries, index.entries);
        assert_eq!(restored.children_of(&parent), index.children_of(&parent));
    }

    #[test]
    fn snapshot_corruption_rejected() {
        let mut index = BlockIndex::new();
        index.push(&block(0, vec![]), loc(0));
        let blob = index.encode_snapshot(0, 10);
        for cut in [0, 8, 15, blob.len() - 1] {
            assert!(BlockIndex::decode_snapshot(&blob[..cut]).is_err());
        }
        let mut flipped = blob.clone();
        let idx = flipped.len() - 5;
        flipped[idx] ^= 1;
        assert!(BlockIndex::decode_snapshot(&flipped).is_err());
    }

    #[test]
    fn prune_below_rewrites_base_and_children() {
        let mut index = BlockIndex::new();
        let parent = Digest::from_bytes([3; 32]);
        let blocks: Vec<DataBlock> = (0..6)
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
        // Children below the new base (seq 1) are gone; 3 and 5 survive.
        assert_eq!(index.children_of(&parent), vec![3, 5]);
        // Appending continues at the chain seq, not the retained count.
        index.push(&block(6, vec![]), loc(6));
        assert_eq!(index.next_seq(), 7);
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
    /// `oldest_*` lookups. The reference the inline lists must agree with.
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
    fn inline_child_lists_match_the_vec_and_sort_reference() {
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
                }

                // One entry per contained digest of a retained block.
                let contained = reference.entries.iter().map(|e| e.2.len());
                assert_eq!(index.children.len(), contained.sum::<usize>());
                let prefixes: HashSet<&[u8]> = (reference.children.keys())
                    .map(|d| &d.as_bytes()[..8])
                    .collect();
                shared_a_key |= prefixes.len() < reference.children.len();
                assert_chain_index_shape(&index.children);
                for target in &targets {
                    assert_eq!(index.children_of(target), reference.children_of(target));
                    assert_eq!(
                        index.oldest_child_of(target),
                        reference.oldest_child_of(target)
                    );
                    for horizon in 0..=max_time + 1 {
                        assert_eq!(
                            index.oldest_child_of_within(target, horizon),
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
        for (seq, contained) in contents.into_iter().enumerate() {
            index.push(&block(seq as u32, contained.to_vec()), loc(seq as u32));
        }
        assert_eq!(index.children.len(), 11, "one entry per contained digest");
        assert_eq!(index.children_of(&target), [1, 3, 3, 6]);
        assert_eq!(index.children_of(&near), [0, 1, 2, 2, 6]);
        assert_eq!(index.children_of(&nearer), [2, 4]);
        assert_eq!(index.oldest_child_of(&target), Some(1));
        assert_eq!(index.oldest_child_of(&nearer), Some(2));
        assert_eq!(index.oldest_child_of_within(&target, 0), None);
        assert_eq!(index.oldest_child_of_within(&nearer, 3), Some(2));
        assert_eq!(index.oldest_child_of(&twin(target, 3)), None);

        // Dropping `near`'s oldest children leaves the survivors of all
        // three digests under the shared key.
        index.prune_below(3);
        assert_eq!(index.children_of(&target), [3, 3, 6]);
        assert_eq!(index.children_of(&near), [6]);
        assert_eq!(index.children_of(&nearer), [4]);
        index.prune_below(6);
        assert_eq!(index.children.len(), 2, "seq 6's two entries remain");
        assert_eq!(index.oldest_child_of(&nearer), None);
        index.prune_below(7);
        assert!(index.children.is_empty(), "the last block's entries go");
        assert_eq!(index.children_of(&target), [0u32; 0]);
    }

    #[test]
    fn snapshot_bytes_are_pinned() {
        let digest = |d: u8| Digest::from_bytes([d; 32]);
        let (once, four) = (digest(2), digest(3));
        let mut index = BlockIndex::new();
        for seq in 0..9u32 {
            let mut contained = vec![digest(10 + (seq % 3) as u8)];
            contained.extend((seq == 4).then_some(once));
            contained.extend((seq % 2 == 1).then_some(four));
            index.push(&block(seq, contained), loc(seq));
        }
        index.prune_below(2);
        index.push(&block(9, vec![four, four]), loc(9));
        let blob = index.encode_snapshot(2, 300);
        // Recorded by running this test at the commit before the child
        // lists went inline: the snapshot format does not know about them.
        assert_eq!(
            tldag_crypto::sha256::sha256(&blob).to_string(),
            "8832fc8305ecb41de5f5f21b72daad5779ba5140477a9397cbc5a4ac682653d2"
        );
        let (restored, ..) = BlockIndex::decode_snapshot(&blob).unwrap();
        assert_eq!(restored.entries, index.entries);
        assert_eq!(restored.children_of(&four), [3, 5, 7, 9, 9]);
        assert_eq!(restored.children_of(&once), [4]);
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
