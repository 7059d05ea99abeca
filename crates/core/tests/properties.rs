//! Property-based tests for the trusted-header cache `H_i` and the chain
//! store `S_i`.
//!
//! Trust Path Selection and the PoP success epilogue read a header's digest
//! from the key the cache indexes it under instead of re-hashing the header.
//! That is only sound while every key *is* its value's digest and every
//! contained-digest index hit is confirmed against the full digest — the
//! invariant checked here after arbitrary sequences of PoP runs, across the
//! persistence codec, and (the `prefix_collision_*` properties) under
//! digests crafted to share the index's 64-bit key. Two more hold the audit
//! fast paths to their references: the lazy TPS walk to the eager one, and
//! the chunked header hash to the canonical byte encoding. One holds `S_i`'s
//! chain index to a scan of the chain at every prune floor, and the last
//! holds every member of a shared header arena to the per-node cache it
//! replaced.

use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tldag_core::codec::{decode_trust_cache, encode_trust_cache};
use tldag_core::config::ProtocolConfig;
use tldag_core::network::TldagNetwork;
use tldag_core::pop::tps;
use tldag_core::store::{
    BlockBackend, BlockStore, ChainIndex, FreshHeaders, HeaderArena, TrustCache, TrustedHeader,
};
use tldag_core::workload::VerificationWorkload;
use tldag_core::{BlockBody, BlockHeader, BlockId, DataBlock, DigestEntry};
use tldag_crypto::schnorr::KeyPair;
use tldag_crypto::sha256::sha256;
use tldag_crypto::{puzzle, Digest};
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::topology::{Topology, TopologyConfig};
use tldag_sim::{DetRng, NodeId};

/// The child lookup as it was before child lists were kept sorted: every
/// cached header containing `target`, in insertion order (`iter`'s order),
/// then a stable sort by `(time, owner, seq)`.
fn collect_and_sort<'a>(
    cache: &'a TrustCache,
    target: &Digest,
) -> Vec<(Digest, &'a TrustedHeader)> {
    let mut candidates: Vec<(Digest, &TrustedHeader)> = cache
        .iter()
        .flat_map(|(key, t)| {
            let hits = t.header.digests.iter().filter(|e| e.digest == *target);
            hits.map(move |_| (*key, t))
        })
        .collect();
    candidates.sort_by_key(|(_, t)| (t.header.time, t.owner, t.block_id.seq));
    candidates
}

/// Every key equals its header's digest, every header is findable under
/// every digest it contains, every candidate handed to TPS is a live
/// `(key, header)` pair whose header really contains the target, and the
/// candidates come in the order a collect-and-sort would give.
fn check_index(cache: &TrustCache) -> Result<(), TestCaseError> {
    for (key, trusted) in cache.iter() {
        prop_assert_eq!(*key, trusted.header.digest());
        prop_assert_eq!(cache.get(key), Some(trusted));
        for entry in trusted.header.digests.iter() {
            let candidates: Vec<_> = cache.children_candidates(&entry.digest).collect();
            prop_assert_eq!(&candidates, &collect_and_sort(cache, &entry.digest));
            prop_assert!(candidates.contains(&(*key, trusted)));
            for (digest, child) in candidates {
                prop_assert_eq!(cache.get(&digest), Some(child));
                prop_assert_eq!(digest, child.header.digest());
                prop_assert!(child.header.contains_digest(&entry.digest));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn trust_cache_keys_are_header_digests_after_any_pop_sequence(
        seed in 0u64..500,
        nodes in 8usize..14,
        gamma in 2usize..4,
        audits in proptest::collection::vec((0u32..14, 0u32..14, 0u32..6), 1..24),
    ) {
        let mut rng = DetRng::seed_from(seed);
        let topology = Topology::random_connected(
            &TopologyConfig { nodes, side_m: 280.0, ..TopologyConfig::paper_default() },
            &mut rng,
        );
        let cfg = ProtocolConfig::test_default().with_gamma(gamma);
        let mut net = TldagNetwork::new(cfg, topology, GenerationSchedule::uniform(nodes), seed);
        // In-run PoPs fill the caches through the engine's verify phase …
        net.set_verification_workload(VerificationWorkload::RandomPast {
            min_age_slots: nodes as u64,
        });
        net.run_slots(nodes as u64 + 8);
        // … and operator audits through `run_pop`, warm and cold, in any order.
        for (validator, owner, seq) in audits {
            let (validator, owner) = (validator % nodes as u32, owner % nodes as u32);
            if validator != owner {
                net.run_pop(NodeId(validator), BlockId::new(NodeId(owner), seq), true);
            }
        }
        let mut cached = 0;
        for node in net.nodes() {
            let cache = node.trust_cache();
            cached += cache.len();
            check_index(cache)?;

            let blob = encode_trust_cache(cache);
            let decoded = decode_trust_cache(&blob).unwrap();
            prop_assert_eq!(decoded.len(), cache.len());
            check_index(&decoded)?;
            prop_assert_eq!(encode_trust_cache(&decoded), blob, "round trip is byte-stable");
        }
        prop_assert!(cached > 0, "the PoP runs cached something");
    }
}

/// `H_i`'s persisted form sorts by `(owner, seq, digest)`, so it depends on
/// what was inserted and never on the order — or on how the cache lays its
/// headers out in memory. The pinned hash is of the varint layout (magic
/// `TLDAGTC\x02`); the fixed-width layout before it hashed to
/// `8e097b1e…`, recorded before the cache became a slab.
#[test]
fn trust_cache_encoding_ignores_insertion_order_and_layout() {
    let cfg = ProtocolConfig::test_default();
    let mut rng = DetRng::seed_from(19);
    let mut headers: Vec<TrustedHeader> = (0..40u32)
        .map(|i| {
            let owner = NodeId(i % 5);
            let digests = (0..rng.index(4))
                .map(|_| DigestEntry {
                    origin: NodeId(rng.index(5) as u32),
                    digest: Digest::from_bytes([rng.index(7) as u8; 32]),
                })
                .collect::<Vec<_>>();
            let block = DataBlock::create(
                &cfg,
                // Two headers per (owner, seq): the digest breaks the tie.
                BlockId::new(owner, i / 10),
                rng.index(6) as u64,
                digests,
                BlockBody::new(vec![i as u8; 8], cfg.body_bits),
                &KeyPair::from_seed(u64::from(owner.0)),
            );
            TrustedHeader {
                owner,
                block_id: block.id,
                header: block.header,
            }
        })
        .collect();
    let mut blobs = Vec::new();
    for _ in 0..3 {
        rng.shuffle(&mut headers);
        let mut cache = TrustCache::new();
        headers.iter().cloned().for_each(|t| cache.insert(t));
        check_index(&cache).unwrap();
        blobs.push(encode_trust_cache(&cache));
    }
    assert!(blobs.iter().all(|blob| *blob == blobs[0]));
    assert_eq!(
        sha256(&blobs[0]).to_string(),
        "b5c8b1fea24e53c527ff9efb8e0752a6ede3d15bed8e346913bf8b9231c53a0b",
        "bytes changed against the recorded encoding"
    );
}

/// A digest with `d`'s 64-bit prefix, the child indexes' key, that is not
/// `d`.
fn twin(d: Digest) -> Digest {
    let mut bytes = d.into_bytes();
    bytes[31] ^= 1;
    Digest::from_bytes(bytes)
}

/// Nine digests over three prefixes: every key is shared by three digests.
fn colliding_digests() -> Vec<Digest> {
    (0..9u8)
        .map(|i| {
            let mut bytes = [i / 3; 32];
            bytes[31] = i % 3;
            Digest::from_bytes(bytes)
        })
        .collect()
}

/// Up to eight picks from `pool`, one per byte of `picks`.
fn pick(pool: &[Digest], count: u32, picks: u64) -> Vec<DigestEntry> {
    (0..count)
        .map(|k| DigestEntry {
            origin: NodeId(k),
            digest: pool[(picks >> (8 * k)) as usize % pool.len()],
        })
        .collect()
}

/// Algorithm 2 over the collect-and-sort lookup.
fn reference_extend(
    cache: &TrustCache,
    root: &Digest,
    skip: &HashSet<Digest>,
    max_steps: usize,
) -> Vec<Digest> {
    let mut steps = Vec::new();
    let mut tip = *root;
    while steps.len() < max_steps {
        let mut candidates = collect_and_sort(cache, &tip).into_iter();
        let Some((digest, _)) = candidates.find(|(d, _)| !skip.contains(d)) else {
            break;
        };
        steps.push(digest);
        tip = digest;
    }
    steps
}

/// A cache whose headers name digests that share keys with each other, and
/// the digests of earlier headers or their twins, so TPS walks chains in
/// which an older impostor waits under every key. Returns the cache, every
/// digest worth walking from, and the headers `skip_bits` marks as rolled
/// back.
fn colliding_cache(
    headers: Vec<(u32, u64, u64, u32)>,
    skip_bits: u32,
) -> (TrustCache, Vec<Digest>, HashSet<Digest>) {
    let cfg = ProtocolConfig::test_default();
    let mut pool = colliding_digests();
    let mut targets = pool.clone();
    let mut cache = TrustCache::new();
    let mut skip = HashSet::new();
    for (i, (count, picks, time, owner)) in headers.into_iter().enumerate() {
        let block = DataBlock::create(
            &cfg,
            BlockId::new(NodeId(owner), i as u32 / 4),
            time,
            pick(&pool, count, picks),
            BlockBody::new(vec![i as u8; 8], cfg.body_bits),
            &KeyPair::from_seed(u64::from(owner)),
        );
        let digest = block.header_digest();
        pool.extend([digest, twin(digest)]);
        targets.extend([digest, twin(digest)]);
        if i % 3 == 0 && skip_bits >> (i % 32) & 1 == 1 {
            skip.insert(digest);
        }
        cache.insert(TrustedHeader {
            owner: NodeId(owner),
            block_id: block.id,
            header: block.header,
        });
    }
    (cache, targets, skip)
}

/// The canonical encodings a header's hashes cover: the puzzle prefix
/// `root ‖ digests` (Eq. 5, before the nonce) and the signed pre-sign
/// fields `version ‖ time ‖ root ‖ |digests| ‖ digests ‖ nonce` (Eq. 6).
fn canonical_bytes(header: &BlockHeader) -> (Vec<u8>, Vec<u8>) {
    let mut prefix = header.root.as_bytes().to_vec();
    for entry in header.digests.iter() {
        prefix.extend_from_slice(&entry.origin.0.to_be_bytes());
        prefix.extend_from_slice(entry.digest.as_bytes());
    }
    let mut presign = header.version.to_be_bytes().to_vec();
    presign.extend_from_slice(&header.time.to_be_bytes());
    presign.extend_from_slice(header.root.as_bytes());
    presign.extend_from_slice(&(header.digests.len() as u32).to_be_bytes());
    presign.extend_from_slice(&prefix[32..]);
    presign.extend_from_slice(&header.nonce.to_be_bytes());
    (prefix, presign)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Headers name colliding digests (see [`colliding_cache`]). No lookup
    /// may offer a header that does not contain the target, and TPS takes
    /// the steps a collect-and-sort lookup gives.
    #[test]
    fn prefix_collision_never_offers_a_false_child(
        headers in proptest::collection::vec((0u32..6, any::<u64>(), 0u64..6, 0u32..4), 1..32),
        skip_bits in any::<u32>(),
    ) {
        let (cache, targets, skip) = colliding_cache(headers, skip_bits);
        check_index(&cache)?;
        for target in &targets {
            let candidates: Vec<_> = cache.children_candidates(target).collect();
            prop_assert_eq!(&candidates, &collect_and_sort(&cache, target));
            let digests: Vec<Digest> = tps::extend(&cache, target, &skip, 64).map(|s| s.digest).collect();
            prop_assert_eq!(&digests, &reference_extend(&cache, target, &skip, 64));
            let mut tip = *target;
            for digest in digests {
                prop_assert!(cache.get(&digest).unwrap().header.contains_digest(&tip));
                tip = digest;
            }
        }
    }

    /// A validator stops consuming TPS steps once `|R_i| = γ + 1`: the
    /// first `k` steps of the lazy walk are the first `k` of the eager
    /// reference, for every `k`, including one past the budget.
    #[test]
    fn lazy_tps_walk_takes_the_reference_prefix(
        headers in proptest::collection::vec((0u32..6, any::<u64>(), 0u64..6, 0u32..4), 1..32),
        skip_bits in any::<u32>(),
        budget in 0usize..8,
        k in 0usize..12,
    ) {
        let (cache, targets, skip) = colliding_cache(headers, skip_bits);
        for target in &targets {
            let taken: Vec<Digest> = tps::extend(&cache, target, &skip, budget)
                .take(k)
                .map(|s| s.digest)
                .collect();
            let mut reference = reference_extend(&cache, target, &skip, budget);
            reference.truncate(k);
            prop_assert_eq!(taken, reference);
        }
    }

    /// Every header hash covers the canonical encoding at any list length,
    /// `absorb_digests`'s 28-entry chunk boundaries included: the digest,
    /// the signature over the pre-sign hash, and the puzzle at any nonce.
    #[test]
    fn header_hash_equals_the_canonical_byte_encoding(
        entries in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..300),
        nonce in any::<u32>(),
        difficulty in 0u8..6,
    ) {
        let cfg = ProtocolConfig::test_default();
        let kp = KeyPair::from_seed(entries.len() as u64);
        let digests = entries
            .iter()
            .map(|&(origin, seed)| DigestEntry {
                origin: NodeId(origin),
                digest: Digest::from_bytes([seed.to_le_bytes(); 4].concat().try_into().unwrap()),
            })
            .collect::<Vec<_>>();
        let body = BlockBody::new(vec![entries.len() as u8; 8], cfg.body_bits);
        let mut header = DataBlock::create(&cfg, BlockId::new(NodeId(1), 2), 3, digests, body, &kp).header;
        let (_, presign) = canonical_bytes(&header);
        prop_assert!(kp.public().verify(sha256(&presign).as_bytes(), &header.signature));

        header.nonce = nonce;
        let (prefix, presign) = canonical_bytes(&header);
        let full = [&b"2ldag-header"[..], &presign, &header.signature.to_bytes()].concat();
        prop_assert_eq!(header.digest(), sha256(&full));
        let reference = puzzle::check(&puzzle::puzzle_digest(&prefix, nonce), difficulty);
        prop_assert_eq!(header.verify_puzzle(difficulty), reference);
    }

    /// A chain whose headers name colliding digests: the responder lookups
    /// return exactly what a scan of the chain for the full digest finds.
    #[test]
    fn prefix_collision_block_store_answers_only_true_children(
        chain in proptest::collection::vec((0u32..5, any::<u64>()), 1..40),
    ) {
        let cfg = ProtocolConfig::test_default();
        let digests = colliding_digests();
        let mut store = BlockStore::new();
        for (seq, (count, picks)) in chain.into_iter().enumerate() {
            let block = DataBlock::create(
                &cfg,
                BlockId::new(NodeId(1), seq as u32),
                // Slots 1, 3, 5, …: horizons fall on and between them.
                2 * seq as u64 + 1,
                pick(&digests, count, picks),
                BlockBody::new(vec![seq as u8; 8], cfg.body_bits),
                &KeyPair::from_seed(1),
            );
            store.append(block).unwrap();
        }
        for target in &digests {
            let scan: Vec<DataBlock> = store
                .iter()
                .flat_map(|b| {
                    let copies = b.header.digests.iter().filter(|e| e.digest == *target).count();
                    std::iter::repeat_n(b, copies)
                })
                .collect();
            prop_assert_eq!(&store.children_of(target), &scan);
            prop_assert_eq!(store.oldest_child_of(target), scan.first().cloned());
            for horizon in 0..=2 * store.len() as u64 {
                let within = scan.iter().find(|b| b.header.time <= horizon).cloned();
                prop_assert_eq!(store.oldest_child_of_within(target, horizon), within);
            }
        }
    }
}

/// The chain index's shape: a tail short of a run, runs each larger than the
/// next newer one, every run but the oldest (which a prune may have
/// filtered) a power-of-two multiple of the tail, so at most
/// `log2(n / 64) + 1` of them.
fn check_chain_index_shape(index: &ChainIndex) -> Result<(), TestCaseError> {
    prop_assert!(index.tail_len() < ChainIndex::TAIL);
    let runs: Vec<usize> = index.run_lens().collect();
    prop_assert!(runs.windows(2).all(|w| w[0] > w[1]), "{:?}", runs);
    let doubled =
        |&n: &usize| n % ChainIndex::TAIL == 0 && (n / ChainIndex::TAIL).is_power_of_two();
    prop_assert!(runs.iter().skip(1).all(doubled), "{:?}", runs);
    let chunks = runs.iter().sum::<usize>() / ChainIndex::TAIL;
    let bound = (usize::BITS - chunks.leading_zeros()).max(1) as usize;
    prop_assert!(runs.len() <= bound, "{:?}", runs);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `S_i`'s contained-digest index against a scan of the chain. Blocks
    /// name up to 15 of nine prefix-colliding digests, repeats included, so
    /// up to 90 blocks flush the 64-entry tail mid-block and merge runs of
    /// every size to 1 024 entries. The index is pruned once while it grows
    /// (at `cut`, below `floor`) and then, on copies, at every floor up to
    /// the chain's end; each lookup equals the scan of the blocks it keeps.
    /// A `BlockStore` holding the chain answers `children_of`,
    /// `oldest_child_of_within` at every horizon and `by_header_digest` as
    /// the scan does.
    #[test]
    fn chain_index_matches_the_scan_reference(
        chain in proptest::collection::vec(proptest::collection::vec(0usize..9, 0..16), 1..90),
        cut in any::<u32>(),
        floor in any::<u32>(),
    ) {
        let digests = colliding_digests();
        let named: Vec<Vec<Digest>> = (chain.iter())
            .map(|picks| picks.iter().map(|&p| digests[p]).collect())
            .collect();
        let copies = |seq: usize, target: &Digest| named[seq].iter().filter(|d| *d == target).count();
        let scan = |target: &Digest, floor: usize| -> Vec<u32> {
            (floor..named.len())
                .flat_map(|seq| std::iter::repeat_n(seq as u32, copies(seq, target)))
                .collect()
        };

        let cut = cut as usize % (named.len() + 1);
        let floor = floor as usize % (cut + 1);
        let mut index = ChainIndex::default();
        for (seq, contained) in named.iter().enumerate() {
            if seq == cut {
                index.prune_below(floor as u32);
            }
            for d in contained {
                index.push(d, seq as u32);
            }
        }
        if cut == named.len() {
            index.prune_below(floor as u32);
        }
        for floor in floor..=named.len() {
            let mut pruned = index.clone();
            pruned.prune_below(floor as u32);
            let kept: usize = named[floor..].iter().map(Vec::len).sum();
            prop_assert_eq!(pruned.len(), kept);
            check_chain_index_shape(&pruned)?;
            for target in &digests {
                let children = pruned.children(target, |seq| copies(seq as usize, target));
                prop_assert_eq!(children.collect::<Vec<u32>>(), scan(target, floor));
            }
        }

        let cfg = ProtocolConfig::test_default();
        let mut store = BlockStore::new();
        for (seq, contained) in named.iter().enumerate() {
            let entries = contained.iter().map(|&digest| DigestEntry { origin: NodeId(2), digest });
            let block = DataBlock::create(
                &cfg,
                BlockId::new(NodeId(1), seq as u32),
                // Slots 1, 3, 5, …: horizons fall on and between them.
                2 * seq as u64 + 1,
                entries.collect::<Vec<_>>(),
                BlockBody::new(vec![seq as u8; 8], cfg.body_bits),
                &KeyPair::from_seed(1),
            );
            store.append(block).unwrap();
        }
        for target in &digests {
            let scan = scan(target, 0);
            let seqs = |blocks: Vec<DataBlock>| blocks.iter().map(|b| b.id.seq).collect::<Vec<u32>>();
            prop_assert_eq!(seqs(store.children_of(target)), scan.clone());
            for horizon in 0..=2 * named.len() as u64 + 1 {
                let within = scan.iter().copied().find(|&seq| 2 * u64::from(seq) < horizon);
                let got = store.oldest_child_of_within(target, horizon).map(|b| b.id.seq);
                prop_assert_eq!(got, within);
            }
        }
        for block in store.iter() {
            let found = store.by_header_digest(&block.header_digest()).map(|b| b.id);
            prop_assert_eq!(found, Some(block.id));
        }
        prop_assert!(store.by_header_digest(&digests[0]).is_none());
    }
}

/// `H_i` as it was before the header arena, kept as the reference: one
/// cache per node, its headers in a slab in insertion order, `by_digest`
/// into the slab, and each contained digest's 64-bit prefix mapped to
/// `slab index << 8 | position` elements in `(time, owner, seq)` order, ties
/// in insertion order. (The child lists are plain `Vec`s here; the inline
/// form has its own reference test in `store.rs`.)
#[derive(Default)]
struct PerNodeCache {
    slab: Vec<(Digest, TrustedHeader)>,
    by_digest: HashMap<Digest, u32>,
    children_of: HashMap<u64, Vec<u32>>,
}

impl PerNodeCache {
    const FAR: usize = 255;

    fn key(digest: &Digest) -> u64 {
        u64::from_le_bytes(digest.as_bytes()[..8].try_into().unwrap())
    }

    fn insert(&mut self, trusted: TrustedHeader) {
        let digest = trusted.header.digest();
        if self.by_digest.contains_key(&digest) {
            return;
        }
        let index = self.slab.len() as u32;
        self.by_digest.insert(digest, index);
        self.slab.push((digest, trusted));
        let slab = &self.slab;
        let order = |child: u32| {
            let t = &slab[(child >> 8) as usize].1;
            (t.header.time, t.owner, t.block_id.seq)
        };
        let key = order(index << 8);
        for (position, entry) in slab[index as usize].1.header.digests.iter().enumerate() {
            let list = self
                .children_of
                .entry(Self::key(&entry.digest))
                .or_default();
            let at = list.partition_point(|&c| order(c) <= key);
            list.insert(at, index << 8 | position.min(Self::FAR) as u32);
        }
    }

    fn children_candidates(&self, target: &Digest) -> Vec<(Digest, &TrustedHeader)> {
        let mut far = (u32::MAX, 0);
        let list = self.children_of.get(&Self::key(target));
        let candidates = list.into_iter().flatten().filter_map(|&child| {
            let (index, position) = (child >> 8, (child & 0xff) as usize);
            let (digest, trusted) = &self.slab[index as usize];
            let digests = &trusted.header.digests;
            let hit = if position < Self::FAR {
                digests[position].digest == *target
            } else {
                far = (index, if far.0 == index { far.1 + 1 } else { 1 });
                let tail = digests[Self::FAR..].iter();
                tail.filter(|e| e.digest == *target).count() >= far.1
            };
            hit.then_some((*digest, trusted))
        });
        candidates.collect()
    }

    fn iter(&self) -> impl Iterator<Item = (&Digest, &TrustedHeader)> {
        self.slab.iter().map(|(digest, trusted)| (digest, trusted))
    }
}

/// Headers over colliding digests, as [`colliding_cache`] builds them; a
/// spec whose last field is 0 gets 256 to 300 entries, its picks past
/// position 255. With
/// `equivocate`, owners reuse seqs, so headers can tie on
/// `(time, owner, seq)`. Returns the headers and every digest worth looking
/// up.
fn arena_headers(
    specs: &[(u32, u64, u64, u32, u8)],
    equivocate: bool,
) -> (Vec<TrustedHeader>, Vec<Digest>) {
    let cfg = ProtocolConfig::test_default();
    let mut pool = colliding_digests();
    let mut targets = pool.clone();
    targets.push(Digest::ZERO);
    let mut headers = Vec::new();
    for (i, &(count, picks, time, owner, far)) in specs.iter().enumerate() {
        let mut digests = pick(&pool, count, picks);
        if far == 0 {
            let filler = (0..256 + (picks % 45) as u32).map(|k| {
                let mut bytes = [0xee; 32];
                bytes[..4].copy_from_slice(&k.to_be_bytes());
                bytes[4..8].copy_from_slice(&(i as u32).to_be_bytes());
                DigestEntry {
                    origin: NodeId(k),
                    digest: Digest::from_bytes(bytes),
                }
            });
            digests.splice(..0, filler);
        }
        let seq = if equivocate { i as u32 / 4 } else { i as u32 };
        let block = DataBlock::create(
            &cfg,
            BlockId::new(NodeId(owner), seq),
            time,
            digests,
            BlockBody::new(vec![i as u8; 8], cfg.body_bits),
            &KeyPair::from_seed(u64::from(owner)),
        );
        let digest = block.header_digest();
        pool.extend([digest, twin(digest)]);
        targets.extend([digest, twin(digest)]);
        headers.push(TrustedHeader {
            owner: NodeId(owner),
            block_id: block.id,
            header: block.header,
        });
    }
    (headers, targets)
}

/// Runs `slots` of commits against one shared arena of `members` caches,
/// and against a per-node reference and a cache with an arena of its own
/// per member. Each slot commits `(member, header picks, rename)` batches
/// in order — rename 1 offers the even picks under another block id, which
/// a header digest does not cover — then looks one target up for one
/// member. Returns, per member, the arena member, its reference and its
/// private cache.
type Slot = (Vec<(usize, Vec<usize>, u8)>, usize, usize);

fn run_shared_arena(
    members: usize,
    headers: &[TrustedHeader],
    targets: &[Digest],
    slots: Vec<Slot>,
) -> Result<Vec<(TrustCache, PerNodeCache, TrustCache)>, TestCaseError> {
    let mut shared = Arc::new(HeaderArena::default());
    let mut caches: Vec<TrustCache> = (0..members)
        .map(|_| TrustCache::member_of(&shared))
        .collect();
    let mut reference: Vec<PerNodeCache> = (0..members).map(|_| PerNodeCache::default()).collect();
    let mut private: Vec<TrustCache> = (0..members).map(|_| TrustCache::new()).collect();
    for (commits, lookup, target) in slots {
        let mut fresh = Vec::new();
        for (member, picks, rename) in commits {
            let member = member % members;
            let batch: Vec<TrustedHeader> = picks
                .iter()
                .map(|&p| {
                    let mut trusted = headers[p % headers.len()].clone();
                    if rename == 1 && p % 2 == 0 {
                        trusted.block_id.seq += 1000;
                    }
                    trusted
                })
                .collect();
            for trusted in &batch {
                reference[member].insert(trusted.clone());
                private[member].insert(trusted.clone());
            }
            fresh.push((member, batch.into_iter().collect::<FreshHeaders>()));
        }
        let mut views: Vec<&mut TrustCache> = caches.iter_mut().collect();
        HeaderArena::commit(&mut shared, &mut views, fresh);
        let (member, target) = (lookup % members, &targets[target % targets.len()]);
        let got: Vec<_> = caches[member].children_candidates(target).collect();
        prop_assert_eq!(got, reference[member].children_candidates(target));
    }
    for cache in &caches {
        prop_assert!(
            cache.is_member_of(&shared),
            "every member keeps the grown arena"
        );
    }
    let each = caches.into_iter().zip(reference).zip(private);
    Ok(each
        .map(|((cache, reference), private)| (cache, reference, private))
        .collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One to eight members trust random, overlapping sets of headers over
    /// colliding digests (some past position 255, some offered twice or
    /// under another block id), committed in slots interleaved with
    /// lookups. Each member answers as its per-node reference: the same
    /// candidates in the same order for every digest, the same `iter`
    /// order, the same `get`, and the same persisted bytes as a cache with
    /// an arena of its own. The arena holds each (digest, block) once.
    #[test]
    fn shared_arena_members_match_per_node_caches(
        members in 1usize..=8,
        specs in proptest::collection::vec(
            (0u32..6, any::<u64>(), 0u64..6, 0u32..4, 0u8..7),
            1..20,
        ),
        slots in proptest::collection::vec(
            (
                proptest::collection::vec(
                    (0usize..8, proptest::collection::vec(0usize..64, 1..6), 0u8..10),
                    0..4,
                ),
                0usize..8,
                0usize..256,
            ),
            1..12,
        ),
    ) {
        let (headers, targets) = arena_headers(&specs, false);
        let runs = run_shared_arena(members, &headers, &targets, slots)?;
        let mut distinct = HashSet::new();
        for (cache, reference, private) in &runs {
            for target in &targets {
                let got: Vec<_> = cache.children_candidates(target).collect();
                prop_assert_eq!(&got, &reference.children_candidates(target));
                let alone: Vec<_> = private.children_candidates(target).collect();
                prop_assert_eq!(&alone, &got);
            }
            let order: Vec<_> = cache.iter().collect();
            prop_assert_eq!(&order, &reference.iter().collect::<Vec<_>>());
            prop_assert_eq!(&order, &private.iter().collect::<Vec<_>>());
            for (digest, trusted) in reference.iter() {
                prop_assert_eq!(cache.get(digest), Some(trusted));
                distinct.insert((*digest, trusted.block_id));
            }
            prop_assert_eq!(encode_trust_cache(cache), encode_trust_cache(private));
            prop_assert_eq!(cache.resident_bytes(), private.resident_bytes());
            check_index(cache)?;
        }
        prop_assert_eq!(runs[0].0.arena().len(), distinct.len());
    }

    /// One member trusting equivocating headers — equal `(time, owner, seq)`,
    /// different digests — keeps the per-node cache's insertion-order
    /// tie-break.
    #[test]
    fn shared_arena_of_one_member_keeps_the_insertion_order_tie_break(
        specs in proptest::collection::vec(
            (0u32..6, any::<u64>(), 0u64..3, 0u32..2, 0u8..10),
            1..24,
        ),
        slots in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..1, proptest::collection::vec(0usize..64, 1..6), 0u8..1), 1..3),
                0usize..1,
                0usize..256,
            ),
            1..10,
        ),
    ) {
        let (headers, targets) = arena_headers(&specs, true);
        let runs = run_shared_arena(1, &headers, &targets, slots)?;
        let (cache, reference, _) = &runs[0];
        for target in &targets {
            let got: Vec<_> = cache.children_candidates(target).collect();
            prop_assert_eq!(got, reference.children_candidates(target));
        }
        prop_assert!(cache.iter().eq(reference.iter()));
    }
}
