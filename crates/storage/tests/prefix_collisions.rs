//! The durable block index keys its chain indexes by a 64-bit digest
//! prefix and confirms a contained-digest hit against the block each lookup
//! reads. Digests that share a prefix must never answer for each other:
//! after any interleaving of appends and prunes, across the snapshot codec
//! and a full-scan replay, every child lookup equals a scan of the retained
//! blocks' full digests, and so does every lookup of a [`DurableStore`]
//! holding a forged digest.

use proptest::prelude::*;
use proptest::TestCaseError;
use tldag_core::config::ProtocolConfig;
use tldag_core::store::BlockBackend;
use tldag_core::{BlockBody, BlockId, DataBlock, DigestEntry};
use tldag_crypto::schnorr::KeyPair;
use tldag_crypto::Digest;
use tldag_sim::NodeId;
use tldag_storage::index::{BlockIndex, RecordLocation};
use tldag_storage::{DurableStore, StorageOptions};

fn location(seq: u32) -> RecordLocation {
    RecordLocation {
        segment: 0,
        offset: u64::from(seq) * 64,
        len: 64,
    }
}

/// Nine digests over three prefixes: every key is shared by three digests.
fn universe() -> Vec<Digest> {
    let mut digests = Vec::new();
    for prefix in 0..3u8 {
        for suffix in 0..3u8 {
            let mut bytes = [prefix; 32];
            bytes[31] = suffix;
            digests.push(Digest::from_bytes(bytes));
        }
    }
    digests
}

fn block(seq: u32, contained: Vec<Digest>) -> DataBlock {
    let cfg = ProtocolConfig::test_default();
    let entry = |digest| DigestEntry {
        origin: NodeId(9),
        digest,
    };
    DataBlock::create(
        &cfg,
        BlockId::new(NodeId(1), seq),
        // Slots 1, 3, 5, …: horizons fall on and between them.
        2 * u64::from(seq) + 1,
        contained.into_iter().map(entry).collect::<Vec<_>>(),
        BlockBody::new(vec![seq as u8; 8], cfg.body_bits),
        &KeyPair::from_seed(1),
    )
}

/// [`BlockIndex::children`] with `chain` (every block by seq, pruned ones
/// included) as the records: each child's seq once per copy of `target`
/// its header names.
fn children_of(index: &BlockIndex, chain: &[DataBlock], target: &Digest) -> Vec<u32> {
    let read = |seq: u32| chain.get(seq as usize).cloned();
    (index.children(target, u64::MAX, read))
        .flat_map(|(block, copies)| std::iter::repeat_n(block.id.seq, copies))
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
    children.next().map(|(block, _)| block.id.seq)
}

/// Each retained seq once per copy of `target` its header names,
/// ascending: the scan every lookup must equal.
fn scan(index: &BlockIndex, chain: &[DataBlock], target: &Digest) -> Vec<u32> {
    (index.base_seq()..index.next_seq())
        .flat_map(|seq| {
            let digests = chain[seq as usize].header.digests.iter();
            let copies = digests.filter(|e| e.digest == *target).count();
            std::iter::repeat_n(seq, copies)
        })
        .collect()
}

/// Every lookup against a scan of the retained blocks' full digests.
fn check(
    index: &BlockIndex,
    chain: &[DataBlock],
    universe: &[Digest],
) -> Result<(), TestCaseError> {
    for target in universe {
        let scan = scan(index, chain, target);
        prop_assert_eq!(children_of(index, chain, target), scan.clone());
        prop_assert_eq!(
            oldest_child_within(index, chain, target, u64::MAX),
            scan.first().copied()
        );
        for horizon in 0..=2 * u64::from(index.next_seq()) + 1 {
            let within = scan
                .iter()
                .copied()
                .find(|&seq| 2 * u64::from(seq) < horizon);
            prop_assert_eq!(oldest_child_within(index, chain, target, horizon), within);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `op` 0 prunes below a point in the retained range; 1–5 appends a
    /// block naming `op - 1` digests of the universe (repeats allowed),
    /// picked by `picks`.
    #[test]
    fn prefix_collisions_never_answer_for_another_digest(
        ops in proptest::collection::vec((0u32..6, any::<u32>()), 1..40),
    ) {
        let universe = universe();
        let mut index = BlockIndex::new();
        let mut chain = Vec::new();
        for (op, picks) in ops {
            if op == 0 {
                let span = index.next_seq() - index.base_seq();
                index.prune_below(index.base_seq() + picks % (span + 1));
            } else {
                let seq = index.next_seq();
                let contained = (0..op - 1)
                    .map(|k| universe[(picks >> (4 * k)) as usize % universe.len()])
                    .collect();
                chain.push(block(seq, contained));
                index.push(&chain[seq as usize], location(seq));
            }
            check(&index, &chain, &universe)?;
        }
        let blob = BlockIndex::encode_chains([&index], 0, 0);
        let restored = BlockIndex::decode_chains(&blob).unwrap().0.pop().unwrap();
        check(&restored, &chain, &universe)?;
    }
}

/// `check` at one horizon set: every child, the oldest child and
/// `seq_of_digest` for every target and block, but the oldest child at
/// every horizon for `deep` only, which keeps a floor-by-floor sweep cheap.
fn check_floor(
    index: &BlockIndex,
    chain: &[DataBlock],
    universe: &[Digest],
    deep: &Digest,
) -> Result<(), TestCaseError> {
    for target in universe {
        let scan = scan(index, chain, target);
        prop_assert_eq!(children_of(index, chain, target), scan.clone());
        prop_assert_eq!(
            oldest_child_within(index, chain, target, u64::MAX),
            scan.first().copied()
        );
        if target == deep {
            for horizon in 0..=2 * u64::from(index.next_seq()) + 1 {
                let within = scan
                    .iter()
                    .copied()
                    .find(|&seq| 2 * u64::from(seq) < horizon);
                prop_assert_eq!(oldest_child_within(index, chain, target, horizon), within);
            }
        }
    }
    for block in chain {
        let seq = block.id.seq;
        let retained = (index.base_seq()..index.next_seq()).contains(&seq);
        prop_assert_eq!(
            index.seq_of_digest(&block.header_digest()),
            retained.then_some(seq)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The chain index under the durable block index, against a scan. Up to
    /// 90 blocks name up to 15 colliding digests each, repeats included, so
    /// entries straddle the 64-entry tail flush and merge into runs of every
    /// size to 1 024 entries. One prune lands mid-growth (at `cut`, below
    /// `floor`); then copies are pruned at every floor to the chain's end.
    /// The final index also survives the snapshot codec and a full-scan
    /// replay (`start_at` the base, then every retained block pushed again,
    /// as `DurableStore::open` does without a snapshot).
    #[test]
    fn chain_index_matches_the_scan_at_every_floor(
        chain in proptest::collection::vec(proptest::collection::vec(0usize..9, 0..16), 1..90),
        cut in any::<u32>(),
        floor in any::<u32>(),
    ) {
        let universe = universe();
        let chain: Vec<DataBlock> = (chain.into_iter().enumerate())
            .map(|(seq, picks)| block(seq as u32, picks.iter().map(|&p| universe[p]).collect()))
            .collect();
        let cut = cut as usize % (chain.len() + 1);
        let floor = floor % (cut as u32 + 1);
        let mut index = BlockIndex::new();
        for b in &chain {
            if b.id.seq as usize == cut {
                index.prune_below(floor);
            }
            index.push(b, location(b.id.seq));
        }
        if cut == chain.len() {
            index.prune_below(floor);
        }
        for at in floor..=index.next_seq() {
            let mut pruned = index.clone();
            pruned.prune_below(at);
            check_floor(&pruned, &chain, &universe, &universe[at as usize % universe.len()])?;
        }

        let blob = BlockIndex::encode_chains([&index], 0, 0);
        let decoded = BlockIndex::decode_chains(&blob).unwrap().0.pop().unwrap();
        let mut replayed = BlockIndex::new();
        if index.base_seq() > 0 {
            replayed.start_at(index.base_seq());
        }
        for b in &chain[index.base_seq() as usize..] {
            replayed.push(b, location(b.id.seq));
        }
        for rebuilt in [&decoded, &replayed] {
            for deep in &universe {
                check_floor(rebuilt, &chain, &universe, deep)?;
            }
        }
    }
}

/// A block of node 1 at slot `2 * seq + 1` naming `contained`, with a
/// payload that rolls a 4 KiB segment every few dozen blocks.
fn stored_block(seq: u32, contained: &[Digest]) -> DataBlock {
    let cfg = ProtocolConfig::test_default();
    let entry = |&digest| DigestEntry {
        origin: NodeId(2),
        digest,
    };
    DataBlock::create(
        &cfg,
        BlockId::new(NodeId(1), seq),
        2 * u64::from(seq) + 1,
        contained.iter().map(entry).collect::<Vec<_>>(),
        BlockBody::new(vec![seq as u8; 64], cfg.body_bits),
        &KeyPair::from_seed(1),
    )
}

#[test]
fn a_forged_prefix_never_answers_for_the_real_digest_in_a_durable_store() {
    // A neighbour's real block, whose digest is public once gossiped, and a
    // forgery sharing its 64-bit prefix, named in a later block. A block's
    // own owner knows its digest before publishing it, so a second forgery
    // is named twice before the true child: the lookups read and drop those
    // blocks on the way to it.
    let real = block(0, vec![]).header_digest();
    let twin = |salt: u8| {
        let mut bytes = real.into_bytes();
        bytes[31] ^= salt;
        Digest::from_bytes(bytes)
    };
    let (forged, early) = (twin(0x5a), twin(0xa5));
    let chain: Vec<DataBlock> = (0..40u32)
        .map(|seq| match seq {
            10 | 33 => stored_block(seq, &[real]),
            25 => stored_block(seq, &[forged]),
            4 | 7 => stored_block(seq, &[early]),
            _ => stored_block(seq, &[]),
        })
        .collect();

    let dir = std::env::temp_dir().join(format!("tldag-forged-prefix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StorageOptions::compact_test();
    let mut store = DurableStore::open(&dir, opts.clone()).unwrap();
    for b in &chain {
        store.append(b.clone()).unwrap();
    }
    store.sync().unwrap();
    assert!(store.segment_count() > 1, "the chain spans segments");
    let seqs = |blocks: Vec<DataBlock>| blocks.iter().map(|b| b.id.seq).collect::<Vec<_>>();
    let check = |store: &DurableStore, how: &str| {
        assert_eq!(seqs(store.children_of(&real)), [10, 33], "{how}");
        assert_eq!(seqs(store.children_of(&forged)), [25], "{how}");
        assert_eq!(seqs(store.children_of(&early)), [4, 7], "{how}");
        assert_eq!(
            store.oldest_child_of(&real),
            Some(chain[10].clone()),
            "{how}"
        );
        assert_eq!(
            store.oldest_child_of(&forged),
            Some(chain[25].clone()),
            "{how}"
        );
        for horizon in 0..=2 * chain.len() as u64 {
            let true_child = (horizon >= 21).then(|| chain[10].clone());
            let forgery = (horizon >= 51).then(|| chain[25].clone());
            let early_forgery = (horizon >= 9).then(|| chain[4].clone());
            assert_eq!(
                store.oldest_child_of_within(&real, horizon),
                true_child,
                "{how}"
            );
            assert_eq!(
                store.oldest_child_of_within(&forged, horizon),
                forgery,
                "{how}"
            );
            assert_eq!(
                store.oldest_child_of_within(&early, horizon),
                early_forgery,
                "{how}"
            );
        }
        assert_eq!(store.by_header_digest(&forged), None, "{how}");
        assert_eq!(
            store.by_header_digest(&chain[25].header_digest()),
            Some(chain[25].clone())
        );
    };
    check(&store, "live");
    drop(store);
    let reopened = DurableStore::open(&dir, opts.clone()).unwrap();
    check(&reopened, "reopened from the snapshot");
    drop(reopened);
    std::fs::remove_file(dir.join("index.snap")).unwrap();
    let rescanned = DurableStore::open(&dir, opts).unwrap();
    check(&rescanned, "reopened by a full scan");
    drop(rescanned);
    std::fs::remove_dir_all(&dir).unwrap();
}
