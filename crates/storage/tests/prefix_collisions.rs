//! The durable block index keys its chain index by a 64-bit digest prefix.
//! Digests that share a prefix must never answer for each other: after any
//! interleaving of appends and prunes, across the snapshot codec and a
//! full-scan replay, every child lookup equals a scan of the retained
//! entries for the full digest.

use proptest::prelude::*;
use proptest::TestCaseError;
use tldag_core::config::ProtocolConfig;
use tldag_core::{BlockBody, BlockId, DataBlock, DigestEntry};
use tldag_crypto::schnorr::KeyPair;
use tldag_crypto::Digest;
use tldag_sim::NodeId;
use tldag_storage::index::{BlockIndex, RecordLocation};

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

/// Every lookup against a scan of the retained entries: each retained seq
/// once per copy of `target` its header names, ascending.
fn check(index: &BlockIndex, universe: &[Digest]) -> Result<(), TestCaseError> {
    for target in universe {
        let mut scan = Vec::new();
        for seq in index.base_seq()..index.next_seq() {
            let entry = index.entry(seq).expect("retained");
            let copies = entry.contained.iter().filter(|d| *d == target).count();
            scan.extend(std::iter::repeat_n(seq, copies));
        }
        prop_assert_eq!(index.children_of(target), scan.clone());
        prop_assert_eq!(index.oldest_child_of(target), scan.first().copied());
        for horizon in 0..=2 * u64::from(index.next_seq()) + 1 {
            let within = scan
                .iter()
                .copied()
                .find(|&seq| 2 * u64::from(seq) < horizon);
            prop_assert_eq!(index.oldest_child_of_within(target, horizon), within);
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
        for (op, picks) in ops {
            if op == 0 {
                let span = index.next_seq() - index.base_seq();
                index.prune_below(index.base_seq() + picks % (span + 1));
            } else {
                let seq = index.next_seq();
                let contained = (0..op - 1)
                    .map(|k| universe[(picks >> (4 * k)) as usize % universe.len()])
                    .collect();
                index.push(&block(seq, contained), location(seq));
            }
            check(&index, &universe)?;
        }
        let (restored, ..) = BlockIndex::decode_snapshot(&index.encode_snapshot(0, 0)).unwrap();
        check(&restored, &universe)?;
    }
}

/// `check` at one horizon set: [`children_of`](BlockIndex::children_of),
/// `oldest_child_of` and `seq_of_digest` for every target and block, but
/// `oldest_child_of_within` at every horizon for `deep` only, which keeps a
/// floor-by-floor sweep cheap.
fn check_floor(
    index: &BlockIndex,
    chain: &[DataBlock],
    universe: &[Digest],
    deep: &Digest,
) -> Result<(), TestCaseError> {
    for target in universe {
        let scan: Vec<u32> = (index.base_seq()..index.next_seq())
            .flat_map(|seq| {
                let digests = chain[seq as usize].header.digests.iter();
                let copies = digests.filter(|e| e.digest == *target).count();
                std::iter::repeat_n(seq, copies)
            })
            .collect();
        prop_assert_eq!(index.children_of(target), scan.clone());
        prop_assert_eq!(index.oldest_child_of(target), scan.first().copied());
        if target == deep {
            for horizon in 0..=2 * u64::from(index.next_seq()) + 1 {
                let within = scan
                    .iter()
                    .copied()
                    .find(|&seq| 2 * u64::from(seq) < horizon);
                prop_assert_eq!(index.oldest_child_of_within(target, horizon), within);
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

        let (decoded, ..) = BlockIndex::decode_snapshot(&index.encode_snapshot(0, 0)).unwrap();
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
