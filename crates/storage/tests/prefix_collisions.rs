//! The durable block index keys its child lists by a 64-bit digest prefix.
//! Digests that share a prefix must never answer for each other: after any
//! interleaving of appends and prunes, and across the snapshot codec, every
//! child lookup equals a scan of the retained entries for the full digest.

use proptest::prelude::*;
use proptest::TestCaseError;
use tldag_core::config::ProtocolConfig;
use tldag_core::{BlockBody, BlockId, DataBlock, DigestEntry};
use tldag_crypto::schnorr::KeyPair;
use tldag_crypto::Digest;
use tldag_sim::NodeId;
use tldag_storage::index::{BlockIndex, RecordLocation};

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
                let location = RecordLocation { segment: 0, offset: u64::from(seq) * 64, len: 64 };
                index.push(&block(seq, contained), location);
            }
            check(&index, &universe)?;
        }
        let (restored, ..) = BlockIndex::decode_snapshot(&index.encode_snapshot(0, 0)).unwrap();
        check(&restored, &universe)?;
    }
}
