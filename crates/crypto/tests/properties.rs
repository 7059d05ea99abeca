//! Property-based tests for the cryptographic substrate.

use proptest::prelude::*;
use tldag_crypto::digest::Digest;
use tldag_crypto::hex;
use tldag_crypto::merkle::{merkle_root, MerkleTree};
use tldag_crypto::puzzle;
use tldag_crypto::schnorr::{KeyPair, Signature};
use tldag_crypto::sha256::{sha256, Sha256};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hex encoding round-trips for arbitrary byte strings.
    #[test]
    fn hex_round_trip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(hex::from_hex(&hex::to_hex(&data)).unwrap(), data);
    }

    /// Digest display/parse round-trips for arbitrary digests.
    #[test]
    fn digest_round_trip(bytes in any::<[u8; 32]>()) {
        let d = Digest::from_bytes(bytes);
        prop_assert_eq!(d.to_string().parse::<Digest>().unwrap(), d);
    }

    /// SHA-256 is deterministic and sensitive to any single-byte change.
    #[test]
    fn sha256_sensitivity(
        data in proptest::collection::vec(any::<u8>(), 1..128),
        flip in 0usize..128,
        bit in 0u8..8,
    ) {
        let base = sha256(&data);
        prop_assert_eq!(sha256(&data), base);
        let mut tampered = data.clone();
        let idx = flip % tampered.len();
        tampered[idx] ^= 1 << bit;
        if tampered != data {
            prop_assert_ne!(sha256(&tampered), base);
        }
    }

    /// Multi-chunk absorption equals one-shot hashing for any chunking:
    /// chunks shorter than a block, and chunks of several blocks.
    #[test]
    fn sha256_chunking_invariance(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300), 0..8),
    ) {
        let mut hasher = Sha256::new();
        let mut concat = Vec::new();
        for chunk in &chunks {
            hasher.update(chunk);
            concat.extend_from_slice(chunk);
        }
        prop_assert_eq!(hasher.finalize(), sha256(&concat));
    }

    /// Absorbing 1–5 whole blocks in one `update` equals absorbing them one
    /// block at a time, whatever is already buffered in front of them.
    #[test]
    fn sha256_whole_blocks_in_one_call(
        buffered in proptest::collection::vec(any::<u8>(), 0..64),
        blocks in proptest::collection::vec(any::<[u8; 64]>(), 1..6),
    ) {
        let mut at_once = Sha256::new();
        at_once.update(&buffered);
        let mut one_by_one = at_once.clone();
        at_once.update(blocks.as_flattened());
        for block in &blocks {
            one_by_one.update(block);
        }
        prop_assert_eq!(at_once.finalize(), one_by_one.finalize());
    }

    /// A cloned midstate finalised equals a fresh hash of the same bytes, and
    /// the original keeps absorbing: how the puzzle tries one nonce after
    /// another over one prefix.
    #[test]
    fn sha256_cloned_midstate(
        prefix in proptest::collection::vec(any::<u8>(), 0..200),
        nonces in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        let mut midstate = Sha256::new();
        midstate.update(&prefix);
        for nonce in nonces {
            let mut attempt = midstate.clone();
            attempt.update(&nonce.to_be_bytes());
            let mut message = prefix.clone();
            message.extend_from_slice(&nonce.to_be_bytes());
            prop_assert_eq!(attempt.finalize(), sha256(&message));
        }
    }

    /// The streaming Merkle root agrees with the materialised tree, and
    /// appending a leaf always changes the root.
    #[test]
    fn merkle_append_changes_root(
        leaves in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..16), 1..20),
        extra in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let tree = MerkleTree::build(leaves.iter());
        prop_assert_eq!(tree.root(), merkle_root(leaves.iter()));
        let mut appended = leaves.clone();
        appended.push(extra);
        prop_assert_ne!(merkle_root(appended.iter()), tree.root());
    }

    /// Every proof of every leaf verifies; a corrupted root verifies nothing.
    #[test]
    fn merkle_proofs_complete(
        leaves in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..16), 1..16),
        probe in 0usize..16,
    ) {
        let tree = MerkleTree::build(leaves.iter());
        let i = probe % leaves.len();
        let proof = tree.proof(i).unwrap();
        prop_assert!(proof.verify(&tree.root(), &leaves[i]));
        prop_assert!(!proof.verify(&tree.root().corrupted(), &leaves[i]));
    }

    /// Puzzle solutions satisfy their target and are minimal from the start
    /// nonce; the check is monotone in difficulty.
    #[test]
    fn puzzle_solutions_minimal(prefix in proptest::collection::vec(any::<u8>(), 0..32)) {
        let difficulty = 6u8;
        let nonce = puzzle::solve(&prefix, difficulty, 0);
        let digest = puzzle::puzzle_digest(&prefix, nonce);
        prop_assert!(puzzle::check(&digest, difficulty));
        for lower in 0..=difficulty {
            prop_assert!(puzzle::check(&digest, lower), "monotone in difficulty");
        }
        for n in (0..nonce).take(64) {
            prop_assert!(!puzzle::check(&puzzle::puzzle_digest(&prefix, n), difficulty));
        }
    }

    /// Signature byte encoding round-trips; mutated signatures never verify.
    #[test]
    fn signature_encoding_and_mutation(
        seed in 0u64..10_000,
        msg in proptest::collection::vec(any::<u8>(), 0..64),
        which in any::<bool>(),
        bit in 0u8..64,
    ) {
        let kp = KeyPair::from_seed(seed);
        let sig = kp.sign(&msg);
        prop_assert_eq!(Signature::from_bytes(sig.to_bytes()), sig);
        prop_assert!(kp.public().verify(&msg, &sig));
        let mutated = if which {
            Signature { e: sig.e ^ (1 << (bit % 63)), ..sig }
        } else {
            Signature { s: sig.s ^ (1 << (bit % 63)), ..sig }
        };
        if mutated != sig {
            prop_assert!(!kp.public().verify(&msg, &mutated));
        }
    }
}

/// The midstate search returns exactly the nonce a search that re-hashes
/// `prefix ‖ nonce` from scratch finds first — at every prefix length
/// across the SHA-256 block and padding boundaries (55/56, 63/64, 119/120,
/// 183/184 …, where the nonce straddles or opens a block; every tail
/// offset mod 64, so one- and two-block open-word searches and the
/// unaligned fallback), every difficulty the deployments use and more, and
/// a non-zero start.
#[test]
fn midstate_solve_equals_brute_force_at_every_prefix_length() {
    for len in 0..=200usize {
        let prefix: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
        let from_scratch = |nonce: u32| {
            let mut message = prefix.clone();
            message.extend_from_slice(&nonce.to_le_bytes());
            sha256(&message)
        };
        for bits in 0..=10u8 {
            let start = 1 + (len as u32) * 1_000 + u32::from(bits);
            let expect = (start..)
                .find(|&n| puzzle::check(&from_scratch(n), bits))
                .unwrap();
            assert_eq!(
                puzzle::solve(&prefix, bits, start),
                expect,
                "len {len} bits {bits}"
            );
            assert_eq!(puzzle::puzzle_digest(&prefix, expect), from_scratch(expect));
        }
    }
}
