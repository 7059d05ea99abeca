//! Known answers, recorded before the open-word nonce search and the
//! fixed-base table of the Schnorr generator: a kernel change that moves a key, a
//! signature or a nonce fails here, not only in the golden deployment of
//! the crates downstream.

use tldag_crypto::puzzle;
use tldag_crypto::schnorr::{KeyPair, Signature};
use tldag_crypto::sha256::sha256;

#[test]
fn public_keys_of_seeds_0_to_4_are_pinned() {
    let keys: Vec<u64> = (0..=4)
        .map(|seed| KeyPair::from_seed(seed).public().to_u64())
        .collect();
    assert_eq!(
        keys,
        [
            0x312c_0291_b57f_bc62,
            0x10e6_3c59_37de_ea72,
            0x036d_a6c6_0cbc_a156,
            0x0a9a_465d_1fc3_1297,
            0x1217_f852_21a2_4220,
        ]
    );
}

#[test]
fn signature_of_abc_under_seed_1_is_pinned() {
    let kp = KeyPair::from_seed(1);
    let sig = kp.sign(b"abc");
    assert_eq!(
        sig,
        Signature {
            e: 0x11e6_e78d_f554_13c0,
            s: 0x1a29_787c_5fcc_434b,
        }
    );
    assert!(kp.public().verify(b"abc", &sig));
}

/// A block header's puzzle prefix at the paper's density: `root ‖ (origin ‖
/// digest) × entries`, 32 + 36 × `entries` bytes.
fn header_prefix(entries: u32) -> Vec<u8> {
    let mut prefix = sha256(b"paper-density root").as_bytes().to_vec();
    for origin in 0..entries {
        prefix.extend_from_slice(&origin.to_be_bytes());
        prefix.extend_from_slice(sha256(&origin.to_be_bytes()).as_bytes());
    }
    prefix
}

#[test]
fn header_nonces_are_pinned() {
    // 19 entries: 716 bytes, a 12-byte tail, so nonce and padding close
    // one block. 22 entries: 824 bytes, a 56-byte tail, so the length
    // spills into a second block.
    for (entries, tail, nonces) in [(19u32, 12, [357, 58_922]), (22, 56, [7_759, 121_501])] {
        let prefix = header_prefix(entries);
        assert_eq!(prefix.len() % 64, tail);
        for (bits, nonce) in [12u8, 16].into_iter().zip(nonces) {
            assert_eq!(
                puzzle::solve(&prefix, bits, 0),
                nonce,
                "{entries} entries, {bits} bits"
            );
        }
    }
}
