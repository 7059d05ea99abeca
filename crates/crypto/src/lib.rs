//! Cryptographic substrate for the 2LDAG protocol.
//!
//! The 2LDAG paper (ICDCS 2023) assumes a 256-bit hash function `H(.)`, a Merkle
//! tree root function `M(.)`, a public-key signature scheme `E(., sk)` / `D(., pk)`,
//! and a proof-of-work style difficulty puzzle used to rate-limit block generation
//! (Eq. 5). This crate implements all four from scratch so the workspace has no
//! external cryptographic dependencies:
//!
//! * [`sha256`] — a pure-Rust SHA-256 (FIPS 180-4), validated against NIST vectors;
//!   it compresses with the CPU's SHA instructions where the CPU reports them
//!   and with portable scalar code everywhere else.
//! * [`merkle`] — a binary Merkle tree with inclusion proofs over block bodies.
//! * [`schnorr`] — Schnorr signatures over a 64-bit safe-prime field. This is
//!   **simulation-grade**: structurally a real Schnorr scheme (key generation,
//!   deterministic nonces, the standard verification equation) but with a
//!   deliberately small field, so it must never be used outside simulations.
//!   A signature is the `(e, s)` pair and carries no commitment `R`, so
//!   signatures are verified one at a time, never in a batch. The 2LDAG
//!   overhead model accounts signatures at the paper's `f_s = 256` bits
//!   regardless.
//! * [`puzzle`] — leading-zero-bit difficulty puzzles (`H(fields ‖ nonce) ≤ ρ`).
//!
//! # Example
//!
//! ```
//! use tldag_crypto::{sha256::sha256, schnorr::KeyPair, puzzle};
//!
//! let digest = sha256(b"sensor reading");
//! let kp = KeyPair::from_seed(7);
//! let sig = kp.sign(digest.as_bytes());
//! assert!(kp.public().verify(digest.as_bytes(), &sig));
//!
//! let nonce = puzzle::solve(b"block header", 8, 0);
//! assert!(puzzle::check(&puzzle::puzzle_digest(b"block header", nonce), 8));
//! ```

// `deny`, not `forbid`: the one sanctioned exception is `sha_ni`, a leaf
// module with its own `allow` whose two guarded calls enter kernels
// compiled for CPU features the build target does not promise. No other
// module can grow such a block without tripping the lint, and clippy fails
// any block that does not say why it is sound.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod digest;
pub mod hex;
pub mod merkle;
pub mod puzzle;
pub mod schnorr;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
mod sha_ni;

pub use digest::Digest;
pub use merkle::{MerkleProof, MerkleTree};
pub use schnorr::{KeyPair, PublicKey, SecretKey, Signature};
