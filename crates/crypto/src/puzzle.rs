//! Difficulty puzzle (Eq. 5 of the paper): find a nonce such that
//! `H(fields ‖ nonce)` has at least `difficulty_bits` leading zero bits.
//!
//! 2LDAG uses the puzzle *not* for consensus (unlike PoW blockchains) but to
//! rate-limit block generation: a node needs a few seconds per block, so a
//! malicious node cannot flood neighbors with digests (Sec. IV-D.5). The
//! difficulty `ρ` is therefore small and fixed. Neighbors ban peers whose
//! blocks arrive faster than the puzzle allows.

use crate::digest::Digest;
#[cfg(target_arch = "x86_64")]
use crate::sha256::OpenWord;
use crate::sha256::Sha256;

/// Computes the puzzle digest `H(prefix ‖ nonce)` with the nonce encoded as
/// four little-endian bytes (the 32-bit `Nonce` field of the block header).
pub fn puzzle_digest(prefix: &[u8], nonce: u32) -> Digest {
    midstate_digest(&midstate(prefix), nonce)
}

/// A hasher that has absorbed `prefix` — the state every nonce attempt over
/// that prefix starts from.
fn midstate(prefix: &[u8]) -> Sha256 {
    let mut h = Sha256::new();
    h.update(prefix);
    h
}

/// [`puzzle_digest`] from a hasher that already absorbed the prefix. Callers
/// holding the prefix as fields rather than bytes stream them into a
/// [`Sha256`] and pass it here, so the nonce encoding stays in this module.
pub fn midstate_digest(midstate: &Sha256, nonce: u32) -> Digest {
    let mut h = midstate.clone();
    h.update(&nonce.to_le_bytes());
    h.finalize()
}

/// Returns `true` if `digest` satisfies the difficulty target, i.e. has at
/// least `difficulty_bits` leading zero bits. A difficulty of zero accepts
/// every digest (useful to disable the puzzle in unit tests).
pub fn check(digest: &Digest, difficulty_bits: u8) -> bool {
    digest.leading_zero_bits() >= u32::from(difficulty_bits)
}

/// Searches nonces starting at `start` until the puzzle is satisfied,
/// returning the first valid nonce.
///
/// Expected work is `2^difficulty_bits` hash evaluations; the simulations use
/// 8–12 bits so block generation stays fast while the rate-limiting semantics
/// are preserved.
///
/// # Panics
///
/// Panics if the nonce space is exhausted without a solution, which for any
/// practical difficulty (< 32 bits) does not happen.
///
/// # Example
///
/// ```
/// use tldag_crypto::puzzle;
///
/// let nonce = puzzle::solve(b"header fields", 8, 0);
/// assert!(puzzle::check(&puzzle::puzzle_digest(b"header fields", nonce), 8));
/// ```
pub fn solve(prefix: &[u8], difficulty_bits: u8, start: u32) -> u32 {
    solve_midstate(&midstate(prefix), difficulty_bits, start)
}

/// [`solve`] from a hasher that already absorbed the prefix: the prefix goes
/// through SHA-256 once and every attempt costs only the compressions that
/// hold its tail, the nonce and the padding.
///
/// On a CPU with SHA-NI, when the prefix ends on a 32-bit word boundary —
/// every block header's does, at `32 + 36k` bytes — the closing block(s)
/// are built once and the search tries two nonces per pass, reading the
/// leading zero bits straight from the final state words. Otherwise each
/// attempt streams through a cloned hasher. Both return the same nonce.
///
/// # Panics
///
/// As [`solve`].
pub fn solve_midstate(midstate: &Sha256, difficulty_bits: u8, start: u32) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(open) = midstate.open_word() {
        return solve_open_word(&open, difficulty_bits, start);
    }
    solve_streaming(midstate, difficulty_bits, start)
}

/// [`solve_midstate`]'s two-nonces-per-pass search over a prefix's closing
/// blocks.
#[cfg(target_arch = "x86_64")]
fn solve_open_word(open: &OpenWord, difficulty_bits: u8, start: u32) -> u32 {
    // The nonce's little-endian bytes, read as the big-endian message word
    // they land in.
    let word = u32::swap_bytes;
    let target = u32::from(difficulty_bits);
    let mut nonce = start;
    loop {
        let next = nonce.checked_add(1);
        let [first, second] = open.finish_pair([word(nonce), word(next.unwrap_or(nonce))]);
        if leading_zero_bits(&first) >= target {
            return nonce;
        }
        let next = next.expect(EXHAUSTED);
        if leading_zero_bits(&second) >= target {
            return next;
        }
        nonce = next.checked_add(1).expect(EXHAUSTED);
    }
}

const EXHAUSTED: &str = "puzzle nonce space exhausted (difficulty too high)";

/// One attempt after another through a cloned hasher: the search for a
/// prefix whose nonce straddles two message words or on a CPU without
/// SHA-NI, and the reference the tests hold the open-word search to.
fn solve_streaming(midstate: &Sha256, difficulty_bits: u8, start: u32) -> u32 {
    let mut nonce = start;
    loop {
        if check(&midstate_digest(midstate, nonce), difficulty_bits) {
            return nonce;
        }
        nonce = nonce.checked_add(1).expect(EXHAUSTED);
    }
}

/// [`Digest::leading_zero_bits`] of the digest whose big-endian words are
/// `state`.
#[cfg(target_arch = "x86_64")]
fn leading_zero_bits(state: &[u32; 8]) -> u32 {
    let mut count = 0;
    for word in state {
        count += word.leading_zeros();
        if *word != 0 {
            break;
        }
    }
    count
}

/// Expected number of hash evaluations to solve at `difficulty_bits`.
pub fn expected_attempts(difficulty_bits: u8) -> u64 {
    1u64 << difficulty_bits.min(63)
}

/// Number of attempts [`solve`] actually made for a given result, assuming it
/// started at `start`. Used by tests and by the DoS detector, which flags
/// peers producing blocks implausibly faster than the expected attempt count.
pub fn attempts_used(start: u32, solution: u32) -> u64 {
    u64::from(solution.wrapping_sub(start)) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The search's outcome, a nonce or the panic message.
    fn outcome(search: impl FnOnce() -> u32) -> Result<u32, String> {
        catch_unwind(AssertUnwindSafe(search)).map_err(|panic| {
            panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        })
    }

    #[test]
    fn exhausted_nonce_space_panics_like_the_reference() {
        // 40 bits: neither of the last two nonces reaches it.
        for len in [8usize, 12, 52, 56, 60, 6] {
            let mid = midstate(&vec![0x5a; len]);
            for start in [u32::MAX - 1, u32::MAX] {
                let fast = outcome(|| solve_midstate(&mid, 40, start));
                let reference = outcome(|| solve_streaming(&mid, 40, start));
                assert_eq!(fast, reference, "len {len} start {start}");
                let message = "puzzle nonce space exhausted (difficulty too high)";
                assert_eq!(fast, Err(message.to_string()), "len {len} start {start}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn leading_zero_bits_of_the_state_match_the_digest() {
        for state in [
            [0u32; 8],
            [0, 0, 1, 0, 0, 0, 0, 0],
            [0x0fff_ffff; 8],
            [1 << 31; 8],
        ] {
            let bytes: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();
            let digest = Digest::from_bytes(bytes.try_into().expect("32 bytes"));
            assert_eq!(leading_zero_bits(&state), digest.leading_zero_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The open-word search returns the reference's nonce, or panics as
        /// it does, from any start: near `u32::MAX` the last pass holds one
        /// nonce, or none is left.
        #[test]
        fn solve_midstate_equals_the_reference_from_any_start(
            prefix in proptest::collection::vec(any::<u8>(), 0..201),
            bits in 0u8..=10,
            start in any::<u32>(),
            near_the_end in 0u32..4,
        ) {
            let mid = midstate(&prefix);
            // One case in four starts within 2^10 of the end of the space.
            let start = if near_the_end == 0 { u32::MAX - (start & 0x3ff) } else { start };
            prop_assert_eq!(
                outcome(|| solve_midstate(&mid, bits, start)),
                outcome(|| solve_streaming(&mid, bits, start)),
                "len {} bits {} start {}", prefix.len(), bits, start
            );
        }
    }

    #[test]
    fn zero_difficulty_accepts_first_nonce() {
        assert_eq!(solve(b"x", 0, 17), 17);
    }

    #[test]
    fn solution_satisfies_check() {
        for d in [1u8, 4, 8, 10] {
            let nonce = solve(b"prefix", d, 0);
            assert!(check(&puzzle_digest(b"prefix", nonce), d));
        }
    }

    #[test]
    fn solution_is_minimal_from_start() {
        let d = 6u8;
        let nonce = solve(b"minimality", d, 0);
        for n in 0..nonce {
            assert!(!check(&puzzle_digest(b"minimality", n), d));
        }
    }

    #[test]
    fn harder_difficulty_needs_no_fewer_attempts() {
        let easy = solve(b"same prefix", 2, 0);
        let hard = solve(b"same prefix", 10, 0);
        assert!(attempts_used(0, hard) >= attempts_used(0, easy));
    }

    #[test]
    fn different_prefixes_different_solutions() {
        // Not guaranteed in general, but with 12-bit difficulty the chance of
        // collision across these prefixes is negligible and the test pins the
        // implementation's determinism either way.
        let a = solve(b"prefix-a", 8, 0);
        let b = solve(b"prefix-a", 8, 0);
        assert_eq!(a, b, "solve must be deterministic");
    }

    #[test]
    fn expected_attempts_doubles_per_bit() {
        assert_eq!(expected_attempts(0), 1);
        assert_eq!(expected_attempts(8), 256);
        assert_eq!(expected_attempts(9), 512);
    }

    #[test]
    fn check_respects_boundary() {
        let mut bytes = [0xffu8; 32];
        bytes[0] = 0x0f; // exactly 4 leading zero bits
        let d = Digest::from_bytes(bytes);
        assert!(check(&d, 4));
        assert!(!check(&d, 5));
    }
}
