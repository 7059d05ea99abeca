//! The SHA-NI compression kernels (x86-64 SHA extensions).
//!
//! This leaf module is the crate's one exception to the root
//! `deny`: the kernels are compiled for CPU features the build target does
//! not promise, so calling one is only sound after the running CPU has
//! reported them. [`try_compress_blocks`] and [`try_finish_pair`] make that
//! check and are the module's whole interface; the kernels themselves use
//! value intrinsics only (words go in through `_mm_set_epi32` and
//! `_mm_insert_epi32`, come out through `_mm_extract_epi32`), so they hold
//! no pointer arithmetic to get wrong.

#![allow(unsafe_code)]

use crate::sha256::K;
use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_insert_epi32, _mm_set_epi32,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
};

/// Whether the running CPU reports every feature the kernels are compiled
/// for (`sse2` is part of the x86-64 baseline and needs no check).
pub(crate) fn supported() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Compresses `blocks` into `state` with the SHA-NI kernel when the CPU
/// supports it; returns whether it did.
pub(crate) fn try_compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
    if !supported() {
        return false;
    }
    // SAFETY: `kernel` needs `sha`, `ssse3` and `sse4.1`, which `supported()`
    // has just seen the running CPU report, and `sse2`, which every CPU of
    // the one target this module is compiled for has.
    unsafe { kernel(state, blocks) };
    true
}

/// Finishes two messages that differ in one word, in one pass: compresses
/// `blocks` (one or two big-endian word blocks) from `state` twice, with
/// word `at` of the first block set to `words[0]` and then to `words[1]`,
/// and returns both final states. `None` when the CPU lacks the features.
pub(crate) fn try_finish_pair(
    state: &[u32; 8],
    blocks: &[[u32; 16]],
    at: usize,
    words: [u32; 2],
) -> Option<[[u32; 8]; 2]> {
    if !supported() {
        return None;
    }
    let reg = at / 4;
    // SAFETY: as in `try_compress_blocks`: `supported()` has just seen the
    // running CPU report every feature `pair_kernel` is compiled for.
    Some(unsafe {
        match at % 4 {
            0 => pair_kernel::<0>(state, blocks, reg, words),
            1 => pair_kernel::<1>(state, blocks, reg, words),
            2 => pair_kernel::<2>(state, blocks, reg, words),
            _ => pair_kernel::<3>(state, blocks, reg, words),
        }
    })
}

/// Four words as one register, listed high lane to low lane.
#[target_feature(enable = "sse2")]
fn lanes(v: [u32; 4]) -> __m128i {
    _mm_set_epi32(v[0] as i32, v[1] as i32, v[2] as i32, v[3] as i32)
}

/// A hash state as `sha256rnds2` keeps it: the working variables
/// (a, b, e, f) and (c, d, g, h), each listed high lane to low lane.
type State = (__m128i, __m128i);

/// A message block as four registers: `w[i]` holds words 4i..4i+4, word
/// 4i in the lowest lane. In the rounds it is the schedule's sliding
/// window: the oldest four words first.
type Message = [__m128i; 4];

#[target_feature(enable = "sse2")]
fn load_state(state: &[u32; 8]) -> State {
    let [a, b, c, d, e, f, g, h] = *state;
    (lanes([a, b, e, f]), lanes([c, d, g, h]))
}

#[target_feature(enable = "sse2,sse4.1")]
fn store_state((abef, cdgh): State) -> [u32; 8] {
    [
        _mm_extract_epi32::<3>(abef) as u32,
        _mm_extract_epi32::<2>(abef) as u32,
        _mm_extract_epi32::<3>(cdgh) as u32,
        _mm_extract_epi32::<2>(cdgh) as u32,
        _mm_extract_epi32::<1>(abef) as u32,
        _mm_extract_epi32::<0>(abef) as u32,
        _mm_extract_epi32::<1>(cdgh) as u32,
        _mm_extract_epi32::<0>(cdgh) as u32,
    ]
}

#[target_feature(enable = "sse2")]
fn message(words: &[u32; 16]) -> Message {
    let w = |i: usize| {
        lanes([
            words[4 * i + 3],
            words[4 * i + 2],
            words[4 * i + 1],
            words[4 * i],
        ])
    };
    [w(0), w(1), w(2), w(3)]
}

/// Folds one message block per lane into that lane's state: `N`
/// independent compressions, interleaved round by round so that their
/// latency chains overlap.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_lanes<const N: usize>(states: &mut [State; N], mut w: [Message; N]) {
    let start = *states;
    for i in 0..16 {
        let k = lanes([K[4 * i + 3], K[4 * i + 2], K[4 * i + 1], K[4 * i]]);
        for (w, (abef, cdgh)) in w.iter_mut().zip(states.iter_mut()) {
            let wk = _mm_add_epi32(w[0], k);
            // Two rounds from the low half of w + k, two from the high half.
            *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
            *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
            // The window slides by four words; while the schedule lasts,
            // words 4i+16..4i+20 enter it.
            let [w0, w1, w2, w3] = *w;
            let next = if i < 12 {
                let partial =
                    _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
                _mm_sha256msg2_epu32(partial, w3)
            } else {
                w0
            };
            *w = [w1, w2, w3, next];
        }
    }
    for ((abef, cdgh), (abef_in, cdgh_in)) in states.iter_mut().zip(start) {
        *abef = _mm_add_epi32(*abef, abef_in);
        *cdgh = _mm_add_epi32(*cdgh, cdgh_in);
    }
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn kernel(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let mut lane = [load_state(state)];
    for block in blocks {
        let word = |j: usize| {
            u32::from_be_bytes([
                block[4 * j],
                block[4 * j + 1],
                block[4 * j + 2],
                block[4 * j + 3],
            ])
        };
        compress_lanes(&mut lane, [message(&std::array::from_fn(word))]);
    }
    *state = store_state(lane[0]);
}

/// `w` with lane `LANE` of register `reg` set to `word`, register to
/// register. The lane is a constant so that the compiler cannot merge the
/// inserts into one indexed store through the stack, which a full-width
/// load would then wait on.
#[target_feature(enable = "sse2,sse4.1")]
fn with_word<const LANE: i32>(w: Message, reg: usize, word: u32) -> Message {
    let insert = |v| _mm_insert_epi32::<LANE>(v, word as i32);
    let [w0, w1, w2, w3] = w;
    match reg {
        0 => [insert(w0), w1, w2, w3],
        1 => [w0, insert(w1), w2, w3],
        2 => [w0, w1, insert(w2), w3],
        _ => [w0, w1, w2, insert(w3)],
    }
}

/// `try_finish_pair`'s kernel for an open word in lane `LANE` of
/// register `reg`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn pair_kernel<const LANE: i32>(
    state: &[u32; 8],
    blocks: &[[u32; 16]],
    reg: usize,
    words: [u32; 2],
) -> [[u32; 8]; 2] {
    let start = load_state(state);
    let mut pair = [start, start];
    let (first, rest) = blocks
        .split_first()
        .expect("at least the block holding the word");
    let first = message(first);
    compress_lanes(
        &mut pair,
        [
            with_word::<LANE>(first, reg, words[0]),
            with_word::<LANE>(first, reg, words[1]),
        ],
    );
    for block in rest {
        let w = message(block);
        compress_lanes(&mut pair, [w, w]);
    }
    [store_state(pair[0]), store_state(pair[1])]
}
