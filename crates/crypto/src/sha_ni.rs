//! The SHA-NI compression kernel (x86-64 SHA extensions).
//!
//! This leaf module is the crate's one exception to the root
//! `deny`: the kernel is compiled for CPU features the build target does
//! not promise, so calling it is only sound after the running CPU has
//! reported them. [`try_compress_blocks`] makes that check and is the module's
//! whole interface; the kernel itself uses value intrinsics only (words go
//! in through `_mm_set_epi32`, come out through `_mm_extract_epi32`), so it
//! holds no pointer arithmetic to get wrong.

#![allow(unsafe_code)]

use crate::sha256::K;
use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
};

/// Whether the running CPU reports every feature the kernel is compiled for
/// (`sse2` is part of the x86-64 baseline and needs no check).
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

/// Four words as one register, listed high lane to low lane.
#[target_feature(enable = "sse2")]
fn lanes(v: [u32; 4]) -> __m128i {
    _mm_set_epi32(v[0] as i32, v[1] as i32, v[2] as i32, v[3] as i32)
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn kernel(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    // `sha256rnds2` keeps the working variables as two registers,
    // (a, b, e, f) and (c, d, g, h), high lane to low lane.
    let [a, b, c, d, e, f, g, h] = *state;
    let mut abef = lanes([a, b, e, f]);
    let mut cdgh = lanes([c, d, g, h]);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // w[i % 4] holds message-schedule words 4i..4i+4, word 4i lowest.
        let mut w = [lanes([0; 4]); 4];
        for i in 0..16 {
            if i < 4 {
                let word = |j: usize| {
                    let at = 16 * i + 4 * j;
                    u32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
                };
                w[i] = lanes([word(3), word(2), word(1), word(0)]);
            } else {
                let (w0, w1, w2, w3) = (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                let partial =
                    _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
                w[i % 4] = _mm_sha256msg2_epu32(partial, w3);
            }
            let k = lanes([K[4 * i + 3], K[4 * i + 2], K[4 * i + 1], K[4 * i]]);
            let wk = _mm_add_epi32(w[i % 4], k);
            // Two rounds from the low half of w + k, two from the high half.
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32::<3>(abef) as u32,
        _mm_extract_epi32::<2>(abef) as u32,
        _mm_extract_epi32::<3>(cdgh) as u32,
        _mm_extract_epi32::<2>(cdgh) as u32,
        _mm_extract_epi32::<1>(abef) as u32,
        _mm_extract_epi32::<0>(abef) as u32,
        _mm_extract_epi32::<1>(cdgh) as u32,
        _mm_extract_epi32::<0>(cdgh) as u32,
    ];
}
