//! The SHA-NI compressor: SHA-256 on the x86_64 SHA extensions
//! (`sha256rnds2`, `sha256msg1`, `sha256msg2`), bit-identical to the portable
//! compressor in the parent module.
//!
//! This module holds the only `unsafe` code in the workspace (`scripts/verify.sh`
//! fails on any other). Every `unsafe` block states why it is sound.

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

use super::K;

/// True when this CPU has every instruction set `compress_blocks` enables.
fn detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse4.1")
        && is_x86_feature_detected!("ssse3")
}

/// Compress `blocks` (a whole number of 64-byte blocks) into `state` on
/// the SHA extensions. Returns `false`, leaving `state` untouched, when
/// the CPU lacks them.
pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    debug_assert_eq!(blocks.len() % 64, 0);
    if !detected() {
        return false;
    }
    // SAFETY: `detected()` has just confirmed that the CPU supports the
    // `sha`, `sse4.1` and `ssse3` features `compress_blocks` is compiled
    // for (`sse2` is part of the x86_64 baseline).
    unsafe { compress_blocks(state, blocks) };
    true
}

/// Four rounds: `wk` holds `W[t..t+4] + K[t..t+4]`, lowest lane first.
/// Each `sha256rnds2` does two rounds and takes its words from the low
/// 64 bits of its third operand.
#[inline]
#[target_feature(enable = "sha,sse2")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, wk: __m128i) {
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

/// The next four schedule words `W[t..t+4]` from the previous sixteen,
/// held four to a register, oldest first.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let w7 = _mm_alignr_epi8(w3, w2, 4); // W[t-7..t-3]
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), w7);
    _mm_sha256msg2_epu32(t, w3)
}

/// `W[t..t+4] + K[t..t+4]`.
#[inline]
#[target_feature(enable = "sse2")]
fn add_k(w: __m128i, t: usize) -> __m128i {
    let k: &[u32; 4] = K[t..t + 4].try_into().expect("4 round constants");
    // SAFETY: `k` is 16 readable bytes; the load is unaligned.
    _mm_add_epi32(w, unsafe { _mm_loadu_si128(k.as_ptr().cast()) })
}

/// # Safety
///
/// The CPU must support `sha`, `sse4.1` and `ssse3`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // Reverses the bytes of each 32-bit lane (big-endian message words).
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // The rounds instruction keeps the state as (a, b, e, f) and
    // (c, d, g, h), highest lane first.
    // SAFETY: `state` is 32 bytes, two unaligned 16-byte loads.
    let (dcba, hgfe) = unsafe {
        let p = state.as_ptr().cast::<__m128i>();
        (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
    };
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // SAFETY: `block` is 64 bytes, four unaligned 16-byte loads.
        let [mut w0, mut w1, mut w2, mut w3] = unsafe {
            let p = block.as_ptr().cast::<__m128i>();
            [0, 1, 2, 3].map(|i| _mm_shuffle_epi8(_mm_loadu_si128(p.add(i)), bswap))
        };
        rounds4(&mut abef, &mut cdgh, add_k(w0, 0));
        rounds4(&mut abef, &mut cdgh, add_k(w1, 4));
        rounds4(&mut abef, &mut cdgh, add_k(w2, 8));
        rounds4(&mut abef, &mut cdgh, add_k(w3, 12));
        // Rounds 16..64: each step overwrites the oldest four words with
        // the next four.
        for t in [16, 32, 48] {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, add_k(w0, t));
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, add_k(w1, t + 4));
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, add_k(w2, t + 8));
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, add_k(w3, t + 12));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: as for the loads above.
    unsafe {
        let p = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(p, dcba);
        _mm_storeu_si128(p.add(1), hgef);
    }
}
