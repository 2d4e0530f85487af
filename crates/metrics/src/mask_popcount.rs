//! Popcount of the AND of two gram-presence masks, the inner operation of
//! [`QGramScratch::mask_bound`](crate::QGramScratch::mask_bound).
//!
//! The workspace builds for baseline x86-64, which has no `popcnt`
//! instruction, so `u64::count_ones` compiles to a shift-and-mask (SWAR)
//! sequence: 16 of them per [`MASK_BITS`](crate::qgram::MASK_BITS)-bit
//! mask. On the AVX2 tier the whole 1024-bit AND instead takes four
//! 256-bit ANDs, each counted with the nibble-table popcount: `vpshufb`
//! looks up the bit count of every low and every high nibble in a 16-entry
//! table, the two byte counts are added, and `vpsadbw` against zero sums
//! each 8-byte group into a 64-bit lane. Every byte count is at most 8 and
//! every lane sum at most 256, so nothing overflows: the result is the same
//! integer `count_ones` gives. The dispatch follows the multi-pattern
//! tier's runtime choice (`DNASIM_SIMD`, `--simd`, feature detection), and
//! `tests/qgram_screen.rs` pins the dispatched count to the scalar one.

#![deny(unsafe_op_in_unsafe_fn)]

use crate::qgram::MASK_WORDS;

/// The AVX2 count reads four words per vector.
const _: () = assert!(MASK_WORDS.is_multiple_of(4));

/// `popcount(a & b)` over whole masks, on the active SIMD tier.
#[inline]
pub(crate) fn and_popcount(a: &[u64; MASK_WORDS], b: &[u64; MASK_WORDS]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if crate::bank::active_tier() == crate::bank::TIER_AVX2 {
        // SAFETY: the AVX2 tier is only ever selected after
        // `is_x86_feature_detected!("avx2")` returned true, so the
        // target-feature contract of `and_popcount_avx2` holds.
        return unsafe { and_popcount_avx2(a, b) };
    }
    and_popcount_scalar(a, b)
}

/// `popcount(a & b)` with `u64::count_ones`, the reference the SIMD count
/// must equal.
#[inline]
pub(crate) fn and_popcount_scalar(a: &[u64; MASK_WORDS], b: &[u64; MASK_WORDS]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// AVX2 nibble-table popcount of `a & b`, four words per vector.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn and_popcount_avx2(a: &[u64; MASK_WORDS], b: &[u64; MASK_WORDS]) -> usize {
    use core::arch::x86_64::*;

    // Bit count of each 4-bit value, repeated in both 128-bit halves
    // (`vpshufb` looks up within each half).
    let table = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_nibble = _mm256_set1_epi8(0x0f);
    let mut sums = _mm256_setzero_si256();
    for k in (0..MASK_WORDS).step_by(4) {
        // SAFETY: `k + 4 ≤ MASK_WORDS`, a multiple of 4, so both
        // unaligned 32-byte loads read words `k..k + 4` of their array.
        let (x, y) = unsafe {
            (
                _mm256_loadu_si256(a.as_ptr().add(k).cast()),
                _mm256_loadu_si256(b.as_ptr().add(k).cast()),
            )
        };
        let v = _mm256_and_si256(x, y);
        let lo = _mm256_and_si256(v, low_nibble);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_nibble);
        let bytes = _mm256_add_epi8(
            _mm256_shuffle_epi8(table, lo),
            _mm256_shuffle_epi8(table, hi),
        );
        sums = _mm256_add_epi64(sums, _mm256_sad_epu8(bytes, _mm256_setzero_si256()));
    }
    let mut lanes = [0u64; 4];
    // SAFETY: `lanes` is exactly 32 bytes, the width of one unaligned
    // store.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), sums) };
    lanes.iter().sum::<u64>() as usize
}
