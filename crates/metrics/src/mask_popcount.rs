//! Popcount of the AND of two gram-presence masks: the inner operation
//! of [`QGramScratch::mask_bound`](crate::QGramScratch::mask_bound), and
//! of the batched [`QGramScratch::screen`](crate::QGramScratch::screen).
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
//!
//! The batched screen settles a whole candidate list in one
//! `#[target_feature]` call, with the loaded mask held in registers. Its
//! kernels ([`ScreenKernel`]) are the scalar count, the AVX2 nibble table
//! (the four vectors' byte counts are summed before one `vpsadbw`: at most
//! 32 per byte) and, inside the AVX2 tier on a CPU with AVX-512 VPOPCNTDQ,
//! two 512-bit ANDs counted by `vpopcntq`. Each returns the same integer
//! per row, so each gives every candidate the same verdict.

#![deny(unsafe_op_in_unsafe_fn)]

use crate::qgram::{QGramScratch, ScreenArena, MASK_WORDS};

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

/// A kernel of the batched screen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// Off x86-64 only the tests name the SIMD kernels (which never run there).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) enum ScreenKernel {
    /// `u64::count_ones`: every target, and `DNASIM_SIMD=off`.
    Scalar,
    /// The AVX2 nibble-table popcount.
    Avx2,
    /// AVX-512 VPOPCNTDQ, a sub-dispatch of the AVX2 tier.
    Avx512,
}

impl ScreenKernel {
    /// The kernel the active SIMD tier selects: the AVX2 tier takes
    /// VPOPCNTDQ where the CPU has it.
    pub(crate) fn active() -> ScreenKernel {
        #[cfg(target_arch = "x86_64")]
        if crate::bank::active_tier() == crate::bank::TIER_AVX2 {
            if ScreenKernel::Avx512.supported() {
                return ScreenKernel::Avx512;
            }
            return ScreenKernel::Avx2;
        }
        ScreenKernel::Scalar
    }

    /// Whether this CPU can run the kernel.
    pub(crate) fn supported(self) -> bool {
        match self {
            ScreenKernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            ScreenKernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            ScreenKernel::Avx512 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// [`QGramScratch::screen`] on `kernel`, or on the scalar kernel when
/// this CPU cannot run `kernel`.
pub(crate) fn screen_on(
    kernel: ScreenKernel,
    scratch: &QGramScratch,
    arena: &ScreenArena,
    candidates: &[usize],
    limit: usize,
    survivors: &mut Vec<usize>,
) -> usize {
    match kernel {
        // SAFETY: `supported` checked AVX2, AVX-512F and VPOPCNTDQ.
        #[cfg(target_arch = "x86_64")]
        ScreenKernel::Avx512 if kernel.supported() => {
            return unsafe { screen_avx512(scratch, arena, candidates, limit, survivors) }
        }
        // SAFETY: `supported` checked AVX2.
        #[cfg(target_arch = "x86_64")]
        ScreenKernel::Avx2 if kernel.supported() => {
            return unsafe { screen_avx2(scratch, arena, candidates, limit, survivors) }
        }
        _ => {}
    }
    let loaded = scratch.loaded_mask();
    scratch.screen_rows(arena, candidates, limit, survivors, |row| {
        and_popcount_scalar(loaded, row)
    })
}

/// The batched screen with the AVX2 nibble-table popcount.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn screen_avx2(
    scratch: &QGramScratch,
    arena: &ScreenArena,
    candidates: &[usize],
    limit: usize,
    survivors: &mut Vec<usize>,
) -> usize {
    use core::arch::x86_64::*;

    let table = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_nibble = _mm256_set1_epi8(0x0f);
    let loaded = scratch.loaded_mask();
    // SAFETY: `4v + 4 ≤ MASK_WORDS` for `v < 4`, so each unaligned 32-byte
    // load reads words `4v..4v + 4` of the loaded mask.
    let l: [__m256i; 4] =
        std::array::from_fn(|v| unsafe { _mm256_loadu_si256(loaded.as_ptr().add(4 * v).cast()) });
    scratch.screen_rows(arena, candidates, limit, survivors, |row| {
        // Byte counts of the four vectors, summed: at most 4 · 8 = 32.
        let mut bytes = _mm256_setzero_si256();
        for (v, &lv) in l.iter().enumerate() {
            // SAFETY: as for `l`, on the row's words.
            let x = unsafe { _mm256_loadu_si256(row.as_ptr().add(4 * v).cast()) };
            let x = _mm256_and_si256(x, lv);
            let lo = _mm256_and_si256(x, low_nibble);
            let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(x), low_nibble);
            bytes = _mm256_add_epi8(bytes, _mm256_shuffle_epi8(table, lo));
            bytes = _mm256_add_epi8(bytes, _mm256_shuffle_epi8(table, hi));
        }
        let sums = _mm256_sad_epu8(bytes, _mm256_setzero_si256());
        let pair = _mm_add_epi64(
            _mm256_castsi256_si128(sums),
            _mm256_extracti128_si256::<1>(sums),
        );
        (_mm_cvtsi128_si64(pair) + _mm_extract_epi64::<1>(pair)) as usize
    })
}

/// The batched screen with AVX-512 VPOPCNTDQ: two 512-bit ANDs per row,
/// each counted per 64-bit lane by `vpopcntq`.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2, AVX-512F and
/// AVX-512 VPOPCNTDQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512vpopcntdq")]
unsafe fn screen_avx512(
    scratch: &QGramScratch,
    arena: &ScreenArena,
    candidates: &[usize],
    limit: usize,
    survivors: &mut Vec<usize>,
) -> usize {
    use core::arch::x86_64::*;

    let loaded = scratch.loaded_mask();
    // SAFETY: a mask is 16 words, so the two unaligned 64-byte loads read
    // words 0..8 and 8..16.
    let (lo, hi) = unsafe {
        (
            _mm512_loadu_si512(loaded.as_ptr().cast()),
            _mm512_loadu_si512(loaded.as_ptr().add(8).cast()),
        )
    };
    scratch.screen_rows(arena, candidates, limit, survivors, |row| {
        // SAFETY: as for `lo` and `hi`, on the row's words.
        let (a, b) = unsafe {
            (
                _mm512_loadu_si512(row.as_ptr().cast()),
                _mm512_loadu_si512(row.as_ptr().add(8).cast()),
            )
        };
        let a = _mm512_popcnt_epi64(_mm512_and_si512(a, lo));
        let b = _mm512_popcnt_epi64(_mm512_and_si512(b, hi));
        _mm512_reduce_add_epi64(_mm512_add_epi64(a, b)) as usize
    })
}

#[cfg(test)]
mod differential;
