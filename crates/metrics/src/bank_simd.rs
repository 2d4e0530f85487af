//! SIMD backends for the multi-pattern bank kernel.
//!
//! Both backends execute the exact per-lane recurrence of
//! [`bank`](crate::bank)'s scalar engine — the Myers addition never
//! carries across 64-bit lanes, so `_mm256_add_epi64` / `vaddq_u64`
//! vectorise it directly. AVX2 advances four pattern lanes per
//! `__m256i` (two vectors cover an 8-lane bank); NEON advances two per
//! `uint64x2_t`. The only per-lane-divergent operation — extracting the
//! score bit at `(len − 1) & 63` — uses the variable-shift forms
//! (`_mm256_srlv_epi64`, `vshlq_u64` with negative counts).
//!
//! AVX2 also runs the one-word diagonal band of
//! [`band_scalar`](crate::bank::band_scalar): every lane shares the
//! window's shift, and the abandon test counts bits per 64-bit lane with
//! nibble-table lookups summed by `vpsadbw`.
//!
//! Callers must guarantee the matching CPU feature before entering
//! (`is_x86_feature_detected!("avx2")` / `is_aarch64_feature_detected!
//! ("neon")`); the dispatcher in [`bank`](crate::bank) caches that probe.
//! All raw-pointer accesses here stay inside buffers sized `words × pad`
//! (`(words + 1) × pad` for the band's plane reads, or the fixed
//! `MAX_LANES` arrays), with `pad` a multiple of the vector
//! width — each load/store carries its own SAFETY note.

#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use dnasim_core::PackedStrand;

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use crate::bank::{BankScratch, PatternBank, MAX_LANES};

/// AVX2 bank engine: four 64-bit pattern lanes per `__m256i`.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2 (the dispatcher only
/// selects this after `is_x86_feature_detected!("avx2")` succeeds).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn run_avx2(
    bank: &PatternBank,
    scratch: &mut BankScratch,
    text: &PackedStrand,
    eff_limit: i64,
    scores: &mut [i64; MAX_LANES],
    alive: &mut u32,
) {
    use core::arch::x86_64::*;

    let (words, pad) = (bank.words, bank.pad);
    // `pad` is 4 or 8, so one or two vectors span every lane.
    let nv = pad / 4;
    scratch.reset(words * pad);
    let n = text.len();
    let last = words - 1;

    let ones = _mm256_set1_epi64x(-1);
    let one = _mm256_set1_epi64x(1);

    let mut init = [0i64; MAX_LANES];
    for (slot, &len) in init.iter_mut().zip(bank.lens.iter()).take(bank.lanes) {
        *slot = len as i64;
    }
    let mut score_v = [_mm256_setzero_si256(); 2];
    let mut shift_v = [_mm256_setzero_si256(); 2];
    for v in 0..nv {
        // SAFETY: `init` and `bank.shifts` both hold MAX_LANES (8)
        // elements and v·4 + 4 ≤ pad ≤ 8; unaligned loads are permitted.
        unsafe {
            score_v[v] = _mm256_loadu_si256(init.as_ptr().add(v * 4).cast());
            shift_v[v] = _mm256_loadu_si256(bank.shifts.as_ptr().add(v * 4).cast());
        }
    }

    for (j, c) in text.codes().enumerate() {
        let plane = &bank.eq[(c & 3) as usize];
        let mut hp = [one; 2];
        let mut hn = [_mm256_setzero_si256(); 2];
        for w in 0..words {
            let base = w * pad;
            for v in 0..nv {
                let idx = base + v * 4;
                // SAFETY: `scratch.pv`/`scratch.mv` were reset to
                // words·pad elements and `plane` holds words·pad
                // elements; idx + 4 = w·pad + v·4 + 4 ≤ words·pad.
                let (pv, mv, eq0) = unsafe {
                    (
                        _mm256_loadu_si256(scratch.pv.as_ptr().add(idx).cast()),
                        _mm256_loadu_si256(scratch.mv.as_ptr().add(idx).cast()),
                        _mm256_loadu_si256(plane.as_ptr().add(idx).cast()),
                    )
                };
                let xv = _mm256_or_si256(eq0, mv);
                let eq = _mm256_or_si256(eq0, hn[v]);
                let xh = _mm256_or_si256(
                    _mm256_xor_si256(_mm256_add_epi64(_mm256_and_si256(eq, pv), pv), pv),
                    eq,
                );
                let ph = _mm256_or_si256(mv, _mm256_andnot_si256(_mm256_or_si256(xh, pv), ones));
                let mh = _mm256_and_si256(pv, xh);
                if w == last {
                    let delta = _mm256_sub_epi64(
                        _mm256_and_si256(_mm256_srlv_epi64(ph, shift_v[v]), one),
                        _mm256_and_si256(_mm256_srlv_epi64(mh, shift_v[v]), one),
                    );
                    score_v[v] = _mm256_add_epi64(score_v[v], delta);
                }
                let hout_p = _mm256_srli_epi64(ph, 63);
                let hout_n = _mm256_srli_epi64(mh, 63);
                let ph = _mm256_or_si256(_mm256_slli_epi64(ph, 1), hp[v]);
                let mh = _mm256_or_si256(_mm256_slli_epi64(mh, 1), hn[v]);
                let new_pv =
                    _mm256_or_si256(mh, _mm256_andnot_si256(_mm256_or_si256(xv, ph), ones));
                let new_mv = _mm256_and_si256(ph, xv);
                // SAFETY: same in-bounds argument as the loads above.
                unsafe {
                    _mm256_storeu_si256(scratch.pv.as_mut_ptr().add(idx).cast(), new_pv);
                    _mm256_storeu_si256(scratch.mv.as_mut_ptr().add(idx).cast(), new_mv);
                }
                hp[v] = hout_p;
                hn[v] = hout_n;
            }
        }
        // Early abandon: the bottom-row score moves by at most one per
        // column, so score − remaining > limit is unrecoverable.
        let remaining = (n - j - 1) as i64;
        let thresh = _mm256_set1_epi64x(eff_limit + remaining);
        for (v, &sv) in score_v.iter().enumerate().take(nv) {
            let dead = _mm256_cmpgt_epi64(sv, thresh);
            let mask = _mm256_movemask_pd(_mm256_castsi256_pd(dead)) as u32;
            *alive &= !(mask << (v * 4));
        }
        if *alive == 0 {
            break;
        }
    }

    let mut buf = [0i64; MAX_LANES];
    for (v, &sv) in score_v.iter().enumerate().take(nv) {
        // SAFETY: `buf` holds MAX_LANES (8) elements; v·4 + 4 ≤ pad ≤ 8.
        unsafe { _mm256_storeu_si256(buf.as_mut_ptr().add(v * 4).cast(), sv) };
    }
    scores[..bank.lanes].copy_from_slice(&buf[..bank.lanes]);
}

/// AVX2 band engine: the one-word band of
/// [`band_scalar`](crate::bank::band_scalar), four pattern lanes per
/// `__m256i`. The window's top row depends on the column only, so one
/// shift count serves every lane.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2 (the dispatcher only
/// selects this after `is_x86_feature_detected!("avx2")` succeeds).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn band_avx2(
    bank: &PatternBank,
    text: &PackedStrand,
    limit: usize,
    scores: &mut [i64; MAX_LANES],
    alive: &mut u32,
) {
    use core::arch::x86_64::*;

    use crate::bank::{band_finish, band_probe};
    use crate::myers::{band_top, BAND_PROBE};

    let pad = bank.pad;
    // `pad` is 4 or 8, so one or two vectors span every lane.
    let nv = pad / 4;
    let n = text.len();
    if band_top(n) >> 6 >= bank.words {
        // The last window starts past every lane's last row, so no lane is
        // within BAND of the text (and the loads below would leave the
        // planes).
        *alive = 0;
        return;
    }

    let ones = _mm256_set1_epi64x(-1);
    let one = _mm256_set1_epi64x(1);
    let bottom = _mm256_set1_epi64x(i64::MIN);
    let nibble = _mm256_set1_epi8(0x0f);
    #[rustfmt::skip]
    let table = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    // Per-64-bit-lane popcount: nibble table lookups, summed by `vpsadbw`.
    let popcount = |x: __m256i| {
        let lo = _mm256_and_si256(x, nibble);
        let hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), nibble);
        let bytes = _mm256_add_epi8(
            _mm256_shuffle_epi8(table, lo),
            _mm256_shuffle_epi8(table, hi),
        );
        _mm256_sad_epu8(bytes, _mm256_setzero_si256())
    };

    let mut pv = [ones; 2];
    let mut mv = [_mm256_setzero_si256(); 2];
    // D(a_j, j) of every lane's top row; column 0's is D(1, 0) = 1.
    let mut top = [one; 2];
    for (c, j) in text.codes().zip(1usize..) {
        let plane = &bank.eq[(c & 3) as usize];
        let r = band_top(j);
        let (w, s) = (r >> 6, r & 63);
        let (lo_count, hi_count) = (
            _mm_cvtsi64_si128(s as i64),
            _mm_cvtsi64_si128(63 - s as i64),
        );
        for v in 0..nv {
            if r > 0 {
                pv[v] = _mm256_or_si256(_mm256_srli_epi64(pv[v], 1), bottom);
                mv[v] = _mm256_srli_epi64(mv[v], 1);
                let delta =
                    _mm256_sub_epi64(_mm256_and_si256(pv[v], one), _mm256_and_si256(mv[v], one));
                top[v] = _mm256_add_epi64(top[v], delta);
            }
            let idx = w * pad + v * 4;
            // SAFETY: each plane holds (words + 1)·pad elements, and
            // w ≤ band_top(n) >> 6 < words by the check above, so
            // idx + pad + 4 = (w + 1)·pad + v·4 + 4 ≤ (words + 1)·pad.
            let (lo, hi) = unsafe {
                (
                    _mm256_loadu_si256(plane.as_ptr().add(idx).cast()),
                    _mm256_loadu_si256(plane.as_ptr().add(idx + pad).cast()),
                )
            };
            let eq = _mm256_or_si256(
                _mm256_srl_epi64(lo, lo_count),
                _mm256_sll_epi64(_mm256_slli_epi64(hi, 1), hi_count),
            );
            let xv = _mm256_or_si256(eq, mv[v]);
            let xh = _mm256_or_si256(
                _mm256_xor_si256(_mm256_add_epi64(_mm256_and_si256(eq, pv[v]), pv[v]), pv[v]),
                eq,
            );
            let ph = _mm256_or_si256(mv[v], _mm256_andnot_si256(_mm256_or_si256(xh, pv[v]), ones));
            let mh = _mm256_and_si256(pv[v], xh);
            let delta = _mm256_sub_epi64(_mm256_and_si256(ph, one), _mm256_and_si256(mh, one));
            top[v] = _mm256_add_epi64(top[v], delta);
            // The row above the window enters with a horizontal +1.
            let ph = _mm256_or_si256(_mm256_slli_epi64(ph, 1), one);
            let mh = _mm256_slli_epi64(mh, 1);
            pv[v] = _mm256_or_si256(mh, _mm256_andnot_si256(_mm256_or_si256(xv, ph), ones));
            mv[v] = _mm256_and_si256(ph, xv);
        }
        if j % BAND_PROBE == 0 {
            let (masks, limits) = band_probe(bank, j, n, limit, *alive);
            for v in 0..nv {
                // SAFETY: `masks` and `limits` hold MAX_LANES (8)
                // elements and v·4 + 4 ≤ pad ≤ 8.
                let (mask, lim) = unsafe {
                    (
                        _mm256_loadu_si256(masks.as_ptr().add(v * 4).cast()),
                        _mm256_loadu_si256(limits.as_ptr().add(v * 4).cast()),
                    )
                };
                let d = _mm256_add_epi64(
                    top[v],
                    _mm256_sub_epi64(
                        popcount(_mm256_and_si256(pv[v], mask)),
                        popcount(_mm256_and_si256(mv[v], mask)),
                    ),
                );
                let dead = _mm256_cmpgt_epi64(d, lim);
                let out = _mm256_movemask_pd(_mm256_castsi256_pd(dead)) as u32;
                *alive &= !(out << (v * 4));
            }
            if *alive == 0 {
                return;
            }
        }
    }

    let (mut pv_out, mut mv_out, mut top_out) =
        ([0u64; MAX_LANES], [0u64; MAX_LANES], [0i64; MAX_LANES]);
    for v in 0..nv {
        // SAFETY: the three buffers hold MAX_LANES (8) elements each;
        // v·4 + 4 ≤ pad ≤ 8.
        unsafe {
            _mm256_storeu_si256(pv_out.as_mut_ptr().add(v * 4).cast(), pv[v]);
            _mm256_storeu_si256(mv_out.as_mut_ptr().add(v * 4).cast(), mv[v]);
            _mm256_storeu_si256(top_out.as_mut_ptr().add(v * 4).cast(), top[v]);
        }
    }
    band_finish(bank, n, &pv_out, &mv_out, &top_out, *alive, scores);
}

/// NEON bank engine: two 64-bit pattern lanes per `uint64x2_t`.
///
/// # Safety
///
/// The caller must ensure NEON is available (always true on aarch64
/// Linux/macOS targets; the dispatcher still probes
/// `is_aarch64_feature_detected!("neon")` first).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
pub(crate) unsafe fn run_neon(
    bank: &PatternBank,
    scratch: &mut BankScratch,
    text: &PackedStrand,
    eff_limit: i64,
    scores: &mut [i64; MAX_LANES],
    alive: &mut u32,
) {
    use core::arch::aarch64::*;

    let (words, pad) = (bank.words, bank.pad);
    // `pad` is 4 or 8, so two or four vectors span every lane.
    let nv = pad / 2;
    scratch.reset(words * pad);
    let n = text.len();
    let last = words - 1;

    let ones = vdupq_n_u64(!0u64);
    let one = vdupq_n_u64(1);

    let mut init = [0i64; MAX_LANES];
    let mut neg_shift_init = [0i64; MAX_LANES];
    for l in 0..MAX_LANES {
        if l < bank.lanes {
            init[l] = bank.lens[l] as i64;
        }
        // vshlq_u64 with a negative count shifts right by that amount.
        neg_shift_init[l] = -(bank.shifts[l] as i64);
    }
    let mut score_v = [vdupq_n_s64(0); 4];
    let mut neg_shift = [vdupq_n_s64(0); 4];
    for v in 0..nv {
        // SAFETY: `init` and `neg_shift_init` hold MAX_LANES (8)
        // elements and v·2 + 2 ≤ pad ≤ 8.
        unsafe {
            score_v[v] = vld1q_s64(init.as_ptr().add(v * 2));
            neg_shift[v] = vld1q_s64(neg_shift_init.as_ptr().add(v * 2));
        }
    }

    for (j, c) in text.codes().enumerate() {
        let plane = &bank.eq[(c & 3) as usize];
        let mut hp = [one; 4];
        let mut hn = [vdupq_n_u64(0); 4];
        for w in 0..words {
            let base = w * pad;
            for v in 0..nv {
                let idx = base + v * 2;
                // SAFETY: `scratch.pv`/`scratch.mv` were reset to
                // words·pad elements and `plane` holds words·pad
                // elements; idx + 2 = w·pad + v·2 + 2 ≤ words·pad.
                let (pv, mv, eq0) = unsafe {
                    (
                        vld1q_u64(scratch.pv.as_ptr().add(idx)),
                        vld1q_u64(scratch.mv.as_ptr().add(idx)),
                        vld1q_u64(plane.as_ptr().add(idx)),
                    )
                };
                let xv = vorrq_u64(eq0, mv);
                let eq = vorrq_u64(eq0, hn[v]);
                let xh = vorrq_u64(veorq_u64(vaddq_u64(vandq_u64(eq, pv), pv), pv), eq);
                // vbicq_u64(a, b) = a & !b, so ones-bic gives bitwise NOT.
                let ph = vorrq_u64(mv, vbicq_u64(ones, vorrq_u64(xh, pv)));
                let mh = vandq_u64(pv, xh);
                if w == last {
                    let pd = vandq_u64(vshlq_u64(ph, neg_shift[v]), one);
                    let md = vandq_u64(vshlq_u64(mh, neg_shift[v]), one);
                    score_v[v] = vaddq_s64(
                        score_v[v],
                        vsubq_s64(vreinterpretq_s64_u64(pd), vreinterpretq_s64_u64(md)),
                    );
                }
                let hout_p = vshrq_n_u64(ph, 63);
                let hout_n = vshrq_n_u64(mh, 63);
                let ph = vorrq_u64(vshlq_n_u64(ph, 1), hp[v]);
                let mh = vorrq_u64(vshlq_n_u64(mh, 1), hn[v]);
                let new_pv = vorrq_u64(mh, vbicq_u64(ones, vorrq_u64(xv, ph)));
                let new_mv = vandq_u64(ph, xv);
                // SAFETY: same in-bounds argument as the loads above.
                unsafe {
                    vst1q_u64(scratch.pv.as_mut_ptr().add(idx), new_pv);
                    vst1q_u64(scratch.mv.as_mut_ptr().add(idx), new_mv);
                }
                hp[v] = hout_p;
                hn[v] = hout_n;
            }
        }
        // Early abandon, as in the scalar engine.
        let remaining = (n - j - 1) as i64;
        let thresh = vdupq_n_s64(eff_limit + remaining);
        for v in 0..nv {
            let dead = vcgtq_s64(score_v[v], thresh);
            let m0 = (vgetq_lane_u64(dead, 0) & 1) as u32;
            let m1 = (vgetq_lane_u64(dead, 1) & 1) as u32;
            *alive &= !((m0 | (m1 << 1)) << (v * 2));
        }
        if *alive == 0 {
            break;
        }
    }

    let mut buf = [0i64; MAX_LANES];
    for v in 0..nv {
        // SAFETY: `buf` holds MAX_LANES (8) elements; v·2 + 2 ≤ pad ≤ 8.
        unsafe { vst1q_s64(buf.as_mut_ptr().add(v * 2), score_v[v]) };
    }
    scores[..bank.lanes].copy_from_slice(&buf[..bank.lanes]);
}
