//! Multi-pattern Myers tier: one text stream advances up to
//! [`MAX_LANES`] packed patterns per column.
//!
//! The single-pattern kernel in [`myers`](crate::myers) already processes
//! 64 DP cells per machine word, but cluster assignment compares one read
//! against *many* candidate representatives, paying the whole per-column
//! cost once per candidate. A [`PatternBank`] interleaves the Eq-mask
//! planes of 4–8 packed patterns struct-of-arrays style (`eq[code][word ·
//! pad + lane]`), so a single pass over the text advances every lane per
//! iteration:
//!
//! * on x86-64 with AVX2, four 64-bit lanes ride in one `__m256i` and the
//!   Myers recurrence runs on whole vectors (`_mm256_add_epi64` is
//!   per-lane, exactly the no-cross-lane-carry addition the algorithm
//!   needs);
//! * on aarch64, the NEON backend does the same two lanes per `uint64x2_t`;
//! * everywhere else — and whenever SIMD is disabled — a portable
//!   multi-lane scalar fallback executes the identical per-lane integer
//!   recurrence, so results are bit-identical on every target.
//!
//! Backend selection happens once at runtime ([`set_simd_mode`],
//! `DNASIM_SIMD=off`, or feature detection via
//! `is_x86_feature_detected!` / `is_aarch64_feature_detected!`); all
//! backends are exact, so the choice can never change an answer — the
//! differential suite (`myers_differential.rs`) pins every backend to the
//! scalar DP oracle.
//!
//! At a limit up to [`BAND`] every lane runs the one-word diagonal band
//! of [`myers`](crate::myers) instead (DESIGN.md §28): the window's top
//! row depends on the column only, so all lanes share its shift, and the
//! band needs no delta scratch at all. AVX2 has its own band engine; NEON
//! and the scalar fallback run the portable one.
//!
//! Banks require all lanes to share a word count (`ceil(len/64)`); callers
//! group candidates by [`PackedStrand::words`] and fall back to the
//! single-pattern kernel for singleton groups. Lanes may differ in exact
//! length within the shared word count: score extraction uses a per-lane
//! score bit, and in bit-parallel Myers information only flows from low
//! bits to high bits within a column, so a shorter lane's garbage rows
//! above its last row can never reach its score bit.
//!
//! # Examples
//!
//! ```
//! use dnasim_core::{PackedStrand, Strand};
//! use dnasim_metrics::bank::{bank_within_with, BankScratch, PatternBank};
//!
//! let text = PackedStrand::from(&"ACGTACGT".parse::<Strand>()?);
//! let p1 = PackedStrand::from(&"ACGTACGT".parse::<Strand>()?);
//! let p2 = PackedStrand::from(&"ACGAACGT".parse::<Strand>()?);
//! let bank = PatternBank::new(&[&p1, &p2]).expect("same word count");
//! let mut out = Vec::new();
//! bank_within_with(&mut BankScratch::new(), &bank, &text, 1, &mut out);
//! assert_eq!(out, vec![Some(0), Some(1)]);
//! # Ok::<(), dnasim_core::ParseStrandError>(())
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicU8, Ordering};

use dnasim_core::PackedStrand;

use crate::myers::{band_top, band_window, span, span_sum, step, BAND, BAND_PROBE};

/// Maximum number of patterns one bank can hold.
pub const MAX_LANES: usize = 8;

/// SIMD policy for the multi-pattern tier and the error-ball screen's
/// mask popcount ([`QGramScratch::mask_bound`](crate::QGramScratch::mask_bound)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Use the best backend the CPU supports (AVX2, NEON, or scalar).
    Auto,
    /// Force the portable multi-lane scalar fallback.
    Off,
}

const TIER_UNRESOLVED: u8 = 0;
pub(crate) const TIER_SCALAR: u8 = 1;
pub(crate) const TIER_AVX2: u8 = 2;
const TIER_NEON: u8 = 3;

/// Resolved backend, cached after the first kernel call (or an explicit
/// [`set_simd_mode`]).
static TIER: AtomicU8 = AtomicU8::new(TIER_UNRESOLVED);

fn resolve(mode: SimdMode) -> u8 {
    match mode {
        SimdMode::Off => TIER_SCALAR,
        SimdMode::Auto => {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    return TIER_AVX2;
                }
            }
            #[cfg(target_arch = "aarch64")]
            {
                if std::arch::is_aarch64_feature_detected!("neon") {
                    return TIER_NEON;
                }
            }
            TIER_SCALAR
        }
    }
}

/// Overrides the runtime backend choice (the CLI's `--simd auto|off`).
///
/// Every backend is exact, so flipping the mode mid-process can never
/// change a distance — only throughput.
pub fn set_simd_mode(mode: SimdMode) {
    TIER.store(resolve(mode), Ordering::Relaxed);
}

/// The active backend, resolving `DNASIM_SIMD` and feature detection on
/// first use. `DNASIM_SIMD=off|0|scalar` forces the fallback; any other
/// value (or unset) means auto-detect.
pub(crate) fn active_tier() -> u8 {
    let tier = TIER.load(Ordering::Relaxed);
    if tier != TIER_UNRESOLVED {
        return tier;
    }
    let mode = match std::env::var("DNASIM_SIMD") {
        Ok(v) if v == "off" || v == "0" || v == "scalar" => SimdMode::Off,
        _ => SimdMode::Auto,
    };
    let tier = resolve(mode);
    TIER.store(tier, Ordering::Relaxed);
    tier
}

/// Human-readable name of the active backend (`"avx2"`, `"neon"`, or
/// `"scalar"`), for diagnostics and CLI counter lines.
pub fn simd_tier_name() -> &'static str {
    match active_tier() {
        TIER_AVX2 => "avx2",
        TIER_NEON => "neon",
        _ => "scalar",
    }
}

/// A struct-of-arrays bank of up to [`MAX_LANES`] packed patterns sharing
/// one word count.
///
/// Lane `l` of word `w` for base code `c` lives at `eq[c][w · pad + l]`,
/// where `pad` rounds the lane count up to the backend vector width (4 for
/// ≤4 lanes, 8 otherwise). Padding lanes carry zero Eq-masks and are never
/// reported.
#[derive(Debug, Clone)]
pub struct PatternBank {
    pub(crate) lanes: usize,
    pub(crate) pad: usize,
    pub(crate) words: usize,
    pub(crate) lens: [usize; MAX_LANES],
    /// Per-lane score-bit shift: `(len − 1) & 63` (0 for padding lanes).
    pub(crate) shifts: [u64; MAX_LANES],
    pub(crate) max_len: usize,
    /// Interleaved Eq-mask planes, one `Vec` per 2-bit base code, with a
    /// trailing zero word row (`(words + 1)·pad` words each).
    pub(crate) eq: [Vec<u64>; 4],
}

impl PatternBank {
    /// Builds a bank from 1–[`MAX_LANES`] patterns.
    ///
    /// Returns `None` when the slice is empty or oversized, when the
    /// patterns disagree on [`words`](PackedStrand::words), or when any
    /// pattern is empty (empty patterns short-circuit to trivial answers
    /// and never reach a kernel).
    pub fn new(patterns: &[&PackedStrand]) -> Option<PatternBank> {
        let lanes = patterns.len();
        if lanes == 0 || lanes > MAX_LANES {
            return None;
        }
        let words = patterns[0].words();
        if words == 0 || patterns.iter().any(|p| p.words() != words) {
            return None;
        }
        let pad = if lanes <= 4 { 4 } else { MAX_LANES };
        let mut lens = [0usize; MAX_LANES];
        let mut shifts = [0u64; MAX_LANES];
        let mut max_len = 0usize;
        for (l, p) in patterns.iter().enumerate() {
            lens[l] = p.len();
            shifts[l] = ((p.len() - 1) & 63) as u64;
            max_len = max_len.max(p.len());
        }
        // One zero word row past the last: the band kernels read the word
        // after the window's top word unconditionally.
        let mut eq = [
            vec![0u64; (words + 1) * pad],
            vec![0u64; (words + 1) * pad],
            vec![0u64; (words + 1) * pad],
            vec![0u64; (words + 1) * pad],
        ];
        for (c, plane) in eq.iter_mut().enumerate() {
            for (l, p) in patterns.iter().enumerate() {
                let masks = p.eq_by_code(c as u8);
                for (w, &mask) in masks.iter().enumerate() {
                    plane[w * pad + l] = mask;
                }
            }
        }
        Some(PatternBank {
            lanes,
            pad,
            words,
            lens,
            shifts,
            max_len,
            eq,
        })
    }

    /// Number of live pattern lanes.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Shared 64-base word count of every lane.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }
}

/// Reusable delta-vector buffers for the bank kernels (`Pv`/`Mv`, one pair
/// per word × padded lane). Grows on demand; one scratch serves banks of
/// any shape.
#[derive(Debug, Clone, Default)]
pub struct BankScratch {
    pub(crate) pv: Vec<u64>,
    pub(crate) mv: Vec<u64>,
}

impl BankScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> BankScratch {
        BankScratch::default()
    }

    pub(crate) fn reset(&mut self, cells: usize) {
        self.pv.clear();
        self.pv.resize(cells, !0u64);
        self.mv.clear();
        self.mv.resize(cells, 0);
    }
}

/// Bounded multi-pattern distance: `out[l]` is `Some(d)` with the exact
/// Levenshtein distance between `text` and lane `l`'s pattern when
/// `d ≤ limit`, `None` otherwise.
///
/// Dispatches to the active SIMD backend; all backends compute the same
/// per-lane integer recurrence, so the output is identical everywhere.
/// Lanes whose length gap with the text already exceeds the limit are
/// rejected in O(1). A limit up to [`BAND`] runs the one-word diagonal
/// band on every lane, any other the blocked kernel; both abandon the
/// column scan once every lane's lower bound proves the limit unreachable.
pub fn bank_within_with(
    scratch: &mut BankScratch,
    bank: &PatternBank,
    text: &PackedStrand,
    limit: usize,
    out: &mut Vec<Option<usize>>,
) {
    within_on(active_tier(), scratch, bank, text, limit, out);
}

/// Exact multi-pattern distances: `out[l]` is the Levenshtein distance
/// between `text` and lane `l`'s pattern. The blocked kernels with an
/// unreachable bound, so no lane ever abandons.
pub fn bank_distances_with(
    scratch: &mut BankScratch,
    bank: &PatternBank,
    text: &PackedStrand,
    out: &mut Vec<usize>,
) {
    let n = text.len();
    let mut alive: u32 = (1 << bank.lanes) - 1;
    let mut scores = [0i64; MAX_LANES];
    // n + max_len bounds every possible distance, so nothing abandons.
    let eff = (n + bank.max_len) as i64;
    run(active_tier(), bank, scratch, text, eff, &mut scores, &mut alive);
    out.clear();
    out.extend(scores[..bank.lanes].iter().map(|&s| s.max(0) as usize));
}

/// [`bank_within_with`] pinned to the portable scalar backend, regardless
/// of the runtime SIMD mode. Public so the differential suite can compare
/// the dispatching path against the fallback on the same inputs.
pub fn bank_within_scalar_with(
    scratch: &mut BankScratch,
    bank: &PatternBank,
    text: &PackedStrand,
    limit: usize,
    out: &mut Vec<Option<usize>>,
) {
    within_on(TIER_SCALAR, scratch, bank, text, limit, out);
}

/// [`bank_within_with`] on the backend `tier`, which the CPU must
/// support.
pub(crate) fn within_on(
    tier: u8,
    scratch: &mut BankScratch,
    bank: &PatternBank,
    text: &PackedStrand,
    limit: usize,
    out: &mut Vec<Option<usize>>,
) {
    let n = text.len();
    let mut alive: u32 = 0;
    for l in 0..bank.lanes {
        if bank.lens[l].abs_diff(n) <= limit {
            alive |= 1 << l;
        }
    }
    let mut scores = [0i64; MAX_LANES];
    if alive != 0 && limit <= BAND {
        // Every live lane is within BAND of the text's length, and the
        // band's value decides `d ≤ limit` exactly (DESIGN.md §28).
        band(tier, bank, text, limit, &mut scores, &mut alive);
    } else if alive != 0 {
        // Clamp the limit so the early-abandon arithmetic stays in range;
        // no distance can exceed n + max_len, so the clamp never changes
        // an accept/reject decision.
        let eff = limit.min(n + bank.max_len) as i64;
        run(tier, bank, scratch, text, eff, &mut scores, &mut alive);
    }
    out.clear();
    for (l, &s) in scores.iter().enumerate().take(bank.lanes) {
        let d = s.max(0) as usize;
        if alive & (1 << l) != 0 && d <= limit {
            out.push(Some(d));
        } else {
            out.push(None);
        }
    }
}

/// Dispatches one band scan to `tier`'s backend. NEON has no band
/// engine of its own and runs the portable one.
fn band(
    tier: u8,
    bank: &PatternBank,
    text: &PackedStrand,
    limit: usize,
    scores: &mut [i64; MAX_LANES],
    alive: &mut u32,
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        TIER_AVX2 => {
            // SAFETY: TIER_AVX2 is only ever passed after
            // `is_x86_feature_detected!("avx2")` returned true, so the
            // target-feature contract of `band_avx2` holds.
            unsafe { crate::bank_simd::band_avx2(bank, text, limit, scores, alive) }
        }
        _ => band_scalar(bank, text, limit, scores, alive),
    }
}

/// The band's abandon test at band column `j` of an `n`-column text, for
/// the lanes in `alive`: lane `l`'s value on its target diagonal
/// (`i − j = len_l − n`) is its top row's value plus the signed popcount
/// of its vertical words under `masks[l]`, and the lane is out once that
/// value exceeds `limits[l]`. Any other lane, and a lane whose diagonal
/// row is still above the matrix, gets an empty mask and a limit it
/// cannot exceed.
#[inline(always)]
pub(crate) fn band_probe(
    bank: &PatternBank,
    j: usize,
    n: usize,
    limit: usize,
    alive: u32,
) -> ([u64; MAX_LANES], [i64; MAX_LANES]) {
    let mut masks = [0u64; MAX_LANES];
    let mut limits = [i64::MAX; MAX_LANES];
    let r = band_top(j);
    for l in (0..bank.lanes).filter(|l| alive & (1 << l) != 0) {
        // Window offset of the diagonal's row j + len_l − n.
        if let Some(o) = (j + bank.lens[l]).checked_sub(n + 1 + r) {
            masks[l] = span(o);
            limits[l] = limit as i64;
        }
    }
    (masks, limits)
}

/// Each live lane's band `D(len_l, n)` from the final column's vertical
/// words and top-row values: the top row's value plus the signed popcount
/// of the rows down to the lane's last row.
pub(crate) fn band_finish(
    bank: &PatternBank,
    n: usize,
    pv: &[u64; MAX_LANES],
    mv: &[u64; MAX_LANES],
    top: &[i64; MAX_LANES],
    alive: u32,
    scores: &mut [i64; MAX_LANES],
) {
    for l in (0..bank.lanes).filter(|l| alive & (1 << l) != 0) {
        scores[l] = top[l] + span_sum(pv[l], mv[l], bank.lens[l] - 1 - band_top(n));
    }
}

/// Portable band engine: [`myers`](crate::myers)' one-word band kernel,
/// one scalar step per lane per column. Every lane shares the window's
/// top row, which depends on the column only. Lanes leave `alive` when
/// their target diagonal exceeds `limit`.
pub(crate) fn band_scalar(
    bank: &PatternBank,
    text: &PackedStrand,
    limit: usize,
    scores: &mut [i64; MAX_LANES],
    alive: &mut u32,
) {
    let (pad, lanes, n) = (bank.pad, bank.lanes, text.len());
    let mut pv = [!0u64; MAX_LANES];
    let mut mv = [0u64; MAX_LANES];
    let mut top = [1i64; MAX_LANES];
    for (c, j) in text.codes().zip(1usize..) {
        let plane = &bank.eq[(c & 3) as usize];
        let r = band_top(j);
        let (w, s) = (r >> 6, r & 63);
        for l in 0..lanes {
            if r > 0 {
                pv[l] = (pv[l] >> 1) | 1 << 63;
                mv[l] >>= 1;
                top[l] += (pv[l] & 1) as i64 - (mv[l] & 1) as i64;
            }
            let eq = band_window(plane[w * pad + l], plane[(w + 1) * pad + l], s);
            top[l] += step(&mut pv[l], &mut mv[l], eq, 1, 1).0 as i64;
        }
        if j % BAND_PROBE == 0 {
            let (masks, limits) = band_probe(bank, j, n, limit, *alive);
            for l in 0..lanes {
                let m = masks[l];
                let d = top[l] + (pv[l] & m).count_ones() as i64 - (mv[l] & m).count_ones() as i64;
                if d > limits[l] {
                    *alive &= !(1 << l);
                }
            }
            if *alive == 0 {
                return;
            }
        }
    }
    band_finish(bank, n, &pv, &mv, &top, *alive, scores);
}

/// Dispatches one bank scan to the active backend.
fn run(
    tier: u8,
    bank: &PatternBank,
    scratch: &mut BankScratch,
    text: &PackedStrand,
    eff_limit: i64,
    scores: &mut [i64; MAX_LANES],
    alive: &mut u32,
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        TIER_AVX2 => {
            // SAFETY: TIER_AVX2 is only ever passed after
            // `is_x86_feature_detected!("avx2")` returned true, so the
            // target-feature contract of `run_avx2` holds.
            unsafe {
                crate::bank_simd::run_avx2(bank, scratch, text, eff_limit, scores, alive);
            }
        }
        #[cfg(target_arch = "aarch64")]
        TIER_NEON => {
            // SAFETY: TIER_NEON is only ever passed after
            // `is_aarch64_feature_detected!("neon")` returned true.
            unsafe {
                crate::bank_simd::run_neon(bank, scratch, text, eff_limit, scores, alive);
            }
        }
        _ => run_scalar(bank, scratch, text, eff_limit, scores, alive),
    }
}

/// Portable multi-lane backend: the exact Myers blocked recurrence, one
/// scalar step per live lane per word, over the same interleaved layout
/// the SIMD backends consume.
fn run_scalar(
    bank: &PatternBank,
    scratch: &mut BankScratch,
    text: &PackedStrand,
    eff_limit: i64,
    scores: &mut [i64; MAX_LANES],
    alive: &mut u32,
) {
    let (words, pad, lanes) = (bank.words, bank.pad, bank.lanes);
    scratch.reset(words * pad);
    for (s, &len) in scores.iter_mut().zip(bank.lens.iter()).take(lanes) {
        *s = len as i64;
    }
    let n = text.len();
    let last = words - 1;
    for (j, c) in text.codes().enumerate() {
        let plane = &bank.eq[(c & 3) as usize];
        let mut hp = [1u64; MAX_LANES];
        let mut hn = [0u64; MAX_LANES];
        for w in 0..words {
            let base = w * pad;
            for l in 0..lanes {
                let idx = base + l;
                let pv = scratch.pv[idx];
                let mv = scratch.mv[idx];
                let eq0 = plane[idx];
                let xv = eq0 | mv;
                let eq = eq0 | hn[l];
                let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
                let ph = mv | !(xh | pv);
                let mh = pv & xh;
                if w == last {
                    scores[l] += ((ph >> bank.shifts[l]) & 1) as i64
                        - ((mh >> bank.shifts[l]) & 1) as i64;
                }
                let hout_p = ph >> 63;
                let hout_n = mh >> 63;
                let ph = (ph << 1) | hp[l];
                let mh = (mh << 1) | hn[l];
                scratch.pv[idx] = mh | !(xv | ph);
                scratch.mv[idx] = ph & xv;
                hp[l] = hout_p;
                hn[l] = hout_n;
            }
        }
        // The bottom-row score changes by at most one per column, so a
        // lane whose score minus the remaining columns exceeds the limit
        // can never come back.
        let remaining = (n - j - 1) as i64;
        for (l, &s) in scores.iter().enumerate().take(lanes) {
            if *alive & (1 << l) != 0 && s - remaining > eff_limit {
                *alive &= !(1 << l);
            }
        }
        if *alive == 0 {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::seeded;
    use dnasim_core::Strand;

    fn p(text: &str) -> PackedStrand {
        PackedStrand::from(&text.parse::<Strand>().unwrap())
    }

    #[test]
    fn bank_rejects_bad_shapes() {
        let a = p("ACGT");
        let long = p(&"AC".repeat(40));
        assert!(PatternBank::new(&[]).is_none());
        assert!(PatternBank::new(&[&a, &long]).is_none(), "mixed word counts");
        assert!(PatternBank::new(&[&p("")]).is_none(), "empty pattern");
        let nine: Vec<&PackedStrand> = std::iter::repeat_n(&a, 9).collect();
        assert!(PatternBank::new(&nine).is_none(), "too many lanes");
    }

    #[test]
    fn bank_matches_single_pattern_kernel() {
        let mut rng = seeded(1);
        let text = PackedStrand::from(&Strand::random(110, &mut rng));
        let patterns: Vec<PackedStrand> = (0..5)
            .map(|_| PackedStrand::from(&Strand::random(110, &mut rng)))
            .collect();
        let refs: Vec<&PackedStrand> = patterns.iter().collect();
        let bank = PatternBank::new(&refs).unwrap();
        let mut out = Vec::new();
        for limit in [0usize, 10, 30, 90, 200] {
            bank_within_with(&mut BankScratch::new(), &bank, &text, limit, &mut out);
            for (l, pattern) in patterns.iter().enumerate() {
                assert_eq!(
                    out[l],
                    crate::myers::within(pattern, &text, limit),
                    "lane {l} limit {limit}"
                );
            }
        }
    }

    #[test]
    fn distances_match_across_mixed_lengths_in_one_word_band() {
        let mut rng = seeded(2);
        // All lengths in (64, 128] share words == 2.
        let text = PackedStrand::from(&Strand::random(100, &mut rng));
        let patterns: Vec<PackedStrand> = [65usize, 77, 100, 127, 128]
            .iter()
            .map(|&len| PackedStrand::from(&Strand::random(len, &mut rng)))
            .collect();
        let refs: Vec<&PackedStrand> = patterns.iter().collect();
        let bank = PatternBank::new(&refs).unwrap();
        let mut out = Vec::new();
        bank_distances_with(&mut BankScratch::new(), &bank, &text, &mut out);
        for (l, pattern) in patterns.iter().enumerate() {
            assert_eq!(out[l], crate::myers::distance(pattern, &text), "lane {l}");
        }
    }

    #[test]
    fn scalar_backend_equals_dispatch() {
        let mut rng = seeded(3);
        let text = PackedStrand::from(&Strand::random(90, &mut rng));
        let patterns: Vec<PackedStrand> = (0..MAX_LANES)
            .map(|_| PackedStrand::from(&Strand::random(80, &mut rng)))
            .collect();
        let refs: Vec<&PackedStrand> = patterns.iter().collect();
        let bank = PatternBank::new(&refs).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        bank_within_with(&mut BankScratch::new(), &bank, &text, 40, &mut a);
        bank_within_scalar_with(&mut BankScratch::new(), &bank, &text, 40, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_text_scores_pattern_lengths() {
        let patterns = [p("ACG"), p("ACGTACGT")];
        let refs: Vec<&PackedStrand> = patterns.iter().collect();
        let bank = PatternBank::new(&refs).unwrap();
        let mut out = Vec::new();
        bank_within_with(&mut BankScratch::new(), &bank, &p(""), 4, &mut out);
        assert_eq!(out, vec![Some(3), None]);
        let mut dists = Vec::new();
        bank_distances_with(&mut BankScratch::new(), &bank, &p(""), &mut dists);
        assert_eq!(dists, vec![3, 8]);
    }

    #[test]
    fn scratch_reuse_across_bank_shapes_is_clean() {
        let mut rng = seeded(4);
        let mut scratch = BankScratch::new();
        let mut out = Vec::new();
        for (lanes, len) in [(8usize, 200usize), (2, 20), (5, 110), (1, 64)] {
            let text = PackedStrand::from(&Strand::random(len, &mut rng));
            let patterns: Vec<PackedStrand> = (0..lanes)
                .map(|_| PackedStrand::from(&Strand::random(len.max(1), &mut rng)))
                .collect();
            let refs: Vec<&PackedStrand> = patterns.iter().collect();
            let bank = PatternBank::new(&refs).unwrap();
            bank_within_with(&mut scratch, &bank, &text, 60, &mut out);
            for (l, pattern) in patterns.iter().enumerate() {
                assert_eq!(out[l], crate::myers::within(pattern, &text, 60));
            }
        }
    }

    #[test]
    fn tier_name_is_one_of_the_known_backends() {
        assert!(["avx2", "neon", "scalar"].contains(&simd_tier_name()));
    }
}
