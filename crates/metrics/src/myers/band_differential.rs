//! Differential tests for the one-word diagonal band (DESIGN.md §28).
//!
//! The band kernel answers `within` for limits up to [`BAND`], every bank
//! lane at such limits, and every `DeltaColumns` recording whose distance
//! is at most [`BAND`]. The blocked kernels and the scalar DP are its
//! oracles:
//!
//! - `within` against the blocked `within` and the scalar DP at every
//!   limit 0–31, plus 32 and 50 (the blocked fallback), over lengths 0–300
//!   and length gaps 0–33 in both operand orders;
//! - each bank lane against `within`, on the scalar kernel and on every
//!   SIMD kernel the CPU has, called directly;
//! - a band recording against the blocked recording of the same pair:
//!   `up`, `left` and `diag` agree on every cell with `D ≤ d`, the branch
//!   is the band exactly when `d ≤ BAND` and the pattern spans more than
//!   one word, and both branches occur;
//! - a band recording's words against a plain DP over the band's cells
//!   with the kernel's two boundary assumptions, bit for bit.

use dnasim_core::rng::{seeded, RngExt, SimRng};
use dnasim_core::{Base, PackedStrand, Strand};

use crate::bank::{bank_within_with, within_on, BankScratch, PatternBank, TIER_SCALAR};
use crate::levenshtein;
use crate::myers::{self, DeltaColumns, MyersScratch, BAND};

/// Lengths around every word boundary up to the archive's strands, plus
/// a few longer ones.
const LENGTHS: [usize; 31] = [
    0, 1, 2, 5, 17, 31, 32, 33, 40, 63, 64, 65, 96, 127, 128, 129, 150, 183, 184, 185, 186, 187,
    188, 189, 190, 191, 192, 193, 230, 256, 300,
];

/// `a` with `gap` bases deleted and `edits` random substitutions or
/// (deletion, insertion) pairs, so `len − gap` bases long.
fn variant(rng: &mut SimRng, a: &Strand, gap: usize, edits: usize) -> Strand {
    let mut bases = a.as_bases().to_vec();
    for _ in 0..gap.min(bases.len()) {
        bases.remove(rng.random_range(0..bases.len()));
    }
    for _ in 0..edits {
        if bases.is_empty() {
            break;
        }
        let base = Base::ALL[rng.random_range(0..4usize)];
        let at = rng.random_range(0..bases.len());
        if rng.random_bool(0.5) {
            bases[at] = base;
        } else {
            bases.remove(at);
            bases.insert(rng.random_range(0..=bases.len()), base);
        }
    }
    Strand::from_bases(bases)
}

/// Near pairs of every length in [`LENGTHS`] and every gap 0–33, with
/// edit counts cycling through `edits`, which puts distances on both
/// sides of [`BAND`].
fn near_pairs(seed: u64, edits: &[usize]) -> Vec<(Strand, Strand)> {
    let mut rng = seeded(seed);
    let mut pairs = Vec::new();
    for &len in &LENGTHS {
        for gap in (0..=BAND + 2).filter(|&gap| gap <= len) {
            let a = Strand::random(len, &mut rng);
            let b = variant(&mut rng, &a, gap, edits[pairs.len() % edits.len()]);
            pairs.push((a, b));
        }
    }
    pairs
}

#[test]
fn within_matches_the_blocked_kernel_and_the_scalar_dp() {
    let limits: Vec<usize> = (0..=BAND).chain([BAND + 1, 50]).collect();
    let mut scratch = MyersScratch::new();
    let mut near_limit = 0;
    for (a, b) in near_pairs(1, &[0, 3, 8, 16, 26]) {
        for (x, y) in [(&a, &b), (&b, &a)] {
            let d = levenshtein(x.as_bases(), y.as_bases());
            let (px, py) = (PackedStrand::from(x), PackedStrand::from(y));
            for &limit in &limits {
                let want = (d <= limit).then_some(d);
                let got = myers::within_with(&mut scratch, &px, &py, limit);
                assert_eq!(got, want, "{} vs {} at limit {limit}", x.len(), y.len());
                if !px.is_empty() {
                    let blocked = myers::within_blocked(&mut scratch, &px, &py, limit);
                    assert_eq!(blocked, want, "blocked {} vs {}", x.len(), y.len());
                }
                near_limit += usize::from(d == limit || d == limit + 1);
            }
        }
    }
    assert!(near_limit > 300, "too few pairs at the limit: {near_limit}");
}

#[test]
fn far_pairs_are_rejected_exactly() {
    // Unrelated strands abandon early; the abandon must never reject a
    // pair the limit admits.
    let mut rng = seeded(2);
    let mut scratch = MyersScratch::new();
    for &len in &LENGTHS {
        for gap in [0, 1, 7, BAND] {
            let a = Strand::random(len, &mut rng);
            let b = Strand::random(len.saturating_sub(gap), &mut rng);
            let d = levenshtein(a.as_bases(), b.as_bases());
            let (pa, pb) = (PackedStrand::from(&a), PackedStrand::from(&b));
            for limit in 0..=BAND {
                let want = (d <= limit).then_some(d);
                assert_eq!(myers::within_with(&mut scratch, &pa, &pb, limit), want);
            }
        }
    }
}

/// The bank kernels the CPU can run: the portable one and, on x86-64
/// with AVX2, the AVX2 one.
fn kernels() -> Vec<u8> {
    let mut tiers = vec![TIER_SCALAR];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        tiers.push(crate::bank::TIER_AVX2);
    }
    tiers
}

#[test]
fn every_band_bank_lane_matches_within() -> Result<(), &'static str> {
    let mut rng = seeded(3);
    let mut scratch = BankScratch::new();
    let (mut out, mut dispatched) = (Vec::new(), Vec::new());
    let limits: Vec<usize> = (0..=BAND).chain([BAND + 1, 50]).collect();
    let mut accepted = 0;
    for round in 0..120 {
        let words = 1 + round % 4;
        let lanes = [1, 2, 3, 4, 5, 8][round % 6];
        let n = 64 * (words - 1) + 1 + rng.random_range(0..64usize);
        let text = Strand::random(n, &mut rng);
        let mut patterns = Vec::new();
        while patterns.len() < lanes {
            let p = if rng.random_bool(0.25) {
                // A far lane, to exercise the abandon.
                Strand::random(n, &mut rng)
            } else {
                let gap = rng.random_range(0..=BAND + 2);
                let edits = rng.random_range(0..30usize);
                if rng.random_bool(0.5) {
                    variant(&mut rng, &text, gap, edits)
                } else {
                    // Longer than the text: the text is the variant.
                    let mut long = text.as_bases().to_vec();
                    for _ in 0..gap {
                        let base = Base::ALL[rng.random_range(0..4usize)];
                        long.insert(rng.random_range(0..=long.len()), base);
                    }
                    variant(&mut rng, &Strand::from_bases(long), 0, edits)
                }
            };
            if !p.is_empty() && p.len().div_ceil(64) == words {
                patterns.push(PackedStrand::from(&p));
            }
        }
        let refs: Vec<&PackedStrand> = patterns.iter().collect();
        let bank = PatternBank::new(&refs).ok_or("patterns of one word count")?;
        let pt = PackedStrand::from(&text);
        for &limit in &limits {
            let want: Vec<Option<usize>> = patterns
                .iter()
                .map(|p| myers::within(p, &pt, limit))
                .collect();
            for tier in kernels() {
                within_on(tier, &mut scratch, &bank, &pt, limit, &mut out);
                assert_eq!(out, want, "kernel {tier}, {lanes} lanes, limit {limit}");
            }
            bank_within_with(&mut scratch, &bank, &pt, limit, &mut dispatched);
            assert_eq!(dispatched, want, "dispatched, limit {limit}");
            accepted += want.iter().flatten().count();
        }
    }
    assert!(accepted > 2000, "too few accepted lanes: {accepted}");
    Ok(())
}

/// `D(i, j)` of the full matrix, row-major with `n + 1` columns.
fn full_matrix(a: &[Base], b: &[Base]) -> Vec<usize> {
    let width = b.len() + 1;
    let mut dp = vec![0usize; (a.len() + 1) * width];
    for (j, cell) in dp.iter_mut().enumerate().take(width) {
        *cell = j;
    }
    for i in 1..=a.len() {
        dp[i * width] = i;
        for j in 1..width {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            dp[i * width + j] = (dp[(i - 1) * width + j - 1] + cost)
                .min(dp[(i - 1) * width + j] + 1)
                .min(dp[i * width + j - 1] + 1);
        }
    }
    dp
}

#[test]
fn band_recordings_answer_as_the_blocked_recording() {
    let (mut band, mut blocked) = (DeltaColumns::default(), DeltaColumns::default());
    let (mut banded, mut fell_back, mut at_the_edge) = (0, 0, 0);
    for (a, b) in near_pairs(4, &[0, 4, 12, 20, 30]) {
        for (x, y) in [(&a, &b), (&b, &a)] {
            let (x, y) = (x.as_bases(), y.as_bases());
            let dp = full_matrix(x, y);
            let width = y.len() + 1;
            let d = dp[dp.len() - 1];
            band.record(x, y);
            blocked.record_blocked(x, y);
            let is_band = band.slide != usize::MAX;
            assert_eq!(is_band, x.len() > 64 && d <= BAND, "branch at d = {d}");
            if !is_band {
                fell_back += 1;
                continue;
            }
            banded += 1;
            at_the_edge += usize::from(d == BAND);
            for i in 0..=x.len() {
                for j in 0..=y.len() {
                    if dp[i * width + j] > d {
                        continue;
                    }
                    if i > 0 {
                        assert_eq!(band.up(i, j), blocked.up(i, j), "up({i}, {j})");
                    }
                    if j > 0 {
                        assert_eq!(band.left(i, j), blocked.left(i, j), "left({i}, {j})");
                    }
                    if i > 0 && j > 0 {
                        assert_eq!(band.diag(i, j), blocked.diag(i, j), "diag({i}, {j})");
                    }
                }
            }
        }
    }
    assert!(
        banded > 300 && fell_back > 300,
        "{banded} banded, {fell_back} fell back"
    );
    assert!(at_the_edge > 10, "{at_the_edge} recordings at d = BAND");
}

/// The band as a plain DP over its cells: column `j` holds rows
/// `a_j..=a_j + 63`, the row above the window is its left neighbour + 1
/// (`D(0, j) = j` in row 0), and a row entering at the bottom is the
/// row above it + 1. Returns each column's `[Pv, Mv, Ph, Mh]`.
fn band_model(a: &[Base], b: &[Base]) -> Vec<[u64; 4]> {
    let first_row = |j: usize| myers::band_top(j) + 1;
    // D' of the previous column's window rows.
    let mut prev: Vec<i64> = (1..=64).collect();
    let mut words = vec![[!0u64, 0, 0, 0]];
    for j in 1..=b.len() {
        let (top, prev_top) = (first_row(j), first_row(j - 1));
        let left = |i: usize| -> i64 {
            if i == 0 {
                j as i64 - 1
            } else if i - prev_top < 64 {
                prev[i - prev_top]
            } else {
                prev[63] + 1
            }
        };
        let above = if top == 1 {
            j as i64
        } else {
            left(top - 1) + 1
        };
        let mut cur = vec![0i64; 64];
        let mut w = [0u64; 4];
        for r in 0..64 {
            let i = top + r;
            let up = if r == 0 { above } else { cur[r - 1] };
            let cost = i64::from(i > a.len() || a[i - 1] != b[j - 1]);
            cur[r] = (left(i - 1) + cost).min(up + 1).min(left(i) + 1);
            for (k, delta) in [(0, cur[r] - up), (2, cur[r] - left(i))] {
                assert!(delta.abs() <= 1, "delta {delta} at ({i}, {j})");
                match delta {
                    1 => w[k] |= 1 << r,
                    -1 => w[k + 1] |= 1 << r,
                    _ => {}
                }
            }
        }
        words.push(w);
        prev = cur;
    }
    words
}

#[test]
fn band_words_match_the_band_model() {
    let mut columns = DeltaColumns::default();
    let mut checked = 0;
    for (a, b) in near_pairs(5, &[0, 5, 10, 20]) {
        for (x, y) in [(&a, &b), (&b, &a)] {
            columns.record(x.as_bases(), y.as_bases());
            if columns.slide == usize::MAX {
                continue;
            }
            let model = band_model(x.as_bases(), y.as_bases());
            assert_eq!(columns.cols, model, "{} vs {}", x.len(), y.len());
            checked += 1;
        }
    }
    assert!(checked > 300, "{checked} band recordings checked");
}
