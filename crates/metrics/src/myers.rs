//! Myers' bit-parallel edit-distance kernels over [`PackedStrand`]s.
//!
//! The scalar DP in [`levenshtein`](crate::levenshtein) touches one cell at
//! a time; Myers' 1999 algorithm encodes a whole DP *column* as vertical
//! delta bit-vectors (`Pv`/`Mv`) and advances 64 cells per word with a
//! handful of logical operations. Strands longer than 64 nt use the
//! blocked extension (Myers 1999 §4 / Hyyrö 2003): the column is split
//! into ⌈m/64⌉ words and the horizontal delta at each word's top bit
//! carries into the next word, exactly like a ripple carry.
//!
//! Conventions:
//!
//! * The *pattern* is the strand whose equality masks drive the kernel;
//!   the *text* is streamed base-by-base. Both operands arrive packed, so
//!   either can play either role — the kernel picks the assignment that
//!   minimises `pattern_words × text_len`.
//! * [`distance`] computes the exact Levenshtein distance.
//!   [`distance_bases_with`] computes it from unpacked base slices,
//!   building the shorter operand's masks in the scratch.
//! * [`within`] is the banded variant: it returns the exact distance when
//!   it is ≤ `limit` and `None` otherwise, abandoning the column loop as
//!   soon as the running score minus the remaining columns (a lower bound
//!   on the final distance, since the bottom-row score changes by at most
//!   one per column) exceeds the limit.
//!
//! The scalar DP remains the reference oracle: the differential suite in
//! `crates/metrics/tests/myers_differential.rs` proves both kernels
//! bit-identical to it over random strand pairs and degenerate cases.
//!
//! # Examples
//!
//! ```
//! use dnasim_core::{PackedStrand, Strand};
//! use dnasim_metrics::myers;
//!
//! let a = PackedStrand::from(&"AGCG".parse::<Strand>()?);
//! let b = PackedStrand::from(&"AGG".parse::<Strand>()?);
//! assert_eq!(myers::distance(&a, &b), 1);
//! assert_eq!(myers::within(&a, &b, 1), Some(1));
//! assert_eq!(myers::within(&a, &b, 0), None);
//! # Ok::<(), dnasim_core::ParseStrandError>(())
//! ```

use dnasim_core::{Base, PackedStrand};

/// Reusable per-call state for the blocked kernels: the `Pv`/`Mv` delta
/// words, one pair per 64-base pattern block, plus the equality planes of
/// an unpacked pattern.
///
/// The kernels resize these buffers on demand, so one scratch serves
/// strands of any length; hot loops (cluster assignment, medoid selection)
/// allocate a single scratch and thread it through every comparison.
#[derive(Debug, Clone, Default)]
pub struct MyersScratch {
    pv: Vec<u64>,
    mv: Vec<u64>,
    /// Pattern equality planes for [`distance_bases_with`], laid out as
    /// `eq[code * words + w]`.
    eq: Vec<u64>,
}

impl MyersScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> MyersScratch {
        MyersScratch::default()
    }
}

/// Picks the (pattern, text) assignment minimising kernel work
/// (`pattern_words × text_len`). Levenshtein distance is symmetric, so the
/// result is unaffected.
#[inline]
fn choose<'s>(a: &'s PackedStrand, b: &'s PackedStrand) -> (&'s PackedStrand, &'s PackedStrand) {
    if a.words() * b.len() <= b.words() * a.len() {
        (a, b)
    } else {
        (b, a)
    }
}

/// One blocked-kernel step: advances one 64-row block of the current
/// column. `hin` is the horizontal delta entering the block's bottom row
/// (+1, 0 or −1); the return value is the horizontal delta read off at
/// `out_bit` *before* the shift — bit 63 for interior blocks (the carry
/// into the next block), or the pattern's last-row bit for the top block
/// (the score delta).
#[inline(always)]
fn step(pv: &mut u64, mv: &mut u64, eq0: u64, hin: i32, out_bit: u64) -> i32 {
    let hin_neg = (hin < 0) as u64;
    let xv = eq0 | *mv;
    let eq = eq0 | hin_neg;
    let xh = (((eq & *pv).wrapping_add(*pv)) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    let hout = ((ph & out_bit) != 0) as i32 - ((mh & out_bit) != 0) as i32;
    let ph = (ph << 1) | (hin > 0) as u64;
    let mh = (mh << 1) | hin_neg;
    *pv = mh | !(xv | ph);
    *mv = ph & xv;
    hout
}

/// Single-word fast path: pattern fits one machine word, so `Pv`/`Mv`
/// stay in registers for the whole text scan.
fn distance_one_word(pattern: &PackedStrand, text: &PackedStrand) -> usize {
    let m = pattern.len();
    let eqs: [u64; 4] = std::array::from_fn(|c| {
        pattern.eq_by_code(c as u8).first().copied().unwrap_or(0)
    });
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = m;
    let score_bit = 1u64 << (m - 1);
    for c in text.codes() {
        let eq = eqs[(c & 3) as usize];
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & score_bit != 0 {
            score += 1;
        } else if mh & score_bit != 0 {
            score -= 1;
        }
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score
}

/// Exact Levenshtein distance between two packed strands.
///
/// Allocation-free except for the scratch it creates; hot loops should
/// call [`distance_with`] with a reused [`MyersScratch`].
pub fn distance(a: &PackedStrand, b: &PackedStrand) -> usize {
    distance_with(&mut MyersScratch::new(), a, b)
}

/// [`distance`] with caller-provided scratch buffers.
pub fn distance_with(scratch: &mut MyersScratch, a: &PackedStrand, b: &PackedStrand) -> usize {
    let (p, t) = choose(a, b);
    let (m, n) = (p.len(), t.len());
    if m == 0 {
        return n;
    }
    if n == 0 {
        return m;
    }
    if p == t {
        return 0;
    }
    let words = p.words();
    if words == 1 {
        return distance_one_word(p, t);
    }
    blocked_distance(&mut scratch.pv, &mut scratch.mv, m, t.codes(), |c| {
        p.eq_by_code(c)
    })
}

/// [`distance_with`] over unpacked base slices.
///
/// The shorter operand's equality planes are built into `scratch` rather
/// than into a fresh [`PackedStrand`], so callers that hold plain strands
/// (the profiler's edit-script DP, which needs the distance to size its
/// band) pay no allocation once the scratch has grown.
pub fn distance_bases_with(scratch: &mut MyersScratch, a: &[Base], b: &[Base]) -> usize {
    let (p, t) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if p.is_empty() {
        return t.len();
    }
    if p == t {
        return 0;
    }
    let words = p.len().div_ceil(64);
    scratch.eq.clear();
    scratch.eq.resize(4 * words, 0);
    for (i, base) in p.iter().enumerate() {
        scratch.eq[base.index() * words + (i >> 6)] |= 1u64 << (i & 63);
    }
    let eq = &scratch.eq;
    blocked_distance(
        &mut scratch.pv,
        &mut scratch.mv,
        p.len(),
        t.iter().map(|base| base.index() as u8),
        |c| &eq[(c & 3) as usize * words..][..words],
    )
}

/// The blocked column loop shared by the exact kernels: streams `text`
/// codes against a non-empty `m`-base pattern whose equality words for a
/// code are `eq(code)` (⌈m/64⌉ words each).
fn blocked_distance<'e>(
    pv: &mut Vec<u64>,
    mv: &mut Vec<u64>,
    m: usize,
    text: impl Iterator<Item = u8>,
    eq: impl Fn(u8) -> &'e [u64],
) -> usize {
    let words = m.div_ceil(64);
    pv.clear();
    pv.resize(words, !0u64);
    mv.clear();
    mv.resize(words, 0);
    let last = words - 1;
    let score_bit = 1u64 << ((m - 1) & 63);
    let mut score = m as isize;
    for c in text {
        let eqs = eq(c);
        let mut hin = 1i32;
        for ((pv, mv), &eq) in pv[..last]
            .iter_mut()
            .zip(mv[..last].iter_mut())
            .zip(&eqs[..last])
        {
            hin = step(pv, mv, eq, hin, 1 << 63);
        }
        score += step(&mut pv[last], &mut mv[last], eqs[last], hin, score_bit) as isize;
    }
    score.max(0) as usize
}

/// Banded distance: `Some(d)` with the exact distance when `d ≤ limit`,
/// `None` otherwise.
///
/// Rejects in O(1) when the length gap alone exceeds the limit, answers
/// equal strands in O(words), and otherwise abandons the text scan at the
/// first column where the score lower bound proves the limit unreachable.
pub fn within(a: &PackedStrand, b: &PackedStrand, limit: usize) -> Option<usize> {
    within_with(&mut MyersScratch::new(), a, b, limit)
}

/// [`within`] with caller-provided scratch buffers.
pub fn within_with(
    scratch: &mut MyersScratch,
    a: &PackedStrand,
    b: &PackedStrand,
    limit: usize,
) -> Option<usize> {
    if a.len().abs_diff(b.len()) > limit {
        return None;
    }
    if a == b {
        return Some(0);
    }
    let (p, t) = choose(a, b);
    let (m, n) = (p.len(), t.len());
    if m == 0 {
        // n ≤ limit is implied by the length-gap check above.
        return Some(n);
    }

    let words = p.words();
    scratch.pv.clear();
    scratch.pv.resize(words, !0u64);
    scratch.mv.clear();
    scratch.mv.resize(words, 0);
    let last = words - 1;
    let score_bit = 1u64 << ((m - 1) & 63);
    let limit = limit as isize;
    let mut score = m as isize;
    for (j, c) in t.codes().enumerate() {
        let eqs = p.eq_by_code(c);
        let mut hin = 1i32;
        for ((pv, mv), &eq) in scratch.pv[..last]
            .iter_mut()
            .zip(scratch.mv[..last].iter_mut())
            .zip(&eqs[..last])
        {
            hin = step(pv, mv, eq, hin, 1 << 63);
        }
        score += step(
            &mut scratch.pv[last],
            &mut scratch.mv[last],
            eqs[last],
            hin,
            score_bit,
        ) as isize;
        // The bottom-row score changes by at most one per column, so the
        // final distance is at least `score - columns_remaining`.
        let remaining = (n - j - 1) as isize;
        if score - remaining > limit {
            return None;
        }
    }
    (score <= limit).then_some(score.max(0) as usize)
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
    fn classic_cases() {
        assert_eq!(distance(&p("ACGT"), &p("AGGT")), 1);
        assert_eq!(distance(&p("ACGT"), &p("ACT")), 1);
        assert_eq!(distance(&p("ACGT"), &p("ACGGT")), 1);
        assert_eq!(distance(&p(""), &p("")), 0);
        assert_eq!(distance(&p("ACG"), &p("")), 3);
        assert_eq!(distance(&p(""), &p("ACG")), 3);
        assert_eq!(distance(&p("AAAA"), &p("TTTT")), 4);
    }

    #[test]
    fn symmetric_across_operand_order() {
        let mut rng = seeded(1);
        for (la, lb) in [(10, 200), (65, 64), (110, 110), (1, 129)] {
            let a = PackedStrand::from(&Strand::random(la, &mut rng));
            let b = PackedStrand::from(&Strand::random(lb, &mut rng));
            assert_eq!(distance(&a, &b), distance(&b, &a));
        }
    }

    #[test]
    fn matches_scalar_on_multi_word_strands() {
        let mut rng = seeded(2);
        for (la, lb) in [(63, 64), (64, 64), (64, 65), (110, 113), (128, 129), (250, 300)] {
            let a = Strand::random(la, &mut rng);
            let b = Strand::random(lb, &mut rng);
            let expect = crate::levenshtein(a.as_bases(), b.as_bases());
            assert_eq!(
                distance(&PackedStrand::from(&a), &PackedStrand::from(&b)),
                expect,
                "lengths ({la}, {lb})"
            );
            let mut scratch = MyersScratch::new();
            assert_eq!(distance_bases_with(&mut scratch, a.as_bases(), b.as_bases()), expect);
            assert_eq!(distance_bases_with(&mut scratch, a.as_bases(), a.as_bases()), 0);
        }
    }

    #[test]
    fn within_matches_semantics() {
        assert_eq!(within(&p("ACGT"), &p("AGGT"), 2), Some(1));
        assert_eq!(within(&p("AAAA"), &p("TTTT"), 3), None);
        assert_eq!(within(&p("AAAA"), &p("AAAATTTT"), 3), None); // length gap
        assert_eq!(within(&p("ACGT"), &p("ACGT"), 0), Some(0));
        assert_eq!(within(&p("ACGT"), &p("ACGA"), 0), None);
        assert_eq!(within(&p(""), &p("AC"), 2), Some(2));
    }

    #[test]
    fn scratch_reuse_across_sizes_is_clean() {
        let mut scratch = MyersScratch::new();
        let mut rng = seeded(3);
        let long_a = PackedStrand::from(&Strand::random(300, &mut rng));
        let long_b = PackedStrand::from(&Strand::random(280, &mut rng));
        let short_a = PackedStrand::from(&Strand::random(20, &mut rng));
        let short_b = PackedStrand::from(&Strand::random(25, &mut rng));
        let d_long = distance(&long_a, &long_b);
        let d_short = distance(&short_a, &short_b);
        // Interleave sizes: stale state from the long pair must not leak.
        assert_eq!(distance_with(&mut scratch, &long_a, &long_b), d_long);
        assert_eq!(distance_with(&mut scratch, &short_a, &short_b), d_short);
        assert_eq!(distance_with(&mut scratch, &long_a, &long_b), d_long);
        assert_eq!(within_with(&mut scratch, &short_a, &short_b, 30), Some(d_short));
    }
}
