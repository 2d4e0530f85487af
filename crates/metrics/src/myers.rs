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
//! * [`DeltaColumns`] runs the band below (a multi-word pattern at
//!   distance ≤ `BAND`) or the same blocked loop, and keeps every column's
//!   vertical and horizontal delta words, so an edit-script traceback can
//!   test each cell's neighbours with single bit tests.
//! * [`within`] is the bounded variant: it returns the exact distance when
//!   it is ≤ `limit` and `None` otherwise. For `limit ≤ BAND` it runs the
//!   one-word diagonal band below; above that, the blocked loop abandons
//!   as soon as the running score minus the remaining columns (a lower
//!   bound on the final distance, since the bottom-row score changes by at
//!   most one per column) exceeds the limit.
//!
//! # The one-word diagonal band
//!
//! A distance known to be at most [`BAND`] (`K = 31`) only depends on the
//! cells with `|i − j| ≤ K`, so the band kernel (after Hyyrö 2003) keeps a
//! single 64-row word per column instead of ⌈m/64⌉ blocks: column `j`
//! holds rows `a_j..=a_j + 63` with `a_j = max(1, j − K)`. When the window
//! moves down a row, `Pv`/`Mv` shift right by one and the new bottom row
//! enters with a vertical `+1`; the row above the window enters with a
//! horizontal `+1`. Both are upper bounds on the true values and the
//! recurrence is monotone, so every band value is ≥ the true one, and it
//! is exact wherever the true value is ≤ K (every cell on an optimal path
//! to such a cell lies within the band). The equality word is the
//! pattern's plane bits from row `a_j`, two words and a shift. The kernel
//! tracks `D(a_j, j)` across each shift and step; `D(m, n)` is that value
//! plus the signed popcount of the rows `a_n + 1..=m`. DESIGN.md §28 has
//! the whole argument.
//!
//! The scalar DP remains the reference oracle: the differential suite in
//! `crates/metrics/tests/myers_differential.rs` proves the kernels
//! bit-identical to it over random strand pairs and degenerate cases, and
//! `myers::band_differential` holds the band to the blocked kernels.
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
/// (+1, 0 or −1). Returns the horizontal delta read off at `out_bit`
/// *before* the shift — bit 63 for interior blocks (the carry into the
/// next block), or the pattern's last-row bit for the top block (the
/// score delta) — and the block's `Ph`/`Mh` words before the shift.
#[inline(always)]
pub(crate) fn step(
    pv: &mut u64,
    mv: &mut u64,
    eq0: u64,
    hin: i32,
    out_bit: u64,
) -> (i32, u64, u64) {
    let hin_neg = (hin < 0) as u64;
    let xv = eq0 | *mv;
    let eq = eq0 | hin_neg;
    let xh = (((eq & *pv).wrapping_add(*pv)) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    let hout = ((ph & out_bit) != 0) as i32 - ((mh & out_bit) != 0) as i32;
    let (ph_out, mh_out) = (ph, mh);
    let ph = (ph << 1) | (hin > 0) as u64;
    let mh = (mh << 1) | hin_neg;
    *pv = mh | !(xv | ph);
    *mv = ph & xv;
    (hout, ph_out, mh_out)
}

/// Radius `K` of the one-word diagonal band: band column `j` holds rows
/// `a_j..=a_j + 63` with `a_j = max(1, j − K)`, which covers every cell
/// with `|i − j| ≤ K`. [`within`] runs the band for limits up to `K`, and
/// [`DeltaColumns`] keeps a band recording of a multi-word pattern
/// whenever its distance is at most `K`. `2K + 1 ≤ 63` keeps a traceback's
/// neighbour reads inside the window (DESIGN.md §28).
pub const BAND: usize = 31;

/// Row offset `a_j − 1` of band column `j`'s top row.
#[inline(always)]
pub(crate) fn band_top(j: usize) -> usize {
    j.saturating_sub(BAND + 1)
}

/// The 64 equality bits from bit `s` of `lo` on, continuing into `hi`:
/// the band window of a plane whose words at the window's top row are
/// `lo` and `hi`.
#[inline(always)]
pub(crate) fn band_window(lo: u64, hi: u64, s: usize) -> u64 {
    (lo >> s) | ((hi << 1) << (63 - s))
}

/// Bits `1..=o` of a band word (`o ≤ 63`): the rows `a_j + 1..=a_j + o`.
#[inline(always)]
pub(crate) fn span(o: usize) -> u64 {
    (!0u64 >> (63 - o)) & !1
}

/// `D(a_j + o, j) − D(a_j, j)` from band column `j`'s vertical words.
#[inline(always)]
pub(crate) fn span_sum(pv: u64, mv: u64, o: usize) -> i64 {
    let mask = span(o);
    (pv & mask).count_ones() as i64 - (mv & mask).count_ones() as i64
}

/// Band columns between two abandon tests. The test costs two popcounts,
/// so it runs on every eighth column only; any schedule is exact.
pub(crate) const BAND_PROBE: usize = 8;

/// The band's column loop: streams `text` (`n` codes) against a non-empty
/// `m`-base pattern whose equality planes are `eq(code)` (⌈m/64⌉ words),
/// with `|m − n| ≤ BAND`. Returns the band's `D(m, n)`, which is exact
/// when it is ≤ `BAND` and exceeds `BAND` otherwise, or `None` once the
/// band's value on the diagonal `i − j = m − n` exceeds `abandon` (the
/// distance never falls along a diagonal, so `D(m, n)` does too). `record`
/// sees each column's `[Pv, Mv, Ph, Mh]`, the horizontal words before the
/// shift.
fn band_distance<'e>(
    m: usize,
    n: usize,
    text: impl Iterator<Item = u8>,
    eq: impl Fn(u8) -> &'e [u64],
    abandon: usize,
    mut record: impl FnMut([u64; 4]),
) -> Option<usize> {
    let (mut pv, mut mv) = (!0u64, 0u64);
    // D(a_j, j) of the window's top row; column 0's is D(1, 0) = 1.
    let mut top = 1i64;
    for (c, j) in text.zip(1usize..) {
        let r = band_top(j);
        if r > 0 {
            // The window moves down a row: the new bottom row enters with
            // a vertical +1, and the top row's value steps by the vertical
            // delta that moves into bit 0.
            pv = (pv >> 1) | 1 << 63;
            mv >>= 1;
            top += (pv & 1) as i64 - (mv & 1) as i64;
        }
        let plane = eq(c);
        let (w, s) = (r >> 6, r & 63);
        let hi = plane.get(w + 1).copied().unwrap_or(0);
        // The row above the window enters with a horizontal +1 (exact in
        // row 0, an upper bound below it); the delta read off bit 0 moves
        // the top row's value.
        let (h, ph, mh) = step(&mut pv, &mut mv, band_window(plane[w], hi, s), 1, 1);
        record([pv, mv, ph, mh]);
        top += h as i64;
        if j % BAND_PROBE == 0 {
            // Window offset of the target diagonal's row j + m − n, once
            // that row is inside the matrix.
            if let Some(o) = (j + m).checked_sub(n + 1 + r) {
                if top + span_sum(pv, mv, o) > abandon as i64 {
                    return None;
                }
            }
        }
    }
    Some((top + span_sum(pv, mv, m - 1 - band_top(n))) as usize)
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
    blocked_distance(
        &mut scratch.pv,
        &mut scratch.mv,
        m,
        t.codes(),
        |c| p.eq_by_code(c),
        |_| {},
    )
}

/// [`distance_with`] over unpacked base slices.
///
/// The shorter operand's equality planes are built into `scratch` rather
/// than into a fresh [`PackedStrand`], so callers holding plain strands
/// pay no allocation once the scratch has grown.
pub fn distance_bases_with(scratch: &mut MyersScratch, a: &[Base], b: &[Base]) -> usize {
    let (p, t) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if p.is_empty() {
        return t.len();
    }
    if p == t {
        return 0;
    }
    let words = eq_planes(&mut scratch.eq, p);
    let eq = &scratch.eq;
    blocked_distance(
        &mut scratch.pv,
        &mut scratch.mv,
        p.len(),
        t.iter().map(|base| base.index() as u8),
        |c| &eq[(c & 3) as usize * words..][..words],
        |_| {},
    )
}

/// Builds the equality planes of `pattern` into `eq`, laid out as
/// `eq[code * words + w]`, and returns the word count ⌈m/64⌉.
fn eq_planes(eq: &mut Vec<u64>, pattern: &[Base]) -> usize {
    let words = pattern.len().div_ceil(64);
    eq.clear();
    eq.resize(4 * words, 0);
    for (w, block) in pattern.chunks(64).enumerate() {
        // One block's four words in registers, stored once.
        let mut planes = [0u64; 4];
        for (i, base) in block.iter().enumerate() {
            planes[base.index()] |= 1u64 << i;
        }
        for (c, plane) in planes.into_iter().enumerate() {
            eq[c * words + w] = plane;
        }
    }
    words
}

/// The blocked column loop shared by the exact kernels: streams `text`
/// codes against a non-empty `m`-base pattern whose equality words for a
/// code are `eq(code)` (⌈m/64⌉ words each). After each block step,
/// `record` sees that block's `[Pv, Mv, Ph, Mh]` — the new vertical words
/// and the horizontal words before the shift — in column-major order.
fn blocked_distance<'e>(
    pv: &mut Vec<u64>,
    mv: &mut Vec<u64>,
    m: usize,
    text: impl Iterator<Item = u8>,
    eq: impl Fn(u8) -> &'e [u64],
    record: impl FnMut([u64; 4]),
) -> usize {
    // One- and two-block patterns (every strand up to 128 nt) keep their
    // delta words in fixed arrays, which the compiler holds in registers.
    match m.div_ceil(64) {
        1 => column_loop(&mut [!0; 1], &mut [0; 1], m, text, eq, record),
        2 => column_loop(&mut [!0; 2], &mut [0; 2], m, text, eq, record),
        words => {
            pv.clear();
            pv.resize(words, !0u64);
            mv.clear();
            mv.resize(words, 0);
            column_loop(pv, mv, m, text, eq, record)
        }
    }
}

/// [`blocked_distance`]'s column loop over `Pv`/`Mv` words already set to
/// the first column's all-`+1` deltas.
#[inline(always)]
fn column_loop<'e>(
    pv: &mut [u64],
    mv: &mut [u64],
    m: usize,
    text: impl Iterator<Item = u8>,
    eq: impl Fn(u8) -> &'e [u64],
    mut record: impl FnMut([u64; 4]),
) -> usize {
    let last = pv.len() - 1;
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
            let (hout, ph, mh) = step(pv, mv, eq, hin, 1 << 63);
            record([*pv, *mv, ph, mh]);
            hin = hout;
        }
        let (hout, ph, mh) = step(&mut pv[last], &mut mv[last], eqs[last], hin, score_bit);
        record([pv[last], mv[last], ph, mh]);
        score += hout as isize;
    }
    score.max(0) as usize
}

/// Every column of the edit-distance matrix of a pattern (rows `i`)
/// against a text (columns `j`), kept as Myers delta words so that a
/// traceback reads each neighbour relation of a cell with one bit test.
///
/// Column `j` holds `[Pv, Mv, Ph, Mh]` words: bit `r` of `Pv`/`Mv` is set
/// when `D(i, j) − D(i − 1, j)` is +1/−1, and bit `r` of `Ph`/`Mh` when
/// `D(i, j) − D(i, j − 1)` is +1/−1, for the row `i` that bit `r` stands
/// for. Column 0 is the matrix border, whose vertical deltas are all +1.
///
/// A pair whose distance is at most [`BAND`], with a pattern longer than
/// 64 bases, is recorded in the one-word band, one word per column holding
/// rows `a_j..=a_j + 63` (`a_j = max(1, j − BAND)`, `r = i − a_j`):
/// `(n + 1)·4` words. Any other pair falls back to the blocked kernel,
/// ⌈m/64⌉ words per column (`r = i − 1`): `(n + 1)·⌈m/64⌉·4` words.
/// Either way [`up`](DeltaColumns::up), [`left`](DeltaColumns::left) and
/// [`diag`](DeltaColumns::diag) answer exactly as a filled `O(m·n)` table
/// would on every cell whose distance is at most `D(m, n)`, the only cells
/// a minimal-script traceback visits. Buffers are reused across calls.
#[derive(Debug, Clone, Default)]
pub struct DeltaColumns {
    words: usize,
    /// The column after which the window moves down one row per column:
    /// `BAND + 1` for a band recording, `usize::MAX` for a blocked one.
    slide: usize,
    cols: Vec<[u64; 4]>,
    scratch: MyersScratch,
}

impl DeltaColumns {
    /// Records `pattern` against `text`, replacing the previous recording:
    /// the one-word band when the pattern spans more than one word and the
    /// band proves `D(m, n) ≤ BAND`, the blocked kernel otherwise.
    pub fn record(&mut self, pattern: &[Base], text: &[Base]) {
        let (m, n) = (pattern.len(), text.len());
        let words = m.div_ceil(64);
        self.cols.clear();
        // A one-word pattern has nothing to save: the blocked kernel
        // already keeps one word per column, with no window to move.
        if words > 1 && m.abs_diff(n) <= BAND {
            let s = &mut self.scratch;
            eq_planes(&mut s.eq, pattern);
            let planes: [&[u64]; 4] = std::array::from_fn(|c| &s.eq[c * words..][..words]);
            let cols = &mut self.cols;
            cols.reserve(n + 1);
            cols.push([!0, 0, 0, 0]);
            let d = band_distance(
                m,
                n,
                text.iter().map(|base| base.index() as u8),
                |c| planes[(c & 3) as usize],
                BAND,
                |col| cols.push(col),
            );
            if d.is_some_and(|d| d <= BAND) {
                self.words = 1;
                self.slide = BAND + 1;
                return;
            }
        }
        self.record_blocked(pattern, text);
    }

    /// Records `pattern` against `text` with the blocked kernel.
    fn record_blocked(&mut self, pattern: &[Base], text: &[Base]) {
        let words = pattern.len().div_ceil(64);
        self.words = words;
        self.slide = usize::MAX;
        self.cols.clear();
        self.cols.resize(words, [!0, 0, 0, 0]);
        if words == 0 {
            return;
        }
        self.cols.reserve(text.len() * words);
        let s = &mut self.scratch;
        eq_planes(&mut s.eq, pattern);
        let (eq, cols) = (&s.eq, &mut self.cols);
        blocked_distance(
            &mut s.pv,
            &mut s.mv,
            pattern.len(),
            text.iter().map(|base| base.index() as u8),
            |c| &eq[(c & 3) as usize * words..][..words],
            |block| cols.push(block),
        );
    }

    /// Column `j`'s delta words for the word holding row `i ≥ 1`, and the
    /// row's bit in them.
    #[inline]
    fn block(&self, i: usize, j: usize) -> ([u64; 4], u64) {
        let r = i - 1 - j.saturating_sub(self.slide);
        (self.cols[j * self.words + (r >> 6)], 1u64 << (r & 63))
    }

    /// `D(i − 1, j) + 1 == D(i, j)`, for `i ≥ 1`.
    #[inline]
    pub fn up(&self, i: usize, j: usize) -> bool {
        let ([pv, ..], bit) = self.block(i, j);
        pv & bit != 0
    }

    /// `D(i, j − 1) + 1 == D(i, j)`, for `j ≥ 1`. Row 0 always is.
    #[inline]
    pub fn left(&self, i: usize, j: usize) -> bool {
        if i == 0 {
            return true;
        }
        let ([_, _, ph, _], bit) = self.block(i, j);
        ph & bit != 0
    }

    /// `D(i − 1, j − 1) + 1 == D(i, j)`, for `i, j ≥ 1`: the horizontal
    /// delta `h(i, j)` plus the vertical delta `v(i, j − 1)` is 1.
    #[inline]
    pub fn diag(&self, i: usize, j: usize) -> bool {
        let ([_, _, ph, mh], bit) = self.block(i, j);
        // Column j − 1's own bit for row i: the band's window moves
        // between the two columns.
        let ([pv, mv, ..], bit_prev) = self.block(i, j - 1);
        let h_plus = ph & bit != 0;
        let h_zero = (ph | mh) & bit == 0;
        let v_plus = pv & bit_prev != 0;
        let v_zero = (pv | mv) & bit_prev == 0;
        (h_plus && v_zero) || (h_zero && v_plus)
    }
}

/// Bounded distance: `Some(d)` with the exact distance when `d ≤ limit`,
/// `None` otherwise.
///
/// Rejects in O(1) when the length gap alone exceeds the limit and answers
/// equal strands in O(words). A limit up to [`BAND`] runs the one-word
/// diagonal band, one word per text column; a larger one runs the blocked
/// kernel. Both abandon the text scan once a lower bound on the distance
/// proves the limit unreachable.
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
    if p.is_empty() {
        // n ≤ limit is implied by the length-gap check above.
        return Some(t.len());
    }
    if limit <= BAND {
        // The band's value is exact when it is ≤ BAND and too large
        // otherwise, so comparing it with the limit decides exactly.
        let d = band_distance(
            p.len(),
            t.len(),
            t.codes(),
            |c| p.eq_by_code(c),
            limit,
            |_| {},
        )?;
        return (d <= limit).then_some(d);
    }
    within_blocked(scratch, p, t, limit)
}

/// [`within_with`]'s blocked kernel for a non-empty pattern `p` against
/// the text `t`, abandoning at the first column where the bottom-row score
/// proves the limit unreachable.
pub(crate) fn within_blocked(
    scratch: &mut MyersScratch,
    p: &PackedStrand,
    t: &PackedStrand,
    limit: usize,
) -> Option<usize> {
    let (m, n) = (p.len(), t.len());
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
            hin = step(pv, mv, eq, hin, 1 << 63).0;
        }
        score += step(
            &mut scratch.pv[last],
            &mut scratch.mv[last],
            eqs[last],
            hin,
            score_bit,
        )
        .0 as isize;
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
mod band_differential;

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
