//! The look-ahead scan kernel behind BMA and Iterative reconstruction.
//!
//! [`ReadRows`] pads a cluster's reads once per `reconstruct` call into
//! rows of base-index bytes, and [`ReadRows::scan`] runs the one-way
//! look-ahead scan over them with its vote counts in register lanes. Its
//! output and [`LookaheadFilterStats`] equal the unfiltered oracle's
//! ([`anchored_one_way_bma`](crate::anchored_one_way_bma)) on every
//! cluster, at every coverage and look-ahead; DESIGN.md §24 has the
//! argument. [`ReadRows::scan_certified`] also certifies when an
//! anchored rescan would return the scan's own output (§26).

use dnasim_core::{Base, Strand};

use crate::consensus::LookaheadFilterStats;

/// The byte past every read's end. It is no base index, so it votes for
/// no base and never matches a look-ahead majority.
const END: u8 = 4;

/// `0x01` in every byte lane.
const ONES: u64 = 0x0101_0101_0101_0101;

/// `0x7f` in every byte lane.
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// Reads counted into one set of byte lanes before the lanes are flushed
/// into `usize` counts: a byte lane holds at most 255.
const LANE_MAX: usize = 255;

/// A cluster's reads as rows of base-index bytes (`A` = 0 … `T` = 3),
/// each padded with [`END`] bytes, built once per `reconstruct` call and
/// shared by every scan in it.
#[derive(Debug)]
pub(crate) struct ReadRows {
    /// Row `i` is `bytes[i * stride..(i + 1) * stride]`.
    bytes: Vec<u8>,
    lens: Vec<usize>,
    stride: usize,
    lookahead: usize,
}

impl ReadRows {
    /// The rows of `reads` for scans with a `lookahead`-base window.
    pub(crate) fn new(reads: &[Strand], lookahead: usize) -> ReadRows {
        ReadRows::build(reads, lookahead, false)
    }

    /// The rows of `reads` reversed, for the backward pass of a two-way
    /// scan.
    pub(crate) fn reversed(reads: &[Strand], lookahead: usize) -> ReadRows {
        ReadRows::build(reads, lookahead, true)
    }

    fn build(reads: &[Strand], lookahead: usize, reverse: bool) -> ReadRows {
        // A pointer runs at most one past its read's end, and the scan's
        // 8-byte loads reach `8·⌈L/8⌉ + 1` bytes past a pointer still inside
        // it, and 7 bytes past any pointer for a unanimous run (even at
        // look-ahead 0): every load stays in its own row, and every byte a
        // look-ahead lane compares past the end is `END`.
        let pad = 8 * lookahead.div_ceil(8).max(1) + 2;
        let lens: Vec<usize> = reads.iter().map(Strand::len).collect();
        let stride = lens.iter().copied().max().unwrap_or(0) + pad;
        let mut bytes = vec![END; reads.len() * stride];
        for (row, read) in bytes.chunks_exact_mut(stride).zip(reads) {
            let bases = read.as_bases();
            let codes = |b: &Base| b.index() as u8;
            if reverse {
                row.iter_mut()
                    .zip(bases.iter().rev().map(codes))
                    .for_each(|(d, c)| *d = c);
            } else {
                row.iter_mut()
                    .zip(bases.iter().map(codes))
                    .for_each(|(d, c)| *d = c);
            }
        }
        ReadRows {
            bytes,
            lens,
            stride,
            lookahead,
        }
    }

    /// The one-way look-ahead scan over these rows, with an optional
    /// `anchor` whose base at each position casts `anchor_weight` votes.
    ///
    /// Three short-circuits skip work without changing the output:
    ///
    /// * **Unanimity fast path** — an unanchored cluster of byte-identical
    ///   reads returns its read (cut or `A`-padded to `strand_len`) without
    ///   scanning: every column is unanimous and no pointer drifts.
    /// * **Unanimous runs** — when every read's next bytes equal read 0's
    ///   for `r` lanes, none of them `END`, and no anchor can outvote the
    ///   reads, the next `r` columns (at most up to `strand_len`) are
    ///   skipped windows emitting those bases, taken in one step
    ///   ([`unanimous_run`](ReadRows::unanimous_run)).
    /// * **Lazy look-ahead** — a column tallies its future-majority window
    ///   only when some read disagrees with the column majority, since only
    ///   a disagreeing read consults it.
    ///
    /// [`scan_certified`](ReadRows::scan_certified) is the same scan,
    /// unanchored, that also reports whether its output is provably what
    /// an anchored rescan on it would return.
    pub(crate) fn scan(
        &self,
        anchor: Option<&Strand>,
        anchor_weight: usize,
        strand_len: usize,
        stats: &mut LookaheadFilterStats,
    ) -> Strand {
        self.scan_with(anchor, anchor_weight, strand_len, stats, None)
    }

    /// The unanchored [`scan`](ReadRows::scan), and whether it is
    /// *certified*: `scan(Some(&out), w, ..)` returns `out` for every
    /// anchor weight `w ≥ 1`, so a caller that would rescan `out` anchored
    /// on itself can skip the rescan.
    ///
    /// The scan keeps each scored column's future-majority pattern in a
    /// buffer this call owns, and certifies when every look-ahead lane
    /// inside the strand holds the base it emitted there
    /// ([`certifies`](ReadRows::certifies); DESIGN.md §26 has the proof).
    /// The unanimity fast path scores no column, so it is certified.
    pub(crate) fn scan_certified(
        &self,
        strand_len: usize,
        stats: &mut LookaheadFilterStats,
    ) -> (Strand, bool) {
        let mut patterns = Vec::new();
        let out = self.scan_with(None, 0, strand_len, stats, Some(&mut patterns));
        let certified = self.certifies(&patterns, &out);
        (out, certified)
    }

    /// Whether the `patterns` an unanchored scan recorded agree with its
    /// output `out`: for every scored column `j` (an entry of `j`, then
    /// its pattern words) and look-ahead position `k` with
    /// `j + 1 + k < out.len()`, lane `k` holds `out[j + 1 + k]`. A lane
    /// with no votes holds `0xff`, which matches no base.
    fn certifies(&self, patterns: &[u64], out: &Strand) -> bool {
        let out = out.as_bases();
        let entry = 1 + self.lookahead.div_ceil(8);
        patterns.chunks_exact(entry).all(|entry| {
            let (j, words) = (entry[0] as usize, &entry[1..]);
            (0..self.lookahead).all(|k| {
                let lane = (words[k / 8] >> (8 * (k % 8))) & 0xff;
                out.get(j + 1 + k).is_none_or(|b| lane == b.index() as u64)
            })
        })
    }

    /// The scan behind [`scan`](ReadRows::scan), appending each scored
    /// column's index and pattern words to `patterns` when given.
    fn scan_with(
        &self,
        anchor: Option<&Strand>,
        anchor_weight: usize,
        strand_len: usize,
        stats: &mut LookaheadFilterStats,
        mut patterns: Option<&mut Vec<u64>>,
    ) -> Strand {
        // An anchor of weight 0 casts no vote anywhere.
        let anchor = anchor.filter(|_| anchor_weight > 0);
        if anchor.is_none() {
            if let Some(out) = self.unanimous(strand_len) {
                stats.unanimous_clusters += 1;
                return out;
            }
        }
        let lookahead = self.lookahead;
        // Each read's pointer, as an index into `bytes`.
        let mut pos: Vec<usize> = (0..self.lens.len()).map(|i| i * self.stride).collect();
        // Each read's byte at its pointer in the current column.
        let mut cur = vec![END; pos.len()];
        // The reads disagreeing with the current column's majority: the
        // first `disagree` entries.
        let mut disagreeing = vec![0usize; pos.len()];
        // The look-ahead lanes of each `LANE_MAX` reads.
        let mut blocks: Vec<[u64; 4]> = Vec::with_capacity(pos.len().div_ceil(LANE_MAX));
        // Their `[substitution, deletion, insertion]` scores.
        let mut scores = vec![[0u32; 3]; pos.len()];
        // The future majority, 8 look-ahead positions per word: byte `k`
        // holds the winning base index, or `0xff` (matches no byte) when
        // the position has no votes or lies past the window.
        let mut pattern = vec![u64::MAX; lookahead.div_ceil(8)];
        // A unanimous column's reads outvote the anchor only if there are
        // more of them than its weight (a tie may go to the anchor).
        let runs = anchor.is_none() || pos.len() > anchor_weight;
        let mut out = Strand::with_capacity(strand_len);
        let mut next = 0;
        while next < strand_len {
            let j = next;
            let run = if runs { self.unanimous_run(&pos) } else { 0 };
            if run > 0 {
                // Each column of the run is one every read agrees with:
                // its base wins, every pointer advances, and the window
                // is skipped.
                let run = run.min(strand_len - j);
                let lead = load8(&self.bytes, pos[0]);
                out.extend((0..run).map(|k| Base::ALL[((lead >> (8 * k)) & 3) as usize]));
                pos.iter_mut().for_each(|p| *p += run);
                stats.skipped_windows += run;
                next += run;
                continue;
            }
            next += 1;
            // Column votes: byte lane `b` counts the reads pointing at `b`.
            let mut counts = [0usize; 4];
            for (pos, cur) in pos.chunks(LANE_MAX).zip(cur.chunks_mut(LANE_MAX)) {
                let mut lanes = 0u64;
                for (&p, c) in pos.iter().zip(cur) {
                    let b = self.bytes[p];
                    *c = b;
                    lanes += u64::from(b < END) << (8 * u32::from(b & 3));
                }
                for (b, count) in counts.iter_mut().enumerate() {
                    *count += ((lanes >> (8 * b)) & 0xff) as usize;
                }
            }
            if let Some(b) = anchor.and_then(|a| a.get(j)) {
                counts[b.index()] += anchor_weight;
            }
            let Some(majority) = winner(&counts) else {
                // Every read exhausted: the unaligned column majority.
                out.push(self.column_majority(j));
                continue;
            };
            out.push(Base::ALL[usize::from(majority)]);

            // Agreeing reads advance now, which puts their pointers on the
            // first look-ahead position; disagreeing ones are listed.
            let mut disagree = 0;
            for (i, (p, &b)) in pos.iter_mut().zip(&cur).enumerate() {
                *p += usize::from(b == majority);
                disagreeing[disagree] = i;
                disagree += usize::from(b != majority && b != END);
            }
            if disagree == 0 {
                stats.skipped_windows += 1;
                continue;
            }
            stats.scored_windows += 1;

            // Future majority over the agreeing reads' next `lookahead`
            // bytes (plus the anchor's), 8 positions per word.
            for (w, word) in pattern.iter_mut().enumerate() {
                // `lanes[b]` byte `k`: agreeing reads with `b` at look-ahead
                // position `8w + k`, one set of lanes per `LANE_MAX` reads.
                blocks.clear();
                let window = &self.bytes[8 * w..];
                for (pos, cur) in pos.chunks(LANE_MAX).zip(cur.chunks(LANE_MAX)) {
                    let mut lanes = [0u64; 4];
                    for (&p, &b) in pos.iter().zip(cur) {
                        let agree = ONES & u64::from(b == majority).wrapping_neg();
                        let bytes = load8(window, p);
                        let bit0 = bytes & agree;
                        let bit1 = (bytes >> 1) & agree;
                        let bit2 = (bytes >> 2) & agree;
                        lanes[0] += agree & !(bit0 | bit1 | bit2);
                        lanes[1] += bit0 & !bit1;
                        lanes[2] += bit1 & !bit0;
                        lanes[3] += bit0 & bit1;
                    }
                    blocks.push(lanes);
                }
                *word = u64::MAX;
                for k in 0..(lookahead - 8 * w).min(8) {
                    let mut tally = [0usize; 4];
                    for lanes in &blocks {
                        for (count, lane) in tally.iter_mut().zip(lanes) {
                            *count += ((lane >> (8 * k)) & 0xff) as usize;
                        }
                    }
                    if let Some(b) = anchor.and_then(|a| a.get(j + 1 + 8 * w + k)) {
                        tally[b.index()] += anchor_weight;
                    }
                    if let Some(b) = winner(&tally) {
                        *word &= !(0xff << (8 * k));
                        *word |= u64::from(b) << (8 * k);
                    }
                }
            }
            if let Some(patterns) = patterns.as_deref_mut() {
                patterns.push(j as u64);
                patterns.extend_from_slice(&pattern);
            }

            // Classify each disagreeing read by how well its next symbols
            // match the future majority if this column's mismatch were a
            // substitution (skip one), a deletion in the read (skip none),
            // or an insertion in the read (skip two).
            let disagreeing = &disagreeing[..disagree];
            let scores = &mut scores[..disagree];
            scores.fill([0; 3]);
            for (w, &word) in pattern.iter().enumerate() {
                for (&i, [sub, del, ins]) in disagreeing.iter().zip(scores.iter_mut()) {
                    let at = pos[i] + 8 * w;
                    *sub += equal_bytes(load8(&self.bytes, at + 1), word);
                    *del += equal_bytes(load8(&self.bytes, at), word);
                    *ins += equal_bytes(load8(&self.bytes, at + 2), word);
                }
            }
            for (&i, &[sub, del, ins]) in disagreeing.iter().zip(scores.iter()) {
                // Ties prefer substitution (keeps the pointer in sync); a
                // deletion leaves the pointer where it is.
                if sub >= del && sub >= ins {
                    pos[i] += 1;
                } else if del < ins {
                    pos[i] += 2;
                }
            }
        }
        out
    }

    /// The number of byte lanes, from the reads' pointers `pos` on, in
    /// which every read holds read 0's byte and that byte is no `END`: at
    /// most 8, and 0 without reads.
    fn unanimous_run(&self, pos: &[usize]) -> usize {
        let Some((&first, rest)) = pos.split_first() else {
            return 0;
        };
        let lead = load8(&self.bytes, first);
        // `END` is the only byte with bit 2 set: its lanes end the run.
        let mut differ = (lead >> 2) & ONES;
        for &p in rest {
            differ |= load8(&self.bytes, p) ^ lead;
            if differ & 0xff != 0 {
                return 0;
            }
        }
        differ.trailing_zeros() as usize / 8
    }

    /// The scan's output when every read is byte-identical, or `None` when
    /// the reads differ or there are none: the lone read value, cut to the
    /// design length or padded with the scan's `A` filler (past the read's
    /// end the unaligned column majority is empty).
    fn unanimous(&self, strand_len: usize) -> Option<Strand> {
        let (&len, lens) = self.lens.split_first()?;
        let mut rows = self.bytes.chunks_exact(self.stride);
        let first = &rows.next()?[..len];
        if lens.iter().any(|&l| l != len) || rows.any(|row| &row[..len] != first) {
            return None;
        }
        let mut out = Strand::with_capacity(strand_len);
        out.extend(
            first
                .iter()
                .take(strand_len)
                .map(|&b| Base::ALL[usize::from(b)]),
        );
        while out.len() < strand_len {
            out.push(Base::A);
        }
        Some(out)
    }

    /// The majority base at row position `j` over the rows long enough to
    /// have one, or `A` when none does.
    fn column_majority(&self, j: usize) -> Base {
        let mut counts = [0usize; 4];
        for (row, &len) in self.bytes.chunks_exact(self.stride).zip(&self.lens) {
            if j < len {
                counts[usize::from(row[j])] += 1;
            }
        }
        winner(&counts).map_or(Base::A, |b| Base::ALL[usize::from(b)])
    }
}

/// The most-voted base index, ties broken toward alphabet order, or `None`
/// when no vote was cast.
fn winner(counts: &[usize; 4]) -> Option<u8> {
    let mut best = 0;
    for b in 1..4 {
        if counts[b] > counts[best] {
            best = b;
        }
    }
    (counts[best] > 0).then_some(best as u8)
}

/// The 8 bytes of `bytes` at `at`, byte `k` in lane `k`.
#[inline]
fn load8(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(word)
}

/// The number of byte lanes in which `a` and `b` are equal.
#[inline]
fn equal_bytes(a: u64, b: u64) -> u32 {
    let x = a ^ b;
    // Bit 7 of each lane is set iff the lane is nonzero: `(x & 0x7f) + 0x7f`
    // sets it for any nonzero low 7 bits without carrying out of the lane,
    // and `| x` adds the lane's own bit 7.
    let nonzero = ((x & LOW7) + LOW7) | x;
    let zero = !nonzero & !LOW7;
    ((zero >> 7).wrapping_mul(ONES) >> 56) as u32
}

#[cfg(test)]
mod differential;
