//! Shared consensus primitives: per-position voting and the one-way
//! look-ahead scan that BMA and Iterative reconstruction build on.

use dnasim_core::{Base, Strand};

/// A per-position vote tally over the four bases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct VoteTally {
    counts: [usize; 4],
}

impl VoteTally {
    pub(crate) fn new() -> VoteTally {
        VoteTally::default()
    }

    pub(crate) fn vote(&mut self, base: Base) {
        self.counts[base.index()] += 1;
    }

    pub(crate) fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    pub(crate) fn count(&self, base: Base) -> usize {
        self.counts[base.index()]
    }

    /// The winning base (ties break toward alphabet order), or `None` if no
    /// votes were cast.
    pub(crate) fn winner(&self) -> Option<Base> {
        let max = self.counts.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return None;
        }
        Base::ALL
            .into_iter()
            .find(|b| self.counts[b.index()] == max)
    }
}

/// Plain per-position majority vote over unaligned reads — the simplest
/// possible reconstructor and the column rule other algorithms reuse.
///
/// Position `j` of the output is the majority of `reads[t][j]` over all
/// reads long enough; positions no read covers fall back to `A`.
pub fn positional_majority(reads: &[Strand], strand_len: usize) -> Strand {
    let mut out = Strand::with_capacity(strand_len);
    for j in 0..strand_len {
        let mut tally = VoteTally::new();
        for read in reads {
            if let Some(b) = read.get(j) {
                tally.vote(b);
            }
        }
        out.push(tally.winner().unwrap_or(Base::A));
    }
    out
}

/// One-way Bitwise Majority Alignment with a look-ahead window.
///
/// Scans output positions left to right keeping a pointer into every read.
/// Each column takes the majority of the pointed-at symbols; reads that
/// disagree are classified as substitution / deletion / insertion by
/// scoring their next `lookahead` symbols against the *future majority*
/// (the majority of the other reads' upcoming symbols), and their pointer
/// is advanced accordingly. Errors therefore propagate only forward — the
/// linear error profile the paper measures for one-way algorithms.
pub fn one_way_bma(reads: &[Strand], strand_len: usize, lookahead: usize) -> Strand {
    anchored_one_way_bma(reads, None, 0, strand_len, lookahead)
}

/// [`one_way_bma`] with an optional *anchor*: a previous estimate whose
/// base at each output position casts `anchor_weight` extra votes.
///
/// Re-scanning with the last estimate as anchor stabilises pointer drift:
/// reads that lost sync re-lock onto the anchor's context, while genuine
/// anchor errors are outvoted by the reads. Iterative reconstruction
/// alternates this with alignment-based refinement.
pub fn anchored_one_way_bma(
    reads: &[Strand],
    anchor: Option<&Strand>,
    anchor_weight: usize,
    strand_len: usize,
    lookahead: usize,
) -> Strand {
    scan_core(reads, anchor, anchor_weight, strand_len, lookahead, None)
}

/// Work skipped (and done) by the filtered look-ahead scan.
///
/// The counters exist so tests and diagnostics can prove the prefilter
/// actually engaged; they have no effect on the reconstruction itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookaheadFilterStats {
    /// Clusters short-circuited whole by the q-gram unanimity fast path.
    pub unanimous_clusters: usize,
    /// Columns whose look-ahead window was never tallied because every
    /// read agreed with the column majority.
    pub skipped_windows: usize,
    /// Columns that did tally the look-ahead window.
    pub scored_windows: usize,
}

impl LookaheadFilterStats {
    /// Sums another run's counters into this one.
    pub fn absorb(&mut self, other: &LookaheadFilterStats) {
        self.unanimous_clusters += other.unanimous_clusters;
        self.skipped_windows += other.skipped_windows;
        self.scored_windows += other.scored_windows;
    }
}

/// [`one_way_bma`] with the q-gram error-ball prefilter — byte-identical
/// output, less work (differentially tested against the unfiltered scan).
///
/// Two exact short-circuits:
///
/// * **Unanimity fast path** — a cluster of byte-identical reads skips the
///   scan entirely, since every column's majority is unanimous and no
///   pointer ever drifts.
/// * **Lazy look-ahead** — the future-majority window is only consulted
///   when classifying a *disagreeing* read, so columns where every read
///   matches the majority never tally it.
pub fn one_way_bma_filtered(
    reads: &[Strand],
    strand_len: usize,
    lookahead: usize,
    stats: &mut LookaheadFilterStats,
) -> Strand {
    anchored_one_way_bma_filtered(reads, None, 0, strand_len, lookahead, stats)
}

/// [`anchored_one_way_bma`] with the q-gram error-ball prefilter — see
/// [`one_way_bma_filtered`]. The unanimity fast path only applies to
/// unanchored scans (an anchor can outvote unanimous reads), so anchored
/// calls get the lazy look-ahead alone.
pub fn anchored_one_way_bma_filtered(
    reads: &[Strand],
    anchor: Option<&Strand>,
    anchor_weight: usize,
    strand_len: usize,
    lookahead: usize,
    stats: &mut LookaheadFilterStats,
) -> Strand {
    if anchor.is_none() || anchor_weight == 0 {
        if let Some(out) = unanimous_consensus(reads, strand_len) {
            stats.unanimous_clusters += 1;
            return out;
        }
    }
    scan_core(reads, anchor, anchor_weight, strand_len, lookahead, Some(stats))
}

/// The scan's output when every read is byte-identical, or `None` when the
/// reads differ: the lone read value, truncated to the design length or
/// padded with the scan's `A` filler.
fn unanimous_consensus(reads: &[Strand], strand_len: usize) -> Option<Strand> {
    let (first, rest) = reads.split_first()?;
    if rest.iter().any(|r| r != first) {
        return None;
    }
    // Unanimous cluster: every column majority is the read's own base and
    // no pointer ever drifts; past the read's end the scan falls back to
    // the unaligned column majority, which is empty — the `A` filler.
    let mut out = Strand::with_capacity(strand_len);
    out.extend(first.iter().take(strand_len));
    while out.len() < strand_len {
        out.push(Base::A);
    }
    Some(out)
}

/// The one-way scan shared by the oracle and filtered entry points. With
/// `filter: Some(_)`, the look-ahead window is tallied lazily (only for
/// columns with a disagreeing read) — provably output-identical, since the
/// window is consulted nowhere else.
fn scan_core(
    reads: &[Strand],
    anchor: Option<&Strand>,
    anchor_weight: usize,
    strand_len: usize,
    lookahead: usize,
    mut filter: Option<&mut LookaheadFilterStats>,
) -> Strand {
    let mut out = Strand::with_capacity(strand_len);
    let mut ptrs: Vec<usize> = vec![0; reads.len()];
    // Look-ahead buffers reused across all output positions: allocating
    // them inside the column loop dominated this scan's cost.
    let mut future: Vec<VoteTally> = vec![VoteTally::new(); lookahead];
    let mut future_majority: Vec<Option<Base>> = vec![None; lookahead];
    for j in 0..strand_len {
        // Column majority (the anchor, when present, casts weighted votes).
        let mut tally = VoteTally::new();
        for (read, &ptr) in reads.iter().zip(&ptrs) {
            if let Some(b) = read.get(ptr) {
                tally.vote(b);
            }
        }
        if let (Some(anchor), true) = (anchor, anchor_weight > 0) {
            if let Some(b) = anchor.get(j) {
                for _ in 0..anchor_weight {
                    tally.vote(b);
                }
            }
        }
        let Some(majority) = tally.winner() else {
            // Every read exhausted: fall back to unaligned column majority
            // for the remaining positions.
            let j = out.len();
            let mut fallback = VoteTally::new();
            for read in reads {
                if let Some(b) = read.get(j) {
                    fallback.vote(b);
                }
            }
            out.push(fallback.winner().unwrap_or(Base::A));
            continue;
        };
        out.push(majority);

        // The future-majority window is only ever consulted when a read
        // *disagrees* with the column majority, so the filtered scan skips
        // tallying it for fully-agreeing columns (the common case on
        // healthy clusters) — output-identical by construction.
        if let Some(stats) = filter.as_deref_mut() {
            let any_disagree = reads
                .iter()
                .zip(&ptrs)
                .any(|(read, &ptr)| matches!(read.get(ptr), Some(b) if b != majority));
            if !any_disagree {
                stats.skipped_windows += 1;
                for (read, ptr) in reads.iter().zip(&mut ptrs) {
                    if read.get(*ptr).is_some() {
                        *ptr += 1;
                    }
                }
                continue;
            }
            stats.scored_windows += 1;
        }

        // Future majority over the look-ahead window, computed from the
        // reads that *agreed* with this column's majority (their pointers
        // are most likely in sync; drifted reads would pollute the window).
        future.iter_mut().for_each(|t| *t = VoteTally::new());
        for (read, &ptr) in reads.iter().zip(&ptrs) {
            if read.get(ptr) != Some(majority) {
                continue;
            }
            for (k, tally) in future.iter_mut().enumerate() {
                if let Some(b) = read.get(ptr + 1 + k) {
                    tally.vote(b);
                }
            }
        }
        if let (Some(anchor), true) = (anchor, anchor_weight > 0) {
            for (k, tally) in future.iter_mut().enumerate() {
                if let Some(b) = anchor.get(j + 1 + k) {
                    for _ in 0..anchor_weight {
                        tally.vote(b);
                    }
                }
            }
        }
        for (fm, tally) in future_majority.iter_mut().zip(&future) {
            *fm = tally.winner();
        }

        for (read, ptr) in reads.iter().zip(&mut ptrs) {
            match read.get(*ptr) {
                None => {} // exhausted
                Some(b) if b == majority => *ptr += 1,
                Some(_) => {
                    // Hypothesis windows: where would the next symbols sit
                    // if this column's mismatch were a substitution (skip
                    // one), a deletion in the read (skip none), or an
                    // insertion in the read (skip two)?
                    let score = |offset: usize| -> usize {
                        future_majority
                            .iter()
                            .enumerate()
                            .filter(|(k, fm)| {
                                fm.is_some() && read.get(*ptr + offset + k) == **fm
                            })
                            .count()
                    };
                    let sub = score(1);
                    let del = score(0);
                    let ins = score(2);
                    // Ties prefer substitution (keeps the pointer in sync).
                    if sub >= del && sub >= ins {
                        *ptr += 1;
                    } else if del >= ins {
                        // Read is missing the majority base: don't advance.
                    } else {
                        *ptr += 2;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(text: &str) -> Strand {
        text.parse().unwrap()
    }

    #[test]
    fn tally_winner_breaks_ties_alphabetically() {
        let mut t = VoteTally::new();
        t.vote(Base::T);
        t.vote(Base::C);
        assert_eq!(t.winner(), Some(Base::C));
        assert_eq!(t.total(), 2);
        assert_eq!(t.count(Base::T), 1);
    }

    #[test]
    fn tally_empty_has_no_winner() {
        assert_eq!(VoteTally::new().winner(), None);
    }

    #[test]
    fn majority_on_identical_reads() {
        let reads = vec![s("ACGT"), s("ACGT"), s("ACGT")];
        assert_eq!(positional_majority(&reads, 4), s("ACGT"));
    }

    #[test]
    fn majority_outvotes_single_substitution() {
        let reads = vec![s("ACGT"), s("AAGT"), s("ACGT")];
        assert_eq!(positional_majority(&reads, 4), s("ACGT"));
    }

    #[test]
    fn majority_fills_uncovered_positions_with_a() {
        let reads = vec![s("GG")];
        assert_eq!(positional_majority(&reads, 4), s("GGAA"));
    }

    #[test]
    fn one_way_bma_recovers_clean_cluster() {
        let reads = vec![s("ACGTACGTAC"); 5];
        assert_eq!(one_way_bma(&reads, 10, 3), s("ACGTACGTAC"));
    }

    #[test]
    fn one_way_bma_corrects_deletion() {
        // One read lost the G at position 2; majority + resync recovers it.
        let reads = vec![s("ACGTACGTAC"), s("ACTACGTAC"), s("ACGTACGTAC")];
        assert_eq!(one_way_bma(&reads, 10, 3), s("ACGTACGTAC"));
    }

    #[test]
    fn one_way_bma_corrects_insertion() {
        let reads = vec![s("ACGTACGTAC"), s("ACTGTACGTAC"), s("ACGTACGTAC")];
        assert_eq!(one_way_bma(&reads, 10, 3), s("ACGTACGTAC"));
    }

    #[test]
    fn one_way_bma_corrects_substitution() {
        let reads = vec![s("ACGTACGTAC"), s("ACATACGTAC"), s("ACGTACGTAC")];
        assert_eq!(one_way_bma(&reads, 10, 3), s("ACGTACGTAC"));
    }

    #[test]
    fn one_way_bma_handles_exhausted_reads() {
        let reads = vec![s("AC"), s("AC")];
        let out = one_way_bma(&reads, 5, 3);
        assert_eq!(out.len(), 5);
        assert!(out.starts_with(&s("AC")));
    }

    #[test]
    fn one_way_bma_empty_cluster_yields_filler() {
        let out = one_way_bma(&[], 4, 3);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn one_way_bma_output_length_is_exact() {
        let reads = vec![s("ACGTACG"), s("ACGTACGTACGTACG")];
        assert_eq!(one_way_bma(&reads, 10, 3).len(), 10);
    }

    /// The q-gram prefilter and lazy look-ahead are pure work-skips: the
    /// filtered scan must be byte-identical to the oracle on seeded noisy
    /// corpora — including error rate 0.0, where the unanimity fast path
    /// short-circuits whole clusters.
    #[test]
    fn filtered_scan_matches_oracle_differentially() {
        use dnasim_channel::{ErrorModel, NaiveModel};
        use dnasim_core::rng::seeded;
        let mut total = LookaheadFilterStats::default();
        for (seed, rate) in [(5u64, 0.0f64), (6, 0.0), (17, 0.02), (29, 0.08), (31, 0.15)] {
            let model = NaiveModel::with_total_rate(rate);
            let mut rng = seeded(seed);
            for trial in 0..40 {
                let len = 40 + (trial % 5) * 23;
                let reference = Strand::random(len, &mut rng);
                let coverage = 1 + trial % 7;
                let reads: Vec<Strand> =
                    (0..coverage).map(|_| model.corrupt(&reference, &mut rng)).collect();
                for lookahead in [1usize, 3] {
                    let mut stats = LookaheadFilterStats::default();
                    assert_eq!(
                        one_way_bma_filtered(&reads, len, lookahead, &mut stats),
                        one_way_bma(&reads, len, lookahead),
                        "filtered one-way scan diverged (seed {seed}, rate {rate})"
                    );
                    let anchor = model.corrupt(&reference, &mut rng);
                    assert_eq!(
                        anchored_one_way_bma_filtered(
                            &reads,
                            Some(&anchor),
                            2,
                            len,
                            lookahead,
                            &mut stats
                        ),
                        anchored_one_way_bma(&reads, Some(&anchor), 2, len, lookahead),
                        "filtered anchored scan diverged (seed {seed}, rate {rate})"
                    );
                    total.absorb(&stats);
                }
            }
        }
        // The filter must actually engage, in both modes.
        assert!(total.unanimous_clusters > 0, "unanimity fast path never fired");
        assert!(total.skipped_windows > 0, "lazy look-ahead never skipped a window");
        assert!(total.scored_windows > 0, "noisy columns must still score windows");
    }

    #[test]
    fn unanimity_fast_path_pads_and_truncates_like_the_scan() {
        for (reads, len) in [
            (vec![s("ACGTACGTACGT"); 4], 8usize),
            (vec![s("ACGTACGTACGT"); 4], 12),
            (vec![s("ACGT"); 3], 9),
            (vec![s("ACGTACGTACGT")], 12),
        ] {
            let mut stats = LookaheadFilterStats::default();
            assert_eq!(
                one_way_bma_filtered(&reads, len, 3, &mut stats),
                one_way_bma(&reads, len, 3),
                "unanimous cluster output diverged at design length {len}"
            );
            assert_eq!(stats.unanimous_clusters, 1);
        }
        // Empty clusters skip the fast path but still match the oracle.
        let mut stats = LookaheadFilterStats::default();
        assert_eq!(one_way_bma_filtered(&[], 5, 3, &mut stats), one_way_bma(&[], 5, 3));
        assert_eq!(stats.unanimous_clusters, 0);
    }
}
