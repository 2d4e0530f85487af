//! Shared consensus primitives: per-position voting and alignment voting.

use dnasim_core::rng::{seeded, SimRng};
use dnasim_core::{Base, EditOp, Strand};
use dnasim_profile::{edit_ops_with, EditScratch, TieBreak};

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
        self.add(base, 1);
    }

    pub(crate) fn add(&mut self, base: Base, votes: usize) {
        self.counts[base.index()] += votes;
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

/// Alignment votes in an estimate's coordinates, shared by every
/// alignment-vote reconstructor (Iterative, its two-way and weighted
/// variants, and star-MSA).
///
/// Each read's minimal edit script against the estimate is traced with
/// [`edit_ops_with`] and voted straight from the traceback: matches and
/// substitutions vote for a base at their position, deletions vote the
/// position absent, insertions vote in the gap before it. One accumulator
/// lives for one `reconstruct` call, so the traceback scratch and the vote
/// vectors are reused across its rounds and directions, and nothing
/// crosses calls.
#[derive(Debug)]
pub(crate) struct AlignmentVotes {
    scratch: EditScratch,
    /// The deterministic tie-break never consults the RNG.
    rng: SimRng,
    sub: Vec<VoteTally>,
    del: Vec<usize>,
    /// `ins[p]`: insertions before estimate position `p` (`p == len` → at
    /// the very end).
    ins: Vec<VoteTally>,
}

impl AlignmentVotes {
    pub(crate) fn new() -> AlignmentVotes {
        AlignmentVotes {
            scratch: EditScratch::new(),
            rng: seeded(0),
            sub: Vec::new(),
            del: Vec::new(),
            ins: Vec::new(),
        }
    }

    /// Clears every vote for an estimate of `len` bases.
    pub(crate) fn reset(&mut self, len: usize) {
        self.sub.clear();
        self.sub.resize(len, VoteTally::new());
        self.del.clear();
        self.del.resize(len, 0);
        self.ins.clear();
        self.ins.resize(len + 1, VoteTally::new());
    }

    /// Aligns `read` to `estimate` and casts `weight` votes along its
    /// minimal edit script.
    pub(crate) fn align(&mut self, estimate: &Strand, read: &Strand, weight: usize) {
        let AlignmentVotes {
            scratch,
            rng,
            sub,
            del,
            ins,
        } = self;
        let tie_break = TieBreak::PreferSubstitution;
        edit_ops_with(scratch, estimate, read, tie_break, rng, |op, p| match op {
            EditOp::Equal(b) | EditOp::Subst { new: b, .. } => sub[p].add(b, weight),
            EditOp::Delete(_) => del[p] += weight,
            EditOp::Insert(b) => ins[p].add(b, weight),
        });
    }

    /// One unweighted alignment-and-vote round: every read votes once per
    /// op, and an insertion needs more than half of the reads.
    pub(crate) fn refine(
        &mut self,
        estimate: &Strand,
        reads: &[Strand],
        strand_len: usize,
    ) -> Strand {
        self.reset(estimate.len());
        for read in reads {
            self.align(estimate, read, 1);
        }
        self.consensus(estimate, reads, reads.len() / 2, strand_len)
    }

    /// The corrected estimate: an insertion is applied when its base wins
    /// more than `half` of the votes, and a base is dropped when more
    /// votes deleted it than kept it (relative majority: an absolute one
    /// is too conservative when some reads are misaligned). The result is
    /// cut to `strand_len`, or padded from the unaligned column majority
    /// of the raw `reads`.
    pub(crate) fn consensus(
        &self,
        estimate: &Strand,
        reads: &[Strand],
        half: usize,
        strand_len: usize,
    ) -> Strand {
        let mut out = Strand::with_capacity(strand_len);
        for (p, ins) in self.ins.iter().enumerate() {
            if let Some(winner) = ins.winner().filter(|&w| ins.count(w) > half) {
                out.push(winner);
            }
            if let Some(base) = estimate.get(p) {
                if self.del[p] <= self.sub[p].total() {
                    out.push(self.sub[p].winner().unwrap_or(base));
                }
            }
        }
        out.truncate(strand_len);
        while out.len() < strand_len {
            out.push(column_majority(reads, out.len()));
        }
        out
    }
}

/// The majority base at position `j` over the reads long enough to have
/// one, or `A` when none does.
fn column_majority(reads: &[Strand], j: usize) -> Base {
    let mut tally = VoteTally::new();
    for read in reads {
        if let Some(b) = read.get(j) {
            tally.vote(b);
        }
    }
    tally.winner().unwrap_or(Base::A)
}

/// Plain per-position majority vote over unaligned reads — the simplest
/// possible reconstructor and the column rule other algorithms reuse.
///
/// Position `j` of the output is the majority of `reads[t][j]` over all
/// reads long enough; positions no read covers fall back to `A`.
pub(crate) fn positional_majority(reads: &[Strand], strand_len: usize) -> Strand {
    (0..strand_len).map(|j| column_majority(reads, j)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::oracle::{anchored_one_way_bma, one_way_bma};
    use crate::scan::{ReadRows, ScanStats};

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

    /// The scan kernel's short-circuits, the unanimity fast path and the
    /// lazy look-ahead, are pure work-skips: the kernel must be
    /// byte-identical to the unfiltered scan on seeded noisy corpora —
    /// including error rate 0.0, where the unanimity fast path
    /// short-circuits whole clusters.
    #[test]
    fn filtered_scan_matches_oracle_differentially() {
        use dnasim_channel::{ErrorModel, NaiveModel};
        use dnasim_core::rng::seeded;
        let mut total = ScanStats::default();
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
                    let mut stats = ScanStats::default();
                    assert_eq!(
                        ReadRows::new(&reads, lookahead).scan(None, 0, len, &mut stats),
                        one_way_bma(&reads, len, lookahead),
                        "filtered one-way scan diverged (seed {seed}, rate {rate})"
                    );
                    let anchor = model.corrupt(&reference, &mut rng);
                    assert_eq!(
                        ReadRows::new(&reads, lookahead).scan(Some(&anchor), 2, len, &mut stats),
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
            let mut stats = ScanStats::default();
            assert_eq!(
                ReadRows::new(&reads, 3).scan(None, 0, len, &mut stats),
                one_way_bma(&reads, len, 3),
                "unanimous cluster output diverged at design length {len}"
            );
            assert_eq!(stats.unanimous_clusters, 1);
        }
        // Empty clusters skip the fast path but still match the oracle.
        let mut stats = ScanStats::default();
        assert_eq!(ReadRows::new(&[], 3).scan(None, 0, 5, &mut stats), one_way_bma(&[], 5, 3));
        assert_eq!(stats.unanimous_clusters, 0);
    }
}
