//! The trace-reconstruction algorithm suite.

use dnasim_core::Strand;

use crate::consensus::{positional_majority, AlignmentVotes};
use crate::scan::{ReadRows, ScanStats};

/// A trace-reconstruction algorithm: estimates the reference strand of
/// known design length from a cluster of noisy reads.
///
/// Implementations must return a strand of exactly `strand_len` bases and
/// be deterministic, so that experiment tables are reproducible. They are
/// `Send + Sync` so every evaluation can fan clusters out over a thread
/// pool.
pub trait TraceReconstructor: std::fmt::Debug + Send + Sync {
    /// Reconstructs an estimate of the reference from `reads`.
    fn reconstruct(&self, reads: &[Strand], strand_len: usize) -> Strand;

    /// A short name for tables and reports.
    fn name(&self) -> String;
}

impl<T: TraceReconstructor + ?Sized> TraceReconstructor for &T {
    fn reconstruct(&self, reads: &[Strand], strand_len: usize) -> Strand {
        (**self).reconstruct(reads, strand_len)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

impl<T: TraceReconstructor + ?Sized> TraceReconstructor for Box<T> {
    fn reconstruct(&self, reads: &[Strand], strand_len: usize) -> Strand {
        (**self).reconstruct(reads, strand_len)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

/// Plain per-position majority voting with no alignment — the control
/// baseline every alignment-aware algorithm must beat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MajorityVote;

impl TraceReconstructor for MajorityVote {
    fn reconstruct(&self, reads: &[Strand], strand_len: usize) -> Strand {
        positional_majority(reads, strand_len)
    }

    fn name(&self) -> String {
        "majority".to_owned()
    }
}

/// BMA Look-Ahead with **two-way execution** (the variant the paper
/// evaluates): a forward pass reconstructs the first half of the strand, a
/// backward pass over reversed reads reconstructs the second half, and the
/// halves are concatenated.
///
/// Because each pass's alignment errors accumulate *away* from its anchor
/// end, the residual errors pile up at the strand middle — the symmetric
/// A-shaped Hamming profile of Figs. 3.4c/3.7.
///
/// # Examples
///
/// ```
/// use dnasim_core::Strand;
/// use dnasim_reconstruct::{BmaLookahead, TraceReconstructor};
///
/// let reference: Strand = "ACGTACGTAC".parse()?;
/// let reads = vec![reference.clone(), "ACGTACGAC".parse()?, reference.clone()];
/// let bma = BmaLookahead::default();
/// assert_eq!(bma.reconstruct(&reads, 10), reference);
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BmaLookahead {
    /// Look-ahead window used to classify mismatches (default 3).
    pub lookahead: usize,
}

impl Default for BmaLookahead {
    fn default() -> BmaLookahead {
        BmaLookahead { lookahead: 3 }
    }
}

impl TraceReconstructor for BmaLookahead {
    fn reconstruct(&self, reads: &[Strand], strand_len: usize) -> Strand {
        let mut stats = ScanStats::default();
        let forward = ReadRows::new(reads, self.lookahead).scan(None, 0, strand_len, &mut stats);
        let backward =
            ReadRows::reversed(reads, self.lookahead).scan(None, 0, strand_len, &mut stats);
        let head_len = strand_len.div_ceil(2);
        let mut out = forward.substrand(0..head_len);
        // backward[k] estimates reference position strand_len - 1 - k; the
        // second half of the output is backward[..strand_len - head_len]
        // reversed.
        let tail = backward.substrand(0..strand_len - head_len).reversed();
        out.extend(tail.iter());
        out
    }

    fn name(&self) -> String {
        "bma".to_owned()
    }
}

/// One-way BMA Look-Ahead (forward only) — exposed for ablating the effect
/// of two-way execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneWayBma {
    /// Look-ahead window (default 3).
    pub lookahead: usize,
}

impl Default for OneWayBma {
    fn default() -> OneWayBma {
        OneWayBma { lookahead: 3 }
    }
}

impl TraceReconstructor for OneWayBma {
    fn reconstruct(&self, reads: &[Strand], strand_len: usize) -> Strand {
        let stats = &mut ScanStats::default();
        ReadRows::new(reads, self.lookahead).scan(None, 0, strand_len, stats)
    }

    fn name(&self) -> String {
        "bma-oneway".to_owned()
    }
}

/// Divider BMA: partitions the cluster by read length and takes the
/// column-wise majority of the reads whose length equals the design length
/// (falling back to unaligned majority over all reads when none do).
///
/// At Nanopore-scale error rates almost no read is *error-free* at length
/// `L` — equal-length reads usually contain cancelling indels — so the
/// unshifted column vote performs very poorly there (per-strand accuracies
/// of a few percent in Table 2.1), while being excellent on low-error data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DividerBma;

impl TraceReconstructor for DividerBma {
    fn reconstruct(&self, reads: &[Strand], strand_len: usize) -> Strand {
        let equal_length: Vec<Strand> = reads
            .iter()
            .filter(|r| r.len() == strand_len)
            .cloned()
            .collect();
        if equal_length.is_empty() {
            positional_majority(reads, strand_len)
        } else {
            positional_majority(&equal_length, strand_len)
        }
    }

    fn name(&self) -> String {
        "divbma".to_owned()
    }
}

/// Iterative reconstruction: a one-way scanning consensus refined by
/// repeated re-alignment rounds.
///
/// Pass 1 runs a forward-only look-ahead scan. Each refinement round
/// aligns every read against the current estimate (minimum edit script),
/// votes per estimate position on substitutions, deletions and insertions,
/// and applies the majority corrections; rounds repeat until a fixed point.
///
/// The initial scan is strictly left-to-right, so errors propagate
/// linearly toward the strand end (the asymmetric Hamming profile of
/// Fig. 3.4a), and an error burst at the strand *start* poisons the
/// alignment anchor for everything after it — which is why the algorithm
/// degrades so sharply under the terminal spatial skew of real Nanopore
/// data (§3.3.2) while excelling under uniform error.
///
/// Round 1's anchored rescan is skipped when the initial scan certifies
/// that the rescan would return the initial estimate unchanged: every
/// look-ahead majority it scored named the base it then emitted there.
/// The output is the same either way (DESIGN.md §26).
///
/// # Examples
///
/// ```
/// use dnasim_core::Strand;
/// use dnasim_reconstruct::{Iterative, TraceReconstructor};
///
/// let reference: Strand = "ACGTACGTAC".parse()?;
/// let reads = vec![reference.clone(), "ACGTCGTAC".parse()?, "ACGTAACGTAC".parse()?];
/// let algo = Iterative::default();
/// assert_eq!(algo.reconstruct(&reads, 10), reference);
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Iterative {
    /// Look-ahead window for the initial scan (default 2).
    pub lookahead: usize,
    /// Maximum refinement rounds (default 3).
    pub max_rounds: usize,
}

impl Default for Iterative {
    fn default() -> Iterative {
        Iterative {
            lookahead: 2,
            max_rounds: 3,
        }
    }
}

impl Iterative {
    /// [`TraceReconstructor::reconstruct`] over a caller's vote
    /// accumulator and the scan rows of `reads`, which every scan of the
    /// call shares; with it, the strand the last round refined (`None`
    /// when no round ran). The estimate is that strand's
    /// [`refine`](AlignmentVotes::refine) on both exits of the loop.
    fn reconstruct_with(
        &self,
        votes: &mut AlignmentVotes,
        rows: &ReadRows,
        reads: &[Strand],
        strand_len: usize,
    ) -> (Strand, Option<Strand>) {
        let mut stats = ScanStats::default();
        let (mut estimate, mut certified) = rows.scan_certified(strand_len, &mut stats);
        let mut refined_from = None;
        for _ in 0..self.max_rounds {
            // Anchored rescan locks drifted pointers back onto the current
            // estimate, then alignment voting applies majority corrections.
            // A certified initial scan is its own rescan; later anchors
            // come from `refine`, which no scan produced.
            let rescanned = if certified {
                estimate.clone()
            } else {
                rows.scan(Some(&estimate), 2, strand_len, &mut stats)
            };
            certified = false;
            let refined = votes.refine(&rescanned, reads, strand_len);
            refined_from = Some(rescanned);
            if refined == estimate {
                break;
            }
            estimate = refined;
        }
        (estimate, refined_from)
    }
}

impl TraceReconstructor for Iterative {
    fn reconstruct(&self, reads: &[Strand], strand_len: usize) -> Strand {
        let rows = ReadRows::new(reads, self.lookahead);
        self.reconstruct_with(&mut AlignmentVotes::new(), &rows, reads, strand_len)
            .0
    }

    fn name(&self) -> String {
        "iterative".to_owned()
    }
}

/// Two-way Iterative reconstruction — the improvement the paper proposes
/// (§4.3): run [`Iterative`] forward and on the reversed cluster, and
/// concatenate the halves each direction reconstructs reliably.
///
/// Each direction anchors at its own strand end, so terminal error skew no
/// longer poisons the whole strand — only the half farthest from each
/// anchor, which is exactly the half the other direction supplies.
///
/// The final alignment-vote pass over the stitched strand is skipped when
/// that strand is the one the forward pass refined last: `refine` is a
/// pure function of the strand, the reads and the design length, so its
/// result is the forward estimate already in hand (DESIGN.md §26).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoWayIterative {
    /// The underlying iterative configuration.
    pub inner: Iterative,
}

impl TraceReconstructor for TwoWayIterative {
    fn reconstruct(&self, reads: &[Strand], strand_len: usize) -> Strand {
        let votes = &mut AlignmentVotes::new();
        let lookahead = self.inner.lookahead;
        let rows = ReadRows::new(reads, lookahead);
        let (forward, refined_from) = self.inner.reconstruct_with(votes, &rows, reads, strand_len);
        // The backward pass aligns the reversed reads as strands, and scans
        // them through their reversed rows.
        let reversed: Vec<Strand> = reads.iter().map(Strand::reversed).collect();
        let rows = ReadRows::reversed(reads, lookahead);
        let (backward, _) = self
            .inner
            .reconstruct_with(votes, &rows, &reversed, strand_len);
        let head_len = strand_len.div_ceil(2);
        let mut out = forward.substrand(0..head_len);
        let tail = backward.substrand(0..strand_len - head_len).reversed();
        out.extend(tail.iter());
        // The stitch point can misalign by a base or two when the halves
        // drifted differently; a final alignment-vote pass heals it. When
        // the stitch is the strand the forward pass refined last, that
        // pass's result is the forward estimate.
        if refined_from.as_ref() == Some(&out) {
            return forward;
        }
        votes.refine(&out, reads, strand_len)
    }

    fn name(&self) -> String {
        "iterative-twoway".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_channel::{ErrorModel, NaiveModel};
    use dnasim_core::rng::seeded as seed_rng;
    use dnasim_metrics::hamming;

    fn s(text: &str) -> Strand {
        text.parse().unwrap()
    }

    fn all_algorithms() -> Vec<Box<dyn TraceReconstructor>> {
        vec![
            Box::new(MajorityVote),
            Box::new(BmaLookahead::default()),
            Box::new(OneWayBma::default()),
            Box::new(DividerBma),
            Box::new(Iterative::default()),
            Box::new(TwoWayIterative::default()),
        ]
    }

    #[test]
    fn clean_cluster_reconstructs_exactly() {
        let reference = s("ACGTACGTACGTACGTACGT");
        let reads = vec![reference.clone(); 5];
        for algo in all_algorithms() {
            assert_eq!(
                algo.reconstruct(&reads, 20),
                reference,
                "{} failed on a clean cluster",
                algo.name()
            );
        }
    }

    #[test]
    fn output_length_is_always_design_length() {
        let reads = vec![s("ACGTACG"), s("ACGTACGTACGTAAA"), s("AC")];
        for algo in all_algorithms() {
            for len in [5, 10, 12] {
                assert_eq!(
                    algo.reconstruct(&reads, len).len(),
                    len,
                    "{} wrong length",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn empty_cluster_yields_filler_of_design_length() {
        for algo in all_algorithms() {
            assert_eq!(algo.reconstruct(&[], 8).len(), 8, "{}", algo.name());
        }
    }

    #[test]
    fn bma_corrects_scattered_errors() {
        let reference = s("ACGTACGTACGTACGTACGTACGTACGTAC");
        let reads = vec![
            s("ACGTACGTACGTACGTACGTACGTACGTAC"),
            s("ACGTACTTACGTACGTACGTACGTACGTAC"),  // substitution
            s("ACGTACGTACGTACGACGTACGTACGTAC"),   // deletion
            s("ACGTACGTACGGTACGTACGTACGTACGTAC"), // insertion
            s("ACGTACGTACGTACGTACGTACGTACGTAC"),
        ];
        let bma = BmaLookahead::default();
        assert_eq!(bma.reconstruct(&reads, 30), reference);
    }

    #[test]
    fn iterative_corrects_scattered_errors() {
        let reference = s("ACGTACGTACGTACGTACGTACGTACGTAC");
        let reads = vec![
            s("ACGTACGTACGTACGTACGTACGTACGTAC"),
            s("ACGTACTTACGTACGTACGTACGTACGTAC"),
            s("ACGTACGTACGTACGACGTACGTACGTAC"),
            s("ACGTACGTACGGTACGTACGTACGTACGTAC"),
            s("ACGTACGTACGTACGTACGTACGTACGTAC"),
        ];
        let algo = Iterative::default();
        assert_eq!(algo.reconstruct(&reads, 30), reference);
    }

    #[test]
    fn divbma_uses_equal_length_reads_only() {
        // Two equal-length reads agree; a shorter read would shift votes if
        // it were (incorrectly) included.
        let reads = vec![s("ACGT"), s("ACGT"), s("CGT")];
        assert_eq!(DividerBma.reconstruct(&reads, 4), s("ACGT"));
    }

    #[test]
    fn divbma_falls_back_when_no_equal_length_reads() {
        let reads = vec![s("ACG"), s("ACG")];
        let out = DividerBma.reconstruct(&reads, 4);
        assert_eq!(out.len(), 4);
        assert!(out.starts_with(&s("ACG")));
    }

    /// Monte-Carlo comparison on a uniform-error channel: the alignment-
    /// aware algorithms should clearly beat unaligned majority, and
    /// Iterative should beat two-way BMA per-strand (the paper's ordering).
    #[test]
    fn algorithm_ordering_on_uniform_noise() {
        let model = NaiveModel::with_total_rate(0.06);
        let mut rng = seed_rng(77);
        let trials = 60;
        let coverage = 6;
        let len = 110;
        let mut exact = std::collections::HashMap::<String, usize>::new();
        for _ in 0..trials {
            let reference = Strand::random(len, &mut rng);
            let reads: Vec<Strand> = (0..coverage)
                .map(|_| model.corrupt(&reference, &mut rng))
                .collect();
            for algo in [
                Box::new(MajorityVote) as Box<dyn TraceReconstructor>,
                Box::new(BmaLookahead::default()),
                Box::new(Iterative::default()),
            ] {
                let est = algo.reconstruct(&reads, len);
                if est == reference {
                    *exact.entry(algo.name()).or_default() += 1;
                }
            }
        }
        let majority = exact.get("majority").copied().unwrap_or(0);
        let bma = exact.get("bma").copied().unwrap_or(0);
        let iterative = exact.get("iterative").copied().unwrap_or(0);
        assert!(
            bma > majority,
            "bma {bma} should beat unaligned majority {majority}"
        );
        // Iterative and two-way BMA are statistically close at this
        // coverage; allow a small sampling margin on 60 trials.
        assert!(
            iterative + 4 >= bma,
            "iterative {iterative} should be at least as accurate as bma {bma}"
        );
        assert!(iterative > trials / 2, "iterative too weak: {iterative}/{trials}");
    }

    /// The paper's one-way signature: Iterative's Hamming errors grow
    /// toward the strand end, BMA's pile in the middle.
    #[test]
    fn error_profiles_have_characteristic_shapes() {
        let model = NaiveModel::with_total_rate(0.12);
        let mut rng = seed_rng(99);
        let len = 120;
        let trials = 120;
        let coverage = 5;
        let mut iterative_profile = vec![0usize; len];
        let mut bma_profile = vec![0usize; len];
        for _ in 0..trials {
            let reference = Strand::random(len, &mut rng);
            let reads: Vec<Strand> = (0..coverage)
                .map(|_| model.corrupt(&reference, &mut rng))
                .collect();
            let it = Iterative::default().reconstruct(&reads, len);
            let bm = BmaLookahead::default().reconstruct(&reads, len);
            for i in 0..len {
                if it[i] != reference[i] {
                    iterative_profile[i] += 1;
                }
                if bm[i] != reference[i] {
                    bma_profile[i] += 1;
                }
            }
        }
        let third = len / 3;
        let sum = |p: &[usize]| p.iter().sum::<usize>().max(1);
        let head: usize = iterative_profile[..third].iter().sum();
        let tail: usize = iterative_profile[len - third..].iter().sum();
        assert!(
            tail > 2 * head.max(1),
            "iterative profile not end-skewed: head {head}, tail {tail} (total {})",
            sum(&iterative_profile)
        );
        let mid: usize = bma_profile[third..2 * third].iter().sum();
        let ends: usize = bma_profile[..third]
            .iter()
            .chain(&bma_profile[len - third..])
            .sum();
        assert!(
            2 * mid > ends,
            "bma profile not middle-skewed: mid {mid}, ends {ends}"
        );
    }

    /// The paper's §4.3 claim: two-way execution significantly improves
    /// Iterative reconstruction. (Behaviour under the realistic terminal
    /// skew is asserted against the Nanopore twin in the pipeline tests;
    /// here we verify the clean-room uniform case.)
    #[test]
    fn two_way_iterative_improves_exact_reconstruction() {
        use dnasim_channel::{ParametricModel, SpatialDistribution};
        let model = ParametricModel::new(0.10, SpatialDistribution::Uniform);
        let mut rng = seed_rng(123);
        let len = 110;
        let trials = 80;
        let coverage = 6;
        let mut one_way_errors = 0usize;
        let mut two_way_errors = 0usize;
        let mut one_way_exact = 0usize;
        let mut two_way_exact = 0usize;
        for _ in 0..trials {
            let reference = Strand::random(len, &mut rng);
            let reads: Vec<Strand> = (0..coverage)
                .map(|_| model.corrupt(&reference, &mut rng))
                .collect();
            let ow = Iterative::default().reconstruct(&reads, len);
            let tw = TwoWayIterative::default().reconstruct(&reads, len);
            one_way_errors += hamming(&reference, &ow);
            two_way_errors += hamming(&reference, &tw);
            one_way_exact += usize::from(ow == reference);
            two_way_exact += usize::from(tw == reference);
        }
        // Two-way execution must recover more strands exactly, without a
        // meaningful regression in total residual errors.
        assert!(
            two_way_exact > one_way_exact,
            "two-way exact ({two_way_exact}) should beat one-way ({one_way_exact})"
        );
        assert!(
            two_way_errors < one_way_errors + one_way_errors / 10,
            "two-way residual errors regressed: {two_way_errors} vs {one_way_errors}"
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(MajorityVote.name(), "majority");
        assert_eq!(OneWayBma::default().name(), "bma-oneway");
        assert_eq!(TwoWayIterative::default().name(), "iterative-twoway");
    }
}

#[cfg(test)]
mod differential;
