//! Weighted Iterative reconstruction — the paper's second §4.3 proposal:
//! "assign a higher weightage to noisy copies that closely align with the
//! partially reconstructed strand".
//!
//! Each refinement round scores every read against the current estimate
//! (gestalt similarity) and lets high-scoring reads cast more votes:
//! near-junk reads stop dragging the consensus, without being discarded
//! outright (they still contribute where they do align).

use dnasim_core::Strand;
use dnasim_metrics::gestalt_score;

use crate::algorithms::TraceReconstructor;
use crate::consensus::{AlignmentVotes, LookaheadFilterStats};
use crate::scan::ReadRows;

/// Iterative reconstruction with per-read alignment weighting.
///
/// # Examples
///
/// ```
/// use dnasim_core::Strand;
/// use dnasim_reconstruct::{TraceReconstructor, WeightedIterative};
///
/// let reference: Strand = "ACGTACGTACGTACGTACGT".parse()?;
/// let reads = vec![
///     reference.clone(),
///     "ACGTACGACGTACGTACGT".parse()?,
///     reference.clone(),
/// ];
/// let algo = WeightedIterative::default();
/// assert_eq!(algo.reconstruct(&reads, 20), reference);
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedIterative {
    /// Look-ahead window for the initial scan.
    pub lookahead: usize,
    /// Maximum refinement rounds.
    pub max_rounds: usize,
    /// Weighting sharpness: vote weight is
    /// `round((score / best_score) ^ sharpness × scale)`. Higher values
    /// suppress poorly-aligned reads harder.
    pub sharpness: f64,
}

impl Default for WeightedIterative {
    fn default() -> WeightedIterative {
        WeightedIterative {
            lookahead: 2,
            max_rounds: 3,
            sharpness: 4.0,
        }
    }
}

/// Integer vote scale: weights are quantised to `0..=VOTE_SCALE`.
const VOTE_SCALE: f64 = 4.0;

impl WeightedIterative {
    /// One weighted alignment-and-vote round.
    fn refine(
        &self,
        votes: &mut AlignmentVotes,
        estimate: &Strand,
        reads: &[Strand],
        strand_len: usize,
    ) -> Strand {
        // Score each read against the current estimate.
        let scores: Vec<f64> = reads
            .iter()
            .map(|read| gestalt_score(estimate.as_bases(), read.as_bases()))
            .collect();
        let best = scores.iter().cloned().fold(0.0f64, f64::max).max(1e-9);
        let weights: Vec<usize> = scores
            .iter()
            .map(|&s| ((s / best).powf(self.sharpness) * VOTE_SCALE).round() as usize)
            .collect();
        let total_weight: usize = weights.iter().sum();

        votes.reset(estimate.len());
        for (read, &weight) in reads.iter().zip(&weights) {
            if weight > 0 {
                votes.align(estimate, read, weight);
            }
        }
        votes.consensus(estimate, reads, total_weight / 2, strand_len)
    }
}

impl TraceReconstructor for WeightedIterative {
    fn reconstruct(&self, reads: &[Strand], strand_len: usize) -> Strand {
        let votes = &mut AlignmentVotes::new();
        let stats = &mut LookaheadFilterStats::default();
        let mut estimate = ReadRows::new(reads, self.lookahead).scan(None, 0, strand_len, stats);
        for _ in 0..self.max_rounds {
            let refined = self.refine(votes, &estimate, reads, strand_len);
            if refined == estimate {
                break;
            }
            estimate = refined;
        }
        estimate
    }

    fn name(&self) -> String {
        "iterative-weighted".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Iterative;
    use dnasim_channel::{ErrorModel, NaiveModel};
    use dnasim_core::rng::seeded as seed_rng;

    fn s(text: &str) -> Strand {
        text.parse().unwrap()
    }

    #[test]
    fn clean_cluster_reconstructs_exactly() {
        let reference = s("ACGTACGTACGTACGTACGT");
        let reads = vec![reference.clone(); 5];
        assert_eq!(
            WeightedIterative::default().reconstruct(&reads, 20),
            reference
        );
    }

    #[test]
    fn output_length_is_exact() {
        let reads = vec![s("ACGTACG"), s("AC")];
        for len in [4usize, 10, 16] {
            assert_eq!(
                WeightedIterative::default().reconstruct(&reads, len).len(),
                len
            );
        }
    }

    #[test]
    fn empty_cluster_yields_filler() {
        assert_eq!(WeightedIterative::default().reconstruct(&[], 7).len(), 7);
    }

    #[test]
    fn junk_read_is_downweighted() {
        // Three clean copies plus one garbage read: weighting must keep the
        // garbage from perturbing the consensus.
        let reference = s("ACGTACGTACGTACGTACGTACGTACGT");
        let mut rng = seed_rng(3);
        let junk = Strand::random(28, &mut rng);
        let reads = vec![reference.clone(), junk, reference.clone(), reference.clone()];
        assert_eq!(
            WeightedIterative::default().reconstruct(&reads, 28),
            reference
        );
    }

    /// The §4.3 claim: weighting by alignment with the partial
    /// reconstruction improves accuracy when read quality is dispersed.
    #[test]
    fn weighting_beats_unweighted_with_quality_dispersion() {
        let clean = NaiveModel::with_total_rate(0.03);
        let junky = NaiveModel::with_total_rate(0.30);
        let mut rng = seed_rng(11);
        let trials = 80;
        let mut weighted_exact = 0usize;
        let mut unweighted_exact = 0usize;
        for _ in 0..trials {
            let reference = Strand::random(110, &mut rng);
            // 4 decent reads + 2 junk reads.
            let mut reads: Vec<Strand> =
                (0..4).map(|_| clean.corrupt(&reference, &mut rng)).collect();
            reads.push(junky.corrupt(&reference, &mut rng));
            reads.push(junky.corrupt(&reference, &mut rng));
            if WeightedIterative::default().reconstruct(&reads, 110) == reference {
                weighted_exact += 1;
            }
            if Iterative::default().reconstruct(&reads, 110) == reference {
                unweighted_exact += 1;
            }
        }
        assert!(
            weighted_exact > unweighted_exact,
            "weighted {weighted_exact} should beat unweighted {unweighted_exact}"
        );
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(WeightedIterative::default().name(), "iterative-weighted");
    }
}
