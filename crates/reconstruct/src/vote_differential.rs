//! Differential tests: the alignment-vote reconstructors, which vote
//! straight from the edit-script traceback through one shared accumulator,
//! against a local copy of the script-then-vote refinement they replaced.
//!
//! The oracle below builds a full `EditScript` per read with
//! `edit_script_with`, walks its ops to cast votes, and applies the same
//! consensus rules with its own tally. `Iterative`, `TwoWayIterative`,
//! `WeightedIterative` and `MsaReconstructor` must give byte-identical
//! output over seeded `NaiveModel` corpora: error rates 0–15%, lengths
//! 20–200 (single- and multi-block estimates), coverage 0–12, with junk
//! reads that weighting silences.

use dnasim_channel::{ErrorModel, NaiveModel};
use dnasim_core::rng::seeded;
use dnasim_core::{Base, EditOp, PackedStrand, Strand};
use dnasim_metrics::{gestalt_score, myers};
use dnasim_profile::{edit_script_with, EditScratch, TieBreak};

use crate::consensus::positional_majority;
use crate::scan::oracle::{anchored_one_way_bma, one_way_bma};
use crate::{
    Iterative, MsaReconstructor, TraceReconstructor, TwoWayIterative, WeightedIterative,
};

/// The per-position tally the reconstructors use: ties go to alphabet
/// order.
#[derive(Clone, Copy, Default)]
struct Tally([usize; 4]);

impl Tally {
    fn add(&mut self, base: Base, n: usize) {
        self.0[base.index()] += n;
    }

    fn total(&self) -> usize {
        self.0.iter().sum()
    }

    fn winner(&self) -> Option<Base> {
        let max = self.0.iter().copied().max().unwrap_or(0);
        (max > 0).then(|| Base::ALL.into_iter().find(|b| self.0[b.index()] == max))?
    }
}

/// Script-then-vote refinement: one `EditScript` per read with a nonzero
/// weight, votes cast by walking its ops, then the consensus rules.
/// `self_vote` is star-MSA's centre, which votes its own bases instead of
/// aligning.
fn oracle_refine(
    estimate: &Strand,
    reads: &[Strand],
    weights: &[usize],
    half: usize,
    strand_len: usize,
    self_vote: Option<usize>,
) -> Strand {
    let est_len = estimate.len();
    let mut sub_votes = vec![Tally::default(); est_len];
    let mut del_votes = vec![0usize; est_len];
    let mut ins_votes = vec![Tally::default(); est_len + 1];
    let mut rng = seeded(0);
    let mut scratch = EditScratch::new();
    for (k, (read, &weight)) in reads.iter().zip(weights).enumerate() {
        if self_vote == Some(k) {
            for (p, b) in estimate.iter().enumerate() {
                sub_votes[p].add(b, 1);
            }
            continue;
        }
        if weight == 0 {
            continue;
        }
        let script = edit_script_with(
            &mut scratch,
            estimate,
            read,
            TieBreak::PreferSubstitution,
            &mut rng,
        );
        let mut p = 0usize;
        for &op in script.ops() {
            match op {
                EditOp::Equal(b) => sub_votes[p].add(b, weight),
                EditOp::Subst { new, .. } => sub_votes[p].add(new, weight),
                EditOp::Delete(_) => del_votes[p] += weight,
                EditOp::Insert(b) => ins_votes[p].add(b, weight),
            }
            p += op.reference_advance();
        }
    }
    let mut out = Strand::with_capacity(strand_len);
    for p in 0..est_len {
        if let Some(winner) = ins_votes[p].winner() {
            if ins_votes[p].0[winner.index()] > half {
                out.push(winner);
            }
        }
        if del_votes[p] > sub_votes[p].total() {
            continue;
        }
        out.push(sub_votes[p].winner().unwrap_or(estimate[p]));
    }
    if let Some(winner) = ins_votes[est_len].winner() {
        if ins_votes[est_len].0[winner.index()] > half {
            out.push(winner);
        }
    }
    out.truncate(strand_len);
    while out.len() < strand_len {
        let j = out.len();
        let mut tally = Tally::default();
        for read in reads {
            if let Some(b) = read.get(j) {
                tally.add(b, 1);
            }
        }
        out.push(tally.winner().unwrap_or(Base::A));
    }
    out
}

fn oracle_iterative_refine(estimate: &Strand, reads: &[Strand], strand_len: usize) -> Strand {
    let ones = vec![1; reads.len()];
    oracle_refine(estimate, reads, &ones, reads.len() / 2, strand_len, None)
}

fn oracle_iterative(algo: &Iterative, reads: &[Strand], strand_len: usize) -> Strand {
    let mut estimate = one_way_bma(reads, strand_len, algo.lookahead);
    for _ in 0..algo.max_rounds {
        let rescanned =
            anchored_one_way_bma(reads, Some(&estimate), 2, strand_len, algo.lookahead);
        let refined = oracle_iterative_refine(&rescanned, reads, strand_len);
        if refined == estimate {
            break;
        }
        estimate = refined;
    }
    estimate
}

fn oracle_two_way(algo: &TwoWayIterative, reads: &[Strand], strand_len: usize) -> Strand {
    let forward = oracle_iterative(&algo.inner, reads, strand_len);
    let reversed: Vec<Strand> = reads.iter().map(Strand::reversed).collect();
    let backward = oracle_iterative(&algo.inner, &reversed, strand_len);
    let head_len = strand_len.div_ceil(2);
    let mut out = forward.substrand(0..head_len);
    out.extend(
        backward
            .substrand(0..strand_len - head_len)
            .reversed()
            .iter(),
    );
    oracle_iterative_refine(&out, reads, strand_len)
}

fn oracle_weighted(algo: &WeightedIterative, reads: &[Strand], strand_len: usize) -> Strand {
    let mut estimate = one_way_bma(reads, strand_len, algo.lookahead);
    for _ in 0..algo.max_rounds {
        let scores: Vec<f64> = reads
            .iter()
            .map(|read| gestalt_score(estimate.as_bases(), read.as_bases()))
            .collect();
        let best = scores.iter().cloned().fold(0.0f64, f64::max).max(1e-9);
        let weights: Vec<usize> = scores
            .iter()
            .map(|&s| ((s / best).powf(algo.sharpness) * 4.0).round() as usize)
            .collect();
        let half = weights.iter().sum::<usize>() / 2;
        let refined = oracle_refine(&estimate, reads, &weights, half, strand_len, None);
        if refined == estimate {
            break;
        }
        estimate = refined;
    }
    estimate
}

fn oracle_msa(reads: &[Strand], strand_len: usize) -> Strand {
    if reads.is_empty() {
        return positional_majority(reads, strand_len);
    }
    // The star-MSA medoid: the first read with the least total distance.
    let packed: Vec<PackedStrand> = reads.iter().map(PackedStrand::from).collect();
    let mut centre = (0, usize::MAX);
    if reads.len() > 2 {
        for (i, p) in packed.iter().enumerate() {
            let total: usize = packed.iter().map(|q| myers::distance(p, q)).sum();
            if total < centre.1 {
                centre = (i, total);
            }
        }
    }
    let ones = vec![1; reads.len()];
    let half = reads.len() / 2;
    oracle_refine(
        &reads[centre.0],
        reads,
        &ones,
        half,
        strand_len,
        Some(centre.0),
    )
}

/// Seeded clusters over the corpus grid: every length × error rate ×
/// coverage, plus a junk-read variant of the larger clusters.
fn corpus() -> Vec<(Vec<Strand>, usize)> {
    let mut rng = seeded(0x5eed);
    let mut clusters = Vec::new();
    for len in [20, 37, 63, 64, 65, 110, 128, 129, 176, 200] {
        for rate in [0.0, 0.03, 0.059, 0.10, 0.15] {
            let model = NaiveModel::with_total_rate(rate);
            for coverage in [0, 1, 2, 3, 5, 8, 12] {
                let reference = Strand::random(len, &mut rng);
                let mut reads: Vec<Strand> = (0..coverage)
                    .map(|_| model.corrupt(&reference, &mut rng))
                    .collect();
                clusters.push((reads.clone(), len));
                if coverage >= 5 {
                    reads.push(Strand::random(len, &mut rng));
                    clusters.push((reads, len));
                }
            }
        }
    }
    clusters
}

fn check(algo: &dyn TraceReconstructor, oracle: impl Fn(&[Strand], usize) -> Strand) {
    for (k, (reads, len)) in corpus().iter().enumerate() {
        assert_eq!(
            algo.reconstruct(reads, *len),
            oracle(reads, *len),
            "{} differs on cluster {k} ({} reads, length {len})",
            algo.name(),
            reads.len()
        );
    }
}

#[test]
fn iterative_matches_script_then_vote() {
    let algo = Iterative::default();
    check(&algo, |reads, len| oracle_iterative(&algo, reads, len));
}

#[test]
fn two_way_iterative_matches_script_then_vote() {
    let algo = TwoWayIterative::default();
    check(&algo, |reads, len| oracle_two_way(&algo, reads, len));
}

#[test]
fn weighted_iterative_matches_script_then_vote() {
    let algo = WeightedIterative::default();
    check(&algo, |reads, len| oracle_weighted(&algo, reads, len));
}

#[test]
fn msa_matches_script_then_vote() {
    check(&MsaReconstructor, oracle_msa);
}
