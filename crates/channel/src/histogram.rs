//! The full-histogram channel — the paper's §4.3 generalisation of
//! second-order errors: instead of keeping only the top-k specific errors,
//! replay the *complete* histogram of counts and locations of every
//! observed error.
//!
//! This is the maximal-fidelity end of the simulator spectrum, and also
//! its cautionary tale: with one parameter per (position, specific error)
//! the model can *memorise* its training dataset rather than summarise the
//! channel (the paper's explicit warning). The memorisation risk is
//! exercised in this module's tests.

use dnasim_core::rng::SimRng;
use dnasim_core::{Base, EditOp, Strand};
use dnasim_profile::ErrorStats;
use dnasim_core::rng::RngExt;

use crate::sampler::sample_weighted_index;
use crate::model::ErrorModel;

/// Per-position rate table for one strand position.
#[derive(Debug, Clone, Default, PartialEq)]
struct PositionRates {
    /// `substitution[orig][new]`: rate of the specific substitution,
    /// conditional on the reference base being `orig`.
    substitution: [[f64; 4]; 4],
    /// `deletion[orig]`: rate of deleting base `orig` here.
    deletion: [f64; 4],
    /// `insertion[base]`: rate of inserting `base` before this position
    /// (unconditional on the reference base).
    insertion: [f64; 4],
}

/// A channel model that replays the complete per-position error histogram
/// recovered by the profiler.
///
/// # Examples
///
/// ```
/// use dnasim_channel::{ErrorModel, FullHistogramModel};
/// use dnasim_core::{rng::seeded, Strand};
/// use dnasim_profile::{ErrorStats, TieBreak};
///
/// let mut rng = seeded(1);
/// let reference = Strand::random(60, &mut rng);
/// let mut stats = ErrorStats::new();
/// stats.record_pair(&reference, &reference.substrand(0..59), TieBreak::Random, &mut rng);
/// stats.record_pair(&reference, &reference, TieBreak::Random, &mut rng);
///
/// let model = FullHistogramModel::from_stats(&stats);
/// let read = model.corrupt(&reference, &mut rng);
/// assert!(read.len() <= reference.len() + 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FullHistogramModel {
    positions: Vec<PositionRates>,
}

impl FullHistogramModel {
    /// Builds the model from profiled statistics: every specific error's
    /// per-position count becomes a per-position rate.
    ///
    /// Base-conditional errors (substitutions, deletions) observed `c`
    /// times at a position covered by `s` reads get rate `4c/s` —
    /// conditional on the reference base matching, with the uniform-base
    /// prior making `E[errors]` match the training data.
    pub fn from_stats(stats: &ErrorStats) -> FullHistogramModel {
        let len = stats.strand_len();
        let mut positions = vec![PositionRates::default(); len];
        let sites = stats.positional_sites();
        for (op, stat) in stats.second_order_errors() {
            for (pos, &count) in stat.positional.iter().enumerate() {
                if count == 0 || pos >= len {
                    continue;
                }
                let covering = sites.get(pos).copied().unwrap_or(0);
                if covering == 0 {
                    continue;
                }
                let rate = count as f64 / covering as f64;
                let table = &mut positions[pos];
                match op {
                    EditOp::Subst { orig, new } => {
                        table.substitution[orig.index()][new.index()] +=
                            (rate * 4.0).min(0.9);
                    }
                    EditOp::Delete(b) => {
                        table.deletion[b.index()] += (rate * 4.0).min(0.9);
                    }
                    EditOp::Insert(b) => {
                        table.insertion[b.index()] += rate.min(0.9);
                    }
                    EditOp::Equal(_) => {}
                }
            }
        }
        FullHistogramModel { positions }
    }

    /// The strand length the histogram was learned on.
    pub fn strand_len(&self) -> usize {
        self.positions.len()
    }
}

impl ErrorModel for FullHistogramModel {
    fn corrupt(&self, reference: &Strand, rng: &mut SimRng) -> Strand {
        let mut read = Strand::with_capacity(reference.len() + 4);
        for (pos, base) in reference.iter().enumerate() {
            let Some(table) = self.positions.get(pos) else {
                read.push(base);
                continue;
            };
            // Insertions before this position (any base).
            let ins_total: f64 = table.insertion.iter().sum();
            if ins_total > 0.0 && rng.random::<f64>() < ins_total.min(0.9) {
                let which = sample_weighted_index(&table.insertion, rng);
                read.push(Base::ALL[which % Base::COUNT]);
            }
            // Base-conditional substitution / deletion.
            let sub_row = &table.substitution[base.index()];
            let sub_total: f64 = sub_row.iter().sum();
            let del = table.deletion[base.index()];
            let u: f64 = rng.random();
            if u < sub_total {
                let which = sample_weighted_index(sub_row, rng);
                read.push(Base::ALL[which % Base::COUNT]);
            } else if u < sub_total + del {
                // deleted
            } else {
                read.push(base);
            }
        }
        read
    }

    fn name(&self) -> String {
        "full-histogram".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::seeded;
    use dnasim_metrics::levenshtein;
    use dnasim_profile::TieBreak;

    /// Profile a synthetic dataset generated by a known channel, build the
    /// histogram model from it, and return (stats, model).
    fn trained_model(seed: u64) -> (ErrorStats, FullHistogramModel) {
        use crate::parametric::ParametricModel;
        use crate::spatial::SpatialDistribution;
        let channel = ParametricModel::new(0.08, SpatialDistribution::VShaped);
        let mut rng = seeded(seed);
        let mut stats = ErrorStats::new();
        for _ in 0..300 {
            let reference = Strand::random(80, &mut rng);
            for _ in 0..4 {
                let read = channel.corrupt(&reference, &mut rng);
                stats.record_pair(&reference, &read, TieBreak::Random, &mut rng);
            }
        }
        let model = FullHistogramModel::from_stats(&stats);
        (stats, model)
    }

    #[test]
    fn clean_training_data_yields_identity_model() {
        let mut rng = seeded(1);
        let mut stats = ErrorStats::new();
        let reference = Strand::random(50, &mut rng);
        for _ in 0..5 {
            stats.record_pair(&reference, &reference, TieBreak::Random, &mut rng);
        }
        let model = FullHistogramModel::from_stats(&stats);
        for _ in 0..20 {
            assert_eq!(model.corrupt(&reference, &mut rng), reference);
        }
    }

    #[test]
    fn replays_training_aggregate_rate() {
        let (stats, model) = trained_model(2);
        let trained_rate = stats.aggregate_error_rate();
        let mut rng = seeded(3);
        let mut errors = 0usize;
        let mut bases = 0usize;
        for _ in 0..400 {
            let reference = Strand::random(80, &mut rng);
            let read = model.corrupt(&reference, &mut rng);
            errors += levenshtein(reference.as_bases(), read.as_bases());
            bases += 80;
        }
        let replayed = errors as f64 / bases as f64;
        assert!(
            (replayed - trained_rate).abs() / trained_rate < 0.25,
            "replayed {replayed} vs trained {trained_rate}"
        );
    }

    #[test]
    fn replays_training_spatial_shape() {
        // Trained on V-shaped noise, the model must emit V-shaped noise.
        let (_, model) = trained_model(4);
        let mut rng = seeded(5);
        let mut positional = vec![0usize; 80];
        for _ in 0..600 {
            let reference = Strand::random(80, &mut rng);
            let read = model.corrupt(&reference, &mut rng);
            // Substitution-only comparison over the overlap keeps positions aligned.
            for i in 0..reference.len().min(read.len()) {
                if reference[i] != read[i] {
                    positional[i] += 1;
                    break; // first divergence only: indel shifts follow
                }
            }
        }
        let ends: usize = positional[..10].iter().sum::<usize>()
            + positional[70..].iter().sum::<usize>();
        let middle: usize = positional[35..45].iter().sum();
        assert!(ends > 2 * middle, "ends {ends} vs middle {middle}");
    }

    #[test]
    fn memorisation_risk_sparse_training_overfits_positions() {
        // The paper's warning: with few observations, the full histogram
        // pins errors to the exact positions seen in training instead of
        // generalising. Train on ONE read with one error and check the
        // model can only ever err at that position.
        let mut rng = seeded(6);
        let reference = Strand::random(40, &mut rng);
        let mut corrupted = reference.clone().into_bases();
        corrupted[17] = corrupted[17].complement();
        let read = Strand::from_bases(corrupted);
        let mut stats = ErrorStats::new();
        stats.record_pair(&reference, &read, TieBreak::Random, &mut rng);
        let model = FullHistogramModel::from_stats(&stats);
        for _ in 0..200 {
            let fresh = Strand::random(40, &mut rng);
            let out = model.corrupt(&fresh, &mut rng);
            assert_eq!(out.len(), 40);
            for i in 0..40 {
                if i != 17 {
                    assert_eq!(out[i], fresh[i], "error leaked to position {i}");
                }
            }
        }
    }

    #[test]
    fn positions_past_training_length_pass_through() {
        let (_, model) = trained_model(7);
        let mut rng = seeded(8);
        let long_reference = Strand::random(200, &mut rng);
        let read = model.corrupt(&long_reference, &mut rng);
        // The tail beyond the learned length (80) is untouched, so the
        // read's suffix equals the reference's.
        let tail_ref = long_reference.substrand(120..200);
        assert!(read.to_string().ends_with(&tail_ref.to_string()));
    }

    #[test]
    fn name_is_stable() {
        let (_, model) = trained_model(9);
        assert_eq!(model.name(), "full-histogram");
    }
}
