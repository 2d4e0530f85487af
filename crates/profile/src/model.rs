//! The distilled, data-driven channel parameterisation.
//!
//! [`LearnedModel`] packages everything [`ErrorStats`](crate::ErrorStats)
//! recovered from real data into the exact parameters the simulator layers
//! consume: conditional per-base error rates, the substitution confusion
//! matrix, long-deletion statistics, the spatial multiplier curve, and the
//! top-k second-order errors with their positional skews.

use dnasim_core::{Base, EditOp, ErrorKind};

use crate::stats::ErrorStats;

/// Conditional error rates for one reference base.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BaseErrorRates {
    /// `P(substitution | base)`.
    pub substitution: f64,
    /// `P(deletion | base)` (single-base deletions).
    pub deletion: f64,
    /// `P(insertion | base)` (insertion before this base).
    pub insertion: f64,
}

impl BaseErrorRates {
    /// Sum of the three conditional rates.
    pub fn total(&self) -> f64 {
        self.substitution + self.deletion + self.insertion
    }

    /// The rate for a given error kind.
    pub fn rate(&self, kind: ErrorKind) -> f64 {
        match kind {
            ErrorKind::Substitution => self.substitution,
            ErrorKind::Deletion => self.deletion,
            ErrorKind::Insertion => self.insertion,
        }
    }
}

/// Long-deletion (run length ≥ 2) parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LongDeletionParams {
    /// Probability per reference base of starting a long deletion.
    pub probability: f64,
    /// `weights[i]` is the relative frequency of runs of length `i + 2`
    /// (the paper reports 2: 84%, 3: 13%, 4: 1.8%, 5: 0.2%, 6: 0.02%).
    pub length_weights: Vec<f64>,
}

/// One of the top-k specific (second-order) errors with its spatial skew.
#[derive(Debug, Clone, PartialEq)]
pub struct SecondOrderError {
    /// The specific error, e.g. `Insert(A)` or `Subst{T→C}`.
    pub op: EditOp,
    /// Fraction of *all* errors this specific error accounts for.
    pub share: f64,
    /// Positional multipliers (mean 1.0 over the strand): where this
    /// specific error concentrates relative to uniform.
    pub positional_multipliers: Vec<f64>,
}

/// A fully data-driven channel parameterisation learned from real data.
///
/// # Examples
///
/// ```
/// use dnasim_core::{rng::seeded, Cluster, Dataset, Strand};
/// use dnasim_profile::{ErrorStats, LearnedModel, TieBreak};
///
/// let reference: Strand = "ACGTACGT".parse()?;
/// let cluster = Cluster::new(reference.clone(), vec!["ACGTACG".parse()?]);
/// let dataset = Dataset::from_clusters(vec![cluster]);
/// let mut rng = seeded(1);
/// let stats = ErrorStats::from_dataset(&dataset, TieBreak::Random, &mut rng);
/// let model = LearnedModel::from_stats(&stats, 10);
/// assert_eq!(model.strand_len, 8);
/// assert!(model.aggregate_error_rate > 0.0);
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedModel {
    /// Reference strand length the model was learned on.
    pub strand_len: usize,
    /// Conditional error rates per reference base (`[A, C, G, T]` order).
    pub per_base: [BaseErrorRates; 4],
    /// `substitution[orig][new]` = `P(new | substitution at orig)`.
    pub substitution: [[f64; 4]; 4],
    /// Long-deletion parameters.
    pub long_deletion: LongDeletionParams,
    /// Spatial multipliers per position (mean 1.0): how much more/less
    /// error-prone each position is than the strand average.
    pub spatial_multipliers: Vec<f64>,
    /// The top-k specific errors with their own positional skews.
    pub second_order: Vec<SecondOrderError>,
    /// Overall errors per reference base.
    pub aggregate_error_rate: f64,
    /// Error-rate multiplier inside homopolymer runs (≥ 3) relative to the
    /// rest of the strand.
    pub homopolymer_boost: f64,
}

impl LearnedModel {
    /// Distils `stats` into channel parameters, keeping the `top_k` most
    /// common second-order errors.
    pub fn from_stats(stats: &ErrorStats, top_k: usize) -> LearnedModel {
        let mut per_base = [BaseErrorRates::default(); 4];
        for b in Base::ALL {
            per_base[b.index()] = BaseErrorRates {
                substitution: stats.conditional_probability(b, ErrorKind::Substitution),
                deletion: stats.conditional_probability(b, ErrorKind::Deletion),
                insertion: stats.conditional_probability(b, ErrorKind::Insertion),
            };
        }
        let mut substitution = [[0.0f64; 4]; 4];
        for b in Base::ALL {
            substitution[b.index()] = stats.substitution_distribution(b);
        }
        let hist = stats.deletion_run_histogram();
        let long_total: usize = hist.iter().skip(2).sum();
        let length_weights: Vec<f64> = if long_total == 0 {
            Vec::new()
        } else {
            hist.iter()
                .skip(2)
                .map(|&n| n as f64 / long_total as f64)
                .collect()
        };
        let long_deletion = LongDeletionParams {
            probability: stats.long_deletion_probability(),
            length_weights,
        };
        let spatial_multipliers = normalize_to_mean_one(&stats.positional_rates());
        let (top, _) = stats.top_second_order(top_k);
        let total_errors = stats.total_errors().max(1);
        let second_order = top
            .into_iter()
            .map(|(op, stat)| SecondOrderError {
                op,
                share: stat.count as f64 / total_errors as f64,
                positional_multipliers: normalize_to_mean_one(
                    &stat.positional.iter().map(|&c| c as f64).collect::<Vec<_>>(),
                ),
            })
            .collect();
        LearnedModel {
            strand_len: stats.strand_len(),
            per_base,
            substitution,
            long_deletion,
            spatial_multipliers,
            second_order,
            aggregate_error_rate: stats.aggregate_error_rate(),
            homopolymer_boost: stats.homopolymer_boost(),
        }
    }

    /// The spatial multiplier at `position`, defaulting to 1.0 beyond the
    /// learned strand length.
    pub fn spatial_multiplier(&self, position: usize) -> f64 {
        self.spatial_multipliers.get(position).copied().unwrap_or(1.0)
    }

    /// Checks every learned parameter is inside its valid domain:
    /// probabilities finite and in `[0, 1]`, multipliers and weights finite
    /// and non-negative.
    ///
    /// Models learned by [`from_stats`](LearnedModel::from_stats) always
    /// pass; this guards models loaded from disk (or synthesized by a fault
    /// injector) before they reach a simulator, where a NaN would silently
    /// disable error injection and an out-of-range rate would distort every
    /// downstream statistic.
    ///
    /// # Errors
    ///
    /// [`ModelValidationError`] naming the first offending parameter.
    pub fn validate(&self) -> Result<(), ModelValidationError> {
        let probability = |field: &str, value: f64| {
            if value.is_finite() && (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(ModelValidationError {
                    field: field.to_owned(),
                    value,
                })
            }
        };
        let non_negative = |field: &str, value: f64| {
            if value.is_finite() && value >= 0.0 {
                Ok(())
            } else {
                Err(ModelValidationError {
                    field: field.to_owned(),
                    value,
                })
            }
        };
        probability("aggregate_error_rate", self.aggregate_error_rate)?;
        non_negative("homopolymer_boost", self.homopolymer_boost)?;
        for (base, rates) in Base::ALL.into_iter().zip(&self.per_base) {
            probability(&format!("per_base[{base}].substitution"), rates.substitution)?;
            probability(&format!("per_base[{base}].deletion"), rates.deletion)?;
            probability(&format!("per_base[{base}].insertion"), rates.insertion)?;
        }
        for (orig, row) in Base::ALL.into_iter().zip(&self.substitution) {
            for (new, &p) in Base::ALL.into_iter().zip(row) {
                non_negative(&format!("substitution[{orig}][{new}]"), p)?;
            }
        }
        probability("long_deletion.probability", self.long_deletion.probability)?;
        for (i, &w) in self.long_deletion.length_weights.iter().enumerate() {
            non_negative(&format!("long_deletion.length_weights[{i}]"), w)?;
        }
        for (i, &m) in self.spatial_multipliers.iter().enumerate() {
            non_negative(&format!("spatial_multipliers[{i}]"), m)?;
        }
        for (i, so) in self.second_order.iter().enumerate() {
            probability(&format!("second_order[{i}].share"), so.share)?;
            for (j, &m) in so.positional_multipliers.iter().enumerate() {
                non_negative(&format!("second_order[{i}].positional_multipliers[{j}]"), m)?;
            }
        }
        Ok(())
    }
}

/// A learned-model parameter outside its valid domain (NaN, infinite, a
/// negative weight, or a probability beyond `[0, 1]`).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelValidationError {
    /// The rejected parameter.
    pub field: String,
    /// Its offending value.
    pub value: f64,
}

impl std::fmt::Display for ModelValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model parameter {} has out-of-domain value {}",
            self.field, self.value
        )
    }
}

impl std::error::Error for ModelValidationError {}

impl From<ModelValidationError> for dnasim_core::DnasimError {
    fn from(e: ModelValidationError) -> dnasim_core::DnasimError {
        dnasim_core::DnasimError::config(e.field, format!("out-of-domain value {}", e.value))
    }
}

/// Scales a non-negative vector so its mean is 1.0 (all-ones if the input
/// sums to zero or is empty).
fn normalize_to_mean_one(values: &[f64]) -> Vec<f64> {
    if values.is_empty() {
        return Vec::new();
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean <= 0.0 {
        return vec![1.0; values.len()];
    }
    values.iter().map(|&v| v / mean).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::editops::TieBreak;
    use dnasim_core::rng::seeded;
    use dnasim_core::Strand;

    fn s(text: &str) -> Strand {
        text.parse().unwrap()
    }

    fn stats_from(pairs: &[(&str, &str)]) -> ErrorStats {
        let mut stats = ErrorStats::new();
        let mut rng = seeded(1);
        for (a, b) in pairs {
            stats.record_pair(&s(a), &s(b), TieBreak::Random, &mut rng);
        }
        stats
    }

    #[test]
    fn clean_data_yields_zero_rates() {
        let stats = stats_from(&[("ACGTACGT", "ACGTACGT")]);
        let model = LearnedModel::from_stats(&stats, 10);
        assert_eq!(model.aggregate_error_rate, 0.0);
        assert!(model.per_base.iter().all(|rates| rates.total() == 0.0));
        assert!(model.second_order.is_empty());
        // Spatial multipliers fall back to uniform.
        assert!(model.spatial_multipliers.iter().all(|&m| (m - 1.0).abs() < 1e-12));
    }

    #[test]
    fn spatial_multipliers_have_mean_one() {
        let stats = stats_from(&[
            ("AACC", "AACT"),
            ("AACC", "AACG"),
            ("AACC", "AACC"),
            ("AACC", "TACC"),
        ]);
        let model = LearnedModel::from_stats(&stats, 10);
        let mean =
            model.spatial_multipliers.iter().sum::<f64>() / model.spatial_multipliers.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9);
        // Errors concentrated at the last position → multiplier > 1 there.
        assert!(model.spatial_multiplier(3) > model.spatial_multiplier(1));
    }

    #[test]
    fn long_deletion_params_learned() {
        let stats = stats_from(&[("ACTTGG", "ACGG"), ("ACTTGG", "ACTTGG")]);
        let model = LearnedModel::from_stats(&stats, 10);
        assert!(model.long_deletion.probability > 0.0);
        assert_eq!(model.long_deletion.length_weights, vec![1.0]);
    }

    #[test]
    fn second_order_shares_sum_to_at_most_one() {
        let stats = stats_from(&[
            ("AAAA", "AGAA"),
            ("AAAA", "AGAA"),
            ("CCCC", "CCC"),
            ("GGGG", "GGGGT"),
        ]);
        let model = LearnedModel::from_stats(&stats, 2);
        assert_eq!(model.second_order.len(), 2);
        assert!(model.second_order.iter().map(|e| e.share).sum::<f64>() <= 1.0 + 1e-12);
        assert!(model.second_order[0].share >= model.second_order[1].share);
    }

    #[test]
    fn substitution_rows_are_distributions() {
        let stats = stats_from(&[("AAAA", "AGAA"), ("TTTT", "TCTT")]);
        let model = LearnedModel::from_stats(&stats, 10);
        for b in Base::ALL {
            let row = model.substitution[b.index()];
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert_eq!(row[b.index()], 0.0);
        }
    }

    #[test]
    fn spatial_multiplier_defaults_past_end() {
        let stats = stats_from(&[("AC", "AT")]);
        let model = LearnedModel::from_stats(&stats, 10);
        assert_eq!(model.spatial_multiplier(100), 1.0);
    }

    #[test]
    fn base_error_rates_accessor() {
        let rates = BaseErrorRates {
            substitution: 0.01,
            deletion: 0.02,
            insertion: 0.03,
        };
        assert!((rates.total() - 0.06).abs() < 1e-12);
        assert_eq!(rates.rate(ErrorKind::Deletion), 0.02);
    }
}
