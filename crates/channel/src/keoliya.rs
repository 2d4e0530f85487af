//! The paper's layered, data-driven simulator.
//!
//! Section 3.3 refines a naive simulator by progressively adding four
//! parameter families, each learnable from real data by the profiler:
//!
//! 1. **Naive** — aggregate insertion/deletion/substitution probabilities;
//! 2. **+ Conditional probabilities & long deletions** — per-base error
//!    rates `P(kind | base)`, the substitution confusion matrix, and
//!    multi-base deletion runs;
//! 3. **+ Spatial skew** — per-position multipliers (terminal positions of
//!    real Nanopore strands are several times more error-prone);
//! 4. **+ Second-order errors** — the top-k specific errors (e.g. `T→C`,
//!    `Insert(A)`) each concentrated at its own positions.
//!
//! Every layer preserves the aggregate error rate of the layer below, so
//! accuracy differences between layers isolate the effect of the added
//! parameter — the comparison Tables 3.1 and 3.2 make.

use dnasim_core::rng::{Rng, RngExt, SimRng};
use dnasim_core::{Base, EditOp, ErrorKind, Strand};
use dnasim_profile::LearnedModel;

use crate::sampler::{chain_thresholds, sample_weighted_index};
use crate::model::ErrorModel;

/// Which refinement layers are active (each includes all previous ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimulatorLayer {
    /// Aggregate probabilities only.
    Naive,
    /// + per-base conditional probabilities and long deletions.
    ConditionalLongDel,
    /// + spatial (positional) error distribution.
    SpatialSkew,
    /// + second-order (base-specific) errors with their own skews.
    SecondOrder,
}

impl SimulatorLayer {
    /// All layers in refinement order — the ablation rows of Tables 3.1/3.2.
    pub const ALL: [SimulatorLayer; 4] = [
        SimulatorLayer::Naive,
        SimulatorLayer::ConditionalLongDel,
        SimulatorLayer::SpatialSkew,
        SimulatorLayer::SecondOrder,
    ];

    /// The table-row label used in the paper.
    pub fn label(self) -> &'static str {
        match self {
            SimulatorLayer::Naive => "Naive Simulator",
            SimulatorLayer::ConditionalLongDel => "+ Cond. Prob + Del",
            SimulatorLayer::SpatialSkew => "+ Spatial Skew",
            SimulatorLayer::SecondOrder => "+ 2nd-order Errors",
        }
    }
}

impl std::fmt::Display for SimulatorLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One second-order modulation entry attached to a (base, kind) class.
#[derive(Debug, Clone)]
struct SecondOrderEntry {
    /// Weight of this specific error within its class, in `[0, 1]`.
    weight: f64,
    /// Positional multipliers (mean 1.0).
    multipliers: Vec<f64>,
    /// For substitutions: the target base this entry biases toward.
    target: Option<Base>,
}

/// The layered data-driven error model (this paper's simulator).
///
/// # Examples
///
/// ```
/// use dnasim_channel::{ErrorModel, KeoliyaModel, SimulatorLayer};
/// use dnasim_core::{rng::seeded, Cluster, Dataset, Strand};
/// use dnasim_profile::{ErrorStats, LearnedModel, TieBreak};
///
/// // Learn a model from (here, tiny) clustered data, then simulate.
/// let reference: Strand = "ACGTACGTAC".parse()?;
/// let cluster = Cluster::new(reference.clone(), vec!["ACGTACGTA".parse()?]);
/// let dataset = Dataset::from_clusters(vec![cluster]);
/// let mut rng = seeded(1);
/// let stats = ErrorStats::from_dataset(&dataset, TieBreak::Random, &mut rng);
/// let learned = LearnedModel::from_stats(&stats, 10);
///
/// let model = KeoliyaModel::new(learned, SimulatorLayer::SecondOrder);
/// let read = model.corrupt(&reference, &mut rng);
/// assert!(read.len() <= reference.len() + 2);
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KeoliyaModel {
    learned: LearnedModel,
    layer: SimulatorLayer,
    /// Naive-layer per-kind rates `[sub, del, ins]`.
    naive_rates: [f64; 3],
    /// P(long run | deletion event) for the long-deletion mechanism.
    long_given_deletion: f64,
    /// `second_order[base][kind]` → modulation entries for that class.
    second_order: [[Vec<SecondOrderEntry>; 3]; 4],
    /// Whether to apply the learned homopolymer boost (an opt-in extension
    /// beyond the paper's four layers; defaults to off so the Tables
    /// 3.1/3.2 ablation stays exactly the paper's).
    use_homopolymer: bool,
    /// `rate_table[min(pos, L)][base]` → [`compute_rates`] at that
    /// position, where `L` is the longest positional curve (the spatial
    /// multipliers and every second-order entry's multipliers). Past `L`
    /// every multiplier falls back to 1.0, so row `L` is exact for every
    /// longer position.
    ///
    /// [`compute_rates`]: KeoliyaModel::compute_rates
    rate_table: Vec<[[f64; 3]; 4]>,
    /// `rate_table`'s rows as draw thresholds: for rates `[s, d, i]`,
    /// `[T(s), T(s + d), T((s + d) + i), max of the three]` with
    /// [`uniform_threshold`](crate::uniform_threshold)'s `T`, so a 53-bit
    /// draw `k` compares as its uniform `k · 2^-53` would against the
    /// float sums.
    thresholds: Vec<[[u64; 4]; 4]>,
    /// `substitution_table[min(pos, L)][base]` →
    /// [`substitution_weights`] at that position, with the same `L` as
    /// `rate_table`: the target weights a substitution event draws from.
    ///
    /// [`substitution_weights`]: KeoliyaModel::substitution_weights
    substitution_table: Vec<[[f64; 4]; 4]>,
}

impl KeoliyaModel {
    /// Builds the simulator at the given refinement layer from learned
    /// parameters.
    pub fn new(learned: LearnedModel, layer: SimulatorLayer) -> KeoliyaModel {
        // Global kind mix for the naive layer.
        let mut kind_totals = [0.0f64; 3];
        for rates in &learned.per_base {
            for kind in ErrorKind::ALL {
                kind_totals[kind.index()] += rates.rate(kind);
            }
        }
        let total: f64 = kind_totals.iter().sum();
        let naive_rates = if total > 0.0 {
            let aggregate = learned.aggregate_error_rate;
            [
                aggregate * kind_totals[0] / total,
                aggregate * kind_totals[1] / total,
                aggregate * kind_totals[2] / total,
            ]
        } else {
            [0.0; 3]
        };

        // Probability that a deletion event extends into a long run.
        let mean_del_rate: f64 =
            learned.per_base.iter().map(|r| r.deletion).sum::<f64>() / 4.0;
        let long_given_deletion = if mean_del_rate > 0.0 {
            (learned.long_deletion.probability / mean_del_rate).clamp(0.0, 1.0)
        } else {
            0.0
        };

        // Second-order entries grouped by (owner base, kind) class.
        let mut second_order: [[Vec<SecondOrderEntry>; 3]; 4] = Default::default();
        let class_total: f64 = learned
            .per_base
            .iter()
            .map(|r| r.total())
            .sum::<f64>();
        for so in &learned.second_order {
            let (owners, kind, target): (Vec<Base>, ErrorKind, Option<Base>) = match so.op {
                EditOp::Subst { orig, new } => (vec![orig], ErrorKind::Substitution, Some(new)),
                EditOp::Delete(b) => (vec![b], ErrorKind::Deletion, None),
                // An insertion's owner base is unrecorded: spread it over
                // all four classes.
                EditOp::Insert(_) => (Base::ALL.to_vec(), ErrorKind::Insertion, None),
                EditOp::Equal(_) => continue,
            };
            // An op spread over several owner classes splits its share.
            let op_share = so.share / owners.len() as f64;
            for owner in owners {
                let class_share = if class_total > 0.0 {
                    learned.per_base[owner.index()].rate(kind) / class_total
                } else {
                    0.0
                };
                let weight = if class_share > 0.0 {
                    (op_share / class_share).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                if weight > 0.0 {
                    second_order[owner.index()][kind.index()].push(SecondOrderEntry {
                        weight,
                        multipliers: so.positional_multipliers.clone(),
                        target,
                    });
                }
            }
        }

        let mut model = KeoliyaModel {
            learned,
            layer,
            naive_rates,
            long_given_deletion,
            second_order,
            use_homopolymer: false,
            rate_table: Vec::new(),
            thresholds: Vec::new(),
            substitution_table: Vec::new(),
        };
        let curve_len = model
            .second_order
            .iter()
            .flatten()
            .flatten()
            .map(|entry| entry.multipliers.len())
            .fold(model.learned.spatial_multipliers.len(), usize::max);
        model.rate_table = (0..=curve_len)
            .map(|position| Base::ALL.map(|base| model.compute_rates(base, position)))
            .collect();
        model.thresholds = model
            .rate_table
            .iter()
            .map(|row| row.map(chain_thresholds))
            .collect();
        model.substitution_table = (0..=curve_len)
            .map(|position| Base::ALL.map(|base| model.substitution_weights(base, position)))
            .collect();
        model
    }

    /// Builds the simulator after validating the learned parameters.
    ///
    /// [`new`](KeoliyaModel::new) trusts its input — appropriate for models
    /// freshly learned by the profiler. Models loaded from disk (or any
    /// other untrusted source) should come through here instead: a NaN rate
    /// would silently disable error injection, and an out-of-range rate
    /// would distort every statistic downstream.
    ///
    /// # Errors
    ///
    /// [`ModelValidationError`](dnasim_profile::ModelValidationError)
    /// naming the first out-of-domain parameter.
    pub fn try_new(
        learned: LearnedModel,
        layer: SimulatorLayer,
    ) -> Result<KeoliyaModel, dnasim_profile::ModelValidationError> {
        learned.validate()?;
        Ok(KeoliyaModel::new(learned, layer))
    }

    /// Enables the learned homopolymer modulation: positions inside runs of
    /// length ≥ 3 get the learned boost, with the rest of the strand
    /// compensated so the aggregate rate is unchanged. An extension beyond
    /// the paper's four layers (its §2.2.3 notes DNASimulator ignores
    /// homopolymers).
    pub fn with_homopolymer_modulation(mut self) -> KeoliyaModel {
        self.use_homopolymer = true;
        self
    }

    /// The active layer.
    pub fn layer(&self) -> SimulatorLayer {
        self.layer
    }

    /// The learned parameters this model was built from.
    pub fn learned(&self) -> &LearnedModel {
        &self.learned
    }

    /// The per-kind rates `[sub, del, ins]` for `base` at `position`,
    /// read from the precomputed table.
    fn rates_at(&self, base: Base, position: usize) -> [f64; 3] {
        // `new` always builds at least row 0.
        self.rate_table[position.min(self.rate_table.len() - 1)][base.index()]
    }

    /// The per-kind rates `[sub, del, ins]` for `base` at `position`,
    /// computed from the learned parameters (what [`rates_at`] caches).
    ///
    /// [`rates_at`]: KeoliyaModel::rates_at
    fn compute_rates(&self, base: Base, position: usize) -> [f64; 3] {
        let mut rates = if self.layer >= SimulatorLayer::ConditionalLongDel {
            let r = self.learned.per_base[base.index()];
            [r.substitution, r.deletion, r.insertion]
        } else {
            self.naive_rates
        };
        if self.layer >= SimulatorLayer::SpatialSkew {
            let spatial = self.learned.spatial_multiplier(position);
            for kind in ErrorKind::ALL {
                // The second-order layer *mixes* positional distributions
                // rather than multiplying them: each specific error's
                // multipliers were learned on absolute positions and already
                // embed the overall skew, so a product would double-apply it.
                let factor = if self.layer >= SimulatorLayer::SecondOrder {
                    self.second_order_factor(base, kind, position, spatial)
                } else {
                    spatial
                };
                rates[kind.index()] *= factor;
            }
        }
        // Keep the three-way split a valid sub-distribution.
        let total: f64 = rates.iter().sum();
        if total > 0.95 {
            rates.iter_mut().for_each(|r| *r *= 0.95 / total);
        }
        rates
    }

    /// Positional modulation for a (base, kind) class at the second-order
    /// layer: a mixture `(1 − Σw)·spatial + Σ w·mult_op(pos)` of the
    /// generic spatial curve and each specific error's own positional
    /// distribution (both mean 1.0, so the aggregate rate is preserved).
    fn second_order_factor(
        &self,
        base: Base,
        kind: ErrorKind,
        position: usize,
        spatial: f64,
    ) -> f64 {
        let entries = &self.second_order[base.index()][kind.index()];
        if entries.is_empty() {
            return spatial;
        }
        let mut weight_sum = 0.0;
        let mut modulated = 0.0;
        for entry in entries {
            let m = entry
                .multipliers
                .get(position)
                .copied()
                .unwrap_or(1.0);
            weight_sum += entry.weight;
            modulated += entry.weight * m;
        }
        ((1.0 - weight_sum.min(1.0)) * spatial + modulated).max(0.0)
    }

    /// Chooses a substitution target for `base` at `position`.
    fn substitution_target(&self, base: Base, position: usize, rng: &mut SimRng) -> Base {
        if self.layer < SimulatorLayer::ConditionalLongDel {
            return base.random_other(rng);
        }
        let idx = sample_weighted_index(&self.substitution_weights_at(base, position), rng);
        Base::from_index(idx).unwrap_or_else(|| base.random_other(rng))
    }

    /// The substitution target weights of `base` at `position`, read from
    /// the precomputed table.
    fn substitution_weights_at(&self, base: Base, position: usize) -> [f64; 4] {
        // `new` always builds at least row 0.
        self.substitution_table[position.min(self.substitution_table.len() - 1)][base.index()]
    }

    /// The weights of the substitution targets of `base` at `position`,
    /// computed from the learned parameters (what
    /// [`substitution_weights_at`] caches): the confusion row, mixed at
    /// the second-order layer with the second-order targets' positional
    /// skews, with `base` itself excluded.
    ///
    /// [`substitution_weights_at`]: KeoliyaModel::substitution_weights_at
    fn substitution_weights(&self, base: Base, position: usize) -> [f64; 4] {
        let mut weights = self.learned.substitution[base.index()];
        if self.layer >= SimulatorLayer::SecondOrder {
            // Mixture: a fraction Σw of this class's substitutions is pinned
            // to the second-order targets (with their positional skew), the
            // residual follows the generic confusion row.
            let entries = &self.second_order[base.index()][ErrorKind::Substitution.index()];
            if !entries.is_empty() {
                let mut boosted = [0.0f64; 4];
                let mut weight_sum = 0.0;
                for entry in entries {
                    if let Some(target) = entry.target {
                        let m = entry.multipliers.get(position).copied().unwrap_or(1.0);
                        boosted[target.index()] += entry.weight * m;
                        weight_sum += entry.weight;
                    }
                }
                let residual = (1.0 - weight_sum).max(0.0);
                for (w, b) in weights.iter_mut().zip(boosted) {
                    *w = residual * *w + b;
                }
            }
        }
        weights[base.index()] = 0.0;
        weights
    }

    /// Samples a deletion run length (1 = single deletion).
    fn deletion_run_length(&self, rng: &mut SimRng) -> usize {
        if self.layer < SimulatorLayer::ConditionalLongDel
            || self.learned.long_deletion.length_weights.is_empty()
            || rng.random::<f64>() >= self.long_given_deletion
        {
            return 1;
        }
        sample_weighted_index(&self.learned.long_deletion.length_weights, rng) + 2
    }
}

impl KeoliyaModel {
    /// Emits the read's bases for reference position `i` holding `base`
    /// under `event` (`None`: no error) and returns the next position.
    fn apply(
        &self,
        event: Option<ErrorKind>,
        base: Base,
        i: usize,
        read: &mut Strand,
        rng: &mut SimRng,
    ) -> usize {
        match event {
            Some(ErrorKind::Substitution) => read.push(self.substitution_target(base, i, rng)),
            Some(ErrorKind::Deletion) => return i + self.deletion_run_length(rng),
            Some(ErrorKind::Insertion) => {
                read.push(base);
                read.push(Base::random(rng));
            }
            None => read.push(base),
        }
        i + 1
    }

    /// [`ErrorModel::corrupt`] under the homopolymer modulation, whose
    /// rates change with each reference: the draws compare as floats.
    fn corrupt_homopolymer(&self, bases: &[Base], read: &mut Strand, rng: &mut SimRng) {
        let multipliers = homopolymer_multipliers(bases, self.learned.homopolymer_boost);
        let mut i = 0usize;
        while i < bases.len() {
            let base = bases[i];
            let m = multipliers[i];
            let [p_sub, p_del, p_ins] = self.rates_at(base, i).map(|p| (p * m).min(0.45));
            let u: f64 = rng.random();
            let event = if u < p_sub {
                Some(ErrorKind::Substitution)
            } else if u < p_sub + p_del {
                Some(ErrorKind::Deletion)
            } else if u < p_sub + p_del + p_ins {
                Some(ErrorKind::Insertion)
            } else {
                None
            };
            i = self.apply(event, base, i, read, rng);
        }
    }
}

impl ErrorModel for KeoliyaModel {
    fn corrupt(&self, reference: &Strand, rng: &mut SimRng) -> Strand {
        let bases = reference.as_bases();
        let mut read = Strand::with_capacity(bases.len() + 4);
        if self.use_homopolymer {
            self.corrupt_homopolymer(bases, &mut read, rng);
            return read;
        }
        // `new` always builds at least row 0.
        let last = self.thresholds.len() - 1;
        // The fast path draws from a copy of the generator, which no call
        // borrows, so its state can stay in registers; the copy is handed
        // back around every error event.
        let mut draws = rng.clone();
        let mut i = 0usize;
        while i < bases.len() {
            // The error-free run from `i` is copied whole: one compare per
            // base settles it, against the largest threshold.
            let start = i;
            let mut event = None;
            while i < bases.len() {
                let [sub, del, ins, any] = self.thresholds[i.min(last)][bases[i].index()];
                // The 53 bits `random::<f64>()` scales to `k · 2^-53`.
                let k = draws.next_u64() >> 11;
                if k < any {
                    // The float chain's order; `k` is below one of the three.
                    event = Some(if k < sub {
                        ErrorKind::Substitution
                    } else if k < del {
                        ErrorKind::Deletion
                    } else {
                        debug_assert!(k < ins);
                        ErrorKind::Insertion
                    });
                    break;
                }
                i += 1;
            }
            read.extend(bases[start..i].iter().copied());
            if event.is_some() {
                *rng = draws;
                i = self.apply(event, bases[i], i, &mut read, rng);
                draws = rng.clone();
            }
        }
        *rng = draws;
        read
    }

    fn name(&self) -> String {
        format!("keoliya/{}", self.layer.label())
    }
}

/// Per-position multipliers: `boost` inside homopolymer runs (length ≥ 3),
/// normalised to mean 1.0 over the strand so the aggregate rate holds.
fn homopolymer_multipliers(bases: &[Base], boost: f64) -> Vec<f64> {
    let mut multipliers = vec![1.0f64; bases.len()];
    let mut run_start = 0usize;
    for i in 1..=bases.len() {
        if i == bases.len() || bases[i] != bases[run_start] {
            if i - run_start >= 3 {
                multipliers[run_start..i].iter_mut().for_each(|m| *m = boost);
            }
            run_start = i;
        }
    }
    let mean = multipliers.iter().sum::<f64>() / multipliers.len().max(1) as f64;
    if mean > 0.0 {
        multipliers.iter_mut().for_each(|m| *m /= mean);
    }
    multipliers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::uniform_threshold;
    use dnasim_core::rng::seeded;
    use dnasim_metrics::levenshtein;
    use dnasim_profile::{BaseErrorRates, LongDeletionParams};

    /// A hand-built learned model with known parameters.
    fn synthetic_model(aggregate: f64, strand_len: usize) -> LearnedModel {
        let per = aggregate / 3.0;
        let rates = BaseErrorRates {
            substitution: per,
            deletion: per,
            insertion: per,
        };
        let mut substitution = [[0.0f64; 4]; 4];
        for b in Base::ALL {
            for t in Base::ALL {
                if b != t {
                    substitution[b.index()][t.index()] = 1.0 / 3.0;
                }
            }
        }
        LearnedModel {
            strand_len,
            per_base: [rates; 4],
            substitution,
            long_deletion: LongDeletionParams {
                probability: 0.0033 * aggregate / 0.059,
                length_weights: vec![0.84, 0.13, 0.018, 0.002],
            },
            spatial_multipliers: vec![1.0; strand_len],
            second_order: Vec::new(),
            aggregate_error_rate: aggregate,
            homopolymer_boost: 1.0,
        }
    }

    fn empirical_rate(model: &KeoliyaModel, len: usize, trials: usize, seed: u64) -> f64 {
        let mut rng = seeded(seed);
        let mut errors = 0usize;
        for _ in 0..trials {
            let r = Strand::random(len, &mut rng);
            let c = model.corrupt(&r, &mut rng);
            errors += levenshtein(r.as_bases(), c.as_bases());
        }
        errors as f64 / (len * trials) as f64
    }

    #[test]
    fn zero_rate_model_is_identity() {
        let model = KeoliyaModel::new(synthetic_model(0.0, 50), SimulatorLayer::SecondOrder);
        let mut rng = seeded(1);
        let r = Strand::random(50, &mut rng);
        assert_eq!(model.corrupt(&r, &mut rng), r);
    }

    #[test]
    fn all_layers_hold_aggregate_rate() {
        let learned = synthetic_model(0.06, 110);
        for layer in SimulatorLayer::ALL {
            let model = KeoliyaModel::new(learned.clone(), layer);
            let rate = empirical_rate(&model, 110, 300, 42);
            assert!(
                (rate - 0.06).abs() < 0.012,
                "{}: empirical rate {rate}",
                layer.label()
            );
        }
    }

    #[test]
    fn spatial_layer_concentrates_errors() {
        let mut learned = synthetic_model(0.10, 100);
        // All error mass at the last 10 positions.
        let mut spatial = vec![0.0; 100];
        spatial[90..].iter_mut().for_each(|m| *m = 10.0);
        learned.spatial_multipliers = spatial;
        let model = KeoliyaModel::new(learned, SimulatorLayer::SpatialSkew);
        let mut rng = seeded(2);
        // Substitution-only check: compare prefix (positions 0..50) which
        // must be error-free.
        for _ in 0..50 {
            let r = Strand::random(100, &mut rng);
            let c = model.corrupt(&r, &mut rng);
            let head_errors =
                levenshtein(&r.as_bases()[..50], &c.as_bases()[..50.min(c.len())]);
            assert_eq!(head_errors, 0, "errors leaked into unweighted prefix");
        }
    }

    #[test]
    fn conditional_layer_uses_confusion_matrix() {
        let mut learned = synthetic_model(0.3, 60);
        // Force substitutions only, and make A always substitute to G.
        for r in learned.per_base.iter_mut() {
            r.deletion = 0.0;
            r.insertion = 0.0;
            r.substitution = 0.3;
        }
        learned.substitution[Base::A.index()] = [0.0, 0.0, 1.0, 0.0];
        let model = KeoliyaModel::new(learned, SimulatorLayer::ConditionalLongDel);
        let mut rng = seeded(3);
        let r: Strand = "A".repeat(500).parse().unwrap();
        let c = model.corrupt(&r, &mut rng);
        assert_eq!(c.len(), 500);
        let g_count = c.iter().filter(|&b| b == Base::G).count();
        let non_ag = c.iter().filter(|&b| b != Base::A && b != Base::G).count();
        assert!(g_count > 100, "expected many A→G substitutions, got {g_count}");
        assert_eq!(non_ag, 0, "confusion matrix violated");
    }

    #[test]
    fn naive_layer_ignores_confusion_matrix() {
        let mut learned = synthetic_model(0.3, 60);
        learned.substitution[Base::A.index()] = [0.0, 0.0, 1.0, 0.0];
        let model = KeoliyaModel::new(learned, SimulatorLayer::Naive);
        let mut rng = seeded(4);
        let r: Strand = "A".repeat(600).parse().unwrap();
        let c = model.corrupt(&r, &mut rng);
        // Naive targets are uniform over the other three bases, so C and T
        // must both occur.
        assert!(c.iter().any(|b| b == Base::C));
        assert!(c.iter().any(|b| b == Base::T));
    }

    #[test]
    fn long_deletions_only_above_naive() {
        let mut learned = synthetic_model(0.2, 80);
        for r in learned.per_base.iter_mut() {
            r.substitution = 0.0;
            r.insertion = 0.0;
            r.deletion = 0.2;
        }
        learned.long_deletion.probability = 0.2; // every deletion is long
        learned.long_deletion.length_weights = vec![0.0, 0.0, 0.0, 1.0]; // length 5
        let cond = KeoliyaModel::new(learned.clone(), SimulatorLayer::ConditionalLongDel);
        assert!(cond.long_given_deletion > 0.99);
        let naive = KeoliyaModel::new(learned, SimulatorLayer::Naive);
        let mut rng = seeded(5);
        let r = Strand::random(400, &mut rng);
        let c = cond.corrupt(&r, &mut rng);
        // Long runs of 5 at every deletion event shrink the read far below
        // what single deletions at the naive layer do.
        let c_naive = naive.corrupt(&r, &mut rng);
        assert!(c.len() < c_naive.len());
    }

    #[test]
    fn second_order_layer_biases_targets() {
        let mut learned = synthetic_model(0.3, 40);
        for r in learned.per_base.iter_mut() {
            r.deletion = 0.0;
            r.insertion = 0.0;
            r.substitution = 0.3;
        }
        learned.second_order = vec![dnasim_profile::SecondOrderError {
            op: EditOp::Subst {
                orig: Base::A,
                new: Base::G,
            },
            share: 0.9,
            positional_multipliers: vec![1.0; 40],
        }];
        let model = KeoliyaModel::new(learned, SimulatorLayer::SecondOrder);
        let mut rng = seeded(6);
        let r: Strand = "A".repeat(40).parse().unwrap();
        let mut g = 0usize;
        let mut other = 0usize;
        for _ in 0..200 {
            let c = model.corrupt(&r, &mut rng);
            for b in c.iter() {
                if b == Base::G {
                    g += 1;
                } else if b != Base::A {
                    other += 1;
                }
            }
        }
        assert!(g > other, "G substitutions ({g}) should dominate ({other})");
    }

    #[test]
    fn layers_are_ordered() {
        assert!(SimulatorLayer::Naive < SimulatorLayer::ConditionalLongDel);
        assert!(SimulatorLayer::SpatialSkew < SimulatorLayer::SecondOrder);
        assert_eq!(SimulatorLayer::ALL.len(), 4);
    }

    #[test]
    fn name_includes_layer() {
        let model = KeoliyaModel::new(synthetic_model(0.05, 10), SimulatorLayer::SpatialSkew);
        assert!(model.name().contains("Spatial"));
    }

    /// A skewed curve of `len` multipliers (period 7).
    fn skewed_curve(len: usize, scale: f64) -> Vec<f64> {
        (0..len).map(|i| 0.25 + scale * (i % 7) as f64 / 3.0).collect()
    }

    /// Second-order entries for three classes with curves of `len`.
    fn second_order_entries(len: usize) -> Vec<dnasim_profile::SecondOrderError> {
        let entry = |op, share, scale| dnasim_profile::SecondOrderError {
            op,
            share,
            positional_multipliers: skewed_curve(len, scale),
        };
        vec![
            entry(EditOp::Subst { orig: Base::A, new: Base::G }, 0.05, 1.3),
            entry(EditOp::Delete(Base::C), 0.08, 0.7),
            entry(EditOp::Insert(Base::T), 0.04, 2.1),
        ]
    }

    #[test]
    fn rate_table_matches_computed_rates_bit_for_bit() {
        // Second-order curves longer than the spatial one.
        let mut long_second_order = synthetic_model(0.2, 30);
        long_second_order.per_base[Base::G.index()].deletion = 0.11;
        long_second_order.spatial_multipliers = skewed_curve(30, 4.0);
        long_second_order.second_order = second_order_entries(45);
        // Every curve empty: L = 0, one row serves every position.
        let mut empty = synthetic_model(0.3, 0);
        empty.spatial_multipliers = Vec::new();
        empty.second_order = second_order_entries(0);
        // A curve scaled high enough to trip the 0.95 renormalisation.
        let mut saturated = synthetic_model(0.6, 20);
        saturated.spatial_multipliers = skewed_curve(20, 9.0);
        saturated.second_order = second_order_entries(12);

        for (learned, curve_len) in [(long_second_order, 45), (empty, 0), (saturated, 20)] {
            for layer in SimulatorLayer::ALL {
                let plain = KeoliyaModel::new(learned.clone(), layer);
                assert_eq!(plain.rate_table.len(), curve_len + 1, "{layer}");
                for model in [plain.clone(), plain.with_homopolymer_modulation()] {
                    for base in Base::ALL {
                        for position in 0..curve_len + 16 {
                            let cached = model.rates_at(base, position).map(f64::to_bits);
                            let computed =
                                model.compute_rates(base, position).map(f64::to_bits);
                            assert_eq!(cached, computed, "{layer} {base:?} @ {position}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn substitution_table_matches_the_loop_bit_for_bit() {
        // Substitution entries with curves longer and shorter than the
        // spatial one, a class with two targets, and one with none.
        let mut skewed = synthetic_model(0.2, 30);
        skewed.spatial_multipliers = skewed_curve(30, 4.0);
        skewed.second_order = second_order_entries(45);
        let subst = |orig, new, share, len, scale| dnasim_profile::SecondOrderError {
            op: EditOp::Subst { orig, new },
            share,
            positional_multipliers: skewed_curve(len, scale),
        };
        skewed.second_order.push(subst(Base::A, Base::T, 0.03, 20, 0.9));
        skewed.second_order.push(subst(Base::T, Base::C, 0.06, 60, 1.7));
        skewed.substitution[Base::G.index()] = [0.5, 0.2, 0.0, 0.3];
        // Shares large enough that the class weights sum past 1.
        let mut saturated = synthetic_model(0.3, 12);
        saturated.second_order = vec![
            subst(Base::C, Base::A, 0.4, 12, 2.0),
            subst(Base::C, Base::G, 0.5, 8, 3.0),
        ];
        let mut empty = synthetic_model(0.3, 0);
        empty.spatial_multipliers = Vec::new();
        empty.second_order = second_order_entries(0);

        for (learned, curve_len) in [(skewed, 60), (saturated, 12), (empty, 0)] {
            for layer in SimulatorLayer::ALL {
                let model = KeoliyaModel::new(learned.clone(), layer);
                assert_eq!(model.substitution_table.len(), curve_len + 1, "{layer}");
                for base in Base::ALL {
                    for position in 0..curve_len + 16 {
                        let cached =
                            model.substitution_weights_at(base, position).map(f64::to_bits);
                        let computed =
                            model.substitution_weights(base, position).map(f64::to_bits);
                        assert_eq!(cached, computed, "{layer} {base:?} @ {position}");
                    }
                }
            }
        }
    }

    #[test]
    fn threshold_compares_like_the_uniform() {
        // The uniform `random::<f64>()` makes from the 53 bits `k`.
        let uniform = |k: u64| k as f64 * (1.0 / (1u64 << 53) as f64);
        let top = (1u64 << 53) - 1;
        let smallest = 1.0 / (1u64 << 53) as f64;
        let dyadic = [0.5, 0.25, 0.75, 0.375, smallest, 1.0 - f64::EPSILON / 2.0];
        let non_dyadic = [0.1, 0.059, 1.0 / 3.0, 0.95, 0.3, 1e-300, 0.999_999_9, 5e-17];
        for c in dyadic.into_iter().chain(non_dyadic) {
            let t = uniform_threshold(c);
            assert!((1..=1 << 53).contains(&t), "{c}: {t}");
            for k in [t - 1, t].into_iter().filter(|&k| k <= top) {
                assert_eq!(k < t, uniform(k) < c, "c = {c}, k = {k}, T = {t}");
            }
        }
        let edges = [0.0, -0.0, -0.5, -f64::INFINITY, f64::NAN, 1.0, 1.5, f64::INFINITY];
        for c in edges {
            let t = uniform_threshold(c);
            for k in [0, 1, top] {
                assert_eq!(k < t, uniform(k) < c, "c = {c}, k = {k}, T = {t}");
            }
        }
    }

    /// The substitution target drawn from weights rebuilt at every event
    /// (the loop `substitution_table` replaced), not read from the table.
    fn oracle_substitution_target(
        model: &KeoliyaModel,
        base: Base,
        position: usize,
        rng: &mut SimRng,
    ) -> Base {
        if model.layer < SimulatorLayer::ConditionalLongDel {
            return base.random_other(rng);
        }
        let weights = model.substitution_weights(base, position);
        let idx = sample_weighted_index(&weights, rng);
        Base::from_index(idx).unwrap_or_else(|| base.random_other(rng))
    }

    /// The float draw loop the thresholds replaced, kept as their oracle:
    /// rates recomputed through `compute_rates` (not read from the table),
    /// one uniform per base against the `<` chain.
    fn oracle_corrupt(model: &KeoliyaModel, reference: &Strand, rng: &mut SimRng) -> Strand {
        let bases = reference.as_bases();
        let homopolymer = model
            .use_homopolymer
            .then(|| homopolymer_multipliers(bases, model.learned.homopolymer_boost));
        let mut read = Strand::with_capacity(bases.len() + 4);
        let mut i = 0usize;
        while i < bases.len() {
            let base = bases[i];
            let [mut p_sub, mut p_del, mut p_ins] = model.compute_rates(base, i);
            if let Some(multipliers) = &homopolymer {
                let m = multipliers[i];
                p_sub = (p_sub * m).min(0.45);
                p_del = (p_del * m).min(0.45);
                p_ins = (p_ins * m).min(0.45);
            }
            let u: f64 = rng.random();
            if u < p_sub {
                read.push(oracle_substitution_target(model, base, i, rng));
            } else if u < p_sub + p_del {
                let run = model.deletion_run_length(rng);
                i += run;
                continue;
            } else if u < p_sub + p_del + p_ins {
                read.push(base);
                read.push(Base::random(rng));
            } else {
                read.push(base);
            }
            i += 1;
        }
        read
    }

    #[test]
    fn threshold_draws_match_the_float_loop() {
        let mut skewed = synthetic_model(0.2, 30);
        skewed.per_base[Base::G.index()].deletion = 0.11;
        skewed.spatial_multipliers = skewed_curve(30, 4.0);
        skewed.second_order = second_order_entries(45);
        skewed.homopolymer_boost = 2.5;
        let mut saturated = synthetic_model(0.6, 20);
        saturated.spatial_multipliers = skewed_curve(20, 9.0);
        saturated.second_order = second_order_entries(12);
        // Hand-built rows: zero, NaN, negative (so that `T(s + d)` or
        // `T(s + d + i)` falls below an earlier threshold) and ≥ 1.
        let rates = |substitution, deletion, insertion| BaseErrorRates {
            substitution,
            deletion,
            insertion,
        };
        let mut odd = synthetic_model(0.1, 40);
        odd.per_base = [
            rates(0.0, 0.0, 0.0),
            rates(f64::NAN, 0.1, 0.05),
            rates(0.3, -0.2, 0.05),
            rates(0.2, 0.2, -0.3),
        ];
        odd.spatial_multipliers = skewed_curve(40, 1.0);
        let mut certain = synthetic_model(0.1, 25);
        certain.per_base = [
            rates(1.5, -1.0, 0.1),
            rates(0.0, 1.0, 0.0),
            rates(-0.5, 0.2, 0.4),
            rates(0.05, 0.05, 0.95),
        ];
        certain.homopolymer_boost = 4.0;

        let mut strands = seeded(0x7e5);
        let mut references: Vec<Strand> = [0usize, 1, 7, 25, 44, 60, 130]
            .into_iter()
            .map(|len| Strand::random(len, &mut strands))
            .collect();
        references.push("AAAAAACCCGGGGGGGGTTTAAACCCCCCCCCCGT".parse().unwrap());
        for learned in [synthetic_model(0.06, 110), skewed, saturated, odd, certain] {
            for layer in SimulatorLayer::ALL {
                let plain = KeoliyaModel::new(learned.clone(), layer);
                for model in [plain.clone(), plain.with_homopolymer_modulation()] {
                    for seed in 0..12u64 {
                        for reference in &references {
                            let (mut fast, mut slow) = (seeded(seed), seeded(seed));
                            assert_eq!(
                                model.corrupt(reference, &mut fast),
                                oracle_corrupt(&model, reference, &mut slow),
                                "{layer}, homopolymer {}, seed {seed}, length {}",
                                model.use_homopolymer,
                                reference.len()
                            );
                            // The same draws, in the same order.
                            assert_eq!(fast.next_u64(), slow.next_u64(), "{layer}, seed {seed}");
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod homopolymer_tests {
    use super::*;
    use dnasim_core::rng::seeded;
    use dnasim_profile::{BaseErrorRates, LongDeletionParams};

    fn model_with_boost(boost: f64) -> KeoliyaModel {
        let rates = BaseErrorRates {
            substitution: 0.1,
            deletion: 0.0,
            insertion: 0.0,
        };
        let mut substitution = [[0.0f64; 4]; 4];
        for b in Base::ALL {
            for t in Base::ALL {
                if b != t {
                    substitution[b.index()][t.index()] = 1.0 / 3.0;
                }
            }
        }
        let learned = LearnedModel {
            strand_len: 60,
            per_base: [rates; 4],
            substitution,
            long_deletion: LongDeletionParams::default(),
            spatial_multipliers: vec![1.0; 60],
            second_order: Vec::new(),
            aggregate_error_rate: 0.1,
            homopolymer_boost: boost,
        };
        KeoliyaModel::new(learned, SimulatorLayer::SpatialSkew).with_homopolymer_modulation()
    }

    #[test]
    fn multipliers_have_mean_one() {
        let bases: Strand = "AAAACGTACGT".parse().unwrap();
        let m = homopolymer_multipliers(bases.as_bases(), 3.0);
        let mean = m.iter().sum::<f64>() / m.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9);
        assert!(m[0] > m[6]);
    }

    #[test]
    fn boost_concentrates_errors_in_runs() {
        let model = model_with_boost(5.0);
        // Reference: 30 bases of homopolymer then 30 mixed bases.
        let reference: Strand = format!("{}{}", "A".repeat(30), "CGTACGTACGTACGTACGTACGTACGTACG")
            .parse()
            .unwrap();
        let mut rng = seeded(1);
        let mut run_errors = 0usize;
        let mut other_errors = 0usize;
        for _ in 0..400 {
            let read = model.corrupt(&reference, &mut rng);
            assert_eq!(read.len(), 60); // substitution-only model
            for i in 0..60 {
                if read[i] != reference[i] {
                    if i < 30 {
                        run_errors += 1;
                    } else {
                        other_errors += 1;
                    }
                }
            }
        }
        assert!(
            run_errors > 3 * other_errors,
            "run {run_errors} vs other {other_errors}"
        );
    }

    #[test]
    fn disabled_by_default() {
        let learned = model_with_boost(5.0).learned().clone();
        let model = KeoliyaModel::new(learned, SimulatorLayer::SpatialSkew);
        assert!(!model.use_homopolymer);
    }
}
