//! Simulator-fidelity metrics beyond reconstruction accuracy — the other
//! evaluation criteria §3.1 enumerates:
//!
//! 1. **error statistics** — χ² distance between the error-type frequency
//!    histograms of real and simulated data;
//! 2. **positional statistics** — χ² distance between the per-position
//!    error histograms (the spatial profile, this paper's key parameter);
//! 3. **string similarity** — difference in the mean gestalt score of reads
//!    against their references.
//!
//! Accuracy-after-reconstruction remains the paper's headline metric;
//! these closed-form distances are cheap complements for quick iteration.

use dnasim_core::{fold_windows, Budget, ClusterSource, Dataset, DnasimError, EditOp, WindowStats};
use dnasim_metrics::{chi_square_distance, gestalt_score, normalize_histogram};
use dnasim_profile::{ErrorStats, TieBreak};

use dnasim_core::rng::SimRng;

/// The §3.1 fidelity distances between a real and a simulated dataset
/// (all: lower is better, 0 = indistinguishable under that statistic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityReport {
    /// χ² distance between second-order error-type frequency histograms.
    pub error_type_distance: f64,
    /// χ² distance between per-position error histograms.
    pub positional_distance: f64,
    /// |mean gestalt(real reads) − mean gestalt(simulated reads)|.
    pub gestalt_gap: f64,
    /// |aggregate error rate(real) − aggregate(simulated)|.
    pub aggregate_rate_gap: f64,
}

impl FidelityReport {
    /// A single scalar summary (unweighted sum of the four distances).
    pub fn total(&self) -> f64 {
        self.error_type_distance
            + self.positional_distance
            + self.gestalt_gap
            + self.aggregate_rate_gap
    }
}

impl std::fmt::Display for FidelityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "χ²(error types) {:.4}, χ²(positions) {:.4}, gestalt gap {:.4}, rate gap {:.4}",
            self.error_type_distance,
            self.positional_distance,
            self.gestalt_gap,
            self.aggregate_rate_gap
        )
    }
}

/// Computes the §3.1 fidelity distances between `real` and `simulated`.
///
/// Both datasets are profiled with the Appendix-B edit-script recovery;
/// the error-type histogram covers every specific (second-order) error
/// observed in either dataset.
///
/// # Examples
///
/// ```
/// use dnasim_core::rng::seeded;
/// use dnasim_dataset::NanoporeTwinConfig;
/// use dnasim_pipeline::simulator_fidelity;
///
/// let mut config = NanoporeTwinConfig::small();
/// config.cluster_count = 20;
/// let real = config.generate();
/// let mut rng = seeded(1);
/// // A dataset is perfectly faithful to itself.
/// let report = simulator_fidelity(&real, &real, &mut rng);
/// assert!(report.total() < 1e-9);
/// ```
pub fn simulator_fidelity(
    real: &Dataset,
    simulated: &Dataset,
    rng: &mut SimRng,
) -> FidelityReport {
    let real_stats = ErrorStats::from_dataset(real, TieBreak::PreferSubstitution, rng);
    let sim_stats = ErrorStats::from_dataset(simulated, TieBreak::PreferSubstitution, rng);

    let mean_gestalt = |ds: &Dataset| -> f64 {
        let mut acc = GestaltAccumulator::default();
        for cluster in ds.iter() {
            acc.record_cluster(cluster);
        }
        acc.mean()
    };
    report_from_parts(
        &real_stats,
        &sim_stats,
        mean_gestalt(real),
        mean_gestalt(simulated),
    )
}

/// Streaming counterpart of [`simulator_fidelity`]: pulls the real and
/// simulated clusters from two [`ClusterSource`]s in bounded batches of
/// at most `batch_size`, accumulating the error statistics (via
/// [`ErrorStats::merge`]) and the mean gestalt score incrementally.
///
/// The real source drains first, then the simulated one — the same order
/// [`simulator_fidelity`] profiles the two datasets — so the report is
/// identical for every batch size.
///
/// # Errors
///
/// [`DnasimError::Config`] for `batch_size == 0` or a non-contiguous
/// source, or whatever either source reports.
pub fn simulator_fidelity_stream<S1, S2>(
    real: &mut S1,
    simulated: &mut S2,
    batch_size: usize,
    rng: &mut SimRng,
) -> Result<(FidelityReport, WindowStats), DnasimError>
where
    S1: ClusterSource + ?Sized,
    S2: ClusterSource + ?Sized,
{
    let (real_stats, real_gestalt, mut window) = drain_fidelity_inputs(real, batch_size, rng)?;
    let (sim_stats, sim_gestalt, sim_window) = drain_fidelity_inputs(simulated, batch_size, rng)?;
    window.absorb(sim_window);
    Ok((
        report_from_parts(&real_stats, &sim_stats, real_gestalt, sim_gestalt),
        window,
    ))
}

/// Mean gestalt score over (reference, read) pairs, accumulated one
/// cluster at a time.
#[derive(Debug, Default, Clone, Copy)]
struct GestaltAccumulator {
    total: f64,
    count: usize,
}

impl GestaltAccumulator {
    fn record_cluster(&mut self, cluster: &dnasim_core::Cluster) {
        for read in cluster.reads() {
            self.total += gestalt_score(cluster.reference().as_bases(), read.as_bases());
            self.count += 1;
        }
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            1.0
        } else {
            self.total / self.count as f64
        }
    }
}

fn drain_fidelity_inputs<S: ClusterSource + ?Sized>(
    source: &mut S,
    batch_size: usize,
    rng: &mut SimRng,
) -> Result<(ErrorStats, f64, WindowStats), DnasimError> {
    let mut stats = ErrorStats::new();
    let mut gestalt = GestaltAccumulator::default();
    let window = fold_windows(source, batch_size, &Budget::unlimited(), "fidelity", |batch| {
        let mut partial = ErrorStats::new();
        for cluster in batch.clusters() {
            partial.record_cluster(cluster, TieBreak::PreferSubstitution, rng);
            gestalt.record_cluster(cluster);
        }
        stats.merge(&partial);
        Ok(())
    })?;
    Ok((stats, gestalt.mean(), window))
}

fn report_from_parts(
    real_stats: &ErrorStats,
    sim_stats: &ErrorStats,
    real_gestalt: f64,
    sim_gestalt: f64,
) -> FidelityReport {
    // Error-type histogram over the union of observed specific errors.
    let mut ops: Vec<EditOp> = real_stats
        .second_order_errors()
        .into_iter()
        .map(|(op, _)| op)
        .chain(sim_stats.second_order_errors().into_iter().map(|(op, _)| op))
        .collect();
    ops.sort();
    ops.dedup();
    let histogram = |stats: &ErrorStats| -> Vec<f64> {
        let by_op: std::collections::HashMap<EditOp, usize> = stats
            .second_order_errors()
            .into_iter()
            .map(|(op, stat)| (op, stat.count))
            .collect();
        let counts: Vec<usize> = ops
            .iter()
            .map(|op| by_op.get(op).copied().unwrap_or(0))
            .collect();
        normalize_histogram(&counts)
    };
    let error_type_distance = chi_square_distance(&histogram(real_stats), &histogram(sim_stats));

    let positional_distance = chi_square_distance(
        &normalize_histogram(real_stats.positional_errors()),
        &normalize_histogram(sim_stats.positional_errors()),
    );

    let gestalt_gap = (real_gestalt - sim_gestalt).abs();

    let aggregate_rate_gap =
        (real_stats.aggregate_error_rate() - sim_stats.aggregate_error_rate()).abs();

    FidelityReport {
        error_type_distance,
        positional_distance,
        gestalt_gap,
        aggregate_rate_gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_channel::{CoverageModel, KeoliyaModel, Simulator, SimulatorLayer};
    use dnasim_core::rng::seeded;
    use dnasim_dataset::NanoporeTwinConfig;
    use dnasim_profile::LearnedModel;

    fn twin(n: usize) -> Dataset {
        let mut config = NanoporeTwinConfig::small();
        config.cluster_count = n;
        config.generate()
    }

    #[test]
    fn identical_datasets_have_zero_distance() {
        let real = twin(25);
        let mut rng = seeded(1);
        let report = simulator_fidelity(&real, &real, &mut rng);
        assert!(report.error_type_distance < 1e-12);
        assert!(report.positional_distance < 1e-12);
        assert!(report.gestalt_gap < 1e-12);
        assert!(report.aggregate_rate_gap < 1e-12);
        assert!(report.total() < 1e-9);
    }

    #[test]
    fn layered_simulator_is_closer_than_naive() {
        // The paper's claim restated in the §3.1 closed-form metrics: the
        // spatial-skew layer should beat the naive layer on the positional
        // χ² distance.
        let real = twin(60);
        let mut rng = seeded(2);
        let stats = ErrorStats::from_dataset(&real, TieBreak::Random, &mut rng);
        let learned = LearnedModel::from_stats(&stats, 10);
        let simulate = |layer: SimulatorLayer, rng: &mut SimRng| {
            Simulator::new(
                KeoliyaModel::new(learned.clone(), layer),
                CoverageModel::Fixed(0),
            )
            .resimulate_matching(&real, rng)
        };
        let naive = simulate(SimulatorLayer::Naive, &mut rng);
        let skewed = simulate(SimulatorLayer::SpatialSkew, &mut rng);
        let naive_report = simulator_fidelity(&real, &naive, &mut rng);
        let skew_report = simulator_fidelity(&real, &skewed, &mut rng);
        assert!(
            skew_report.positional_distance < naive_report.positional_distance,
            "skew layer {:.5} should beat naive {:.5} on positional χ²",
            skew_report.positional_distance,
            naive_report.positional_distance
        );
    }

    #[test]
    fn streaming_fidelity_matches_in_memory() {
        let real = twin(20);
        let simulated = {
            let mut rng = seeded(3);
            Simulator::new(
                KeoliyaModel::new(
                    LearnedModel::from_stats(
                        &ErrorStats::from_dataset(&real, TieBreak::Random, &mut rng),
                        10,
                    ),
                    SimulatorLayer::Naive,
                ),
                CoverageModel::Fixed(0),
            )
            .resimulate_matching(&real, &mut rng)
        };
        let whole = simulator_fidelity(&real, &simulated, &mut seeded(5));
        for batch_size in [1, 3, 8, usize::MAX] {
            let (streamed, window) = simulator_fidelity_stream(
                &mut real.stream(),
                &mut simulated.stream(),
                batch_size,
                &mut seeded(5),
            )
            .unwrap();
            assert_eq!(streamed, whole, "batch_size={batch_size}");
            assert_eq!(window.clusters, real.len() + simulated.len());
            assert!(window.high_watermark <= batch_size);
        }
    }

    #[test]
    fn display_mentions_all_components() {
        let report = FidelityReport {
            error_type_distance: 0.1,
            positional_distance: 0.2,
            gestalt_gap: 0.3,
            aggregate_rate_gap: 0.4,
        };
        let text = report.to_string();
        assert!(text.contains("error types"));
        assert!(text.contains("positions"));
        assert!(text.contains("gestalt"));
        assert!((report.total() - 1.0).abs() < 1e-12);
    }
}
