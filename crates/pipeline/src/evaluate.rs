//! Dataset-level evaluation: run a reconstructor over every cluster and
//! collect accuracy and positional error profiles.
//!
//! Every entry point reconstructs on a thread pool and folds the estimates
//! in cluster order. Reconstruction is pure, so the results are
//! byte-identical at every thread count and batch size.

use dnasim_core::rng::SimRng;
use dnasim_core::{
    fold_windows, Cluster, ClusterSource, Dataset, DnasimError, Strand, WindowStats,
};
use dnasim_metrics::{AccuracyReport, PositionalProfile, ProfileKind};
use dnasim_par::{RunCtx, ThreadPool};
use dnasim_profile::{edit_script_with, EditScratch, TieBreak};
use dnasim_reconstruct::TraceReconstructor;

/// Accuracy of `algorithm` over every cluster of `dataset`, reconstructed
/// on the environment's pool ([`ThreadPool::from_env`]).
///
/// Erasures (clusters with zero reads) are counted as total losses, as the
/// decoder would experience them.
///
/// # Examples
///
/// ```
/// use dnasim_core::{Cluster, Dataset, Strand};
/// use dnasim_pipeline::evaluate_reconstruction;
/// use dnasim_reconstruct::MajorityVote;
///
/// let reference: Strand = "ACGT".parse()?;
/// let ds = Dataset::from_clusters(vec![Cluster::new(
///     reference.clone(),
///     vec![reference.clone(), reference.clone()],
/// )]);
/// let report = evaluate_reconstruction(&ds, &MajorityVote);
/// assert_eq!(report.per_strand_percent(), 100.0);
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
pub fn evaluate_reconstruction<A: TraceReconstructor + ?Sized>(
    dataset: &Dataset,
    algorithm: &A,
) -> AccuracyReport {
    accuracy_of(
        dataset.clusters(),
        &reconstruct_all(dataset, algorithm, &ThreadPool::from_env()),
    )
}

/// [`evaluate_reconstruction`] over a stream: pulls clusters from
/// `source` in windows of at most `ctx.batch_size()`, reconstructs each
/// window on `ctx.pool()`, and folds the accuracy report in cluster order
/// — at no point are more than one window's clusters (plus their
/// estimates) in flight.
///
/// Reconstruction is pure, so the report is byte-identical to
/// [`evaluate_reconstruction`] for every batch size and thread count. The
/// budget is charged through [`fold_windows`]: one work unit per
/// reconstructed cluster (an empty batch charges one unit, so a stalled
/// source trips the deadline instead of spinning), admitted before the
/// window fans out, so exhaustion cuts the stream at the same global
/// cluster at any batch size or thread count.
///
/// # Errors
///
/// [`DnasimError::Config`] for a non-contiguous source,
/// [`DnasimError::DeadlineExceeded`] on exhaustion or cancellation,
/// [`DnasimError::Degraded`] if a worker panicked, or whatever the source
/// reports.
pub fn evaluate_reconstruction_in<S, A>(
    source: &mut S,
    algorithm: &A,
    ctx: &RunCtx,
) -> Result<(AccuracyReport, WindowStats), DnasimError>
where
    S: ClusterSource + ?Sized,
    A: TraceReconstructor + ?Sized,
{
    let mut report = AccuracyReport::new();
    let window = fold_windows(source, ctx.batch_size(), ctx.budget(), "reconstruct", |batch| {
        let estimates = reconstruct_batch(batch.clusters(), algorithm, ctx.pool())?;
        report.merge(&accuracy_of(batch.clusters(), &estimates));
        Ok(())
    })?;
    Ok((report, window))
}

/// Reconstructs every non-erasure cluster of a window on `pool`, in
/// cluster order (`None` marks an erasure).
fn reconstruct_batch<A>(
    clusters: &[Cluster],
    algorithm: &A,
    pool: &ThreadPool,
) -> Result<Vec<Option<Strand>>, DnasimError>
where
    A: TraceReconstructor + ?Sized,
{
    Ok(pool.par_map_indexed(clusters, |_, cluster| {
        (!cluster.is_erasure())
            .then(|| algorithm.reconstruct(cluster.reads(), cluster.reference().len()))
    })?)
}

/// The serial reconstruction loop: [`reconstruct_batch`] without a pool.
/// It is the fallback when a worker panics, so a panicking reconstructor
/// panics again here, from its own frame, and the oracle every pool-driven
/// evaluation is tested against.
fn reconstruct_serial<A>(clusters: &[Cluster], algorithm: &A) -> Vec<Option<Strand>>
where
    A: TraceReconstructor + ?Sized,
{
    clusters
        .iter()
        .map(|cluster| {
            (!cluster.is_erasure())
                .then(|| algorithm.reconstruct(cluster.reads(), cluster.reference().len()))
        })
        .collect()
}

/// Every cluster's estimate on `pool`, in cluster order (`None` marks an
/// erasure). Reconstruction is pure, so the estimates equal
/// [`reconstruct_serial`]'s at every thread count; a worker panic re-runs
/// that loop instead of surfacing as an error.
pub(crate) fn reconstruct_all<A>(
    dataset: &Dataset,
    algorithm: &A,
    pool: &ThreadPool,
) -> Vec<Option<Strand>>
where
    A: TraceReconstructor + ?Sized,
{
    reconstruct_batch(dataset.clusters(), algorithm, pool)
        .unwrap_or_else(|_| reconstruct_serial(dataset.clusters(), algorithm))
}

/// Folds estimates into an accuracy report in cluster order; an erasure
/// counts as a total loss.
pub(crate) fn accuracy_of(clusters: &[Cluster], estimates: &[Option<Strand>]) -> AccuracyReport {
    let mut report = AccuracyReport::new();
    for (cluster, estimate) in clusters.iter().zip(estimates) {
        match estimate {
            Some(estimate) => report.record(cluster.reference(), estimate),
            None => report.record_erasure(cluster.reference()),
        }
    }
    report
}

/// Folds estimates into `(hamming, gestalt)` profiles of length `len`,
/// skipping erasures.
fn profiles_of(
    len: usize,
    clusters: &[Cluster],
    estimates: &[Option<Strand>],
) -> (PositionalProfile, PositionalProfile) {
    let mut hamming = PositionalProfile::new(ProfileKind::Hamming, len);
    let mut gestalt = PositionalProfile::new(ProfileKind::GestaltAligned, len);
    for (cluster, estimate) in clusters.iter().zip(estimates) {
        if let Some(estimate) = estimate {
            hamming.record(cluster.reference(), estimate);
            gestalt.record(cluster.reference(), estimate);
        }
    }
    (hamming, gestalt)
}

/// Share of residual (post-reconstruction) errors that are deletions,
/// measured by a minimum edit script from reference to estimate. Tie-breaks
/// draw from `rng` serially in cluster order, so the share depends only on
/// the estimates, never on how they were computed.
pub(crate) fn residual_deletion_share(
    clusters: &[Cluster],
    estimates: &[Option<Strand>],
    rng: &mut SimRng,
) -> f64 {
    let mut counts = [0usize; 3];
    let mut scratch = EditScratch::new();
    for (cluster, estimate) in clusters.iter().zip(estimates) {
        let Some(estimate) = estimate else { continue };
        let script = edit_script_with(
            &mut scratch,
            cluster.reference(),
            estimate,
            TieBreak::Random,
            rng,
        );
        for (c, k) in counts.iter_mut().zip(script.error_kind_counts()) {
            *c += k;
        }
    }
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    counts[1] as f64 / total as f64 // deletions
}

/// Post-reconstruction positional profiles: reconstruct every cluster on
/// the environment's pool ([`ThreadPool::from_env`]) and compare the
/// estimate against the reference under both attribution rules.
///
/// Returns `(hamming_profile, gestalt_profile)` — the two panels of every
/// post-reconstruction figure. The profiles do not depend on the thread
/// count.
pub fn post_reconstruction_profiles<A: TraceReconstructor + ?Sized>(
    dataset: &Dataset,
    algorithm: &A,
) -> (PositionalProfile, PositionalProfile) {
    profiles_of(
        dataset.strand_len().unwrap_or(0),
        dataset.clusters(),
        &reconstruct_all(dataset, algorithm, &ThreadPool::from_env()),
    )
}

/// Pre-reconstruction profiles: compare every raw read against its
/// reference (Fig. 3.2's panels).
pub fn pre_reconstruction_profiles(dataset: &Dataset) -> (PositionalProfile, PositionalProfile) {
    let len = dataset.strand_len().unwrap_or(0);
    let mut hamming = PositionalProfile::new(ProfileKind::Hamming, len);
    let mut gestalt = PositionalProfile::new(ProfileKind::GestaltAligned, len);
    for cluster in dataset.iter() {
        for read in cluster.reads() {
            hamming.record(cluster.reference(), read);
            gestalt.record(cluster.reference(), read);
        }
    }
    (hamming, gestalt)
}

/// The §3.2 fixed-coverage protocol: keep only clusters with coverage ≥
/// `min_coverage`, then truncate every cluster to its first
/// `target_coverage` reads — so coverage `i` and `i + 1` differ only in the
/// marginal read.
///
/// Filtering and truncating in one pass copies only the kept reads, never
/// a whole surviving cluster.
pub fn fixed_coverage_protocol(
    dataset: &Dataset,
    min_coverage: usize,
    target_coverage: usize,
) -> Dataset {
    dataset
        .iter()
        .filter(|cluster| cluster.coverage() >= min_coverage)
        .map(|cluster| cluster.with_coverage(target_coverage))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_channel::{CoverageModel, ParametricModel, Simulator, SpatialDistribution};
    use dnasim_core::rng::seeded;
    use dnasim_reconstruct::{BmaLookahead, Iterative, MajorityVote};

    fn clean_dataset(clusters: usize, coverage: usize, len: usize) -> Dataset {
        let mut rng = seeded(1);
        (0..clusters)
            .map(|_| {
                let r = Strand::random(len, &mut rng);
                Cluster::new(r.clone(), vec![r; coverage])
            })
            .collect()
    }

    #[test]
    fn clean_data_scores_perfectly() {
        let ds = clean_dataset(5, 3, 30);
        let report = evaluate_reconstruction(&ds, &BmaLookahead::default());
        assert_eq!(report.per_strand_percent(), 100.0);
        assert_eq!(report.per_char_percent(), 100.0);
    }

    #[test]
    fn erasures_count_as_losses() {
        let mut ds = clean_dataset(1, 2, 20);
        ds.push(Cluster::erasure(Strand::random(20, &mut seeded(2))));
        let report = evaluate_reconstruction(&ds, &MajorityVote);
        assert_eq!(report.per_strand_percent(), 50.0);
    }

    /// A noisy dataset with erasures interleaved, so accuracy, profiles
    /// and residual kinds all have something to count.
    fn noisy_dataset(clusters: usize, coverage: usize, len: usize) -> Dataset {
        let mut rng = seeded(11);
        let references: Vec<Strand> = (0..clusters).map(|_| Strand::random(len, &mut rng)).collect();
        let noisy = Simulator::new(
            ParametricModel::new(0.08, SpatialDistribution::Uniform),
            CoverageModel::Fixed(coverage),
        )
        .simulate(&references, &mut rng);
        let mut ds = Dataset::new();
        for (i, cluster) in noisy.iter().enumerate() {
            ds.push(cluster.clone());
            if i % 5 == 2 {
                ds.push(Cluster::erasure(Strand::random(len, &mut rng)));
            }
        }
        ds
    }

    /// [`evaluate_reconstruction_in`] over a whole dataset.
    fn evaluated<A: TraceReconstructor + ?Sized>(
        ds: &Dataset,
        algorithm: &A,
        pool: &ThreadPool,
        batch_size: usize,
    ) -> Result<AccuracyReport, DnasimError> {
        let ctx = RunCtx::new(pool, batch_size)?;
        Ok(evaluate_reconstruction_in(&mut ds.stream(), algorithm, &ctx)?.0)
    }

    /// The serial oracle: a fold over the private serial loop.
    fn serial_report<A: TraceReconstructor>(ds: &Dataset, algorithm: &A) -> AccuracyReport {
        accuracy_of(ds.clusters(), &reconstruct_serial(ds.clusters(), algorithm))
    }

    #[test]
    fn pool_driven_evaluation_matches_serial_oracle() {
        let ds = noisy_dataset(23, 4, 40);
        assert!(ds.iter().any(Cluster::is_erasure));
        let len = ds.strand_len().unwrap_or(0);
        let bma = BmaLookahead::default();
        let iterative = Iterative::default();
        let algorithms: [&dyn TraceReconstructor; 2] = [&bma, &iterative];
        for algorithm in algorithms {
            let serial = reconstruct_serial(ds.clusters(), algorithm);
            let report = accuracy_of(ds.clusters(), &serial);
            let profiles = profiles_of(len, ds.clusters(), &serial);
            let share = residual_deletion_share(ds.clusters(), &serial, &mut seeded(3));
            assert!(report.per_strand_percent() < 100.0, "{algorithm:?}: no residual errors");
            assert!(share > 0.0, "{algorithm:?}: no residual deletions");

            assert_eq!(evaluate_reconstruction(&ds, algorithm), report);
            assert_eq!(post_reconstruction_profiles(&ds, algorithm), profiles);
            for threads in [1, 2, 4] {
                let pool = ThreadPool::new(threads);
                let estimates = reconstruct_all(&ds, algorithm, &pool);
                assert_eq!(estimates, serial, "{algorithm:?} threads={threads}");
                assert_eq!(accuracy_of(ds.clusters(), &estimates), report);
                assert_eq!(profiles_of(len, ds.clusters(), &estimates), profiles);
                let pooled = residual_deletion_share(ds.clusters(), &estimates, &mut seeded(3));
                assert_eq!(pooled.to_bits(), share.to_bits(), "threads={threads}");
                assert_eq!(evaluated(&ds, algorithm, &pool, usize::MAX).unwrap(), report);
            }
        }
    }

    /// A reconstructor that panics on every cluster.
    #[derive(Debug)]
    struct Panicking;

    impl TraceReconstructor for Panicking {
        fn reconstruct(&self, _: &[Strand], _: usize) -> Strand {
            panic!("reconstructor gave up")
        }

        fn name(&self) -> String {
            "panicking".to_owned()
        }
    }

    #[test]
    #[should_panic(expected = "reconstructor gave up")]
    fn panicking_reconstructor_panics_through_evaluation() {
        evaluate_reconstruction(&clean_dataset(4, 2, 10), &Panicking);
    }

    #[test]
    #[should_panic(expected = "reconstructor gave up")]
    fn panicking_reconstructor_panics_through_profiles() {
        post_reconstruction_profiles(&clean_dataset(4, 2, 10), &Panicking);
    }

    #[test]
    fn panicking_reconstructor_is_a_typed_error_on_an_explicit_pool() {
        let ds = clean_dataset(4, 2, 10);
        for threads in [1, 2] {
            assert!(evaluated(&ds, &Panicking, &ThreadPool::new(threads), usize::MAX).is_err());
        }
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        let mut ds = clean_dataset(6, 3, 20);
        ds.push(Cluster::erasure(Strand::random(20, &mut seeded(9))));
        let serial = serial_report(&ds, &MajorityVote);
        for threads in [1, 2, 4] {
            let par = evaluated(&ds, &MajorityVote, &ThreadPool::new(threads), usize::MAX).unwrap();
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn streaming_evaluation_matches_in_memory() {
        let mut ds = clean_dataset(7, 3, 20);
        ds.push(Cluster::erasure(Strand::random(20, &mut seeded(9))));
        let whole = evaluate_reconstruction(&ds, &MajorityVote);
        for batch_size in [1, 3, 5, usize::MAX] {
            for threads in [1, 4] {
                let ctx = RunCtx::new(&ThreadPool::new(threads), batch_size).unwrap();
                let (report, window) =
                    evaluate_reconstruction_in(&mut ds.stream(), &MajorityVote, &ctx).unwrap();
                assert_eq!(report, whole, "batch_size={batch_size} threads={threads}");
                assert_eq!(window.clusters, ds.len());
                assert!(window.high_watermark <= batch_size);
            }
        }
    }

    #[test]
    fn post_profiles_are_empty_on_clean_data() {
        let ds = clean_dataset(3, 3, 25);
        let (h, g) = post_reconstruction_profiles(&ds, &MajorityVote);
        assert_eq!(h.total_errors(), 0);
        assert_eq!(g.total_errors(), 0);
        assert_eq!(h.comparisons(), 3);
    }

    #[test]
    fn pre_profiles_count_each_read() {
        let ds = clean_dataset(2, 4, 25);
        let (h, _) = pre_reconstruction_profiles(&ds);
        assert_eq!(h.comparisons(), 8);
    }

    #[test]
    fn fixed_coverage_protocol_filters_and_truncates() {
        let mut rng = seeded(3);
        let mut ds = Dataset::new();
        for coverage in [2usize, 5, 12] {
            let r = Strand::random(20, &mut rng);
            ds.push(Cluster::new(r.clone(), vec![r; coverage]));
        }
        let out = fixed_coverage_protocol(&ds, 5, 4);
        assert_eq!(out.len(), 2); // coverage-2 cluster dropped
        assert!(out.iter().all(|c| c.coverage() == 4));
    }

    #[test]
    fn coverage_prefix_property_holds() {
        // First i reads at coverage i are a prefix of coverage i+1.
        let mut rng = seeded(4);
        let r = Strand::random(20, &mut rng);
        let reads: Vec<Strand> = (0..10).map(|_| Strand::random(18, &mut rng)).collect();
        let ds = Dataset::from_clusters(vec![Cluster::new(r, reads)]);
        let c5 = fixed_coverage_protocol(&ds, 10, 5);
        let c6 = fixed_coverage_protocol(&ds, 10, 6);
        assert_eq!(
            c5.clusters()[0].reads(),
            &c6.clusters()[0].reads()[..5]
        );
    }
}
