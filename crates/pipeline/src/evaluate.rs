//! Dataset-level evaluation: run a reconstructor over every cluster and
//! collect accuracy and positional error profiles.

use dnasim_core::{
    fold_windows, Batch, Budget, Cluster, ClusterSource, Dataset, DnasimError, Strand, WindowStats,
};
use dnasim_metrics::{AccuracyReport, PositionalProfile, ProfileKind};
use dnasim_par::ThreadPool;
use dnasim_reconstruct::TraceReconstructor;

/// Accuracy of `algorithm` over every cluster of `dataset`.
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
    let mut report = AccuracyReport::new();
    for cluster in dataset.iter() {
        if cluster.is_erasure() {
            report.record_erasure(cluster.reference());
            continue;
        }
        let estimate = algorithm.reconstruct(cluster.reads(), cluster.reference().len());
        report.record(cluster.reference(), &estimate);
    }
    report
}

/// Parallel counterpart of [`evaluate_reconstruction`]: the streaming path
/// ([`evaluate_reconstruction_stream`]) with one window. Reconstruction is
/// pure and the report is folded in cluster order, so the result does not
/// depend on the thread count.
///
/// # Errors
///
/// Returns [`DnasimError::Degraded`] if a worker panicked.
pub fn evaluate_reconstruction_on<A>(
    dataset: &Dataset,
    algorithm: &A,
    pool: &ThreadPool,
) -> Result<AccuracyReport, DnasimError>
where
    A: TraceReconstructor + Sync + ?Sized,
{
    evaluate_reconstruction_stream(&mut dataset.stream(), algorithm, usize::MAX, pool)
        .map(|(report, _)| report)
}

/// Streaming counterpart of [`evaluate_reconstruction`]: pulls clusters
/// from `source` in bounded batches of at most `batch_size`,
/// reconstructs each batch on `pool`, and folds the accuracy report in
/// cluster order — at no point are more than `batch_size` clusters (plus
/// their estimates) in flight.
///
/// Reconstruction is pure, so the report is byte-identical to
/// [`evaluate_reconstruction`] for every batch size and thread count.
///
/// # Errors
///
/// [`DnasimError::Config`] for `batch_size == 0` or a non-contiguous
/// source, [`DnasimError::Degraded`] if a worker panicked, or whatever
/// the source reports.
pub fn evaluate_reconstruction_stream<S, A>(
    source: &mut S,
    algorithm: &A,
    batch_size: usize,
    pool: &ThreadPool,
) -> Result<(AccuracyReport, WindowStats), DnasimError>
where
    S: ClusterSource + ?Sized,
    A: TraceReconstructor + Sync + ?Sized,
{
    evaluate_reconstruction_stream_budgeted(source, algorithm, batch_size, pool, &Budget::unlimited())
}

/// [`evaluate_reconstruction_stream`] metered by a [`Budget`]: one work
/// unit per reconstructed cluster through [`fold_windows`] (an empty
/// batch charges one unit, so a stalled source trips the deadline instead
/// of spinning). Admission happens before the window fans out, so
/// exhaustion cuts the stream at the same global cluster at any batch
/// size or thread count.
///
/// # Errors
///
/// [`DnasimError::DeadlineExceeded`] on exhaustion or cancellation, plus
/// everything [`evaluate_reconstruction_stream`] can report.
pub fn evaluate_reconstruction_stream_budgeted<S, A>(
    source: &mut S,
    algorithm: &A,
    batch_size: usize,
    pool: &ThreadPool,
    budget: &Budget,
) -> Result<(AccuracyReport, WindowStats), DnasimError>
where
    S: ClusterSource + ?Sized,
    A: TraceReconstructor + Sync + ?Sized,
{
    let mut report = AccuracyReport::new();
    let window = fold_windows(source, batch_size, budget, "reconstruct", |batch| {
        let estimates = reconstruct_batch(batch.clusters(), algorithm, pool)?;
        for (cluster, estimate) in batch.clusters().iter().zip(&estimates) {
            match estimate {
                Some(estimate) => report.record(cluster.reference(), estimate),
                None => report.record_erasure(cluster.reference()),
            }
        }
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
    A: TraceReconstructor + Sync + ?Sized,
{
    Ok(pool.par_map_indexed(clusters, |_, cluster| {
        (!cluster.is_erasure())
            .then(|| algorithm.reconstruct(cluster.reads(), cluster.reference().len()))
    })?)
}

/// Post-reconstruction positional profiles: reconstruct every cluster and
/// compare the estimate against the reference under both attribution rules.
///
/// Returns `(hamming_profile, gestalt_profile)` — the two panels of every
/// post-reconstruction figure.
pub fn post_reconstruction_profiles<A: TraceReconstructor + ?Sized>(
    dataset: &Dataset,
    algorithm: &A,
) -> (PositionalProfile, PositionalProfile) {
    let len = dataset.strand_len().unwrap_or(0);
    let mut hamming = PositionalProfile::new(ProfileKind::Hamming, len);
    let mut gestalt = PositionalProfile::new(ProfileKind::GestaltAligned, len);
    for cluster in dataset.iter() {
        if cluster.is_erasure() {
            continue;
        }
        let estimate = algorithm.reconstruct(cluster.reads(), cluster.reference().len());
        hamming.record(cluster.reference(), &estimate);
        gestalt.record(cluster.reference(), &estimate);
    }
    (hamming, gestalt)
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

/// Streaming counterpart of [`post_reconstruction_profiles`]: profiles
/// accumulate batch-by-batch via [`PositionalProfile::merge`], with
/// reconstruction fanned out on `pool`.
///
/// The profile length is pinned by the first cluster seen (exactly as
/// [`post_reconstruction_profiles`] pins it with `dataset.strand_len()`),
/// so overflow clamping — and therefore the counts — match the
/// whole-dataset profiles for every batch size.
///
/// # Errors
///
/// [`DnasimError::Config`] for `batch_size == 0` or a non-contiguous
/// source, [`DnasimError::Degraded`] if a worker panicked, or whatever
/// the source reports.
pub fn post_reconstruction_profiles_stream<S, A>(
    source: &mut S,
    algorithm: &A,
    batch_size: usize,
    pool: &ThreadPool,
) -> Result<(PositionalProfile, PositionalProfile, WindowStats), DnasimError>
where
    S: ClusterSource + ?Sized,
    A: TraceReconstructor + Sync + ?Sized,
{
    let mut hamming = PositionalProfile::new(ProfileKind::Hamming, 0);
    let mut gestalt = PositionalProfile::new(ProfileKind::GestaltAligned, 0);
    let mut len: Option<usize> = None;
    let window = fold_windows(source, batch_size, &Budget::unlimited(), "profile", |batch| {
        let len = *len.get_or_insert_with(|| first_reference_len(&batch));
        let estimates = reconstruct_batch(batch.clusters(), algorithm, pool)?;
        let mut batch_hamming = PositionalProfile::new(ProfileKind::Hamming, len);
        let mut batch_gestalt = PositionalProfile::new(ProfileKind::GestaltAligned, len);
        for (cluster, estimate) in batch.clusters().iter().zip(&estimates) {
            if let Some(estimate) = estimate {
                batch_hamming.record(cluster.reference(), estimate);
                batch_gestalt.record(cluster.reference(), estimate);
            }
        }
        hamming.merge(&batch_hamming);
        gestalt.merge(&batch_gestalt);
        Ok(())
    })?;
    Ok((hamming, gestalt, window))
}

/// The profile length a stream pins: its first cluster's reference
/// length, exactly as the whole-dataset functions pin it with
/// `dataset.strand_len()`.
fn first_reference_len(batch: &Batch) -> usize {
    batch.clusters().first().map_or(0, |c| c.reference().len())
}

/// Streaming counterpart of [`pre_reconstruction_profiles`]: compares
/// every raw read against its reference, one bounded batch at a time,
/// merging per-batch profiles into the totals.
///
/// # Errors
///
/// [`DnasimError::Config`] for `batch_size == 0` or a non-contiguous
/// source, or whatever the source reports.
pub fn pre_reconstruction_profiles_stream<S>(
    source: &mut S,
    batch_size: usize,
) -> Result<(PositionalProfile, PositionalProfile, WindowStats), DnasimError>
where
    S: ClusterSource + ?Sized,
{
    let mut hamming = PositionalProfile::new(ProfileKind::Hamming, 0);
    let mut gestalt = PositionalProfile::new(ProfileKind::GestaltAligned, 0);
    let mut len: Option<usize> = None;
    let window = fold_windows(source, batch_size, &Budget::unlimited(), "profile", |batch| {
        let len = *len.get_or_insert_with(|| first_reference_len(&batch));
        let mut batch_hamming = PositionalProfile::new(ProfileKind::Hamming, len);
        let mut batch_gestalt = PositionalProfile::new(ProfileKind::GestaltAligned, len);
        for cluster in batch.clusters() {
            for read in cluster.reads() {
                batch_hamming.record(cluster.reference(), read);
                batch_gestalt.record(cluster.reference(), read);
            }
        }
        hamming.merge(&batch_hamming);
        gestalt.merge(&batch_gestalt);
        Ok(())
    })?;
    Ok((hamming, gestalt, window))
}

/// The §3.2 fixed-coverage protocol: keep only clusters with coverage ≥
/// `min_coverage`, then truncate every cluster to its first
/// `target_coverage` reads — so coverage `i` and `i + 1` differ only in the
/// marginal read.
pub fn fixed_coverage_protocol(
    dataset: &Dataset,
    min_coverage: usize,
    target_coverage: usize,
) -> Dataset {
    dataset
        .filter_min_coverage(min_coverage)
        .with_coverage(target_coverage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::seeded;
    use dnasim_core::{Cluster, Strand};
    use dnasim_reconstruct::{BmaLookahead, MajorityVote};

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

    #[test]
    fn parallel_evaluation_matches_serial() {
        let mut ds = clean_dataset(6, 3, 20);
        ds.push(Cluster::erasure(Strand::random(20, &mut seeded(9))));
        let serial = evaluate_reconstruction(&ds, &MajorityVote);
        for threads in [1, 2, 4] {
            let par = evaluate_reconstruction_on(&ds, &MajorityVote, &ThreadPool::new(threads))
                .unwrap();
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
                let (report, window) = evaluate_reconstruction_stream(
                    &mut ds.stream(),
                    &MajorityVote,
                    batch_size,
                    &ThreadPool::new(threads),
                )
                .unwrap();
                assert_eq!(report, whole, "batch_size={batch_size} threads={threads}");
                assert_eq!(window.clusters, ds.len());
                assert!(window.high_watermark <= batch_size);
            }
        }
    }

    #[test]
    fn streaming_profiles_match_in_memory() {
        let mut rng = seeded(5);
        let mut ds = Dataset::new();
        for _ in 0..6 {
            let r = Strand::random(20, &mut rng);
            let reads = (0..3).map(|_| Strand::random(19, &mut rng)).collect();
            ds.push(Cluster::new(r, reads));
        }
        let (post_h, post_g) = post_reconstruction_profiles(&ds, &MajorityVote);
        let (pre_h, pre_g) = pre_reconstruction_profiles(&ds);
        for batch_size in [1, 2, 4, usize::MAX] {
            let (h, g, _) = post_reconstruction_profiles_stream(
                &mut ds.stream(),
                &MajorityVote,
                batch_size,
                &ThreadPool::serial(),
            )
            .unwrap();
            assert_eq!(h, post_h, "post hamming batch_size={batch_size}");
            assert_eq!(g, post_g, "post gestalt batch_size={batch_size}");
            let (h, g, _) =
                pre_reconstruction_profiles_stream(&mut ds.stream(), batch_size).unwrap();
            assert_eq!(h, pre_h, "pre hamming batch_size={batch_size}");
            assert_eq!(g, pre_g, "pre gestalt batch_size={batch_size}");
        }
    }

    #[test]
    fn streaming_evaluation_rejects_zero_batch() {
        let ds = clean_dataset(2, 2, 10);
        assert!(evaluate_reconstruction_stream(
            &mut ds.stream(),
            &MajorityVote,
            0,
            &ThreadPool::serial()
        )
        .is_err());
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
