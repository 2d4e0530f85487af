//! Every streaming stage runs on the one budgeted window driver in
//! `dnasim_core::stream`, so every stage reports the same window gauges
//! and rejects the same malformed sources.

use dnasim_channel::{CoverageModel, IdentityModel, Simulator};
use dnasim_core::rng::{seeded, SeedSequence};
use dnasim_core::{resident_reads, Batch, ClusterSource, Dataset, DnasimError, WindowStats};
use dnasim_dataset::NanoporeTwinConfig;
use dnasim_par::{RunCtx, ThreadPool};
use dnasim_pipeline::{
    archive_round_trip_in, archive_round_trip_stream, evaluate_reconstruction_in, ArchiveConfig,
};
use dnasim_profile::{ErrorStats, TieBreak};
use dnasim_reconstruct::MajorityVote;

const TWIN_CLUSTERS: usize = 23;

fn twin_config(clusters: usize) -> NanoporeTwinConfig {
    let mut config = NanoporeTwinConfig::small();
    config.cluster_count = clusters;
    config
}

fn twin(clusters: usize) -> Dataset {
    twin_config(clusters).generate()
}

fn ctx(batch_size: usize) -> RunCtx {
    RunCtx::new(&ThreadPool::new(2), batch_size).unwrap()
}

/// The most reads any window of `batch_size` consecutive clusters holds.
fn largest_window_reads(dataset: &Dataset, batch_size: usize) -> usize {
    dataset
        .clusters()
        .chunks(batch_size.min(dataset.len().max(1)))
        .map(resident_reads)
        .max()
        .unwrap_or(0)
}

/// One `_in` entry run over the twin at one batch size: its window
/// gauges, and the reads its largest window must have held (`None` where
/// the stage's windows are not a slice of the twin).
type Stage = fn(&Dataset, usize) -> (WindowStats, Option<usize>);

fn simulator() -> Simulator<IdentityModel> {
    Simulator::new(IdentityModel, CoverageModel::negative_binomial(6.0, 2.0))
}

fn simulate(real: &Dataset, batch_size: usize) -> (WindowStats, Option<usize>) {
    let references = real.references();
    let seq = SeedSequence::new(5);
    let mut produced = Dataset::new();
    simulator()
        .simulate_in(&references, &seq, &RunCtx::serial(), &mut produced)
        .unwrap();
    let mut out = Dataset::new();
    let window = simulator()
        .simulate_in(&references, &seq, &ctx(batch_size), &mut out)
        .unwrap();
    assert_eq!(out, produced);
    (window, Some(largest_window_reads(&produced, batch_size)))
}

fn resimulate(real: &Dataset, batch_size: usize) -> (WindowStats, Option<usize>) {
    let mut out = Dataset::new();
    let window = Simulator::new(IdentityModel, CoverageModel::Fixed(0))
        .resimulate_in(&mut real.stream(), &SeedSequence::new(5), &ctx(batch_size), &mut out)
        .unwrap();
    (window, Some(largest_window_reads(real, batch_size)))
}

fn generate(real: &Dataset, batch_size: usize) -> (WindowStats, Option<usize>) {
    let mut out = Dataset::new();
    let window = twin_config(real.len())
        .generate_in(&ctx(batch_size), &mut out)
        .unwrap();
    assert_eq!(&out, real);
    (window, Some(largest_window_reads(real, batch_size)))
}

fn evaluate(real: &Dataset, batch_size: usize) -> (WindowStats, Option<usize>) {
    let (_, window) =
        evaluate_reconstruction_in(&mut real.stream(), &MajorityVote, &ctx(batch_size)).unwrap();
    (window, Some(largest_window_reads(real, batch_size)))
}

fn archive(_: &Dataset, batch_size: usize) -> (WindowStats, Option<usize>) {
    let data: Vec<u8> = (0u8..=255).cycle().take(200).collect();
    let (report, window, _) =
        archive_round_trip_in(&data, &ArchiveConfig::default(), &mut seeded(3), &ctx(batch_size))
            .unwrap();
    assert!(window.peak_resident_reads <= report.reads_sequenced);
    (window, None)
}

#[test]
fn every_stage_gauges_the_largest_window_it_held() {
    let real = twin(TWIN_CLUSTERS);
    let table: [(Stage, &str); 5] = [
        (simulate, "Simulator::simulate_in"),
        (resimulate, "Simulator::resimulate_in"),
        (generate, "NanoporeTwinConfig::generate_in"),
        (evaluate, "evaluate_reconstruction_in"),
        (archive, "archive_round_trip_in"),
    ];
    for (stage, name) in table {
        for batch_size in [1, 7, usize::MAX] {
            let (window, expected) = stage(&real, batch_size);
            assert!(window.peak_resident_reads > 0, "{name}: no reads held");
            if let Some(expected) = expected {
                assert_eq!(
                    window.peak_resident_reads, expected,
                    "{name} at batch {batch_size}"
                );
            }
            assert!(
                window.high_watermark <= batch_size,
                "{name} at batch {batch_size}"
            );
        }
    }
}

/// Emits its dataset in windows of at most `max`, but skips `gap` global
/// indices after the first window.
struct GappedSource {
    dataset: Dataset,
    cursor: usize,
    gap: usize,
}

impl ClusterSource for GappedSource {
    fn next_batch(&mut self, max: usize) -> Result<Option<Batch>, DnasimError> {
        let clusters = self.dataset.clusters();
        if self.cursor >= clusters.len() {
            return Ok(None);
        }
        let end = self.cursor.saturating_add(max).min(clusters.len());
        let start = if self.cursor == 0 {
            0
        } else {
            self.cursor + self.gap
        };
        let batch = Batch::new(start, clusters[self.cursor..end].to_vec());
        self.cursor = end;
        Ok(Some(batch))
    }
}

#[test]
fn every_consumer_stage_rejects_a_non_contiguous_source() {
    let real = twin(9);
    let gapped = || GappedSource {
        dataset: real.clone(),
        cursor: 0,
        gap: 2,
    };
    let ctx = ctx(4);
    let results: [(&str, Result<(), DnasimError>); 3] = [
        (
            "evaluate_reconstruction_in",
            evaluate_reconstruction_in(&mut gapped(), &MajorityVote, &ctx).map(drop),
        ),
        (
            "Simulator::resimulate_in",
            simulator()
                .resimulate_in(&mut gapped(), &SeedSequence::new(1), &ctx, &mut Dataset::new())
                .map(drop),
        ),
        (
            "ErrorStats::from_source",
            ErrorStats::from_source(&mut gapped(), &ctx, TieBreak::Random, &mut seeded(1))
                .map(drop),
        ),
    ];
    for (name, result) in results {
        assert!(
            matches!(result, Err(DnasimError::Config { .. })),
            "{name}: expected a config error, got {result:?}"
        );
    }
}

/// A zero batch size is rejected where the batch size enters: by
/// [`RunCtx::new`] before any `_in` stage runs, and by the entry points
/// that still take a bare batch size.
#[test]
fn a_zero_batch_size_is_rejected_where_it_enters() {
    let pool = ThreadPool::serial();
    let results: [Result<(), DnasimError>; 3] = [
        RunCtx::new(&pool, 0).map(drop),
        twin_config(3)
            .generate_stream(0, &pool, &mut Dataset::new())
            .map(drop),
        archive_round_trip_stream(&[1, 2, 3], &ArchiveConfig::default(), &mut seeded(1), &pool, 0)
            .map(drop),
    ];
    for result in results {
        assert!(
            matches!(result, Err(DnasimError::Config { .. })),
            "{result:?}"
        );
    }
}
