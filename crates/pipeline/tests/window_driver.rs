//! Every streaming stage runs on the one budgeted window driver in
//! `dnasim_core::stream`, so every stage reports the same window gauges
//! and rejects the same malformed sources.

use dnasim_channel::{CoverageModel, IdentityModel, Simulator};
use dnasim_core::rng::{seeded, SeedSequence};
use dnasim_core::{
    resident_reads, Batch, ClusterSource, Dataset, DnasimError, Strand, WindowStats,
};
use dnasim_dataset::NanoporeTwinConfig;
use dnasim_par::ThreadPool;
use dnasim_pipeline::{
    evaluate_reconstruction_stream, post_reconstruction_profiles_stream,
    pre_reconstruction_profiles_stream, simulator_fidelity_stream,
};
use dnasim_profile::{ErrorStats, TieBreak};
use dnasim_reconstruct::MajorityVote;

fn twin(clusters: usize) -> Dataset {
    let mut config = NanoporeTwinConfig::small();
    config.cluster_count = clusters;
    config.generate()
}

/// The most reads any window of `batch_size` consecutive clusters holds.
fn largest_window_reads(datasets: &[&Dataset], batch_size: usize) -> usize {
    datasets
        .iter()
        .flat_map(|ds| ds.clusters().chunks(batch_size.min(ds.len().max(1))))
        .map(resident_reads)
        .max()
        .unwrap_or(0)
}

type Stage = fn(&Dataset, &Dataset, usize) -> WindowStats;

fn simulate(real: &Dataset, _: &Dataset, batch_size: usize) -> WindowStats {
    let sim = Simulator::new(IdentityModel, CoverageModel::negative_binomial(6.0, 2.0));
    let mut out = Dataset::new();
    sim.simulate_stream(
        &real.references(),
        &SeedSequence::new(5),
        batch_size,
        &ThreadPool::new(2),
        &mut out,
    )
    .unwrap()
}

fn evaluate(real: &Dataset, _: &Dataset, batch_size: usize) -> WindowStats {
    evaluate_reconstruction_stream(
        &mut real.stream(),
        &MajorityVote,
        batch_size,
        &ThreadPool::new(2),
    )
    .unwrap()
    .1
}

fn pre_profiles(real: &Dataset, _: &Dataset, batch_size: usize) -> WindowStats {
    pre_reconstruction_profiles_stream(&mut real.stream(), batch_size)
        .unwrap()
        .2
}

fn post_profiles(real: &Dataset, _: &Dataset, batch_size: usize) -> WindowStats {
    post_reconstruction_profiles_stream(
        &mut real.stream(),
        &MajorityVote,
        batch_size,
        &ThreadPool::new(2),
    )
    .unwrap()
    .2
}

fn fidelity(real: &Dataset, simulated: &Dataset, batch_size: usize) -> WindowStats {
    simulator_fidelity_stream(
        &mut real.stream(),
        &mut simulated.stream(),
        batch_size,
        &mut seeded(3),
    )
    .unwrap()
    .1
}

#[test]
fn every_stage_gauges_the_largest_window_it_held() {
    let real = twin(23);
    let simulated = twin(17);
    let references: Vec<Strand> = real.references();
    let sim = Simulator::new(IdentityModel, CoverageModel::negative_binomial(6.0, 2.0));
    let produced = sim
        .simulate_on(&references, &SeedSequence::new(5), &ThreadPool::serial())
        .unwrap();
    // (stage, name, datasets whose windows the stage holds)
    let table: [(Stage, &str, Vec<&Dataset>); 5] = [
        (simulate, "simulate_stream", vec![&produced]),
        (evaluate, "evaluate_reconstruction_stream", vec![&real]),
        (
            pre_profiles,
            "pre_reconstruction_profiles_stream",
            vec![&real],
        ),
        (
            post_profiles,
            "post_reconstruction_profiles_stream",
            vec![&real],
        ),
        (
            fidelity,
            "simulator_fidelity_stream",
            vec![&real, &simulated],
        ),
    ];
    for (stage, name, held) in &table {
        for batch_size in [1, 7, usize::MAX] {
            let window = stage(&real, &simulated, batch_size);
            let expected = largest_window_reads(held, batch_size);
            assert!(expected > 0, "{name}: fixture holds no reads");
            assert_eq!(
                window.peak_resident_reads, expected,
                "{name} at batch {batch_size}"
            );
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
    let pool = ThreadPool::new(2);
    let results: [(&str, Result<(), DnasimError>); 6] = [
        (
            "evaluate_reconstruction_stream",
            evaluate_reconstruction_stream(&mut gapped(), &MajorityVote, 4, &pool).map(drop),
        ),
        (
            "pre_reconstruction_profiles_stream",
            pre_reconstruction_profiles_stream(&mut gapped(), 4).map(drop),
        ),
        (
            "post_reconstruction_profiles_stream",
            post_reconstruction_profiles_stream(&mut gapped(), &MajorityVote, 4, &pool).map(drop),
        ),
        (
            "simulator_fidelity_stream (real side)",
            simulator_fidelity_stream(&mut gapped(), &mut real.stream(), 4, &mut seeded(1))
                .map(drop),
        ),
        (
            "simulator_fidelity_stream (simulated side)",
            simulator_fidelity_stream(&mut real.stream(), &mut gapped(), 4, &mut seeded(1))
                .map(drop),
        ),
        (
            "ErrorStats::from_source",
            ErrorStats::from_source(&mut gapped(), 4, TieBreak::Random, &mut seeded(1)).map(drop),
        ),
    ];
    for (name, result) in results {
        assert!(
            matches!(result, Err(DnasimError::Config { .. })),
            "{name}: expected a config error, got {result:?}"
        );
    }
}

#[test]
fn every_consumer_stage_rejects_a_zero_batch_size() {
    let real = twin(3);
    let pool = ThreadPool::serial();
    let results: [Result<(), DnasimError>; 3] = [
        evaluate_reconstruction_stream(&mut real.stream(), &MajorityVote, 0, &pool).map(drop),
        pre_reconstruction_profiles_stream(&mut real.stream(), 0).map(drop),
        ErrorStats::from_source(&mut real.stream(), 0, TieBreak::Random, &mut seeded(1)).map(drop),
    ];
    for result in results {
        assert!(
            matches!(result, Err(DnasimError::Config { .. })),
            "{result:?}"
        );
    }
}
