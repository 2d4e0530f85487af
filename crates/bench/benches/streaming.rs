//! Streaming pipeline throughput (DESIGN.md §11): clusters/sec through the
//! bounded-memory source→batch→pool→sink path at window sizes 16, 256 and
//! 4096 clusters. Every iteration asserts the window high-watermark never
//! exceeds the batch size, so these benches double as a constant-memory
//! check under load. Record ids carry the batch size
//! (`streaming/<stage>/batch-N`); divide the dataset size below by the
//! median to get clusters/sec.

use std::time::Duration;

use dnasim_testkit::bench::Criterion;
use dnasim_testkit::{criterion_group, criterion_main};
use std::hint::black_box;

use dnasim_channel::{CoverageModel, KeoliyaModel, Simulator, SimulatorLayer};
use dnasim_core::rng::{seeded, SeedSequence};
use dnasim_core::NullSink;
use dnasim_dataset::{write_dataset, DatasetReader, NanoporeTwinConfig};
use dnasim_par::ThreadPool;
use dnasim_profile::{ErrorStats, LearnedModel, TieBreak};

/// Clusters per benchmarked run — larger than the biggest batch size so
/// the 16- and 256-cluster windows genuinely cycle.
const CLUSTERS: usize = 512;
const BATCH_SIZES: [usize; 3] = [16, 256, 4096];

fn twin_config() -> NanoporeTwinConfig {
    let mut config = NanoporeTwinConfig::small();
    config.cluster_count = CLUSTERS;
    config
}

fn bench_streaming_generate(c: &mut Criterion) {
    let config = twin_config();
    let pool = ThreadPool::from_env();
    for batch_size in BATCH_SIZES {
        c.bench_function(format!("streaming/generate/batch-{batch_size}"), |b| {
            b.iter(|| {
                let mut sink = NullSink::default();
                let window = config
                    .generate_stream(black_box(batch_size), &pool, &mut sink)
                    .expect("stream generation");
                assert!(window.high_watermark <= batch_size);
                window.clusters
            })
        });
    }
}

fn bench_streaming_resimulate(c: &mut Criterion) {
    // Pre-render the input once; each iteration re-reads it through the
    // text parser exactly as the CLI `simulate` path does.
    let twin = twin_config().generate();
    let mut text = Vec::new();
    write_dataset(&twin, &mut text).expect("render twin");
    let mut rng = seeded(11);
    let stats = ErrorStats::from_dataset(&twin, TieBreak::Random, &mut rng);
    let simulator = Simulator::new(
        KeoliyaModel::new(
            LearnedModel::from_stats(&stats, 10),
            SimulatorLayer::SecondOrder,
        ),
        CoverageModel::Fixed(0),
    );
    let seq = SeedSequence::new(11);
    let pool = ThreadPool::from_env();
    for batch_size in BATCH_SIZES {
        c.bench_function(format!("streaming/resimulate/batch-{batch_size}"), |b| {
            b.iter(|| {
                let mut source = DatasetReader::new(black_box(&text[..]));
                let mut sink = NullSink::default();
                let window = simulator
                    .resimulate_stream(&mut source, &seq, batch_size, &pool, &mut sink)
                    .expect("stream resimulation");
                assert!(window.high_watermark <= batch_size);
                window.clusters
            })
        });
    }
}

fn bench_streaming_profile(c: &mut Criterion) {
    let twin = twin_config().generate();
    let mut text = Vec::new();
    write_dataset(&twin, &mut text).expect("render twin");
    for batch_size in BATCH_SIZES {
        c.bench_function(format!("streaming/profile/batch-{batch_size}"), |b| {
            b.iter(|| {
                let mut source = DatasetReader::new(black_box(&text[..]));
                let mut rng = seeded(3);
                let (stats, window) =
                    ErrorStats::from_source(&mut source, batch_size, TieBreak::Random, &mut rng)
                        .expect("stream profiling");
                assert!(window.high_watermark <= batch_size);
                stats.read_count()
            })
        });
    }
}

criterion_group! {
    name = benches;
    // Whole-dataset passes are tens of milliseconds: keep the sample budget
    // modest so the suite stays CI-sized.
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_streaming_generate, bench_streaming_resimulate, bench_streaming_profile
}
criterion_main!(benches);
