//! Thread-pool scaling: the same per-cluster fan-outs at 1, 2, 4, and all
//! available threads. The outputs are byte-identical across thread counts
//! (the differential suite asserts that); these benches measure what the
//! determinism contract buys in wall-clock.

use std::time::Duration;

use dnasim_testkit::bench::{BenchmarkId, Criterion};
use dnasim_testkit::{criterion_group, criterion_main};
use std::hint::black_box;

use dnasim_channel::{CoverageModel, NaiveModel, Simulator};
use dnasim_core::rng::{seeded, SeedSequence};
use dnasim_core::{Dataset, Strand};
use dnasim_par::{RunCtx, ThreadPool};
use dnasim_reconstruct::{reconstruct_clusters, Iterative};

const STRAND_LEN: usize = 110;

fn thread_counts() -> Vec<usize> {
    let all = ThreadPool::default().threads();
    let mut counts = vec![1, 2, 4];
    if !counts.contains(&all) {
        counts.push(all);
    }
    counts.retain(|&t| t <= all.max(4));
    counts
}

fn bench_simulate(c: &mut Criterion) {
    let mut rng = seeded(11);
    let references: Vec<Strand> = (0..400)
        .map(|_| Strand::random(STRAND_LEN, &mut rng))
        .collect();
    let sim = Simulator::new(
        NaiveModel::with_total_rate(0.059),
        CoverageModel::negative_binomial(12.0, 2.5),
    );
    let seq = SeedSequence::new(42);
    let mut group = c.benchmark_group("par-simulate-400x110bp");
    for threads in thread_counts() {
        let ctx = RunCtx::new(&ThreadPool::new(threads), usize::MAX).expect("nonzero batch");
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| {
                let mut out = Dataset::new();
                sim.simulate_in(black_box(&references), &seq, &ctx, &mut out)
                    .map(|_| out)
            })
        });
    }
    group.finish();
}

fn bench_reconstruct(c: &mut Criterion) {
    let mut rng = seeded(13);
    let references: Vec<Strand> = (0..200)
        .map(|_| Strand::random(STRAND_LEN, &mut rng))
        .collect();
    let sim = Simulator::new(
        NaiveModel::with_total_rate(0.059),
        CoverageModel::Fixed(10),
    );
    let dataset: Dataset = sim.simulate(&references, &mut rng);
    let algo = Iterative::default();
    let mut group = c.benchmark_group("par-reconstruct-200x10cov");
    for threads in thread_counts() {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| reconstruct_clusters(&algo, black_box(&dataset), STRAND_LEN, &pool))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_simulate, bench_reconstruct
}
criterion_main!(benches);
