//! Profiler throughput: edit-script recovery and statistics accumulation
//! per (reference, read) pair — the cost of learning a channel model.

use std::time::Duration;

use dnasim_testkit::bench::Criterion;
use dnasim_testkit::{criterion_group, criterion_main};
use std::hint::black_box;

use dnasim_channel::{ErrorModel, NaiveModel};
use dnasim_core::rng::seeded;
use dnasim_core::Strand;
use dnasim_profile::{edit_script, edit_script_with, EditScratch, ErrorStats, TieBreak};

fn bench_edit_script(c: &mut Criterion) {
    let mut rng = seeded(1);
    let reference = Strand::random(110, &mut rng);
    let read = NaiveModel::with_total_rate(0.059).corrupt(&reference, &mut rng);
    c.bench_function("edit-script/110bp", |b| {
        let mut rng = seeded(2);
        b.iter(|| {
            edit_script(
                black_box(&reference),
                black_box(&read),
                TieBreak::Random,
                &mut rng,
            )
        })
    });
}

/// One group per channel error rate, through a reused scratch as the
/// profiler and reconstructors run it: the column pass costs the same at
/// every rate, while the traceback leaves the match diagonal, and draws
/// among tied predecessors, once per error.
fn bench_edit_script_by_rate(c: &mut Criterion) {
    let mut rng = seeded(5);
    let reference = Strand::random(110, &mut rng);
    for rate in [0.02, 0.059, 0.2] {
        let read = NaiveModel::with_total_rate(rate).corrupt(&reference, &mut rng);
        c.bench_function(format!("edit-script-reused/110bp-rate-{rate}"), |b| {
            let mut rng = seeded(6);
            let mut scratch = EditScratch::new();
            b.iter(|| {
                edit_script_with(
                    &mut scratch,
                    black_box(&reference),
                    black_box(&read),
                    TieBreak::Random,
                    &mut rng,
                )
            })
        });
    }
}

fn bench_stats_recording(c: &mut Criterion) {
    let mut rng = seeded(3);
    let model = NaiveModel::with_total_rate(0.059);
    let pairs: Vec<(Strand, Strand)> = (0..64)
        .map(|_| {
            let r = Strand::random(110, &mut rng);
            let read = model.corrupt(&r, &mut rng);
            (r, read)
        })
        .collect();
    c.bench_function("error-stats/64-pairs", |b| {
        b.iter(|| {
            let mut stats = ErrorStats::new();
            let mut rng = seeded(4);
            for (reference, read) in &pairs {
                stats.record_pair(reference, read, TieBreak::Random, &mut rng);
            }
            black_box(stats.total_errors())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(40)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_edit_script, bench_edit_script_by_rate, bench_stats_recording
}
criterion_main!(benches);
