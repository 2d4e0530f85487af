//! Where a work budget cuts the archive's decode, pinned across windows
//! and workers.
//!
//! The archive admits one work unit per decode attempt. An exhausted
//! budget quarantines every cluster it did not reach, and erasure recovery
//! absorbs what it can; a cancelled token aborts with a typed deadline.
//! Both cut points must be a function of the limit alone: the report and
//! the units spent are identical at every batch size and thread count.

use dnasim_core::rng::seeded;
use dnasim_core::{Budget, CancelToken, DnasimError};
use dnasim_par::{RunCtx, ThreadPool};
use dnasim_pipeline::{archive_round_trip_in, ArchiveConfig, ArchiveMode, ArchiveReport};

const BATCHES: [usize; 3] = [1, 7, usize::MAX];
const THREADS: [usize; 2] = [1, 4];

fn payload() -> Vec<u8> {
    (0u8..=255).cycle().take(256).collect()
}

fn config(imperfect_clustering: bool) -> ArchiveConfig {
    ArchiveConfig {
        imperfect_clustering,
        sequencing_reads_per_strand: 14,
        mode: ArchiveMode::Lenient,
        ..ArchiveConfig::default()
    }
}

/// One budgeted round trip: the report and the work units it spent.
fn run(config: &ArchiveConfig, batch_size: usize, threads: usize, limit: u64) -> (ArchiveReport, u64) {
    let ctx = RunCtx::new(&ThreadPool::new(threads), batch_size)
        .unwrap()
        .with_budget(Budget::limited(limit));
    let (report, ..) = archive_round_trip_in(&payload(), config, &mut seeded(17), &ctx).unwrap();
    (report, ctx.budget().spent())
}

#[test]
fn budget_cut_is_batch_and_thread_invariant() {
    for imperfect in [false, true] {
        let config = config(imperfect);
        let (whole, strands) = run(&config, usize::MAX, 1, u64::MAX);
        // Every reference gets exactly one decode attempt.
        assert_eq!(strands, whole.strands_written as u64);
        let mid = strands / 2;
        for limit in [0, mid, u64::MAX] {
            let (reference, spent) = run(&config, 1, 1, limit);
            assert_eq!(spent, limit.min(strands), "imperfect={imperfect} limit={limit}");
            if limit < strands {
                assert!(
                    reference.clusters_quarantined as u64 >= strands - limit,
                    "undecoded clusters must be quarantined: imperfect={imperfect} limit={limit}"
                );
            } else {
                assert_eq!(reference, whole);
            }
            for batch_size in BATCHES {
                for threads in THREADS {
                    let case = format!(
                        "imperfect={imperfect} limit={limit} batch={batch_size} threads={threads}"
                    );
                    let (report, units) = run(&config, batch_size, threads, limit);
                    assert_eq!(report, reference, "{case}");
                    assert_eq!(units, spent, "{case}");
                }
            }
        }
    }
}

#[test]
fn cancelled_token_is_a_typed_deadline() {
    for imperfect in [false, true] {
        for batch_size in BATCHES {
            let token = CancelToken::new();
            token.cancel();
            let ctx = RunCtx::new(&ThreadPool::new(2), batch_size)
                .unwrap()
                .with_budget(Budget::unlimited().with_token(token));
            let err = archive_round_trip_in(&payload(), &config(imperfect), &mut seeded(17), &ctx)
                .unwrap_err();
            assert!(
                matches!(err, DnasimError::DeadlineExceeded { spent: 0, .. }),
                "imperfect={imperfect} batch={batch_size}: {err:?}"
            );
        }
    }
}
