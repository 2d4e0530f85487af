//! Differential suite: parallel output is *byte-identical* to serial.
//!
//! The determinism contract of `dnasim-par` (DESIGN.md §9) is that thread
//! count is an execution detail, never an input: every stage wired onto the
//! pool must produce the same bytes at `--threads 1`, 2, 4, and 8. Each
//! test here runs one pipeline stage across that thread grid and ≥5 seeds
//! and demands exact equality — not statistical closeness — so a scheduling
//! leak into the randomness (or a merge that depends on completion order)
//! fails loudly.

use dnasim::channel::{CoverageModel, NaiveModel, Simulator};
use dnasim::dataset::{write_dataset, NanoporeTwinConfig};
use dnasim::faults::ChaosSuite;
use dnasim::par::ThreadPool;
use dnasim::pipeline::{archive_round_trip_in, ArchiveConfig};
use dnasim::prelude::*;
use dnasim::reconstruct::reconstruct_clusters;

const SEEDS: [u64; 5] = [1, 7, 42, 0xD151_C0DE, u64::MAX - 3];
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One window on `pool`: the whole input fans out at once.
fn one_window(pool: &ThreadPool) -> RunCtx {
    RunCtx::new(pool, usize::MAX).expect("nonzero batch size")
}

/// Serialises a dataset to its on-disk byte representation.
fn dataset_bytes(ds: &Dataset) -> Vec<u8> {
    let mut buffer = Vec::new();
    write_dataset(ds, &mut buffer).expect("in-memory write cannot fail");
    buffer
}

#[test]
fn simulated_reads_are_identical_across_thread_counts() {
    for seed in SEEDS {
        let mut rng = seeded(seed);
        let references: Vec<Strand> = (0..30).map(|_| Strand::random(60, &mut rng)).collect();
        let sim = Simulator::new(
            NaiveModel::with_total_rate(0.059),
            CoverageModel::negative_binomial(8.0, 2.0),
        );
        let seq = SeedSequence::new(seed);
        let simulate = |pool: &ThreadPool| {
            let mut out = Dataset::new();
            sim.simulate_in(&references, &seq, &one_window(pool), &mut out)
                .map(|_| out)
        };
        let baseline = dataset_bytes(&simulate(&ThreadPool::serial()).unwrap());
        for threads in THREADS {
            let out = dataset_bytes(&simulate(&ThreadPool::new(threads)).unwrap());
            assert_eq!(out, baseline, "simulate: seed {seed}, {threads} threads");
        }
    }
}

#[test]
fn twin_generation_is_identical_across_thread_counts() {
    for seed in SEEDS {
        let config = NanoporeTwinConfig {
            cluster_count: 25,
            seed,
            ..NanoporeTwinConfig::small()
        };
        let baseline = dataset_bytes(&config.generate());
        for threads in THREADS {
            let mut twin = Dataset::new();
            config
                .generate_in(&one_window(&ThreadPool::new(threads)), &mut twin)
                .unwrap();
            let out = dataset_bytes(&twin);
            assert_eq!(out, baseline, "twin: seed {seed}, {threads} threads");
        }
    }
}

#[test]
fn reconstruction_consensus_is_identical_across_thread_counts() {
    for seed in SEEDS {
        let config = NanoporeTwinConfig {
            cluster_count: 20,
            erasure_count: 0,
            seed,
            ..NanoporeTwinConfig::small()
        };
        let dataset = config.generate();
        for algorithm in [
            Box::new(BmaLookahead::default()) as Box<dyn TraceReconstructor + Send + Sync>,
            Box::new(Iterative::default()),
            Box::new(MajorityVote),
        ] {
            let baseline =
                reconstruct_clusters(&algorithm, &dataset, 110, &ThreadPool::serial()).unwrap();
            for threads in THREADS {
                let out =
                    reconstruct_clusters(&algorithm, &dataset, 110, &ThreadPool::new(threads))
                        .unwrap();
                assert_eq!(
                    out,
                    baseline,
                    "reconstruct {}: seed {seed}, {threads} threads",
                    algorithm.name()
                );
            }
        }
    }
}

#[test]
fn accuracy_reports_are_identical_across_thread_counts() {
    for seed in SEEDS {
        let config = NanoporeTwinConfig {
            cluster_count: 16,
            seed,
            ..NanoporeTwinConfig::small()
        };
        let dataset = config.generate();
        let baseline = evaluate_reconstruction(&dataset, &MajorityVote);
        for threads in THREADS {
            let ctx = one_window(&ThreadPool::new(threads));
            let (report, _) =
                evaluate_reconstruction_in(&mut dataset.stream(), &MajorityVote, &ctx).unwrap();
            assert_eq!(report, baseline, "evaluate: seed {seed}, {threads} threads");
        }
    }
}

#[test]
fn archive_reports_are_identical_across_thread_counts() {
    for seed in SEEDS {
        let data: Vec<u8> = (0..240u32).map(|i| (i.wrapping_mul(31) % 256) as u8).collect();
        let config = ArchiveConfig {
            sequencing_reads_per_strand: 10,
            ..ArchiveConfig::default()
        };
        let round_trip = |pool: &ThreadPool| {
            archive_round_trip_in(&data, &config, &mut seeded(seed), &one_window(pool))
                .map(|(report, ..)| report)
        };
        let baseline = round_trip(&ThreadPool::serial());
        for threads in THREADS {
            let report = round_trip(&ThreadPool::new(threads));
            match (&baseline, &report) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "archive: seed {seed}, {threads} threads"),
                (Err(a), Err(b)) => assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "archive error: seed {seed}, {threads} threads"
                ),
                _ => panic!("archive outcome diverged: seed {seed}, {threads} threads"),
            }
        }
    }
}

#[test]
fn chaos_verdicts_are_identical_across_thread_counts() {
    // Verdict grids carry no dataset-level seed input beyond the grid
    // itself, so one sweep per thread count covers the whole fault × seed
    // product (ChaosSuite::new(5) runs 5 case seeds per fault kind).
    let suite = ChaosSuite::new(5);
    let baseline = suite.run(&ThreadPool::serial());
    for threads in THREADS {
        let report = suite.run(&ThreadPool::new(threads));
        assert_eq!(report, baseline, "chaos verdicts: {threads} threads");
    }
}
