//! Golden regression test: the end-to-end `simulate → cluster →
//! reconstruct` summary statistics for one fixed seed, pinned to a
//! checked-in snapshot (`golden_pipeline.txt`, next to
//! `repro_full_output.txt`).
//!
//! Future performance work — more threads, different scheduling, refactored
//! hot loops — must not change these numbers. The pipeline here runs on
//! `ThreadPool::from_env()`, so `scripts/verify.sh` exercises the exact
//! same test at `DNASIM_THREADS=1` and `DNASIM_THREADS=4` and diffs the
//! output against the snapshot both times.
//!
//! To regenerate after an *intentional* behaviour change:
//! `DNASIM_UPDATE_GOLDEN=1 cargo test --test golden_pipeline`, then review
//! the snapshot diff like any other code change.

use std::fmt::Write as _;

use dnasim::cluster::GreedyClusterer;
use dnasim::dataset::NanoporeTwinConfig;
use dnasim::par::ThreadPool;
use dnasim::prelude::*;

const SNAPSHOT_PATH: &str = "golden_pipeline.txt";
const SEED: u64 = 0x0060_1DE2;

fn summary() -> String {
    let ctx = RunCtx::new(&ThreadPool::from_env(), usize::MAX).expect("nonzero batch size");

    // --- Simulate: a fixed twin dataset (fork-per-cluster discipline). ---
    let config = NanoporeTwinConfig {
        cluster_count: 60,
        erasure_count: 2,
        seed: SEED,
        ..NanoporeTwinConfig::small()
    };
    let mut twin = Dataset::new();
    config
        .generate_in(&ctx, &mut twin)
        .expect("twin generation");

    // --- Cluster: greedy clustering of the shuffled read pool back against
    // the known references. ---
    let references = twin.references();
    let mut rng = seeded(SEED ^ 0xC1);
    let reads = twin.clone().into_read_pool(&mut rng);
    let (clustered, _) = GreedyClusterer::default().cluster_against_references(&reads, &references);

    // --- Reconstruct: per-algorithm accuracy over the clustered dataset. ---
    let mut out = String::new();
    let _ = writeln!(
        out,
        "golden end-to-end pipeline (seed {SEED:#x}, {} clusters, strand len 110)",
        config.cluster_count
    );
    let _ = writeln!(
        out,
        "twin: reads={} mean_coverage={:.4} erasures={}",
        twin.total_reads(),
        twin.mean_coverage(),
        twin.erasure_count()
    );
    let _ = writeln!(
        out,
        "clustered: clusters={} reads={} erasures={}",
        clustered.len(),
        clustered.total_reads(),
        clustered.erasure_count()
    );
    for algorithm in [
        Box::new(BmaLookahead::default()) as Box<dyn TraceReconstructor + Send + Sync>,
        Box::new(Iterative::default()),
        Box::new(TwoWayIterative::default()),
        Box::new(MajorityVote),
    ] {
        let (report, _) = evaluate_reconstruction_in(&mut clustered.stream(), &algorithm, &ctx)
            .expect("parallel evaluation");
        let _ = writeln!(
            out,
            "reconstruct {}: strand={:.4}% char={:.4}%",
            algorithm.name(),
            report.per_strand_percent(),
            report.per_char_percent()
        );
    }
    out
}

#[test]
fn pipeline_summary_matches_golden_snapshot() {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let path = std::path::Path::new(manifest_dir).join(SNAPSHOT_PATH);
    let actual = summary();
    if std::env::var_os("DNASIM_UPDATE_GOLDEN").is_some_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, &actual).expect("write golden snapshot");
        eprintln!("updated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with \
             DNASIM_UPDATE_GOLDEN=1 cargo test --test golden_pipeline",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "end-to-end summary drifted from {SNAPSHOT_PATH}; if the change is \
         intentional, regenerate with DNASIM_UPDATE_GOLDEN=1 and review the diff"
    );
}
