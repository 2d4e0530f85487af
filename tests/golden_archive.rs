//! Golden regression test: the imperfect archive's round trip for one
//! fixed seed, pinned to a checked-in snapshot (`golden_archive.txt`,
//! next to `golden_pipeline.txt`).
//!
//! A 4 KiB payload goes through encode → twin channel → greedy
//! clustering → ensemble reconstruction → inner decode → outer erasure
//! recovery in lenient mode. The snapshot records every `ArchiveReport`
//! field (the recovered bytes as their FNV-1a-64), the clustering
//! counters and the window gauges, so any change to a stage's output —
//! not only a lost payload — shows as a diff. The pool comes from
//! `ThreadPool::from_env()`, and `scripts/verify.sh` runs this test at
//! `DNASIM_THREADS=1` and `DNASIM_THREADS=4` against the same snapshot.
//!
//! To regenerate after an *intentional* behaviour change:
//! `DNASIM_UPDATE_GOLDEN=1 cargo test --test golden_archive`, then review
//! the snapshot diff like any other code change.

use std::fmt::Write as _;

use dnasim::par::ThreadPool;
use dnasim::pipeline::ArchiveMode;
use dnasim::prelude::*;

const SNAPSHOT_PATH: &str = "golden_archive.txt";
const BYTES: usize = 4096;
const SEED: u64 = 7;
const BATCH_SIZE: usize = 256;

fn summary() -> String {
    let ctx = RunCtx::new(&ThreadPool::from_env(), BATCH_SIZE).expect("nonzero batch size");
    let data: Vec<u8> = (0..BYTES).map(|i| (i % 251) as u8).collect();
    let config = ArchiveConfig {
        imperfect_clustering: true,
        mode: ArchiveMode::Lenient,
        ..ArchiveConfig::default()
    };
    let mut rng = seeded(SEED);
    let (report, window, cluster) =
        archive_round_trip_in(&data, &config, &mut rng, &ctx).expect("lenient archive");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "golden imperfect archive ({BYTES} bytes, seed {SEED}, lenient, batch size {BATCH_SIZE})"
    );
    let _ = writeln!(
        out,
        "report: data_len={} data_fnv1a64={:#018x} payload_intact={}",
        report.data.len(),
        fnv1a64(&report.data),
        report.data.get(..data.len()) == Some(&data[..])
    );
    let _ = writeln!(
        out,
        "report: strands_written={} reads_sequenced={} strands_recovered_by_parity={}",
        report.strands_written, report.reads_sequenced, report.strands_recovered_by_parity
    );
    let _ = writeln!(
        out,
        "report: clusters_quarantined={} loss_budget_per_group={} groups_exceeding_budget={} \
         strands_unrecovered={}",
        report.clusters_quarantined,
        report.loss_budget_per_group,
        report.groups_exceeding_budget,
        report.strands_unrecovered
    );
    let _ = writeln!(
        out,
        "cluster: reads={} candidates={} pruned={} kernel_calls={} kernel_lanes={}",
        cluster.reads,
        cluster.candidates,
        cluster.pruned,
        cluster.kernel_calls,
        cluster.kernel_lanes
    );
    let _ = writeln!(
        out,
        "window: batches={} clusters={} high_watermark={} peak_resident_reads={}",
        window.batches, window.clusters, window.high_watermark, window.peak_resident_reads
    );
    out
}

#[test]
fn archive_round_trip_matches_golden_snapshot() {
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
             DNASIM_UPDATE_GOLDEN=1 cargo test --test golden_archive",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "archive round trip drifted from {SNAPSHOT_PATH}; if the change is \
         intentional, regenerate with DNASIM_UPDATE_GOLDEN=1 and review the diff"
    );
}
