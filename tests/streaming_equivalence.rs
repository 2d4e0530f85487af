//! Streaming ⇔ in-memory equivalence: the bounded-memory pipeline must be
//! **byte-identical** to the whole-dataset path for every batch size and
//! thread count (DESIGN.md §11).
//!
//! Why this holds by construction: every cluster's error stream is forked
//! from the root seed by its *global* index (`SeedSequence::fork`), so
//! neither the batch boundaries nor the scheduling order can change a
//! single byte. These tests pin that argument down empirically at batch
//! sizes {1, 7, 64, ∞}, three seeds, and 1 vs 4 worker threads — and
//! re-diff the checked-in `golden_pipeline.txt` snapshot through the
//! streaming entry points.

use std::fmt::Write as _;

use dnasim::cluster::{GreedyClusterer, StreamingClusterer};
use dnasim::dataset::NanoporeTwinConfig;
use dnasim::par::ThreadPool;
use dnasim::pipeline::ArchiveMode;
use dnasim::prelude::*;

const BATCH_SIZES: [usize; 4] = [1, 7, 64, usize::MAX];
const SEEDS: [u64; 3] = [0x0060_1DE2, 11, 4242];

fn twin_config(seed: u64) -> NanoporeTwinConfig {
    NanoporeTwinConfig {
        cluster_count: 33,
        erasure_count: 2,
        seed,
        ..NanoporeTwinConfig::small()
    }
}

/// The run context for one cell of the matrix.
fn ctx(pool: &ThreadPool, batch_size: usize) -> RunCtx {
    RunCtx::new(pool, batch_size).expect("nonzero batch size")
}

fn to_bytes(dataset: &Dataset) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_dataset(dataset, &mut bytes).expect("write to memory");
    bytes
}

#[test]
fn streamed_generation_is_byte_identical() {
    for seed in SEEDS {
        let config = twin_config(seed);
        let whole = to_bytes(&config.generate());
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            for batch_size in BATCH_SIZES {
                let mut writer = DatasetWriter::new(Vec::new());
                let window = config
                    .generate_in(&ctx(&pool, batch_size), &mut writer)
                    .expect("stream generation");
                assert!(
                    window.high_watermark <= batch_size,
                    "window exceeded batch size: {} > {batch_size}",
                    window.high_watermark
                );
                assert_eq!(window.clusters, config.cluster_count);
                let bytes = writer.into_inner().expect("flush");
                assert_eq!(
                    bytes, whole,
                    "seed={seed} threads={threads} batch_size={batch_size}"
                );
            }
        }
    }
}

/// The format axis of the equivalence matrix: streamed generation into an
/// [`AnyDatasetWriter`] must be byte-identical to the whole-dataset
/// encoding at every batch size × thread count × format (DESIGN.md §14).
#[test]
fn streamed_generation_is_byte_identical_in_every_format() {
    for seed in SEEDS {
        let config = twin_config(seed);
        let whole = config.generate();
        for format in [Format::Text, Format::Binary] {
            let mut expected = Vec::new();
            write_dataset_format(&whole, &mut expected, format).expect("write to memory");
            for threads in [1, 4] {
                let pool = ThreadPool::new(threads);
                for batch_size in BATCH_SIZES {
                    let mut writer = AnyDatasetWriter::new(Vec::new(), format);
                    let window = config
                        .generate_in(&ctx(&pool, batch_size), &mut writer)
                        .expect("stream generation");
                    assert!(window.high_watermark <= batch_size);
                    assert_eq!(window.clusters, config.cluster_count);
                    let bytes = writer.into_inner().expect("flush");
                    assert_eq!(
                        bytes, expected,
                        "seed={seed} format={format} threads={threads} batch_size={batch_size}"
                    );
                }
            }
        }
    }
}

/// Cross-format round trip under streaming: the same dataset encoded in
/// either format, pumped through an auto-detecting reader — with and
/// without the prefetch pump — re-emits identical text bytes at every
/// batch size. The binary path may not change a byte of what the text
/// path carries.
#[test]
fn streamed_round_trip_is_format_invariant_with_and_without_prefetch() {
    for seed in SEEDS {
        let twin = twin_config(seed).generate();
        let text = to_bytes(&twin);
        for format in [Format::Text, Format::Binary] {
            let mut encoded = Vec::new();
            write_dataset_format(&twin, &mut encoded, format).expect("write to memory");
            for batch_size in BATCH_SIZES {
                let mut reader =
                    AnyDatasetReader::detect(&encoded[..]).expect("magic-byte detection");
                assert_eq!(reader.format(), format, "wrong format detected");
                let mut copy = Dataset::new();
                let window = pump(&mut reader, &mut copy, batch_size, Ok).expect("pump");
                assert!(window.high_watermark <= batch_size);
                assert_eq!(
                    to_bytes(&copy),
                    text,
                    "seed={seed} format={format} batch_size={batch_size}"
                );

                // The prefetch pump decodes batch k+1 on its own worker
                // thread; the hand-off must not reorder or drop a cluster.
                let reader = AnyDatasetReader::detect(std::io::Cursor::new(encoded.clone()))
                    .expect("magic-byte detection");
                let mut copy = Dataset::new();
                let window = pump_prefetch(reader, &mut copy, batch_size, Ok)
                    .expect("prefetch pump");
                // Double buffering holds at most two batches in flight.
                assert!(window.high_watermark <= batch_size.saturating_mul(2));
                assert_eq!(
                    to_bytes(&copy),
                    text,
                    "prefetch: seed={seed} format={format} batch_size={batch_size}"
                );
            }
        }
    }
}

#[test]
fn streamed_resimulation_is_byte_identical() {
    for seed in SEEDS {
        let twin = twin_config(seed).generate();
        let mut rng = seeded(seed);
        let stats = ErrorStats::from_dataset(&twin, TieBreak::Random, &mut rng);
        let model = KeoliyaModel::new(
            LearnedModel::from_stats(&stats, 10),
            SimulatorLayer::SecondOrder,
        );
        let simulator = Simulator::new(model, CoverageModel::Fixed(0));
        let seq = SeedSequence::new(seed);
        let whole = to_bytes(&{
            let mut out = Dataset::new();
            simulator
                .resimulate_in(&mut twin.stream(), &seq, &RunCtx::serial(), &mut out)
                .expect("in-memory resimulation");
            out
        });
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            for batch_size in BATCH_SIZES {
                let mut source = twin.stream();
                let mut writer = DatasetWriter::new(Vec::new());
                let window = simulator
                    .resimulate_in(&mut source, &seq, &ctx(&pool, batch_size), &mut writer)
                    .expect("stream resimulation");
                assert!(window.high_watermark <= batch_size);
                assert_eq!(window.clusters, twin.len());
                let bytes = writer.into_inner().expect("flush");
                assert_eq!(
                    bytes, whole,
                    "seed={seed} threads={threads} batch_size={batch_size}"
                );
            }
        }
    }
}

#[test]
fn streamed_round_trip_through_io_is_lossless() {
    // dataset → text → DatasetReader (as a ClusterSource) → Dataset sink,
    // pumped at every batch size, must reproduce the text byte for byte.
    for seed in SEEDS {
        let twin = twin_config(seed).generate();
        let text = to_bytes(&twin);
        for batch_size in BATCH_SIZES {
            let mut reader = DatasetReader::new(&text[..]);
            let mut copy = Dataset::new();
            let window =
                pump(&mut reader, &mut copy, batch_size, Ok).expect("pump");
            assert!(window.high_watermark <= batch_size);
            assert_eq!(to_bytes(&copy), text, "seed={seed} batch_size={batch_size}");
        }
    }
}

/// Re-runs the checked-in golden pipeline (`tests/golden_pipeline.rs`)
/// with every stage swapped for its streaming counterpart — twin
/// generation through a [`DatasetWriter`]-less [`Dataset`] sink, and
/// reconstruction through [`evaluate_reconstruction_in`] — and diffs
/// the summary against the same `golden_pipeline.txt` snapshot.
#[test]
fn streamed_pipeline_matches_golden_snapshot() {
    const SEED: u64 = 0x0060_1DE2;
    let pool = ThreadPool::from_env();
    let config = NanoporeTwinConfig {
        cluster_count: 60,
        erasure_count: 2,
        seed: SEED,
        ..NanoporeTwinConfig::small()
    };
    let expected = {
        let manifest_dir = env!("CARGO_MANIFEST_DIR");
        std::fs::read_to_string(std::path::Path::new(manifest_dir).join("golden_pipeline.txt"))
            .expect("golden snapshot (regenerate via golden_pipeline test)")
    };
    for batch_size in BATCH_SIZES {
        // --- Simulate, streamed. ---
        let mut twin = Dataset::new();
        let window = config
            .generate_in(&ctx(&pool, batch_size), &mut twin)
            .expect("stream generation");
        assert!(window.high_watermark <= batch_size);

        // Golden-through-binary: detour the twin through the binary codec
        // before every downstream stage — the snapshot must not move a
        // byte when the dataset crosses a binary file boundary.
        let mut encoded = Vec::new();
        write_dataset_format(&twin, &mut encoded, Format::Binary).expect("binary encode");
        let twin = read_dataset_auto(encoded.as_slice()).expect("binary decode");

        // --- Cluster (same in-memory stage as the golden test). ---
        let references = twin.references();
        let mut rng = seeded(SEED ^ 0xC1);
        let reads = twin.clone().into_read_pool(&mut rng);
        let (clustered, _) =
            GreedyClusterer::default().cluster_against_references(&reads, &references);

        // --- Reconstruct, streamed. ---
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
            let (report, window) = evaluate_reconstruction_in(
                &mut clustered.stream(),
                &algorithm,
                &ctx(&pool, batch_size),
            )
            .expect("streamed evaluation");
            assert!(window.high_watermark <= batch_size);
            let _ = writeln!(
                out,
                "reconstruct {}: strand={:.4}% char={:.4}%",
                algorithm.name(),
                report.per_strand_percent(),
                report.per_char_percent()
            );
        }
        assert_eq!(
            out, expected,
            "streamed pipeline (batch_size={batch_size}) drifted from golden_pipeline.txt"
        );
    }
}

/// The online clusterer must produce memberships and reference assignments
/// byte-identical to the materialised [`GreedyClusterer`] pass at every
/// batch size × thread count — it is the same decision core, driven read
/// by read, holding only per-group representatives resident.
#[test]
fn streaming_clusterer_matches_materialised_at_any_batch_size() {
    for seed in SEEDS {
        let config = twin_config(seed);
        for threads in [1usize, 4] {
            // The twin itself arrives through the streaming generator (the
            // thread count must not change a byte of the read pool).
            let pool_workers = ThreadPool::new(threads);
            let mut twin = Dataset::new();
            config
                .generate_in(&ctx(&pool_workers, 16), &mut twin)
                .expect("stream generation");
            let references = twin.references();
            let mut rng = seeded(seed ^ 0xC1);
            let reads = twin.into_read_pool(&mut rng);
            let (expected, _) =
                GreedyClusterer::default().cluster_against_references(&reads, &references);
            for batch_size in BATCH_SIZES {
                let mut clusterer =
                    StreamingClusterer::with_references(GreedyClusterer::default(), &references);
                let mut groups: Vec<Vec<usize>> = Vec::new();
                let mut read_idx = 0usize;
                for window in reads.chunks(batch_size.min(reads.len().max(1))) {
                    for assignment in clusterer
                        .push_batch(window, &pool_workers)
                        .expect("no worker panics")
                    {
                        if assignment.group == groups.len() {
                            groups.push(Vec::new());
                        }
                        groups[assignment.group].push(read_idx);
                        read_idx += 1;
                    }
                }
                // Group-major assembly reproduces the post-hoc pass's
                // read order exactly.
                let mut assigned: Vec<Vec<Strand>> =
                    references.iter().map(|_| Vec::new()).collect();
                for (gid, group) in groups.iter().enumerate() {
                    if let Some(ref_idx) = clusterer.group_reference(gid) {
                        for &read_idx in group {
                            assigned[ref_idx].push(reads[read_idx].clone());
                        }
                    }
                }
                let streamed: Dataset = references
                    .iter()
                    .zip(assigned)
                    .map(|(reference, cluster_reads)| {
                        Cluster::new(reference.clone(), cluster_reads)
                    })
                    .collect();
                assert_eq!(
                    to_bytes(&streamed),
                    to_bytes(&expected),
                    "seed={seed} threads={threads} batch_size={batch_size}"
                );
                // Resident state is groups, not reads.
                assert!(clusterer.resident_groups() <= references.len() + groups.len());
                assert_eq!(clusterer.reads_seen(), reads.len());
            }
        }
    }
}

/// The fully windowed archive: identical reports at every batch size ×
/// thread count for both clustering modes, with the peak-resident-reads
/// gauge proving the molecule pool never materialises whole.
#[test]
fn windowed_archive_report_is_batch_and_thread_invariant() {
    let data: Vec<u8> = (0..256u32).map(|i| (i % 251) as u8).collect();
    for imperfect in [false, true] {
        let config = ArchiveConfig {
            imperfect_clustering: imperfect,
            mode: ArchiveMode::Lenient,
            ..ArchiveConfig::default()
        };
        let mut baseline = None;
        for threads in [1usize, 4] {
            for batch_size in BATCH_SIZES {
                let mut rng = seeded(7);
                let (report, window, _) = archive_round_trip_in(
                    &data,
                    &config,
                    &mut rng,
                    &ctx(&ThreadPool::new(threads), batch_size),
                )
                .expect("windowed archive");
                assert_eq!(&report.data[..data.len()], &data[..], "payload lost");
                assert!(
                    window.high_watermark <= batch_size,
                    "decode window exceeded batch size"
                );
                assert!(window.peak_resident_reads > 0, "read gauge never moved");
                match &baseline {
                    None => baseline = Some(report),
                    Some(expected) => assert_eq!(
                        &report, expected,
                        "imperfect={imperfect} threads={threads} batch_size={batch_size}"
                    ),
                }
            }
        }
    }
}

/// The bounded-memory claim itself: at a small batch size the peak
/// resident reads sit far below the total sequenced reads — the archive
/// never holds the whole pool.
#[test]
fn windowed_archive_bounds_resident_reads_by_batch() {
    let data: Vec<u8> = (0..512u32).map(|i| (i % 249) as u8).collect();
    for imperfect in [false, true] {
        let config = ArchiveConfig {
            imperfect_clustering: imperfect,
            mode: ArchiveMode::Lenient,
            ..ArchiveConfig::default()
        };
        let mut rng = seeded(7);
        let (report, window, _) =
            archive_round_trip_in(&data, &config, &mut rng, &ctx(&ThreadPool::new(2), 4))
                .expect("windowed archive");
        assert!(
            window.peak_resident_reads < report.reads_sequenced / 2,
            "imperfect={imperfect}: peak {} reads resident is not bounded by the window \
             (total sequenced {})",
            window.peak_resident_reads,
            report.reads_sequenced
        );
    }
}
