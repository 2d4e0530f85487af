//! `archive-imperfect`: the coded archive round trip with real clustering.
//!
//! A seeded 16 KiB payload goes through `archive_round_trip_stream` with
//! imperfect clustering, lenient mode, the other `ArchiveConfig` defaults
//! and batch 256 — the path `dnasim archive --bytes 16384 --imperfect
//! --lenient` runs.
//!
//! The traced run rebuilds the same round trip from its public stage
//! calls, in the same order and with the same derived seeds, and checks
//! that it reproduces the untraced report. The rebuild copies the stage
//! parameters `archive_round_trip_stream` uses; if the library changes
//! them, that check fails and names the drift.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dnasim::channel::stages::{DecayStage, PcrStage, SequencingStage, SynthesisStage};
use dnasim::channel::NaiveModel;
use dnasim::cluster::{ClusterStats, GreedyClusterer, StreamingClusterer};
use dnasim::codec::{StrandLayout, XorParity};
use dnasim::core::rng::{seeded, RngExt, SeedSequence, SimRng};
use dnasim::core::{Cluster, Strand};
use dnasim::dataset::GroundTruthChannel;
use dnasim::par::ThreadPool;
use dnasim::pipeline::{
    archive_round_trip_stream, ArchiveConfig, ArchiveMode, ArchiveReport, ErasureScheme,
};
use dnasim::reconstruct::{
    BmaLookahead, Iterative, MajorityVote, TraceReconstructor, TwoWayIterative,
};

use crate::metrics::Outcome;
use crate::trace::{self, Trace};
use crate::{repeat_for, stats, sys, Run};

const PAYLOAD_BYTES: usize = 16 * 1024;
const BATCH: usize = 256;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Payload prefix of the set-up's warm-up round trip, which lets lazy
/// set-up (kernel tier detection, allocator growth) finish before timing.
const WARMUP_BYTES: usize = 256;

fn config() -> ArchiveConfig {
    ArchiveConfig {
        imperfect_clustering: true,
        mode: ArchiveMode::Lenient,
        ..ArchiveConfig::default()
    }
}

fn payload(seed: u64) -> Vec<u8> {
    let mut rng = SeedSequence::new(seed).derive_rng("archive-payload");
    (0..PAYLOAD_BYTES).map(|_| rng.random::<u8>()).collect()
}

/// The archive's own randomness (primers, channel, clustering order) is
/// fixed at the CLI's default `--seed 7`, as for every `dnasim archive`
/// user who does not pass one; the workload seed picks the payload.
fn channel_rng() -> SimRng {
    seeded(7)
}

/// Payload bytes per strand (the layout's RS data length).
fn chunk_len(config: &ArchiveConfig) -> usize {
    config.rs_data_len
}

/// Checks the recovered bytes: every payload chunk the report does not
/// account for as zero-filled must equal the input.
fn check_payload(out: &mut Outcome, label: &str, data: &[u8], report: &ArchiveReport) {
    let chunk = chunk_len(&config());
    let recovered = report.data.get(..data.len()).unwrap_or(&report.data);
    let mut differing = 0;
    let mut differing_nonzero = 0;
    for (want, got) in data.chunks(chunk).zip(recovered.chunks(chunk)) {
        if want != got {
            differing += 1;
            differing_nonzero += usize::from(got.iter().any(|&b| b != 0));
        }
    }
    out.check(
        format!("{label}: recovered length equals the payload's"),
        recovered.len() == data.len(),
    );
    out.check(
        format!(
            "{label}: {differing} differing chunks are zero-filled and within the {} reported",
            report.strands_unrecovered
        ),
        differing_nonzero == 0 && differing <= report.strands_unrecovered,
    );
}

/// The untraced run: timed round trips through the public entry point.
pub fn run(ctx: &Run) -> Outcome {
    let mut out = Outcome::default();
    let config = config();
    let pool = ThreadPool::new(ctx.workers);
    let mut setup_s = Vec::new();
    let mut data = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        data = payload(ctx.seed);
        let warmup = archive_round_trip_stream(
            &data[..WARMUP_BYTES],
            &config,
            &mut channel_rng(),
            &pool,
            BATCH,
        );
        setup_s.push(start.elapsed().as_secs_f64());
        out.check("warm-up round trip succeeds", warmup.is_ok());
    }
    let mut reports = Vec::new();
    let passes = repeat_for(
        ctx.seconds,
        || archive_round_trip_stream(&data, &config, &mut channel_rng(), &pool, BATCH),
        |r| reports.push(r),
    );
    out.ops = reports.len();
    let mut first: Option<ArchiveReport> = None;
    for (i, result) in reports.into_iter().enumerate() {
        match result {
            Ok((report, _)) => {
                check_payload(&mut out, &format!("pass {i}"), &data, &report);
                match &first {
                    None => first = Some(report),
                    Some(f) => out.check(format!("pass {i} report equals pass 0's"), *f == report),
                }
            }
            Err(e) => {
                out.ops_failed += 1;
                eprintln!("pass {i} round trip failed: {e}");
            }
        }
    }
    let run_s = stats::median(&passes.wall_s);
    out.values.insert("setup_s", stats::median(&setup_s));
    out.values.insert("run_s", run_s);
    out.values.insert("peak_rss_mib", sys::peak_rss_mib());
    out.values
        .insert("ops_per_s", PAYLOAD_BYTES as f64 / 1024.0 / run_s);
    describe(&mut out, first.as_ref());
    out.fact("setup_samples", setup_s.len());
    passes.describe(&mut out);
    out
}

/// The traced run: one untraced round trip as the baseline, then the
/// round trip rebuilt from its stage calls with spans around each.
pub fn run_traced(ctx: &Run) -> (Outcome, Vec<trace::Span>) {
    let mut out = Outcome::default();
    let data = payload(ctx.seed);
    let config = config();
    let pool = ThreadPool::new(ctx.workers);
    let start = Instant::now();
    let untraced = archive_round_trip_stream(&data, &config, &mut channel_rng(), &pool, BATCH);
    let untraced_s = start.elapsed().as_secs_f64();

    let trace = Trace::new();
    let region_start = trace.now_ns();
    let rebuilt = round_trip_traced(&data, &config, &mut channel_rng(), &pool, &trace);
    let region_end = trace.now_ns();
    let spans = trace.into_spans();

    out.ops = 2;
    out.ops_failed = usize::from(untraced.is_err());
    check_payload(&mut out, "traced", &data, &rebuilt.report);
    match &untraced {
        Ok((report, _)) => {
            let same = |a: usize, b: usize, what: &str, out: &mut Outcome| {
                out.check(
                    format!("traced {what} ({a}) equal the untraced report's ({b})"),
                    a == b,
                );
            };
            let r = &rebuilt.report;
            same(
                r.strands_written,
                report.strands_written,
                "strands written",
                &mut out,
            );
            same(
                r.reads_sequenced,
                report.reads_sequenced,
                "reads sequenced",
                &mut out,
            );
            same(
                r.clusters_quarantined,
                report.clusters_quarantined,
                "quarantined slots",
                &mut out,
            );
            out.check(
                "traced payload equals the untraced payload",
                r.data == report.data,
            );
        }
        Err(e) => out.check(format!("untraced round trip succeeds ({e})"), false),
    }

    let stats = rebuilt.cluster;
    let v = &mut out.values;
    v.insert("codec.encode_s", trace::busy_s(&spans, "codec.encode"));
    v.insert("channel.pool_s", trace::busy_s(&spans, "channel.pool"));
    v.insert(
        "channel.pool_builds",
        trace::count(&spans, "channel.pool") as f64,
    );
    v.insert(
        "channel.sequencing_s",
        trace::busy_s(&spans, "channel.sequencing"),
    );
    v.insert("channel.reads", rebuilt.reads_sampled as f64);
    v.insert("cluster.push_s", trace::busy_s(&spans, "cluster.push"));
    v.insert(
        "cluster.candidates_per_read",
        stats.candidates as f64 / stats.reads.max(1) as f64,
    );
    v.insert("cluster.pruned_share", stats.pruned_share());
    v.insert("cluster.lanes_per_call", stats.lanes_per_call());
    v.insert(
        "cluster.cpu_util",
        rebuilt.push_cpu_s / (rebuilt.push_wall_s * ctx.workers as f64),
    );
    v.insert(
        "reconstruct.ensemble_s",
        trace::busy_s(&spans, "reconstruct.ensemble"),
    );
    v.insert(
        "reconstruct.attempts_per_strand",
        trace::count(&spans, "reconstruct.ensemble") as f64 / rebuilt.decoded_slots.max(1) as f64,
    );
    v.insert("codec.decode_s", trace::busy_s(&spans, "codec.decode"));
    v.insert("codec.decode_failures", rebuilt.decode_failures as f64);
    v.insert("codec.recover_s", trace::busy_s(&spans, "codec.recover"));
    v.insert(
        "codec.parity_recoveries",
        rebuilt.report.strands_recovered_by_parity as f64,
    );
    v.insert(
        "codec.zero_filled",
        rebuilt.report.strands_unrecovered as f64,
    );
    trace::summarise(v, &spans, (region_start, region_end), untraced_s);
    describe(&mut out, Some(&rebuilt.report));
    out.fact("traced_run_s", (region_end - region_start) as f64 / 1e9);
    out.fact("untraced_run_s", untraced_s);
    (out, spans)
}

fn describe(out: &mut Outcome, report: Option<&ArchiveReport>) {
    out.fact("payload_bytes", PAYLOAD_BYTES);
    out.fact("batch", BATCH);
    out.fact("ops", "payload KiB round-tripped");
    if let Some(r) = report {
        out.fact("strands_written", r.strands_written);
        out.fact("reads_sequenced", r.reads_sequenced);
        out.fact("clusters_quarantined", r.clusters_quarantined);
        out.fact("strands_recovered_by_parity", r.strands_recovered_by_parity);
        out.fact("strands_unrecovered", r.strands_unrecovered);
    }
}

/// `ThreadPool::par_map_len` as one `parallel.map` span; `f` receives
/// the span's index to parent the spans it records.
fn traced_map<R: Send>(
    trace: &Trace,
    workers: &ThreadPool,
    len: usize,
    f: impl Fn(usize, usize) -> R + Sync,
) -> Vec<R> {
    let call = trace.open("parallel.map", None);
    let result = workers
        .par_map_len(len, |i| f(i, call))
        .expect("no worker panics");
    trace.close(call);
    result
}

/// What the traced rebuild reports besides its spans.
struct Rebuilt {
    report: ArchiveReport,
    cluster: ClusterStats,
    reads_sampled: usize,
    push_cpu_s: f64,
    push_wall_s: f64,
    decoded_slots: usize,
    decode_failures: usize,
}

/// `archive_round_trip_stream` for the imperfect-clustering, XOR-parity
/// configuration, rebuilt from public stage calls. Parallel calls run on
/// `workers` exactly where the library runs them, and the per-group and
/// per-cluster calls inside them are spans parented to that call.
fn round_trip_traced(
    data: &[u8],
    config: &ArchiveConfig,
    rng: &mut SimRng,
    workers: &ThreadPool,
    trace: &Trace,
) -> Rebuilt {
    let ErasureScheme::Xor { group } = config.erasure else {
        panic!("the workload runs the default XOR erasure scheme");
    };

    let encode = trace.open("codec.encode", None);
    let layout = StrandLayout::new(config.rs_codeword_len, config.rs_data_len, rng)
        .expect("the default RS shape is valid");
    let chunk = layout.payload_bytes();
    let mut payload_chunks: Vec<Vec<u8>> = data.chunks(chunk).map(<[u8]>::to_vec).collect();
    if payload_chunks.is_empty() {
        payload_chunks.push(vec![0; chunk]);
    }
    if let Some(last) = payload_chunks.last_mut() {
        last.resize(chunk, 0);
    }
    let parity = XorParity::new(group);
    let protected = parity.protect(&payload_chunks);
    let flat: Vec<u8> = protected.iter().flatten().copied().collect();
    let references = layout.encode_file(&flat);
    trace.close(encode);

    let synthesis = SynthesisStage {
        error_model: NaiveModel::new(0.0002, 0.0004, 0.0004),
        variants_per_reference: 12,
        dropout_probability: 0.002,
        mean_abundance: 20.0,
    };
    let decay = DecayStage {
        years: config.storage_years,
        half_life_years: 500.0,
        loss_threshold: 1e-6,
    };
    let pcr = PcrStage {
        cycles: 12,
        efficiency: 0.85,
        bias_sigma: 0.05,
        substitution_rate: 0.0002,
    };
    let sequencing = SequencingStage {
        error_model: GroundTruthChannel::new(0.03, layout.strand_len()),
        total_reads: references.len() * config.sequencing_reads_per_strand,
    };
    let seeds = SeedSequence::new(rng.random::<u64>());
    let channel_seeds = SeedSequence::new(seeds.derive("channel"));
    let sample_seeds = SeedSequence::new(seeds.derive("sample"));
    let group_pool = |g: usize, parent: usize| {
        trace.time("channel.pool", Some(parent), || {
            let mut grng = channel_seeds.fork_rng(g as u64);
            let pool = synthesis.run_group(g, &references[g], &mut grng);
            let pool = decay.run(&pool);
            pcr.run(&pool, &mut grng)
        })
    };
    let refs_len = references.len();
    let window_len = BATCH.min(refs_len.max(1));

    // Pass 0: per-group abundance.
    let mut group_weights = vec![0.0f64; refs_len];
    let mut start = 0;
    while start < refs_len {
        let len = window_len.min(refs_len - start);
        let weights = traced_map(trace, workers, len, |i, call| {
            group_pool(start + i, call).total_abundance()
        });
        group_weights[start..start + len].copy_from_slice(&weights);
        start += len;
    }
    let read_counts = trace.time("channel.sequencing", None, || {
        sequencing.allocate_reads(&group_weights, &mut seeds.derive_rng("allocate"))
    });
    let sample_reads = |g: usize, parent: usize| {
        let pool = group_pool(g, parent);
        trace.time("channel.sequencing", Some(parent), || {
            sequencing.sample_group(&pool, read_counts[g], &mut sample_seeds.fork_rng(g as u64))
        })
    };

    // Pass A: stream every read through the online clusterer.
    let mut clusterer =
        StreamingClusterer::with_references(GreedyClusterer::default(), &references);
    let mut assignments: Vec<Option<u32>> = Vec::new();
    let mut expected = vec![0usize; refs_len];
    let mut reads_sampled = 0;
    let (mut push_cpu_s, mut push_wall_s) = (0.0, 0.0);
    let mut start = 0;
    while start < refs_len {
        let len = window_len.min(refs_len - start);
        let reads_per_group =
            traced_map(trace, workers, len, |i, call| sample_reads(start + i, call));
        let (cpu_before, wall_before) = (sys::cpu_seconds(), Instant::now());
        for read in reads_per_group.iter().flatten() {
            let matched = trace
                .time("cluster.push", None, || clusterer.push(read))
                .reference;
            assignments.push(matched.map(|r| r as u32));
            if let Some(r) = matched {
                expected[r] += 1;
            }
            reads_sampled += 1;
        }
        push_cpu_s += sys::cpu_seconds() - cpu_before;
        push_wall_s += wall_before.elapsed().as_secs_f64();
        start += len;
    }
    let cluster = clusterer.stats();
    clusterer.finish();
    let reads_sequenced = expected.iter().sum();

    // Pass B: regenerate the reads, route them to their reference, and
    // decode each cluster once its last read has arrived.
    let ensemble: Vec<Box<dyn TraceReconstructor + Send + Sync>> = vec![
        Box::new(TwoWayIterative::default()),
        Box::new(Iterative::default()),
        Box::new(BmaLookahead::default()),
        Box::new(MajorityVote),
    ];
    let decode_failures = AtomicUsize::new(0);
    let decode = |strand: &Strand, parent: usize| {
        let result = trace.time("codec.decode", Some(parent), || {
            layout.decode_strand(strand)
        });
        if result.is_err() {
            decode_failures.fetch_add(1, Ordering::Relaxed);
        }
        result.ok()
    };
    let decode_cluster = |cluster: &Cluster, parent: usize| -> Option<(u32, Vec<u8>)> {
        if cluster.is_erasure() {
            return None;
        }
        for algorithm in &ensemble {
            let estimate = trace.time("reconstruct.ensemble", Some(parent), || {
                algorithm.reconstruct(cluster.reads(), layout.strand_len())
            });
            if let Some(hit) = decode(&estimate, parent) {
                return Some(hit);
            }
        }
        cluster.reads().iter().find_map(|read| decode(read, parent))
    };
    let mut received: Vec<Option<Vec<u8>>> = vec![None; protected.len()];
    let decode_window = |clusters: &[Cluster], received: &mut Vec<Option<Vec<u8>>>| {
        let decoded = traced_map(trace, workers, clusters.len(), |i, call| {
            decode_cluster(&clusters[i], call)
        });
        for (index, bytes) in decoded.into_iter().flatten() {
            let slot = index as usize;
            if slot < received.len() && received[slot].is_none() {
                received[slot] = Some(bytes);
            }
        }
    };
    let mut pending: Vec<Vec<Strand>> = references.iter().map(|_| Vec::new()).collect();
    let mut ready: Vec<usize> = (0..refs_len).filter(|&r| expected[r] == 0).collect();
    let take_clusters = |batch: Vec<usize>, pending: &mut Vec<Vec<Strand>>| -> Vec<Cluster> {
        batch
            .iter()
            .map(|&r| Cluster::new(references[r].clone(), std::mem::take(&mut pending[r])))
            .collect()
    };
    let mut cursor = 0;
    let mut start = 0;
    while start < refs_len {
        let len = window_len.min(refs_len - start);
        let reads_per_group =
            traced_map(trace, workers, len, |i, call| sample_reads(start + i, call));
        for read in reads_per_group.into_iter().flatten() {
            if let Some(r) = assignments[cursor] {
                let r = r as usize;
                pending[r].push(read);
                if pending[r].len() == expected[r] {
                    ready.push(r);
                }
            }
            cursor += 1;
        }
        while ready.len() >= window_len {
            let clusters = take_clusters(ready.drain(..window_len).collect(), &mut pending);
            decode_window(&clusters, &mut received);
        }
        start += len;
    }
    while !ready.is_empty() {
        let take = window_len.min(ready.len());
        let clusters = take_clusters(ready.drain(..take).collect(), &mut pending);
        decode_window(&clusters, &mut received);
    }

    let decoded_slots = received.iter().filter(|slot| slot.is_some()).count();
    let clusters_quarantined = received.len() - decoded_slots;
    let outcome = trace.time("codec.recover", None, || {
        parity.recover_lenient(&mut received)
    });
    let mut out = Vec::with_capacity(payload_chunks.len() * chunk);
    let mut strands_unrecovered = 0;
    for slot in received.iter().take(payload_chunks.len()) {
        match slot {
            Some(bytes) => out.extend_from_slice(bytes),
            None => {
                out.extend(std::iter::repeat_n(0u8, chunk));
                strands_unrecovered += 1;
            }
        }
    }
    out.truncate(data.len().max(1));
    Rebuilt {
        report: ArchiveReport {
            data: out,
            strands_written: references.len(),
            reads_sequenced,
            strands_recovered_by_parity: outcome.recovered,
            clusters_quarantined,
            loss_budget_per_group: 1,
            groups_exceeding_budget: outcome.failed_groups.len(),
            strands_unrecovered,
        },
        cluster,
        reads_sampled,
        push_cpu_s,
        push_wall_s,
        decoded_slots,
        decode_failures: decode_failures.into_inner(),
    }
}
