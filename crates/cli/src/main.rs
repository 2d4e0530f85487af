//! `dnasim` — the command-line interface to the DNA-storage channel
//! simulator.
//!
//! ```text
//! dnasim generate    --out twin.txt [--clusters 10000] [--len 110] [--seed S]
//! dnasim profile     --data twin.txt [--top-k 10]
//! dnasim simulate    --data real.txt --model naive|dnasimulator|keoliya[:LAYER] --out sim.txt
//! dnasim convert     --in real.txt --out real.dnb [--format text|binary]
//! dnasim reconstruct --data file.txt --algo bma|divbma|iterative|iterative-twoway|majority
//!                    [--coverage N] [--min-coverage M]
//! dnasim evaluate    --real real.txt --sim sim.txt [--coverage N]
//! dnasim experiment  <id> [--full]     # table-2.1, table-2.2, table-3.1, ...
//! dnasim archive     --bytes 4096 [--imperfect] [--strict|--lenient] [--threads N]
//! dnasim chaos       [--smoke] [--seeds N] [--threads N] [--json]
//! dnasim serve       [--seed S] [--window N] [--batch-size N] [--max-batch N]
//!                    [--cluster-budget N] [--lenient] [--threads N]
//!                    [--default-deadline N] [--retries N]
//! ```
//!
//! `generate`, `profile`, `simulate`, `archive` and `chaos` accept
//! `--threads N` (default: `DNASIM_THREADS`, then all cores); results are
//! byte-identical for every thread count.
//!
//! `generate`, `profile`, `simulate` and `archive` always run the
//! bounded-memory pipeline: at most `--batch-size` clusters are in flight
//! (default 256), and outputs are byte-identical for every batch size.
//!
//! Exit codes: `0` success, `1` runtime failure, `2` usage error (usage is
//! printed to stderr), `3` archive completed degraded (lenient mode with
//! unrecoverable strands), `4` serve's response consumer hung up (broken
//! pipe on stdout — a clean shutdown, not a server fault).

mod args;

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use dnasim_channel::{CoverageModel, Simulator};
use dnasim_cluster::ClusterStats;
use dnasim_core::rng::{seeded, SeedSequence};
use dnasim_core::{Dataset, PrefetchSource};
use dnasim_dataset::{
    read_dataset_auto, AnyDatasetReader, AnyDatasetWriter, Format, NanoporeTwinConfig,
};
use dnasim_faults::ChaosSuite;
use dnasim_par::{RunCtx, ThreadPool};
use dnasim_pipeline::{
    archive_round_trip_in, evaluate_reconstruction, fixed_coverage_protocol, ArchiveConfig,
    ArchiveMode, Experiments,
};
use dnasim_profile::{ErrorStats, LearnedModel, TieBreak};
use dnasim_reconstruct::TraceReconstructor;
use dnasim_serve::{serve, AlgorithmSpec, ModelSpec, ProtocolError, ServeConfig, ServeError};

use args::{Args, ArgsError};

/// Exit code for usage/argument errors (usage is printed to stderr).
const EXIT_USAGE: u8 = 2;
/// Exit code for a lenient archive that completed with data loss.
const EXIT_DEGRADED: u8 = 3;
/// Exit code for a serve session whose response consumer hung up (broken
/// pipe on stdout) — a clean shutdown, not a server fault.
const EXIT_OUTPUT_CLOSED: u8 = 4;

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let result = apply_simd_mode(&args).and_then(|()| match args.command.as_deref() {
        Some("generate") => cmd_generate(&args),
        Some("profile") => cmd_profile(&args),
        Some("simulate") => cmd_simulate(&args),
        Some("convert") => cmd_convert(&args),
        Some("reconstruct") => cmd_reconstruct(&args),
        Some("evaluate") => cmd_evaluate(&args),
        Some("stats") => cmd_stats(&args),
        Some("experiment") => cmd_experiment(&args),
        Some("archive") => cmd_archive(&args),
        Some("chaos") => cmd_chaos(&args),
        Some("serve") => cmd_serve(&args),
        Some("help") | None => {
            println!("{}", usage_text());
            Ok(CliOutcome::Ok)
        }
        Some(other) => Err(ArgsError::UnknownCommand {
            name: other.to_owned(),
        }
        .into()),
    });
    match result {
        Ok(CliOutcome::Ok) => ExitCode::SUCCESS,
        Ok(CliOutcome::Degraded) => ExitCode::from(EXIT_DEGRADED),
        Ok(CliOutcome::OutputClosed) => ExitCode::from(EXIT_OUTPUT_CLOSED),
        Err(e) => {
            eprintln!("error: {e}");
            // Malformed serve requests are usage errors too: the JSONL
            // protocol is part of the CLI contract, so a bad request line
            // gets the same exit code and usage text as a bad flag.
            if e.downcast_ref::<ArgsError>().is_some()
                || e.downcast_ref::<ProtocolError>().is_some()
            {
                eprintln!("\n{}", usage_text());
                ExitCode::from(EXIT_USAGE)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// What a successfully completed command reports back to `main`.
enum CliOutcome {
    /// Full success — exit 0.
    Ok,
    /// The command finished but with degraded results — exit 3.
    Degraded,
    /// The serve response consumer closed the pipe — exit 4.
    OutputClosed,
}

type CliResult = Result<CliOutcome, Box<dyn std::error::Error>>;

/// Applies the global `--simd auto|off` override before dispatch
/// (`DNASIM_SIMD=off` is the env-var equivalent when the flag is absent).
/// Every kernel backend is exact, so this knob only changes throughput —
/// command output is byte-identical either way.
fn apply_simd_mode(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    match args.get("simd") {
        None => Ok(()),
        Some("auto") => {
            dnasim_metrics::set_simd_mode(dnasim_metrics::SimdMode::Auto);
            Ok(())
        }
        Some("off") => {
            dnasim_metrics::set_simd_mode(dnasim_metrics::SimdMode::Off);
            Ok(())
        }
        Some(other) => Err(ArgsError::UnknownChoice {
            name: "simd",
            value: other.to_owned(),
            choices: "auto | off",
        }
        .into()),
    }
}

/// The clustering diagnostic line: a run's kernel/prune counters and the
/// active SIMD backend. Identical wording everywhere it appears so output
/// comparisons across runs stay byte-equal.
fn cluster_kernel_line(stats: &ClusterStats) -> String {
    format!(
        "cluster kernel: {} calls ({} lanes), {} candidates, {} pruned by error ball, simd {}",
        stats.kernel_calls,
        stats.kernel_lanes,
        stats.candidates,
        stats.pruned,
        dnasim_metrics::simd_tier_name()
    )
}

fn usage_text() -> &'static str {
    "dnasim — DNA-storage noisy-channel simulator\n\n\
     commands:\n\
     \x20 generate    --out FILE [--clusters N] [--len L] [--seed S] [--small]\n\
     \x20             [--batch-size N] [--threads N] [--format text|binary]\n\
     \x20 profile     --data FILE [--top-k K] [--save MODEL] [--batch-size N]\n\
     \x20             [--threads N] [--format text|binary]\n\
     \x20 simulate    --data FILE --model MODEL --out FILE [--seed S] [--model-file MODEL]\n\
     \x20             [--threads N] [--batch-size N] [--format text|binary]\n\
     \x20             MODEL: naive | dnasimulator | keoliya[:naive|cond|spatial|second]\n\
     \x20 convert     --in FILE --out FILE [--format text|binary]\n\
     \x20             (input format auto-detected; default output: text)\n\
     \x20 reconstruct --data FILE --algo ALGO [--coverage N] [--min-coverage M]\n\
     \x20             ALGO: bma | divbma | iterative | iterative-twoway | majority\n\
     \x20 evaluate    --real FILE --sim FILE [--coverage N]\n\
     \x20 stats       --data FILE\n\
     \x20 experiment  ID [--full]   (table-2.1 table-2.2 table-3.1 table-3.2 fig-3.3 ext-twoway ext-layers fidelity)\n\
     \x20 archive     [--bytes N] [--imperfect] [--seed S] [--reads N] [--strict|--lenient]\n\
     \x20             [--threads N] [--batch-size N] [--format text|binary]\n\
     \x20 chaos       [--smoke] [--seeds N] [--threads N] [--json]\n\
     \x20 serve       [--seed S] [--window N] [--batch-size N] [--max-batch N]\n\
     \x20             [--cluster-budget N] [--lenient] [--threads N]\n\
     \x20             [--default-deadline N] [--retries N]\n\
     \x20             JSONL requests on stdin -> JSONL responses on stdout; each\n\
     \x20             line needs \"tenant\", \"request_id\" and \"op\" (generate |\n\
     \x20             corrupt | simulate | evaluate | archive), plus an optional\n\
     \x20             per-request \"deadline\" in work units (1 unit = 1 cluster)\n\n\
     \x20 --threads N defaults to $DNASIM_THREADS, then to all cores; output\n\
     \x20 is byte-identical for every thread count\n\
     \x20 --batch-size N bounds the clusters in flight (default 256); output\n\
     \x20 is byte-identical for every batch size, and file input is decoded\n\
     \x20 one batch ahead on a dedicated I/O worker\n\
     \x20 --format selects the cluster-file codec a command writes (readers\n\
     \x20 auto-detect by magic bytes)\n\
     \x20 --simd auto|off selects the backend of the edit-distance kernels\n\
     \x20 and the error-ball screen (auto detects AVX2 at runtime; off\n\
     \x20 forces the portable fallback; DNASIM_SIMD=off is the env\n\
     \x20 equivalent); all backends are exact, so output is byte-identical\n\
     \x20 either way\n\
     \x20 --default-deadline N meters requests without their own deadline;\n\
     \x20 --retries N grants seeded retries to requests that fail at runtime;\n\
     \x20 with --cluster-budget N, requests estimated over N clusters of total\n\
     \x20 work are shed with status \"rejected\", reason \"overloaded\"\n\n\
     exit codes: 0 success, 1 runtime failure, 2 usage error, 3 degraded\n\
     archive, 4 serve response consumer hung up (broken pipe)"
}

fn load(path: &str) -> Result<Dataset, Box<dyn std::error::Error>> {
    Ok(read_dataset_auto(BufReader::new(File::open(path)?))?)
}

/// The `--format text|binary` choice (default: text for writers; readers
/// auto-detect when the flag is absent).
fn parse_format(args: &Args) -> Result<Format, ArgsError> {
    match args.get("format") {
        None => Ok(Format::Text),
        Some(value) => value.parse().map_err(|_| ArgsError::UnknownChoice {
            name: "format",
            value: value.to_owned(),
            choices: "text | binary",
        }),
    }
}

/// Opens a cluster file for streaming with the codec auto-detected from
/// the magic bytes (commands that *read* accept either format; `--format`
/// names the format a command *writes*, except `profile`, which has no
/// output and uses it to pin the input codec).
fn open_detected(
    path: &str,
) -> Result<AnyDatasetReader<BufReader<File>>, Box<dyn std::error::Error>> {
    Ok(AnyDatasetReader::detect(BufReader::new(File::open(path)?))?)
}

/// Opens a cluster file honoring an explicit `--format` (a mismatch is a
/// typed parse error), falling back to auto-detection.
fn open_cluster_source(
    args: &Args,
    path: &str,
) -> Result<AnyDatasetReader<BufReader<File>>, Box<dyn std::error::Error>> {
    match args.get("format") {
        Some(_) => Ok(AnyDatasetReader::with_format(
            BufReader::new(File::open(path)?),
            parse_format(args)?,
        )),
        None => open_detected(path),
    }
}

/// The worker pool for `--threads N`; without the flag, defers to
/// `DNASIM_THREADS` and then to available parallelism.
fn thread_pool(args: &Args) -> Result<ThreadPool, ArgsError> {
    Ok(match args.get("threads") {
        Some(_) => ThreadPool::new(args.get_or("threads", 1usize)?),
        None => ThreadPool::from_env(),
    })
}

/// The streaming window size for `--batch-size N` (default 256 clusters).
fn batch_size(args: &Args) -> Result<usize, ArgsError> {
    args.get_or("batch-size", 256usize)
}

fn cmd_generate(args: &Args) -> CliResult {
    let out = args.require("out")?;
    let mut config = if args.flag("small") {
        NanoporeTwinConfig::small()
    } else {
        NanoporeTwinConfig::default()
    };
    config.cluster_count = args.get_or("clusters", config.cluster_count)?;
    config.strand_len = args.get_or("len", config.strand_len)?;
    config.seed = args.get_or("seed", config.seed)?;
    let pool = thread_pool(args)?;
    let mut writer = AnyDatasetWriter::new(BufWriter::new(File::create(out)?), parse_format(args)?);
    let window = config.generate_in(&RunCtx::new(&pool, batch_size(args)?)?, &mut writer)?;
    let (clusters, reads, erasures) = (
        writer.clusters_written(),
        writer.reads_written(),
        writer.erasures_written(),
    );
    writer.into_inner()?;
    println!(
        "streamed {} batches, window high-watermark {} clusters",
        window.batches, window.high_watermark
    );
    let mean = if clusters == 0 {
        0.0
    } else {
        reads as f64 / clusters as f64
    };
    println!(
        "wrote {clusters} clusters ({reads} reads, mean coverage {mean:.2}, {erasures} erasures) \
         to {out}",
    );
    Ok(CliOutcome::Ok)
}

fn cmd_profile(args: &Args) -> CliResult {
    let data = args.require("data")?;
    let top_k = args.get_or("top-k", 10usize)?;
    let mut rng = seeded(args.get_or("seed", 0u64)?);
    let batch = batch_size(args)?;
    let ctx = RunCtx::new(&thread_pool(args)?, batch)?;
    let mut source = PrefetchSource::spawn(open_cluster_source(args, data)?, batch)?;
    let (stats, window) = ErrorStats::from_source(&mut source, &ctx, TieBreak::Random, &mut rng)?;
    // Stderr, so stdout carries only the statistics.
    eprintln!(
        "stream window: {} batch(es), peak {} cluster(s) / {} read(s) resident",
        window.batches, window.high_watermark, window.peak_resident_reads
    );
    println!(
        "reads: {}   aggregate error rate: {:.4}",
        stats.read_count(),
        stats.aggregate_error_rate()
    );
    println!(
        "long deletions: p = {:.5}, mean length {:.2}",
        stats.long_deletion_probability(),
        stats.long_deletion_mean_length()
    );
    use dnasim_core::{Base, ErrorKind};
    println!("conditional probabilities P(kind | base):");
    for base in Base::ALL {
        print!("  {base}:");
        for kind in ErrorKind::ALL {
            print!("  {kind}={:.5}", stats.conditional_probability(base, kind));
        }
        println!();
    }
    let (top, share) = stats.top_second_order(top_k);
    println!(
        "top {top_k} second-order errors ({:.1}% of all errors):",
        share * 100.0
    );
    for (op, stat) in top {
        println!("  {op}: {} occurrences", stat.count);
    }
    let model = LearnedModel::from_stats(&stats, top_k);
    println!(
        "spatial multipliers: start {:.2}, interior {:.2}, end {:.2}",
        model.spatial_multiplier(0),
        model.spatial_multiplier(model.strand_len / 2),
        model.spatial_multiplier(model.strand_len.saturating_sub(1)),
    );
    // Profiling never clusters, so the counters are zero here — the line
    // documents the active SIMD backend.
    println!("{}", cluster_kernel_line(&ClusterStats::default()));
    if let Some(path) = args.get("save") {
        std::fs::write(path, model.to_text())?;
        println!("saved learned model to {path}");
    }
    Ok(CliOutcome::Ok)
}

/// `simulate` learns the model with one bounded pass over the input file,
/// then resimulates it cluster-batch by cluster-batch straight into the
/// output file. `ErrorStats::from_source` draws from the rng in cluster
/// order and every cluster's error stream is forked from the root seed by
/// its global index, so the output is the same at any `--batch-size` and
/// `--threads`.
fn cmd_simulate(args: &Args) -> CliResult {
    let data = args.require("data")?;
    let out = args.require("out")?;
    let model_spec = args.require("model")?;
    let seed = args.get_or("seed", 1u64)?;
    let pool = thread_pool(args)?;
    let batch = batch_size(args)?;
    let ctx = RunCtx::new(&pool, batch)?;

    let model = model_spec
        .parse::<ModelSpec>()
        .map_err(|_| ArgsError::UnknownChoice {
            name: "model",
            value: model_spec.to_owned(),
            choices: "naive | dnasimulator | keoliya[:naive|cond|spatial|second]",
        })?
        .build(|| -> Result<LearnedModel, Box<dyn std::error::Error>> {
            match args.get("model-file") {
                Some(path) => Ok(LearnedModel::from_text(&std::fs::read_to_string(path)?)?),
                None => {
                    let mut source = PrefetchSource::spawn(open_detected(data)?, batch)?;
                    let (stats, _) = ErrorStats::from_source(
                        &mut source,
                        &ctx,
                        TieBreak::Random,
                        &mut seeded(seed),
                    )?;
                    Ok(LearnedModel::from_stats(&stats, 10))
                }
            }
        })?;
    let simulator = Simulator::new(model, CoverageModel::Fixed(0));

    // Resimulate straight into `out`, honoring `--format` on the output;
    // the input is auto-detected and batch k+1 decodes on a dedicated I/O
    // worker while batch k is in the pool.
    let mut writer =
        AnyDatasetWriter::new(BufWriter::new(File::create(out)?), parse_format(args)?);
    let mut source = PrefetchSource::spawn(open_detected(data)?, batch)?;
    let window = simulator.resimulate_in(&mut source, &SeedSequence::new(seed), &ctx, &mut writer)?;
    let (clusters, reads) = (writer.clusters_written(), writer.reads_written());
    writer.into_inner()?;
    println!(
        "streamed {} batches, window high-watermark {} clusters",
        window.batches, window.high_watermark
    );
    println!("simulated {clusters} clusters ({reads} reads) with model '{model_spec}' to {out}");
    Ok(CliOutcome::Ok)
}

/// `dnasim convert --in A --out B [--format text|binary]`: stream a
/// cluster file (either format, auto-detected) into the chosen output
/// format, one cluster in memory at a time.
fn cmd_convert(args: &Args) -> CliResult {
    let input = args.require("in")?;
    let out = args.require("out")?;
    let format = parse_format(args)?;
    let mut source = open_detected(input)?;
    let in_format = source.format();
    let mut writer = AnyDatasetWriter::new(BufWriter::new(File::create(out)?), format);
    while let Some(cluster) = source.next_cluster()? {
        writer.write_cluster(&cluster)?;
    }
    let (clusters, reads) = (writer.clusters_written(), writer.reads_written());
    writer.into_inner()?;
    println!("converted {clusters} clusters ({reads} reads) {in_format} -> {format}: {input} -> {out}");
    Ok(CliOutcome::Ok)
}

fn cmd_reconstruct(args: &Args) -> CliResult {
    let dataset = load(args.require("data")?)?;
    let name = args.require("algo")?;
    let algorithm = name
        .parse::<AlgorithmSpec>()
        .map_err(|_| ArgsError::UnknownChoice {
            name: "algorithm",
            value: name.to_owned(),
            choices: "bma | divbma | iterative | iterative-twoway | majority",
        })?
        .build();
    let dataset = match args.get("coverage") {
        Some(_) => {
            let coverage = args.get_or("coverage", 5usize)?;
            let min = args.get_or("min-coverage", 10usize)?;
            fixed_coverage_protocol(&dataset, min, coverage)
        }
        None => dataset,
    };
    let report = evaluate_reconstruction(&dataset, &algorithm);
    println!("{}: {report}", algorithm.name());
    Ok(CliOutcome::Ok)
}

fn cmd_evaluate(args: &Args) -> CliResult {
    let real = load(args.require("real")?)?;
    let sim = load(args.require("sim")?)?;
    let prepare = |ds: &Dataset| -> Result<Dataset, args::ArgsError> {
        Ok(match args.get("coverage") {
            Some(_) => fixed_coverage_protocol(
                ds,
                args.get_or("min-coverage", 10usize)?,
                args.get_or("coverage", 5usize)?,
            ),
            None => ds.clone(),
        })
    };
    let real = prepare(&real)?;
    let sim = prepare(&sim)?;
    {
        // §3.1 closed-form fidelity distances (lower is better).
        let mut rng = seeded(args.get_or("seed", 0u64)?);
        let fidelity = dnasim_pipeline::simulator_fidelity(&real, &sim, &mut rng);
        println!("fidelity: {fidelity}");
    }
    println!(
        "{:<12} {:>20} {:>20}",
        "algorithm", "real (str%/chr%)", "sim (str%/chr%)"
    );
    for algorithm in [AlgorithmSpec::Bma, AlgorithmSpec::DivBma, AlgorithmSpec::Iterative]
        .map(AlgorithmSpec::build)
    {
        let r = evaluate_reconstruction(&real, &algorithm);
        let s = evaluate_reconstruction(&sim, &algorithm);
        println!(
            "{:<12} {:>9.2} /{:>8.2} {:>9.2} /{:>8.2}",
            algorithm.name(),
            r.per_strand_percent(),
            r.per_char_percent(),
            s.per_strand_percent(),
            s.per_char_percent()
        );
    }
    Ok(CliOutcome::Ok)
}

fn cmd_stats(args: &Args) -> CliResult {
    let dataset = load(args.require("data")?)?;
    println!("clusters:        {}", dataset.len());
    println!("reads:           {}", dataset.total_reads());
    println!("mean coverage:   {:.2}", dataset.mean_coverage());
    if let Some((lo, hi)) = dataset.coverage_range() {
        println!("coverage range:  {lo}..{hi}");
    }
    println!("erasures:        {}", dataset.erasure_count());
    if let Some(len) = dataset.strand_len() {
        println!("strand length:   {len}");
    }
    let hist = dataset.coverage_histogram();
    let max = hist.iter().copied().max().unwrap_or(1).max(1);
    println!("coverage histogram (bucketed):");
    for (bucket, chunk) in hist.chunks(10).enumerate() {
        let count: usize = chunk.iter().sum();
        let bar = "#".repeat(count * 40 / (max * chunk.len().min(10)).max(1));
        println!("  {:>3}-{:<3} {count:>6} |{bar}", bucket * 10, bucket * 10 + 9);
    }
    Ok(CliOutcome::Ok)
}

fn cmd_experiment(args: &Args) -> CliResult {
    let id = args
        .positional
        .first()
        .ok_or("experiment requires an id (e.g. table-3.1)")?;
    let config = if args.flag("full") {
        NanoporeTwinConfig::default()
    } else {
        NanoporeTwinConfig::small()
    };
    let experiments = Experiments::new(&config);
    match id.as_str() {
        "table-2.1" => println!("{}", experiments.table_2_1()),
        "table-2.2" => println!("{}", experiments.table_2_2()),
        "table-3.1" => println!("{}", experiments.ablation_table(5)),
        "table-3.2" => println!("{}", experiments.ablation_table(6)),
        "fig-3.3" => {
            println!("Iterative accuracy vs coverage (fixed-coverage protocol):");
            println!("{:>3} {:>10} {:>10}", "N", "strand %", "char %");
            for (n, cell) in experiments.coverage_sweep(10) {
                println!("{n:>3} {:>10.2} {:>10.2}", cell.per_strand, cell.per_char);
            }
        }
        "ext-twoway" => println!("{}", experiments.two_way_comparison(5)),
        "ext-layers" => println!("{}", experiments.extensions_table(5)),
        "fidelity" => {
            println!("§3.1 fidelity distances vs real data (lower is better):");
            for (label, report) in experiments.fidelity_by_layer() {
                println!("  {label:<20} {report}");
            }
        }
        other => {
            return Err(format!(
                "unknown experiment '{other}' — the full set lives in the repro harness: \
                 cargo run -p dnasim-bench --release --bin repro -- {other}"
            )
            .into())
        }
    }
    Ok(CliOutcome::Ok)
}

fn cmd_archive(args: &Args) -> CliResult {
    // No cluster file touches disk during the archive round trip, so
    // `--format` is validated for interface uniformity with serve's
    // archive op but does not change the result.
    let _ = parse_format(args)?;
    let bytes = args.get_or("bytes", 1024usize)?;
    let mut rng = seeded(args.get_or("seed", 7u64)?);
    let data: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
    if args.flag("strict") && args.flag("lenient") {
        return Err(ArgsError::UnknownChoice {
            name: "mode",
            value: "--strict --lenient".to_owned(),
            choices: "--strict | --lenient",
        }
        .into());
    }
    let mode = if args.flag("lenient") {
        ArchiveMode::Lenient
    } else {
        ArchiveMode::Strict
    };
    let defaults = ArchiveConfig::default();
    let config = ArchiveConfig {
        imperfect_clustering: args.flag("imperfect"),
        sequencing_reads_per_strand: args
            .get_or("reads", defaults.sequencing_reads_per_strand)?,
        mode,
        ..defaults
    };
    let ctx = RunCtx::new(&thread_pool(args)?, batch_size(args)?)?;
    let (report, window, cluster_stats) = archive_round_trip_in(&data, &config, &mut rng, &ctx)?;
    println!(
        "decoded {} windows, high-watermark {} clusters, peak {} reads resident",
        window.batches, window.high_watermark, window.peak_resident_reads
    );
    let ok = report.data[..data.len()] == data[..];
    if config.imperfect_clustering {
        // Imperfect clustering ran the greedy pass: surface how much
        // kernel work the error-ball filter and bank tier saved.
        println!("{}", cluster_kernel_line(&cluster_stats));
    }
    println!(
        "archived {bytes} bytes as {} strands, sequenced {} reads, parity recoveries: {}, \
         round-trip {}",
        report.strands_written,
        report.reads_sequenced,
        report.strands_recovered_by_parity,
        if ok { "OK" } else { "CORRUPT" }
    );
    if report.clusters_quarantined > 0 || report.is_degraded() {
        println!(
            "quarantined {} strand slots (erasure budget {} per group); \
             {} groups over budget; {} payload strands zero-filled",
            report.clusters_quarantined,
            report.loss_budget_per_group,
            report.groups_exceeding_budget,
            report.strands_unrecovered,
        );
    }
    if report.is_degraded() {
        println!("round trip DEGRADED — rerun with --strict to make this an error");
        return Ok(CliOutcome::Degraded);
    }
    if !ok {
        return Err("payload mismatch after round trip".into());
    }
    Ok(CliOutcome::Ok)
}

/// The long-lived batch RPC loop: JSONL requests on stdin, JSONL
/// responses on stdout, session summary on stderr (stdout stays pure
/// protocol). Strict mode turns the first malformed request line into a
/// usage error (exit 2) after answering everything admitted before it;
/// `--lenient` answers malformed lines in place with
/// `"status":"rejected"` and keeps the stream alive.
fn cmd_serve(args: &Args) -> CliResult {
    let config = ServeConfig {
        seed: args.get_or("seed", 0u64)?,
        window: args.get_or("window", 8usize)?,
        batch_size: batch_size(args)?,
        max_batch: args.get_or("max-batch", 4096usize)?,
        cluster_budget: match args.get("cluster-budget") {
            Some(_) => Some(args.get_or("cluster-budget", 0usize)?),
            None => None,
        },
        lenient: args.flag("lenient"),
        default_deadline: match args.get("default-deadline") {
            Some(_) => Some(args.get_or("default-deadline", 0u64)?),
            None => None,
        },
        retries: args.get_or("retries", 0usize)?,
    };
    if config.default_deadline == Some(0) {
        return Err(ArgsError::UnknownChoice {
            name: "default-deadline",
            value: "0".to_owned(),
            choices: "a work-unit count of at least 1",
        }
        .into());
    }
    let pool = thread_pool(args)?;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let result = serve(stdin.lock(), &mut out, &config, &pool);
    drop(out);
    let report = match result {
        Ok(report) => report,
        // The consumer hung up: everything written so far was delivered,
        // nothing was lost on the server side. Exit 4 tells the operator
        // it was the pipe, not the pipeline.
        Err(e) if e.is_broken_pipe() => {
            eprintln!("serve: response consumer hung up; shutting down");
            return Ok(CliOutcome::OutputClosed);
        }
        Err(ServeError::Protocol(p)) => return Err(Box::new(p)),
        Err(e) => return Err(Box::new(e)),
    };
    eprintln!(
        "served {} request(s) in {} busy period(s): {} ok, {} degraded, {} error, {} rejected, \
         {} deadline, {} shed",
        report.requests, report.windows, report.ok, report.degraded, report.errors,
        report.rejected, report.deadlines, report.shed
    );
    eprintln!(
        "peak in-flight: {} request(s) / {} cluster(s); stream high-watermark {} cluster(s)",
        report.peak_inflight_requests, report.peak_inflight_clusters,
        report.stream.high_watermark
    );
    Ok(CliOutcome::Ok)
}

fn cmd_chaos(args: &Args) -> CliResult {
    let suite = if args.flag("smoke") {
        ChaosSuite::smoke()
    } else if args.get("seeds").is_some() {
        ChaosSuite::new(args.get_or("seeds", 2u64)?)
    } else {
        ChaosSuite::from_env()
    };
    let pool = thread_pool(args)?;
    let json = args.flag("json");
    if !json {
        println!(
            "running {} fault-injection cases on {} threads…",
            suite.planned_cases(),
            pool.threads()
        );
    }
    let report = suite.run(&pool);
    if json {
        // Machine-readable: stdout is exactly one JSON object.
        println!("{}", report.to_json());
    } else {
        println!("{}", report.summary());
    }
    if report.is_clean() {
        Ok(CliOutcome::Ok)
    } else if json {
        Err("chaos suite caught panics (see \"panics\" in the JSON summary)".into())
    } else {
        Err("chaos suite caught panics (see summary above)".into())
    }
}
