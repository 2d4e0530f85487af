//! `paper-eval`: the paper's own loop at paper scale.
//!
//! Set-up is `Experiments::new` on the 10k × 110 nt Nanopore twin (twin
//! generation plus model learning). The timed pass resimulates the twin
//! with the learned second-order simulator, applies the fixed-coverage
//! protocol (N = 5) to the twin and to the simulated set, and evaluates
//! BMA and Iterative on both: the first and last rows of Table 3.1.

use std::time::Instant;

use dnasim::channel::{CoverageModel, KeoliyaModel, Simulator, SimulatorLayer};
use dnasim::core::rng::SeedSequence;
use dnasim::core::Dataset;
use dnasim::dataset::NanoporeTwinConfig;
use dnasim::par::ThreadPool;
use dnasim::pipeline::{
    evaluate_reconstruction, fixed_coverage_protocol, AccuracyCell, Experiments,
};
use dnasim::profile::{EditScratch, ErrorStats, LearnedModel, TieBreak};
use dnasim::reconstruct::{BmaLookahead, Iterative};

use crate::metrics::Outcome;
use crate::trace::{self, Trace};
use crate::{repeat_for, sys, Run};

/// Table 3.1's coverage and the protocol's minimum real coverage.
const COVERAGE: usize = 5;
const MIN_COVERAGE: usize = 10;
/// What `Experiments::new` profiles and how it batches the twin.
const PROFILE_READ_CAP: usize = 40_000;
const GENERATE_BATCH: usize = 256;
const TOP_SECOND_ORDER: usize = 10;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// How far the learned aggregate error rate may sit from the configured
/// one. At 40k profiled reads the estimate's sampling error is a few
/// hundredths of a percentage point; a wrong profiler misses by far more.
const ERROR_RATE_TOLERANCE: f64 = 0.005;
/// Stage calls per timed pass: resimulate, two protocols, four evaluations.
const CALLS_PER_PASS: usize = 7;

fn twin_config(seed: u64) -> NanoporeTwinConfig {
    NanoporeTwinConfig {
        seed: SeedSequence::new(seed).derive("paper-eval"),
        ..NanoporeTwinConfig::default()
    }
}

/// The seed label `Experiments::ablation_table` resimulates Table 3.1's
/// last row under.
fn resimulate_label() -> String {
    format!(
        "ablation-{}-{COVERAGE}",
        SimulatorLayer::SecondOrder.label()
    )
}

/// Per-strand / per-char accuracy of (BMA, Iterative) on (real, simulated).
type Cells = [AccuracyCell; 4];

/// Mean over {BMA, Iterative} of |simulated − real| per-strand accuracy.
fn sim_gap_pp(cells: &Cells) -> f64 {
    ((cells[2].per_strand - cells[0].per_strand).abs()
        + (cells[3].per_strand - cells[1].per_strand).abs())
        / 2.0
}

/// One timed pass through the library's entry points. Returns the cells
/// and the number of clusters reconstructed.
fn pass(exp: &Experiments) -> (Cells, usize) {
    let sim = exp.resimulate(
        exp.keoliya(SimulatorLayer::SecondOrder),
        &resimulate_label(),
    );
    let real = fixed_coverage_protocol(exp.twin(), MIN_COVERAGE, COVERAGE);
    let sim = fixed_coverage_protocol(&sim, MIN_COVERAGE, COVERAGE);
    let bma = BmaLookahead::default();
    let iterative = Iterative::default();
    let cells = [
        evaluate_reconstruction(&real, &bma).into(),
        evaluate_reconstruction(&real, &iterative).into(),
        evaluate_reconstruction(&sim, &bma).into(),
        evaluate_reconstruction(&sim, &iterative).into(),
    ];
    (cells, 2 * (real.len() + sim.len()))
}

/// The untraced run: several set-ups, then timed passes for the run time.
pub fn run(ctx: &Run) -> Outcome {
    let config = twin_config(ctx.seed);
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut exp = None;
    for _ in 0..SETUP_REPEATS {
        // One twin resident at a time, so peak memory is one set-up's.
        drop(exp.take());
        let start = Instant::now();
        exp = Some(Experiments::new(&config));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let exp = exp.expect("at least one set-up ran");
    check_learned_rate(&mut out, exp.learned(), &config);

    let mut results = Vec::new();
    let passes = repeat_for(ctx.seconds, || pass(&exp), |r| results.push(r));
    let (cells, clusters) = results[0];
    for (i, (later, _)) in results.iter().enumerate().skip(1) {
        out.check(
            format!("pass {i} accuracy cells equal pass 0's"),
            *later == cells,
        );
    }
    let run_s = crate::stats::median(&passes.wall_s);
    out.ops = SETUP_REPEATS + CALLS_PER_PASS * passes.wall_s.len();
    out.values.insert("setup_s", crate::stats::median(&setup_s));
    out.values.insert("run_s", run_s);
    out.values.insert("peak_rss_mib", sys::peak_rss_mib());
    out.values.insert("ops_per_s", clusters as f64 / run_s);
    describe(&mut out, &config, exp.twin(), clusters, &cells);
    out.fact("setup_samples", setup_s.len());
    passes.describe(&mut out);
    out
}

/// The traced run: one untraced pass for the overhead baseline, then the
/// same set-up and pass rebuilt from their public stage calls, with the
/// seeds `Experiments::new` derives.
pub fn run_traced(ctx: &Run) -> (Outcome, Vec<trace::Span>) {
    let config = twin_config(ctx.seed);
    let mut out = Outcome::default();
    let (untraced_s, untraced_cells, untraced_learned) = {
        let exp = Experiments::new(&config);
        let start = Instant::now();
        let (cells, _) = pass(&exp);
        (start.elapsed().as_secs_f64(), cells, exp.learned().clone())
    };

    let trace = Trace::new();
    let seeds = SeedSequence::new(SeedSequence::new(config.seed).derive("experiments"));
    let pool = ThreadPool::from_env();
    let mut twin = Dataset::new();
    let generated = trace.time("dataset.generate", None, || {
        config.generate_stream(GENERATE_BATCH, &pool, &mut twin)
    });
    out.check("twin generation succeeds", generated.is_ok());
    let (stats, profiled) = trace.time("profile.record", None, || profile(&twin, &seeds));
    let learned = trace.time("profile.learn", None, || {
        LearnedModel::from_stats(&stats, TOP_SECOND_ORDER)
    });
    out.check(
        "traced set-up learns the untraced model",
        learned == untraced_learned,
    );
    check_learned_rate(&mut out, &learned, &config);

    let region_start = trace.now_ns();
    let sim = trace.time("channel.resimulate", None, || {
        let model = KeoliyaModel::new(learned.clone(), SimulatorLayer::SecondOrder);
        Simulator::new(model, CoverageModel::Fixed(0))
            .resimulate_matching(&twin, &mut seeds.derive_rng(&resimulate_label()))
    });
    let real = trace.time("pipeline.protocol", None, || {
        fixed_coverage_protocol(&twin, MIN_COVERAGE, COVERAGE)
    });
    let sim_protocol = trace.time("pipeline.protocol", None, || {
        fixed_coverage_protocol(&sim, MIN_COVERAGE, COVERAGE)
    });
    let cpu_before = sys::cpu_seconds();
    let evaluate_start = trace.now_ns();
    let bma = BmaLookahead::default();
    let iterative = Iterative::default();
    let mut cells = Vec::new();
    for dataset in [&real, &sim_protocol] {
        cells.push(AccuracyCell::from(trace.time(
            "reconstruct.bma",
            None,
            || evaluate_reconstruction(dataset, &bma),
        )));
        cells.push(AccuracyCell::from(trace.time(
            "reconstruct.iterative",
            None,
            || evaluate_reconstruction(dataset, &iterative),
        )));
    }
    let evaluate_s = (trace.now_ns() - evaluate_start) as f64 / 1e9;
    let cpu_s = sys::cpu_seconds() - cpu_before;
    let region_end = trace.now_ns();
    let cells: Cells = cells.try_into().expect("four evaluations");
    out.check(
        "traced accuracy cells equal the untraced run's",
        cells == untraced_cells,
    );

    let spans = trace.into_spans();
    let clusters = 2 * (real.len() + sim_protocol.len());
    let traced_s = (region_end - region_start) as f64 / 1e9;
    let v = &mut out.values;
    v.insert(
        "dataset.generate_s",
        trace::busy_s(&spans, "dataset.generate"),
    );
    v.insert("profile.record_s", trace::busy_s(&spans, "profile.record"));
    v.insert("profile.reads", profiled as f64);
    v.insert(
        "profile.us_per_read",
        v["profile.record_s"] / profiled as f64 * 1e6,
    );
    v.insert("profile.learn_s", trace::busy_s(&spans, "profile.learn"));
    v.insert(
        "channel.resimulate_s",
        trace::busy_s(&spans, "channel.resimulate"),
    );
    v.insert("channel.reads_out", sim.total_reads() as f64);
    v.insert(
        "pipeline.protocol_s",
        trace::busy_s(&spans, "pipeline.protocol"),
    );
    v.insert(
        "reconstruct.bma_s",
        trace::busy_s(&spans, "reconstruct.bma"),
    );
    v.insert(
        "reconstruct.iterative_s",
        trace::busy_s(&spans, "reconstruct.iterative"),
    );
    v.insert(
        "reconstruct.us_per_cluster",
        (v["reconstruct.bma_s"] + v["reconstruct.iterative_s"]) / clusters as f64 * 1e6,
    );
    v.insert(
        "reconstruct.cpu_util",
        cpu_s / (evaluate_s * ctx.workers as f64),
    );
    v.insert("pipeline.sim_gap_pp", sim_gap_pp(&cells));
    trace::summarise(v, &spans, (region_start, region_end), untraced_s);
    out.ops = 3 + CALLS_PER_PASS;
    describe(&mut out, &config, &twin, clusters, &cells);
    out.fact("traced_run_s", traced_s);
    out.fact("untraced_run_s", untraced_s);
    (out, spans)
}

/// `Experiments::new`'s profiling pass, over the materialised twin: the
/// first `PROFILE_READ_CAP` reads in cluster order, on the profiler RNG.
fn profile(twin: &Dataset, seeds: &SeedSequence) -> (ErrorStats, usize) {
    let mut stats = ErrorStats::new();
    let mut rng = seeds.derive_rng("profiler");
    let mut scratch = EditScratch::new();
    let mut seen = 0;
    'clusters: for cluster in twin.iter() {
        for read in cluster.reads() {
            if seen >= PROFILE_READ_CAP {
                break 'clusters;
            }
            stats.record_pair_with(
                &mut scratch,
                cluster.reference(),
                read,
                TieBreak::Random,
                &mut rng,
            );
            seen += 1;
        }
    }
    (stats, seen)
}

fn check_learned_rate(out: &mut Outcome, learned: &LearnedModel, config: &NanoporeTwinConfig) {
    let gap = (learned.aggregate_error_rate - config.aggregate_error_rate).abs();
    out.check(
        format!(
            "learned aggregate error {:.5} within {ERROR_RATE_TOLERANCE} of the configured {}",
            learned.aggregate_error_rate, config.aggregate_error_rate
        ),
        gap <= ERROR_RATE_TOLERANCE,
    );
}

fn describe(
    out: &mut Outcome,
    config: &NanoporeTwinConfig,
    twin: &Dataset,
    clusters: usize,
    cells: &Cells,
) {
    out.fact("twin_clusters", config.cluster_count);
    out.fact("strand_len", config.strand_len);
    out.fact("twin_reads", twin.total_reads());
    out.fact("clusters_reconstructed_per_pass", clusters);
    out.fact("ops", "clusters reconstructed");
    let row = |c: &AccuracyCell| format!("{:.2}/{:.2}", c.per_strand, c.per_char);
    out.fact("real_bma", row(&cells[0]));
    out.fact("real_iterative", row(&cells[1]));
    out.fact("sim_bma", row(&cells[2]));
    out.fact("sim_iterative", row(&cells[3]));
    out.fact("sim_gap_pp", sim_gap_pp(cells));
}
