//! The chaos-suite runner: sweep the fault × seed grid and classify what
//! each injected fault did to the pipeline.
//!
//! The contract under test is the workspace's robustness invariant: an
//! adversarial input may be *tolerated* (parsed and processed anyway),
//! *rejected* with a typed error, or *quarantined* (erasure clusters
//! handed to the outer code) — but it must never panic. Each case is
//! wrapped in [`std::panic::catch_unwind`], so a regression shows up as a
//! [`Verdict::Panicked`] entry naming the exact `(fault, seed)` pair to
//! reproduce it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dnasim_channel::{CoverageModel, KeoliyaModel, NaiveModel, Simulator, SimulatorLayer};
use dnasim_cluster::{GreedyClusterer, StreamingClusterer};
use dnasim_codec::{OuterRsCode, ReedSolomon, StrandLayout};
use dnasim_core::rng::{seeded, RngExt};
use dnasim_core::{json, pump_budgeted, Budget, Cluster, Dataset, DnasimError, NullSink, Strand};
use dnasim_dataset::{
    generate_references, read_dataset, write_dataset, ReadDatasetError, ReferenceStyle,
};
use dnasim_par::ThreadPool;
use dnasim_profile::{ErrorStats, LearnedModel, TieBreak};
use dnasim_reconstruct::{MajorityVote, TraceReconstructor};

use crate::inject::{
    corrupt_cluster_text, corrupt_model_text, degenerate_rs_params, FaultCategory, FaultKind,
};
use crate::reader::{FaultyReader, ReaderFaultPlan};
use crate::stream_faults::{FailingSink, StallingSource};

/// Seed-mixing constant so injection randomness differs from data
/// generation randomness for the same case seed.
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// How the pipeline answered one injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The stage absorbed the fault and produced a result.
    Tolerated,
    /// The stage rejected the input with a typed error.
    TypedError(String),
    /// Clusters were quarantined as erasures (graceful degradation).
    Quarantined(usize),
    /// The stage panicked — the bug class this suite exists to catch.
    Panicked(String),
}

/// One `(fault, seed)` case and its verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// The injected fault.
    pub fault: FaultKind,
    /// The case seed; replaying the same seed reproduces the case.
    pub seed: u64,
    /// What the pipeline did.
    pub verdict: Verdict,
}

/// The outcome of a full chaos sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    outcomes: Vec<ChaosOutcome>,
}

impl ChaosReport {
    /// Every case outcome, in grid order.
    pub fn outcomes(&self) -> &[ChaosOutcome] {
        &self.outcomes
    }

    /// Total cases run.
    pub fn cases(&self) -> usize {
        self.outcomes.len()
    }

    /// The cases that panicked.
    pub fn panicked(&self) -> Vec<&ChaosOutcome> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.verdict, Verdict::Panicked(_)))
            .collect()
    }

    /// True when no case panicked — the suite's pass condition.
    pub fn is_clean(&self) -> bool {
        self.panicked().is_empty()
    }

    /// A one-paragraph human-readable summary (used by `dnasim chaos`).
    pub fn summary(&self) -> String {
        let mut tolerated = 0usize;
        let mut typed = 0usize;
        let mut quarantined = 0usize;
        let mut panicked = 0usize;
        for outcome in &self.outcomes {
            match outcome.verdict {
                Verdict::Tolerated => tolerated += 1,
                Verdict::TypedError(_) => typed += 1,
                Verdict::Quarantined(_) => quarantined += 1,
                Verdict::Panicked(_) => panicked += 1,
            }
        }
        let mut out = format!(
            "chaos: {} cases — {tolerated} tolerated, {typed} typed errors, \
             {quarantined} quarantined, {panicked} panicked",
            self.cases()
        );
        for bad in self.panicked() {
            out.push_str(&format!(
                "\n  PANIC fault={} seed={}: {}",
                bad.fault.name(),
                bad.seed,
                match &bad.verdict {
                    Verdict::Panicked(msg) => msg.as_str(),
                    _ => "",
                }
            ));
        }
        out
    }

    /// A machine-readable summary (used by `dnasim chaos --json`):
    /// aggregate verdict counts, per-fault-kind counts in grid order, and
    /// the full reproduction coordinates of any panic. Key order is
    /// deterministic, so the output is diffable across runs.
    pub fn to_json(&self) -> String {
        let mut tolerated = 0usize;
        let mut typed = 0usize;
        let mut quarantined = 0usize;
        let mut panicked = 0usize;
        for outcome in &self.outcomes {
            match outcome.verdict {
                Verdict::Tolerated => tolerated += 1,
                Verdict::TypedError(_) => typed += 1,
                Verdict::Quarantined(_) => quarantined += 1,
                Verdict::Panicked(_) => panicked += 1,
            }
        }
        let mut out = format!(
            "{{\"cases\":{},\"clean\":{},\"verdicts\":{{\"tolerated\":{tolerated},\
             \"typed_error\":{typed},\"quarantined\":{quarantined},\
             \"panicked\":{panicked}}},\"faults\":{{",
            self.cases(),
            self.is_clean(),
        );
        let mut first = true;
        for fault in FaultKind::ALL {
            let mut cases = 0usize;
            let mut bad = 0usize;
            for outcome in self.outcomes.iter().filter(|o| o.fault == fault) {
                cases += 1;
                if matches!(outcome.verdict, Verdict::Panicked(_)) {
                    bad += 1;
                }
            }
            if cases == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{{\"cases\":{cases},\"panicked\":{bad}}}",
                fault.name()
            ));
        }
        out.push_str("},\"panics\":[");
        for (i, bad) in self.panicked().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let message = match &bad.verdict {
                Verdict::Panicked(msg) => msg.as_str(),
                _ => "",
            };
            out.push_str(&format!(
                "{{\"fault\":\"{}\",\"seed\":{},\"message\":\"{}\"}}",
                bad.fault.name(),
                bad.seed,
                json::escape(message),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Sweeps every [`FaultKind`] over a seed grid.
///
/// # Examples
///
/// ```
/// use dnasim_faults::{ChaosSuite, Verdict};
///
/// let report = ChaosSuite::new(1).run();
/// assert!(report.is_clean(), "{}", report.summary());
/// assert!(report
///     .outcomes()
///     .iter()
///     .any(|o| matches!(o.verdict, Verdict::TypedError(_))));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSuite {
    seeds_per_fault: u64,
}

impl ChaosSuite {
    /// A suite running `seeds_per_fault` seeds for each fault kind.
    pub fn new(seeds_per_fault: u64) -> ChaosSuite {
        ChaosSuite {
            seeds_per_fault: seeds_per_fault.max(1),
        }
    }

    /// The full grid: enough cases (≥ 200) for release verification.
    pub fn full() -> ChaosSuite {
        ChaosSuite::new(14)
    }

    /// A quick smoke grid for fast CI loops.
    pub fn smoke() -> ChaosSuite {
        ChaosSuite::new(2)
    }

    /// [`smoke`](ChaosSuite::smoke) when `DNASIM_BENCH_FAST` is set (and
    /// not `"0"`), [`full`](ChaosSuite::full) otherwise.
    pub fn from_env() -> ChaosSuite {
        let fast = std::env::var_os("DNASIM_BENCH_FAST")
            .is_some_and(|v| !v.is_empty() && v != "0");
        if fast {
            ChaosSuite::smoke()
        } else {
            ChaosSuite::full()
        }
    }

    /// Cases the sweep will run.
    pub fn planned_cases(&self) -> usize {
        FaultKind::ALL.len() * self.seeds_per_fault as usize
    }

    /// Runs the sweep. Panics raised by faulty stages are caught and
    /// recorded as [`Verdict::Panicked`]; the default panic hook is
    /// silenced for the duration so expected-to-be-absent backtraces don't
    /// flood the output of a failing run.
    pub fn run(&self) -> ChaosReport {
        self.run_on(&ThreadPool::serial())
    }

    /// Runs the sweep with cases fanned out on `pool`.
    ///
    /// Each case's seed depends only on its grid position and the report
    /// keeps grid order, so the verdicts are identical to
    /// [`ChaosSuite::run`] for any thread count. Worker panics cannot
    /// happen in practice — [`run_case`] already wraps every case in
    /// `catch_unwind` — but if the pool reports one anyway the grid is
    /// re-run serially, keeping this method infallible.
    pub fn run_on(&self, pool: &ThreadPool) -> ChaosReport {
        let previous_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let grid: Vec<(FaultKind, u64)> = FaultKind::ALL
            .iter()
            .flat_map(|&fault| {
                (0..self.seeds_per_fault)
                    .map(move |round| (fault, round.wrapping_mul(SEED_MIX).wrapping_add(round + 1)))
            })
            .collect();
        let outcomes = pool
            .par_map_indexed(&grid, |_, &(fault, seed)| run_case(fault, seed))
            .unwrap_or_else(|_| grid.iter().map(|&(f, s)| run_case(f, s)).collect());
        std::panic::set_hook(previous_hook);
        ChaosReport { outcomes }
    }
}

/// Runs one `(fault, seed)` case under `catch_unwind`.
pub fn run_case(fault: FaultKind, seed: u64) -> ChaosOutcome {
    let verdict = match catch_unwind(AssertUnwindSafe(|| exercise(fault, seed))) {
        Ok(verdict) => verdict,
        Err(payload) => Verdict::Panicked(panic_message(payload)),
    };
    ChaosOutcome {
        fault,
        seed,
        verdict,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn exercise(fault: FaultKind, seed: u64) -> Verdict {
    match fault.category() {
        FaultCategory::DatasetText => exercise_dataset_text(fault, seed),
        FaultCategory::ByteStream => exercise_byte_stream(fault, seed),
        FaultCategory::ModelParams => exercise_model_params(fault, seed),
        FaultCategory::CodecParams => exercise_codec_params(seed),
        FaultCategory::Streaming => exercise_streaming(fault, seed),
    }
}

/// A small clean dataset, deterministic in the seed.
fn base_dataset(seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let references = generate_references(5, 48, ReferenceStyle::Uniform, &mut rng);
    let simulator = Simulator::new(
        NaiveModel::with_total_rate(0.05),
        CoverageModel::Fixed(4),
    );
    simulator.simulate(&references, &mut rng)
}

/// A small clean cluster file to corrupt, deterministic in the seed.
fn base_dataset_text(seed: u64) -> String {
    let dataset = base_dataset(seed);
    let mut buf = Vec::new();
    // Writes to a Vec are infallible; a failure here would surface as an
    // empty corpus, which every injector handles.
    let _ = write_dataset(&dataset, &mut buf);
    String::from_utf8_lossy(&buf).into_owned()
}

/// A small learned model to corrupt, deterministic in the seed.
fn base_model_text(seed: u64) -> String {
    let mut rng = seeded(seed);
    let references = generate_references(4, 40, ReferenceStyle::Uniform, &mut rng);
    let simulator = Simulator::new(
        NaiveModel::with_total_rate(0.08),
        CoverageModel::Fixed(3),
    );
    let dataset = simulator.simulate(&references, &mut rng);
    let stats = ErrorStats::from_dataset(&dataset, TieBreak::Random, &mut rng);
    LearnedModel::from_stats(&stats, 40).to_text()
}

/// Parse the corrupted bytes, then push every surviving cluster through
/// reconstruction — the stage that meets monster reads and stub reads.
fn digest_parse_result(
    parsed: Result<dnasim_core::Dataset, ReadDatasetError>,
) -> Verdict {
    match parsed {
        Err(e) => Verdict::TypedError(DnasimError::from(e).to_string()),
        Ok(dataset) => {
            let mut quarantined = 0usize;
            for cluster in dataset.iter() {
                if cluster.is_erasure() {
                    quarantined += 1;
                    continue;
                }
                let _ = MajorityVote.reconstruct(cluster.reads(), cluster.reference().len());
            }
            if quarantined > 0 {
                Verdict::Quarantined(quarantined)
            } else {
                Verdict::Tolerated
            }
        }
    }
}

fn exercise_dataset_text(fault: FaultKind, seed: u64) -> Verdict {
    let text = base_dataset_text(seed);
    let mut rng = seeded(seed ^ SEED_MIX);
    let corrupted = corrupt_cluster_text(fault, &text, &mut rng);
    digest_parse_result(read_dataset(corrupted.as_slice()))
}

fn exercise_byte_stream(fault: FaultKind, seed: u64) -> Verdict {
    let text = base_dataset_text(seed);
    let len = text.len() as u64;
    let mut rng = seeded(seed ^ SEED_MIX);
    let at = rng.random_range(0..len.max(1));
    let plan = match fault {
        FaultKind::StreamIoError => ReaderFaultPlan::io_error(at),
        _ => ReaderFaultPlan::truncation(at),
    };
    let reader = std::io::BufReader::new(FaultyReader::new(text.as_bytes(), plan));
    digest_parse_result(read_dataset(reader))
}

fn exercise_model_params(fault: FaultKind, seed: u64) -> Verdict {
    let text = base_model_text(seed);
    let mut rng = seeded(seed ^ SEED_MIX);
    let corrupted = corrupt_model_text(fault, &text, &mut rng);
    match LearnedModel::from_text(&corrupted) {
        Err(e) => Verdict::TypedError(DnasimError::from(e).to_string()),
        // Parsing admitted the value; the simulator constructor is the
        // second gate and must also hold.
        Ok(model) => match KeoliyaModel::try_new(model, SimulatorLayer::SecondOrder) {
            Err(e) => Verdict::TypedError(DnasimError::from(e).to_string()),
            Ok(_) => Verdict::Tolerated,
        },
    }
}

/// Push a pump through a stalled source, a failing sink, or an exhausted
/// budget and classify the answer. The robustness contract for each:
/// stalls and mid-batch exhaustion must surface a typed
/// `DeadlineExceeded` (the already-pumped prefix is intact in the sink —
/// the quarantine shape), and a failing sink must surface its typed I/O
/// error — never a panic, never a spin.
fn exercise_streaming(fault: FaultKind, seed: u64) -> Verdict {
    let dataset = base_dataset(seed);
    let clusters: Vec<Cluster> = dataset.iter().cloned().collect();
    let total = clusters.len() as u64;
    let mut rng = seeded(seed ^ SEED_MIX);
    match fault {
        FaultKind::StalledSource => {
            // The source wedges after a random prefix; the budget has
            // room for every real cluster plus a little slack, so only
            // the stall can exhaust it.
            let keep = rng.random_range(0..=clusters.len());
            let mut source = StallingSource::new(clusters[..keep].to_vec());
            let mut sink = NullSink::new();
            let budget = Budget::limited(total + 4);
            match pump_budgeted(&mut source, &mut sink, 3, &budget, "pump", Ok) {
                Err(e) => Verdict::TypedError(e.to_string()),
                Ok(_) => Verdict::Tolerated,
            }
        }
        FaultKind::SinkWriteFailure => {
            let capacity = rng.random_range(0..clusters.len().max(1));
            let mut source = dataset.stream();
            let mut sink = FailingSink::new(capacity);
            match pump_budgeted(&mut source, &mut sink, 2, &Budget::unlimited(), "pump", Ok) {
                Err(e) => Verdict::TypedError(e.to_string()),
                Ok(_) => Verdict::Tolerated,
            }
        }
        FaultKind::DegenerateClusterReads => {
            // Splice hostile reads — empty strands, single-base stubs and
            // monster reads — into an otherwise clean pool and stream the
            // lot through the online clusterer. Every read must be
            // assigned or must found a group: nothing dropped, no panic.
            let references: Vec<Strand> =
                dataset.iter().map(|c| c.reference().clone()).collect();
            let mut reads: Vec<Strand> = dataset
                .iter()
                .flat_map(|c| c.reads().iter().cloned())
                .collect();
            for _ in 0..1 + rng.random_range(0..4usize) {
                let hostile = match rng.random_range(0..3usize) {
                    0 => Strand::new(),
                    1 => Strand::random(1, &mut rng),
                    _ => Strand::random(4_000, &mut rng),
                };
                let at = rng.random_range(0..=reads.len());
                reads.insert(at, hostile);
            }
            let mut clusterer =
                StreamingClusterer::with_references(GreedyClusterer::default(), &references);
            let mut assigned = 0usize;
            for window in reads.chunks(5) {
                assigned += clusterer.push_batch(window).len();
            }
            if clusterer.reads_seen() == reads.len() && assigned == reads.len() {
                Verdict::Tolerated
            } else {
                Verdict::TypedError(format!(
                    "clusterer accounting drifted: saw {} and assigned {} of {} reads",
                    clusterer.reads_seen(),
                    assigned,
                    reads.len()
                ))
            }
        }
        _ => {
            // BudgetExhaustion: a budget strictly smaller than the corpus
            // runs out mid-stream; the admitted prefix reaches the sink
            // and the remainder is quarantined behind a typed error.
            let limit = rng.random_range(0..total.max(1));
            let mut source = dataset.stream();
            let mut sink = NullSink::new();
            let budget = Budget::limited(limit);
            match pump_budgeted(&mut source, &mut sink, 4, &budget, "pump", Ok) {
                Err(DnasimError::DeadlineExceeded { spent, .. }) => {
                    debug_assert_eq!(sink.clusters() as u64, spent);
                    Verdict::Quarantined((total - spent.min(total)) as usize)
                }
                Err(e) => Verdict::TypedError(e.to_string()),
                Ok(_) => Verdict::Tolerated,
            }
        }
    }
}

fn exercise_codec_params(seed: u64) -> Verdict {
    let mut rng = seeded(seed ^ SEED_MIX);
    let (n, k) = degenerate_rs_params(&mut rng);
    let rs = ReedSolomon::new(n, k);
    let outer = OuterRsCode::new(n, k);
    let layout = StrandLayout::new(n, k, &mut rng);
    match (&rs, &outer, &layout) {
        (Ok(_), Ok(_), Ok(_)) => Verdict::Tolerated,
        (Err(e), _, _) => Verdict::TypedError(e.to_string()),
        (_, Err(e), _) => Verdict::TypedError(e.to_string()),
        (_, _, Err(e)) => Verdict::TypedError(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_seed_grid_is_panic_free() {
        let report = ChaosSuite::new(1).run();
        assert_eq!(report.cases(), FaultKind::ALL.len());
        assert!(report.is_clean(), "{}", report.summary());
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let suite = ChaosSuite::new(2);
        let serial = suite.run();
        for threads in [2, 4] {
            let par = suite.run_on(&ThreadPool::new(threads));
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn nan_model_case_yields_typed_error() {
        let outcome = run_case(FaultKind::NanModelParam, 1);
        assert!(
            matches!(outcome.verdict, Verdict::TypedError(_)),
            "{:?}",
            outcome.verdict
        );
    }

    #[test]
    fn degenerate_rs_case_never_panics() {
        for seed in 0..16 {
            let outcome = run_case(FaultKind::DegenerateRsParams, seed);
            assert!(
                !matches!(outcome.verdict, Verdict::Panicked(_)),
                "seed {seed}: {:?}",
                outcome.verdict
            );
        }
    }

    #[test]
    fn summary_counts_every_case() {
        let report = ChaosSuite::smoke().run();
        let summary = report.summary();
        assert!(summary.contains(&format!("{} cases", report.cases())), "{summary}");
    }

    #[test]
    fn streaming_faults_yield_typed_or_quarantined_verdicts() {
        for seed in 0..8 {
            let stalled = run_case(FaultKind::StalledSource, seed);
            assert!(
                matches!(stalled.verdict, Verdict::TypedError(ref m) if m.contains("deadline")),
                "seed {seed}: {:?}",
                stalled.verdict
            );
            let sink = run_case(FaultKind::SinkWriteFailure, seed);
            assert!(
                matches!(sink.verdict, Verdict::TypedError(_)),
                "seed {seed}: {:?}",
                sink.verdict
            );
            let exhausted = run_case(FaultKind::BudgetExhaustion, seed);
            assert!(
                matches!(exhausted.verdict, Verdict::Quarantined(n) if n > 0),
                "seed {seed}: {:?}",
                exhausted.verdict
            );
            let degenerate = run_case(FaultKind::DegenerateClusterReads, seed);
            assert_eq!(
                degenerate.verdict,
                Verdict::Tolerated,
                "seed {seed}: hostile reads must stream through the clusterer"
            );
        }
    }

    #[test]
    fn json_summary_is_deterministic_and_counts_match() {
        let report = ChaosSuite::smoke().run();
        let json = report.to_json();
        assert_eq!(json, ChaosSuite::smoke().run().to_json());
        assert!(json.starts_with(&format!("{{\"cases\":{}", report.cases())), "{json}");
        assert!(json.contains("\"clean\":true"), "{json}");
        assert!(json.contains("\"stalled-source\":{\"cases\":2,\"panicked\":0}"), "{json}");
        assert!(json.ends_with("\"panics\":[]}"), "{json}");
        // Every fault kind appears exactly once.
        for fault in FaultKind::ALL {
            assert_eq!(json.matches(&format!("\"{}\"", fault.name())).count(), 1, "{json}");
        }
    }
}
