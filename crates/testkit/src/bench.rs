//! A minimal benchmark harness with a criterion-compatible API.
//!
//! Each benchmark runs a warmup phase (to stabilise caches and estimate the
//! per-iteration cost), then a fixed number of timed samples, each of a
//! batch of iterations sized so one sample is long enough to measure
//! reliably. Reported statistics are the **median** time per iteration and
//! the **MAD** (median absolute deviation) — both robust to scheduler
//! outliers, unlike mean/stddev.
//!
//! Environment knobs:
//!
//! * `DNASIM_BENCH_FAST=1` — shrink warmup/measurement to smoke-test levels
//!   (useful in CI, where only "compiles and runs" matters).
//! * `DNASIM_BENCH_JSON=<path>` — additionally append one JSON object per
//!   benchmark to `<path>` (JSON Lines), for machine consumers such as
//!   `scripts/bench.sh` / the `benchreport` aggregator.
//! * positional CLI argument — substring filter on benchmark ids, as with
//!   criterion (`cargo bench -p dnasim-bench --bench channel -- naive`).

pub use std::hint::black_box;

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level benchmark driver, configured per group via `criterion_group!`.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    filter: Option<String>,
}

impl Criterion {
    /// Default settings: 50 samples, 2 s measurement, 1 s warmup.
    #[allow(clippy::should_implement_trait)]
    pub fn default() -> Criterion {
        Criterion {
            sample_size: 50,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_secs(1),
            filter: None,
        }
    }

    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Sets the total time budget for the timed samples of one benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Criterion {
        self.measurement_time = d;
        self
    }

    /// Sets the warmup duration before timing starts.
    pub fn warm_up_time(mut self, d: Duration) -> Criterion {
        self.warm_up_time = d;
        self
    }

    /// Applies the CLI substring filter (set by `criterion_main!`).
    pub fn configure_from_args(mut self) -> Criterion {
        self.filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && !a.is_empty());
        self
    }

    fn effective(&self) -> (usize, Duration, Duration) {
        if std::env::var_os("DNASIM_BENCH_FAST").is_some_and(|v| v != "0" && !v.is_empty()) {
            (
                self.sample_size.min(10),
                Duration::from_millis(100),
                Duration::from_millis(50),
            )
        } else {
            (self.sample_size, self.measurement_time, self.warm_up_time)
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        self.run_one(&id.into(), &mut f);
        self
    }

    /// Records a pseudo-benchmark whose value is a raw gauge (a percentage,
    /// a ratio) rather than a timing: median/min/max all equal `value`, MAD
    /// is zero, one sample of one iteration. This lets non-timing metrics
    /// ride the same JSONL/`benchreport` pipeline as the timed records, so
    /// scripts can gate on them (e.g. the clustering prune rate).
    pub fn record_metric(&mut self, id: impl Into<String>, value: f64) -> &mut Criterion {
        let id = id.into();
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return self;
            }
        }
        let report = Report {
            median_ns: value,
            mad_ns: 0.0,
            min_ns: value,
            max_ns: value,
            samples: 1,
            iters_per_sample: 1,
        };
        println!("{id:<44} metric: {value:.3}");
        append_json_line(&id, &report);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    fn run_one<F>(&self, id: &str, f: &mut F)
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let (sample_size, measurement_time, warm_up_time) = self.effective();
        let mut bencher = Bencher {
            sample_size,
            measurement_time,
            warm_up_time,
            report: None,
        };
        f(&mut bencher);
        match bencher.report {
            Some(report) => {
                println!("{id:<44} {report}");
                append_json_line(id, &report);
            }
            None => println!("{id:<44} (no measurement — b.iter never called)"),
        }
    }
}

/// Appends one JSON Lines record for a finished benchmark to the file named
/// by `DNASIM_BENCH_JSON`, when set. Emission is best-effort: an unwritable
/// path only costs a warning on stderr, never the benchmark run.
fn append_json_line(id: &str, report: &Report) {
    let Some(path) = std::env::var_os("DNASIM_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let line = format!(
        "{{\"id\":\"{}\",\"median_ns\":{:.1},\"mad_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1},\"samples\":{},\"iters_per_sample\":{}}}\n",
        dnasim_core::json::escape(id),
        report.median_ns,
        report.mad_ns,
        report.min_ns,
        report.max_ns,
        report.samples,
        report.iters_per_sample,
    );
    use std::io::Write;
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(err) = result {
        eprintln!("warning: DNASIM_BENCH_JSON append failed for {path:?}: {err}");
    }
}

/// Handle passed to each benchmark closure; call [`iter`] with the routine
/// to measure.
///
/// [`iter`]: Bencher::iter
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    report: Option<Report>,
}

impl Bencher {
    /// Measures `routine`, consuming its output via [`black_box`] so the
    /// optimiser cannot elide the work.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warmup: run until the warmup budget elapses, counting iterations
        // to estimate the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time || warm_iters == 0 {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_nanos().max(1) / u128::from(warm_iters);

        // Size one sample so that sample_size samples fill the measurement
        // budget, with at least one iteration per sample.
        let budget = self.measurement_time.as_nanos();
        let iters_per_sample =
            (budget / u128::from(self.sample_size as u64) / per_iter.max(1)).max(1) as u64;

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            samples_ns.push(start.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        self.report = Some(Report::from_samples(&mut samples_ns, iters_per_sample));
    }
}

/// Robust summary of one benchmark's samples.
#[derive(Debug, Clone, PartialEq)]
struct Report {
    median_ns: f64,
    mad_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: usize,
    iters_per_sample: u64,
}

impl Report {
    fn from_samples(samples_ns: &mut [f64], iters_per_sample: u64) -> Report {
        let median = median_of(samples_ns);
        let mut deviations: Vec<f64> = samples_ns.iter().map(|s| (s - median).abs()).collect();
        let mad = median_of(&mut deviations);
        let min = samples_ns.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples_ns.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Report {
            median_ns: median,
            mad_ns: mad,
            min_ns: min,
            max_ns: max,
            samples: samples_ns.len(),
            iters_per_sample,
        }
    }
}

impl Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "time: [{} ±{} mad]  range: [{} .. {}]  ({} samples × {} iters)",
            format_ns(self.median_ns),
            format_ns(self.mad_ns),
            format_ns(self.min_ns),
            format_ns(self.max_ns),
            self.samples,
            self.iters_per_sample,
        )
    }
}

/// Median of a slice (sorts in place).
fn median_of(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty());
    values.sort_by(|a, b| a.partial_cmp(b).expect("benchmark times are finite"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Human-readable nanosecond quantity (`1.234 µs` style).
fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.3} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.3} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A group of related benchmarks sharing an id prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark inside the group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        self.criterion.run_one(&full, &mut f);
        self
    }

    /// Runs one parameterised benchmark, passing `input` to the closure.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.render());
        self.criterion.run_one(&full, &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// Closes the group (kept for criterion API parity).
    pub fn finish(self) {}
}

/// A benchmark id of the form `function/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a displayed parameter.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            function: function.into(),
            parameter: parameter.to_string(),
        }
    }

    fn render(&self) -> String {
        format!("{}/{}", self.function, self.parameter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> Criterion {
        Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(5))
    }

    #[test]
    fn bench_function_produces_a_report() {
        let mut c = fast();
        let mut ran = false;
        c.bench_function("smoke", |b| {
            ran = true;
            b.iter(|| (0..100u64).sum::<u64>())
        });
        assert!(ran);
    }

    #[test]
    fn groups_and_ids_compose() {
        let mut c = fast();
        let mut group = c.benchmark_group("group");
        group.bench_function("plain", |b| b.iter(|| black_box(1 + 1)));
        for n in [2u64, 4] {
            group.bench_with_input(BenchmarkId::new("param", n), &n, |b, &n| {
                b.iter(|| (0..n).product::<u64>())
            });
        }
        group.finish();
    }

    #[test]
    fn filter_skips_non_matching_benchmarks() {
        let mut c = fast();
        c.filter = Some("nope".to_owned());
        let mut ran = false;
        c.bench_function("other", |b| {
            ran = true;
            b.iter(|| 1)
        });
        assert!(!ran);
    }

    #[test]
    fn median_and_mad_are_robust() {
        let mut xs = [1.0, 2.0, 3.0, 4.0, 100.0];
        let report = Report::from_samples(&mut xs, 1);
        assert_eq!(report.median_ns, 3.0);
        assert_eq!(report.mad_ns, 1.0);
        assert_eq!(report.min_ns, 1.0);
        assert_eq!(report.max_ns, 100.0);
    }

    #[test]
    fn format_ns_picks_sensible_units() {
        assert_eq!(format_ns(12.0), "12.0 ns");
        assert_eq!(format_ns(1_500.0), "1.500 µs");
        assert_eq!(format_ns(2_000_000.0), "2.000 ms");
    }

    #[test]
    fn json_lines_are_appended_when_env_set() {
        let path = std::env::temp_dir().join(format!(
            "dnasim-bench-jsonl-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        std::env::set_var("DNASIM_BENCH_JSON", &path);
        let mut c = fast();
        c.bench_function("jsonline-smoke", |b| b.iter(|| black_box(2 + 2)));
        std::env::remove_var("DNASIM_BENCH_JSON");
        let contents = std::fs::read_to_string(&path).expect("JSONL file written");
        let _ = std::fs::remove_file(&path);
        let line = contents
            .lines()
            .find(|l| l.contains("\"id\":\"jsonline-smoke\""))
            .expect("record for jsonline-smoke present");
        for field in [
            "\"median_ns\":",
            "\"mad_ns\":",
            "\"min_ns\":",
            "\"max_ns\":",
            "\"samples\":",
            "\"iters_per_sample\":",
        ] {
            assert!(line.contains(field), "missing {field} in {line}");
        }
    }
}
