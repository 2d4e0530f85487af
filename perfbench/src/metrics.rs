//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; a test below keeps the two in step.

use std::collections::BTreeMap;

use dnasim::serve::json::Obj;

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "ops/s"),
];

/// Per-layer metrics, reported by every traced run of every workload; a
/// layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // paper-eval
    ("dataset.generate_s", "s"),
    ("profile.record_s", "s"),
    ("profile.reads", "count"),
    ("profile.us_per_read", "us"),
    ("profile.learn_s", "s"),
    ("channel.resimulate_s", "s"),
    ("channel.reads_out", "count"),
    ("pipeline.protocol_s", "s"),
    ("reconstruct.bma_s", "s"),
    ("reconstruct.iterative_s", "s"),
    ("reconstruct.us_per_cluster", "us"),
    ("reconstruct.cpu_util", "ratio"),
    ("pipeline.sim_gap_pp", "pp"),
    // archive-imperfect
    ("codec.encode_s", "s"),
    ("channel.pool_s", "s"),
    ("channel.pool_builds", "count"),
    ("channel.sequencing_s", "s"),
    ("channel.reads", "count"),
    ("cluster.push_s", "s"),
    ("cluster.candidates_per_read", "1/read"),
    ("cluster.pruned_share", "ratio"),
    ("cluster.lanes_per_call", "lanes"),
    ("cluster.cpu_util", "ratio"),
    ("reconstruct.ensemble_s", "s"),
    ("reconstruct.attempts_per_strand", "1/strand"),
    ("codec.decode_s", "s"),
    ("codec.decode_failures", "count"),
    ("codec.recover_s", "s"),
    ("codec.parity_recoveries", "count"),
    ("codec.zero_filled", "count"),
    // serve-mixed
    ("serve.parse_us", "us"),
    ("serve.execute_ms.generate", "ms"),
    ("serve.execute_ms.corrupt", "ms"),
    ("serve.execute_ms.simulate", "ms"),
    ("serve.execute_ms.evaluate", "ms"),
    ("serve.execute_ms.archive", "ms"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_p99", "ms"),
    ("serve.windows", "count"),
    ("serve.peak_inflight_requests", "count"),
    ("parallel.efficiency", "ratio"),
    ("dataset.parse_us", "us"),
    // every workload: the trace itself and self time per layer
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("dataset.self_s", "s"),
    ("profile.self_s", "s"),
    ("channel.self_s", "s"),
    ("pipeline.self_s", "s"),
    ("reconstruct.self_s", "s"),
    ("cluster.self_s", "s"),
    ("codec.self_s", "s"),
    ("serve.self_s", "s"),
    ("parallel.self_s", "s"),
];

/// Named metric values a workload run produced.
pub type Values = BTreeMap<&'static str, f64>;

/// The pass/fail verdict of one output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether the output passed.
    pub passed: bool,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by catalogue name.
    pub values: Values,
    /// Operations attempted (stage calls, round trips, requests).
    pub ops: usize,
    /// Operations that failed.
    pub ops_failed: usize,
    /// Output checks made.
    pub checks: Vec<Check>,
    /// Workload sizes and sample counts, for the provenance line.
    pub facts: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        let name = name.into();
        if !passed {
            eprintln!("check failed: {name}");
        }
        self.checks.push(Check { name, passed });
    }

    /// Records a provenance fact.
    pub fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.push((name, value.to_string()));
    }

    /// The final result line: `correct`, `attempted`, `failed` and every
    /// metric of `catalogue`, each with its unit. A failed check counts as
    /// a failed attempt. Metrics absent from the run read 0 when
    /// `default_zero` is set; otherwise a missing metric is a bug.
    pub fn result_line(&self, catalogue: &[(&str, &str)], default_zero: bool) -> String {
        let failed_checks = self.checks.iter().filter(|c| !c.passed).count();
        let mut metrics = Obj::new();
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if default_zero => 0.0,
                None => panic!("workload did not report end-to-end metric {name}"),
            };
            metrics = metrics.raw(
                name,
                &Obj::new()
                    .raw("value", &number(value))
                    .str("unit", unit)
                    .finish(),
            );
        }
        Obj::new()
            .bool("correct", failed_checks == 0)
            .usize("attempted", self.ops + self.checks.len())
            .usize("failed", self.ops_failed + failed_checks)
            .raw("metrics", &metrics.finish())
            .finish()
    }
}

/// A JSON number with every digit the value carries (non-finite values,
/// which JSON cannot hold, read 0).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim::serve::json::{self, Json};

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let Some(Json::Array(items)) = doc.get(section) else {
            panic!("BENCHMARK.json has no {section} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_counts_failed_checks_and_keeps_digits() {
        let mut outcome = Outcome {
            ops: 10,
            ..Outcome::default()
        };
        outcome.values.insert("setup_s", 0.123456789);
        outcome.values.insert("run_s", 1.5);
        outcome.values.insert("peak_rss_mib", 12.0);
        outcome.values.insert("ops_per_s", 6.25);
        outcome.check("ok", true);
        outcome.check("broken", false);
        let line = outcome.result_line(END_TO_END, false);
        let doc = json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("attempted").and_then(Json::as_usize), Some(12));
        assert_eq!(doc.get("failed").and_then(Json::as_usize), Some(1));
        let setup = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.123456789));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
