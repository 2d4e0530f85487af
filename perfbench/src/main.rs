//! `dnasim-perfbench`: the repository's end-to-end benchmark, with a
//! traced per-layer breakdown.
//!
//! ```text
//! dnasim-perfbench --workload <paper-eval|archive-imperfect|serve-mixed>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, runs through the
//! library's public entry points on `nproc` workers, checks its outputs,
//! and prints a provenance line followed by the result line: the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`, which also writes its spans under `perfbench/out/`).
//! See `perfbench/README.md`.

mod archive;
mod lines;
mod metrics;
mod paper_eval;
mod serve_mixed;
mod stats;
mod sys;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use dnasim::serve::json::Obj;

use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::sys::Host;

/// Where traced runs write their spans, relative to the checkout root.
const TRACE_DIR: &str = "perfbench/out";

/// The settings one benchmark run shares with its workload.
#[derive(Debug, Clone)]
pub struct Run {
    /// The workload seed every input derives from.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// Worker threads (`nproc`).
    pub workers: usize,
}

/// Wall and process CPU seconds of each timed pass.
#[derive(Debug, Default)]
pub struct Passes {
    /// Wall seconds per pass.
    pub wall_s: Vec<f64>,
    /// Process CPU seconds (all threads) per pass.
    pub cpu_s: Vec<f64>,
}

impl Passes {
    /// The provenance facts: every pass's wall and CPU time.
    pub fn describe(&self, out: &mut Outcome) {
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        out.fact("run_samples", self.wall_s.len());
        out.fact("pass_wall_s", list(&self.wall_s));
        out.fact("pass_cpu_s", list(&self.cpu_s));
    }
}

/// Runs `pass` back to back until `seconds` have elapsed — at least once —
/// handing each result to `absorb` outside the timed interval.
pub fn repeat_for<R>(
    seconds: f64,
    mut pass: impl FnMut() -> R,
    mut absorb: impl FnMut(R),
) -> Passes {
    let start = Instant::now();
    let mut passes = Passes::default();
    loop {
        let (cpu_start, pass_start) = (sys::cpu_seconds(), Instant::now());
        let result = pass();
        passes.wall_s.push(pass_start.elapsed().as_secs_f64());
        passes.cpu_s.push(sys::cpu_seconds() - cpu_start);
        absorb(result);
        if start.elapsed().as_secs_f64() >= seconds {
            return passes;
        }
    }
}

const WORKLOADS: &[&str] = &["paper-eval", "archive-imperfect", "serve-mixed"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == workload)
        .ok_or_else(|| {
            format!(
                "unknown workload '{workload}' (expected {})",
                WORKLOADS.join(" | ")
            )
        })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("dnasim-perfbench: {message}");
            eprintln!(
                "usage: dnasim-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    // Every pool the library sizes from the environment uses the same
    // worker count as the pools built here.
    std::env::set_var(dnasim::par::THREADS_ENV, host.workers.to_string());
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        workers: host.workers,
    };
    let (outcome, spans) = if args.trace {
        let (outcome, spans) = match args.workload {
            "paper-eval" => paper_eval::run_traced(&run),
            "archive-imperfect" => archive::run_traced(&run),
            _ => serve_mixed::run_traced(&run),
        };
        (outcome, Some(spans))
    } else {
        let outcome = match args.workload {
            "paper-eval" => paper_eval::run(&run),
            "archive-imperfect" => archive::run(&run),
            _ => serve_mixed::run(&run),
        };
        (outcome, None)
    };

    let mut facts = Obj::new();
    for (name, value) in &outcome.facts {
        facts = facts.str(name, value);
    }
    let checks_failed: Vec<&str> = outcome
        .checks
        .iter()
        .filter(|c| !c.passed)
        .map(|c| c.name.as_str())
        .collect();
    let mut provenance = Obj::new()
        .str("workload", args.workload)
        .raw("seed", &args.seed.to_string())
        .raw("seconds", &metrics::number(args.seconds))
        .bool("trace", args.trace)
        .raw("host", &host.to_json())
        .raw("workload_facts", &facts.finish())
        .usize("checks", outcome.checks.len())
        .str("checks_failed", &checks_failed.join("; "));
    if let Some(spans) = spans {
        let path =
            Path::new(TRACE_DIR).join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, trace::to_json(args.workload, args.seed, &spans)));
        provenance = match written {
            Ok(()) => provenance.str("trace_file", &path.display().to_string()),
            Err(e) => provenance.str("trace_file_error", &e.to_string()),
        };
    }
    println!("{}", provenance.finish());
    println!(
        "{}",
        if args.trace {
            outcome.result_line(PER_LAYER, true)
        } else {
            outcome.result_line(END_TO_END, false)
        }
    );
    ExitCode::SUCCESS
}
