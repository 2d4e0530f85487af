//! `serve-mixed`: the serve loop over a seeded multi-tenant request mix.
//!
//! `serve()` with `ServeConfig::default()` (window 8, batch 256) answers
//! 1,024 JSONL requests from 8 tenants covering all five ops, with
//! heavy-tailed costs; every two windows carry the same op mix. Simulate
//! and evaluate requests carry inline datasets, and a quarter of the
//! generate requests ask for `binary`. The
//! loop is closed: the whole request stream is available and serve pulls
//! lines at its own pace, so at most `window` requests are in flight.
//! Latency runs from serve reading a request's line to serve writing its
//! response line, stamped by the transport wrappers in `lines`.

use std::time::Instant;

use dnasim::core::rng::{RngExt, SeedSequence, SimRng, SliceRandom};
use dnasim::dataset::{read_dataset, write_dataset, NanoporeTwinConfig};
use dnasim::par::ThreadPool;
use dnasim::serve::json::Obj;
use dnasim::serve::{execute_with, serve, Op, Request, ServeConfig, ServeReport};

use crate::lines::{StampedReader, StampedWriter};
use crate::metrics::Outcome;
use crate::trace::{self, Trace};
use crate::{repeat_for, stats, sys, Run};

const TENANTS: usize = 8;
/// The ops of two consecutive serve windows (8 requests each, the default
/// window): every pair of windows carries the same mix, in seeded order,
/// so each seed's stream costs the same and no window stacks up the
/// heavy archive requests. 64 pairs make the 1,024-request stream:
/// corrupt 384, generate 256, evaluate 192, simulate 128, archive 64.
const WINDOW_PAIR: [[&str; 8]; 2] = [
    [
        "archive", "corrupt", "corrupt", "corrupt", "generate", "generate", "evaluate", "simulate",
    ],
    [
        "corrupt", "corrupt", "corrupt", "generate", "generate", "evaluate", "evaluate", "simulate",
    ],
];
const WINDOW_PAIRS: usize = 64;
const OPS: [&str; 5] = ["corrupt", "generate", "evaluate", "simulate", "archive"];
/// Per op (in `OPS` order): the replay's execute span and its metric.
const EXECUTE_NAMES: [(&str, &str); 5] = [
    ("serve.execute.corrupt", "serve.execute_ms.corrupt"),
    ("serve.execute.generate", "serve.execute_ms.generate"),
    ("serve.execute.evaluate", "serve.execute_ms.evaluate"),
    ("serve.execute.simulate", "serve.execute_ms.simulate"),
    ("serve.execute.archive", "serve.execute_ms.archive"),
];

fn op_slot(op: &str) -> usize {
    OPS.iter()
        .position(|o| *o == op)
        .expect("every request op is one of OPS")
}
/// Distinct inline datasets the simulate and evaluate requests draw from.
const INLINE_DATASETS: usize = 16;
/// Bytes the request reader hands serve per buffer (`BufReader`'s default).
const READ_CHUNK: usize = 8 * 1024;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Tail percentile reported for latency and wait.
const TAIL: f64 = 0.99;

/// One generated request stream.
struct Stream {
    /// The JSONL input serve reads.
    input: Vec<u8>,
    /// The request lines, for the isolated replays.
    lines: Vec<String>,
}

fn inline_datasets(seed: u64) -> Vec<String> {
    let seeds = SeedSequence::new(seed).derive_seq("serve-datasets");
    (0..INLINE_DATASETS)
        .map(|i| {
            let config = NanoporeTwinConfig {
                cluster_count: 4 + i % 5,
                mean_coverage: 10.0,
                erasure_count: 0,
                seed: seeds.derive(&format!("dataset-{i}")),
                ..NanoporeTwinConfig::small()
            };
            let mut text = Vec::new();
            write_dataset(&config.generate(), &mut text).expect("writing to memory cannot fail");
            String::from_utf8(text).expect("cluster files are ASCII")
        })
        .collect()
}

/// Builds the seeded request stream.
fn build_stream(seed: u64) -> Stream {
    let datasets = inline_datasets(seed);
    let mut rng: SimRng = SeedSequence::new(seed).derive_rng("serve-mixed");
    let mut ops: Vec<&str> = Vec::new();
    for _ in 0..WINDOW_PAIRS {
        let mut pair = WINDOW_PAIR;
        pair.shuffle(&mut rng);
        for mut window in pair {
            window.shuffle(&mut rng);
            ops.extend(window);
        }
    }
    // Sizes cycle through fixed ranges by each op's occurrence count, so
    // every seed's stream asks for the same total work; the seed decides
    // the order, the tenants, and through the request ids every random
    // stream the ops draw.
    let mut occurrences = [0usize; OPS.len()];
    let lines: Vec<String> = ops
        .iter()
        .enumerate()
        .map(|(k, &op)| {
            let slot = OPS
                .iter()
                .position(|o| *o == op)
                .expect("window ops are known ops");
            let n = occurrences[slot];
            occurrences[slot] += 1;
            let head = Obj::new()
                .str(
                    "tenant",
                    &format!("tenant-{}", rng.random_range(0..TENANTS)),
                )
                .str("request_id", &format!("s{seed}-r{k}"))
                .str("op", op);
            match op {
                "corrupt" => head
                    .usize("count", 4 + n % 13)
                    .usize("len", 110)
                    .usize("reads", 3 + n % 6),
                "generate" => {
                    let head = head.usize("clusters", 4 + n % 13).usize("len", 110);
                    if n % 4 == 0 {
                        head.str("format", "binary")
                    } else {
                        head
                    }
                }
                "evaluate" => head.str("dataset", &datasets[n % datasets.len()]).str(
                    "algorithm",
                    ["bma", "iterative", "divbma", "majority", "iterative-twoway"][n % 5],
                ),
                "simulate" => head
                    .str("dataset", &datasets[(n / 4) % datasets.len()])
                    .str(
                        "model",
                        ["naive", "dnasimulator", "keoliya", "keoliya:spatial"][n % 4],
                    ),
                _ => head.usize("bytes", 16 * (1 + n % 4)).bool("lenient", true),
            }
            .finish()
        })
        .collect();
    let mut input = Vec::new();
    for line in &lines {
        input.extend_from_slice(line.as_bytes());
        input.push(b'\n');
    }
    Stream { input, lines }
}

/// One serve session over the stream, with both transports stamped by
/// `clock` (ns).
struct Session {
    output: Vec<u8>,
    report: Result<ServeReport, String>,
    read_ns: Vec<u64>,
    write_ns: Vec<u64>,
}

impl Session {
    fn latencies_ms(&self) -> Vec<f64> {
        self.read_ns
            .iter()
            .zip(&self.write_ns)
            .map(|(r, w)| w.saturating_sub(*r) as f64 / 1e6)
            .collect()
    }
}

fn session(stream: &Stream, pool: &ThreadPool, clock: impl Fn() -> u64) -> Session {
    let mut reader = StampedReader::new(&stream.input, READ_CHUNK, &clock);
    let mut writer = StampedWriter::new(&clock);
    let report =
        serve(&mut reader, &mut writer, &ServeConfig::default(), pool).map_err(|e| e.to_string());
    let (output, write_ns) = writer.into_parts();
    Session {
        output,
        report,
        read_ns: reader.into_stamps(),
        write_ns,
    }
}

/// One request replayed alone, on this thread.
struct Replay {
    op: &'static str,
    line: String,
    parse_s: f64,
    execute_s: f64,
}

/// Replays every request through `execute_with`, timing parse and execute
/// (and, under `trace`, recording them and the inline dataset parses as
/// spans).
fn replay(stream: &Stream, trace: Option<&Trace>) -> Result<Vec<Replay>, String> {
    let config = ServeConfig::default();
    let root = SeedSequence::new(config.seed);
    let policy = config.policy();
    let span = |name: &'static str, f: &mut dyn FnMut()| match trace {
        Some(t) => t.time(name, None, f),
        None => f(),
    };
    stream
        .lines
        .iter()
        .enumerate()
        .map(|(k, line)| {
            let start = Instant::now();
            let mut parsed = None;
            span("serve.parse", &mut || {
                parsed = Some(Request::parse(line, k + 1, config.max_batch));
            });
            let parse_s = start.elapsed().as_secs_f64();
            let request = parsed
                .expect("parse ran")
                .map_err(|e| format!("request {k} is malformed: {e}"))?;
            if let Op::Simulate { dataset, .. } | Op::Evaluate { dataset, .. } = &request.op {
                span("dataset.parse", &mut || {
                    std::hint::black_box(read_dataset(dataset.as_bytes()).is_ok());
                });
            }
            let op = request.op_name();
            let start = Instant::now();
            let mut outcome = None;
            span(EXECUTE_NAMES[op_slot(op)].0, &mut || {
                outcome = Some(execute_with(
                    &request,
                    &root,
                    config.batch_size,
                    &policy,
                    None,
                ));
            });
            Ok(Replay {
                op,
                line: outcome.expect("execute ran").line,
                parse_s,
                execute_s: start.elapsed().as_secs_f64(),
            })
        })
        .collect()
}

/// Checks one session's output against the replays: one response per
/// request, in request order, each byte-equal to its isolated replay.
fn check_session(out: &mut Outcome, label: &str, session: &Session, replays: &[Replay]) {
    let text = String::from_utf8_lossy(&session.output);
    let responses: Vec<&str> = text.lines().collect();
    out.check(
        format!(
            "{label}: {} responses for {} requests",
            responses.len(),
            replays.len()
        ),
        responses.len() == replays.len() && session.write_ns.len() == replays.len(),
    );
    let mismatched = responses
        .iter()
        .zip(replays)
        .filter(|(got, want)| **got != want.line)
        .count();
    out.check(
        format!("{label}: {mismatched} responses differ from their isolated replay"),
        mismatched == 0,
    );
}

/// Responses whose status is `error`, `deadline` or `rejected`; every
/// request fails when the session itself does.
fn failed_responses(session: &Session, requests: usize) -> usize {
    match &session.report {
        Ok(r) => r.errors + r.deadlines + r.rejected + r.shed,
        Err(e) => {
            eprintln!("serve session failed: {e}");
            requests
        }
    }
}

fn elapsed_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The untraced run: timed serve sessions, then one isolated replay of
/// every request for the output checks.
pub fn run(ctx: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut stream = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        stream = Some(build_stream(ctx.seed));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let stream = stream.expect("at least one set-up ran");
    let pool = ThreadPool::new(ctx.workers);
    let requests = stream.lines.len();
    let origin = Instant::now();
    // Only the first session's output is kept; later ones are compared
    // with it and dropped, so memory does not grow with the pass count.
    let mut first: Option<Session> = None;
    let mut latencies = Vec::new();
    let mut pass_index = 0;
    let passes = repeat_for(
        ctx.seconds,
        || session(&stream, &pool, || elapsed_ns(origin)),
        |s| {
            latencies.extend(s.latencies_ms());
            out.ops += requests;
            out.ops_failed += failed_responses(&s, requests);
            match &first {
                None => first = Some(s),
                Some(f) => out.check(
                    format!("pass {pass_index} output equals pass 0's"),
                    s.output == f.output,
                ),
            }
            pass_index += 1;
        },
    );
    let first = first.expect("at least one pass ran");
    match replay(&stream, None) {
        Ok(replays) => check_session(&mut out, "pass 0", &first, &replays),
        Err(e) => out.check(format!("replay succeeds ({e})"), false),
    }
    let run_s = stats::median(&passes.wall_s);
    out.values.insert("setup_s", stats::median(&setup_s));
    out.values.insert("run_s", run_s);
    out.values.insert("peak_rss_mib", sys::peak_rss_mib());
    out.values.insert("ops_per_s", requests as f64 / run_s);
    describe(&mut out, &stream);
    out.fact("setup_samples", setup_s.len());
    passes.describe(&mut out);
    out.fact("latency_samples", latencies.len());
    out.fact("latency_p50_ms", stats::quantile(&latencies, 0.5));
    out.fact("latency_p99_ms", stats::quantile(&latencies, TAIL));
    out.fact(
        "latency_samples_beyond_p99",
        stats::samples_beyond(latencies.len(), TAIL),
    );
    out
}

/// The traced run: an untraced session as the overhead baseline, a
/// session timed as one `serve.serve` span, and the isolated replays
/// that attribute each request's time to parse and execute.
pub fn run_traced(ctx: &Run) -> (Outcome, Vec<trace::Span>) {
    let mut out = Outcome::default();
    let stream = build_stream(ctx.seed);
    let pool = ThreadPool::new(ctx.workers);
    let origin = Instant::now();
    let start = Instant::now();
    let baseline = session(&stream, &pool, || elapsed_ns(origin));
    let untraced_s = start.elapsed().as_secs_f64();

    let trace = Trace::new();
    let region_start = trace.now_ns();
    let call = trace.open("serve.serve", None);
    let traced = session(&stream, &pool, || trace.now_ns());
    trace.close(call);
    let region_end = trace.now_ns();
    let replays = match replay(&stream, Some(&trace)) {
        Ok(replays) => replays,
        Err(e) => {
            out.check(format!("replay succeeds ({e})"), false);
            Vec::new()
        }
    };
    let spans = trace.into_spans();

    let requests = stream.lines.len();
    out.ops = 2 * requests;
    out.ops_failed = failed_responses(&baseline, requests) + failed_responses(&traced, requests);
    check_session(&mut out, "untraced", &baseline, &replays);
    check_session(&mut out, "traced", &traced, &replays);
    let traced_s = (region_end - region_start) as f64 / 1e9;
    let latencies = traced.latencies_ms();
    let waits: Vec<f64> = latencies
        .iter()
        .zip(&replays)
        .map(|(latency, r)| latency - r.execute_s * 1e3)
        .collect();
    let execute_total_s: f64 = replays.iter().map(|r| r.execute_s).sum();
    let v = &mut out.values;
    v.insert(
        "serve.parse_us",
        replays.iter().map(|r| r.parse_s).sum::<f64>() / requests as f64 * 1e6,
    );
    for op in OPS {
        let times: Vec<f64> = replays
            .iter()
            .filter(|r| r.op == op)
            .map(|r| r.execute_s * 1e3)
            .collect();
        let name = EXECUTE_NAMES[op_slot(op)].1;
        v.insert(name, times.iter().sum::<f64>() / times.len().max(1) as f64);
    }
    v.insert("serve.latency_p50_ms", stats::quantile(&latencies, 0.5));
    v.insert("serve.latency_p99_ms", stats::quantile(&latencies, TAIL));
    v.insert("serve.wait_ms_p50", stats::quantile(&waits, 0.5));
    v.insert("serve.wait_ms_p99", stats::quantile(&waits, TAIL));
    if let Ok(report) = &traced.report {
        v.insert("serve.windows", report.windows as f64);
        v.insert(
            "serve.peak_inflight_requests",
            report.peak_inflight_requests as f64,
        );
    }
    v.insert(
        "parallel.efficiency",
        execute_total_s / (traced_s * ctx.workers as f64),
    );
    let inline = trace::count(&spans, "dataset.parse");
    v.insert(
        "dataset.parse_us",
        trace::busy_s(&spans, "dataset.parse") / inline.max(1) as f64 * 1e6,
    );
    trace::summarise(v, &spans, (region_start, region_end), untraced_s);
    describe(&mut out, &stream);
    out.fact("latency_samples", latencies.len());
    out.fact(
        "latency_samples_beyond_p99",
        stats::samples_beyond(latencies.len(), TAIL),
    );
    out.fact("traced_run_s", traced_s);
    out.fact("untraced_run_s", untraced_s);
    (out, spans)
}

fn describe(out: &mut Outcome, stream: &Stream) {
    out.fact("requests", stream.lines.len());
    out.fact("tenants", TENANTS);
    let mix: Vec<String> = OPS
        .iter()
        .map(|op| {
            format!(
                "{op}:{}",
                WINDOW_PAIR.iter().flatten().filter(|o| *o == op).count() * WINDOW_PAIRS
            )
        })
        .collect();
    out.fact("mix", mix.join(","));
    out.fact("input_bytes", stream.input.len());
    out.fact("window", ServeConfig::default().window);
    out.fact("batch", ServeConfig::default().batch_size);
    out.fact("loop", "closed");
    out.fact("ops", "requests answered");
}
