//! The batch RPC loop: bounded in-flight windows over per-request seed
//! namespaces.
//!
//! [`serve`] reads JSONL requests, admits them into a window bounded both
//! by request count and by a cluster budget (the sum of each request's
//! [`Request::load_estimate`], the same quantity `WindowStats` audits),
//! executes the window on the worker pool, and writes responses in
//! request order. Each request runs as a pure function of `(request,
//! namespace seed)` via [`execute`], with all internal parallelism
//! disabled — so the response stream is byte-identical at every worker
//! count, and any single request replayed alone via [`execute`]
//! reproduces its in-service response exactly.

use std::io::{BufRead, Write};

use dnasim_channel::{CoverageModel, DnaSimulatorModel, ErrorModel, KeoliyaModel, Simulator};
use dnasim_core::rng::{RngExt, SeedSequence};
use dnasim_core::{
    checked_batch_size, Budget, CancelToken, Dataset, DnasimError, Strand, WindowStats,
};
use dnasim_dataset::{fnv1a64, read_dataset, AnyDatasetWriter, DatasetWriter, Format, NanoporeTwinConfig};
use dnasim_par::ThreadPool;
use dnasim_pipeline::{
    archive_round_trip_stream_budgeted, evaluate_reconstruction_stream_budgeted, ArchiveConfig,
    ArchiveMode,
};
use dnasim_profile::{ErrorStats, LearnedModel, TieBreak};
use dnasim_reconstruct::{
    BmaLookahead, DividerBma, Iterative, MajorityVote, TraceReconstructor, TwoWayIterative,
};

use crate::json::Obj;
use crate::request::{AlgorithmSpec, ModelSpec, Op, ProtocolError, Request};

/// Configuration of one serve session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Root seed of the service namespace; every request's randomness is
    /// `SeedSequence::new(seed).derive_seq(tenant).derive_seq(request_id)`.
    pub seed: u64,
    /// Maximum requests admitted into one in-flight window.
    pub window: usize,
    /// Streaming batch size each op runs with (bounds its in-flight
    /// clusters; audited by `WindowStats::high_watermark`).
    pub batch_size: usize,
    /// Admission cap on request size (`clusters` / `count`; `bytes / 16`
    /// for archive).
    pub max_batch: usize,
    /// Cluster budget for one in-flight window; `None` means
    /// `window * batch_size` (count-bound only).
    pub cluster_budget: Option<usize>,
    /// Lenient protocol handling: malformed lines become `rejected`
    /// responses instead of aborting the stream.
    pub lenient: bool,
    /// Work-unit deadline applied to requests that do not carry their own
    /// `deadline` field; `None` means unmetered.
    pub default_deadline: Option<u64>,
    /// Extra attempts granted to a request whose op fails at runtime.
    /// Each retry re-derives the op's random streams from the request's
    /// seed namespace (`retry-1`, `retry-2`, …) — backoff in seed space
    /// rather than wall-clock, so retried responses stay deterministic.
    pub retries: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            seed: 0,
            window: 8,
            batch_size: 256,
            max_batch: 4096,
            cluster_budget: None,
            lenient: false,
            default_deadline: None,
            retries: 0,
        }
    }
}

impl ServeConfig {
    fn effective_cluster_budget(&self) -> usize {
        self.cluster_budget
            .unwrap_or_else(|| self.window.saturating_mul(self.batch_size))
            .max(self.batch_size)
    }

    /// The per-request execution policy this configuration implies — what
    /// [`execute_with`] needs to replay any in-service response exactly.
    pub fn policy(&self) -> ExecPolicy {
        ExecPolicy {
            default_deadline: self.default_deadline,
            retries: self.retries,
        }
    }
}

/// The per-request execution policy: the deadline applied when a request
/// carries none, and how many seeded retries a failing op is granted.
/// [`execute`] uses the default (unmetered, no retries); a serve session
/// derives its policy from [`ServeConfig::policy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Work-unit deadline for requests without their own `deadline`.
    pub default_deadline: Option<u64>,
    /// Extra seeded attempts after a runtime failure.
    pub retries: usize,
}

/// Why a serve session stopped early.
#[derive(Debug)]
pub enum ServeError {
    /// A protocol violation in strict mode; responses for every request
    /// admitted before it were flushed first.
    Protocol(ProtocolError),
    /// A runtime failure of the loop itself (I/O on the transport, worker
    /// pool degradation).
    Runtime(DnasimError),
    /// The response stream could not be written (e.g. the reader closed
    /// the pipe). Distinguished from `Runtime` so callers can exit
    /// cleanly — a consumer that hangs up is not a server fault.
    Output(std::io::Error),
}

impl ServeError {
    /// True when the session ended because the response consumer hung up
    /// (`EPIPE`/broken pipe on the output stream).
    pub fn is_broken_pipe(&self) -> bool {
        matches!(
            self,
            ServeError::Output(e) if e.kind() == std::io::ErrorKind::BrokenPipe
        )
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Protocol(e) => write!(f, "{e}"),
            ServeError::Runtime(e) => write!(f, "{e}"),
            ServeError::Output(e) => write!(f, "response stream closed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Protocol(e) => Some(e),
            ServeError::Runtime(e) => Some(e),
            ServeError::Output(e) => Some(e),
        }
    }
}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> ServeError {
        ServeError::Protocol(e)
    }
}

impl From<DnasimError> for ServeError {
    fn from(e: DnasimError) -> ServeError {
        ServeError::Runtime(e)
    }
}

/// How one request concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseStatus {
    /// The op completed fully.
    Ok,
    /// The op completed with quarantined data loss (the `Degraded`
    /// taxonomy — e.g. a lenient archive over its erasure budget).
    Degraded,
    /// The op was admitted but failed at runtime; the failure is isolated
    /// to this request.
    Error,
    /// The line failed protocol validation (lenient mode only).
    Rejected,
    /// The op ran out of its work-unit deadline, or the session was
    /// cancelled while it ran. Partial work is discarded; the response
    /// names the stage and the units spent.
    Deadline,
    /// The request was shed at admission: its total work estimate exceeds
    /// the configured cluster budget. Rendered as `rejected` with reason
    /// `overloaded`; the op never ran.
    Overloaded,
}

impl ResponseStatus {
    fn label(self) -> &'static str {
        match self {
            ResponseStatus::Ok => "ok",
            ResponseStatus::Degraded => "degraded",
            ResponseStatus::Error => "error",
            ResponseStatus::Rejected | ResponseStatus::Overloaded => "rejected",
            ResponseStatus::Deadline => "deadline",
        }
    }
}

/// One rendered response plus the bookkeeping the service report absorbs.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The JSONL response line (no trailing newline).
    pub line: String,
    /// The op's streaming window counters (zero for rejections).
    pub window: WindowStats,
    /// How the request concluded.
    pub status: ResponseStatus,
}

/// Summary of a completed serve session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Non-blank request lines seen.
    pub requests: usize,
    /// Requests that completed fully.
    pub ok: usize,
    /// Requests that failed at runtime (isolated per-request).
    pub errors: usize,
    /// Requests that completed degraded.
    pub degraded: usize,
    /// Lines rejected by protocol validation (lenient mode).
    pub rejected: usize,
    /// Requests that exhausted their work-unit deadline or were cancelled
    /// by a session shutdown.
    pub deadlines: usize,
    /// Requests shed at admission because their total work estimate
    /// exceeded the configured cluster budget.
    pub shed: usize,
    /// In-flight windows executed.
    pub windows: usize,
    /// Most requests any window held.
    pub peak_inflight_requests: usize,
    /// Largest cluster-load estimate any window carried — the admission
    /// high-watermark, never above the configured cluster budget.
    pub peak_inflight_clusters: usize,
    /// Aggregated op streaming counters across all requests.
    pub stream: WindowStats,
}

/// Runs the batch RPC loop: JSONL requests in, JSONL responses out.
///
/// Responses are written in request order, one line per non-blank input
/// line, and are byte-identical for every worker-pool size. In strict
/// mode (the default) the first protocol violation flushes the admitted
/// window and returns [`ServeError::Protocol`]; in lenient mode it
/// becomes a `rejected` response and the stream continues.
///
/// # Errors
///
/// [`ServeError::Protocol`] for a strict-mode protocol violation;
/// [`ServeError::Runtime`] for transport I/O failures, a degraded worker
/// pool, or an invalid configuration.
pub fn serve<R, W>(
    input: R,
    output: &mut W,
    config: &ServeConfig,
    pool: &ThreadPool,
) -> Result<ServeReport, ServeError>
where
    R: BufRead,
    W: Write,
{
    serve_with_shutdown(input, output, config, pool, &CancelToken::new())
}

/// [`serve`] with cooperative shutdown.
///
/// `shutdown` is observed at two points: before each new request line is
/// read (no further admissions once cancelled), and inside every running
/// op at its next batch boundary (via the budget's linked token). On
/// cancellation the in-flight window drains — already-finished requests
/// answer normally, interrupted ones answer with status `deadline` — and
/// responses are still written in request order before the session
/// returns its report. Stdin EOF drains the same way, minus the
/// cancellation: the partial window executes and flushes in order.
///
/// # Errors
///
/// As [`serve`], plus [`ServeError::Output`] when a response cannot be
/// written (e.g. the consumer closed the pipe).
pub fn serve_with_shutdown<R, W>(
    input: R,
    output: &mut W,
    config: &ServeConfig,
    pool: &ThreadPool,
    shutdown: &CancelToken,
) -> Result<ServeReport, ServeError>
where
    R: BufRead,
    W: Write,
{
    if config.window == 0 {
        return Err(DnasimError::config("window", "serve window must be at least 1").into());
    }
    checked_batch_size(config.batch_size)?;
    if config.max_batch == 0 {
        return Err(DnasimError::config("max_batch", "admission cap must be at least 1").into());
    }
    let root = SeedSequence::new(config.seed);
    let budget = config.effective_cluster_budget();
    let mut report = ServeReport::default();
    let mut window: Vec<WorkItem> = Vec::new();
    let mut load = 0usize;

    let mut lines = input.lines().enumerate();
    loop {
        // Graceful drain: once shutdown is raised, stop admitting and fall
        // through to the final flush, which answers the in-flight window
        // (cancelled ops report `deadline`) in request order.
        if shutdown.is_cancelled() {
            break;
        }
        let Some((idx, line)) = lines.next() else { break };
        let line_no = idx + 1;
        let line = line.map_err(DnasimError::Io)?;
        if line.trim().is_empty() {
            continue;
        }
        report.requests += 1;
        match Request::parse(&line, line_no, config.max_batch) {
            Ok(request) => {
                // Overload shedding: an explicit cluster budget also caps
                // the *total* work any one request may demand. A shed
                // request holds a window slot (responses stay 1:1 with
                // input lines) but adds no load and never runs.
                if config.cluster_budget.is_some() && request.work_estimate() > budget {
                    if window.len() >= config.window {
                        flush_window(
                            &mut window,
                            &mut load,
                            config,
                            &root,
                            pool,
                            output,
                            &mut report,
                            shutdown,
                        )?;
                    }
                    window.push(WorkItem::Shed(request));
                    continue;
                }
                let estimate = request.load_estimate(config.batch_size);
                if !window.is_empty()
                    && (window.len() >= config.window || load + estimate > budget)
                {
                    flush_window(
                        &mut window,
                        &mut load,
                        config,
                        &root,
                        pool,
                        output,
                        &mut report,
                        shutdown,
                    )?;
                }
                load += estimate;
                window.push(WorkItem::Run(request));
            }
            Err(protocol) if config.lenient => {
                if window.len() >= config.window {
                    flush_window(
                        &mut window,
                        &mut load,
                        config,
                        &root,
                        pool,
                        output,
                        &mut report,
                        shutdown,
                    )?;
                }
                window.push(WorkItem::Reject(protocol));
            }
            Err(protocol) => {
                // Drain what was admitted so the output is a faithful
                // prefix, then abort with the diagnostic.
                flush_window(
                    &mut window,
                    &mut load,
                    config,
                    &root,
                    pool,
                    output,
                    &mut report,
                    shutdown,
                )?;
                let _ = output.flush();
                return Err(protocol.into());
            }
        }
    }
    flush_window(
        &mut window,
        &mut load,
        config,
        &root,
        pool,
        output,
        &mut report,
        shutdown,
    )?;
    output.flush().map_err(ServeError::Output)?;
    Ok(report)
}

/// A slot in the in-flight window: an admitted request, a (lenient mode)
/// protocol rejection, or a request shed at admission — the latter two
/// hold their place so responses stay 1:1 with input lines.
#[derive(Debug)]
enum WorkItem {
    Run(Request),
    Reject(ProtocolError),
    Shed(Request),
}

#[allow(clippy::too_many_arguments)]
fn flush_window<W: Write>(
    window: &mut Vec<WorkItem>,
    load: &mut usize,
    config: &ServeConfig,
    root: &SeedSequence,
    pool: &ThreadPool,
    output: &mut W,
    report: &mut ServeReport,
    shutdown: &CancelToken,
) -> Result<(), ServeError> {
    if window.is_empty() {
        return Ok(());
    }
    report.windows += 1;
    report.peak_inflight_requests = report.peak_inflight_requests.max(window.len());
    report.peak_inflight_clusters = report.peak_inflight_clusters.max(*load);
    let batch_size = config.batch_size;
    let policy = config.policy();
    let outcomes = pool
        .par_map_indexed(window, |_, item| match item {
            WorkItem::Run(request) => {
                execute_with(request, root, batch_size, &policy, Some(shutdown))
            }
            WorkItem::Reject(protocol) => rejection(protocol),
            WorkItem::Shed(request) => shed_response(request, config.effective_cluster_budget()),
        })
        .map_err(|e| ServeError::Runtime(e.into()))?;
    for outcome in outcomes {
        report.stream.absorb(outcome.window);
        match outcome.status {
            ResponseStatus::Ok => report.ok += 1,
            ResponseStatus::Degraded => report.degraded += 1,
            ResponseStatus::Error => report.errors += 1,
            ResponseStatus::Rejected => report.rejected += 1,
            ResponseStatus::Deadline => report.deadlines += 1,
            ResponseStatus::Overloaded => report.shed += 1,
        }
        output
            .write_all(outcome.line.as_bytes())
            .map_err(ServeError::Output)?;
        output.write_all(b"\n").map_err(ServeError::Output)?;
    }
    window.clear();
    *load = 0;
    Ok(())
}

/// Renders the response for a request shed at admission: `rejected` with
/// reason `overloaded`, naming the estimate and the budget it exceeded.
fn shed_response(request: &Request, cluster_budget: usize) -> Outcome {
    let estimate = request.work_estimate();
    let obj = Obj::new()
        .str("request_id", &request.request_id)
        .str("tenant", &request.tenant)
        .str("op", request.op_name())
        .str("status", ResponseStatus::Overloaded.label())
        .str("reason", "overloaded")
        .usize("estimate", estimate)
        .usize("cluster_budget", cluster_budget)
        .str(
            "error",
            &format!(
                "estimated load of {estimate} cluster(s) exceeds the cluster budget of \
                 {cluster_budget}"
            ),
        );
    Outcome {
        line: obj.finish(),
        window: WindowStats::default(),
        status: ResponseStatus::Overloaded,
    }
}

/// Renders the response for a lenient-mode protocol rejection.
pub fn rejection(protocol: &ProtocolError) -> Outcome {
    let obj = Obj::new()
        .str("request_id", protocol.request_id.as_deref().unwrap_or(""))
        .str("tenant", protocol.tenant.as_deref().unwrap_or(""))
        .str("status", ResponseStatus::Rejected.label())
        .str("error", &protocol.to_string());
    Outcome {
        line: obj.finish(),
        window: WindowStats::default(),
        status: ResponseStatus::Rejected,
    }
}

/// Executes one admitted request in isolation and renders its response.
///
/// This is the replay anchor of the serve tier: the response is a pure
/// function of `(request, root seed, batch_size)` — internal parallelism
/// is disabled, and all randomness flows from
/// `root.derive_seq(tenant).derive_seq(request_id)` — so calling this
/// directly for any single request reproduces its in-service response
/// byte-for-byte, regardless of what traffic surrounded it.
pub fn execute(request: &Request, root: &SeedSequence, batch_size: usize) -> Outcome {
    execute_with(request, root, batch_size, &ExecPolicy::default(), None)
}

/// [`execute`] under an explicit policy and optional session cancellation.
///
/// The effective deadline is the request's own `deadline` field, falling
/// back to the policy default; each attempt runs under a fresh
/// [`Budget`] of that many work units, linked to the session token when
/// one is given. Runtime failures are retried up to `policy.retries`
/// times, each retry re-deriving the op's random streams under a
/// `retry-{k}` namespace component — seeded backoff, deterministic and
/// wall-clock-free. Deadline exhaustion is *not* retried (the same
/// budget meters the same work, so a retry deterministically fails
/// again), and neither is session cancellation. When the policy grants
/// retries the response carries an `attempts` field; with the default
/// policy the rendering is byte-identical to [`execute`].
pub fn execute_with(
    request: &Request,
    root: &SeedSequence,
    batch_size: usize,
    policy: &ExecPolicy,
    session: Option<&CancelToken>,
) -> Outcome {
    let namespace = root
        .derive_seq(&request.tenant)
        .derive_seq(&request.request_id);
    // Cross-request parallelism only: within a request the pool is serial,
    // which keeps the response independent of worker count.
    let pool = ThreadPool::serial();
    let deadline = request.deadline.or(policy.default_deadline);
    let mut attempts = 0usize;
    let result = loop {
        let attempt_ns = if attempts == 0 {
            namespace.clone()
        } else {
            namespace.derive_seq(&format!("retry-{attempts}"))
        };
        let budget = match (deadline, session) {
            (Some(limit), Some(token)) => Budget::limited(limit).with_token(token.clone()),
            (Some(limit), None) => Budget::limited(limit),
            (None, Some(token)) => Budget::unlimited().with_token(token.clone()),
            (None, None) => Budget::unlimited(),
        };
        let result = run_op(request, &attempt_ns, batch_size, &pool, &budget);
        attempts += 1;
        match &result {
            Err(DnasimError::DeadlineExceeded { .. }) => break result,
            Err(_)
                if attempts <= policy.retries
                    && session.is_none_or(|token| !token.is_cancelled()) =>
            {
                continue;
            }
            _ => break result,
        }
    };
    let mut header = Obj::new()
        .str("request_id", &request.request_id)
        .str("tenant", &request.tenant)
        .str("op", request.op_name());
    if policy.retries > 0 {
        header = header.usize("attempts", attempts);
    }
    match result {
        Ok(op_output) => {
            let status = if op_output.degraded {
                ResponseStatus::Degraded
            } else {
                ResponseStatus::Ok
            };
            let mut obj = header.str("status", status.label()).raw(
                "window",
                &Obj::new()
                    .usize("batches", op_output.window.batches)
                    .usize("clusters", op_output.window.clusters)
                    .usize("high_watermark", op_output.window.high_watermark)
                    .finish(),
            );
            for (name, raw) in op_output.fields {
                obj = obj.raw(&name, &raw);
            }
            Outcome {
                line: obj.finish(),
                window: op_output.window,
                status,
            }
        }
        Err(DnasimError::DeadlineExceeded {
            spent,
            limit,
            stage,
        }) => {
            let err = DnasimError::DeadlineExceeded {
                spent,
                limit,
                stage,
            };
            let obj = header
                .str("status", ResponseStatus::Deadline.label())
                .str("stage", stage)
                .usize("spent", usize::try_from(spent).unwrap_or(usize::MAX))
                .usize("limit", usize::try_from(limit).unwrap_or(usize::MAX))
                .str("error", &err.to_string());
            Outcome {
                line: obj.finish(),
                window: WindowStats::default(),
                status: ResponseStatus::Deadline,
            }
        }
        Err(e) => {
            // Per-request failures reuse the Degraded/quarantine taxonomy:
            // a degraded worker result stays "degraded", everything else is
            // an isolated "error". Either way the stream continues.
            let status = if matches!(e, DnasimError::Degraded { .. }) {
                ResponseStatus::Degraded
            } else {
                ResponseStatus::Error
            };
            let obj = header
                .str("status", status.label())
                .str("error", &e.to_string());
            Outcome {
                line: obj.finish(),
                window: WindowStats::default(),
                status,
            }
        }
    }
}

/// What an op hands back for rendering: extra response fields (already
/// rendered as JSON), its window counters, and whether it degraded.
struct OpOutput {
    fields: Vec<(String, String)>,
    window: WindowStats,
    degraded: bool,
}

fn run_op(
    request: &Request,
    namespace: &SeedSequence,
    batch_size: usize,
    pool: &ThreadPool,
    budget: &Budget,
) -> Result<OpOutput, DnasimError> {
    match &request.op {
        Op::Generate {
            clusters,
            len,
            format,
        } => op_generate(namespace, *clusters, *len, *format, batch_size, pool, budget),
        Op::Corrupt { count, len, reads } => {
            op_corrupt(namespace, *count, *len, *reads, batch_size, pool, budget)
        }
        Op::Simulate { dataset, model } => {
            op_simulate(namespace, dataset, *model, batch_size, pool, budget)
        }
        Op::Evaluate { dataset, algorithm } => {
            op_evaluate(dataset, *algorithm, batch_size, pool, budget)
        }
        // The archive format is admission-validated (unknown values are
        // rejected before the op runs) but does not change the round trip:
        // the coded payload never leaves the server as a cluster file.
        Op::Archive {
            bytes,
            reads,
            lenient,
            format: _,
        } => op_archive(namespace, *bytes, *reads, *lenient, batch_size, pool, budget),
    }
}

/// Renders a dataset's cluster-file text as a JSON string literal.
fn dataset_text(buf: Vec<u8>) -> Result<String, DnasimError> {
    let text = String::from_utf8(buf)
        .map_err(|_| DnasimError::codec("cluster-file text is not UTF-8"))?;
    Ok(format!("\"{}\"", crate::json::escape(&text)))
}

fn op_generate(
    namespace: &SeedSequence,
    clusters: usize,
    len: usize,
    format: Format,
    batch_size: usize,
    pool: &ThreadPool,
    budget: &Budget,
) -> Result<OpOutput, DnasimError> {
    let mut config = NanoporeTwinConfig::small();
    config.cluster_count = clusters;
    config.strand_len = len;
    // A 4-cluster request should not be one-quarter erasures.
    config.erasure_count = config.erasure_count.min(clusters / 8);
    config.seed = namespace.derive("twin");
    let mut buf = Vec::new();
    let mut writer = AnyDatasetWriter::new(&mut buf, format);
    let window = config.generate_stream_budgeted(batch_size, pool, budget, &mut writer)?;
    let (written, reads) = (writer.clusters_written(), writer.reads_written());
    writer
        .into_inner()
        .map_err(|e| DnasimError::codec(format!("flushing generated dataset: {e}")))?;
    let fields = match format {
        // The text response is unchanged from the pre-format protocol:
        // clients that never send "format" see byte-identical lines.
        Format::Text => vec![
            ("clusters".into(), written.to_string()),
            ("reads".into(), reads.to_string()),
            ("dataset".into(), dataset_text(buf)?),
        ],
        // Binary frames are not JSON-safe, so the response carries the
        // encoded size and checksum instead of the dataset itself; a
        // client regenerates the bytes with `dnasim generate --format
        // binary` under the same seed namespace and verifies the digest.
        Format::Binary => vec![
            ("clusters".into(), written.to_string()),
            ("reads".into(), reads.to_string()),
            ("format".into(), format!("\"{format}\"")),
            ("dataset_bytes".into(), buf.len().to_string()),
            ("checksum".into(), format!("\"{:016x}\"", fnv1a64(&buf))),
        ],
    };
    Ok(OpOutput {
        fields,
        window,
        degraded: false,
    })
}

fn op_corrupt(
    namespace: &SeedSequence,
    count: usize,
    len: usize,
    reads: usize,
    batch_size: usize,
    pool: &ThreadPool,
    budget: &Budget,
) -> Result<OpOutput, DnasimError> {
    let mut reference_rng = namespace.derive_rng("references");
    let references: Vec<Strand> = (0..count)
        .map(|_| Strand::random(len, &mut reference_rng))
        .collect();
    let simulator = Simulator::new(
        DnaSimulatorModel::nanopore_default(),
        CoverageModel::Fixed(reads),
    );
    let channel = namespace.derive_seq("channel");
    let mut noisy = Dataset::new();
    let window = simulator.simulate_stream_budgeted(
        &references,
        &channel,
        batch_size,
        pool,
        budget,
        &mut noisy,
    )?;
    let mut pairs = String::from("[");
    for (i, cluster) in noisy.iter().enumerate() {
        if i > 0 {
            pairs.push(',');
        }
        let mut pair = Obj::new().str("clean", &cluster.reference().to_string());
        let mut noisy_reads = String::from("[");
        for (j, read) in cluster.reads().iter().enumerate() {
            if j > 0 {
                noisy_reads.push(',');
            }
            noisy_reads.push('"');
            noisy_reads.push_str(&crate::json::escape(&read.to_string()));
            noisy_reads.push('"');
        }
        noisy_reads.push(']');
        pair = pair.raw("noisy", &noisy_reads);
        pairs.push_str(&pair.finish());
    }
    pairs.push(']');
    Ok(OpOutput {
        fields: vec![
            ("count".into(), noisy.len().to_string()),
            ("pairs".into(), pairs),
        ],
        window,
        degraded: false,
    })
}

fn op_simulate(
    namespace: &SeedSequence,
    dataset: &str,
    model: ModelSpec,
    batch_size: usize,
    pool: &ThreadPool,
    budget: &Budget,
) -> Result<OpOutput, DnasimError> {
    let parsed = read_dataset(dataset.as_bytes())?;
    let channel = namespace.derive_seq("channel");
    let learn = |namespace: &SeedSequence| -> LearnedModel {
        let mut rng = namespace.derive_rng("learn");
        let stats = ErrorStats::from_dataset(&parsed, TieBreak::Random, &mut rng);
        LearnedModel::from_stats(&stats, 10)
    };
    match model {
        ModelSpec::Naive => resimulate(
            &Simulator::new(
                KeoliyaModel::new(learn(namespace), dnasim_channel::SimulatorLayer::Naive),
                CoverageModel::Fixed(0),
            ),
            &parsed,
            &channel,
            batch_size,
            pool,
            budget,
        ),
        ModelSpec::DnaSimulator => resimulate(
            &Simulator::new(
                DnaSimulatorModel::nanopore_default(),
                CoverageModel::Fixed(0),
            ),
            &parsed,
            &channel,
            batch_size,
            pool,
            budget,
        ),
        ModelSpec::Keoliya(layer) => resimulate(
            &Simulator::new(
                KeoliyaModel::new(learn(namespace), layer),
                CoverageModel::Fixed(0),
            ),
            &parsed,
            &channel,
            batch_size,
            pool,
            budget,
        ),
    }
}

fn resimulate<M: ErrorModel + Sync>(
    simulator: &Simulator<M>,
    dataset: &Dataset,
    channel: &SeedSequence,
    batch_size: usize,
    pool: &ThreadPool,
    budget: &Budget,
) -> Result<OpOutput, DnasimError> {
    let mut buf = Vec::new();
    let mut writer = DatasetWriter::new(&mut buf);
    let window = simulator.resimulate_stream_budgeted(
        &mut dataset.stream(),
        channel,
        batch_size,
        pool,
        budget,
        &mut writer,
    )?;
    let (clusters, reads) = (writer.clusters_written(), writer.reads_written());
    Ok(OpOutput {
        fields: vec![
            ("clusters".into(), clusters.to_string()),
            ("reads".into(), reads.to_string()),
            ("dataset".into(), dataset_text(buf)?),
        ],
        window,
        degraded: false,
    })
}

fn op_evaluate(
    dataset: &str,
    algorithm: AlgorithmSpec,
    batch_size: usize,
    pool: &ThreadPool,
    budget: &Budget,
) -> Result<OpOutput, DnasimError> {
    let parsed = read_dataset(dataset.as_bytes())?;
    let (report, window) = match algorithm {
        AlgorithmSpec::Bma => {
            evaluate_with(&BmaLookahead::default(), &parsed, batch_size, pool, budget)
        }
        AlgorithmSpec::DivBma => evaluate_with(&DividerBma, &parsed, batch_size, pool, budget),
        AlgorithmSpec::Iterative => {
            evaluate_with(&Iterative::default(), &parsed, batch_size, pool, budget)
        }
        AlgorithmSpec::IterativeTwoWay => {
            evaluate_with(&TwoWayIterative::default(), &parsed, batch_size, pool, budget)
        }
        AlgorithmSpec::Majority => evaluate_with(&MajorityVote, &parsed, batch_size, pool, budget),
    }?;
    Ok(OpOutput {
        fields: vec![
            ("algorithm".into(), format!("\"{}\"", algorithm.name())),
            ("strands".into(), report.strand_count().to_string()),
            (
                "exact_strands".into(),
                report.exact_strand_count().to_string(),
            ),
            (
                "per_strand_percent".into(),
                format!("{:.4}", report.per_strand_percent()),
            ),
            (
                "per_char_percent".into(),
                format!("{:.4}", report.per_char_percent()),
            ),
        ],
        window,
        degraded: false,
    })
}

fn evaluate_with<A: TraceReconstructor + Sync>(
    algorithm: &A,
    dataset: &Dataset,
    batch_size: usize,
    pool: &ThreadPool,
    budget: &Budget,
) -> Result<(dnasim_metrics::AccuracyReport, WindowStats), DnasimError> {
    evaluate_reconstruction_stream_budgeted(
        &mut dataset.stream(),
        algorithm,
        batch_size,
        pool,
        budget,
    )
}

fn op_archive(
    namespace: &SeedSequence,
    bytes: usize,
    reads: usize,
    lenient: bool,
    batch_size: usize,
    pool: &ThreadPool,
    budget: &Budget,
) -> Result<OpOutput, DnasimError> {
    let mut payload_rng = namespace.derive_rng("payload");
    let data: Vec<u8> = (0..bytes).map(|_| payload_rng.random::<u8>()).collect();
    let config = ArchiveConfig {
        sequencing_reads_per_strand: reads,
        mode: if lenient {
            ArchiveMode::Lenient
        } else {
            ArchiveMode::Strict
        },
        ..ArchiveConfig::default()
    };
    let mut channel_rng = namespace.derive_rng("channel");
    let (report, window) =
        archive_round_trip_stream_budgeted(&data, &config, &mut channel_rng, pool, batch_size, budget)?;
    let intact = report
        .data
        .get(..data.len())
        .is_some_and(|decoded| decoded == &data[..]);
    let degraded = report.is_degraded();
    if !intact && !degraded {
        return Err(DnasimError::codec("archive payload mismatch after round trip"));
    }
    Ok(OpOutput {
        fields: vec![
            ("bytes".into(), bytes.to_string()),
            ("strands_written".into(), report.strands_written.to_string()),
            ("reads_sequenced".into(), report.reads_sequenced.to_string()),
            (
                "parity_recoveries".into(),
                report.strands_recovered_by_parity.to_string(),
            ),
            (
                "clusters_quarantined".into(),
                report.clusters_quarantined.to_string(),
            ),
            (
                "strands_unrecovered".into(),
                report.strands_unrecovered.to_string(),
            ),
            ("round_trip".into(), intact.to_string()),
        ],
        window,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(json: &str) -> Request {
        Request::parse(json, 1, 4096).expect("test request parses")
    }

    fn serve_text(input: &str, config: &ServeConfig, pool: &ThreadPool) -> (String, ServeReport) {
        let mut out = Vec::new();
        let report = serve(input.as_bytes(), &mut out, config, pool).expect("serve runs");
        (String::from_utf8(out).expect("utf8"), report)
    }

    #[test]
    fn execute_is_a_pure_function_of_request_and_root() {
        let root = SeedSequence::new(9);
        let req = request(
            "{\"tenant\":\"acme\",\"request_id\":\"r1\",\"op\":\"corrupt\",\"count\":4,\
             \"len\":40,\"reads\":3}",
        );
        let a = execute(&req, &root, 64);
        let b = execute(&req, &root, 64);
        assert_eq!(a.line, b.line);
        assert_eq!(a.status, ResponseStatus::Ok);
        assert!(a.line.contains("\"pairs\":["));
        // A different tenant gets different bytes from the same op.
        let other = request(
            "{\"tenant\":\"umbrella\",\"request_id\":\"r1\",\"op\":\"corrupt\",\"count\":4,\
             \"len\":40,\"reads\":3}",
        );
        assert_ne!(execute(&other, &root, 64).line, a.line);
    }

    #[test]
    fn serve_responses_match_isolated_execution() {
        let config = ServeConfig {
            window: 3,
            batch_size: 32,
            ..ServeConfig::default()
        };
        let pool = ThreadPool::new(2);
        let lines = [
            "{\"tenant\":\"a\",\"request_id\":\"g1\",\"op\":\"generate\",\"clusters\":6,\"len\":30}",
            "{\"tenant\":\"b\",\"request_id\":\"c1\",\"op\":\"corrupt\",\"count\":3,\"len\":25}",
            "{\"tenant\":\"a\",\"request_id\":\"a1\",\"op\":\"archive\",\"bytes\":64}",
        ];
        let input = lines.join("\n");
        let (output, report) = serve_text(&input, &config, &pool);
        assert_eq!(report.requests, 3);
        assert_eq!(report.ok, 3);
        let root = SeedSequence::new(config.seed);
        for (line, response) in lines.iter().zip(output.lines()) {
            let isolated = execute(&request(line), &root, config.batch_size);
            assert_eq!(response, isolated.line);
        }
    }

    #[test]
    fn strict_mode_aborts_on_protocol_error_after_flushing() {
        let config = ServeConfig {
            batch_size: 16,
            ..ServeConfig::default()
        };
        let pool = ThreadPool::serial();
        let input = "{\"tenant\":\"a\",\"request_id\":\"g\",\"op\":\"generate\",\
                     \"clusters\":2,\"len\":20}\nnot json\n";
        let mut out = Vec::new();
        let err = serve(input.as_bytes(), &mut out, &config, &pool).unwrap_err();
        match err {
            ServeError::Protocol(p) => assert_eq!(p.line, 2),
            other => panic!("expected protocol error, got {other}"),
        }
        // The admitted first request was answered before the abort.
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"request_id\":\"g\""));
    }

    #[test]
    fn lenient_mode_rejects_in_place_and_continues() {
        let config = ServeConfig {
            batch_size: 16,
            lenient: true,
            ..ServeConfig::default()
        };
        let pool = ThreadPool::serial();
        let input = "garbage\n\
                     {\"tenant\":\"a\",\"request_id\":\"g\",\"op\":\"generate\",\
                      \"clusters\":2,\"len\":20}\n\
                     {\"tenant\":\"b\",\"request_id\":\"x\",\"op\":\"warp\"}\n";
        let (text, report) = serve_text(input, &config, &pool);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"status\":\"rejected\""));
        assert!(lines[1].contains("\"status\":\"ok\""));
        assert!(lines[2].contains("\"status\":\"rejected\""));
        // The unknown-op rejection recovered its identity.
        assert!(lines[2].contains("\"tenant\":\"b\""));
        assert_eq!(report.rejected, 2);
        assert_eq!(report.ok, 1);
    }

    #[test]
    fn runtime_failures_are_isolated_per_request() {
        let config = ServeConfig {
            batch_size: 16,
            ..ServeConfig::default()
        };
        let pool = ThreadPool::serial();
        // The second request's dataset is corrupt (bad base) — a runtime
        // error, not a protocol one: it must answer in place with status
        // "error" and leave its neighbours untouched.
        let input = "{\"tenant\":\"a\",\"request_id\":\"g\",\"op\":\"generate\",\
                     \"clusters\":2,\"len\":20}\n\
                     {\"tenant\":\"b\",\"request_id\":\"s\",\"op\":\"simulate\",\
                     \"dataset\":\">ACGT\\nAXGT\\n\"}\n\
                     {\"tenant\":\"c\",\"request_id\":\"g2\",\"op\":\"generate\",\
                     \"clusters\":2,\"len\":20}\n";
        let (text, report) = serve_text(input, &config, &pool);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("\"status\":\"error\""));
        // The dataset parse failure carries its line number through.
        assert!(lines[1].contains("line 2"), "{}", lines[1]);
        assert!(lines[0].contains("\"status\":\"ok\""));
        assert!(lines[2].contains("\"status\":\"ok\""));
        assert_eq!(report.errors, 1);
        assert_eq!(report.ok, 2);
    }

    #[test]
    fn admission_window_bounds_inflight_load() {
        let config = ServeConfig {
            window: 2,
            batch_size: 8,
            cluster_budget: Some(12),
            ..ServeConfig::default()
        };
        let pool = ThreadPool::serial();
        let mut input = String::new();
        for i in 0..6 {
            input.push_str(&format!(
                "{{\"tenant\":\"t\",\"request_id\":\"r{i}\",\"op\":\"generate\",\
                 \"clusters\":8,\"len\":20}}\n"
            ));
        }
        let (text, report) = serve_text(&input, &config, &pool);
        assert_eq!(text.lines().count(), 6);
        assert_eq!(report.ok, 6);
        // Budget 12 with 8-cluster requests → one request per window.
        assert_eq!(report.peak_inflight_requests, 1);
        assert!(report.peak_inflight_clusters <= 12);
        assert_eq!(report.windows, 6);
        // Each op's streaming window stayed within the batch size.
        assert!(report.stream.high_watermark <= config.batch_size);
    }

    #[test]
    fn responses_are_identical_across_worker_counts() {
        let config = ServeConfig {
            window: 4,
            batch_size: 16,
            ..ServeConfig::default()
        };
        let mut input = String::new();
        for i in 0..8 {
            input.push_str(&format!(
                "{{\"tenant\":\"t{}\",\"request_id\":\"r{i}\",\"op\":\"corrupt\",\
                 \"count\":3,\"len\":30,\"reads\":2}}\n",
                i % 3
            ));
        }
        let (serial, _) = serve_text(&input, &config, &ThreadPool::serial());
        for workers in [2, 4] {
            let (parallel, _) = serve_text(&input, &config, &ThreadPool::new(workers));
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn archive_degraded_uses_the_degraded_status() {
        // Strict archive over a clean channel round-trips OK.
        let root = SeedSequence::new(3);
        let req = request(
            "{\"tenant\":\"t\",\"request_id\":\"ok\",\"op\":\"archive\",\"bytes\":128}",
        );
        let outcome = execute(&req, &root, 64);
        assert_eq!(outcome.status, ResponseStatus::Ok);
        assert!(outcome.line.contains("\"round_trip\":true"));
    }

    #[test]
    fn per_request_deadline_yields_a_typed_deadline_response() {
        let root = SeedSequence::new(11);
        let req = request(
            "{\"tenant\":\"t\",\"request_id\":\"d\",\"op\":\"generate\",\"clusters\":32,\
             \"len\":20,\"deadline\":5}",
        );
        let outcome = execute(&req, &root, 8);
        assert_eq!(outcome.status, ResponseStatus::Deadline);
        assert!(outcome.line.contains("\"status\":\"deadline\""));
        assert!(outcome.line.contains("\"stage\":\"generate\""));
        assert!(outcome.line.contains("\"spent\":5"));
        assert!(outcome.line.contains("\"limit\":5"));
        // A deadline wide enough for the whole op changes nothing.
        let req = request(
            "{\"tenant\":\"t\",\"request_id\":\"d\",\"op\":\"generate\",\"clusters\":32,\
             \"len\":20,\"deadline\":32}",
        );
        let roomy = execute(&req, &root, 8);
        assert_eq!(roomy.status, ResponseStatus::Ok);
        let unmetered = request(
            "{\"tenant\":\"t\",\"request_id\":\"d\",\"op\":\"generate\",\"clusters\":32,\
             \"len\":20}",
        );
        // The deadline field is not part of the namespace, so the roomy
        // run matches the unmetered one byte for byte minus nothing.
        assert_eq!(roomy.line, execute(&unmetered, &root, 8).line);
    }

    #[test]
    fn default_deadline_applies_and_request_deadline_overrides_it() {
        let config = ServeConfig {
            batch_size: 8,
            default_deadline: Some(4),
            ..ServeConfig::default()
        };
        let pool = ThreadPool::serial();
        // First request inherits the default (4 units, too few for 16
        // clusters); second overrides with room to spare.
        let input = "{\"tenant\":\"a\",\"request_id\":\"r1\",\"op\":\"generate\",\
                     \"clusters\":16,\"len\":20}\n\
                     {\"tenant\":\"a\",\"request_id\":\"r2\",\"op\":\"generate\",\
                     \"clusters\":16,\"len\":20,\"deadline\":64}\n";
        let (text, report) = serve_text(input, &config, &pool);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"status\":\"deadline\""), "{}", lines[0]);
        assert!(lines[0].contains("\"spent\":4"));
        assert!(lines[1].contains("\"status\":\"ok\""), "{}", lines[1]);
        assert_eq!(report.deadlines, 1);
        assert_eq!(report.ok, 1);
    }

    #[test]
    fn retries_report_attempts_and_stay_deterministic() {
        let root = SeedSequence::new(5);
        let policy = ExecPolicy {
            default_deadline: None,
            retries: 2,
        };
        // A structurally bad dataset fails on every seeded attempt: the
        // response burns all attempts and reports them.
        let bad = request(
            "{\"tenant\":\"t\",\"request_id\":\"bad\",\"op\":\"simulate\",\
             \"dataset\":\">ACGT\\nAXGT\\n\"}",
        );
        let a = execute_with(&bad, &root, 16, &policy, None);
        let b = execute_with(&bad, &root, 16, &policy, None);
        assert_eq!(a.line, b.line);
        assert_eq!(a.status, ResponseStatus::Error);
        assert!(a.line.contains("\"attempts\":3"), "{}", a.line);
        // A healthy request succeeds first try and says so.
        let good = request(
            "{\"tenant\":\"t\",\"request_id\":\"ok\",\"op\":\"generate\",\"clusters\":4,\
             \"len\":20}",
        );
        let ok = execute_with(&good, &root, 16, &policy, None);
        assert_eq!(ok.status, ResponseStatus::Ok);
        assert!(ok.line.contains("\"attempts\":1"), "{}", ok.line);
        // Deadline exhaustion is deterministic, so it is never retried.
        let metered = request(
            "{\"tenant\":\"t\",\"request_id\":\"d\",\"op\":\"generate\",\"clusters\":32,\
             \"len\":20,\"deadline\":3}",
        );
        let deadline = execute_with(&metered, &root, 8, &policy, None);
        assert_eq!(deadline.status, ResponseStatus::Deadline);
        assert!(deadline.line.contains("\"attempts\":1"), "{}", deadline.line);
        // With no retries granted the attempts field is absent, keeping
        // default-policy responses byte-compatible.
        let plain = execute(&good, &root, 16);
        assert!(!plain.line.contains("attempts"));
    }

    #[test]
    fn serve_with_retries_matches_isolated_execute_with() {
        let config = ServeConfig {
            batch_size: 16,
            retries: 1,
            ..ServeConfig::default()
        };
        let pool = ThreadPool::new(2);
        let lines = [
            "{\"tenant\":\"a\",\"request_id\":\"g1\",\"op\":\"generate\",\"clusters\":4,\"len\":20}",
            "{\"tenant\":\"b\",\"request_id\":\"s1\",\"op\":\"simulate\",\"dataset\":\">ACGT\\nAXGT\\n\"}",
        ];
        let input = lines.join("\n");
        let (text, _) = serve_text(&input, &config, &pool);
        let root = SeedSequence::new(config.seed);
        let policy = config.policy();
        for (line, response) in lines.iter().zip(text.lines()) {
            let isolated = execute_with(&request(line), &root, config.batch_size, &policy, None);
            assert_eq!(response, isolated.line);
        }
    }

    #[test]
    fn oversized_requests_are_shed_as_overloaded() {
        let config = ServeConfig {
            window: 4,
            batch_size: 8,
            cluster_budget: Some(16),
            ..ServeConfig::default()
        };
        let pool = ThreadPool::serial();
        let input = "{\"tenant\":\"a\",\"request_id\":\"small\",\"op\":\"generate\",\
                     \"clusters\":4,\"len\":20}\n\
                     {\"tenant\":\"b\",\"request_id\":\"huge\",\"op\":\"generate\",\
                     \"clusters\":500,\"len\":20}\n\
                     {\"tenant\":\"c\",\"request_id\":\"tail\",\"op\":\"generate\",\
                     \"clusters\":4,\"len\":20}\n";
        let (text, report) = serve_text(input, &config, &pool);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"status\":\"ok\""));
        assert!(lines[1].contains("\"status\":\"rejected\""), "{}", lines[1]);
        assert!(lines[1].contains("\"reason\":\"overloaded\""));
        assert!(lines[1].contains("\"estimate\":500"));
        assert!(lines[1].contains("\"cluster_budget\":16"));
        assert!(lines[2].contains("\"status\":\"ok\""));
        assert_eq!(report.shed, 1);
        assert_eq!(report.ok, 2);
        // Without an explicit budget the same traffic is not shed.
        let unshed = ServeConfig {
            window: 4,
            batch_size: 8,
            cluster_budget: None,
            ..ServeConfig::default()
        };
        let (_, report) = serve_text(input, &unshed, &pool);
        assert_eq!(report.shed, 0);
        assert_eq!(report.ok, 3);
    }

    #[test]
    fn shutdown_drains_the_inflight_window_in_order() {
        use std::io::Read;

        // A reader that raises the shutdown token while serving the
        // third request line, as a transport would on SIGTERM.
        struct CancellingReader {
            data: Vec<Vec<u8>>,
            idx: usize,
            pos: usize,
            cancel_on: usize,
            token: CancelToken,
        }
        impl Read for CancellingReader {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                loop {
                    match self.data.get(self.idx) {
                        None => return Ok(0),
                        Some(line) if self.pos < line.len() => {
                            if self.idx == self.cancel_on {
                                self.token.cancel();
                            }
                            let n = buf.len().min(line.len() - self.pos);
                            buf[..n].copy_from_slice(&line[self.pos..self.pos + n]);
                            self.pos += n;
                            return Ok(n);
                        }
                        Some(_) => {
                            self.idx += 1;
                            self.pos = 0;
                        }
                    }
                }
            }
        }

        let token = CancelToken::new();
        let reader = CancellingReader {
            data: (0..6)
                .map(|i| {
                    format!(
                        "{{\"tenant\":\"t\",\"request_id\":\"r{i}\",\"op\":\"generate\",\
                         \"clusters\":4,\"len\":20}}\n"
                    )
                    .into_bytes()
                })
                .collect(),
            idx: 0,
            pos: 0,
            cancel_on: 2,
            token: token.clone(),
        };
        let config = ServeConfig {
            window: 8,
            batch_size: 8,
            ..ServeConfig::default()
        };
        let mut out = Vec::new();
        let report = serve_with_shutdown(
            std::io::BufReader::new(reader),
            &mut out,
            &config,
            &ThreadPool::new(2),
            &token,
        )
        .expect("drain succeeds");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        // Lines 0..=2 were admitted before the loop observed the token;
        // 3..6 were never read. Every admitted request answers, in
        // request order, with a typed deadline response.
        assert_eq!(lines.len(), 3, "{text}");
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"request_id\":\"r{i}\"")), "{line}");
            assert!(line.contains("\"status\":\"deadline\""), "{line}");
        }
        assert_eq!(report.requests, 3);
        assert_eq!(report.deadlines, 3);
    }

    #[test]
    fn broken_output_pipe_is_a_clean_output_error() {
        struct BrokenSink;
        impl std::io::Write for BrokenSink {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "reader hung up",
                ))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let config = ServeConfig {
            window: 1,
            batch_size: 8,
            ..ServeConfig::default()
        };
        let input = "{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"generate\",\
                     \"clusters\":2,\"len\":20}\n\
                     {\"tenant\":\"t\",\"request_id\":\"r2\",\"op\":\"generate\",\
                     \"clusters\":2,\"len\":20}\n";
        let err = serve(
            input.as_bytes(),
            &mut BrokenSink,
            &config,
            &ThreadPool::serial(),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Output(_)), "{err}");
        assert!(err.is_broken_pipe());
        assert!(err.to_string().contains("response stream closed"));
    }

    #[test]
    fn invalid_config_is_a_runtime_error() {
        let pool = ThreadPool::serial();
        for config in [
            ServeConfig {
                window: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                batch_size: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
        ] {
            let mut out = Vec::new();
            let err = serve("".as_bytes(), &mut out, &config, &pool).unwrap_err();
            assert!(matches!(err, ServeError::Runtime(DnasimError::Config { .. })));
        }
    }
}
