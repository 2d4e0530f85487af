//! The batch RPC loop: ordered completion over per-request seed
//! namespaces.
//!
//! [`serve`] reads JSONL requests and admits each onto an ordered lane
//! ([`ThreadPool::ordered`]) whose workers live for the whole session. The
//! set of requests in flight is bounded both by count and by a cluster
//! budget (the sum of each request's [`Request::load_estimate`], the same
//! quantity `WindowStats` audits). There is no barrier: response `k` is
//! written as soon as responses `0..k` are, and each written response
//! frees its slot for the next admission. Each request runs as a pure
//! function of `(request, namespace seed)` via [`execute`], with all
//! internal parallelism disabled — so the response stream is
//! byte-identical at every worker count, and any single request replayed
//! alone via [`execute`] reproduces its in-service response exactly.

use std::collections::VecDeque;
use std::io::{BufRead, Write};

use dnasim_channel::{CoverageModel, DnaSimulatorModel, Simulator};
use dnasim_core::rng::{RngExt, SeedSequence};
use dnasim_core::{
    checked_batch_size, Budget, CancelToken, Dataset, DnasimError, Strand, WindowStats,
};
use dnasim_dataset::{fnv1a64, read_dataset, AnyDatasetWriter, DatasetWriter, Format, NanoporeTwinConfig};
use dnasim_par::{Lane, PoolError, RunCtx, ThreadPool};
use dnasim_pipeline::{
    archive_round_trip_in, evaluate_reconstruction_in, ArchiveConfig, ArchiveMode,
};
use dnasim_profile::{ErrorStats, LearnedModel, TieBreak};

use crate::json::Obj;
use crate::request::{AlgorithmSpec, ModelSpec, Op, ProtocolError, Request};

/// Configuration of one serve session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Root seed of the service namespace; every request's randomness is
    /// `SeedSequence::new(seed).derive_seq(tenant).derive_seq(request_id)`.
    pub seed: u64,
    /// Most requests in flight at once: admitted, and not yet written.
    pub window: usize,
    /// Streaming batch size each op runs with (bounds its in-flight
    /// clusters; audited by `WindowStats::high_watermark`).
    pub batch_size: usize,
    /// Admission cap on request size (`clusters` / `count`; `bytes / 16`
    /// for archive).
    pub max_batch: usize,
    /// Most clusters in flight at once, summed over the in-flight
    /// requests' load estimates; `None` means `window * batch_size`
    /// (count-bound only).
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
    /// Busy periods: admissions into an empty in-flight set. How the
    /// session's work was grouped in time; it depends on scheduling, and
    /// on one worker it equals the number of admissions.
    pub windows: usize,
    /// Most requests in flight at once.
    pub peak_inflight_requests: usize,
    /// Largest cluster-load estimate in flight at once — the admission
    /// high-watermark, never above the configured cluster budget.
    pub peak_inflight_clusters: usize,
    /// Aggregated op streaming counters across all requests.
    pub stream: WindowStats,
}

/// Runs the batch RPC loop: JSONL requests in, JSONL responses out.
///
/// Responses are written in request order, one line per non-blank input
/// line, and are byte-identical for every worker-pool size. In strict
/// mode (the default) the first protocol violation (malformed JSON, a line
/// that is not UTF-8, a failed validation) writes every admitted request's
/// response and returns [`ServeError::Protocol`]; in lenient mode it
/// becomes a `rejected` response and the stream continues.
///
/// # Errors
///
/// [`ServeError::Protocol`] for a strict-mode protocol violation;
/// [`ServeError::Runtime`] for transport I/O failures, an invalid
/// configuration, or a worker panic (after every earlier response was
/// written).
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
/// `shutdown` is observed at one serial point: right after each non-blank
/// request line is read. Once it has tripped, that request is answered
/// through [`execute_with`] on a cancelled budget (status `deadline`, the
/// bytes any cancelled op gets), admission stops, and the requests
/// already in flight run to completion and are written in request order
/// before the session returns its report. Dispatched requests run under
/// budgets *not* linked to the token, so the drained bytes depend only on
/// which line was read when it tripped — never on the worker count or on
/// how far the in-flight requests had got. End of input drains the same
/// way, minus the cancelled line.
///
/// # Errors
///
/// As [`serve`], plus [`ServeError::Output`] when a response cannot be
/// written (e.g. the consumer closed the pipe).
pub fn serve_with_shutdown<R, W>(
    mut input: R,
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
    let policy = config.policy();
    let budget = config.effective_cluster_budget();
    // Dispatched requests run under budgets not linked to `shutdown`: the
    // token is observed only here, at the serial point right after a line
    // is read, which is what makes the drain identical at every worker
    // count.
    let run = |item: WorkItem| match item {
        WorkItem::Run(request) => execute_with(&request, &root, config.batch_size, &policy, None),
        WorkItem::Cancelled(request) => {
            execute_with(&request, &root, config.batch_size, &policy, Some(shutdown))
        }
        WorkItem::Reject(protocol) => rejection(&protocol),
        WorkItem::Shed(request) => shed_response(&request, budget),
    };
    pool.ordered(run, |lane| {
        let mut session = Session {
            lane,
            output,
            report: ServeReport::default(),
            loads: VecDeque::new(),
            load: 0,
            window: config.window,
            budget,
        };
        // Each line is read as bytes into one reused buffer, so a line
        // that is not UTF-8 is a protocol error like malformed JSON.
        let mut line = Vec::new();
        let mut line_no = 0;
        loop {
            // Backpressure: read no line while the window is full.
            session.make_room()?;
            line.clear();
            match input.read_until(b'\n', &mut line) {
                Ok(0) => break,
                Ok(_) => line_no += 1,
                Err(e) => {
                    // Write every admitted response before reporting the
                    // failed read, as for a protocol error.
                    session.drain()?;
                    let _ = session.output.flush();
                    return Err(DnasimError::Io(e).into());
                }
            }
            let text = std::str::from_utf8(request_line(&line));
            if text.is_ok_and(|text| text.trim().is_empty()) {
                continue;
            }
            session.report.requests += 1;
            let cancelled = shutdown.is_cancelled();
            let parsed = text
                .map_err(|_| ProtocolError::new(line_no, "request line is not valid UTF-8"))
                .and_then(|text| Request::parse(text, line_no, config.max_batch));
            match parsed {
                // Overload shedding: an explicit cluster budget also caps
                // the *total* work any one request may demand. A shed
                // request holds a slot (responses stay 1:1 with input
                // lines) but adds no load and never runs.
                Ok(request)
                    if config.cluster_budget.is_some() && request.work_estimate() > budget =>
                {
                    session.admit(WorkItem::Shed(request), 0)?;
                }
                // Shutdown: the line read as the token tripped is answered
                // on a cancelled budget (a `deadline` response), and
                // admission stops below.
                Ok(request) if cancelled => session.admit(WorkItem::Cancelled(request), 0)?,
                Ok(request) => {
                    let estimate = request.load_estimate(config.batch_size);
                    session.admit(WorkItem::Run(request), estimate)?;
                }
                Err(protocol) if config.lenient => {
                    session.admit(WorkItem::Reject(protocol), 0)?;
                }
                Err(protocol) => {
                    // Drain what was admitted so the output is a faithful
                    // prefix, then abort with the diagnostic.
                    session.drain()?;
                    let _ = session.output.flush();
                    return Err(protocol.into());
                }
            }
            if cancelled {
                break;
            }
        }
        session.drain()?;
        session.output.flush().map_err(ServeError::Output)?;
        Ok(session.report)
    })
}

/// A request line without its `\n` or `\r\n` terminator, as
/// `BufRead::lines` would yield it.
fn request_line(line: &[u8]) -> &[u8] {
    match line.strip_suffix(b"\n") {
        Some(body) => body.strip_suffix(b"\r").unwrap_or(body),
        None => line,
    }
}

/// A slot in the in-flight set: an admitted request, the request read as
/// the shutdown token tripped (run on a cancelled budget), a (lenient
/// mode) protocol rejection, or a request shed at admission. The last two
/// hold their place so responses stay 1:1 with input lines.
#[derive(Debug)]
enum WorkItem {
    Run(Request),
    Cancelled(Request),
    Reject(ProtocolError),
    Shed(Request),
}

/// The admission loop's state: the ordered lane, the response stream, and
/// the load each in-flight request was admitted with.
struct Session<'s, 'l, W> {
    lane: &'s mut Lane<'l, WorkItem, Outcome>,
    output: &'s mut W,
    report: ServeReport,
    /// Load estimates of the in-flight requests, oldest first.
    loads: VecDeque<usize>,
    /// Their sum.
    load: usize,
    window: usize,
    budget: usize,
}

impl<W: Write> Session<'_, '_, W> {
    /// Admits `item` once fewer than `window` requests are in flight and
    /// either none is or `load + estimate` fits the cluster budget. Until
    /// then it writes the oldest responses, each releasing its load.
    fn admit(&mut self, item: WorkItem, estimate: usize) -> Result<(), ServeError> {
        while let Some(result) = self.lane.poll() {
            self.write(result)?;
        }
        self.make_room()?;
        while self.lane.in_flight() > 0 && self.load + estimate > self.budget {
            self.write_oldest()?;
        }
        if self.lane.in_flight() == 0 {
            self.report.windows += 1;
        }
        self.load += estimate;
        self.loads.push_back(estimate);
        self.lane.submit(item);
        let report = &mut self.report;
        report.peak_inflight_requests = report.peak_inflight_requests.max(self.lane.in_flight());
        report.peak_inflight_clusters = report.peak_inflight_clusters.max(self.load);
        Ok(())
    }

    /// Writes the oldest responses until fewer than `window` requests are
    /// in flight.
    fn make_room(&mut self) -> Result<(), ServeError> {
        while self.lane.in_flight() >= self.window {
            self.write_oldest()?;
        }
        Ok(())
    }

    /// Writes every in-flight response, in request order.
    fn drain(&mut self) -> Result<(), ServeError> {
        while self.lane.in_flight() > 0 {
            self.write_oldest()?;
        }
        Ok(())
    }

    fn write_oldest(&mut self) -> Result<(), ServeError> {
        match self.lane.wait() {
            Some(result) => self.write(result),
            None => Ok(()),
        }
    }

    /// Writes the oldest response. A worker panic ends the session here,
    /// after every earlier response was written.
    fn write(&mut self, result: Result<Outcome, PoolError>) -> Result<(), ServeError> {
        self.load -= self.loads.pop_front().unwrap_or(0);
        let outcome = result.map_err(|e| ServeError::Runtime(e.into()))?;
        let report = &mut self.report;
        report.stream.absorb(outcome.window);
        match outcome.status {
            ResponseStatus::Ok => report.ok += 1,
            ResponseStatus::Degraded => report.degraded += 1,
            ResponseStatus::Error => report.errors += 1,
            ResponseStatus::Rejected => report.rejected += 1,
            ResponseStatus::Deadline => report.deadlines += 1,
            ResponseStatus::Overloaded => report.shed += 1,
        }
        self.output
            .write_all(outcome.line.as_bytes())
            .map_err(ServeError::Output)?;
        self.output.write_all(b"\n").map_err(ServeError::Output)
    }
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
        let result = RunCtx::new(&pool, batch_size)
            .and_then(|ctx| run_op(request, &attempt_ns, &ctx.with_budget(budget)));
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
    ctx: &RunCtx,
) -> Result<OpOutput, DnasimError> {
    match &request.op {
        Op::Generate {
            clusters,
            len,
            format,
        } => op_generate(namespace, *clusters, *len, *format, ctx),
        Op::Corrupt { count, len, reads } => op_corrupt(namespace, *count, *len, *reads, ctx),
        Op::Simulate { dataset, model } => op_simulate(namespace, dataset, *model, ctx),
        Op::Evaluate { dataset, algorithm } => op_evaluate(dataset, *algorithm, ctx),
        // The archive format is admission-validated (unknown values are
        // rejected before the op runs) but does not change the round trip:
        // the coded payload never leaves the server as a cluster file.
        Op::Archive {
            bytes,
            reads,
            lenient,
            format: _,
        } => op_archive(namespace, *bytes, *reads, *lenient, ctx),
    }
}

/// Renders a dataset's cluster-file text as a JSON string literal,
/// escaped straight into the response field.
fn dataset_text(buf: &[u8]) -> Result<String, DnasimError> {
    let text = std::str::from_utf8(buf)
        .map_err(|_| DnasimError::codec("cluster-file text is not UTF-8"))?;
    // Only the newlines need an escape: one extra byte per line.
    let mut out = String::with_capacity(text.len() + text.len() / 8 + 2);
    out.push('"');
    crate::json::escape_into(&mut out, text);
    out.push('"');
    Ok(out)
}

fn op_generate(
    namespace: &SeedSequence,
    clusters: usize,
    len: usize,
    format: Format,
    ctx: &RunCtx,
) -> Result<OpOutput, DnasimError> {
    let mut config = NanoporeTwinConfig::small();
    config.cluster_count = clusters;
    config.strand_len = len;
    // A 4-cluster request should not be one-quarter erasures.
    config.erasure_count = config.erasure_count.min(clusters / 8);
    config.seed = namespace.derive("twin");
    let mut buf = Vec::new();
    let mut writer = AnyDatasetWriter::new(&mut buf, format);
    let window = config.generate_in(ctx, &mut writer)?;
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
            ("dataset".into(), dataset_text(&buf)?),
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
    ctx: &RunCtx,
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
    let window = simulator.simulate_in(&references, &channel, ctx, &mut noisy)?;
    // Bases never need a JSON escape, so they render straight into the
    // array: `{"clean":"…","noisy":["…",…]}` per cluster.
    let mut pairs = vec![b'['];
    for (i, cluster) in noisy.iter().enumerate() {
        if i > 0 {
            pairs.push(b',');
        }
        pairs.extend_from_slice(b"{\"clean\":\"");
        cluster.reference().extend_ascii(&mut pairs);
        pairs.extend_from_slice(b"\",\"noisy\":[");
        for (j, read) in cluster.reads().iter().enumerate() {
            if j > 0 {
                pairs.push(b',');
            }
            pairs.push(b'"');
            read.extend_ascii(&mut pairs);
            pairs.push(b'"');
        }
        pairs.extend_from_slice(b"]}");
    }
    pairs.push(b']');
    let pairs = String::from_utf8(pairs)
        .map_err(|_| DnasimError::codec("rendered strand pairs are not UTF-8"))?;
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
    ctx: &RunCtx,
) -> Result<OpOutput, DnasimError> {
    let parsed = read_dataset(dataset.as_bytes())?;
    let model = model.build(|| {
        let mut rng = namespace.derive_rng("learn");
        let stats = ErrorStats::from_dataset(&parsed, TieBreak::Random, &mut rng);
        Ok::<_, DnasimError>(LearnedModel::from_stats(&stats, 10))
    })?;
    let mut buf = Vec::new();
    let mut writer = DatasetWriter::new(&mut buf);
    let window = Simulator::new(model, CoverageModel::Fixed(0)).resimulate_in(
        &mut parsed.stream(),
        &namespace.derive_seq("channel"),
        ctx,
        &mut writer,
    )?;
    let (clusters, reads) = (writer.clusters_written(), writer.reads_written());
    Ok(OpOutput {
        fields: vec![
            ("clusters".into(), clusters.to_string()),
            ("reads".into(), reads.to_string()),
            ("dataset".into(), dataset_text(&buf)?),
        ],
        window,
        degraded: false,
    })
}

fn op_evaluate(
    dataset: &str,
    algorithm: AlgorithmSpec,
    ctx: &RunCtx,
) -> Result<OpOutput, DnasimError> {
    let parsed = read_dataset(dataset.as_bytes())?;
    let (report, window) =
        evaluate_reconstruction_in(&mut parsed.stream(), &algorithm.build(), ctx)?;
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

fn op_archive(
    namespace: &SeedSequence,
    bytes: usize,
    reads: usize,
    lenient: bool,
    ctx: &RunCtx,
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
    let (report, window, _) = archive_round_trip_in(&data, &config, &mut channel_rng, ctx)?;
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

    /// Serves `input` at 1, 2 and 4 workers and checks that every run
    /// wrote the same bytes and ended the same way; returns the output
    /// and the outcome rendered as text.
    fn serve_at_every_worker_count(input: &[u8], config: &ServeConfig) -> (String, String) {
        let runs: Vec<(Vec<u8>, String)> = [1, 2, 4]
            .into_iter()
            .map(|workers| {
                let mut out = Vec::new();
                let ended = match serve(input, &mut out, config, &ThreadPool::new(workers)) {
                    Ok(report) => format!(
                        "ok: requests={} ok={} rejected={}",
                        report.requests, report.ok, report.rejected
                    ),
                    Err(e) => format!("error: {e}"),
                };
                (out, ended)
            })
            .collect();
        for (workers, run) in [2, 4].into_iter().zip(&runs[1..]) {
            assert_eq!(run, &runs[0], "workers={workers}");
        }
        let (out, ended) = runs.into_iter().next().expect("three runs");
        (String::from_utf8(out).expect("responses are UTF-8"), ended)
    }

    #[test]
    fn non_utf8_lines_are_protocol_errors_at_every_worker_count() {
        let mut input = Vec::new();
        for i in 0..12 {
            input.extend_from_slice(
                format!(
                    "{{\"tenant\":\"t{}\",\"request_id\":\"r{i}\",\"op\":\"corrupt\",\
                     \"count\":3,\"len\":30,\"reads\":2}}\r\n",
                    i % 3
                )
                .as_bytes(),
            );
            if i == 5 {
                // Line 7: a stray Latin-1 byte inside a string.
                input.extend_from_slice(b"{\"tenant\":\"caf\xe9\",\"request_id\":\"x\"}\n");
            }
        }
        // Line 14: a truncated two-byte sequence with no newline after it.
        input.extend_from_slice(b"\xc3");
        let lenient = ServeConfig {
            window: 4,
            batch_size: 16,
            lenient: true,
            ..ServeConfig::default()
        };
        let (text, ended) = serve_at_every_worker_count(&input, &lenient);
        assert_eq!(ended, "ok: requests=14 ok=12 rejected=2");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 14);
        assert_eq!(
            lines[6],
            "{\"request_id\":\"\",\"tenant\":\"\",\"status\":\"rejected\",\
             \"error\":\"request line 7: request line is not valid UTF-8\"}"
        );
        assert!(lines[13].contains("request line 14: request line is not valid UTF-8"));
        assert!(lines[7].contains("\"request_id\":\"r6\""), "{}", lines[7]);

        // Strict mode: the six admitted requests are answered, then the
        // session ends with the diagnostic.
        let strict = ServeConfig {
            lenient: false,
            ..lenient
        };
        let (text, ended) = serve_at_every_worker_count(&input, &strict);
        assert_eq!(ended, "error: request line 7: request line is not valid UTF-8");
        assert_eq!(text.lines().count(), 6);
        assert!(text.lines().all(|line| line.contains("\"status\":\"ok\"")));
    }

    #[test]
    fn a_failed_read_drains_the_admitted_requests_first() {
        use std::io::Read;

        // Three request lines, then the transport fails.
        struct FailingReader(Vec<u8>);
        impl Read for FailingReader {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::Error::other("transport reset"));
                }
                let n = buf.len().min(self.0.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0.drain(..n);
                Ok(n)
            }
        }
        let config = ServeConfig {
            window: 8,
            batch_size: 16,
            ..ServeConfig::default()
        };
        for workers in [1, 2, 4] {
            let lines: String = (0..3)
                .map(|i| {
                    format!(
                        "{{\"tenant\":\"t\",\"request_id\":\"r{i}\",\"op\":\"generate\",\
                         \"clusters\":4,\"len\":20}}\n"
                    )
                })
                .collect();
            let reader = std::io::BufReader::new(FailingReader(lines.into_bytes()));
            let mut out = Vec::new();
            let err = serve(reader, &mut out, &config, &ThreadPool::new(workers)).unwrap_err();
            assert!(matches!(err, ServeError::Runtime(DnasimError::Io(_))), "{err}");
            assert!(err.to_string().contains("transport reset"), "{err}");
            let text = String::from_utf8(out).expect("utf8");
            assert_eq!(text.lines().count(), 3, "workers={workers}");
        }
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
        // r0 and r1 were admitted before the token tripped and run to
        // completion; r2 is the line read as it tripped, answered on a
        // cancelled budget; 3..6 were never read. Responses stay in
        // request order.
        assert_eq!(lines.len(), 3, "{text}");
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"request_id\":\"r{i}\"")), "{line}");
            let status = if i < 2 { "ok" } else { "deadline" };
            assert!(line.contains(&format!("\"status\":\"{status}\"")), "{line}");
        }
        assert_eq!(report.requests, 3);
        assert_eq!(report.ok, 2);
        assert_eq!(report.deadlines, 1);
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
