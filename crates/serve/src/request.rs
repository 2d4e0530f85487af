//! Request framing and admission validation for the serve protocol.
//!
//! One JSONL line is one request. Every request names a `tenant` and a
//! `request_id` — the two labels that key its seed namespace — plus an
//! `op` and op-specific parameters. Validation here is *protocol-level*:
//! a request that fails it never reaches an op (strict mode aborts the
//! stream with a diagnostic, lenient mode emits a `rejected` response).
//! Failures inside an admitted op are runtime errors, reported
//! per-request (see `server`).

use std::fmt;
use std::str::FromStr;

use dnasim_channel::{DnaSimulatorModel, ErrorModel, KeoliyaModel, SimulatorLayer};
use dnasim_core::DnasimError;
use dnasim_dataset::Format;
use dnasim_profile::LearnedModel;
use dnasim_reconstruct::{
    BmaLookahead, DividerBma, Iterative, MajorityVote, TraceReconstructor, TwoWayIterative,
};

use crate::json::{self, Json};

/// A protocol-level violation: malformed JSON, missing identity, unknown
/// op, or an oversized batch. Carries the offending line number and, when
/// recoverable, the identity of the request so lenient mode can answer it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// 1-based line number of the offending request.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
    /// The tenant, when the line parsed far enough to recover it.
    pub tenant: Option<String>,
    /// The request id, when the line parsed far enough to recover it.
    pub request_id: Option<String>,
}

impl ProtocolError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            line,
            message: message.into(),
            tenant: None,
            request_id: None,
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// A channel model by name: the one vocabulary `dnasim simulate --model`
/// and the `simulate` op share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSpec {
    /// Uniform learned rates (`naive`).
    Naive,
    /// The dnaSimulator literature preset (`dnasimulator`).
    DnaSimulator,
    /// The paper's layered simulator (`keoliya[:naive|cond|spatial|second]`).
    Keoliya(SimulatorLayer),
}

impl ModelSpec {
    /// The canonical spelling, echoed back in responses.
    pub fn name(self) -> &'static str {
        match self {
            ModelSpec::Naive => "naive",
            ModelSpec::DnaSimulator => "dnasimulator",
            ModelSpec::Keoliya(SimulatorLayer::Naive) => "keoliya:naive",
            ModelSpec::Keoliya(SimulatorLayer::ConditionalLongDel) => "keoliya:cond",
            ModelSpec::Keoliya(SimulatorLayer::SpatialSkew) => "keoliya:spatial",
            ModelSpec::Keoliya(SimulatorLayer::SecondOrder) => "keoliya:second",
        }
    }

    /// Builds the named model. `learn` runs only for the learned models
    /// (`naive` and `keoliya`), so `dnasimulator` never learns and draws
    /// nothing from the caller's randomness.
    ///
    /// # Errors
    ///
    /// Whatever `learn` reports.
    pub fn build<E>(
        self,
        learn: impl FnOnce() -> Result<LearnedModel, E>,
    ) -> Result<Box<dyn ErrorModel + Send + Sync>, E> {
        Ok(match self {
            ModelSpec::Naive => Box::new(KeoliyaModel::new(learn()?, SimulatorLayer::Naive)),
            ModelSpec::DnaSimulator => Box::new(DnaSimulatorModel::nanopore_default()),
            ModelSpec::Keoliya(layer) => Box::new(KeoliyaModel::new(learn()?, layer)),
        })
    }
}

impl FromStr for ModelSpec {
    type Err = DnasimError;

    fn from_str(spec: &str) -> Result<ModelSpec, DnasimError> {
        match spec {
            "naive" => Ok(ModelSpec::Naive),
            "dnasimulator" => Ok(ModelSpec::DnaSimulator),
            "keoliya" => Ok(ModelSpec::Keoliya(SimulatorLayer::SecondOrder)),
            "keoliya:naive" => Ok(ModelSpec::Keoliya(SimulatorLayer::Naive)),
            "keoliya:cond" => Ok(ModelSpec::Keoliya(SimulatorLayer::ConditionalLongDel)),
            "keoliya:spatial" => Ok(ModelSpec::Keoliya(SimulatorLayer::SpatialSkew)),
            "keoliya:second" => Ok(ModelSpec::Keoliya(SimulatorLayer::SecondOrder)),
            _ => Err(DnasimError::config("model", format!("unknown model '{spec}'"))),
        }
    }
}

/// A trace-reconstruction algorithm by name: the one vocabulary
/// `dnasim reconstruct --algo` and the `evaluate` op share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmSpec {
    /// BMA with lookahead.
    Bma,
    /// Divider BMA.
    DivBma,
    /// Iterative reconstruction.
    Iterative,
    /// Two-way iterative reconstruction.
    IterativeTwoWay,
    /// Plain per-position majority vote.
    Majority,
}

impl AlgorithmSpec {
    /// The canonical spelling, echoed back in responses.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmSpec::Bma => "bma",
            AlgorithmSpec::DivBma => "divbma",
            AlgorithmSpec::Iterative => "iterative",
            AlgorithmSpec::IterativeTwoWay => "iterative-twoway",
            AlgorithmSpec::Majority => "majority",
        }
    }

    /// Builds the named reconstructor with its default parameters.
    pub fn build(self) -> Box<dyn TraceReconstructor> {
        match self {
            AlgorithmSpec::Bma => Box::new(BmaLookahead::default()),
            AlgorithmSpec::DivBma => Box::new(DividerBma),
            AlgorithmSpec::Iterative => Box::new(Iterative::default()),
            AlgorithmSpec::IterativeTwoWay => Box::new(TwoWayIterative::default()),
            AlgorithmSpec::Majority => Box::new(MajorityVote),
        }
    }
}

impl FromStr for AlgorithmSpec {
    type Err = DnasimError;

    fn from_str(spec: &str) -> Result<AlgorithmSpec, DnasimError> {
        match spec {
            "bma" => Ok(AlgorithmSpec::Bma),
            "divbma" => Ok(AlgorithmSpec::DivBma),
            "iterative" => Ok(AlgorithmSpec::Iterative),
            "iterative-twoway" => Ok(AlgorithmSpec::IterativeTwoWay),
            "majority" => Ok(AlgorithmSpec::Majority),
            _ => Err(DnasimError::config("algorithm", format!("unknown algorithm '{spec}'"))),
        }
    }
}

/// The operation an admitted request runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Generate a Nanopore-twin dataset (`clusters`, `len`, `format`).
    Generate {
        /// Number of clusters to generate.
        clusters: usize,
        /// Designed strand length.
        len: usize,
        /// Dataset encoding for the response: text inlines the cluster
        /// file, binary answers with its size and checksum.
        format: Format,
    },
    /// Generate seeded noisy/clean strand pairs (`count`, `len`, `reads`).
    Corrupt {
        /// Number of reference strands.
        count: usize,
        /// Strand length.
        len: usize,
        /// Noisy reads per strand.
        reads: usize,
    },
    /// Resimulate an inline dataset under a named channel model.
    Simulate {
        /// Cluster-file text to resimulate.
        dataset: String,
        /// The channel model.
        model: ModelSpec,
    },
    /// Reconstruct an inline dataset and report accuracy.
    Evaluate {
        /// Cluster-file text to reconstruct.
        dataset: String,
        /// The reconstruction algorithm.
        algorithm: AlgorithmSpec,
    },
    /// Run the coded archival round trip over a seeded payload.
    Archive {
        /// Payload size in bytes.
        bytes: usize,
        /// Sequencing reads per strand.
        reads: usize,
        /// Lenient mode: quarantine unrecoverable strands instead of
        /// failing the request.
        lenient: bool,
        /// Cluster-file encoding the archived payload is staged through
        /// on its way to the decoder.
        format: Format,
    },
}

/// One admitted request: identity plus operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The tenant label (first namespace component).
    pub tenant: String,
    /// The request id (second namespace component).
    pub request_id: String,
    /// What to run.
    pub op: Op,
    /// Per-request work-unit deadline; overrides the server default when
    /// present. Always at least 1 (a zero deadline is a protocol error).
    pub deadline: Option<u64>,
}

impl Request {
    /// The op name, echoed back in responses.
    pub fn op_name(&self) -> &'static str {
        match self.op {
            Op::Generate { .. } => "generate",
            Op::Corrupt { .. } => "corrupt",
            Op::Simulate { .. } => "simulate",
            Op::Evaluate { .. } => "evaluate",
            Op::Archive { .. } => "archive",
        }
    }

    /// Upper bound on the clusters this request holds in flight at once —
    /// the quantity the admission window budgets. Every op streams through
    /// a bounded window of at most `batch_size` clusters (that is the
    /// `WindowStats::high_watermark` contract), and ops whose total size is
    /// known to be smaller are bounded by that size instead.
    pub fn load_estimate(&self, batch_size: usize) -> usize {
        let cap = batch_size.max(1);
        match &self.op {
            Op::Generate { clusters, .. } => (*clusters).min(cap),
            Op::Corrupt { count, .. } => (*count).min(cap),
            Op::Simulate { .. } | Op::Evaluate { .. } | Op::Archive { .. } => cap,
        }
    }

    /// Total clusters the request processes end to end — the quantity
    /// overload shedding compares against an explicit `--cluster-budget`.
    /// Unlike [`Request::load_estimate`] this is *not* capped by the batch
    /// size: a request can stream through a small window yet still demand
    /// more total work than an operator is willing to spend on one tenant.
    pub fn work_estimate(&self) -> usize {
        match &self.op {
            Op::Generate { clusters, .. } => *clusters,
            Op::Corrupt { count, .. } => *count,
            Op::Simulate { dataset, .. } | Op::Evaluate { dataset, .. } => dataset
                .lines()
                .filter(|line| line.starts_with('>'))
                .count()
                .max(1),
            // One 16-byte Reed–Solomon data chunk becomes one strand.
            Op::Archive { bytes, .. } => bytes.div_ceil(16),
        }
    }

    /// Parses and validates one JSONL request line.
    ///
    /// `max_batch` is the admission cap on request size: `clusters`,
    /// `count`, and (scaled by the Reed–Solomon data length) `bytes` may
    /// not exceed it.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] naming the line and the violation; the tenant and
    /// request id are attached when the line parsed far enough to recover
    /// them.
    pub fn parse(line: &str, line_no: usize, max_batch: usize) -> Result<Request, ProtocolError> {
        let value = json::parse(line)
            .map_err(|e| ProtocolError::new(line_no, format!("malformed JSON ({e})")))?;
        if !matches!(value, Json::Object(_)) {
            return Err(ProtocolError::new(line_no, "request must be a JSON object"));
        }
        let tenant = identity_field(&value, "tenant", line_no)?;
        let request_id = identity_field(&value, "request_id", line_no).map_err(|mut e| {
            e.tenant = Some(tenant.clone());
            e
        })?;
        let attach = |mut e: ProtocolError| {
            e.tenant = Some(tenant.clone());
            e.request_id = Some(request_id.clone());
            e
        };

        let op_name = value
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| attach(ProtocolError::new(line_no, "missing string field 'op'")))?;
        let op = match op_name {
            "generate" => {
                let clusters = usize_field(&value, "clusters", 64, line_no).map_err(&attach)?;
                let len = usize_field(&value, "len", 110, line_no).map_err(&attach)?;
                check_range(clusters, 1, max_batch, "clusters", line_no).map_err(&attach)?;
                check_range(len, 1, 10_000, "len", line_no).map_err(&attach)?;
                let format = format_field(&value, line_no).map_err(&attach)?;
                Op::Generate {
                    clusters,
                    len,
                    format,
                }
            }
            "corrupt" => {
                let count = usize_field(&value, "count", 32, line_no).map_err(&attach)?;
                let len = usize_field(&value, "len", 110, line_no).map_err(&attach)?;
                let reads = usize_field(&value, "reads", 6, line_no).map_err(&attach)?;
                check_range(count, 1, max_batch, "count", line_no).map_err(&attach)?;
                check_range(len, 1, 10_000, "len", line_no).map_err(&attach)?;
                check_range(reads, 1, 1_000, "reads", line_no).map_err(&attach)?;
                Op::Corrupt { count, len, reads }
            }
            "simulate" => {
                let dataset = text_field(&value, "dataset", line_no).map_err(&attach)?;
                let spec = value.get("model").and_then(Json::as_str).unwrap_or("keoliya");
                let model = spec.parse::<ModelSpec>().map_err(|_| {
                    attach(ProtocolError::new(
                        line_no,
                        format!(
                            "unknown model '{spec}' (expected naive | dnasimulator | \
                             keoliya[:naive|cond|spatial|second])"
                        ),
                    ))
                })?;
                Op::Simulate { dataset, model }
            }
            "evaluate" => {
                let dataset = text_field(&value, "dataset", line_no).map_err(&attach)?;
                let spec = value
                    .get("algorithm")
                    .and_then(Json::as_str)
                    .unwrap_or("bma");
                let algorithm = spec.parse::<AlgorithmSpec>().map_err(|_| {
                    attach(ProtocolError::new(
                        line_no,
                        format!(
                            "unknown algorithm '{spec}' (expected bma | divbma | iterative | \
                             iterative-twoway | majority)"
                        ),
                    ))
                })?;
                Op::Evaluate { dataset, algorithm }
            }
            "archive" => {
                let bytes = usize_field(&value, "bytes", 1024, line_no).map_err(&attach)?;
                // One Reed–Solomon data chunk (16 bytes) becomes one strand,
                // so the admission cap scales bytes to the same strand budget
                // the other ops use.
                check_range(bytes, 1, max_batch.saturating_mul(16), "bytes", line_no)
                    .map_err(&attach)?;
                let reads = usize_field(&value, "reads", 20, line_no).map_err(&attach)?;
                check_range(reads, 1, 1_000, "reads", line_no).map_err(&attach)?;
                let lenient = value
                    .get("lenient")
                    .map(|v| v.as_bool().unwrap_or(false))
                    .unwrap_or(false);
                let format = format_field(&value, line_no).map_err(&attach)?;
                Op::Archive {
                    bytes,
                    reads,
                    lenient,
                    format,
                }
            }
            other => {
                return Err(attach(ProtocolError::new(
                    line_no,
                    format!(
                        "unknown op '{other}' (expected generate | corrupt | simulate | \
                         evaluate | archive)"
                    ),
                )))
            }
        };
        let deadline = match value.get("deadline") {
            None => None,
            Some(v) => {
                let units = v.as_usize().ok_or_else(|| {
                    attach(ProtocolError::new(
                        line_no,
                        "'deadline' must be a non-negative integer",
                    ))
                })?;
                if units == 0 {
                    return Err(attach(ProtocolError::new(
                        line_no,
                        "'deadline' must be at least 1 work unit",
                    )));
                }
                Some(units as u64)
            }
        };
        Ok(Request {
            tenant,
            request_id,
            op,
            deadline,
        })
    }
}

/// A required non-empty identity string (`tenant` / `request_id`), capped
/// so a hostile label cannot bloat every response that echoes it.
fn identity_field(value: &Json, name: &str, line_no: usize) -> Result<String, ProtocolError> {
    let text = value
        .get(name)
        .and_then(Json::as_str)
        .ok_or_else(|| ProtocolError::new(line_no, format!("missing string field '{name}'")))?;
    if text.is_empty() {
        return Err(ProtocolError::new(line_no, format!("'{name}' must be non-empty")));
    }
    if text.len() > 256 {
        return Err(ProtocolError::new(
            line_no,
            format!("'{name}' exceeds 256 bytes"),
        ));
    }
    Ok(text.to_owned())
}

/// An optional non-negative integer field with a default.
fn usize_field(
    value: &Json,
    name: &str,
    default: usize,
    line_no: usize,
) -> Result<usize, ProtocolError> {
    match value.get(name) {
        None => Ok(default),
        Some(v) => v.as_usize().ok_or_else(|| {
            ProtocolError::new(line_no, format!("'{name}' must be a non-negative integer"))
        }),
    }
}

/// The optional `format` field on dataset-producing ops; defaults to text
/// so every pre-format client keeps getting byte-identical responses.
fn format_field(value: &Json, line_no: usize) -> Result<Format, ProtocolError> {
    match value.get("format") {
        None => Ok(Format::Text),
        Some(v) => {
            let spec = v.as_str().ok_or_else(|| {
                ProtocolError::new(line_no, "'format' must be a string")
            })?;
            spec.parse().map_err(|_| {
                ProtocolError::new(
                    line_no,
                    format!("unknown format '{spec}' (expected text | binary)"),
                )
            })
        }
    }
}

/// A required non-empty string payload field.
fn text_field(value: &Json, name: &str, line_no: usize) -> Result<String, ProtocolError> {
    let text = value
        .get(name)
        .and_then(Json::as_str)
        .ok_or_else(|| ProtocolError::new(line_no, format!("missing string field '{name}'")))?;
    if text.is_empty() {
        return Err(ProtocolError::new(line_no, format!("'{name}' must be non-empty")));
    }
    Ok(text.to_owned())
}

fn check_range(
    value: usize,
    min: usize,
    max: usize,
    name: &str,
    line_no: usize,
) -> Result<(), ProtocolError> {
    if value < min {
        return Err(ProtocolError::new(
            line_no,
            format!("'{name}' must be at least {min}"),
        ));
    }
    if value > max {
        return Err(ProtocolError::new(
            line_no,
            format!("'{name}' = {value} exceeds the admission cap of {max}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: usize = 4096;

    #[test]
    fn parses_each_op_with_defaults() {
        let base = |op: &str, extra: &str| {
            format!("{{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"{op}\"{extra}}}")
        };
        let r = Request::parse(&base("generate", ""), 1, MAX).unwrap();
        assert_eq!(
            r.op,
            Op::Generate { clusters: 64, len: 110, format: Format::Text }
        );
        assert_eq!(r.op_name(), "generate");
        let r = Request::parse(&base("corrupt", ",\"count\":5,\"reads\":3"), 1, MAX).unwrap();
        assert_eq!(r.op, Op::Corrupt { count: 5, len: 110, reads: 3 });
        let r = Request::parse(&base("simulate", ",\"dataset\":\">ACGT\\nACG\\n\""), 1, MAX)
            .unwrap();
        assert!(matches!(
            r.op,
            Op::Simulate { model: ModelSpec::Keoliya(SimulatorLayer::SecondOrder), .. }
        ));
        let r = Request::parse(
            &base("evaluate", ",\"dataset\":\">ACGT\\nACGT\\n\",\"algorithm\":\"majority\""),
            1,
            MAX,
        )
        .unwrap();
        assert!(matches!(r.op, Op::Evaluate { algorithm: AlgorithmSpec::Majority, .. }));
        let r = Request::parse(&base("archive", ",\"bytes\":256,\"lenient\":true"), 1, MAX)
            .unwrap();
        assert_eq!(
            r.op,
            Op::Archive { bytes: 256, reads: 20, lenient: true, format: Format::Text }
        );
    }

    #[test]
    fn format_field_parses_on_generate_and_archive() {
        let line = "{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"generate\",\
                    \"format\":\"binary\"}";
        let r = Request::parse(line, 1, MAX).unwrap();
        assert!(matches!(r.op, Op::Generate { format: Format::Binary, .. }));
        let line = "{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"archive\",\
                    \"format\":\"binary\"}";
        let r = Request::parse(line, 1, MAX).unwrap();
        assert!(matches!(r.op, Op::Archive { format: Format::Binary, .. }));
    }

    #[test]
    fn unknown_format_is_a_protocol_error_with_identity() {
        let line = "{\"tenant\":\"acme\",\"request_id\":\"r1\",\"op\":\"generate\",\
                    \"format\":\"parquet\"}";
        let err = Request::parse(line, 4, MAX).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("parquet"));
        assert!(err.message.contains("text | binary"));
        // Identity recovered, so lenient mode can answer `rejected`.
        assert_eq!(err.tenant.as_deref(), Some("acme"));
        assert_eq!(err.request_id.as_deref(), Some("r1"));
        let line = "{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"archive\",\"format\":7}";
        let err = Request::parse(line, 1, MAX).unwrap_err();
        assert!(err.message.contains("must be a string"));
    }

    #[test]
    fn protocol_errors_name_the_line_and_identity() {
        let err = Request::parse("not json", 7, MAX).unwrap_err();
        assert_eq!(err.line, 7);
        assert!(err.to_string().contains("line 7"));
        assert_eq!(err.tenant, None);

        let err = Request::parse(
            "{\"tenant\":\"acme\",\"request_id\":\"r9\",\"op\":\"frobnicate\"}",
            3,
            MAX,
        )
        .unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("frobnicate"));
        assert_eq!(err.tenant.as_deref(), Some("acme"));
        assert_eq!(err.request_id.as_deref(), Some("r9"));
    }

    #[test]
    fn missing_identity_is_rejected() {
        for line in [
            "{\"op\":\"generate\"}",
            "{\"tenant\":\"t\",\"op\":\"generate\"}",
            "{\"tenant\":\"\",\"request_id\":\"r\",\"op\":\"generate\"}",
            "{\"tenant\":7,\"request_id\":\"r\",\"op\":\"generate\"}",
        ] {
            assert!(Request::parse(line, 1, MAX).is_err(), "accepted {line}");
        }
    }

    #[test]
    fn oversized_batches_are_rejected_at_admission() {
        let over = format!(
            "{{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"generate\",\"clusters\":{}}}",
            MAX + 1
        );
        let err = Request::parse(&over, 1, MAX).unwrap_err();
        assert!(err.message.contains("admission cap"));
        let over = format!(
            "{{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"archive\",\"bytes\":{}}}",
            MAX * 16 + 1
        );
        assert!(Request::parse(&over, 1, MAX).is_err());
        // At the cap is fine.
        let at = format!(
            "{{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"corrupt\",\"count\":{MAX}}}"
        );
        assert!(Request::parse(&at, 1, MAX).is_ok());
    }

    #[test]
    fn load_estimate_is_bounded_by_batch_size() {
        let req = Request::parse(
            "{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"generate\",\"clusters\":10}",
            1,
            MAX,
        )
        .unwrap();
        assert_eq!(req.load_estimate(256), 10);
        assert_eq!(req.load_estimate(4), 4);
        let req = Request::parse(
            "{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"archive\"}",
            1,
            MAX,
        )
        .unwrap();
        assert_eq!(req.load_estimate(256), 256);
    }

    #[test]
    fn deadline_parses_and_zero_is_rejected() {
        let line = "{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"generate\",\"deadline\":12}";
        let req = Request::parse(line, 1, MAX).unwrap();
        assert_eq!(req.deadline, Some(12));
        let line = "{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"generate\"}";
        assert_eq!(Request::parse(line, 1, MAX).unwrap().deadline, None);
        let zero = "{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"generate\",\"deadline\":0}";
        let err = Request::parse(zero, 1, MAX).unwrap_err();
        assert!(err.message.contains("at least 1"));
        assert_eq!(err.tenant.as_deref(), Some("t"));
        let bad = "{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"generate\",\"deadline\":\"x\"}";
        assert!(Request::parse(bad, 1, MAX).is_err());
    }

    #[test]
    fn work_estimate_is_uncapped_total_work() {
        let req = Request::parse(
            "{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"generate\",\"clusters\":2000}",
            1,
            MAX,
        )
        .unwrap();
        assert_eq!(req.work_estimate(), 2000);
        assert_eq!(req.load_estimate(64), 64);
        let req = Request::parse(
            "{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"archive\",\"bytes\":320}",
            1,
            MAX,
        )
        .unwrap();
        assert_eq!(req.work_estimate(), 20);
        let req = Request::parse(
            "{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"simulate\",\
             \"dataset\":\">AC\\nAC\\n>GT\\nGT\\n\"}",
            1,
            MAX,
        )
        .unwrap();
        assert_eq!(req.work_estimate(), 2);
    }

    #[test]
    fn unknown_model_and_algorithm_are_protocol_errors() {
        let bad_model =
            "{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"simulate\",\"dataset\":\">A\\n\",\
             \"model\":\"quantum\"}";
        assert!(Request::parse(bad_model, 1, MAX)
            .unwrap_err()
            .message
            .contains("quantum"));
        let bad_algo =
            "{\"tenant\":\"t\",\"request_id\":\"r\",\"op\":\"evaluate\",\"dataset\":\">A\\n\",\
             \"algorithm\":\"oracle\"}";
        assert!(Request::parse(bad_algo, 1, MAX)
            .unwrap_err()
            .message
            .contains("oracle"));
    }
}
