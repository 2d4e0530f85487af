//! Deterministic fault injection for the dnasim write→store→read pipeline.
//!
//! Real cluster files arrive truncated, bit-flipped, CRLF-mangled, and
//! sprinkled with garbage; learned models arrive with NaN or out-of-range
//! parameters; users configure degenerate Reed–Solomon codes. A robust
//! simulator must answer every one of those with a typed error or a
//! quarantined cluster — never a panic. This crate makes that property
//! testable:
//!
//! * [`FaultKind`] — a closed grid of adversarial conditions, each injected
//!   deterministically from a seed;
//! * [`corrupt_cluster_text`] / [`corrupt_model_text`] /
//!   [`degenerate_rs_params`] — the injectors themselves, usable directly
//!   in tests;
//! * [`FaultyReader`] — an [`std::io::Read`] wrapper that truncates, flips
//!   bits in, or injects I/O errors into any byte stream;
//! * [`ChaosSuite`] — a runner sweeping the full fault × seed grid and
//!   classifying every case as tolerated, typed error, quarantined, or
//!   (the bug being hunted) a panic.
//!
//! # Examples
//!
//! ```
//! use dnasim_faults::ChaosSuite;
//! use dnasim_par::ThreadPool;
//!
//! let report = ChaosSuite::smoke().run(&ThreadPool::serial());
//! assert!(report.is_clean(), "{}", report.summary());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chaos;
mod corpus;
mod inject;
mod reader;
mod stream_faults;

pub use chaos::{ChaosOutcome, ChaosReport, ChaosSuite, Verdict};
pub use corpus::{
    fuzz_binary_corpus, CorpusFuzzOutcome, CorpusFuzzReport, CorpusMutation, CorpusVerdict,
};
pub use inject::{
    corrupt_cluster_text, corrupt_model_text, degenerate_rs_params, FaultCategory, FaultKind,
};
pub use reader::{FaultyReader, ReaderFaultPlan};
pub use stream_faults::{FailingSink, StallingSource};
