//! The `dnasim serve` batch RPC tier: a long-lived JSONL request loop
//! over the streaming pipeline, with per-request seed namespaces.
//!
//! A serve session reads one JSON object per line from its input,
//! dispatches each to a streaming entry point (twin generation, channel
//! corruption, resimulation, reconstruction evaluation, archive round
//! trips), and writes one JSON response per line in request order.
//! Every request carries a `tenant` and `request_id`; its randomness is
//! the namespace `SeedSequence::derive_seq(tenant).derive_seq(request_id)`
//! off the service root seed, so replaying any request alone — via
//! [`execute`] — reproduces its in-service response byte for byte,
//! independent of the surrounding traffic, the admission windowing, and
//! the worker-thread count.
//!
//! Admission control is load-based: requests accumulate into a bounded
//! in-flight window until either the request cap or the cluster budget
//! (the same quantity [`WindowStats`](dnasim_core::WindowStats) audits)
//! would be exceeded, then the window executes on the worker pool and
//! responses flush in order. Per-request failures reuse the workspace
//! `Degraded`/quarantine taxonomy: a malformed dataset or an
//! over-budget archive answers in place with `"status":"error"` or
//! `"status":"degraded"` and never disturbs its neighbours.
//!
//! # Examples
//!
//! ```
//! use dnasim_par::ThreadPool;
//! use dnasim_serve::{serve, ServeConfig};
//!
//! let input = concat!(
//!     "{\"tenant\":\"acme\",\"request_id\":\"r1\",\"op\":\"generate\",",
//!     "\"clusters\":4,\"len\":30}\n",
//! );
//! let mut output = Vec::new();
//! let report = serve(
//!     input.as_bytes(),
//!     &mut output,
//!     &ServeConfig::default(),
//!     &ThreadPool::new(2),
//! )
//! .expect("session runs");
//! assert_eq!(report.ok, 1);
//! assert_eq!(String::from_utf8(output).unwrap().lines().count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// The JSON codec, re-exported from [`dnasim_core::json`] for protocol
/// clients.
pub use dnasim_core::json;
mod request;
mod server;

pub use request::{AlgorithmSpec, ModelSpec, Op, ProtocolError, Request};
pub use server::{
    execute, execute_with, rejection, serve, serve_with_shutdown, ExecPolicy, Outcome,
    ResponseStatus, ServeConfig, ServeError, ServeReport,
};
