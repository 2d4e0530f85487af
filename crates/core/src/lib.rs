//! Core types for simulating noisy channels in DNA data storage.
//!
//! DNA storage writes digital data as synthesized DNA *strands* over the
//! alphabet Σ = {A, C, G, T} and reads it back by sequencing. Both
//! directions are noisy: the channel `(Σ_L)^N → (Σ*)^M` subjects strands to
//! insertions, deletions and substitutions (IDS errors), and produces `M ≥
//! N` variable-length noisy reads grouped into *clusters* per reference
//! strand.
//!
//! This crate provides the shared vocabulary for the `dnasim` workspace:
//!
//! * [`Base`] — the four-letter DNA alphabet;
//! * [`Strand`] — owned base sequences (references and noisy reads);
//! * [`PackedStrand`] — 2-bit packed strands with per-base equality masks
//!   for the bit-parallel edit-distance kernels;
//! * [`Cluster`] / [`Dataset`] — reads grouped per reference strand;
//! * [`Batch`] / [`ClusterSource`] / [`ClusterSink`] — bounded-memory
//!   streaming flow over the same clusters (see [`stream`]);
//! * [`Budget`] / [`CancelToken`] — deterministic work metering and
//!   cooperative cancellation (see [`budget`]);
//! * [`EditOp`] / [`EditScript`] — the IDS error vocabulary;
//! * [`DnasimError`] — the workspace-wide failure taxonomy;
//! * [`rng`] — deterministic seeding utilities;
//! * [`json`] — the minimal JSON parser and writer behind every
//!   machine-readable output;
//! * [`tech`] — the sequencing-technology survey (paper Table 1.1).
//!
//! # Examples
//!
//! ```
//! use dnasim_core::{Cluster, Dataset, Strand};
//! use dnasim_core::rng::seeded;
//!
//! let mut rng = seeded(42);
//! let reference = Strand::random(110, &mut rng);
//! let cluster = Cluster::new(reference.clone(), vec![reference.clone()]);
//! let dataset = Dataset::from_clusters(vec![cluster]);
//! assert_eq!(dataset.mean_coverage(), 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod base;
pub mod budget;
mod cluster;
mod dataset;
mod edit;
mod error;
pub mod json;
mod packed;
pub mod rng;
pub mod stream;
pub mod tech;

mod strand;

pub use base::{Base, ParseBaseError};
pub use budget::{Budget, CancelToken};
pub use cluster::Cluster;
pub use dataset::Dataset;
pub use edit::{ApplyScriptError, EditOp, EditScript, ErrorKind, Mismatch};
pub use error::DnasimError;
pub use packed::PackedStrand;
pub use strand::{ParseStrandError, Strand};
pub use stream::{
    checked_batch_size, fold_windows, produce_windows, pump, pump_budgeted, pump_prefetch,
    resident_reads, Batch, ClusterSink, ClusterSource, DatasetStream, NullSink,
    OwnedDatasetStream, PrefetchSource, WindowStats,
};
