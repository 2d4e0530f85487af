//! End-to-end orchestration and the paper's experiment protocols.
//!
//! This crate ties the workspace together:
//!
//! * [`evaluate_reconstruction`] / [`post_reconstruction_profiles`] /
//!   [`pre_reconstruction_profiles`] — dataset-level evaluation, with
//!   reconstruction fanned out on the environment's thread pool;
//! * [`fixed_coverage_protocol`] — the §3.2 first-N-reads protocol;
//! * [`Experiments`] — one method per table and figure of the paper
//!   (Tables 2.1–3.2, Figs. 3.2–3.10, the sensitivity grid, and the
//!   two-way-Iterative extension);
//! * [`archive_round_trip`] — the full write→store→read pipeline
//!   composing codec, multi-stage channel, clustering and reconstruction;
//! * [`FilePool`] — primer-addressed random access in a shared pool,
//!   which stores and retrieves through the archive's one encode →
//!   decode → erasure core.
//!
//! Each fan-out stage has one entry point taking a
//! [`RunCtx`](dnasim_par::RunCtx) — [`evaluate_reconstruction_in`],
//! [`archive_round_trip_in`] — that runs source→batch→pool→sink with a
//! bounded window of clusters and byte-identical output (DESIGN.md §11,
//! §21). Reconstruction is pure, so every evaluation, whole-dataset or
//! streamed, is byte-identical at every thread count (DESIGN.md §20).
//!
//! # Examples
//!
//! ```
//! use dnasim_dataset::NanoporeTwinConfig;
//! use dnasim_pipeline::Experiments;
//!
//! let mut config = NanoporeTwinConfig::small();
//! config.cluster_count = 40;
//! let experiments = Experiments::new(&config);
//! let table = experiments.table_2_2();
//! assert_eq!(table.rows.len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod archive;
mod evaluate;
mod fidelity;
mod random_access;
mod experiments;
mod table;

pub use archive::{
    archive_round_trip, archive_round_trip_in, archive_round_trip_stream, ArchiveConfig,
    ArchiveError, ArchiveMode, ArchiveReport, ErasureScheme,
};
pub use fidelity::{simulator_fidelity, FidelityReport};
pub use random_access::{FilePool, PoolConfig, PoolError};
pub use evaluate::{
    evaluate_reconstruction, evaluate_reconstruction_in, fixed_coverage_protocol,
    post_reconstruction_profiles, pre_reconstruction_profiles,
};
pub use experiments::{cross_dataset_robustness, references_of, Experiments, SensitivityPoint};
pub use table::{AccuracyCell, Table, TableRow};
