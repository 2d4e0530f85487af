//! Trace-reconstruction algorithms for DNA storage.
//!
//! After sequencing and clustering, each reference strand is represented by
//! a cluster of noisy reads; a trace-reconstruction algorithm maps the
//! cluster back to an estimate of the reference. This crate implements the
//! suite the paper evaluates — [`BmaLookahead`] (two-way Bitwise Majority
//! Alignment with look-ahead), [`DividerBma`], and [`Iterative`] — plus the
//! [`TwoWayIterative`] improvement the paper proposes, a [`MajorityVote`]
//! control, and the [`OneWayBma`] ablation.
//!
//! The algorithms' *error-propagation shapes* matter as much as their
//! accuracy: one-way scanning propagates errors linearly toward the strand
//! end, two-way execution folds them into the middle. The paper's central
//! sensitivity result (§3.4) is built on exactly these shapes.
//!
//! # Examples
//!
//! ```
//! use dnasim_core::Strand;
//! use dnasim_reconstruct::{BmaLookahead, TraceReconstructor};
//!
//! let reference: Strand = "ACGTACGTACGTACGTACGT".parse()?;
//! let reads = vec![
//!     reference.clone(),
//!     "ACGTACGACGTACGTACGT".parse()?, // one deletion
//!     reference.clone(),
//! ];
//! let estimate = BmaLookahead::default().reconstruct(&reads, 20);
//! assert_eq!(estimate, reference);
//! # Ok::<(), dnasim_core::ParseStrandError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod algorithms;
mod consensus;
mod msa;
mod parallel;
mod scan;
mod weighted;

pub use algorithms::{
    paper_suite, BmaLookahead, DividerBma, Iterative, MajorityVote, OneWayBma,
    TraceReconstructor, TwoWayIterative,
};
pub use consensus::{
    anchored_one_way_bma, anchored_one_way_bma_filtered, one_way_bma, one_way_bma_filtered,
    positional_majority, LookaheadFilterStats,
};
pub use msa::MsaReconstructor;
pub use parallel::reconstruct_clusters;
pub use weighted::WeightedIterative;
