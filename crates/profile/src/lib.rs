//! Data-driven error profiling for DNA-storage channels.
//!
//! Existing simulators hard-code their error dictionaries; this crate
//! implements the paper's data-driven alternative: given real clustered
//! sequencing data, recover the most-likely error sequence for every read
//! (the Appendix B edit-distance-operations algorithm), accumulate the
//! statistics that matter ([`ErrorStats`]), and distil them into a
//! [`LearnedModel`] that parameterises every simulator layer — conditional
//! per-base probabilities, long deletions, the spatial error distribution,
//! and second-order (base-specific) errors.
//!
//! # Examples
//!
//! ```
//! use dnasim_core::{rng::seeded, Cluster, Dataset, Strand};
//! use dnasim_profile::{ErrorStats, LearnedModel, TieBreak};
//!
//! let reference: Strand = "ACGTACGTAC".parse()?;
//! let cluster = Cluster::new(
//!     reference.clone(),
//!     vec!["ACGTACGTA".parse()?, "ACGTTACGTAC".parse()?],
//! );
//! let dataset = Dataset::from_clusters(vec![cluster]);
//!
//! let mut rng = seeded(7);
//! let stats = ErrorStats::from_dataset(&dataset, TieBreak::Random, &mut rng);
//! let model = LearnedModel::from_stats(&stats, 10);
//! assert!(model.aggregate_error_rate > 0.0);
//! # Ok::<(), dnasim_core::ParseStrandError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod editops;
mod model;
mod pass;
mod persist;
mod stats;

pub use editops::{edit_ops_with, edit_script, edit_script_with, EditScratch, TieBreak};
pub use model::{
    BaseErrorRates, LearnedModel, LongDeletionParams, ModelValidationError, SecondOrderError,
};
pub use pass::{cluster_pairs, profile_pairs, ProfilePass, ReadPair};
pub use persist::ParseModelError;
pub use stats::{ErrorStats, SecondOrderStat};
