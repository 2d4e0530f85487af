//! Read clustering for DNA-storage pipelines.
//!
//! Sequencing returns an unordered pool of noisy reads; before trace
//! reconstruction, reads must be grouped into clusters of copies of the
//! same reference. Evaluation can either use *perfect* (pseudo-)clustering
//! — treating the simulator's ordered output as already grouped, isolating
//! reconstruction behaviour from clustering artifacts — or run a real
//! clusterer over the shuffled pool.
//!
//! * [`perfect_clustering`] — the explicit identity used by the paper's
//!   evaluation protocol;
//! * [`GreedyClusterer`] — single-pass greedy clustering with a
//!   [`QGramSignature`] MinHash prefilter, a q-gram error-ball lower
//!   bound that discharges hopeless candidates before any kernel runs,
//!   and banded edit-distance confirmation batched through the
//!   multi-pattern SIMD kernel tier;
//! * [`StreamingClusterer`] — the same decision core driven *online*:
//!   push reads window by window, with each window's per-read work fanned
//!   out on a worker pool, keep only per-bucket representatives resident
//!   (`O(clusters)`, never `O(reads)`), get memberships, reference
//!   matches and counters byte-identical to [`GreedyClusterer`] at any
//!   batch size and thread count, with optional founding-time reference
//!   matching for the imperfect archive path;
//! * [`ClusterStats`] — per-run counters (candidates proposed, pruned by
//!   the error ball, kernel calls, lanes filled), returned by value from
//!   every clustering pass.
//!
//! # Examples
//!
//! ```
//! use dnasim_cluster::GreedyClusterer;
//! use dnasim_core::Strand;
//!
//! let a: Strand = "ACGTACGTACGTACGTACGT".parse()?;
//! let pool = vec![a.clone(), a.clone(), a];
//! let (clusters, stats) = GreedyClusterer::default().cluster(&pool);
//! assert_eq!(clusters.len(), 1);
//! assert_eq!(stats.reads, 3);
//! # Ok::<(), dnasim_core::ParseStrandError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod buckets;
mod greedy;
mod signature;
mod stats;
mod streaming;

pub use greedy::{perfect_clustering, GreedyClusterer};
pub use signature::QGramSignature;
pub use stats::ClusterStats;
pub use streaming::{StreamAssignment, StreamingClusterer};
