//! Noisy-channel models for DNA data storage.
//!
//! DNA storage subjects every strand to stochastic insertion, deletion and
//! substitution errors across synthesis, PCR, storage and sequencing. This
//! crate implements the simulators the paper builds and compares:
//!
//! * [`NaiveModel`] — three aggregate probabilities;
//! * [`DnaSimulatorModel`] — DNASimulator's Algorithm 1 (per-base
//!   dictionary, position-independent, long deletions);
//! * [`KeoliyaModel`] — the paper's layered data-driven simulator
//!   (conditional probabilities → long deletions → spatial skew →
//!   second-order errors), parameterised by a
//!   [`LearnedModel`](dnasim_profile::LearnedModel);
//! * [`ParametricModel`] — controlled `(rate, shape)` channels for the
//!   sensitivity analysis;
//! * [`SpatialDistribution`] — uniform / terminal-skew / A-shaped /
//!   V-shaped error placement at constant aggregate rate;
//! * [`CoverageModel`] — fixed / custom / negative-binomial / normal /
//!   Poisson reads-per-strand distributions;
//! * [`Simulator`] — drives any model over reference strands to produce a
//!   clustered [`Dataset`](dnasim_core::Dataset);
//! * [`stages`] — the composable multi-stage pipeline
//!   (synthesis → decay → PCR → sequencing) that §4.2 calls for.
//!
//! # Examples
//!
//! ```
//! use dnasim_channel::{CoverageModel, NaiveModel, Simulator};
//! use dnasim_core::{rng::seeded, Strand};
//!
//! let mut rng = seeded(42);
//! let references: Vec<Strand> = (0..10).map(|_| Strand::random(110, &mut rng)).collect();
//! let simulator = Simulator::new(
//!     NaiveModel::with_total_rate(0.059),
//!     CoverageModel::negative_binomial(26.97, 4.0),
//! );
//! let dataset = simulator.simulate(&references, &mut rng);
//! assert_eq!(dataset.len(), 10);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod baseline;
mod coverage;
mod histogram;
mod keoliya;
mod model;
mod parametric;
mod sampler;
mod spatial;
pub mod stages;

pub use baseline::{DnaSimEntry, DnaSimulatorModel, NaiveModel};
pub use coverage::CoverageModel;
pub use histogram::FullHistogramModel;
pub use keoliya::{KeoliyaModel, SimulatorLayer};
pub use model::{ErrorModel, IdentityModel, Simulator};
pub use parametric::ParametricModel;
pub use sampler::{chain_thresholds, uniform_threshold};
pub use spatial::{SpatialDistribution, TerminalSkew};
