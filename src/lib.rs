//! `dnasim` — an end-to-end simulator for the noisy channels of DNA data
//! storage.
//!
//! DNA storage writes digital data as synthesized DNA strands and reads it
//! back by sequencing; both directions are noisy, and real wet-lab
//! experiments are slow and expensive. `dnasim` lets you iterate *in
//! silico*: generate realistic noisy datasets, learn channel models from
//! real data, run trace-reconstruction algorithms, and evaluate
//! error-correction pipelines — reproducing the evaluation of
//! *Simulating Noisy Channels in DNA Storage* end to end.
//!
//! This crate is a facade that re-exports the workspace:
//!
//! * [`core`] — strands, clusters, datasets, edit operations;
//! * [`metrics`] — Levenshtein / Hamming / gestalt metrics, accuracy;
//! * [`profile`] — data-driven error profiling ([`profile::LearnedModel`]);
//! * [`channel`] — the simulator suite and coverage/spatial models;
//! * [`cluster`] — read clustering;
//! * [`reconstruct`] — BMA, Divider BMA, Iterative, Two-Way Iterative;
//! * [`codec`] — binary↔DNA codecs, Reed–Solomon, XOR parity, layout;
//! * [`dataset`] — the Nanopore twin and cluster-file I/O;
//! * [`pipeline`] — experiment protocols and the archival round trip;
//! * [`faults`] — deterministic fault injection and the chaos suite;
//! * [`serve`] — the multi-tenant batch RPC tier behind `dnasim serve`.
//!
//! # Quick start
//!
//! ```
//! use dnasim::channel::{CoverageModel, NaiveModel, Simulator};
//! use dnasim::core::rng::seeded;
//! use dnasim::core::Strand;
//! use dnasim::pipeline::evaluate_reconstruction;
//! use dnasim::reconstruct::BmaLookahead;
//!
//! // Simulate a noisy dataset over 20 random references...
//! let mut rng = seeded(42);
//! let references: Vec<Strand> = (0..20).map(|_| Strand::random(110, &mut rng)).collect();
//! let simulator = Simulator::new(
//!     NaiveModel::with_total_rate(0.03),
//!     CoverageModel::Fixed(8),
//! );
//! let dataset = simulator.simulate(&references, &mut rng);
//!
//! // ...and reconstruct it.
//! let report = evaluate_reconstruction(&dataset, &BmaLookahead::default());
//! assert!(report.per_char_percent() > 99.0);
//! ```

#![warn(missing_docs)]

pub use dnasim_channel as channel;
pub use dnasim_cluster as cluster;
pub use dnasim_codec as codec;
pub use dnasim_core as core;
pub use dnasim_dataset as dataset;
pub use dnasim_faults as faults;
pub use dnasim_metrics as metrics;
pub use dnasim_par as par;
pub use dnasim_pipeline as pipeline;
pub use dnasim_profile as profile;
pub use dnasim_reconstruct as reconstruct;
pub use dnasim_serve as serve;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use dnasim_channel::{
        CoverageModel, DnaSimulatorModel, ErrorModel, FullHistogramModel, KeoliyaModel,
        NaiveModel, ParametricModel, Simulator, SimulatorLayer, SpatialDistribution,
    };
    pub use dnasim_cluster::{GreedyClusterer, StreamingClusterer};
    pub use dnasim_core::rng::{seeded, SeedSequence, SimRng};
    pub use dnasim_core::{
        pump, pump_prefetch, resident_reads, Base, Batch, Cluster, ClusterSink, ClusterSource,
        Dataset, EditOp, EditScript, ErrorKind, PrefetchSource, Strand, WindowStats,
    };
    pub use dnasim_dataset::{
        fnv1a64, read_dataset, read_dataset_auto, write_dataset, write_dataset_format,
        AnyDatasetReader, AnyDatasetWriter, BinaryDatasetReader, BinaryDatasetWriter,
        DatasetReader, DatasetWriter, Format, NanoporeTwinConfig,
    };
    pub use dnasim_metrics::{gestalt_score, hamming, levenshtein, AccuracyReport};
    pub use dnasim_par::{RunCtx, ThreadPool};
    pub use dnasim_pipeline::{
        archive_round_trip, archive_round_trip_in, evaluate_reconstruction,
        evaluate_reconstruction_in, fixed_coverage_protocol, simulator_fidelity, ArchiveConfig,
        Experiments, FilePool, PoolConfig,
    };
    pub use dnasim_profile::{ErrorStats, LearnedModel, TieBreak};
    pub use dnasim_reconstruct::{
        BmaLookahead, DividerBma, Iterative, MajorityVote, MsaReconstructor,
        TraceReconstructor, TwoWayIterative, WeightedIterative,
    };
}
