//! Similarity metrics and accuracy evaluation for DNA-storage simulation.
//!
//! The paper evaluates simulator fidelity by how closely reconstruction
//! accuracy on simulated data tracks real data, and visualises error
//! behaviour through positional profiles. This crate provides:
//!
//! * [`levenshtein`] / [`levenshtein_within`] — edit distance, full and
//!   banded (the scalar reference implementation, and the oracle the
//!   bit-parallel kernels are differentially tested against);
//! * [`myers`] — Myers' bit-parallel edit-distance kernels over
//!   [`PackedStrand`](dnasim_core::PackedStrand)s, 64 DP cells per word
//!   (used by clustering and medoid selection);
//! * [`bank`] — the vectorised multi-pattern tier: a [`PatternBank`]
//!   advances 4–8 patterns per text column via AVX2 (runtime detected,
//!   exact scalar fallback everywhere else);
//! * [`qgram`] — the q-gram counting lower bound on edit distance, used
//!   as an error-ball prefilter in front of the kernels (its batched
//!   presence-mask screen over a [`ScreenArena`] counts bits with AVX2 or
//!   AVX-512 VPOPCNTDQ where the same runtime dispatch allows);
//! * [`hamming`] / [`hamming_error_positions`] — position-wise comparison,
//!   where indels propagate (the "Hamming" figures);
//! * [`gestalt_score`] / [`matching_blocks`] / [`gestalt_error_positions`] —
//!   Ratcliff–Obershelp gestalt pattern matching, which re-aligns strands
//!   and exposes only the *sources* of misalignment (the "gestalt-aligned"
//!   figures);
//! * [`AccuracyReport`] — per-strand and per-character accuracy, the
//!   paper's headline metrics;
//! * [`PositionalProfile`] — per-position error histograms behind every
//!   figure;
//! * [`chi_square_distance`] — χ² distance between error histograms.
//!
//! # Examples
//!
//! ```
//! use dnasim_core::Strand;
//! use dnasim_metrics::{gestalt_score, hamming, levenshtein};
//!
//! let reference: Strand = "AGTC".parse()?;
//! let read: Strand = "ATC".parse()?;
//! assert_eq!(levenshtein(reference.as_bases(), read.as_bases()), 1);
//! assert_eq!(hamming(&reference, &read), 3);
//! assert!(gestalt_score(reference.as_bases(), read.as_bases()) > 0.8);
//! # Ok::<(), dnasim_core::ParseStrandError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accuracy;
pub mod bank;
#[cfg(target_arch = "x86_64")]
mod bank_simd;
mod chi2;
mod gestalt;
mod hamming;
mod levenshtein;
mod mask_popcount;
pub mod myers;
mod profiles;
pub mod qgram;

pub use accuracy::AccuracyReport;
pub use bank::{
    bank_distances_with, bank_within_with, set_simd_mode, simd_tier_name, BankScratch,
    PatternBank, SimdMode, MAX_LANES,
};
pub use chi2::{chi_square_distance, normalize_histogram};
pub use gestalt::{gestalt_error_positions, gestalt_score, matching_blocks, MatchingBlock};
pub use hamming::{hamming, hamming_error_positions, positional_matches};
pub use levenshtein::{levenshtein, levenshtein_within, normalized_levenshtein};
pub use myers::MyersScratch;
pub use profiles::{PositionalProfile, ProfileKind};
pub use qgram::{QGramProfile, QGramScratch, ScreenArena};
