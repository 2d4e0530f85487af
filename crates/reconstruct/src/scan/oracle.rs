//! The unfiltered one-way look-ahead scan: the oracle the scan kernel
//! ([`ReadRows::scan`](super::ReadRows::scan)) is differentially tested
//! against, in `scan/differential.rs`, `consensus.rs`'s tests and the
//! Iterative oracle of `vote_differential.rs`.

use dnasim_core::{Base, Strand};

use super::ScanStats;
use crate::consensus::VoteTally;

impl ScanStats {
    /// Sums another run's counters into this one.
    pub(crate) fn absorb(&mut self, other: &ScanStats) {
        self.unanimous_clusters += other.unanimous_clusters;
        self.skipped_windows += other.skipped_windows;
        self.scored_windows += other.scored_windows;
    }
}

/// One-way Bitwise Majority Alignment with a look-ahead window.
///
/// Scans output positions left to right keeping a pointer into every read.
/// Each column takes the majority of the pointed-at symbols; reads that
/// disagree are classified as substitution / deletion / insertion by
/// scoring their next `lookahead` symbols against the *future majority*
/// (the majority of the other reads' upcoming symbols), and their pointer
/// is advanced accordingly. Errors therefore propagate only forward — the
/// linear error profile the paper measures for one-way algorithms.
pub(crate) fn one_way_bma(reads: &[Strand], strand_len: usize, lookahead: usize) -> Strand {
    anchored_one_way_bma(reads, None, 0, strand_len, lookahead)
}

/// [`one_way_bma`] with an optional *anchor*: a previous estimate whose
/// base at each output position casts `anchor_weight` extra votes.
///
/// Re-scanning with the last estimate as anchor stabilises pointer drift:
/// reads that lost sync re-lock onto the anchor's context, while genuine
/// anchor errors are outvoted by the reads. Iterative reconstruction
/// alternates this with alignment-based refinement.
pub(crate) fn anchored_one_way_bma(
    reads: &[Strand],
    anchor: Option<&Strand>,
    anchor_weight: usize,
    strand_len: usize,
    lookahead: usize,
) -> Strand {
    scan_core(reads, anchor, anchor_weight, strand_len, lookahead).0
}

/// The unfiltered one-way scan: the oracle the kernel is tested against.
/// Every column tallies its look-ahead window; the returned counters
/// record which columns the kernel's lazy look-ahead may skip (no read
/// disagrees) and which it must score.
pub(crate) fn scan_core(
    reads: &[Strand],
    anchor: Option<&Strand>,
    anchor_weight: usize,
    strand_len: usize,
    lookahead: usize,
) -> (Strand, ScanStats) {
    let mut stats = ScanStats::default();
    let mut out = Strand::with_capacity(strand_len);
    let mut ptrs: Vec<usize> = vec![0; reads.len()];
    // Look-ahead buffers reused across all output positions: allocating
    // them inside the column loop dominated this scan's cost.
    let mut future: Vec<VoteTally> = vec![VoteTally::new(); lookahead];
    let mut future_majority: Vec<Option<Base>> = vec![None; lookahead];
    for j in 0..strand_len {
        // Column majority (the anchor, when present, casts weighted votes).
        let mut tally = VoteTally::new();
        for (read, &ptr) in reads.iter().zip(&ptrs) {
            if let Some(b) = read.get(ptr) {
                tally.vote(b);
            }
        }
        if let (Some(anchor), true) = (anchor, anchor_weight > 0) {
            if let Some(b) = anchor.get(j) {
                for _ in 0..anchor_weight {
                    tally.vote(b);
                }
            }
        }
        let Some(majority) = tally.winner() else {
            // Every read exhausted: fall back to unaligned column majority
            // for the remaining positions.
            let j = out.len();
            let mut fallback = VoteTally::new();
            for read in reads {
                if let Some(b) = read.get(j) {
                    fallback.vote(b);
                }
            }
            out.push(fallback.winner().unwrap_or(Base::A));
            continue;
        };
        out.push(majority);
        let any_disagree = reads
            .iter()
            .zip(&ptrs)
            .any(|(read, &ptr)| matches!(read.get(ptr), Some(b) if b != majority));
        if any_disagree {
            stats.scored_windows += 1;
        } else {
            stats.skipped_windows += 1;
        }

        // Future majority over the look-ahead window, computed from the
        // reads that *agreed* with this column's majority (their pointers
        // are most likely in sync; drifted reads would pollute the window).
        future.iter_mut().for_each(|t| *t = VoteTally::new());
        for (read, &ptr) in reads.iter().zip(&ptrs) {
            if read.get(ptr) != Some(majority) {
                continue;
            }
            for (k, tally) in future.iter_mut().enumerate() {
                if let Some(b) = read.get(ptr + 1 + k) {
                    tally.vote(b);
                }
            }
        }
        if let (Some(anchor), true) = (anchor, anchor_weight > 0) {
            for (k, tally) in future.iter_mut().enumerate() {
                if let Some(b) = anchor.get(j + 1 + k) {
                    for _ in 0..anchor_weight {
                        tally.vote(b);
                    }
                }
            }
        }
        for (fm, tally) in future_majority.iter_mut().zip(&future) {
            *fm = tally.winner();
        }

        for (read, ptr) in reads.iter().zip(&mut ptrs) {
            match read.get(*ptr) {
                None => {} // exhausted
                Some(b) if b == majority => *ptr += 1,
                Some(_) => {
                    // Hypothesis windows: where would the next symbols sit
                    // if this column's mismatch were a substitution (skip
                    // one), a deletion in the read (skip none), or an
                    // insertion in the read (skip two)?
                    let score = |offset: usize| -> usize {
                        future_majority
                            .iter()
                            .enumerate()
                            .filter(|(k, fm)| {
                                fm.is_some() && read.get(*ptr + offset + k) == **fm
                            })
                            .count()
                    };
                    let sub = score(1);
                    let del = score(0);
                    let ins = score(2);
                    // Ties prefer substitution (keeps the pointer in sync).
                    if sub >= del && sub >= ins {
                        *ptr += 1;
                    } else if del >= ins {
                        // Read is missing the majority base: don't advance.
                    } else {
                        *ptr += 2;
                    }
                }
            }
        }
    }
    (out, stats)
}
