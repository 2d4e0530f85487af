//! `Iterative` and `TwoWayIterative` against their pre-shortcut loops:
//! an oracle that always runs round 1's anchored rescan and always
//! refines the two-way stitch must give the same strand bit for bit.
//!
//! The corpus covers naive-channel and Nanopore-twin reads at 110 and
//! 176 nt, 0–15% error, coverage 0–40, look-ahead 0–17, `max_rounds`
//! 0–4, design length 0, reads shorter and longer than the design length
//! and unanimous clusters.

use dnasim_channel::{ErrorModel, NaiveModel};
use dnasim_core::rng::{seeded, RngExt, SimRng};
use dnasim_core::Strand;
use dnasim_dataset::GroundTruthChannel;

use super::{Iterative, TraceReconstructor, TwoWayIterative};
use crate::consensus::{AlignmentVotes, LookaheadFilterStats};
use crate::scan::ReadRows;

/// `Iterative` as it ran before its certified rescan: every round
/// rescans.
fn iterative_oracle(
    algo: &Iterative,
    votes: &mut AlignmentVotes,
    rows: &ReadRows,
    reads: &[Strand],
    strand_len: usize,
) -> Strand {
    let mut stats = LookaheadFilterStats::default();
    let mut estimate = rows.scan(None, 0, strand_len, &mut stats);
    for _ in 0..algo.max_rounds {
        let rescanned = rows.scan(Some(&estimate), 2, strand_len, &mut stats);
        let refined = votes.refine(&rescanned, reads, strand_len);
        if refined == estimate {
            break;
        }
        estimate = refined;
    }
    estimate
}

/// `TwoWayIterative` as it ran before its reused stitch refine: the
/// stitch is always refined.
fn two_way_oracle(algo: &Iterative, reads: &[Strand], strand_len: usize) -> Strand {
    let votes = &mut AlignmentVotes::new();
    let rows = ReadRows::new(reads, algo.lookahead);
    let forward = iterative_oracle(algo, votes, &rows, reads, strand_len);
    let reversed: Vec<Strand> = reads.iter().map(Strand::reversed).collect();
    let rows = ReadRows::reversed(reads, algo.lookahead);
    let backward = iterative_oracle(algo, votes, &rows, &reversed, strand_len);
    let head_len = strand_len.div_ceil(2);
    let mut out = forward.substrand(0..head_len);
    out.extend(
        backward
            .substrand(0..strand_len - head_len)
            .reversed()
            .iter(),
    );
    votes.refine(&out, reads, strand_len)
}

/// How often each shortcut applied over the corpus, and how often not.
#[derive(Debug, Default)]
struct Seen {
    certified: usize,
    rescanned: usize,
    reused: usize,
    refined: usize,
}

/// Compares both reconstructors with their oracles on one cluster, and
/// records which shortcuts the forward pass could take.
fn check(reads: &[Strand], strand_len: usize, algo: Iterative, seen: &mut Seen) {
    let context = format!(
        "{} reads, strand_len {strand_len}, lookahead {}, max_rounds {}",
        reads.len(),
        algo.lookahead,
        algo.max_rounds
    );
    let rows = ReadRows::new(reads, algo.lookahead);
    let want = iterative_oracle(&algo, &mut AlignmentVotes::new(), &rows, reads, strand_len);
    assert_eq!(
        algo.reconstruct(reads, strand_len),
        want,
        "Iterative: {context}"
    );
    let two_way = TwoWayIterative { inner: algo };
    assert_eq!(
        two_way.reconstruct(reads, strand_len),
        two_way_oracle(&algo, reads, strand_len),
        "TwoWayIterative: {context}"
    );

    let mut stats = LookaheadFilterStats::default();
    if algo.max_rounds > 0 {
        if rows.scan_certified(strand_len, &mut stats).1 {
            seen.certified += 1;
        } else {
            seen.rescanned += 1;
        }
    }
    let (forward, refined_from) =
        algo.reconstruct_with(&mut AlignmentVotes::new(), &rows, reads, strand_len);
    if let Some(refined_from) = refined_from {
        let head_len = strand_len.div_ceil(2);
        // The stitch is the refined strand exactly when both halves are.
        let reversed: Vec<Strand> = reads.iter().map(Strand::reversed).collect();
        let back_rows = ReadRows::reversed(reads, algo.lookahead);
        let (backward, _) = algo.reconstruct_with(
            &mut AlignmentVotes::new(),
            &back_rows,
            &reversed,
            strand_len,
        );
        let mut stitch = forward.substrand(0..head_len);
        stitch.extend(
            backward
                .substrand(0..strand_len - head_len)
                .reversed()
                .iter(),
        );
        if stitch == refined_from {
            seen.reused += 1;
        } else {
            seen.refined += 1;
        }
    }
}

/// A read of `reference` cut, extended or emptied at random.
fn reshape(read: Strand, rng: &mut SimRng) -> Strand {
    match rng.random_range(0..10u32) {
        0 => read.substrand(0..rng.random_range(0..=read.len())),
        1 => {
            let extra = Strand::random(rng.random_range(1..12), rng);
            read.concat(&extra)
        }
        _ => read,
    }
}

#[test]
fn shortcuts_match_the_always_rescan_oracle() {
    let mut rng = seeded(0x17e2);
    let mut seen = Seen::default();
    for case in 0..360 {
        let len = [110, 176][case % 2];
        let rate = [0.0, 0.01, 0.03, 0.06, 0.1, 0.15][rng.random_range(0..6usize)];
        let coverage = [0usize, 1, 2, 3, 5, 8, 12, 20, 40][rng.random_range(0..9usize)];
        let reference = Strand::random(len, &mut rng);
        let twin = case % 4 >= 2;
        let reads: Vec<Strand> = (0..coverage)
            .map(|_| {
                let read = if twin {
                    GroundTruthChannel::new(rate, len).corrupt(&reference, &mut rng)
                } else {
                    NaiveModel::with_total_rate(rate).corrupt(&reference, &mut rng)
                };
                reshape(read, &mut rng)
            })
            .collect();
        let algo = Iterative {
            lookahead: [0, 1, 2, 3, 5, 9, 17][rng.random_range(0..7usize)],
            max_rounds: rng.random_range(0..=4usize),
        };
        let strand_len = [len, len - 7, len + 9, 0][rng.random_range(0..4usize)];
        check(&reads, strand_len, algo, &mut seen);
    }
    assert!(seen.certified > 0 && seen.rescanned > 0, "{seen:?}");
    assert!(seen.reused > 0 && seen.refined > 0, "{seen:?}");
}

#[test]
fn shortcuts_match_the_oracle_on_unanimous_and_tiny_clusters() {
    let mut rng = seeded(0xa11);
    let mut seen = Seen::default();
    let reference = Strand::random(40, &mut rng);
    let short: Strand = reference.substrand(0..25);
    let clusters: Vec<Vec<Strand>> = vec![
        vec![],
        vec![Strand::new(); 3],
        vec![reference.clone(); 5],
        vec![short.clone(); 4],
        vec![reference.concat(&short); 3],
        vec![reference.clone(), short.clone()],
        vec![short, reference.clone(), reference],
    ];
    for reads in &clusters {
        for strand_len in [0, 1, 25, 40, 52] {
            for lookahead in [0, 2, 9] {
                for max_rounds in 0..=4 {
                    let algo = Iterative {
                        lookahead,
                        max_rounds,
                    };
                    check(reads, strand_len, algo, &mut seen);
                }
            }
        }
    }
    assert!(seen.certified > 0 && seen.reused > 0, "{seen:?}");
}
