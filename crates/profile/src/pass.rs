//! One profiling pass on the pool, byte-identical to the serial loop.
//!
//! The serial profiler threads one generator through every read in
//! order, and under [`TieBreak::Random`] each read's traceback draws
//! from it. The pass still runs in parallel because the number of draws
//! a read makes is known in advance (DESIGN.md §25):
//!
//! * [`edit_ops_with`](crate::edit_ops_with) draws once at every
//!   traceback step that is not an `Equal`, even when only one
//!   predecessor is minimal;
//! * a minimal path has exactly `d(reference, read)` such steps;
//! * `random_range(0..count)` takes one `next_u64` for `count ∈ {1, 2}`,
//!   and for `count == 3` a second one only when the first is 0 (its
//!   rejection threshold is 1), which happens with probability 2⁻⁶⁴.
//!
//! So before read `i` the generator has been advanced by `Σ_{j<i} d_j`
//! draws. [`profile_pairs`] cuts the reads into chunks, computes every
//! chunk's distance sum on the pool, advances a clone of the generator
//! serially to each chunk's start, records the chunks on the pool and
//! merges them in order. A chunk is accepted only if the state the
//! previous chunk ended in is the one it started from; otherwise it and
//! every later chunk are recorded again, serially, from the true state.
//! The result is the serial loop's whatever the generator does.

use dnasim_core::rng::Rng;
use dnasim_core::{Cluster, Strand};
use dnasim_metrics::myers::{distance_bases_with, MyersScratch};
use dnasim_par::ThreadPool;

use crate::editops::{EditScratch, TieBreak};
use crate::stats::ErrorStats;

/// Reads per chunk: the unit of both pool passes.
const CHUNK_READS: usize = 512;

/// A (reference, read) pair to profile.
pub type ReadPair<'a> = (&'a Strand, &'a Strand);

/// Every (reference, read) pair of `clusters`, in cluster order.
pub fn cluster_pairs(clusters: &[Cluster]) -> impl Iterator<Item = ReadPair<'_>> {
    clusters.iter().flat_map(|cluster| {
        cluster
            .reads()
            .iter()
            .map(move |read| (cluster.reference(), read))
    })
}

/// What [`profile_pairs`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilePass {
    /// The statistics of every pair, as the serial loop records them.
    pub stats: ErrorStats,
    /// Chunks recorded a second time, serially, because the state they
    /// started from was not the one their predecessor ended in (or the
    /// pool failed). 0 when the draw-count argument held.
    pub reruns: usize,
}

/// Records every pair into one [`ErrorStats`] on `pool`, drawing
/// tie-breaks from `rng` exactly as recording the pairs one by one, in
/// order, would: the statistics and the state `rng` is left in are the
/// serial loop's.
///
/// Under [`TieBreak::Random`] a read draws once per edit, so the state
/// before each chunk follows from the chunks' edit distances. The chunks
/// are recorded on the pool from those states, and each is accepted only
/// if it began where its predecessor ended (DESIGN.md §25). A rejected
/// chunk and every later one are recorded again, serially, and counted
/// in [`ProfilePass::reruns`].
///
/// A one-thread pool, or pairs that fit in one chunk, record serially
/// with no distance pass.
pub fn profile_pairs<R>(
    pool: &ThreadPool,
    pairs: &[ReadPair<'_>],
    tie_break: TieBreak,
    rng: &mut R,
) -> ProfilePass
where
    R: Rng + Clone + Eq + Send + Sync,
{
    if pool.threads() == 1 || pairs.len() <= CHUNK_READS {
        let stats = record_chunk(pairs, tie_break, rng);
        return ProfilePass { stats, reruns: 0 };
    }
    let chunks: Vec<&[ReadPair<'_>]> = pairs.chunks(CHUNK_READS).collect();
    // The draws of every chunk but the last: one per edit under a random
    // tie-break, none under a fixed one.
    let draws = match tie_break {
        TieBreak::Random => pool.par_map_len(chunks.len() - 1, |k| {
            let mut scratch = MyersScratch::new();
            chunks[k]
                .iter()
                .map(|(reference, read)| {
                    distance_bases_with(&mut scratch, reference.as_bases(), read.as_bases())
                })
                .sum::<usize>()
        }),
        TieBreak::PreferSubstitution => Ok(vec![0; chunks.len() - 1]),
    };
    let recorded = draws.and_then(|draws| {
        let starts = chunk_starts(rng, draws);
        let recorded = pool.par_map_indexed(&starts, |k, start| {
            let mut state = start.clone();
            let stats = record_chunk(chunks[k], tie_break, &mut state);
            (stats, state)
        })?;
        Ok(starts.into_iter().zip(recorded).collect::<Vec<_>>())
    });
    let mut stats = ErrorStats::new();
    let mut reruns = 0;
    let mut recorded = recorded.unwrap_or_default().into_iter();
    for chunk in chunks {
        match recorded.next() {
            // The chain check: the chunk began where the serial loop
            // stands now, so it drew what the serial loop would have.
            Some((start, (chunk_stats, end))) if reruns == 0 && start == *rng => {
                stats.merge(&chunk_stats);
                *rng = end;
            }
            _ => {
                reruns += 1;
                stats.merge(&record_chunk(chunk, tie_break, rng));
            }
        }
    }
    ProfilePass { stats, reruns }
}

/// Each chunk's start state: `rng` advanced by the draws of every chunk
/// before it.
fn chunk_starts<R: Rng + Clone>(rng: &R, draws: Vec<usize>) -> Vec<R> {
    let mut state = rng.clone();
    let mut starts = Vec::with_capacity(draws.len() + 1);
    starts.push(state.clone());
    for count in draws {
        for _ in 0..count {
            state.next_u64();
        }
        starts.push(state.clone());
    }
    starts
}

/// Records `pairs` one by one on `rng`: the serial loop, run per chunk.
fn record_chunk<R: Rng + ?Sized>(
    pairs: &[ReadPair<'_>],
    tie_break: TieBreak,
    rng: &mut R,
) -> ErrorStats {
    let mut stats = ErrorStats::new();
    // One traceback scratch per chunk: the delta columns are the
    // profiler's dominant allocation.
    let mut scratch = EditScratch::new();
    for &(reference, read) in pairs {
        stats.record_pair_with(&mut scratch, reference, read, tie_break, rng);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::{seeded, RngExt, SimRng};
    use dnasim_core::Base;

    /// The serial loop the core replaces: one pair after another on one
    /// generator. The oracle for every test below.
    fn serial<R: Rng>(pairs: &[(Strand, Strand)], tie_break: TieBreak, rng: &mut R) -> ErrorStats {
        let mut stats = ErrorStats::new();
        let mut scratch = EditScratch::new();
        for (reference, read) in pairs {
            stats.record_pair_with(&mut scratch, reference, read, tie_break, rng);
        }
        stats
    }

    fn borrowed(pairs: &[(Strand, Strand)]) -> Vec<ReadPair<'_>> {
        pairs
            .iter()
            .map(|(reference, read)| (reference, read))
            .collect()
    }

    /// `reference` with up to `edits` random substitutions, deletions and
    /// insertions.
    fn mutate(reference: &Strand, edits: usize, rng: &mut SimRng) -> Strand {
        let mut bases = reference.as_bases().to_vec();
        for _ in 0..edits {
            let at = rng.random_range(0..=bases.len());
            match rng.random_range(0..3u8) {
                0 if at < bases.len() => bases[at] = Base::random(rng),
                1 if at < bases.len() => {
                    bases.remove(at);
                }
                _ => bases.insert(at, Base::random(rng)),
            }
        }
        Strand::from_bases(bases)
    }

    /// `count` pairs cycling through empty references and reads, identical
    /// pairs (`d = 0`), unrelated strands of unequal lengths, swapped
    /// neighbours (three-way ties) and noisy copies, with reference
    /// lengths varying from pair to pair.
    fn pairs(count: usize, seed: u64) -> Vec<(Strand, Strand)> {
        let mut rng = seeded(seed);
        (0..count)
            .map(|i| {
                let reference = Strand::random(rng.random_range(0..48usize), &mut rng);
                let read = match i % 7 {
                    0 => Strand::random(rng.random_range(0..12usize), &mut rng),
                    1 => Strand::new(),
                    2 => reference.clone(),
                    3 => Strand::random(rng.random_range(0..60usize), &mut rng),
                    4 => {
                        let mut bases = reference.as_bases().to_vec();
                        for k in (1..bases.len()).step_by(3) {
                            bases.swap(k - 1, k);
                        }
                        Strand::from_bases(bases)
                    }
                    _ => {
                        let edits = rng.random_range(0..8usize);
                        mutate(&reference, edits, &mut rng)
                    }
                };
                if i % 11 == 0 {
                    (Strand::new(), read)
                } else {
                    (reference, read)
                }
            })
            .collect()
    }

    #[test]
    fn random_tie_breaks_draw_once_per_edit() {
        // The argument the chunk start states rest on.
        for (reference, read) in pairs(600, 1) {
            let (mut rng, mut counted) = (seeded(2), seeded(2));
            ErrorStats::new().record_pair(&reference, &read, TieBreak::Random, &mut rng);
            let d = dnasim_metrics::levenshtein(reference.as_bases(), read.as_bases());
            for _ in 0..d {
                counted.next_u64();
            }
            assert_eq!(rng, counted, "{reference} -> {read}: d = {d}");
        }
    }

    #[test]
    fn core_matches_the_serial_loop() {
        let all = pairs(3 * CHUNK_READS + 5, 3);
        let counts = [
            0,
            1,
            CHUNK_READS - 1,
            CHUNK_READS,
            CHUNK_READS + 1,
            2 * CHUNK_READS + 1,
            all.len(),
        ];
        for tie_break in [TieBreak::Random, TieBreak::PreferSubstitution] {
            for count in counts {
                let mut oracle_rng = seeded(count as u64);
                let oracle = serial(&all[..count], tie_break, &mut oracle_rng);
                for threads in [1, 2, 4] {
                    let mut rng = seeded(count as u64);
                    let pass = profile_pairs(
                        &ThreadPool::new(threads),
                        &borrowed(&all[..count]),
                        tie_break,
                        &mut rng,
                    );
                    let at = format!("{tie_break:?}, {count} reads, {threads} threads");
                    assert_eq!(pass.stats, oracle, "{at}");
                    assert_eq!(rng, oracle_rng, "{at}: final generator state");
                    assert_eq!(pass.reruns, 0, "{at}: the chain check rejected a chunk");
                }
            }
        }
    }

    /// A generator that counts its draws and returns 0 at draw
    /// `zero_at`, so a three-way tie drawn there takes a second draw.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Scripted {
        drawn: u64,
        zero_at: u64,
    }

    impl Rng for Scripted {
        fn next_u64(&mut self) -> u64 {
            let i = self.drawn;
            self.drawn += 1;
            if i == self.zero_at {
                return 0;
            }
            // SplitMix64 of the draw index.
            let mut z = i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) | 1
        }
    }

    #[test]
    fn a_chunk_that_drew_more_than_d_is_rerun_serially() {
        let mut all = pairs(3 * CHUNK_READS, 4);
        // AT -> TA: the traceback's first step is a three-way tie.
        let tie = 100;
        all[tie] = ("AT".parse().unwrap(), "TA".parse().unwrap());
        let mut counter = Scripted {
            drawn: 0,
            zero_at: u64::MAX,
        };
        serial(&all[..tie], TieBreak::Random, &mut counter);
        let start = Scripted {
            drawn: 0,
            zero_at: counter.drawn,
        };

        let mut oracle_rng = start.clone();
        let oracle = serial(&all, TieBreak::Random, &mut oracle_rng);
        let d: usize = all
            .iter()
            .map(|(reference, read)| {
                dnasim_metrics::levenshtein(reference.as_bases(), read.as_bases())
            })
            .sum();
        assert_eq!(oracle_rng.drawn, d as u64 + 1, "the tie did not redraw");
        for threads in [2, 4] {
            let mut rng = start.clone();
            let pass = profile_pairs(
                &ThreadPool::new(threads),
                &borrowed(&all),
                TieBreak::Random,
                &mut rng,
            );
            assert_eq!(pass.stats, oracle, "{threads} threads");
            assert_eq!(rng, oracle_rng, "{threads} threads: final generator state");
            assert!(
                pass.reruns >= 1,
                "{threads} threads: the shifted chunk was accepted"
            );
        }
    }
}
