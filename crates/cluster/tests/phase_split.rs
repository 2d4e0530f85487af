//! Phase-split differential: the clusterer's batch core against a naive
//! one-read-at-a-time oracle.
//!
//! The batch core gathers and screens each read's candidates among the
//! groups founded before its sub-batch in parallel, then searches the
//! groups founded earlier in the same sub-batch serially, and matches
//! founded groups to references in parallel. The oracle below does none
//! of that: it walks every group for every read, joins the first one
//! within the threshold and matches each group to its reference when it
//! is founded, counting candidates, pruned candidates and kernel work the
//! way the one-at-a-time loop would. Every batch shape and thread count
//! must reproduce its memberships, reference attributions and
//! [`ClusterStats`] exactly.

use dnasim_channel::{ErrorModel, NaiveModel};
use dnasim_cluster::{ClusterStats, GreedyClusterer, QGramSignature, StreamingClusterer};
use dnasim_core::rng::{seeded, Rng, SliceRandom};
use dnasim_core::{Base, PackedStrand, Strand};
use dnasim_metrics::bank::MAX_LANES;
use dnasim_metrics::{myers, QGramProfile};
use dnasim_par::ThreadPool;

const BATCHES: [usize; 4] = [1, 7, 64, usize::MAX];
const THREADS: [usize; 3] = [1, 2, 4];

/// A strand as the oracle keeps it: everything a comparison needs.
struct Entry {
    packed: PackedStrand,
    sig: QGramSignature,
    profile: QGramProfile,
}

impl Entry {
    fn new(config: &GreedyClusterer, strand: &Strand) -> Entry {
        Entry {
            packed: PackedStrand::from(strand),
            sig: QGramSignature::new(strand, config.qgram_len, config.sketch_len),
            profile: QGramProfile::new(strand, config.qgram_len),
        }
    }
}

/// What one clustering of a pool produced, per read.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    groups: Vec<usize>,
    references: Vec<Option<usize>>,
    stats: ClusterStats,
}

/// Screens `candidates` of `read` and runs the kernel on the survivors,
/// counting as the clusterer does: one call per bank of up to
/// `MAX_LANES` patterns of one word count, one per empty pattern. Returns
/// each survivor with its distance, if within the threshold.
fn compare(
    config: &GreedyClusterer,
    read: &Entry,
    candidates: Vec<(usize, &Entry)>,
    stats: &mut ClusterStats,
) -> Vec<(usize, Option<usize>)> {
    stats.candidates += candidates.len();
    let survivors: Vec<(usize, &Entry)> = candidates
        .into_iter()
        .filter(|(_, other)| {
            let pruned = config.prefilter
                && read.profile.distance_lower_bound(&other.profile) > config.distance_threshold;
            stats.pruned += usize::from(pruned);
            !pruned
        })
        .collect();
    let mut words: Vec<usize> = survivors.iter().map(|(_, e)| e.packed.words()).collect();
    words.sort_unstable();
    for run in words.chunk_by(|a, b| a == b) {
        stats.kernel_calls += if run[0] == 0 {
            run.len()
        } else {
            run.len().div_ceil(MAX_LANES)
        };
        stats.kernel_lanes += run.len();
    }
    survivors
        .into_iter()
        .map(|(id, other)| {
            (
                id,
                myers::within(&other.packed, &read.packed, config.distance_threshold),
            )
        })
        .collect()
}

/// The one-read-at-a-time oracle.
fn oracle(config: &GreedyClusterer, pool: &[Strand], references: &[Strand]) -> Outcome {
    let refs: Vec<Entry> = references.iter().map(|r| Entry::new(config, r)).collect();
    let mut reps: Vec<Entry> = Vec::new();
    let mut group_refs: Vec<Option<usize>> = Vec::new();
    let mut stats = ClusterStats::default();
    let mut groups = Vec::new();
    for read in pool {
        stats.reads += 1;
        let entry = Entry::new(config, read);
        let candidates = reps
            .iter()
            .enumerate()
            .filter(|(_, rep)| entry.sig.shares_band(&rep.sig, config.bands))
            .collect();
        let joined = compare(config, &entry, candidates, &mut stats)
            .into_iter()
            .find_map(|(id, d)| d.map(|_| id));
        let group = joined.unwrap_or_else(|| {
            // Founding: match the new group to its nearest reference.
            let candidates = refs
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    entry.sig.shares_band(&r.sig, config.bands) || entry.sig.overlap(&r.sig) != 0.0
                })
                .collect();
            let mut best: Option<(usize, usize)> = None;
            for (r, d) in compare(config, &entry, candidates, &mut stats) {
                if let Some(d) = d {
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((r, d));
                    }
                }
            }
            group_refs.push(best.map(|(r, _)| r));
            reps.push(entry);
            reps.len() - 1
        });
        groups.push(group);
    }
    let references = groups.iter().map(|&g| group_refs[g]).collect();
    Outcome {
        groups,
        references,
        stats,
    }
}

/// The clusterer, fed `batch` reads per `push_batch` on `threads` workers.
fn batched(
    config: &GreedyClusterer,
    pool: &[Strand],
    references: &[Strand],
    batch: usize,
    threads: usize,
) -> Outcome {
    let workers = ThreadPool::new(threads);
    let mut clusterer = StreamingClusterer::with_references(*config, references);
    let (mut groups, mut refs) = (Vec::new(), Vec::new());
    for window in pool.chunks(batch.min(pool.len()).max(1)) {
        for a in clusterer
            .push_batch(window, &workers)
            .expect("no worker panics")
        {
            groups.push(a.group);
            refs.push(a.reference);
        }
    }
    Outcome {
        groups,
        references: refs,
        stats: clusterer.stats(),
    }
}

/// Shuffled noisy copies of `references`.
fn noisy_pool(references: &[Strand], rate: f64, coverage: usize, seed: u64) -> Vec<Strand> {
    let mut rng = seeded(seed);
    let model = NaiveModel::with_total_rate(rate);
    let mut pool: Vec<Strand> = references
        .iter()
        .flat_map(|r| {
            (0..coverage)
                .map(|_| model.corrupt(r, &mut rng))
                .collect::<Vec<_>>()
        })
        .collect();
    pool.shuffle(&mut rng);
    pool
}

/// 184-nt archive-shaped strands: one primer pair around random payloads,
/// so every sketch tends to hold a primer hash and most reads collide
/// with most groups.
fn primer_flanked() -> (Vec<Strand>, Vec<Strand>) {
    let mut rng = seeded(300);
    let forward = Strand::random(20, &mut rng);
    let reverse = Strand::random(20, &mut rng);
    let references: Vec<Strand> = (0..22)
        .map(|_| {
            forward
                .concat(&Strand::random(144, &mut rng))
                .concat(&reverse)
        })
        .collect();
    (noisy_pool(&references, 0.03, 12, 301), references)
}

/// Long single-base runs with rare breaks: few distinct grams, short
/// sketches, and strands close enough that reads often lie within the
/// threshold of several groups.
fn homopolymer_heavy() -> (Vec<Strand>, Vec<Strand>) {
    let mut rng = seeded(310);
    let references: Vec<Strand> = (0..22)
        .map(|_| {
            let run = 6 + (rng.next_u64() % 20) as usize;
            let offset = (rng.next_u64() % 4) as usize;
            (0..64)
                .map(|i| {
                    let bump = usize::from(rng.next_u64().is_multiple_of(10));
                    Base::ALL[(offset + i / run + bump) % 4]
                })
                .collect()
        })
        .collect();
    (noisy_pool(&references, 0.05, 12, 311), references)
}

/// NaiveModel pools over random references at several error rates and
/// lengths, shaped like the clusterer's unit-test corpus.
fn naive_pools() -> Vec<(Vec<Strand>, Vec<Strand>)> {
    [
        (200u64, 0.03f64, 110usize, 8usize, 5usize),
        (201, 0.08, 110, 6, 8),
        (202, 0.12, 90, 5, 6),
    ]
    .into_iter()
    .map(|(seed, rate, len, refs, coverage)| {
        let mut rng = seeded(seed);
        let references: Vec<Strand> = (0..refs).map(|_| Strand::random(len, &mut rng)).collect();
        (
            noisy_pool(&references, rate, coverage, seed + 50),
            references,
        )
    })
    .collect()
}

fn check(name: &str, pool: &[Strand], references: &[Strand]) {
    for prefilter in [true, false] {
        let config = GreedyClusterer {
            prefilter,
            ..GreedyClusterer::default()
        };
        let expected = oracle(&config, pool, references);
        assert_eq!(expected.stats.reads, pool.len());
        for batch in BATCHES {
            for threads in THREADS {
                let got = batched(&config, pool, references, batch, threads);
                assert_eq!(
                    got, expected,
                    "{name}: prefilter={prefilter} batch={batch} threads={threads}"
                );
            }
        }
        // The materialised pass runs the same core.
        let (memberships, _) = config.cluster(pool);
        let mut groups = vec![0; pool.len()];
        for (g, members) in memberships.iter().enumerate() {
            for &read in members {
                groups[read] = g;
            }
        }
        assert_eq!(
            groups, expected.groups,
            "{name}: materialised, prefilter={prefilter}"
        );
    }
}

#[test]
fn primer_flanked_pool_matches_the_oracle() {
    let (pool, references) = primer_flanked();
    assert!(pool.len() > 256, "the pool must span several sub-batches");
    check("primer-flanked", &pool, &references);
}

#[test]
fn homopolymer_heavy_pool_matches_the_oracle() {
    let (pool, references) = homopolymer_heavy();
    assert!(pool.len() > 256, "the pool must span several sub-batches");
    check("homopolymer", &pool, &references);
}

#[test]
fn naive_model_pools_match_the_oracle() {
    for (k, (pool, references)) in naive_pools().iter().enumerate() {
        check(&format!("naive pool {k}"), pool, references);
    }
}

#[test]
fn pools_exercise_in_batch_joins_and_double_matches() {
    // The differential is only as strong as its pools: some read must
    // join a group founded earlier in its own batch, and some read must
    // lie within the threshold of two groups, so that batch order and
    // first-match order are both tested.
    let config = GreedyClusterer::default();
    let mut in_batch_joins = 0usize;
    let mut double_matches = 0usize;
    for (pool, _) in [primer_flanked(), homopolymer_heavy()] {
        let groups = oracle(&config, &pool, &[]).groups;
        let mut founder = Vec::new();
        for (read, &g) in groups.iter().enumerate() {
            if g == founder.len() {
                founder.push(read);
            } else if founder[g] / 64 == read / 64 {
                in_batch_joins += 1;
            }
        }
        let packed: Vec<PackedStrand> = pool.iter().map(PackedStrand::from).collect();
        for read in &packed {
            let matches = founder
                .iter()
                .filter(|&&f| myers::within(&packed[f], read, config.distance_threshold).is_some())
                .count();
            double_matches += usize::from(matches >= 2);
        }
    }
    assert!(
        in_batch_joins > 0,
        "no read joined a group founded in its own batch"
    );
    assert!(
        double_matches > 0,
        "no read was within the threshold of two groups"
    );
}
