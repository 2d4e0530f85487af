//! Clustering throughput: grouping a shuffled read pool back into
//! clusters, with and without reference assignment.

use std::time::Duration;

use dnasim_testkit::bench::Criterion;
use dnasim_testkit::{criterion_group, criterion_main};
use std::hint::black_box;

use dnasim_channel::{ErrorModel, NaiveModel};
use dnasim_cluster::{GreedyClusterer, QGramSignature, StreamingClusterer};
use dnasim_core::rng::seeded;
use dnasim_core::rng::SliceRandom;
use dnasim_core::{PackedStrand, Strand};
use dnasim_metrics::{
    bank_within_with, myers, BankScratch, MyersScratch, PatternBank, QGramProfile, QGramScratch,
    MAX_LANES,
};
use dnasim_par::ThreadPool;

fn pool(references: usize, coverage: usize, seed: u64) -> (Vec<Strand>, Vec<Strand>) {
    let mut rng = seeded(seed);
    let refs: Vec<Strand> = (0..references)
        .map(|_| Strand::random(110, &mut rng))
        .collect();
    let model = NaiveModel::with_total_rate(0.059);
    let mut reads = Vec::new();
    for r in &refs {
        for _ in 0..coverage {
            reads.push(model.corrupt(r, &mut rng));
        }
    }
    reads.shuffle(&mut rng);
    (refs, reads)
}

fn bench_clustering(c: &mut Criterion) {
    let (refs, reads) = pool(50, 6, 1);
    let clusterer = GreedyClusterer::default();
    c.bench_function("greedy-cluster/300-reads", |b| {
        b.iter(|| clusterer.cluster(black_box(&reads)).0.len())
    });
    c.bench_function("cluster-vs-references/300-reads", |b| {
        b.iter(|| {
            clusterer
                .cluster_against_references(black_box(&reads), black_box(&refs))
                .0
                .total_reads()
        })
    });
    let strand = &reads[0];
    c.bench_function("qgram-signature/110bp", |b| {
        b.iter(|| QGramSignature::new(black_box(strand), 5, 12))
    });
}

/// Best-reference assignment over the same pool two ways: the pre-bank
/// code path (one banded Myers call per reference, sequentially) against
/// the shipped path (q-gram error-ball prune, survivors packed into
/// multi-pattern banks). Both compute the identical best assignment, so
/// the ratio is pure kernel-tier + prefilter speedup — this is the
/// BENCH_008 baseline/contender pair.
fn bench_cluster_bank(c: &mut Criterion) {
    let mut rng = seeded(3);
    let refs: Vec<Strand> = (0..64).map(|_| Strand::random(110, &mut rng)).collect();
    let model = NaiveModel::with_total_rate(0.059);
    let mut reads: Vec<Strand> = Vec::new();
    for r in &refs {
        for _ in 0..4 {
            reads.push(model.corrupt(r, &mut rng));
        }
    }
    reads.shuffle(&mut rng);
    let limit = GreedyClusterer::default().distance_threshold;
    let q = GreedyClusterer::default().qgram_len;

    let packed_refs: Vec<PackedStrand> = refs.iter().map(PackedStrand::from).collect();
    let ref_profiles: Vec<QGramProfile> = refs.iter().map(|r| QGramProfile::new(r, q)).collect();
    let packed_reads: Vec<PackedStrand> = reads.iter().map(PackedStrand::from).collect();
    let read_profiles: Vec<QGramProfile> =
        reads.iter().map(|r| QGramProfile::new(r, q)).collect();

    c.bench_function("cluster-bank/single-pattern/64refs", |b| {
        let mut scratch = MyersScratch::new();
        b.iter(|| {
            let mut assigned = 0usize;
            for read in black_box(&packed_reads) {
                let mut best: Option<(usize, usize)> = None;
                for (ri, reference) in packed_refs.iter().enumerate() {
                    if let Some(d) = myers::within_with(&mut scratch, reference, read, limit) {
                        if best.is_none_or(|(bd, _)| d < bd) {
                            best = Some((d, ri));
                        }
                    }
                }
                assigned += usize::from(best.is_some());
            }
            assigned
        })
    });

    c.bench_function("cluster-bank/banked-prefilter/64refs", |b| {
        let mut scratch = BankedScratch::default();
        b.iter(|| {
            banked_assign(
                &mut scratch,
                black_box(&packed_reads),
                &read_profiles,
                &packed_refs,
                &ref_profiles,
                limit,
                |qgram, rp| qgram.bound(rp) > limit,
            )
        })
    });

    // Prefilter effectiveness on this pool, recorded for the BENCH_008
    // gates: each pruned candidate is one Myers evaluation that never ran.
    let mut proposed = 0usize;
    let mut pruned = 0usize;
    for profile in &read_profiles {
        for rp in &ref_profiles {
            proposed += 1;
            pruned += usize::from(rp.distance_lower_bound(profile) > limit);
        }
    }
    c.record_metric(
        "cluster-bank/pruned-share-pct",
        100.0 * pruned as f64 / proposed as f64,
    );
    c.record_metric(
        "cluster-bank/kernel-evals-per-read",
        (proposed - pruned) as f64 / packed_reads.len() as f64,
    );
}

/// Reusable buffers for [`banked_assign`].
#[derive(Default)]
struct BankedScratch {
    bank: BankScratch,
    qgram: QGramScratch,
    lane_out: Vec<Option<usize>>,
    survivors: Vec<usize>,
}

/// Best-reference assignment with the error-ball prefilter in front of
/// the multi-pattern kernel: `prune(loaded read, reference)` discharges a
/// reference, survivors are packed into banks. Returns how many reads
/// found a reference within `limit`.
fn banked_assign(
    scratch: &mut BankedScratch,
    packed_reads: &[PackedStrand],
    read_profiles: &[QGramProfile],
    packed_refs: &[PackedStrand],
    ref_profiles: &[QGramProfile],
    limit: usize,
    prune: impl Fn(&QGramScratch, &QGramProfile) -> bool,
) -> usize {
    let mut assigned = 0usize;
    for (read, profile) in packed_reads.iter().zip(read_profiles) {
        scratch.survivors.clear();
        scratch.qgram.load(profile);
        for (ri, rp) in ref_profiles.iter().enumerate() {
            if !prune(&scratch.qgram, rp) {
                scratch.survivors.push(ri);
            }
        }
        let mut best: Option<(usize, usize)> = None;
        for chunk in scratch.survivors.chunks(MAX_LANES) {
            let lanes: Vec<&PackedStrand> = chunk.iter().map(|&ri| &packed_refs[ri]).collect();
            if let Some(bank) = PatternBank::new(&lanes) {
                bank_within_with(&mut scratch.bank, &bank, read, limit, &mut scratch.lane_out);
                for (lane, &ri) in chunk.iter().enumerate() {
                    if let Some(d) = scratch.lane_out[lane] {
                        if best.is_none_or(|(bd, _)| d < bd) {
                            best = Some((d, ri));
                        }
                    }
                }
            }
        }
        assigned += usize::from(best.is_some());
    }
    assigned
}

/// The prefilter on the archive's strand shape: 184-nt strands behind
/// 20-nt primers shared by every strand, so the flanks alone keep every
/// reference in each read's candidate set and nearly all the work is the
/// prefilter itself. `banked-prefilter` decides each candidate with the
/// exact gram scan; `masked-prefilter` with `exceeds`, which settles most
/// candidates by one AND + popcount over the presence masks. Both prune
/// exactly the same candidates, so the assignments are identical.
fn bench_masked_prefilter(c: &mut Criterion) {
    let mut rng = seeded(5);
    let forward = Strand::random(20, &mut rng);
    let reverse = Strand::random(20, &mut rng);
    let refs: Vec<Strand> = (0..64)
        .map(|_| forward.concat(&Strand::random(144, &mut rng)).concat(&reverse))
        .collect();
    let model = NaiveModel::with_total_rate(0.059);
    let mut reads: Vec<Strand> = Vec::new();
    for r in &refs {
        for _ in 0..4 {
            reads.push(model.corrupt(r, &mut rng));
        }
    }
    reads.shuffle(&mut rng);
    let limit = GreedyClusterer::default().distance_threshold;
    let q = GreedyClusterer::default().qgram_len;

    let packed_refs: Vec<PackedStrand> = refs.iter().map(PackedStrand::from).collect();
    let ref_profiles: Vec<QGramProfile> = refs.iter().map(|r| QGramProfile::new(r, q)).collect();
    let packed_reads: Vec<PackedStrand> = reads.iter().map(PackedStrand::from).collect();
    let read_profiles: Vec<QGramProfile> =
        reads.iter().map(|r| QGramProfile::new(r, q)).collect();

    let mut scratch = BankedScratch::default();
    c.bench_function("cluster-bank/banked-prefilter/64refs-primer-flanked", |b| {
        b.iter(|| {
            banked_assign(
                &mut scratch,
                black_box(&packed_reads),
                &read_profiles,
                &packed_refs,
                &ref_profiles,
                limit,
                |qgram, rp| qgram.bound(rp) > limit,
            )
        })
    });
    c.bench_function("cluster-bank/masked-prefilter/64refs-primer-flanked", |b| {
        b.iter(|| {
            banked_assign(
                &mut scratch,
                black_box(&packed_reads),
                &read_profiles,
                &packed_refs,
                &ref_profiles,
                limit,
                |qgram, rp| qgram.exceeds(rp, limit),
            )
        })
    });
}

/// The online streaming clusterer against the materialised
/// `cluster_against_references` pass over the same shuffled pool. The
/// memberships are byte-identical by construction (shared decision core),
/// so the only question is cost: this is the BENCH_009 baseline/contender
/// pair, gated on throughput *parity* — streaming must not give up more
/// than a fraction of the materialised pass's speed in exchange for
/// bounded memory. The resident-share pseudo-record proves the bound:
/// the clusterer's live state is per-group representatives, a small
/// fraction of the pool it consumed.
fn bench_streaming_clusterer(c: &mut Criterion) {
    let (refs, reads) = pool(64, 4, 7);
    let clusterer = GreedyClusterer::default();
    let workers = ThreadPool::from_env();
    c.bench_function("cluster-stream/materialised/64refs", |b| {
        b.iter(|| {
            clusterer
                .cluster_against_references(black_box(&reads), black_box(&refs))
                .0
                .total_reads()
        })
    });
    c.bench_function("cluster-stream/streaming/64refs", |b| {
        b.iter(|| {
            let mut stream = StreamingClusterer::with_references(clusterer, black_box(&refs));
            for window in reads.chunks(64) {
                black_box(
                    stream
                        .push_batch(window, &workers)
                        .expect("no worker panics"),
                );
            }
            stream.reads_seen()
        })
    });
    let mut stream = StreamingClusterer::with_references(clusterer, &refs);
    for window in reads.chunks(64) {
        stream
            .push_batch(window, &workers)
            .expect("no worker panics");
    }
    c.record_metric(
        "cluster-stream/resident-share-pct",
        100.0 * stream.resident_groups() as f64 / reads.len() as f64,
    );
    c.record_metric("cluster-stream/pool-reads", reads.len() as f64);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_clustering, bench_cluster_bank, bench_masked_prefilter,
        bench_streaming_clusterer
}
criterion_main!(benches);
