//! Greedy edit-distance clustering of an unordered read pool.
//!
//! Real sequencing yields an unordered multiset of reads that must be
//! grouped into clusters before reconstruction. This clusterer follows the
//! standard recipe (cf. Rashtchian et al.): a q-gram MinHash prefilter
//! proposes candidate clusters, and a banded edit-distance test against the
//! cluster representative confirms membership.
//!
//! Two throughput layers sit between candidate proposal and confirmation,
//! neither of which can change a clustering decision:
//!
//! 1. an **error-ball prefilter** — the q-gram counting lower bound
//!    ([`QGramProfile`]) discharges candidates whose distance provably
//!    exceeds the threshold before any kernel runs;
//! 2. the **multi-pattern kernel tier** — surviving candidates with equal
//!    word counts are batched into [`PatternBank`]s so one pass over the
//!    read advances up to [`MAX_LANES`] representatives at once (AVX2 /
//!    NEON / scalar, runtime selected).
//!
//! Both layers are exact, so `cluster`, `cluster_with_merge`, and
//! `cluster_against_references` return byte-identical groupings with any
//! backend and with the prefilter disabled; only the counters in
//! [`ClusterStats`] differ.

use std::collections::{BTreeMap, HashMap};

use dnasim_core::{Cluster, Dataset, PackedStrand, Strand};

use crate::stats::{self, ClusterStats};
use crate::streaming::{evaluate_candidates, AssignScratch, Inline, OnlineState, ReferenceIndex};

/// Configuration for greedy clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreedyClusterer {
    /// Maximum edit distance to a cluster representative for membership.
    pub distance_threshold: usize,
    /// q-gram length for the signature prefilter (also the gram length of
    /// the error-ball lower bound).
    pub qgram_len: usize,
    /// Number of MinHash entries kept per signature.
    pub sketch_len: usize,
    /// Number of leading sketch hashes used for candidate bucketing.
    pub bands: usize,
    /// Whether the q-gram error-ball lower bound may discharge candidates
    /// before the kernel. Exact either way — disabling it only costs
    /// kernel calls (the filtered-vs-unfiltered differential tests flip
    /// this flag).
    pub prefilter: bool,
}

impl Default for GreedyClusterer {
    /// Defaults tuned for ~110-base strands at Nanopore error rates.
    fn default() -> GreedyClusterer {
        GreedyClusterer {
            distance_threshold: 18,
            qgram_len: 5,
            sketch_len: 12,
            bands: 6,
            prefilter: true,
        }
    }
}

impl GreedyClusterer {
    /// Groups a pool of reads into clusters, returning read indices per
    /// cluster.
    ///
    /// Single pass: each read joins the first existing cluster whose
    /// representative is within the distance threshold (candidates proposed
    /// by signature band collisions), or founds a new cluster.
    pub fn cluster(&self, pool: &[Strand]) -> Vec<Vec<usize>> {
        self.cluster_stats(pool).0
    }

    /// [`cluster`](GreedyClusterer::cluster) plus the pass's
    /// [`ClusterStats`] (also folded into the process-wide counters).
    pub fn cluster_stats(&self, pool: &[Strand]) -> (Vec<Vec<usize>>, ClusterStats) {
        let (clusters, state) = self.cluster_impl(pool, None);
        let run = state.stats();
        stats::record(&run);
        (clusters, run)
    }

    /// The single assignment pass shared by every public entry point.
    ///
    /// Runs the online [`OnlineState`] batch core — the same decision
    /// sequence the streaming clusterer runs — on the calling thread, and
    /// materialises the membership lists the streaming core deliberately
    /// does not keep. Returns the groups and the finished state, which
    /// holds the per-cluster `Representative`s (packed strand,
    /// signature, and q-gram profile — built exactly once, at founding
    /// time), the reference matches when `refs` is given, and the pass
    /// counters.
    fn cluster_impl(
        &self,
        pool: &[Strand],
        refs: Option<ReferenceIndex>,
    ) -> (Vec<Vec<usize>>, OnlineState) {
        let mut state = OnlineState::new(*self, refs);
        let Ok(ids) = state.assign_batch(pool, &Inline);
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        for (read_idx, id) in ids.into_iter().enumerate() {
            if id == clusters.len() {
                clusters.push(Vec::new());
            }
            clusters[id].push(read_idx);
        }
        (clusters, state)
    }

    /// Clusters a pool and assigns each group to the nearest reference
    /// strand, producing an evaluable [`Dataset`] (references with no
    /// assigned group become erasures).
    ///
    /// Reads whose group matches no reference within the threshold are
    /// dropped — exactly the data loss imperfect clustering causes.
    pub fn cluster_against_references(&self, pool: &[Strand], references: &[Strand]) -> Dataset {
        self.cluster_against_references_stats(pool, references).0
    }

    /// [`cluster_against_references`](GreedyClusterer::cluster_against_references)
    /// plus the combined assignment-pass and reference-matching
    /// [`ClusterStats`].
    pub fn cluster_against_references_stats(
        &self,
        pool: &[Strand],
        references: &[Strand],
    ) -> (Dataset, ClusterStats) {
        // Each group is matched to its nearest reference when it is
        // founded — a pure function of its representative, so the same
        // answer a pass over the finished groups would give.
        let (groups, state) = self.cluster_impl(pool, Some(ReferenceIndex::new(self, references)));
        let mut assigned: Vec<Vec<Strand>> = references.iter().map(|_| Vec::new()).collect();
        for (gid, group) in groups.iter().enumerate() {
            if let Some(ref_idx) = state.group_reference(gid) {
                for &read_idx in group {
                    assigned[ref_idx].push(pool[read_idx].clone());
                }
            }
        }
        let run = state.stats();
        stats::record(&run);
        let dataset = references
            .iter()
            .zip(assigned)
            .map(|(reference, reads)| Cluster::new(reference.clone(), reads))
            .collect();
        (dataset, run)
    }
}

impl GreedyClusterer {
    /// A second pass over [`cluster`](GreedyClusterer::cluster)'s output
    /// that merges groups whose representatives are within the distance
    /// threshold of each other.
    ///
    /// Single-pass greedy clustering is order-dependent: a noisy early read
    /// can found a splinter cluster that later reads of the same strand
    /// never rejoin. Merging representative-close groups repairs most of
    /// these splits; candidate pairs come from band-bucket collisions (the
    /// same `HashMap` discipline as the first pass), so the merge scales
    /// with collisions rather than groups².
    pub fn cluster_with_merge(&self, pool: &[Strand]) -> Vec<Vec<usize>> {
        self.cluster_with_merge_stats(pool).0
    }

    /// [`cluster_with_merge`](GreedyClusterer::cluster_with_merge) plus
    /// the combined first-pass and merge-pass [`ClusterStats`].
    pub fn cluster_with_merge_stats(&self, pool: &[Strand]) -> (Vec<Vec<usize>>, ClusterStats) {
        let (groups, state) = self.cluster_impl(pool, None);
        let (reps, mut run) = state.into_parts();
        if groups.len() <= 1 {
            stats::record(&run);
            return (groups, run);
        }

        // Bucket-driven candidate pairs: two groups can merge only if
        // their signatures share one of the first `bands` hashes, i.e.
        // only if they collide in a band bucket. Collecting pairs per
        // bucket enumerates exactly the pairs `shares_band` would accept
        // (`max(1)` mirrors its floor), without touching the g² pairs
        // that share nothing.
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for (gid, rep) in reps.iter().enumerate() {
            for &h in rep.sig.hashes().iter().take(self.bands.max(1)) {
                buckets.entry(h).or_default().push(gid);
            }
        }
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for ids in buckets.values() {
            for (a, &i) in ids.iter().enumerate() {
                for &j in &ids[a + 1..] {
                    pairs.push((i.min(j), i.max(j)));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();

        // Union-find over groups.
        let mut parent: Vec<usize> = (0..groups.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut scratch = AssignScratch::default();
        let mut results: Vec<Option<usize>> = Vec::new();
        let mut idx = 0;
        while idx < pairs.len() {
            let i = pairs[idx].0;
            let mut end = idx;
            while end < pairs.len() && pairs[end].0 == i {
                end += 1;
            }
            // Batch group i's partners into banks. Partners that become
            // connected to i mid-batch are evaluated anyway; merging an
            // already-connected pair is a no-op, so the final partition
            // matches the strictly sequential pair loop.
            let mut partners: Vec<usize> = Vec::new();
            if self.prefilter {
                scratch.qgram.load(&reps[i].profile);
            }
            for &(_, j) in &pairs[idx..end] {
                if find(&mut parent, i) == find(&mut parent, j) {
                    continue;
                }
                run.candidates += 1;
                if self.prefilter
                    && scratch.qgram.exceeds(&reps[j].profile, self.distance_threshold)
                {
                    run.pruned += 1;
                    continue;
                }
                partners.push(j);
            }
            let lanes: Vec<&PackedStrand> = partners.iter().map(|&j| &reps[j].packed).collect();
            evaluate_candidates(
                &mut scratch,
                &lanes,
                &reps[i].packed,
                self.distance_threshold,
                &mut run,
                &mut results,
            );
            for (&j, r) in partners.iter().zip(results.iter()) {
                if r.is_some() {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri.max(rj)] = ri.min(rj);
                    }
                }
            }
            idx = end;
        }
        let mut merged: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, group) in groups.into_iter().enumerate() {
            merged.entry(find(&mut parent, i)).or_default().extend(group);
        }
        stats::record(&run);
        (merged.into_values().collect(), run)
    }
}

/// Perfect (pseudo-)clustering: treats the simulator's ordered output as
/// already clustered. This is the identity on a [`Dataset`] and exists to
/// make the clustering choice explicit at call sites.
pub fn perfect_clustering(dataset: Dataset) -> Dataset {
    dataset
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_channel::{ErrorModel, NaiveModel};
    use dnasim_core::rng::seeded;

    #[test]
    fn identical_reads_form_one_cluster() {
        let read: Strand = "ACGTACGTACGTACGTACGT".parse().unwrap();
        let pool = vec![read.clone(), read.clone(), read];
        let clusters = GreedyClusterer::default().cluster(&pool);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0], vec![0, 1, 2]);
    }

    #[test]
    fn distant_reads_form_separate_clusters() {
        let mut rng = seeded(1);
        let a = Strand::random(60, &mut rng);
        let b = Strand::random(60, &mut rng);
        let pool = vec![a.clone(), b.clone(), a, b];
        let clusters = GreedyClusterer::default().cluster(&pool);
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn noisy_copies_cluster_with_their_origin() {
        let mut rng = seeded(2);
        let model = NaiveModel::with_total_rate(0.05);
        let references: Vec<Strand> = (0..8).map(|_| Strand::random(110, &mut rng)).collect();
        let mut pool = Vec::new();
        let mut origin = Vec::new();
        for (i, r) in references.iter().enumerate() {
            for _ in 0..5 {
                pool.push(model.corrupt(r, &mut rng));
                origin.push(i);
            }
        }
        let clusters = GreedyClusterer::default().cluster(&pool);
        // Every cluster should be pure: all members share an origin.
        for group in &clusters {
            let first = origin[group[0]];
            assert!(
                group.iter().all(|&idx| origin[idx] == first),
                "mixed cluster: {group:?}"
            );
        }
        // And there should be roughly one cluster per reference.
        assert!(clusters.len() >= 8 && clusters.len() <= 12, "{}", clusters.len());
    }

    #[test]
    fn cluster_against_references_recovers_dataset() {
        let mut rng = seeded(3);
        let model = NaiveModel::with_total_rate(0.05);
        let references: Vec<Strand> = (0..6).map(|_| Strand::random(110, &mut rng)).collect();
        let mut pool = Vec::new();
        for r in &references {
            for _ in 0..4 {
                pool.push(model.corrupt(r, &mut rng));
            }
        }
        // Shuffle the pool to destroy ordering.
        use dnasim_core::rng::SliceRandom;
        pool.shuffle(&mut rng);
        let dataset =
            GreedyClusterer::default().cluster_against_references(&pool, &references);
        assert_eq!(dataset.len(), 6);
        // Most reads should be recovered into their clusters.
        assert!(
            dataset.total_reads() >= 20,
            "only {} of 24 reads assigned",
            dataset.total_reads()
        );
        for cluster in dataset.iter() {
            assert!(!cluster.is_erasure(), "lost a reference entirely");
        }
    }

    #[test]
    fn unmatched_reads_are_dropped() {
        let mut rng = seeded(4);
        let references = vec![Strand::random(110, &mut rng)];
        let junk = Strand::random(110, &mut rng);
        let dataset = GreedyClusterer::default()
            .cluster_against_references(&[junk], &references);
        assert_eq!(dataset.len(), 1);
        assert_eq!(dataset.total_reads(), 0);
    }

    #[test]
    fn empty_pool_yields_erasures() {
        let mut rng = seeded(5);
        let references = vec![Strand::random(50, &mut rng)];
        let dataset = GreedyClusterer::default().cluster_against_references(&[], &references);
        assert_eq!(dataset.erasure_count(), 1);
    }

    #[test]
    fn perfect_clustering_is_identity() {
        let mut rng = seeded(6);
        let r = Strand::random(20, &mut rng);
        let ds = Dataset::from_clusters(vec![Cluster::new(r.clone(), vec![r])]);
        assert_eq!(perfect_clustering(ds.clone()), ds);
    }

    #[test]
    fn stats_track_kernel_work() {
        let mut rng = seeded(7);
        let model = NaiveModel::with_total_rate(0.05);
        let references: Vec<Strand> = (0..10).map(|_| Strand::random(110, &mut rng)).collect();
        let mut pool = Vec::new();
        for r in &references {
            for _ in 0..6 {
                pool.push(model.corrupt(r, &mut rng));
            }
        }
        let (_, run) = GreedyClusterer::default().cluster_stats(&pool);
        assert_eq!(run.reads, pool.len());
        assert!(run.candidates >= run.pruned);
        // Every surviving candidate occupies exactly one kernel lane.
        assert_eq!(run.kernel_lanes, run.candidates - run.pruned);
        assert!(run.kernel_calls <= run.kernel_lanes);
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;
    use dnasim_channel::{ErrorModel, NaiveModel};
    use dnasim_core::rng::seeded;

    #[test]
    fn merge_repairs_splinter_clusters() {
        // A clusterer with a tight threshold splinters heavy-noise reads;
        // the merge pass with the same threshold rejoins groups whose
        // representatives are mutually close.
        let mut rng = seeded(10);
        let model = NaiveModel::with_total_rate(0.08);
        let references: Vec<Strand> = (0..6).map(|_| Strand::random(110, &mut rng)).collect();
        let mut pool = Vec::new();
        for r in &references {
            for _ in 0..8 {
                pool.push(model.corrupt(r, &mut rng));
            }
        }
        let clusterer = GreedyClusterer {
            distance_threshold: 22,
            ..GreedyClusterer::default()
        };
        let single_pass = clusterer.cluster(&pool);
        let merged = clusterer.cluster_with_merge(&pool);
        assert!(merged.len() <= single_pass.len());
        // Every read is still assigned exactly once.
        let mut seen: Vec<usize> = merged.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..pool.len()).collect::<Vec<_>>());
    }

    #[test]
    fn merge_is_identity_when_nothing_overlaps() {
        let mut rng = seeded(11);
        let a = Strand::random(80, &mut rng);
        let b = Strand::random(80, &mut rng);
        let pool = vec![a.clone(), a, b.clone(), b];
        let clusterer = GreedyClusterer::default();
        assert_eq!(
            clusterer.cluster_with_merge(&pool).len(),
            clusterer.cluster(&pool).len()
        );
    }

    #[test]
    fn merge_handles_trivial_pools() {
        let clusterer = GreedyClusterer::default();
        assert!(clusterer.cluster_with_merge(&[]).is_empty());
        let one = vec![Strand::random(30, &mut seeded(12))];
        assert_eq!(clusterer.cluster_with_merge(&one).len(), 1);
    }
}

#[cfg(test)]
mod filter_tests {
    use super::*;
    use dnasim_channel::{ErrorModel, NaiveModel};
    use dnasim_core::rng::seeded;

    /// Seeded noisy pools across several error rates and strand lengths.
    fn pools() -> Vec<(Vec<Strand>, Vec<Strand>)> {
        let mut out = Vec::new();
        for (seed, rate, len, refs, coverage) in [
            (100u64, 0.03f64, 110usize, 8usize, 5usize),
            (101, 0.08, 110, 6, 8),
            (102, 0.12, 90, 5, 6),
            (103, 0.05, 150, 7, 4),
        ] {
            let mut rng = seeded(seed);
            let model = NaiveModel::with_total_rate(rate);
            let references: Vec<Strand> =
                (0..refs).map(|_| Strand::random(len, &mut rng)).collect();
            let mut pool = Vec::new();
            for r in &references {
                for _ in 0..coverage {
                    pool.push(model.corrupt(r, &mut rng));
                }
            }
            use dnasim_core::rng::SliceRandom;
            pool.shuffle(&mut rng);
            out.push((pool, references));
        }
        out
    }

    #[test]
    fn error_ball_filter_never_changes_cluster_membership() {
        let with = GreedyClusterer::default();
        let without = GreedyClusterer {
            prefilter: false,
            ..GreedyClusterer::default()
        };
        for (pool, references) in pools() {
            assert_eq!(with.cluster(&pool), without.cluster(&pool));
            assert_eq!(
                with.cluster_with_merge(&pool),
                without.cluster_with_merge(&pool)
            );
            assert_eq!(
                with.cluster_against_references(&pool, &references),
                without.cluster_against_references(&pool, &references)
            );
        }
    }

    #[test]
    fn filter_discharges_work_without_losing_any() {
        let with = GreedyClusterer::default();
        let without = GreedyClusterer {
            prefilter: false,
            ..GreedyClusterer::default()
        };
        let mut pruned_total = 0usize;
        for (pool, _) in pools() {
            let (_, on) = with.cluster_stats(&pool);
            let (_, off) = without.cluster_stats(&pool);
            assert_eq!(off.pruned, 0, "disabled filter must prune nothing");
            assert_eq!(on.candidates, off.candidates, "proposal stage unchanged");
            assert_eq!(
                on.kernel_lanes + on.pruned,
                off.kernel_lanes,
                "every pruned candidate is a kernel lane saved"
            );
            pruned_total += on.pruned;
        }
        assert!(pruned_total > 0, "filter never fired on noisy pools");
    }

    #[test]
    fn reference_stats_empty_pool_is_all_erasures_with_zero_work() {
        let mut rng = seeded(40);
        let references: Vec<Strand> = (0..4).map(|_| Strand::random(90, &mut rng)).collect();
        let (dataset, run) =
            GreedyClusterer::default().cluster_against_references_stats(&[], &references);
        assert_eq!(dataset.len(), 4);
        assert_eq!(dataset.erasure_count(), 4);
        assert_eq!(run, ClusterStats::default(), "no reads, no counters");
    }

    #[test]
    fn reference_stats_empty_reference_set_drops_every_read() {
        let mut rng = seeded(41);
        let pool: Vec<Strand> = (0..5).map(|_| Strand::random(90, &mut rng)).collect();
        let (dataset, run) =
            GreedyClusterer::default().cluster_against_references_stats(&pool, &[]);
        assert!(dataset.is_empty());
        assert_eq!(run.reads, 5);
        // Lane accounting must hold even with nothing to match: every
        // non-pruned candidate is exactly one kernel lane, on any backend
        // (the verify script repeats this suite under DNASIM_SIMD=off).
        assert_eq!(run.kernel_lanes, run.candidates - run.pruned);
    }

    #[test]
    fn reference_stats_single_read_clusters_assign_each_read() {
        // Every read is its own cluster (distinct random references, one
        // exact copy each): each group must match its own reference.
        let mut rng = seeded(42);
        let references: Vec<Strand> = (0..6).map(|_| Strand::random(110, &mut rng)).collect();
        let pool: Vec<Strand> = references.clone();
        let (dataset, run) =
            GreedyClusterer::default().cluster_against_references_stats(&pool, &references);
        assert_eq!(dataset.len(), 6);
        assert_eq!(dataset.total_reads(), 6);
        assert_eq!(dataset.erasure_count(), 0);
        for cluster in dataset.iter() {
            assert_eq!(cluster.reads(), std::slice::from_ref(cluster.reference()));
        }
        assert_eq!(run.reads, 6);
        assert_eq!(run.kernel_lanes, run.candidates - run.pruned);
    }

    #[test]
    fn reference_stats_all_identical_reads_form_one_full_cluster() {
        let read: Strand = "ACGTACGTACGTACGTACGTACGTACGTACGT".parse().unwrap();
        let pool = vec![read.clone(); 12];
        let references = vec![read.clone()];
        let (dataset, run) = GreedyClusterer::default()
            .cluster_against_references_stats(&pool, &references);
        assert_eq!(dataset.len(), 1);
        assert_eq!(dataset.total_reads(), 12);
        assert!(dataset.iter().all(|c| c.reads().iter().all(|r| r == &read)));
        assert_eq!(run.reads, 12);
        // One founding read plus eleven joins against a single
        // representative, plus one group→reference match.
        assert!(run.kernel_calls >= 12);
        assert_eq!(run.kernel_lanes, run.candidates - run.pruned);
    }

    #[test]
    fn lane_accounting_holds_with_prefilter_disabled() {
        // With the error ball off, pruned must stay 0 and every candidate
        // must occupy a lane — the invariant the SIMD-off verify step
        // re-checks, since lane packing differs per backend but totals
        // may not.
        let mut rng = seeded(43);
        let model = NaiveModel::with_total_rate(0.06);
        let references: Vec<Strand> = (0..7).map(|_| Strand::random(110, &mut rng)).collect();
        let mut pool = Vec::new();
        for r in &references {
            for _ in 0..5 {
                pool.push(model.corrupt(r, &mut rng));
            }
        }
        let clusterer = GreedyClusterer {
            prefilter: false,
            ..GreedyClusterer::default()
        };
        let (_, run) = clusterer.cluster_against_references_stats(&pool, &references);
        assert_eq!(run.pruned, 0);
        assert_eq!(run.kernel_lanes, run.candidates);
        assert!(run.kernel_calls <= run.kernel_lanes);
    }

    #[test]
    fn process_counters_accumulate_across_runs() {
        let (pool, references) = pools().remove(0);
        let before = stats::process_cluster_stats();
        let (_, run) = GreedyClusterer::default()
            .cluster_against_references_stats(&pool, &references);
        let after = stats::process_cluster_stats();
        assert!(after.reads >= before.reads + run.reads);
        assert!(after.kernel_calls >= before.kernel_calls + run.kernel_calls);
    }
}
