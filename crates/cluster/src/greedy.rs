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
//!    read advances up to [`MAX_LANES`] representatives at once (AVX2 or
//!    scalar, runtime selected).
//!
//! Both layers are exact, so `cluster` and `cluster_against_references`
//! return byte-identical groupings with any backend and with the
//! prefilter disabled; only the counters in [`ClusterStats`] (returned
//! alongside every grouping) differ.

use dnasim_core::{Cluster, Dataset, Strand};

use crate::stats::ClusterStats;
use crate::streaming::{Inline, OnlineState, ReferenceIndex};

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
    /// cluster and the pass's [`ClusterStats`].
    ///
    /// Single pass: each read joins the first existing cluster whose
    /// representative is within the distance threshold (candidates proposed
    /// by signature band collisions), or founds a new cluster.
    pub fn cluster(&self, pool: &[Strand]) -> (Vec<Vec<usize>>, ClusterStats) {
        let (clusters, state) = self.cluster_impl(pool, None);
        (clusters, state.stats())
    }

    /// The single assignment pass shared by every public entry point.
    ///
    /// Runs the online [`OnlineState`] batch core — the same decision
    /// sequence the streaming clusterer runs — on the calling thread, and
    /// materialises the membership lists the streaming core deliberately
    /// does not keep. Returns the groups and the finished state, which
    /// holds the per-cluster `Representative`s (packed strand and
    /// signature) and screen rows (the q-gram profile), each built exactly
    /// once, at founding time, the reference matches when `refs` is
    /// given, and the pass counters.
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
    /// assigned group become erasures) and the combined assignment-pass
    /// and reference-matching [`ClusterStats`].
    ///
    /// Reads whose group matches no reference within the threshold are
    /// dropped — exactly the data loss imperfect clustering causes.
    pub fn cluster_against_references(
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
        let dataset = references
            .iter()
            .zip(assigned)
            .map(|(reference, reads)| Cluster::new(reference.clone(), reads))
            .collect();
        (dataset, state.stats())
    }
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
        let clusters = GreedyClusterer::default().cluster(&pool).0;
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0], vec![0, 1, 2]);
    }

    #[test]
    fn distant_reads_form_separate_clusters() {
        let mut rng = seeded(1);
        let a = Strand::random(60, &mut rng);
        let b = Strand::random(60, &mut rng);
        let pool = vec![a.clone(), b.clone(), a, b];
        let clusters = GreedyClusterer::default().cluster(&pool).0;
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
        let clusters = GreedyClusterer::default().cluster(&pool).0;
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
            GreedyClusterer::default().cluster_against_references(&pool, &references).0;
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
            .cluster_against_references(&[junk], &references).0;
        assert_eq!(dataset.len(), 1);
        assert_eq!(dataset.total_reads(), 0);
    }

    #[test]
    fn empty_pool_yields_erasures() {
        let mut rng = seeded(5);
        let references = vec![Strand::random(50, &mut rng)];
        let dataset = GreedyClusterer::default().cluster_against_references(&[], &references).0;
        assert_eq!(dataset.erasure_count(), 1);
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
        let (_, run) = GreedyClusterer::default().cluster(&pool);
        assert_eq!(run.reads, pool.len());
        assert!(run.candidates >= run.pruned);
        // Every surviving candidate occupies exactly one kernel lane.
        assert_eq!(run.kernel_lanes, run.candidates - run.pruned);
        assert!(run.kernel_calls <= run.kernel_lanes);
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
            assert_eq!(with.cluster(&pool).0, without.cluster(&pool).0);
            assert_eq!(
                with.cluster_against_references(&pool, &references).0,
                without.cluster_against_references(&pool, &references).0
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
            let (_, on) = with.cluster(&pool);
            let (_, off) = without.cluster(&pool);
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
            GreedyClusterer::default().cluster_against_references(&[], &references);
        assert_eq!(dataset.len(), 4);
        assert_eq!(dataset.erasure_count(), 4);
        assert_eq!(run, ClusterStats::default(), "no reads, no counters");
    }

    #[test]
    fn reference_stats_empty_reference_set_drops_every_read() {
        let mut rng = seeded(41);
        let pool: Vec<Strand> = (0..5).map(|_| Strand::random(90, &mut rng)).collect();
        let (dataset, run) =
            GreedyClusterer::default().cluster_against_references(&pool, &[]);
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
            GreedyClusterer::default().cluster_against_references(&pool, &references);
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
            .cluster_against_references(&pool, &references);
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
        let (_, run) = clusterer.cluster_against_references(&pool, &references);
        assert_eq!(run.pruned, 0);
        assert_eq!(run.kernel_lanes, run.candidates);
        assert!(run.kernel_calls <= run.kernel_lanes);
    }
}
