//! Online sharded clustering over a read stream.
//!
//! [`GreedyClusterer`] batches poorly at paper scale: `cluster(&pool)`
//! needs the whole read pool in memory even though its decision sequence
//! is strictly one-read-at-a-time. This module hoists that decision
//! sequence into an explicitly *online* core:
//!
//! * the k-mer LSH **bucket signatures** ([`QGramSignature`] band hashes)
//!   are the shard assignment — an incoming read only ever probes the
//!   buckets its own signature exposes;
//! * the only resident state is **per-bucket representatives** (packed
//!   strand + q-gram profile + signature, built once at founding time)
//!   plus the bucket map itself — `O(clusters)`, never `O(reads)`;
//! * intra-bucket assignment reuses the multi-pattern kernel tier: the
//!   q-gram error-ball bound discharges hopeless candidates, survivors
//!   are batched through
//!   [`PatternBank`](dnasim_metrics::bank::PatternBank) lanes. The bound
//!   is asked through [`QGramScratch::exceeds`], whose presence-mask
//!   screen settles most hopeless candidates with one AND + popcount and
//!   leaves only near ones to the exact gram scan. It answers exactly
//!   `bound > threshold`, so candidates, pruned counts and kernel lanes
//!   are the same as with the scan alone.
//!
//! Because the materialised [`GreedyClusterer`] entry points now delegate
//! to this same core, streaming memberships are **byte-identical** to the
//! materialised ones by construction: feeding reads one at a time, in any
//! batch shape, replays exactly the same founding/joining decisions. The
//! differential tests in this module (and the `scripts/verify.sh` step
//! that repeats them at 1 and 4 threads) pin that equivalence on seeded
//! noisy pools.
//!
//! In *reference mode* ([`StreamingClusterer::with_references`]) each
//! group is matched to its nearest reference **at founding time** — the
//! match is a pure function of the representative and the fixed reference
//! set, so deciding it eagerly is provably identical to the post-hoc
//! matching pass `cluster_against_references` used to run; both paths now
//! share [`ReferenceIndex::match_representative`].

use std::collections::{BTreeMap, HashMap};

use dnasim_core::{PackedStrand, Strand};
use dnasim_metrics::bank::{bank_within_with, BankScratch, PatternBank, MAX_LANES};
use dnasim_metrics::{myers, MyersScratch, QGramProfile, QGramScratch};

use crate::greedy::GreedyClusterer;
use crate::signature::QGramSignature;
use crate::stats::{self, ClusterStats};

/// Everything the clusterer keeps resident per founded cluster, threaded
/// through to the merge and reference-assignment passes so nothing is
/// rebuilt.
pub(crate) struct Representative {
    pub(crate) packed: PackedStrand,
    pub(crate) sig: QGramSignature,
    pub(crate) profile: QGramProfile,
}

/// Reusable kernel buffers for one clustering pass.
#[derive(Default)]
pub(crate) struct AssignScratch {
    pub(crate) myers: MyersScratch,
    pub(crate) bank: BankScratch,
    pub(crate) qgram: QGramScratch,
    pub(crate) lane_out: Vec<Option<usize>>,
}

/// Evaluates `text` against every pattern in `patterns`, writing
/// `results[k] = Some(distance)` iff pattern `k` is within `limit`.
///
/// Patterns are grouped by word count and packed [`MAX_LANES`] at a time
/// into [`PatternBank`]s; singleton groups (and empty patterns, which have
/// no words to bank) use the single-pattern kernel. Both kernels are
/// exact, so `results` is independent of the grouping.
pub(crate) fn evaluate_candidates(
    scratch: &mut AssignScratch,
    patterns: &[&PackedStrand],
    text: &PackedStrand,
    limit: usize,
    stats: &mut ClusterStats,
    results: &mut Vec<Option<usize>>,
) {
    results.clear();
    results.resize(patterns.len(), None);
    let mut by_words: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (k, p) in patterns.iter().enumerate() {
        by_words.entry(p.words()).or_default().push(k);
    }
    for (words, slots) in by_words {
        if words == 0 {
            // Empty patterns: the kernel degenerates to |text| ≤ limit.
            for &k in &slots {
                stats.kernel_calls += 1;
                stats.kernel_lanes += 1;
                results[k] = myers::within_with(&mut scratch.myers, patterns[k], text, limit);
            }
            continue;
        }
        for chunk in slots.chunks(MAX_LANES) {
            if chunk.len() == 1 {
                let k = chunk[0];
                stats.kernel_calls += 1;
                stats.kernel_lanes += 1;
                results[k] = myers::within_with(&mut scratch.myers, patterns[k], text, limit);
                continue;
            }
            let lanes: Vec<&PackedStrand> = chunk.iter().map(|&k| patterns[k]).collect();
            match PatternBank::new(&lanes) {
                Some(bank) => {
                    stats.kernel_calls += 1;
                    stats.kernel_lanes += chunk.len();
                    bank_within_with(&mut scratch.bank, &bank, text, limit, &mut scratch.lane_out);
                    for (lane, &k) in chunk.iter().enumerate() {
                        results[k] = scratch.lane_out.get(lane).copied().flatten();
                    }
                }
                None => {
                    // Unreachable by construction (equal non-zero word
                    // counts, chunk ≤ MAX_LANES); stay exact regardless.
                    for &k in chunk {
                        stats.kernel_calls += 1;
                        stats.kernel_lanes += 1;
                        results[k] =
                            myers::within_with(&mut scratch.myers, patterns[k], text, limit);
                    }
                }
            }
        }
    }
}

/// The online assignment core shared by [`StreamingClusterer`] and every
/// materialised [`GreedyClusterer`] entry point.
///
/// Resident state is `O(clusters)`: one [`Representative`] per founded
/// group plus the band-hash bucket map. Read membership lists are *not*
/// kept here — callers that want them accumulate the returned group ids.
pub(crate) struct OnlineState {
    config: GreedyClusterer,
    reps: Vec<Representative>,
    /// band hash → cluster ids that expose it (the LSH shard map).
    buckets: HashMap<u64, Vec<usize>>,
    scratch: AssignScratch,
    run: ClusterStats,
    survivors: Vec<usize>,
    results: Vec<Option<usize>>,
}

impl OnlineState {
    pub(crate) fn new(config: GreedyClusterer) -> OnlineState {
        OnlineState {
            config,
            reps: Vec::new(),
            buckets: HashMap::new(),
            scratch: AssignScratch::default(),
            run: ClusterStats::default(),
            survivors: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Assigns one read, returning its group id. A returned id equal to
    /// the previous group count means the read founded a new group.
    ///
    /// This is the exact decision sequence the materialised single-pass
    /// loop ran: candidates from band-bucket collisions (ascending,
    /// deduped), the q-gram error-ball prefilter, kernel confirmation, and
    /// first-match-wins joining.
    pub(crate) fn assign(&mut self, read: &Strand) -> usize {
        self.run.reads += 1;
        let sig = QGramSignature::new(read, self.config.qgram_len, self.config.sketch_len);
        let packed = PackedStrand::from(read);
        let profile = QGramProfile::new(read, self.config.qgram_len);
        let mut candidates: Vec<usize> = sig
            .hashes()
            .iter()
            .take(self.config.bands)
            .filter_map(|h| self.buckets.get(h))
            .flatten()
            .copied()
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        self.run.candidates += candidates.len();

        // Error-ball prefilter: a candidate whose q-gram lower bound
        // already exceeds the threshold cannot pass the kernel test, so
        // dropping it cannot change the clustering. The read's histogram
        // is loaded once; each candidate is a read-only scan.
        if self.config.prefilter && !candidates.is_empty() {
            self.scratch.qgram.load(&profile);
        }
        self.survivors.clear();
        for &id in &candidates {
            if self.config.prefilter
                && self
                    .scratch
                    .qgram
                    .exceeds(&self.reps[id].profile, self.config.distance_threshold)
            {
                self.run.pruned += 1;
                continue;
            }
            self.survivors.push(id);
        }

        // `survivors` is ascending, so the first match is the lowest
        // cluster id — the same winner the one-at-a-time loop with an
        // early break would have picked.
        let lanes: Vec<&PackedStrand> =
            self.survivors.iter().map(|&id| &self.reps[id].packed).collect();
        evaluate_candidates(
            &mut self.scratch,
            &lanes,
            &packed,
            self.config.distance_threshold,
            &mut self.run,
            &mut self.results,
        );
        let joined = self
            .survivors
            .iter()
            .zip(self.results.iter())
            .find(|(_, r)| r.is_some())
            .map(|(&id, _)| id);
        match joined {
            Some(id) => id,
            None => {
                let id = self.reps.len();
                for &h in sig.hashes().iter().take(self.config.bands) {
                    self.buckets.entry(h).or_default().push(id);
                }
                self.reps.push(Representative {
                    packed,
                    sig,
                    profile,
                });
                id
            }
        }
    }

    pub(crate) fn groups(&self) -> usize {
        self.reps.len()
    }

    pub(crate) fn stats(&self) -> ClusterStats {
        self.run
    }

    pub(crate) fn scratch_and_stats(
        &mut self,
    ) -> (&mut AssignScratch, &mut ClusterStats, &[Representative]) {
        (&mut self.scratch, &mut self.run, &self.reps)
    }

    pub(crate) fn into_parts(self) -> (Vec<Representative>, ClusterStats) {
        (self.reps, self.run)
    }
}

/// Precomputed reference-side state for nearest-reference matching,
/// shared by the materialised `cluster_against_references` pass and the
/// streaming clusterer's founding-time matcher.
pub(crate) struct ReferenceIndex {
    pub(crate) packed: Vec<PackedStrand>,
    pub(crate) sigs: Vec<QGramSignature>,
    pub(crate) profiles: Vec<QGramProfile>,
}

impl ReferenceIndex {
    pub(crate) fn new(config: &GreedyClusterer, references: &[Strand]) -> ReferenceIndex {
        ReferenceIndex {
            packed: references.iter().map(PackedStrand::from).collect(),
            sigs: references
                .iter()
                .map(|r| QGramSignature::new(r, config.qgram_len, config.sketch_len))
                .collect(),
            profiles: references
                .iter()
                .map(|r| QGramProfile::new(r, config.qgram_len))
                .collect(),
        }
    }

    /// Matches one group representative to its nearest reference, or
    /// `None` when no reference lies within the distance threshold.
    ///
    /// Pure in `(rep, self, config)` — the answer does not depend on any
    /// other group — which is what lets the streaming clusterer decide it
    /// at founding time while staying identical to the post-hoc pass:
    /// candidate references come from band sharing or sketch overlap, the
    /// error-ball bound discharges hopeless ones, the kernel confirms,
    /// and only a strictly smaller distance displaces the incumbent (ties
    /// resolve to the earliest reference).
    pub(crate) fn match_representative(
        &self,
        config: &GreedyClusterer,
        rep: &Representative,
        scratch: &mut AssignScratch,
        run: &mut ClusterStats,
        results: &mut Vec<Option<usize>>,
    ) -> Option<usize> {
        let mut cand_refs: Vec<usize> = Vec::new();
        if config.prefilter {
            scratch.qgram.load(&rep.profile);
        }
        for ref_idx in 0..self.packed.len() {
            if !rep.sig.shares_band(&self.sigs[ref_idx], config.bands)
                && rep.sig.overlap(&self.sigs[ref_idx]) == 0.0
            {
                continue;
            }
            run.candidates += 1;
            if config.prefilter
                && scratch.qgram.exceeds(&self.profiles[ref_idx], config.distance_threshold)
            {
                run.pruned += 1;
                continue;
            }
            cand_refs.push(ref_idx);
        }
        let lanes: Vec<&PackedStrand> = cand_refs.iter().map(|&r| &self.packed[r]).collect();
        evaluate_candidates(
            scratch,
            &lanes,
            &rep.packed,
            config.distance_threshold,
            run,
            results,
        );
        let mut best: Option<(usize, usize)> = None; // (ref idx, distance)
        for (&ref_idx, r) in cand_refs.iter().zip(results.iter()) {
            if let Some(d) = *r {
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((ref_idx, d));
                }
            }
        }
        best.map(|(ref_idx, _)| ref_idx)
    }
}

/// The verdict for one read pushed through the [`StreamingClusterer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamAssignment {
    /// The group the read joined (or founded).
    pub group: usize,
    /// Whether this read founded the group.
    pub founded: bool,
    /// In reference mode, the reference the read's group was matched to
    /// at founding time; `None` outside reference mode or when the group
    /// matched no reference within the threshold (those reads are the
    /// data loss imperfect clustering causes).
    pub reference: Option<usize>,
}

/// Online sharded clusterer: push reads in stream order, get group (and
/// optionally reference) assignments back, while only per-group
/// representatives stay resident.
///
/// Memberships are byte-identical to [`GreedyClusterer::cluster`] over the
/// same reads in the same order — both run the same [`OnlineState`]
/// decision core — at any push granularity (per read, per batch, whole
/// pool). See the module docs for the exactness argument.
///
/// # Examples
///
/// ```
/// use dnasim_cluster::{GreedyClusterer, StreamingClusterer};
/// use dnasim_core::Strand;
///
/// let a: Strand = "ACGTACGTACGTACGTACGT".parse()?;
/// let t: Strand = "TTTTTTTTTTTTTTTTTTTT".parse()?;
/// let pool = [a.clone(), t.clone(), a, t];
/// let mut stream = StreamingClusterer::new(GreedyClusterer::default());
/// let groups: Vec<usize> = pool.iter().map(|r| stream.push(r).group).collect();
/// assert_eq!(groups, [0, 1, 0, 1]);
/// assert_eq!(stream.resident_groups(), 2);
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
pub struct StreamingClusterer {
    state: OnlineState,
    refs: Option<ReferenceIndex>,
    /// Per-group founding-time reference match (reference mode only).
    group_refs: Vec<Option<usize>>,
    results: Vec<Option<usize>>,
}

impl std::fmt::Debug for StreamingClusterer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingClusterer")
            .field("config", &self.state.config)
            .field("resident_groups", &self.state.groups())
            .field("reference_mode", &self.refs.is_some())
            .finish()
    }
}

impl StreamingClusterer {
    /// Creates an online clusterer with the given configuration.
    pub fn new(config: GreedyClusterer) -> StreamingClusterer {
        StreamingClusterer {
            state: OnlineState::new(config),
            refs: None,
            group_refs: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Creates an online clusterer in *reference mode*: every founded
    /// group is immediately matched against `references`, and each pushed
    /// read reports the match in [`StreamAssignment::reference`].
    pub fn with_references(config: GreedyClusterer, references: &[Strand]) -> StreamingClusterer {
        StreamingClusterer {
            refs: Some(ReferenceIndex::new(&config, references)),
            state: OnlineState::new(config),
            group_refs: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Pushes one read, returning its assignment.
    pub fn push(&mut self, read: &Strand) -> StreamAssignment {
        let before = self.state.groups();
        let group = self.state.assign(read);
        let founded = group == before;
        if founded {
            if let Some(refs) = &self.refs {
                let config = self.state.config;
                let (scratch, run, reps) = self.state.scratch_and_stats();
                let matched = refs.match_representative(
                    &config,
                    &reps[group],
                    scratch,
                    run,
                    &mut self.results,
                );
                self.group_refs.push(matched);
            }
        }
        StreamAssignment {
            group,
            founded,
            reference: self.group_refs.get(group).copied().flatten(),
        }
    }

    /// Pushes a window of reads, returning one assignment per read in
    /// order. Equivalent to calling [`push`](StreamingClusterer::push) in
    /// a loop — batching is purely a convenience for `ClusterSource`-style
    /// drivers.
    pub fn push_batch(&mut self, reads: &[Strand]) -> Vec<StreamAssignment> {
        reads.iter().map(|r| self.push(r)).collect()
    }

    /// Number of groups founded so far — the resident-state gauge: the
    /// clusterer holds exactly one representative per group (plus the
    /// bucket map), never the reads themselves.
    pub fn resident_groups(&self) -> usize {
        self.state.groups()
    }

    /// Total reads pushed so far.
    pub fn reads_seen(&self) -> usize {
        self.state.stats().reads
    }

    /// The reference a group was matched to at founding time (reference
    /// mode only).
    pub fn group_reference(&self, group: usize) -> Option<usize> {
        self.group_refs.get(group).copied().flatten()
    }

    /// Counters accumulated so far (candidates, pruned, kernel work).
    pub fn stats(&self) -> ClusterStats {
        self.state.stats()
    }

    /// Finishes the stream, folding the pass counters into the
    /// process-wide totals (the same discipline every materialised
    /// [`GreedyClusterer`] entry point follows) and returning them.
    pub fn finish(self) -> ClusterStats {
        let (_, run) = self.state.into_parts();
        stats::record(&run);
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_channel::{ErrorModel, NaiveModel};
    use dnasim_core::rng::{seeded, SliceRandom};
    use dnasim_core::{Cluster, Dataset};

    /// Seeded noisy pools across several error rates and strand lengths —
    /// the same corpus the greedy filter differential uses.
    fn pools() -> Vec<(Vec<Strand>, Vec<Strand>)> {
        let mut out = Vec::new();
        for (seed, rate, len, refs, coverage) in [
            (200u64, 0.03f64, 110usize, 8usize, 5usize),
            (201, 0.08, 110, 6, 8),
            (202, 0.12, 90, 5, 6),
            (203, 0.05, 150, 7, 4),
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
            pool.shuffle(&mut rng);
            out.push((pool, references));
        }
        out
    }

    /// Rebuilds membership lists from streamed assignments.
    fn memberships(assignments: &[StreamAssignment]) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (read_idx, a) in assignments.iter().enumerate() {
            if a.group == groups.len() {
                groups.push(Vec::new());
            }
            groups[a.group].push(read_idx);
        }
        groups
    }

    #[test]
    fn streaming_matches_materialised_memberships_at_any_batch_size() {
        for (pool, _) in pools() {
            let expected = GreedyClusterer::default().cluster(&pool);
            for batch in [1usize, 7, 64, usize::MAX] {
                let mut stream = StreamingClusterer::new(GreedyClusterer::default());
                let mut assignments = Vec::new();
                for window in pool.chunks(batch.min(pool.len().max(1))) {
                    assignments.extend(stream.push_batch(window));
                }
                assert_eq!(
                    memberships(&assignments),
                    expected,
                    "batch={batch} pool={}",
                    pool.len()
                );
                assert_eq!(stream.resident_groups(), expected.len());
            }
        }
    }

    #[test]
    fn streaming_stats_match_materialised_stats() {
        for (pool, _) in pools() {
            let (_, run) = GreedyClusterer::default().cluster_stats(&pool);
            let mut stream = StreamingClusterer::new(GreedyClusterer::default());
            stream.push_batch(&pool);
            assert_eq!(stream.stats(), run);
            assert_eq!(stream.finish(), run);
        }
    }

    #[test]
    fn founding_time_reference_match_equals_post_hoc_pass() {
        for (pool, references) in pools() {
            let expected =
                GreedyClusterer::default().cluster_against_references(&pool, &references);
            // Stream the pool read by read, buffering read indices per
            // group to reproduce the post-hoc pass's group-major read
            // order.
            let mut stream =
                StreamingClusterer::with_references(GreedyClusterer::default(), &references);
            let assignments = stream.push_batch(&pool);
            let groups = memberships(&assignments);
            let mut assigned: Vec<Vec<Strand>> =
                references.iter().map(|_| Vec::new()).collect();
            for (gid, group) in groups.iter().enumerate() {
                if let Some(ref_idx) = stream.group_reference(gid) {
                    for &read_idx in group {
                        assigned[ref_idx].push(pool[read_idx].clone());
                    }
                }
            }
            let dataset: Dataset = references
                .iter()
                .zip(assigned)
                .map(|(reference, reads)| Cluster::new(reference.clone(), reads))
                .collect();
            assert_eq!(dataset, expected);
        }
    }

    #[test]
    fn assignment_reports_reference_for_joining_reads_too() {
        let (pool, references) = pools().remove(0);
        let mut stream =
            StreamingClusterer::with_references(GreedyClusterer::default(), &references);
        for read in &pool {
            let a = stream.push(read);
            assert_eq!(a.reference, stream.group_reference(a.group));
        }
    }

    #[test]
    fn resident_state_is_groups_not_reads() {
        // 400 near-identical reads: one group founded, so resident state
        // stays O(1) while reads_seen grows.
        let base: Strand = "ACGTACGTACGTACGTACGTACGTACGT".parse().unwrap();
        let mut stream = StreamingClusterer::new(GreedyClusterer::default());
        for _ in 0..400 {
            stream.push(&base);
        }
        assert_eq!(stream.resident_groups(), 1);
        assert_eq!(stream.reads_seen(), 400);
    }

    #[test]
    fn empty_and_degenerate_reads_do_not_panic() {
        let mut stream = StreamingClusterer::new(GreedyClusterer::default());
        let empty = Strand::new();
        let one: Strand = "A".parse().unwrap();
        let a0 = stream.push(&empty);
        let a1 = stream.push(&one);
        let a2 = stream.push(&empty);
        assert!(a0.founded);
        // Empty reads re-join the empty-read group (distance 0 ≤ threshold
        // via the candidate path only if buckets collide; with no q-grams
        // there are no bucket hits, so each empty read founds its own
        // group — the same behaviour the materialised pass has).
        let expected = GreedyClusterer::default().cluster(&[empty.clone(), one, empty]);
        assert_eq!(memberships(&[a0, a1, a2]), expected);
    }
}
