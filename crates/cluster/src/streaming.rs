//! Online sharded clustering over a read stream.
//!
//! [`GreedyClusterer`] batches poorly at paper scale: `cluster(&pool)`
//! needs the whole read pool in memory even though its decisions follow
//! the reads one at a time. This module hoists that decision sequence into
//! an explicitly *online* core:
//!
//! * the k-mer LSH **bucket signatures** ([`QGramSignature`] band hashes)
//!   are the shard assignment — an incoming read only ever probes the
//!   buckets its own signature exposes. A bucket is an id list, or a
//!   bitmap once the list would outgrow one, and a read's candidates are
//!   the set bits of the union of its buckets (`crate::buckets`);
//! * the only resident state is **per-group representatives** (packed
//!   strand + signature, built once at founding time), one row per group
//!   in a [`ScreenArena`] (the q-gram profile: presence mask, counts and
//!   sorted grams, stored once), plus the bucket map itself —
//!   `O(clusters)`, never `O(reads)`;
//! * intra-bucket assignment reuses the multi-pattern kernel tier: the
//!   q-gram error-ball bound discharges hopeless candidates, survivors
//!   are batched through
//!   [`PatternBank`](dnasim_metrics::bank::PatternBank) lanes. A read's
//!   whole candidate list goes through one batched
//!   [`QGramScratch::screen`] call over the arena, whose presence-mask
//!   test settles most hopeless candidates with one AND + popcount per
//!   row and leaves only near ones to the exact gram scan. Each verdict
//!   is exactly [`QGramScratch::exceeds`]'s, `bound > threshold`, so
//!   candidates, pruned counts and kernel lanes are the same as with the
//!   scan alone.
//!
//! # The batch core
//!
//! Every entry point — [`StreamingClusterer::push`] (a batch of one),
//! [`StreamingClusterer::push_batch`] and the materialised
//! [`GreedyClusterer`] passes — runs one batch core,
//! `OnlineState::assign_batch`. It cuts its input into private
//! fixed-size sub-batches and runs each in three phases:
//!
//! 1. *in parallel, read-only on the pre-batch state*: build each read's
//!    signature, packed strand and q-gram profile, gather its candidate
//!    groups from the buckets and screen them through the error ball in
//!    one batched call;
//! 2. *serially, in read order*: gather and screen the groups founded
//!    earlier in the same sub-batch, append them to the read's survivors,
//!    run one kernel pass over the union, and join the first match or
//!    found a group (filing it in the buckets and moving its profile into
//!    the arena);
//! 3. *in parallel*: match each group the sub-batch founded to its
//!    nearest reference (reference mode only).
//!
//! This is exactly the one-read-at-a-time decision sequence. A read joins
//! the lowest-id group within the threshold, and every group founded
//! before the sub-batch has a lower id than any group founded inside it.
//! So phase 1's survivors, followed by phase 2's, are the ascending
//! survivor list the one-at-a-time loop would have built, and one kernel
//! pass over them finds the same first match. The kernel sees the same
//! patterns in the same order, and reference matching is pure in the
//! representative, so memberships, reference attributions and every
//! [`ClusterStats`] counter are independent of the batch shape, the
//! sub-batch size and the thread count. `crates/cluster/tests/phase_split.rs`
//! checks this against a naive one-read-at-a-time oracle.
//!
//! In *reference mode* ([`StreamingClusterer::with_references`]) each
//! group is matched to its nearest reference **at founding time** — the
//! match is a pure function of the representative and the fixed reference
//! set, so deciding it eagerly is provably identical to a post-hoc
//! matching pass over the finished groups. Candidate references come from
//! a sketch-hash index instead of a walk over every reference
//! ([`ReferenceIndex`]).

use std::collections::HashMap;
use std::convert::Infallible;

use dnasim_core::{PackedStrand, Strand};
use dnasim_metrics::bank::{bank_within_with, BankScratch, PatternBank, MAX_LANES};
use dnasim_metrics::{myers, MyersScratch, QGramProfile, QGramScratch, ScreenArena};
use dnasim_par::{PoolError, ThreadPool};

use crate::buckets::{Bucket, CandidateGather};
use crate::greedy::GreedyClusterer;
use crate::signature::QGramSignature;
use crate::stats::ClusterStats;

/// Reads per private sub-batch of the batch core. Results do not depend
/// on it (see the module docs); it trades phase 2's serial in-batch
/// search against the fan-out cost of phases 1 and 3.
const SUB_BATCH: usize = 256;

/// Contiguous chunks per worker in the fanned-out phases; each chunk
/// reuses one scratch.
const CHUNKS_PER_WORKER: usize = 4;

/// What the clusterer keeps resident per founded cluster besides its
/// screen row (the q-gram profile, kept in the [`ScreenArena`] under the
/// same id), threaded through to reference assignment so nothing is
/// rebuilt.
pub(crate) struct Representative {
    pub(crate) packed: PackedStrand,
    pub(crate) sig: QGramSignature,
}

/// Reusable kernel buffers for one clustering pass.
#[derive(Default)]
pub(crate) struct AssignScratch {
    pub(crate) myers: MyersScratch,
    pub(crate) bank: BankScratch,
    pub(crate) qgram: QGramScratch,
    pub(crate) gather: CandidateGather,
    pub(crate) lane_out: Vec<Option<usize>>,
    /// `evaluate_candidates`' (word count, position) grouping buffer.
    slots: Vec<(usize, usize)>,
}

/// Runs the error-ball screen over `ids` in one batched call: counts
/// every id as a candidate and every discharged one as pruned, and appends
/// the rest to `survivors` in order. `load` puts the probing profile into
/// `qgram`; it runs only when there is something to screen.
fn screen(
    config: &GreedyClusterer,
    qgram: &mut QGramScratch,
    load: impl FnOnce(&mut QGramScratch),
    arena: &ScreenArena,
    ids: &[usize],
    run: &mut ClusterStats,
    survivors: &mut Vec<usize>,
) {
    run.candidates += ids.len();
    if !config.prefilter {
        survivors.extend_from_slice(ids);
    } else if !ids.is_empty() {
        load(qgram);
        run.pruned += qgram.screen(arena, ids, config.distance_threshold, survivors);
    }
}

/// Evaluates `text` against the pattern of every id in `ids`, writing
/// `results[k] = Some(distance)` iff `pattern(ids[k])` is within `limit`.
///
/// Patterns are grouped by word count (ascending, ids in list order within
/// a group) and packed [`MAX_LANES`] at a time into [`PatternBank`]s;
/// singleton groups (and empty patterns, which have no words to bank) use
/// the single-pattern kernel. Both kernels are exact, so `results` is
/// independent of the grouping. The grouping reuses `scratch.slots`, so a
/// call allocates nothing once the scratch has grown.
pub(crate) fn evaluate_candidates<'p>(
    scratch: &mut AssignScratch,
    ids: &[usize],
    pattern: impl Fn(usize) -> &'p PackedStrand,
    text: &PackedStrand,
    limit: usize,
    stats: &mut ClusterStats,
    results: &mut Vec<Option<usize>>,
) {
    results.clear();
    results.resize(ids.len(), None);
    // (word count, position in `ids`): positions are distinct, so the
    // unstable sort orders each word count's positions ascending — the
    // stable grouping by word count.
    let slots = &mut scratch.slots;
    slots.clear();
    slots.extend(ids.iter().enumerate().map(|(k, &id)| (pattern(id).words(), k)));
    slots.sort_unstable();
    for group in slots.chunk_by(|a, b| a.0 == b.0) {
        if group[0].0 == 0 {
            // Empty patterns: the kernel degenerates to |text| ≤ limit.
            for &(_, k) in group {
                stats.kernel_calls += 1;
                stats.kernel_lanes += 1;
                results[k] = myers::within_with(&mut scratch.myers, pattern(ids[k]), text, limit);
            }
            continue;
        }
        for chunk in group.chunks(MAX_LANES) {
            if let [(_, k)] = *chunk {
                stats.kernel_calls += 1;
                stats.kernel_lanes += 1;
                results[k] = myers::within_with(&mut scratch.myers, pattern(ids[k]), text, limit);
                continue;
            }
            let mut lanes = [text; MAX_LANES];
            for (lane, &(_, k)) in lanes.iter_mut().zip(chunk) {
                *lane = pattern(ids[k]);
            }
            match PatternBank::new(&lanes[..chunk.len()]) {
                Some(bank) => {
                    stats.kernel_calls += 1;
                    stats.kernel_lanes += chunk.len();
                    bank_within_with(&mut scratch.bank, &bank, text, limit, &mut scratch.lane_out);
                    for (lane, &(_, k)) in chunk.iter().enumerate() {
                        results[k] = scratch.lane_out.get(lane).copied().flatten();
                    }
                }
                None => {
                    // Unreachable by construction (equal non-zero word
                    // counts, chunk ≤ MAX_LANES); stay exact regardless.
                    for &(_, k) in chunk {
                        stats.kernel_calls += 1;
                        stats.kernel_lanes += 1;
                        results[k] =
                            myers::within_with(&mut scratch.myers, pattern(ids[k]), text, limit);
                    }
                }
            }
        }
    }
}

/// Where the batch core runs its parallel phases: a caller's
/// [`ThreadPool`], or [`Inline`] on the calling thread.
pub(crate) trait Fanout {
    /// How a fanned-out map fails.
    type Error;

    /// Workers the map can keep busy.
    fn threads(&self) -> usize;

    /// `f` over `0..len`, results in index order.
    fn map<R: Send>(
        &self,
        len: usize,
        f: impl Fn(usize) -> R + Sync,
    ) -> Result<Vec<R>, Self::Error>;
}

impl Fanout for ThreadPool {
    type Error = PoolError;

    fn threads(&self) -> usize {
        ThreadPool::threads(self)
    }

    fn map<R: Send>(&self, len: usize, f: impl Fn(usize) -> R + Sync) -> Result<Vec<R>, PoolError> {
        self.par_map_len(len, f)
    }
}

/// The calling thread, for [`StreamingClusterer::push`] and the
/// materialised [`GreedyClusterer`] passes: a plain loop, which cannot
/// fail.
pub(crate) struct Inline;

impl Fanout for Inline {
    type Error = Infallible;

    fn threads(&self) -> usize {
        1
    }

    fn map<R: Send>(
        &self,
        len: usize,
        f: impl Fn(usize) -> R + Sync,
    ) -> Result<Vec<R>, Infallible> {
        Ok((0..len).map(f).collect())
    }
}

/// `f` over `0..len` in contiguous chunks fanned out on `fanout`, each
/// chunk reusing one fresh [`AssignScratch`]; results in index order.
fn map_chunked<F: Fanout, R: Send>(
    fanout: &F,
    len: usize,
    f: impl Fn(usize, &mut AssignScratch) -> R + Sync,
) -> Result<Vec<R>, F::Error> {
    let chunk = len.div_ceil(fanout.threads() * CHUNKS_PER_WORKER).max(1);
    let chunks = fanout.map(len.div_ceil(chunk), |c| {
        let mut scratch = AssignScratch::default();
        (c * chunk..len.min((c + 1) * chunk))
            .map(|i| f(i, &mut scratch))
            .collect::<Vec<R>>()
    })?;
    Ok(chunks.into_iter().flatten().collect())
}

/// Phase 1's read-only work for one read: the read as a representative
/// and its profile, and its screened candidates among the groups founded
/// before its sub-batch.
struct Probe {
    rep: Representative,
    profile: QGramProfile,
    /// Surviving pre-batch candidates, ascending.
    survivors: Vec<usize>,
    /// Candidates and pruned among the pre-batch groups.
    run: ClusterStats,
}

/// The online assignment core shared by [`StreamingClusterer`] and every
/// materialised [`GreedyClusterer`] entry point.
///
/// Resident state is `O(clusters)`: one [`Representative`] and one screen
/// row per founded group plus the band-hash bucket map (and, in reference
/// mode, one reference match per group). Read membership lists are *not* kept here
/// — callers that want them accumulate the returned group ids.
pub(crate) struct OnlineState {
    config: GreedyClusterer,
    reps: Vec<Representative>,
    /// Each group's q-gram profile, under its group id.
    arena: ScreenArena,
    /// band hash → cluster ids that expose it (the LSH shard map).
    buckets: HashMap<u64, Bucket>,
    /// Reference mode: the fixed reference set.
    refs: Option<ReferenceIndex>,
    /// Reference mode: each group's founding-time reference match.
    group_refs: Vec<Option<usize>>,
    scratch: AssignScratch,
    run: ClusterStats,
    results: Vec<Option<usize>>,
}

impl OnlineState {
    pub(crate) fn new(config: GreedyClusterer, refs: Option<ReferenceIndex>) -> OnlineState {
        OnlineState {
            config,
            reps: Vec::new(),
            arena: ScreenArena::new(),
            buckets: HashMap::new(),
            refs,
            group_refs: Vec::new(),
            scratch: AssignScratch::default(),
            run: ClusterStats::default(),
            results: Vec::new(),
        }
    }

    /// Assigns `reads` in order, returning each read's group id. An id
    /// equal to the group count before that read means the read founded a
    /// new group.
    ///
    /// This is the one-read-at-a-time decision sequence — candidates from
    /// band-bucket collisions (ascending, deduped), the q-gram error-ball
    /// prefilter, kernel confirmation, first-match-wins joining — run in
    /// sub-batches whose phases 1 and 3 fan out on `fanout`. The module
    /// docs give the exactness argument.
    ///
    /// # Errors
    ///
    /// `F::Error` if a fanned-out phase fails; the state is then partway
    /// through a sub-batch and must not be used again.
    pub(crate) fn assign_batch<F: Fanout>(
        &mut self,
        reads: &[Strand],
        fanout: &F,
    ) -> Result<Vec<usize>, F::Error> {
        let mut ids = Vec::with_capacity(reads.len());
        for sub_batch in reads.chunks(SUB_BATCH) {
            // Phase 1: read-only on the pre-batch state.
            let probes = {
                let state = &*self;
                map_chunked(fanout, sub_batch.len(), |i, scratch| {
                    state.probe(&sub_batch[i], scratch)
                })?
            };
            // Phase 2: serial, in read order.
            let first = self.reps.len();
            for probe in probes {
                ids.push(self.join_or_found(probe, first));
            }
        }
        // Phase 3: reference matches of the groups this call founded.
        if let Some(refs) = &self.refs {
            let first = self.group_refs.len();
            let (config, arena, founded) = (&self.config, &self.arena, &self.reps[first..]);
            let matches = map_chunked(fanout, founded.len(), |k, scratch| {
                let mut run = ClusterStats::default();
                let mut results = Vec::new();
                let matched = refs.match_representative(
                    config,
                    &founded[k],
                    |qgram| qgram.load_row(arena, first + k),
                    scratch,
                    &mut run,
                    &mut results,
                );
                (matched, run)
            })?;
            for (matched, run) in matches {
                self.group_refs.push(matched);
                self.run.merge(&run);
            }
        }
        Ok(ids)
    }

    /// Phase 1 for one read: builds its representative and screens its
    /// candidates among the groups that exist now.
    fn probe(&self, read: &Strand, scratch: &mut AssignScratch) -> Probe {
        let rep = Representative {
            packed: PackedStrand::from(read),
            sig: QGramSignature::new(read, self.config.qgram_len, self.config.sketch_len),
        };
        let profile = QGramProfile::new(read, self.config.qgram_len);
        let mut run = ClusterStats::default();
        let mut survivors = Vec::new();
        let bands = rep.sig.hashes().iter().take(self.config.bands);
        let ids = scratch.gather.gather(&self.buckets, bands, 0);
        screen(
            &self.config,
            &mut scratch.qgram,
            |qgram| qgram.load(&profile),
            &self.arena,
            ids,
            &mut run,
            &mut survivors,
        );
        Probe {
            rep,
            profile,
            survivors,
            run,
        }
    }

    /// Phase 2 for one read: screens the groups founded earlier in its
    /// sub-batch (ids from `first` up, all above the probe's survivors),
    /// runs one kernel pass over the union and joins the first match or
    /// founds a group.
    fn join_or_found(&mut self, probe: Probe, first: usize) -> usize {
        let Probe {
            rep,
            profile,
            mut survivors,
            run,
        } = probe;
        self.run.reads += 1;
        self.run.merge(&run);
        let config = self.config;
        let bands = rep.sig.hashes().iter().take(config.bands);
        let ids = self.scratch.gather.gather(&self.buckets, bands, first);
        screen(
            &config,
            &mut self.scratch.qgram,
            |qgram| qgram.load(&profile),
            &self.arena,
            ids,
            &mut self.run,
            &mut survivors,
        );

        // `survivors` is ascending, so the first match is the lowest
        // cluster id — the same winner the one-at-a-time loop with an
        // early break would have picked.
        let reps = &self.reps;
        evaluate_candidates(
            &mut self.scratch,
            &survivors,
            |id| &reps[id].packed,
            &rep.packed,
            config.distance_threshold,
            &mut self.run,
            &mut self.results,
        );
        if let Some((&id, _)) = survivors
            .iter()
            .zip(&self.results)
            .find(|(_, r)| r.is_some())
        {
            return id;
        }
        let id = self.reps.len();
        for &h in rep.sig.hashes().iter().take(config.bands) {
            self.buckets.entry(h).or_default().push(id);
        }
        self.reps.push(rep);
        self.arena.push(profile);
        id
    }

    pub(crate) fn groups(&self) -> usize {
        self.reps.len()
    }

    /// The reference a group was matched to at founding time (reference
    /// mode only).
    pub(crate) fn group_reference(&self, group: usize) -> Option<usize> {
        self.group_refs.get(group).copied().flatten()
    }

    pub(crate) fn stats(&self) -> ClusterStats {
        self.run
    }
}

/// Precomputed reference-side state for nearest-reference matching.
pub(crate) struct ReferenceIndex {
    packed: Vec<PackedStrand>,
    profiles: ScreenArena,
    /// Sketch hash → the references whose sketch holds it.
    by_hash: HashMap<u64, Bucket>,
}

impl ReferenceIndex {
    pub(crate) fn new(config: &GreedyClusterer, references: &[Strand]) -> ReferenceIndex {
        let mut by_hash: HashMap<u64, Bucket> = HashMap::new();
        let mut profiles = ScreenArena::new();
        for (r, reference) in references.iter().enumerate() {
            let sig = QGramSignature::new(reference, config.qgram_len, config.sketch_len);
            for &h in sig.hashes() {
                by_hash.entry(h).or_default().push(r);
            }
            profiles.push(QGramProfile::new(reference, config.qgram_len));
        }
        ReferenceIndex {
            packed: references.iter().map(PackedStrand::from).collect(),
            profiles,
            by_hash,
        }
    }

    /// The references whose sketch shares any hash with `sig`, ascending.
    ///
    /// This is the set the old walk over every reference accepted with
    /// `shares_band || overlap != 0`: a shared leading band hash is a
    /// shared hash, and the overlap is non-zero exactly when some hash is
    /// shared.
    pub(crate) fn candidates<'g>(
        &self,
        sig: &QGramSignature,
        gather: &'g mut CandidateGather,
    ) -> &'g [usize] {
        gather.gather(&self.by_hash, sig.hashes(), 0)
    }

    /// Matches one group representative to its nearest reference, or
    /// `None` when no reference lies within the distance threshold. `load`
    /// puts the representative's profile into `scratch.qgram`.
    ///
    /// Pure in `(rep, self, config)` — the answer does not depend on any
    /// other group — which is what lets the clusterer decide it at
    /// founding time, in parallel, while staying identical to a post-hoc
    /// pass: the error-ball bound discharges hopeless
    /// [`candidates`](ReferenceIndex::candidates), the kernel confirms,
    /// and only a strictly smaller distance displaces the incumbent (ties
    /// resolve to the earliest reference).
    pub(crate) fn match_representative(
        &self,
        config: &GreedyClusterer,
        rep: &Representative,
        load: impl FnOnce(&mut QGramScratch),
        scratch: &mut AssignScratch,
        run: &mut ClusterStats,
        results: &mut Vec<Option<usize>>,
    ) -> Option<usize> {
        let mut cand_refs: Vec<usize> = Vec::new();
        let ids = self.candidates(&rep.sig, &mut scratch.gather);
        screen(
            config,
            &mut scratch.qgram,
            load,
            &self.profiles,
            ids,
            run,
            &mut cand_refs,
        );
        evaluate_candidates(
            scratch,
            &cand_refs,
            |r| &self.packed[r],
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
/// same reads in the same order — both run the same `OnlineState`
/// batch core — at any push granularity (per read, per batch, whole
/// pool) and on any thread count. See the module docs for the exactness
/// argument.
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
}

impl std::fmt::Debug for StreamingClusterer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingClusterer")
            .field("config", &self.state.config)
            .field("resident_groups", &self.state.groups())
            .field("reference_mode", &self.state.refs.is_some())
            .finish()
    }
}

impl StreamingClusterer {
    /// Creates an online clusterer with the given configuration.
    pub fn new(config: GreedyClusterer) -> StreamingClusterer {
        StreamingClusterer {
            state: OnlineState::new(config, None),
        }
    }

    /// Creates an online clusterer in *reference mode*: every founded
    /// group is immediately matched against `references`, and each pushed
    /// read reports the match in [`StreamAssignment::reference`].
    pub fn with_references(config: GreedyClusterer, references: &[Strand]) -> StreamingClusterer {
        StreamingClusterer {
            state: OnlineState::new(config, Some(ReferenceIndex::new(&config, references))),
        }
    }

    /// Pushes one read, returning its assignment: a batch of one, run on
    /// the calling thread.
    pub fn push(&mut self, read: &Strand) -> StreamAssignment {
        let before = self.state.groups();
        let Ok(ids) = self.state.assign_batch(std::slice::from_ref(read), &Inline);
        // One read in, one id out.
        self.assignments(before, ids)[0]
    }

    /// Pushes a window of reads, returning one assignment per read in
    /// order, with the per-read work fanned out on `workers`.
    ///
    /// The assignments, the group references and [`stats`](Self::stats)
    /// are exactly those of calling [`push`](StreamingClusterer::push) in
    /// a loop, at any window size and thread count.
    ///
    /// # Errors
    ///
    /// [`PoolError`] if a worker panicked. The clusterer is then partway
    /// through the window and must be discarded.
    pub fn push_batch(
        &mut self,
        reads: &[Strand],
        workers: &ThreadPool,
    ) -> Result<Vec<StreamAssignment>, PoolError> {
        let before = self.state.groups();
        let ids = self.state.assign_batch(reads, workers)?;
        Ok(self.assignments(before, ids))
    }

    /// Turns the group ids of consecutive reads into assignments; `next`
    /// is the group count before the first of them.
    fn assignments(&self, mut next: usize, ids: Vec<usize>) -> Vec<StreamAssignment> {
        ids.into_iter()
            .map(|group| {
                let founded = group == next;
                next += usize::from(founded);
                StreamAssignment {
                    group,
                    founded,
                    reference: self.state.group_reference(group),
                }
            })
            .collect()
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
        self.state.group_reference(group)
    }

    /// Counters accumulated so far (candidates, pruned, kernel work).
    pub fn stats(&self) -> ClusterStats {
        self.state.stats()
    }

    /// Finishes the stream, returning the pass counters — the same
    /// [`ClusterStats`] the materialised [`GreedyClusterer`] passes return
    /// alongside their groups.
    pub fn finish(self) -> ClusterStats {
        self.state.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_channel::{ErrorModel, NaiveModel};
    use dnasim_core::rng::{seeded, SliceRandom};
    use dnasim_core::{Cluster, Dataset};

    fn workers() -> ThreadPool {
        ThreadPool::new(2)
    }

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
            let expected = GreedyClusterer::default().cluster(&pool).0;
            for batch in [1usize, 7, 64, usize::MAX] {
                let mut stream = StreamingClusterer::new(GreedyClusterer::default());
                let mut assignments = Vec::new();
                for window in pool.chunks(batch.min(pool.len().max(1))) {
                    let window = stream
                        .push_batch(window, &workers())
                        .expect("no worker panics");
                    assignments.extend(window);
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
            let (_, run) = GreedyClusterer::default().cluster(&pool);
            let mut stream = StreamingClusterer::new(GreedyClusterer::default());
            stream
                .push_batch(&pool, &workers())
                .expect("no worker panics");
            assert_eq!(stream.stats(), run);
            assert_eq!(stream.finish(), run);
        }
    }

    #[test]
    fn founding_time_reference_match_equals_post_hoc_pass() {
        for (pool, references) in pools() {
            let expected =
                GreedyClusterer::default().cluster_against_references(&pool, &references).0;
            // Stream the pool read by read, buffering read indices per
            // group to reproduce the post-hoc pass's group-major read
            // order.
            let mut stream =
                StreamingClusterer::with_references(GreedyClusterer::default(), &references);
            let assignments = stream
                .push_batch(&pool, &workers())
                .expect("no worker panics");
            let groups = memberships(&assignments);
            let mut assigned: Vec<Vec<Strand>> = references.iter().map(|_| Vec::new()).collect();
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
        // Every empty read has the same single whole-strand sketch hash,
        // so the second empty read finds group 0 in its bucket and joins
        // it (distance 0) — the same behaviour the materialised pass has.
        assert_eq!(memberships(&[a0, a1, a2]), [vec![0, 2], vec![1]]);
        let expected = GreedyClusterer::default().cluster(&[empty.clone(), one, empty]).0;
        assert_eq!(memberships(&[a0, a1, a2]), expected);
    }
}

#[cfg(test)]
mod index_tests {
    use super::*;
    use dnasim_core::rng::{seeded, Rng};
    use dnasim_core::Base;

    /// Random, primer-flanked, homopolymer-heavy and empty/short strands:
    /// the shapes whose sketches collide in different ways.
    fn strands(seed: u64) -> Vec<Strand> {
        let mut rng = seeded(seed);
        let forward = Strand::random(20, &mut rng);
        let reverse = Strand::random(20, &mut rng);
        let mut out = vec![Strand::new(), "A".parse().unwrap(), "ACGT".parse().unwrap()];
        for _ in 0..40 {
            let len = (rng.next_u64() % 160) as usize;
            out.push(Strand::random(len, &mut rng));
            out.push(
                forward
                    .concat(&Strand::random(len, &mut rng))
                    .concat(&reverse),
            );
            let run = 1 + (rng.next_u64() % 20) as usize;
            out.push(
                (0..len)
                    .map(|i| {
                        let bump = usize::from(rng.next_u64().is_multiple_of(8));
                        Base::ALL[(i / run + bump) % 4]
                    })
                    .collect(),
            );
            out.push(Strand::random((rng.next_u64() % 6) as usize, &mut rng));
        }
        out
    }

    #[test]
    fn reference_index_candidates_equal_the_band_or_overlap_walk() {
        let references = strands(60);
        let queries = strands(61);
        for config in [
            GreedyClusterer::default(),
            GreedyClusterer {
                qgram_len: 3,
                sketch_len: 4,
                bands: 1,
                ..GreedyClusterer::default()
            },
        ] {
            let index = ReferenceIndex::new(&config, &references);
            let sigs: Vec<QGramSignature> = references
                .iter()
                .map(|r| QGramSignature::new(r, config.qgram_len, config.sketch_len))
                .collect();
            let mut gather = CandidateGather::default();
            let mut shared = 0usize;
            for query in queries.iter().chain(&references) {
                let sig = QGramSignature::new(query, config.qgram_len, config.sketch_len);
                let walk: Vec<usize> = (0..sigs.len())
                    .filter(|&r| {
                        sig.shares_band(&sigs[r], config.bands) || sig.overlap(&sigs[r]) != 0.0
                    })
                    .collect();
                assert_eq!(
                    index.candidates(&sig, &mut gather),
                    walk.as_slice(),
                    "query {query}"
                );
                shared += walk.len();
            }
            assert!(
                shared > queries.len() + references.len(),
                "no sketch ever collided"
            );
        }
    }

    #[test]
    fn gather_lists_each_id_at_or_above_the_floor_once_in_order() {
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        buckets.insert(1, vec![0, 3, 64, 130]);
        buckets.insert(2, vec![3, 65, 130, 200]);
        buckets.insert(3, vec![5]);
        let mut gather = CandidateGather::default();
        assert_eq!(
            gather.gather(&buckets, &[1, 2, 9], 0),
            [0, 3, 64, 65, 130, 200]
        );
        assert_eq!(gather.gather(&buckets, &[2, 1], 64), [64, 65, 130, 200]);
        assert_eq!(gather.gather(&buckets, &[3], 6), [] as [usize; 0]);
        // The bitset is left clear: a fresh gather sees no stale bits.
        assert_eq!(gather.gather(&buckets, &[3], 0), [5]);
    }
}
