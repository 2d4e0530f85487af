//! The full write→store→read archival pipeline, end to end, and the
//! storage core it shares with random access.
//!
//! Composes every substrate in the workspace: codec (layout + RS + XOR
//! parity) → multi-stage channel (synthesis, decay, PCR, sequencing) →
//! clustering → trace reconstruction → decode. This is the "downstream
//! user" path: store a byte buffer in simulated DNA and get it back.
//!
//! How a file becomes strands and how it comes back is decided here,
//! once: `encode_payload` frames and protects the bytes, `decode_cluster`
//! runs the inner decode ensemble, `merge_first_wins` fills the strand
//! slots, and `recover_payload` runs the outer erasure code and
//! reassembles the bytes. The random-access pool (`FilePool`) stores and
//! retrieves through the same four functions.

use std::fmt;

use dnasim_channel::stages::{DecayStage, PcrStage, SequencingStage, SynthesisStage};
use dnasim_channel::NaiveModel;
use dnasim_cluster::{ClusterStats, GreedyClusterer, StreamingClusterer};
use dnasim_codec::{LayoutError, OuterRsCode, RecoveryOutcome, RsError, StrandLayout, XorParity};
use dnasim_core::rng::{RngExt, SeedSequence, SimRng};
use dnasim_core::{resident_reads, Cluster, DnasimError, Strand, WindowStats};
use dnasim_dataset::GroundTruthChannel;
use dnasim_par::{PoolError, RunCtx, ThreadPool};
use dnasim_reconstruct::{
    BmaLookahead, Iterative, MajorityVote, TraceReconstructor, TwoWayIterative,
};

/// Strand-level erasure protection scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErasureScheme {
    /// XOR parity: one parity strand per group, recovers one loss.
    Xor {
        /// Payload strands per parity group.
        group: usize,
    },
    /// Outer Reed–Solomon across strands: `total − payload` parity strands
    /// per group, recovering that many losses.
    OuterRs {
        /// Total strands per group (payload + parity).
        total: usize,
        /// Payload strands per group.
        payload: usize,
    },
}

impl ErasureScheme {
    /// Validates the scheme's parameters, once, into the code that
    /// protects and recovers strands with them. XOR over `group` payloads
    /// is the `(group + 1, group)` code, so an empty group is reported in
    /// the same terms as an invalid Reed–Solomon shape.
    pub(crate) fn code(self) -> Result<ErasureCode, RsError> {
        match self {
            ErasureScheme::Xor { group: 0 } => Err(RsError::InvalidParameters { n: 1, k: 0 }),
            ErasureScheme::Xor { group } => Ok(ErasureCode::Xor(XorParity::new(group))),
            ErasureScheme::OuterRs { total, payload } => OuterRsCode::new(total, payload)
                .map(ErasureCode::OuterRs)
                .map_err(|_| RsError::InvalidParameters { n: total, k: payload }),
        }
    }
}

/// A validated [`ErasureScheme`]: the outer code both storage paths
/// protect with and recover through.
#[derive(Debug, Clone)]
pub(crate) enum ErasureCode {
    Xor(XorParity),
    OuterRs(OuterRsCode),
}

impl ErasureCode {
    fn protect(&self, payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
        match self {
            ErasureCode::Xor(code) => code.protect(payloads),
            ErasureCode::OuterRs(code) => code.protect(payloads),
        }
    }

    fn recover_lenient(&self, received: &mut [Option<Vec<u8>>]) -> RecoveryOutcome {
        match self {
            ErasureCode::Xor(code) => code.recover_lenient(received),
            ErasureCode::OuterRs(code) => code.recover_lenient(received),
        }
    }

    /// Erased strands per group the code absorbs before data is lost.
    fn loss_budget(&self) -> usize {
        match self {
            ErasureCode::Xor(_) => 1,
            ErasureCode::OuterRs(code) => code.loss_budget(),
        }
    }
}

/// How the read path reacts when a cluster cannot be decoded even after
/// erasure recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArchiveMode {
    /// Abort the round trip with [`ArchiveError::Unrecoverable`] — the
    /// historical behaviour, right when any data loss is unacceptable.
    #[default]
    Strict,
    /// Degrade gracefully: quarantine undecodable clusters as erasures,
    /// recover every group within the outer code's budget, zero-fill the
    /// rest, and report the damage in the [`ArchiveReport`] instead of
    /// failing.
    Lenient,
}

/// Configuration of the end-to-end archival simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveConfig {
    /// Reed–Solomon codeword length per strand payload.
    pub rs_codeword_len: usize,
    /// Reed–Solomon data bytes per strand payload.
    pub rs_data_len: usize,
    /// Strand-level erasure protection.
    pub erasure: ErasureScheme,
    /// Total sequencing reads drawn from the molecule pool.
    pub sequencing_reads_per_strand: usize,
    /// Storage duration in years.
    pub storage_years: f64,
    /// Whether to run the real online greedy clusterer over the sequenced
    /// reads (imperfect clustering) instead of grouping them by origin
    /// (perfect clustering). The reads reach the clusterer group-major, in
    /// strand order; nothing shuffles them.
    pub imperfect_clustering: bool,
    /// Reaction to unrecoverable clusters: abort or degrade gracefully.
    pub mode: ArchiveMode,
}

impl Default for ArchiveConfig {
    fn default() -> ArchiveConfig {
        ArchiveConfig {
            rs_codeword_len: 32,
            rs_data_len: 16,
            erasure: ErasureScheme::Xor { group: 4 },
            sequencing_reads_per_strand: 20,
            storage_years: 100.0,
            imperfect_clustering: false,
            mode: ArchiveMode::Strict,
        }
    }
}

/// Outcome of one archival round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveReport {
    /// The recovered payload.
    pub data: Vec<u8>,
    /// Strands synthesized (payload + parity).
    pub strands_written: usize,
    /// Reads sequenced.
    pub reads_sequenced: usize,
    /// Strands that had to be recovered via XOR parity.
    pub strands_recovered_by_parity: usize,
    /// Strand slots with no decodable cluster, quarantined as erasures and
    /// handed to the outer code.
    pub clusters_quarantined: usize,
    /// The degradation budget: erased strands the outer code can absorb
    /// per parity group before data is lost.
    pub loss_budget_per_group: usize,
    /// Parity groups whose quarantined strands exceeded the budget.
    pub groups_exceeding_budget: usize,
    /// Payload strands still missing after erasure recovery. Zero-filled
    /// in [`ArchiveMode::Lenient`]; [`ArchiveMode::Strict`] aborts instead.
    pub strands_unrecovered: usize,
}

impl ArchiveReport {
    /// True when the returned `data` is incomplete (some payload strands
    /// were zero-filled because the degradation budget was exceeded).
    pub fn is_degraded(&self) -> bool {
        self.strands_unrecovered > 0
    }
}

/// Errors from the archival round trip.
#[derive(Debug)]
pub enum ArchiveError {
    /// Layout construction failed.
    Layout(RsError),
    /// Decoding failed even after parity recovery.
    Unrecoverable(LayoutError),
    /// A thread-pool worker panicked in a parallel stage (channel
    /// generation, clustering or decoding).
    Worker(PoolError),
    /// The work budget's cancellation token was raised mid-decode (budget
    /// *exhaustion* does not take this path: it quarantines the undecoded
    /// remainder and lets erasure recovery absorb the damage).
    Cancelled(DnasimError),
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Layout(e) => write!(f, "layout construction failed: {e}"),
            ArchiveError::Unrecoverable(e) => write!(f, "file unrecoverable: {e}"),
            ArchiveError::Worker(e) => write!(f, "parallel stage failed: {e}"),
            ArchiveError::Cancelled(e) => write!(f, "archive cancelled: {e}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<ArchiveError> for DnasimError {
    fn from(e: ArchiveError) -> DnasimError {
        match e {
            ArchiveError::Layout(err) => DnasimError::config("archive", err.to_string()),
            ArchiveError::Unrecoverable(err) => DnasimError::codec(err.to_string()),
            ArchiveError::Worker(err) => DnasimError::from(err),
            ArchiveError::Cancelled(err) => err,
        }
    }
}

/// The inner decode ensemble, in the order it is tried. Different
/// reconstructors leave *different* residual indels, and an indel shifts
/// every downstream payload symbol, so a strand one algorithm cannot
/// deliver is often decodable from another's estimate.
pub(crate) fn decode_ensemble() -> Vec<Box<dyn TraceReconstructor>> {
    vec![
        Box::new(TwoWayIterative::default()),
        Box::new(Iterative::default()),
        Box::new(BmaLookahead::default()),
        Box::new(MajorityVote),
    ]
}

/// Frames `data` into strands: chunk it into RS payloads (zero-padding the
/// last chunk, or emitting one zero chunk for empty input), protect the
/// chunks with `code`, flatten them into one byte stream and let the
/// layout index the strands, one per protected chunk. Returns the payload
/// chunk count and the strands.
pub(crate) fn encode_payload(
    data: &[u8],
    layout: &StrandLayout,
    code: &ErasureCode,
) -> (usize, Vec<Strand>) {
    let chunk = layout.payload_bytes();
    let mut chunks: Vec<Vec<u8>> = data.chunks(chunk).map(<[u8]>::to_vec).collect();
    if chunks.is_empty() {
        chunks.push(vec![0; chunk]);
    }
    if let Some(last) = chunks.last_mut() {
        last.resize(chunk, 0);
    }
    (chunks.len(), layout.encode_file(&code.protect(&chunks).concat()))
}

/// Tries every reconstructor in `ensemble` (then raw reads as a last
/// resort) to decode one cluster into a `(strand index, payload bytes)`
/// pair. Pure: safe to fan out across workers without changing results.
pub(crate) fn decode_cluster(
    cluster: &Cluster,
    ensemble: &[Box<dyn TraceReconstructor>],
    layout: &StrandLayout,
) -> Option<(u32, Vec<u8>)> {
    if cluster.is_erasure() {
        return None;
    }
    for algorithm in ensemble {
        let estimate = algorithm.reconstruct(cluster.reads(), layout.strand_len());
        if let Ok(hit) = layout.decode_strand(&estimate) {
            return Some(hit);
        }
    }
    // Last resort: an individual read that happened to avoid indels
    // decodes directly through RS even when every consensus carries a
    // shift.
    cluster
        .reads()
        .iter()
        .find_map(|read| layout.decode_strand(read).ok())
}

/// Merges decoded strands into their slots in decode order: the first
/// decode of a slot wins, so the result does not depend on how clusters
/// were windowed or scheduled. Indices outside the protected layout (a
/// misdecoded index) are dropped.
pub(crate) fn merge_first_wins(
    received: &mut [Option<Vec<u8>>],
    decoded: impl IntoIterator<Item = Option<(u32, Vec<u8>)>>,
) {
    for (index, bytes) in decoded.into_iter().flatten() {
        if let Some(slot @ None) = received.get_mut(index as usize) {
            *slot = Some(bytes);
        }
    }
}

/// Erasure recovery and reassembly: runs `code` over `received` (`None`
/// marks a quarantined strand), then concatenates the first
/// `payload_count` slots of `chunk` bytes and truncates to `byte_len`
/// (at least one byte). Strict mode fails on any group over its loss
/// budget; lenient mode zero-fills the strands it could not recover.
/// Returns the bytes, the recovery outcome and the zero-filled count.
pub(crate) fn recover_payload(
    code: &ErasureCode,
    received: &mut [Option<Vec<u8>>],
    payload_count: usize,
    chunk: usize,
    byte_len: usize,
    mode: ArchiveMode,
) -> Result<(Vec<u8>, RecoveryOutcome, usize), LayoutError> {
    let outcome = code.recover_lenient(received);
    if mode == ArchiveMode::Strict && !outcome.failed_groups.is_empty() {
        let index = received.iter().position(Option::is_none).unwrap_or(0) as u32;
        return Err(LayoutError::MissingStrand { index });
    }
    let mut out = Vec::with_capacity(payload_count * chunk);
    let mut zero_filled = 0usize;
    for (i, slot) in received.iter().take(payload_count).enumerate() {
        match (slot, mode) {
            (Some(bytes), _) => out.extend_from_slice(bytes),
            (None, ArchiveMode::Strict) => {
                return Err(LayoutError::MissingStrand { index: i as u32 })
            }
            (None, ArchiveMode::Lenient) => {
                out.extend(std::iter::repeat_n(0u8, chunk));
                zero_filled += 1;
            }
        }
    }
    out.truncate(byte_len.max(1));
    Ok((out, outcome, zero_filled))
}

/// Runs `produce` on every strand group `0..groups`, `window_len` groups at
/// a time fanned out on `workers`, and hands each window's results to
/// `consume` in group order. `consume` returns `false` to stop early.
fn for_each_group_window<T: Send>(
    groups: usize,
    window_len: usize,
    workers: &ThreadPool,
    produce: impl Fn(usize) -> T + Sync,
    mut consume: impl FnMut(Vec<T>) -> Result<bool, ArchiveError>,
) -> Result<(), ArchiveError> {
    let mut start = 0usize;
    while start < groups {
        let len = window_len.min(groups - start);
        let window = workers
            .par_map_len(len, |i| produce(start + i))
            .map_err(ArchiveError::Worker)?;
        if !consume(window)? {
            break;
        }
        start += len;
    }
    Ok(())
}

/// Stores `data` in simulated DNA and reads it back.
///
/// # Errors
///
/// [`ArchiveError`] if the layout is invalid or the file cannot be
/// recovered even after RS correction and parity recovery.
///
/// # Examples
///
/// ```
/// use dnasim_core::rng::seeded;
/// use dnasim_pipeline::{archive_round_trip, ArchiveConfig};
///
/// let mut rng = seeded(7);
/// let data: Vec<u8> = (0..200u8).collect();
/// let report = archive_round_trip(&data, &ArchiveConfig::default(), &mut rng)?;
/// assert_eq!(&report.data[..data.len()], &data[..]);
/// # Ok::<(), dnasim_pipeline::ArchiveError>(())
/// ```
pub fn archive_round_trip(
    data: &[u8],
    config: &ArchiveConfig,
    rng: &mut SimRng,
) -> Result<ArchiveReport, ArchiveError> {
    archive_round_trip_windowed(data, config, rng, &RunCtx::serial()).map(|(report, ..)| report)
}

/// [`archive_round_trip`] run window by window on `ctx.pool()`, with at
/// most `ctx.batch_size()` strand groups' molecules or clusters in flight,
/// metered by `ctx.budget()`. Returns the report, the window gauges and
/// the clustering counters (all zero unless the config clusters
/// imperfectly).
///
/// The molecule pool never exists as a whole. Each strand group's
/// synthesis → decay → PCR pool is regenerated on demand from an RNG
/// forked by group index, so any window can be revisited. A weights pass
/// sums each group's abundance and splits the read budget across groups;
/// the sequenced reads are then regenerated per group. Perfect clustering
/// decodes each window as it is sequenced. Imperfect clustering makes two
/// more passes: a clustering pass streams the reads through the online
/// clusterer's exact batch core (assignments do not depend on the thread
/// count) and keeps only each read's reference index, and a routing pass
/// regenerates the reads and decodes each reference as soon as its last
/// read arrives. Decoding is pure per cluster and merges into the strand
/// slots in cluster order, so the report is byte-identical to
/// [`archive_round_trip`] for every batch size and thread count.
///
/// The budget is charged one work unit per decode attempt (the expensive
/// stage), admitted in the serial window loop. Budget *exhaustion* does
/// not abort the round trip — the archive layer already has a vocabulary
/// for partial results, so undecoded clusters are quarantined as erasures
/// and handed to the outer code, exactly as if the channel had destroyed
/// them: within the redundancy budget the payload still comes back
/// intact; beyond it, lenient mode reports degradation and strict mode
/// fails with the existing `Unrecoverable` error. Cancellation, by
/// contrast, returns [`DnasimError::DeadlineExceeded`] at the next window
/// boundary. Both cut points are deterministic at any batch size or
/// thread count.
///
/// # Errors
///
/// [`DnasimError::DeadlineExceeded`] on cancellation, plus everything
/// [`archive_round_trip`] reports (converted into [`DnasimError`]),
/// including a worker panic.
pub fn archive_round_trip_in(
    data: &[u8],
    config: &ArchiveConfig,
    rng: &mut SimRng,
    ctx: &RunCtx,
) -> Result<(ArchiveReport, WindowStats, ClusterStats), DnasimError> {
    archive_round_trip_windowed(data, config, rng, ctx).map_err(DnasimError::from)
}

/// [`archive_round_trip_in`] with an unlimited budget, without the
/// clustering counters. Kept because the benchmark under `perfbench/`
/// calls this signature.
///
/// # Errors
///
/// [`DnasimError::Config`] for `batch_size == 0`, plus everything
/// [`archive_round_trip_in`] reports.
pub fn archive_round_trip_stream(
    data: &[u8],
    config: &ArchiveConfig,
    rng: &mut SimRng,
    workers: &ThreadPool,
    batch_size: usize,
) -> Result<(ArchiveReport, WindowStats), DnasimError> {
    let ctx = RunCtx::new(workers, batch_size)?;
    archive_round_trip_in(data, config, rng, &ctx).map(|(report, window, _)| (report, window))
}

fn archive_round_trip_windowed(
    data: &[u8],
    config: &ArchiveConfig,
    rng: &mut SimRng,
    ctx: &RunCtx,
) -> Result<(ArchiveReport, WindowStats, ClusterStats), ArchiveError> {
    let (workers, budget) = (ctx.pool(), ctx.budget());
    // --- Encode: chunk → erasure-protect → RS payload strands. ---
    let layout = StrandLayout::new(config.rs_codeword_len, config.rs_data_len, rng)
        .map_err(ArchiveError::Layout)?;
    let code = config.erasure.code().map_err(ArchiveError::Layout)?;
    let (payload_count, references) = encode_payload(data, &layout, &code);

    // --- Channel: synthesis → decay → PCR → sequencing, sharded per
    // strand group. ---
    // Realistic synthesis: error rate a few 1e-4 per base, and enough
    // distinct molecule variants that no single erroneous molecule can
    // dominate the sequenced consensus after PCR bias. Every stage up to
    // sequencing touches no cross-reference state, so each group's slice
    // of the molecule pool is generated on demand from an RNG forked by
    // group index — the pool as a whole never exists in memory.
    let synthesis = SynthesisStage {
        error_model: NaiveModel::new(0.0002, 0.0004, 0.0004),
        variants_per_reference: 12,
        dropout_probability: 0.002,
        mean_abundance: 20.0,
    };
    let decay = DecayStage {
        years: config.storage_years,
        half_life_years: 500.0,
        loss_threshold: 1e-6,
    };
    let pcr = PcrStage {
        cycles: 12,
        efficiency: 0.85,
        bias_sigma: 0.05,
        substitution_rate: 0.0002,
    };
    let sequencing = SequencingStage {
        error_model: GroundTruthChannel::new(0.03, layout.strand_len()),
        total_reads: references.len() * config.sequencing_reads_per_strand,
    };
    let seeds = SeedSequence::new(rng.random::<u64>());
    let channel_seeds = SeedSequence::new(seeds.derive("channel"));
    let sample_seeds = SeedSequence::new(seeds.derive("sample"));
    // One group's molecules, regenerated identically on every call: a pure
    // function of the group index, so windows can be revisited (weights
    // pass, then sampling pass) without ever holding the whole pool.
    let group_pool = |g: usize| {
        let mut grng = channel_seeds.fork_rng(g as u64);
        let pool = synthesis.run_group(g, &references[g], &mut grng);
        let pool = decay.run(&pool);
        pcr.run(&pool, &mut grng)
    };
    let refs_len = references.len();
    let window_len = ctx.batch_size().min(refs_len.max(1));

    // Weights pass: per-group total abundance — O(references) scalars
    // resident, never the molecules themselves. The global read budget is
    // then split across groups by the same categorical draw the whole-pool
    // sampler made, collapsed to group granularity.
    let mut group_weights = Vec::with_capacity(refs_len);
    for_each_group_window(
        refs_len,
        window_len,
        workers,
        |g| group_pool(g).total_abundance(),
        |weights| {
            group_weights.extend(weights);
            Ok(true)
        },
    )?;
    let read_counts =
        sequencing.allocate_reads(&group_weights, &mut seeds.derive_rng("allocate"));
    // One group's sequenced reads, again a pure function of the group
    // index — the imperfect path regenerates them for its second pass.
    let sample_reads = |g: usize| {
        sequencing.sample_group(&group_pool(g), read_counts[g], &mut sample_seeds.fork_rng(g as u64))
    };

    // --- Reconstruct and decode every cluster. ---
    let ensemble = decode_ensemble();
    // Decode over a bounded window: at most `batch_size` clusters'
    // estimates exist at once, and each window merges serially in cluster
    // order (first-wins per slot) so quarantine counts and recovered
    // bytes are independent of both worker scheduling and batch size.
    let mut received: Vec<Option<Vec<u8>>> = vec![None; refs_len];
    let mut window = WindowStats::default();
    // Decodes one window of clusters, budget-metered (one unit per decode
    // attempt). Returns whether every cluster was admitted; `false` means
    // the budget ran dry — the caller stops decoding and the remaining
    // clusters stay quarantined for erasure recovery.
    let mut decode_window =
        |clusters: &[Cluster], resident_reads_now: usize| -> Result<bool, ArchiveError> {
            budget.check("decode").map_err(ArchiveError::Cancelled)?;
            let (decoded, admitted) = workers
                .par_map_admitted(budget, clusters, |_, cluster| {
                    decode_cluster(cluster, &ensemble, &layout)
                })
                .map_err(ArchiveError::Worker)?;
            if admitted > 0 {
                window.record_window(admitted, resident_reads_now);
            }
            merge_first_wins(&mut received, decoded);
            Ok(admitted == clusters.len())
        };

    let (reads_sequenced, cluster_stats) = if config.imperfect_clustering {
        // Clustering pass: stream the reads (group-major, window by
        // window) through the online clusterer, each window fanned out on
        // the workers. Every group is matched to its reference when it is
        // founded, so each read's reference is known once its window
        // returns; only the per-read reference index (not the read) is
        // kept, plus per-reference expected counts. The clusterer itself
        // holds per-group representatives only.
        let mut clusterer =
            StreamingClusterer::with_references(GreedyClusterer::default(), &references);
        let mut assignments: Vec<Option<u32>> = Vec::new();
        let mut expected = vec![0usize; refs_len];
        for_each_group_window(refs_len, window_len, workers, sample_reads, |reads_per_group| {
            let reads: Vec<Strand> = reads_per_group.into_iter().flatten().collect();
            let window = clusterer.push_batch(&reads, workers).map_err(ArchiveError::Worker)?;
            for assignment in window {
                let matched = assignment.reference;
                assignments.push(matched.map(|r| r as u32));
                if let Some(r) = matched {
                    expected[r] += 1;
                }
            }
            Ok(true)
        })?;
        let cluster_stats = clusterer.finish();

        // Routing pass: regenerate the same reads and route each into its
        // reference's pending buffer; a reference decodes (and frees its
        // buffer) once its last read arrives, so peak residency is
        // governed by how long clusters stay incomplete — audited by the
        // peak_resident_reads gauge — not by the pool size. References
        // that received no reads are quarantined erasures, decoded first
        // so every reference gets exactly one decode attempt.
        let mut pending: Vec<Vec<Strand>> = references.iter().map(|_| Vec::new()).collect();
        let mut ready: Vec<usize> = (0..refs_len).filter(|&r| expected[r] == 0).collect();
        let mut resident = 0usize;
        let mut peak_resident = 0usize;
        // Decodes queued references, `window_len` at a time, while at
        // least `min` are queued; returns `false` once the budget is dry.
        let mut drain = |ready: &mut Vec<usize>,
                         pending: &mut [Vec<Strand>],
                         resident: &mut usize,
                         min: usize|
         -> Result<bool, ArchiveError> {
            while ready.len() >= min {
                let take = window_len.min(ready.len());
                let clusters: Vec<Cluster> = ready
                    .drain(..take)
                    .map(|r| Cluster::new(references[r].clone(), std::mem::take(&mut pending[r])))
                    .collect();
                let complete = decode_window(&clusters, *resident)?;
                *resident -= resident_reads(&clusters);
                if !complete {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        let mut cursor = 0usize;
        let mut live = true;
        for_each_group_window(refs_len, window_len, workers, sample_reads, |reads_per_group| {
            for read in reads_per_group.into_iter().flatten() {
                if let Some(r) = assignments[cursor] {
                    let r = r as usize;
                    pending[r].push(read);
                    resident += 1;
                    if pending[r].len() == expected[r] {
                        ready.push(r);
                    }
                }
                cursor += 1;
            }
            peak_resident = peak_resident.max(resident);
            live = drain(&mut ready, &mut pending, &mut resident, window_len)?;
            Ok(live)
        })?;
        if live {
            drain(&mut ready, &mut pending, &mut resident, 1)?;
        }
        window.peak_resident_reads = window.peak_resident_reads.max(peak_resident);
        (expected.iter().sum(), cluster_stats)
    } else {
        // Perfect clustering: each reference's cluster is generated and
        // decoded inside one window — sequencing output for a window
        // exists only while that window decodes.
        for_each_group_window(
            refs_len,
            window_len,
            workers,
            |g| Cluster::new(references[g].clone(), sample_reads(g)),
            |clusters| decode_window(&clusters, resident_reads(&clusters)),
        )?;
        (read_counts.iter().sum(), ClusterStats::default())
    };

    // --- Erasure recovery: quarantined slots become erasures for the
    // outer code. Strict mode aborts on any budget overrun; lenient mode
    // recovers every group it can and zero-fills the rest. ---
    let clusters_quarantined = received.iter().filter(|slot| slot.is_none()).count();
    let (out, outcome, strands_unrecovered) = recover_payload(
        &code,
        &mut received,
        payload_count,
        layout.payload_bytes(),
        data.len(),
        config.mode,
    )
    .map_err(ArchiveError::Unrecoverable)?;
    Ok((
        ArchiveReport {
            data: out,
            strands_written: refs_len,
            reads_sequenced,
            strands_recovered_by_parity: outcome.recovered,
            clusters_quarantined,
            loss_budget_per_group: code.loss_budget(),
            groups_exceeding_budget: outcome.failed_groups.len(),
            strands_unrecovered,
        },
        window,
        cluster_stats,
    ))
}


#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::seeded;

    #[test]
    fn round_trip_recovers_payload() {
        let mut rng = seeded(1);
        let data: Vec<u8> = (0u8..=255).cycle().take(400).collect();
        let report = archive_round_trip(&data, &ArchiveConfig::default(), &mut rng).unwrap();
        assert_eq!(&report.data[..], &data[..]);
        assert!(report.strands_written > data.len() / 16);
        assert!(report.reads_sequenced > 0);
    }

    #[test]
    fn round_trip_with_imperfect_clustering() {
        let mut rng = seeded(2);
        let data: Vec<u8> = (0u8..200).collect();
        let config = ArchiveConfig {
            imperfect_clustering: true,
            sequencing_reads_per_strand: 14,
            ..ArchiveConfig::default()
        };
        let report = archive_round_trip(&data, &config, &mut rng).unwrap();
        assert_eq!(&report.data[..], &data[..]);
    }

    #[test]
    fn parallel_round_trip_matches_serial() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let serial =
            archive_round_trip(&data, &ArchiveConfig::default(), &mut seeded(31)).unwrap();
        for threads in [2, 4] {
            let ctx = RunCtx::new(&ThreadPool::new(threads), usize::MAX).unwrap();
            let (par, ..) =
                archive_round_trip_in(&data, &ArchiveConfig::default(), &mut seeded(31), &ctx)
                    .unwrap();
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn streamed_round_trip_matches_whole_at_any_batch_size() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let whole =
            archive_round_trip(&data, &ArchiveConfig::default(), &mut seeded(31)).unwrap();
        for batch_size in [1, 4, 32, usize::MAX] {
            let ctx = RunCtx::new(&ThreadPool::new(3), batch_size).unwrap();
            let (streamed, window, _) =
                archive_round_trip_in(&data, &ArchiveConfig::default(), &mut seeded(31), &ctx)
                    .unwrap();
            assert_eq!(streamed, whole, "batch_size={batch_size}");
            assert!(window.high_watermark <= batch_size);
            assert_eq!(window.clusters, whole.strands_written);
        }
    }

    #[test]
    fn streamed_round_trip_rejects_zero_batch() {
        let err = archive_round_trip_stream(
            &[1, 2, 3],
            &ArchiveConfig::default(),
            &mut seeded(1),
            &ThreadPool::serial(),
            0,
        )
        .unwrap_err();
        assert!(matches!(err, DnasimError::Config { .. }));
    }

    #[test]
    fn empty_payload_is_handled() {
        let mut rng = seeded(3);
        let report = archive_round_trip(&[], &ArchiveConfig::default(), &mut rng).unwrap();
        assert_eq!(report.data.len(), 1); // one zero-padded chunk, truncated to max(len, 1)
    }

    #[test]
    fn lenient_on_clean_channel_matches_strict() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let strict = archive_round_trip(&data, &ArchiveConfig::default(), &mut seeded(11)).unwrap();
        let lenient_config = ArchiveConfig {
            mode: ArchiveMode::Lenient,
            ..ArchiveConfig::default()
        };
        let lenient = archive_round_trip(&data, &lenient_config, &mut seeded(11)).unwrap();
        assert_eq!(strict.data, lenient.data);
        assert!(!lenient.is_degraded());
        assert_eq!(lenient.groups_exceeding_budget, 0);
        assert_eq!(lenient.loss_budget_per_group, 1); // XOR default
    }

    #[test]
    fn strict_aborts_when_nothing_is_sequenced() {
        let mut rng = seeded(5);
        let data = vec![0x5Au8; 120];
        let config = ArchiveConfig {
            sequencing_reads_per_strand: 0,
            ..ArchiveConfig::default()
        };
        let err = archive_round_trip(&data, &config, &mut rng).unwrap_err();
        assert!(matches!(err, ArchiveError::Unrecoverable(_)));
    }

    #[test]
    fn lenient_reports_total_loss_instead_of_aborting() {
        let mut rng = seeded(5);
        let data = vec![0x5Au8; 120];
        let config = ArchiveConfig {
            sequencing_reads_per_strand: 0,
            mode: ArchiveMode::Lenient,
            ..ArchiveConfig::default()
        };
        let report = archive_round_trip(&data, &config, &mut rng).unwrap();
        assert!(report.is_degraded());
        assert!(report.groups_exceeding_budget > 0);
        assert!(report.clusters_quarantined > 0);
        assert_eq!(report.data.len(), data.len());
        assert!(report.data.iter().all(|&b| b == 0), "lost strands zero-fill");
    }

    #[test]
    fn lenient_recovers_exactly_when_quarantine_within_budget() {
        // Starve the sequencer until some clusters fail, then check the
        // acceptance criterion: whenever quarantined losses stay within
        // the per-group budget, lenient mode returns the original bytes;
        // beyond it, it reports degradation instead of aborting.
        let data: Vec<u8> = (0u8..180).collect();
        let mut saw_quarantine = false;
        for seed in 0..12u64 {
            let config = ArchiveConfig {
                sequencing_reads_per_strand: 5,
                erasure: ErasureScheme::OuterRs { total: 6, payload: 4 },
                mode: ArchiveMode::Lenient,
                ..ArchiveConfig::default()
            };
            let report =
                archive_round_trip(&data, &config, &mut seeded(3000 + seed)).unwrap();
            saw_quarantine |= report.clusters_quarantined > 0;
            if report.groups_exceeding_budget == 0 {
                assert_eq!(&report.data[..], &data[..], "seed {seed}");
                assert!(!report.is_degraded());
            } else {
                assert!(report.is_degraded());
                assert_eq!(report.data.len(), data.len());
            }
        }
        assert!(saw_quarantine, "channel too clean to exercise quarantine");
    }

    #[test]
    fn centuries_of_storage_survive() {
        let mut rng = seeded(4);
        let data = vec![0xABu8; 160];
        let config = ArchiveConfig {
            storage_years: 1000.0,
            ..ArchiveConfig::default()
        };
        let report = archive_round_trip(&data, &config, &mut rng).unwrap();
        assert_eq!(&report.data[..], &data[..]);
    }
}

#[cfg(test)]
mod outer_code_tests {
    use super::*;
    use dnasim_core::rng::seeded;

    #[test]
    fn outer_rs_round_trip() {
        let mut rng = seeded(21);
        let data: Vec<u8> = (0u8..=255).cycle().take(320).collect();
        let config = ArchiveConfig {
            erasure: ErasureScheme::OuterRs { total: 6, payload: 4 },
            ..ArchiveConfig::default()
        };
        let report = archive_round_trip(&data, &config, &mut rng).unwrap();
        assert_eq!(&report.data[..], &data[..]);
    }

    #[test]
    fn invalid_erasure_parameters_are_layout_errors() {
        for erasure in [
            ErasureScheme::Xor { group: 0 },
            ErasureScheme::OuterRs { total: 4, payload: 4 },
        ] {
            let config = ArchiveConfig {
                erasure,
                ..ArchiveConfig::default()
            };
            let result = archive_round_trip(&[1, 2, 3], &config, &mut seeded(1));
            assert!(matches!(result, Err(ArchiveError::Layout(_))), "{erasure:?}");
        }
    }

    #[test]
    fn outer_rs_survives_harsher_channel_than_xor() {
        // At a starvation-level read budget, XOR (1 loss/group) fails more
        // often than outer RS (2 losses/group) across seeds.
        let data: Vec<u8> = (0u8..200).collect();
        let mut xor_ok = 0;
        let mut rs_ok = 0;
        for seed in 0..8u64 {
            let mut rng = seeded(1000 + seed);
            let xor = ArchiveConfig {
                sequencing_reads_per_strand: 6,
                erasure: ErasureScheme::Xor { group: 4 },
                ..ArchiveConfig::default()
            };
            if archive_round_trip(&data, &xor, &mut rng)
                .map(|r| r.data[..data.len()] == data[..])
                .unwrap_or(false)
            {
                xor_ok += 1;
            }
            let mut rng = seeded(1000 + seed);
            let rs = ArchiveConfig {
                sequencing_reads_per_strand: 6,
                erasure: ErasureScheme::OuterRs { total: 6, payload: 4 },
                ..ArchiveConfig::default()
            };
            if archive_round_trip(&data, &rs, &mut rng)
                .map(|r| r.data[..data.len()] == data[..])
                .unwrap_or(false)
            {
                rs_ok += 1;
            }
        }
        assert!(rs_ok >= xor_ok, "outer RS ({rs_ok}) should not lose to XOR ({xor_ok})");
    }
}
