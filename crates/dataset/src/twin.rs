//! The synthetic Nanopore "wetlab twin".
//!
//! The paper evaluates simulators against the Microsoft Nanopore dataset
//! ([3]): 10,000 reference strands of length 110, 269,709 noisy reads,
//! mean coverage ≈ 27 (range 0–164, 16 empty clusters), 5.9% aggregate
//! error concentrated at terminal positions. That dataset is not
//! redistributable, so this module generates a statistical twin: a hidden
//! ground-truth channel that reproduces every statistic the paper measures
//! — and is deliberately *richer* than any simulator under test (burst
//! errors, per-read quality variation, homopolymer sensitivity), so that
//! simulators are graded on approximating it, never on sharing its code
//! path.

use dnasim_channel::{chain_thresholds, CoverageModel, ErrorModel};
use dnasim_core::rng::{Rng, SeedSequence, SimRng};
use dnasim_core::{
    produce_windows, Base, Cluster, ClusterSink, Dataset, DnasimError, ErrorKind, Strand,
    WindowStats,
};
use dnasim_core::rng::RngExt;
use dnasim_par::{RunCtx, ThreadPool};

/// The error "personality" of a twin dataset: kind mix, terminal skew,
/// substitution bias and burstiness.
///
/// Two presets support the paper's §4.3 recommendation that simulators be
/// validated against *multiple* high-error datasets: the Nanopore profile
/// the evaluation uses, and a deliberately different high-error variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwinProfile {
    /// Fractions `[substitution, deletion, insertion]` of the aggregate
    /// error budget.
    pub kind_mix: [f64; 3],
    /// Leading positions with inflated error.
    pub head_positions: usize,
    /// Multiplier for the leading positions.
    pub head_multiplier: f64,
    /// Trailing positions with inflated error.
    pub tail_positions: usize,
    /// Multiplier for the trailing positions.
    pub tail_multiplier: f64,
    /// Probability a substitution targets the transition partner.
    pub partner_bias: f64,
    /// Per-read burst probability.
    pub burst_probability: f64,
}

impl TwinProfile {
    /// The Nanopore profile measured by the paper: deletion-heavy,
    /// end-skewed (end ≈ 2× start), strongly transition-biased.
    pub fn nanopore() -> TwinProfile {
        TwinProfile {
            kind_mix: [0.40, 0.45, 0.15],
            head_positions: 2,
            head_multiplier: 4.0,
            tail_positions: 1,
            tail_multiplier: 8.0,
            partner_bias: 0.7,
            burst_probability: 0.02,
        }
    }

    /// A deliberately different high-error technology: insertion-heavy,
    /// *start*-skewed, weakly transition-biased, burstier — used to check
    /// that a model learned on one dataset does not silently transfer.
    pub fn high_error_variant() -> TwinProfile {
        TwinProfile {
            kind_mix: [0.30, 0.30, 0.40],
            head_positions: 3,
            head_multiplier: 7.0,
            tail_positions: 2,
            tail_multiplier: 3.0,
            partner_bias: 0.4,
            burst_probability: 0.05,
        }
    }
}

/// Configuration of the synthetic Nanopore twin.
#[derive(Debug, Clone, PartialEq)]
pub struct NanoporeTwinConfig {
    /// Number of reference strands (paper: 10,000).
    pub cluster_count: usize,
    /// Designed strand length (paper: 110).
    pub strand_len: usize,
    /// Mean sequencing coverage (paper: ≈26.97).
    pub mean_coverage: f64,
    /// Negative-binomial dispersion for the coverage distribution.
    pub coverage_dispersion: f64,
    /// Coverage ceiling (paper range tops at 164).
    pub max_coverage: usize,
    /// Number of clusters forced to zero coverage (paper: 16 erasures).
    pub erasure_count: usize,
    /// Aggregate per-base error rate (paper: 5.9%).
    pub aggregate_error_rate: f64,
    /// The channel personality (see [`TwinProfile`]).
    pub profile: TwinProfile,
    /// Root seed for the whole dataset.
    pub seed: u64,
}

impl Default for NanoporeTwinConfig {
    /// The full paper-scale dataset.
    fn default() -> NanoporeTwinConfig {
        NanoporeTwinConfig {
            cluster_count: 10_000,
            strand_len: 110,
            mean_coverage: 26.97,
            coverage_dispersion: 2.5,
            max_coverage: 164,
            erasure_count: 16,
            aggregate_error_rate: 0.059,
            profile: TwinProfile::nanopore(),
            seed: 0xD0A_57012,
        }
    }
}

impl NanoporeTwinConfig {
    /// A reduced configuration (hundreds of clusters) for tests, examples
    /// and quick experiment iterations; statistically identical per-read.
    pub fn small() -> NanoporeTwinConfig {
        NanoporeTwinConfig {
            cluster_count: 300,
            erasure_count: 1,
            ..NanoporeTwinConfig::default()
        }
    }

    /// A second, deliberately different high-error dataset (insertion-
    /// heavy, start-skewed, burstier, 8% aggregate) for the §4.3
    /// multi-dataset robustness check.
    pub fn high_error_variant() -> NanoporeTwinConfig {
        NanoporeTwinConfig {
            aggregate_error_rate: 0.08,
            profile: TwinProfile::high_error_variant(),
            seed: 0xB_5EED,
            ..NanoporeTwinConfig::default()
        }
    }

    /// Generates the twin dataset.
    ///
    /// Cluster `i` is generated on its own RNG stream,
    /// [`SeedSequence::fork`]`(i)` of the root seed, rather than by
    /// threading one serial RNG through the whole dataset. Stream
    /// independence means the bytes of cluster `i` do not depend on how
    /// many clusters precede it — so the windowed, parallel
    /// [`NanoporeTwinConfig::generate_in`] produces identical bytes.
    pub fn generate(&self) -> Dataset {
        let seq = SeedSequence::new(self.seed);
        let channel = self.channel();
        let coverage = self.coverage_model();
        let clusters = (0..self.cluster_count)
            .map(|index| {
                let mut rng = seq.fork_rng(index as u64);
                self.generate_cluster(index, &channel, &coverage, &mut rng)
            })
            .collect();
        Dataset::from_clusters(clusters)
    }

    /// Generates the twin in windows of at most `ctx.batch_size()`
    /// clusters, each fanned out on `ctx.pool()`, pushing every finished
    /// window into `sink` — at no point does more than one window exist in
    /// memory.
    ///
    /// Cluster `i` is always generated on [`SeedSequence::fork`]`(i)` of
    /// its global index, so the emitted clusters are byte-identical to
    /// [`NanoporeTwinConfig::generate`] for every batch size and thread
    /// count. The budget is charged through [`produce_windows`]: one work
    /// unit per cluster, admitted before the window fans out, so an
    /// exhausted budget always cuts the twin at global cluster `limit`,
    /// after emitting the admitted prefix.
    ///
    /// # Errors
    ///
    /// [`DnasimError::DeadlineExceeded`] on exhaustion or cancellation,
    /// [`DnasimError::Degraded`] if a worker panicked, or whatever the
    /// sink reports.
    pub fn generate_in<K>(&self, ctx: &RunCtx, sink: &mut K) -> Result<WindowStats, DnasimError>
    where
        K: ClusterSink + ?Sized,
    {
        let seq = SeedSequence::new(self.seed);
        let channel = self.channel();
        let coverage = self.coverage_model();
        let (pool, batch_size, budget) = (ctx.pool(), ctx.batch_size(), ctx.budget());
        produce_windows(self.cluster_count, sink, batch_size, budget, "generate", |range| {
            Ok(pool.par_map_len(range.len(), |i| {
                let index = range.start + i;
                let mut rng = seq.fork_rng(index as u64);
                self.generate_cluster(index, &channel, &coverage, &mut rng)
            })?)
        })
    }

    /// [`NanoporeTwinConfig::generate_in`] with an unlimited budget. Kept
    /// because the benchmark under `perfbench/` calls this signature.
    ///
    /// # Errors
    ///
    /// [`DnasimError::Config`] for `batch_size == 0`, plus everything
    /// [`NanoporeTwinConfig::generate_in`] reports.
    pub fn generate_stream<K>(
        &self,
        batch_size: usize,
        pool: &ThreadPool,
        sink: &mut K,
    ) -> Result<WindowStats, DnasimError>
    where
        K: ClusterSink + ?Sized,
    {
        self.generate_in(&RunCtx::new(pool, batch_size)?, sink)
    }

    fn channel(&self) -> GroundTruthChannel {
        GroundTruthChannel::with_profile(
            self.aggregate_error_rate,
            self.strand_len,
            self.profile,
        )
    }

    fn coverage_model(&self) -> CoverageModel {
        CoverageModel::negative_binomial(self.mean_coverage, self.coverage_dispersion)
    }

    fn generate_cluster(
        &self,
        index: usize,
        channel: &GroundTruthChannel,
        coverage: &CoverageModel,
        rng: &mut SimRng,
    ) -> Cluster {
        let reference = Strand::random(self.strand_len, rng);
        let n = if index < self.erasure_count {
            // Deterministically placed erasures (cluster order is
            // shuffled downstream by evaluation protocols anyway).
            0
        } else {
            coverage.sample(index, rng).min(self.max_coverage)
        };
        // The reference-only half of the channel, built once for all reads.
        let context = channel.context(&reference);
        let reads = (0..n)
            .map(|_| channel.corrupt_in(&reference, &context, rng))
            .collect();
        Cluster::new(reference, reads)
    }
}

/// The hidden ground-truth channel behind the twin.
///
/// Effects stacked on top of a conditional IDS base model:
///
/// * terminal spatial skew — positions 0–1 inflated ~4×, the final
///   position ~8× (end ≈ 2× start, Fig. 3.2b);
/// * transition-biased substitution (A↔G, C↔T at ~0.7 probability);
/// * long deletions (0.33% of bases start a run; lengths 2:84%, 3:13%,
///   4:1.8%, 5:0.2%, 6:0.02%);
/// * per-read quality variation (lognormal noise multiplier);
/// * rare burst errors — ≥5 consecutive corrupted bases, a Nanopore
///   signature;
/// * homopolymer sensitivity — extra error rate inside runs of ≥3;
/// * second-order positional skew — `Insert(A)` concentrated at the strand
///   head and `T→C` at the tail (Fig. 3.6's structure).
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruthChannel {
    strand_len: usize,
    /// Per-kind base rates `[sub, del, ins]` before modulation.
    base_rates: [f64; 3],
    /// Probability a deletion event becomes a long run.
    long_del_given_del: f64,
    long_del_weights: [f64; 5],
    /// Per-read burst probability.
    burst_probability: f64,
    /// Probability a substitution targets the transition partner.
    partner_bias: f64,
    /// Spatial multipliers (mean 1.0).
    spatial: Vec<f64>,
    /// The distinct `(spatial multiplier, head)` pairs of the positions
    /// below `strand_len`, then `(1.0, false)` for every position past
    /// it. Positions of one class have bit-equal rates in every read.
    classes: Vec<(f64, bool)>,
    /// `class_rows[i]`: twice the class of position `i < strand_len`, the
    /// row of its thresholds outside homopolymer runs.
    class_rows: Vec<u8>,
    /// Twice the class of the positions past `strand_len`.
    beyond_row: u8,
}

/// The most classes a channel has: the spatial curve holds at most three
/// values (head, interior, tail), times the head flag, plus the class past
/// `strand_len`.
const MAX_CLASSES: usize = 8;

impl GroundTruthChannel {
    /// Builds the channel with the paper's Nanopore profile.
    pub fn new(aggregate_error_rate: f64, strand_len: usize) -> GroundTruthChannel {
        GroundTruthChannel::with_profile(
            aggregate_error_rate,
            strand_len,
            TwinProfile::nanopore(),
        )
    }

    /// Builds the channel with an explicit [`TwinProfile`].
    pub fn with_profile(
        aggregate_error_rate: f64,
        strand_len: usize,
        profile: TwinProfile,
    ) -> GroundTruthChannel {
        // The per-read quality lognormal (mean e^{σ²/2}), homopolymer boost
        // and head-insertion bias all inflate the realised rate above the
        // nominal one; RATE_CALIBRATION rescales so the *measured* aggregate
        // matches `aggregate_error_rate` (validated by unit test).
        const RATE_CALIBRATION: f64 = 1.0 / 1.36;
        let scaled = aggregate_error_rate * RATE_CALIBRATION;
        let base_rates = [
            scaled * profile.kind_mix[0],
            scaled * profile.kind_mix[1],
            scaled * profile.kind_mix[2],
        ];
        // Terminal skew per profile, interior renormalised to mean 1.0.
        let mut spatial = vec![1.0f64; strand_len];
        if strand_len > profile.head_positions + profile.tail_positions {
            for m in spatial.iter_mut().take(profile.head_positions) {
                *m = profile.head_multiplier;
            }
            let tail_start = strand_len - profile.tail_positions;
            for m in spatial.iter_mut().skip(tail_start) {
                *m = profile.tail_multiplier;
            }
        }
        let mean = spatial.iter().sum::<f64>() / spatial.len().max(1) as f64;
        if mean > 0.0 {
            spatial.iter_mut().for_each(|m| *m /= mean);
        }
        let mut classes: Vec<(f64, bool)> = Vec::new();
        let class_rows = spatial
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let head = i * 10 < strand_len;
                let same = |&(c, h): &(f64, bool)| c.to_bits() == m.to_bits() && h == head;
                let class = classes.iter().position(same).unwrap_or_else(|| {
                    classes.push((m, head));
                    classes.len() - 1
                });
                2 * class as u8
            })
            .collect();
        classes.push((1.0, false));
        debug_assert!(classes.len() <= MAX_CLASSES, "{} classes", classes.len());
        let beyond_row = 2 * (classes.len() - 1) as u8;
        GroundTruthChannel {
            strand_len,
            base_rates,
            long_del_given_del: 0.0033
                / (aggregate_error_rate * profile.kind_mix[1]).max(1e-9),
            long_del_weights: [0.84, 0.13, 0.018, 0.002, 0.0002],
            burst_probability: profile.burst_probability,
            partner_bias: profile.partner_bias,
            spatial,
            classes,
            class_rows,
            beyond_row,
        }
    }

    /// The spatial multiplier at `position`.
    pub fn spatial_multiplier(&self, position: usize) -> f64 {
        self.spatial.get(position).copied().unwrap_or(1.0)
    }

    fn sample_long_del_len(&self, rng: &mut SimRng) -> usize {
        let total: f64 = self.long_del_weights.iter().sum();
        let mut target = rng.random::<f64>() * total;
        for (i, &w) in self.long_del_weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i + 2;
            }
        }
        2
    }

    /// Substitution target with transition bias: the affinity partner at
    /// 0.7, each remaining base at 0.15. The tail of the strand further
    /// biases T→C (a second-order skew for the profiler to discover).
    fn substitution_target(&self, base: Base, position: usize, rng: &mut SimRng) -> Base {
        let tail = position * 10 >= self.strand_len * 9;
        let partner_p = if tail && base == Base::T {
            (self.partner_bias + 0.15).min(0.95)
        } else {
            self.partner_bias
        };
        let u: f64 = rng.random();
        if u < partner_p {
            base.transition_partner()
        } else {
            // One of the two non-partner alternatives.
            let partner = base.transition_partner();
            let mut pick = base.random_other(rng);
            while pick == partner {
                pick = base.random_other(rng);
            }
            pick
        }
    }

    /// The per-position facts `corrupt_in` reads that depend on the
    /// reference alone. Building them draws no randomness.
    pub(crate) fn context(&self, reference: &Strand) -> ReferenceContext {
        let bases = reference.as_bases();
        // Each position's row of a read's thresholds: its class's, plus
        // one inside a homopolymer run of length ≥ 3 (error-boosted).
        let n = bases.len();
        let mut rows = Vec::with_capacity(n);
        rows.extend_from_slice(&self.class_rows[..n.min(self.class_rows.len())]);
        rows.resize(n, self.beyond_row);
        // A position lies in a run of length ≥ 3 exactly when three equal
        // bases in a row cover it. No run after the one ending at `i`
        // covers position `i - 2`, so its row is final there and joins
        // the set of used rows; the last two rows are final after the
        // loop.
        let run_rows = &mut rows[..n];
        let mut used = 0u16;
        for i in 2..n {
            let run = u8::from((bases[i - 2] == bases[i - 1]) & (bases[i - 1] == bases[i]));
            run_rows[i - 2] |= run;
            run_rows[i - 1] |= run;
            run_rows[i] |= run;
            used |= 1 << run_rows[i - 2];
        }
        for &row in &run_rows[n.saturating_sub(2)..] {
            used |= 1 << row;
        }
        // Position i's context is the 4-mer bases[i - 2..=i + 1], rolled
        // in two bits per base with the first base highest.
        let mut hotspots = Vec::new();
        let mut kmer = 0;
        for (i, base) in bases.iter().enumerate() {
            kmer = (kmer << 2 | base.index()) & 0xff;
            if i >= 3 {
                if let Some(p_hot) = HOTSPOTS[kmer] {
                    hotspots.push((i - 1, p_hot));
                }
            }
        }
        ReferenceContext {
            rows,
            used,
            hotspots,
        }
    }

    /// The draw thresholds of one read of quality `quality`, in rows
    /// `2·class` (outside homopolymer runs) and `2·class + 1` (inside):
    /// [`chain_thresholds`] of the `[sub, del, ins]` rates, computed with
    /// the per-base expressions. Only the rows whose bit is set in `used`
    /// are filled; the others stay zero.
    fn read_thresholds(&self, quality: f64, used: u16) -> [[u64; 4]; 2 * MAX_CLASSES] {
        let mut table = [[0; 4]; 2 * MAX_CLASSES];
        let rows = table.iter_mut().enumerate().take(2 * self.classes.len());
        for (row, entry) in rows.filter(|&(row, _)| used & (1 << row) != 0) {
            let (spatial, head) = self.classes[row / 2];
            let homopolymer_boost = if row % 2 == 0 { 1.0 } else { 1.8 };
            let modulation = (spatial * quality * homopolymer_boost).min(12.0);
            let p_sub = (self.base_rates[0] * modulation).min(0.45);
            let p_del = (self.base_rates[1] * modulation).min(0.45);
            // Insert(A) is concentrated at the strand head: double
            // insertion rate over the first tenth, biased to A
            // (second-order skew).
            let p_ins =
                (self.base_rates[2] * modulation * if head { 2.0 } else { 0.9 }).min(0.45);
            *entry = chain_thresholds([p_sub, p_del, p_ins]);
        }
        table
    }

    /// Corrupts `reference` into one read, given its
    /// [`context`](GroundTruthChannel::context). This is the channel's one
    /// kernel: [`ErrorModel::corrupt`] builds the context and delegates
    /// here, and twin generation builds it once per cluster. The draws and
    /// their order do not depend on where the context was built.
    ///
    /// Each base draws one uniform against the `<` chain of its rates;
    /// the chain compares the uniform's 53 bits `k` against the read's
    /// integer thresholds instead (DESIGN.md §25), with the same draws in
    /// the same order.
    pub(crate) fn corrupt_in(
        &self,
        reference: &Strand,
        context: &ReferenceContext,
        rng: &mut SimRng,
    ) -> Strand {
        let bases = reference.as_bases();
        let rows = &context.rows[..bases.len()];
        let mut read = Strand::with_capacity(bases.len() + 8);

        // Per-read quality multiplier: lognormal (σ = 0.45) — some reads
        // are noticeably noisier than others.
        let quality = {
            let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.random();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            (0.45 * z).exp()
        };

        // Optional burst: a window of ≥5 consecutive corrupted positions.
        let (burst_lo, burst_hi) = if !bases.is_empty()
            && rng.random::<f64>() < self.burst_probability
        {
            let len = 5 + rng.random_range(0..4usize);
            let start = rng.random_range(0..bases.len());
            (start, (start + len).min(bases.len()))
        } else {
            (bases.len(), bases.len())
        };

        let thresholds = self.read_thresholds(quality, context.used);
        let hotspots = &context.hotspots;
        let mut hot = 0;
        let mut i = 0usize;
        while i < bases.len() {
            let base = bases[i];
            // Systematic, sequence-dependent error hotspots: certain local
            // contexts miscall with high probability in *every* read of the
            // cluster (a documented Nanopore failure mode). Majority voting
            // cannot outvote them, which is a key reason real data
            // reconstructs far worse than rate-matched uniform simulations.
            // A hotspot a long deletion skipped draws nothing.
            while hotspots.get(hot).is_some_and(|&(at, _)| at < i) {
                hot += 1;
            }
            if let Some(&(_, p_hot)) = hotspots.get(hot).filter(|&&(at, _)| at == i) {
                hot += 1;
                if rng.random::<f64>() < p_hot {
                    read.push(base.transition_partner());
                    i += 1;
                    continue;
                }
            }

            if (burst_lo..burst_hi).contains(&i) {
                // Inside a burst: each base is substituted or deleted.
                if rng.random::<f64>() < 0.5 {
                    read.push(base.random_other(rng));
                }
                i += 1;
                continue;
            }

            // The error-free run from `i` to the next hotspot or burst is
            // copied whole: one compare per base settles it, against the
            // largest threshold. The run draws from a copy of the
            // generator that no call borrows, handed back after the run.
            let next_hot = hotspots.get(hot).map_or(bases.len(), |&(at, _)| at);
            let stop = next_hot.min(if i < burst_lo { burst_lo } else { bases.len() });
            let mut run = 0;
            let mut event = None;
            let mut draws = rng.clone();
            for &row in &rows[i..stop] {
                // Rows are below `2 · MAX_CLASSES`, the table's length, so
                // the remainder only spares the bounds check.
                let [sub, del, ins, any] = thresholds[usize::from(row) % thresholds.len()];
                // The 53 bits `random::<f64>()` scales to `k · 2^-53`.
                let k = draws.next_u64() >> 11;
                if k < any {
                    // The chain's order; `k` is below one of the three.
                    event = Some(if k < sub {
                        ErrorKind::Substitution
                    } else if k < del {
                        ErrorKind::Deletion
                    } else {
                        debug_assert!(k < ins);
                        ErrorKind::Insertion
                    });
                    break;
                }
                run += 1;
            }
            *rng = draws;
            read.extend(bases[i..i + run].iter().copied());
            i += run;
            if let Some(kind) = event {
                i = self.apply(kind, bases[i], i, &mut read, rng);
            }
        }
        read
    }

    /// Emits the read's bases for an error of `kind` at reference position
    /// `i` holding `base`, and returns the next position.
    fn apply(
        &self,
        kind: ErrorKind,
        base: Base,
        i: usize,
        read: &mut Strand,
        rng: &mut SimRng,
    ) -> usize {
        match kind {
            ErrorKind::Substitution => read.push(self.substitution_target(base, i, rng)),
            ErrorKind::Deletion => {
                if rng.random::<f64>() < self.long_del_given_del {
                    return i + self.sample_long_del_len(rng);
                }
                // single deletion: emit nothing
            }
            ErrorKind::Insertion => {
                let head = i * 10 < self.strand_len;
                let inserted = if head && rng.random::<f64>() < 0.6 {
                    Base::A
                } else {
                    Base::random(rng)
                };
                read.push(inserted);
                read.push(base);
            }
        }
        i + 1
    }
}

/// Systematic error hotspots: the per-read miscall probability of every
/// 4-mer context, indexed two bits per base with the first base highest.
/// Roughly 0.25% of contexts qualify, with strengths in [0.35, 0.85];
/// the rest are `None`.
static HOTSPOTS: [Option<f64>; 256] = {
    let mut table = [None; 256];
    let mut kmer = 0;
    while kmer < table.len() {
        table[kmer] = hotspot_of(kmer);
        kmer += 1;
    }
    table
};

/// The hotspot probability of one 4-mer: FNV-1a over its bases,
/// SplitMix64-finalised, qualifying for 25 hash values in 10,000.
const fn hotspot_of(kmer: usize) -> Option<f64> {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut shift = 8;
    while shift > 0 {
        shift -= 2;
        h ^= ((kmer >> shift) & 3) as u64 + 1;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    if h % 10_000 < 25 {
        // Strength derived from the hash: [0.35, 0.85].
        Some(0.35 + (h >> 32) as f64 / u32::MAX as f64 * 0.5)
    } else {
        None
    }
}

/// What [`GroundTruthChannel`] derives from one reference alone.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReferenceContext {
    /// Each position's row of a read's thresholds: twice its class, plus
    /// one inside a homopolymer run of length ≥ 3.
    rows: Vec<u8>,
    /// Bit `r` is set when some position's row is `r`: the rows a read's
    /// thresholds must fill.
    used: u16,
    /// The hotspot positions, ascending, with their miscall probability.
    /// About 0.25% of positions qualify, so this is usually empty; a
    /// position not listed draws nothing.
    hotspots: Vec<(usize, f64)>,
}

impl ErrorModel for GroundTruthChannel {
    fn corrupt(&self, reference: &Strand, rng: &mut SimRng) -> Strand {
        self.corrupt_in(reference, &self.context(reference), rng)
    }

    fn name(&self) -> String {
        "nanopore-twin".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::seeded;
    use dnasim_metrics::levenshtein;

    #[test]
    fn generate_in_matches_generate_for_any_thread_count() {
        let mut config = NanoporeTwinConfig::small();
        config.cluster_count = 40;
        let serial = config.generate();
        for threads in [1, 2, 4, 8] {
            let mut par = Dataset::new();
            let ctx = RunCtx::new(&ThreadPool::new(threads), usize::MAX).unwrap();
            config.generate_in(&ctx, &mut par).unwrap();
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn generate_in_matches_generate_at_any_batch_size() {
        let mut config = NanoporeTwinConfig::small();
        config.cluster_count = 30;
        let whole = config.generate();
        for batch_size in [1, 7, 30, usize::MAX] {
            for threads in [1, 4] {
                let mut streamed = Dataset::new();
                let ctx = RunCtx::new(&ThreadPool::new(threads), batch_size).unwrap();
                let stats = config.generate_in(&ctx, &mut streamed).unwrap();
                assert_eq!(streamed, whole, "batch_size={batch_size} threads={threads}");
                assert_eq!(stats.clusters, 30);
                assert!(stats.high_watermark <= batch_size);
            }
        }
        let mut forwarded = Dataset::new();
        config
            .generate_stream(7, &ThreadPool::new(2), &mut forwarded)
            .unwrap();
        assert_eq!(forwarded, whole);
    }

    #[test]
    fn generate_stream_rejects_zero_batch() {
        let config = NanoporeTwinConfig::small();
        let mut out = Dataset::new();
        assert!(config
            .generate_stream(0, &ThreadPool::serial(), &mut out)
            .is_err());
    }

    #[test]
    fn small_twin_matches_configuration() {
        let config = NanoporeTwinConfig::small();
        let ds = config.generate();
        assert_eq!(ds.len(), 300);
        assert_eq!(ds.strand_len(), Some(110));
        assert!(ds.erasure_count() >= 1);
        let (lo, hi) = ds.coverage_range().unwrap();
        assert_eq!(lo, 0);
        assert!(hi <= config.max_coverage);
        // Mean coverage near the configured value.
        assert!(
            (ds.mean_coverage() - config.mean_coverage).abs() < 4.0,
            "mean coverage {}",
            ds.mean_coverage()
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = NanoporeTwinConfig::small().generate();
        let b = NanoporeTwinConfig::small().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut config = NanoporeTwinConfig::small();
        config.seed = 1;
        let a = config.generate();
        config.seed = 2;
        let b = config.generate();
        assert_ne!(a, b);
    }

    #[test]
    fn aggregate_error_rate_is_close_to_target() {
        let config = NanoporeTwinConfig::small();
        let ds = config.generate();
        let mut errors = 0usize;
        let mut bases = 0usize;
        for cluster in ds.iter().take(60) {
            for read in cluster.reads() {
                errors += levenshtein(cluster.reference().as_bases(), read.as_bases());
                bases += cluster.reference().len();
            }
        }
        let rate = errors as f64 / bases as f64;
        assert!(
            (rate - 0.059).abs() < 0.015,
            "aggregate error rate {rate}, expected ≈0.059"
        );
    }

    #[test]
    fn terminal_positions_are_noisier() {
        let channel = GroundTruthChannel::new(0.059, 110);
        assert!(channel.spatial_multiplier(0) > 2.0 * channel.spatial_multiplier(50));
        // End ≈ 2× start.
        assert!(channel.spatial_multiplier(109) > 1.5 * channel.spatial_multiplier(0));
        assert!(channel.spatial_multiplier(500) == 1.0);
    }

    #[test]
    fn substitutions_are_transition_biased() {
        let channel = GroundTruthChannel::new(0.5, 110);
        let mut rng = seeded(5);
        let mut partner = 0usize;
        let mut other = 0usize;
        for _ in 0..2000 {
            let t = channel.substitution_target(Base::A, 50, &mut rng);
            if t == Base::G {
                partner += 1;
            } else {
                other += 1;
            }
            assert_ne!(t, Base::A);
        }
        assert!(partner > 2 * other, "partner {partner} vs other {other}");
    }

    #[test]
    fn long_deletions_present_in_output() {
        // Crank the deletion rate so long runs are frequent enough to see.
        let channel = GroundTruthChannel::new(0.2, 200);
        let mut rng = seeded(6);
        let reference = Strand::random(200, &mut rng);
        let mut shrunk = 0usize;
        for _ in 0..200 {
            let read = channel.corrupt(&reference, &mut rng);
            if read.len() + 2 <= reference.len() {
                shrunk += 1;
            }
        }
        assert!(shrunk > 20, "only {shrunk} reads shrank by ≥2");
    }

    #[test]
    fn zero_error_channel_is_identity() {
        let channel = GroundTruthChannel::new(0.0, 50);
        let mut rng = seeded(7);
        let reference = Strand::random(50, &mut rng);
        // Bursts are still possible (1%); sample a read that avoided one.
        let mut identical = 0;
        for _ in 0..100 {
            if channel.corrupt(&reference, &mut rng) == reference {
                identical += 1;
            }
        }
        assert!(identical >= 95, "{identical}/100 identical");
    }

    #[test]
    fn paper_scale_default_config() {
        let config = NanoporeTwinConfig::default();
        assert_eq!(config.cluster_count, 10_000);
        assert_eq!(config.strand_len, 110);
        assert_eq!(config.erasure_count, 16);
        assert!((config.aggregate_error_rate - 0.059).abs() < 1e-12);
    }

    /// The hotspot hash as computed per position before the 4-mer table:
    /// the oracle for [`HOTSPOTS`].
    fn hotspot_probability(bases: &[Base], position: usize) -> Option<f64> {
        if position < 2 || position + 1 >= bases.len() {
            return None;
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &bases[position - 2..=position + 1] {
            h ^= b.index() as u64 + 1;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        if h % 10_000 < 25 {
            Some(0.35 + (h >> 32) as f64 / u32::MAX as f64 * 0.5)
        } else {
            None
        }
    }

    /// Every 4-mer, in the hotspot table's index order.
    fn all_kmers() -> impl Iterator<Item = [Base; 4]> {
        (0..256usize).map(|k| [k >> 6, (k >> 4) & 3, (k >> 2) & 3, k & 3].map(|b| Base::ALL[b]))
    }

    #[test]
    fn hotspot_table_matches_the_per_position_hash() {
        for (index, kmer) in all_kmers().enumerate() {
            let expected = hotspot_probability(&kmer, 2);
            assert_eq!(HOTSPOTS[index].map(f64::to_bits), expected.map(f64::to_bits), "{kmer:?}");
        }
        let hot = HOTSPOTS.iter().filter(|p| p.is_some()).count();
        assert!(hot > 0, "no 4-mer is a hotspot");
    }

    /// The per-read kernel before the reference context was hoisted: the
    /// homopolymer mask and the hotspot hash recomputed for every read.
    /// Kept as the oracle `corrupt_in` must match draw for draw.
    fn corrupt_per_read(
        channel: &GroundTruthChannel,
        reference: &Strand,
        rng: &mut SimRng,
    ) -> Strand {
        let bases = reference.as_bases();
        let mut read = Strand::with_capacity(bases.len() + 8);
        let quality = {
            let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.random();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            (0.45 * z).exp()
        };
        let burst: Option<(usize, usize)> =
            if !bases.is_empty() && rng.random::<f64>() < channel.burst_probability {
                let len = 5 + rng.random_range(0..4usize);
                let start = rng.random_range(0..bases.len());
                Some((start, (start + len).min(bases.len())))
            } else {
                None
            };
        let mut homopolymer = vec![false; bases.len()];
        let mut run_start = 0usize;
        for i in 1..=bases.len() {
            if i == bases.len() || bases[i] != bases[run_start] {
                if i - run_start >= 3 {
                    homopolymer[run_start..i].iter_mut().for_each(|m| *m = true);
                }
                run_start = i;
            }
        }
        let mut i = 0usize;
        while i < bases.len() {
            let base = bases[i];
            if let Some(p_hot) = hotspot_probability(bases, i) {
                if rng.random::<f64>() < p_hot {
                    read.push(base.transition_partner());
                    i += 1;
                    continue;
                }
            }
            if let Some((lo, hi)) = burst {
                if i >= lo && i < hi {
                    if rng.random::<f64>() < 0.5 {
                        read.push(base.random_other(rng));
                    }
                    i += 1;
                    continue;
                }
            }
            let spatial = channel.spatial_multiplier(i);
            let homopolymer_boost = if homopolymer[i] { 1.8 } else { 1.0 };
            let modulation = (spatial * quality * homopolymer_boost).min(12.0);
            let p_sub = (channel.base_rates[0] * modulation).min(0.45);
            let p_del = (channel.base_rates[1] * modulation).min(0.45);
            let head = i * 10 < channel.strand_len;
            let p_ins =
                (channel.base_rates[2] * modulation * if head { 2.0 } else { 0.9 }).min(0.45);
            let u: f64 = rng.random();
            if u < p_sub {
                read.push(channel.substitution_target(base, i, rng));
            } else if u < p_sub + p_del {
                if rng.random::<f64>() < channel.long_del_given_del {
                    i += channel.sample_long_del_len(rng);
                    continue;
                }
            } else if u < p_sub + p_del + p_ins {
                let inserted = if head && rng.random::<f64>() < 0.6 {
                    Base::A
                } else {
                    Base::random(rng)
                };
                read.push(inserted);
                read.push(base);
            } else {
                read.push(base);
            }
            i += 1;
        }
        read
    }


    /// Reads `reads` reads of `reference` through the hoisted kernel (one
    /// context) and through the per-read oracle on a twin RNG, and checks
    /// both the reads and the RNG state they leave behind.
    fn assert_hoisted_matches_oracle(channel: &GroundTruthChannel, reference: &Strand, seed: u64) {
        let context = channel.context(reference);
        let (mut hoisted_rng, mut oracle_rng, mut model_rng) =
            (seeded(seed), seeded(seed), seeded(seed));
        for read in 0..6 {
            let hoisted = channel.corrupt_in(reference, &context, &mut hoisted_rng);
            let oracle = corrupt_per_read(channel, reference, &mut oracle_rng);
            let model = channel.corrupt(reference, &mut model_rng);
            assert_eq!(hoisted, oracle, "read {read} of {reference}");
            assert_eq!(model, oracle, "read {read} of {reference}");
        }
        // Equal streams afterwards: the context added or skipped no draw.
        let next = oracle_rng.random::<u64>();
        assert_eq!(hoisted_rng.random::<u64>(), next, "{reference}");
        assert_eq!(model_rng.random::<u64>(), next, "{reference}");
    }

    #[test]
    fn hoisted_context_matches_the_per_read_kernel() {
        let channels = [
            GroundTruthChannel::new(0.059, 110),
            GroundTruthChannel::with_profile(0.3, 40, TwinProfile::high_error_variant()),
        ];
        let mut rng = seeded(0x7C0);
        let hotspots: Vec<[Base; 4]> = all_kmers()
            .filter(|kmer| hotspot_probability(kmer, 2).is_some())
            .collect();
        assert!(!hotspots.is_empty(), "no hotspot 4-mer to force");
        for (c, channel) in channels.iter().enumerate() {
            for case in 0..200u64 {
                let seed = case + 1_000 * c as u64;
                // Random references, including lengths beyond the spatial
                // profile.
                let len = rng.random_range(0..130usize);
                assert_hoisted_matches_oracle(channel, &Strand::random(len, &mut rng), seed);
                // Homopolymer-heavy references: runs of 1–6 of one base.
                let mut runs = Strand::new();
                while runs.len() < 60 {
                    let base = Base::random(&mut rng);
                    for _ in 0..rng.random_range(1..7usize) {
                        runs.push(base);
                    }
                }
                assert_hoisted_matches_oracle(channel, &runs, seed);
                // One to four forced hotspot contexts between random runs.
                let mut forced = Strand::new();
                for _ in 0..rng.random_range(1..5usize) {
                    forced = forced.concat(&Strand::random(rng.random_range(0..12usize), &mut rng));
                    for &b in &hotspots[rng.random_range(0..hotspots.len())] {
                        forced.push(b);
                    }
                }
                assert!(!channel.context(&forced).hotspots.is_empty());
                assert_hoisted_matches_oracle(channel, &forced, seed);
            }
            // Strands of length 0–3 have no hotspot position; at length 4
            // a forced 4-mer is one.
            for len in 0..=4 {
                for seed in 0..50 {
                    let short = Strand::random(len, &mut rng);
                    if len < 4 {
                        assert!(channel.context(&short).hotspots.is_empty());
                    }
                    assert_hoisted_matches_oracle(channel, &short, seed);
                }
            }
            let kmer: Strand = hotspots[0].iter().copied().collect();
            assert_hoisted_matches_oracle(channel, &kmer, 7);
        }
    }

    /// Channels covering both profiles and the threshold kernel's edge
    /// cases: a burst in every read, rates saturating at 0.45, negative
    /// kind shares (so that `T(s + d + i)` falls below `T(s + d)`, or
    /// `T(s)` is 0), and strand lengths with no spatial skew at all.
    fn kernel_channels() -> Vec<GroundTruthChannel> {
        let nanopore = TwinProfile::nanopore();
        let variant = TwinProfile::high_error_variant();
        vec![
            GroundTruthChannel::new(0.059, 110),
            GroundTruthChannel::with_profile(0.08, 110, variant),
            GroundTruthChannel::with_profile(0.3, 40, variant),
            GroundTruthChannel::with_profile(
                0.1,
                30,
                TwinProfile {
                    burst_probability: 1.0,
                    ..nanopore
                },
            ),
            GroundTruthChannel::with_profile(0.9, 50, nanopore),
            GroundTruthChannel::with_profile(
                0.3,
                50,
                TwinProfile {
                    kind_mix: [0.5, 0.6, -0.4],
                    ..variant
                },
            ),
            GroundTruthChannel::with_profile(
                0.3,
                24,
                TwinProfile {
                    kind_mix: [-0.3, 0.6, 0.5],
                    burst_probability: 0.3,
                    ..nanopore
                },
            ),
            GroundTruthChannel::new(0.2, 3),
            GroundTruthChannel::new(0.2, 0),
        ]
    }

    #[test]
    fn threshold_kernel_matches_the_per_read_oracle() {
        let hotspots: Vec<[Base; 4]> = all_kmers()
            .filter(|kmer| hotspot_probability(kmer, 2).is_some())
            .collect();
        let mut rng = seeded(0x7C1);
        for (c, channel) in kernel_channels().iter().enumerate() {
            let n = channel.strand_len;
            let mut references: Vec<Strand> = [0, 1, 4, 7, n.saturating_sub(1), n, n + 1, 2 * n + 9]
                .into_iter()
                .map(|len| Strand::random(len, &mut rng))
                .collect();
            // Hotspot-dense: hotspot 4-mers back to back, past the strand
            // length, so hotspot positions sit next to each other.
            let mut dense = Strand::new();
            while dense.len() < n + 12 {
                for &b in &hotspots[rng.random_range(0..hotspots.len())] {
                    dense.push(b);
                }
            }
            references.push(dense);
            // Homopolymer runs across the head, interior and tail classes.
            let mut runs = Strand::new();
            while runs.len() < n + 6 {
                let base = Base::random(&mut rng);
                for _ in 0..rng.random_range(1..7usize) {
                    runs.push(base);
                }
            }
            references.push(runs);
            // With a burst in every read, the 24 seeds × 6 reads of a
            // 4- or 7-base reference start bursts at position 0 and cut
            // them short at the end.
            for reference in &references {
                for seed in 0..24u64 {
                    assert_hoisted_matches_oracle(channel, reference, seed + 100 * c as u64);
                }
            }
        }
    }

    /// The context's used-row mask is exactly the set of its positions'
    /// rows, so a read fills every row it can draw from.
    #[test]
    fn context_marks_exactly_the_rows_its_positions_use() {
        let mut rng = seeded(0x05ed);
        for channel in kernel_channels() {
            let n = channel.strand_len;
            for len in [0, 1, 2, 3, 4, n.saturating_sub(1), n, n + 1, n + 2, 2 * n + 9] {
                for alphabet in [1, 2, 4] {
                    let reference: Strand = (0..len)
                        .map(|_| Base::ALL[rng.random_range(0..alphabet)])
                        .collect();
                    let context = channel.context(&reference);
                    let want = context.rows.iter().fold(0u16, |m, &r| m | 1 << r);
                    assert_eq!(context.used, want, "len {len}, alphabet {alphabet}");
                }
            }
        }
    }

    #[test]
    fn read_thresholds_compare_like_the_per_base_rates() {
        // The uniform `random::<f64>()` makes from the 53 bits `k`.
        let uniform = |k: u64| k as f64 * (1.0 / (1u64 << 53) as f64);
        for channel in kernel_channels() {
            let n = channel.strand_len;
            for quality in [0.05, 0.3, 1.0, 1.37, 2.7, 40.0] {
                let table = channel.read_thresholds(quality, u16::MAX);
                for i in 0..n + 5 {
                    let row = channel.class_rows.get(i).map_or(channel.beyond_row, |&r| r);
                    for (h, boost) in [(0, 1.0), (1, 1.8)] {
                        // The per-base rates the loop computed before.
                        let spatial = channel.spatial_multiplier(i);
                        let modulation = (spatial * quality * boost).min(12.0);
                        let rates = channel.base_rates;
                        let p_sub = (rates[0] * modulation).min(0.45);
                        let p_del = (rates[1] * modulation).min(0.45);
                        let head = i * 10 < n;
                        let p_ins =
                            (rates[2] * modulation * if head { 2.0 } else { 0.9 }).min(0.45);
                        let sums = [p_sub, p_sub + p_del, p_sub + p_del + p_ins];
                        let entry = table[usize::from(row) + h];
                        for (&t, c) in entry[..3].iter().zip(sums) {
                            let ks = [t.saturating_sub(1), t];
                            for k in ks.into_iter().filter(|&k| k < 1 << 53) {
                                let at = format!("@{i}, q {quality}: c = {c}, T = {t}");
                                assert_eq!(k < t, uniform(k) < c, "{at}");
                            }
                        }
                        assert_eq!(entry[3], entry[0].max(entry[1]).max(entry[2]));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;
    use dnasim_metrics::levenshtein;

    #[test]
    fn high_error_variant_differs_in_shape() {
        let a = GroundTruthChannel::new(0.059, 110);
        let b = GroundTruthChannel::with_profile(0.08, 110, TwinProfile::high_error_variant());
        // Nanopore: end hotter than start; variant: start hotter than end.
        assert!(a.spatial_multiplier(109) > a.spatial_multiplier(0));
        assert!(b.spatial_multiplier(0) > b.spatial_multiplier(109));
    }

    #[test]
    fn variant_config_hits_its_aggregate_rate() {
        let mut config = NanoporeTwinConfig::high_error_variant();
        config.cluster_count = 120;
        config.erasure_count = 0;
        let ds = config.generate();
        let (mut errors, mut bases) = (0usize, 0usize);
        for c in ds.iter().take(60) {
            for r in c.reads() {
                errors += levenshtein(c.reference().as_bases(), r.as_bases());
                bases += c.reference().len();
            }
        }
        let rate = errors as f64 / bases as f64;
        assert!((rate - 0.08).abs() < 0.02, "variant aggregate {rate}");
    }

    #[test]
    fn variant_is_insertion_heavier() {
        use dnasim_core::rng::seeded as seed;
        let nano = GroundTruthChannel::new(0.08, 110);
        let variant =
            GroundTruthChannel::with_profile(0.08, 110, TwinProfile::high_error_variant());
        let mut rng = seed(4);
        let mut nano_len = 0usize;
        let mut variant_len = 0usize;
        for _ in 0..300 {
            let r = Strand::random(110, &mut rng);
            nano_len += nano.corrupt(&r, &mut rng).len();
            variant_len += variant.corrupt(&r, &mut rng).len();
        }
        // Insertion-heavy mix yields longer reads on average.
        assert!(variant_len > nano_len, "{variant_len} !> {nano_len}");
    }
}
