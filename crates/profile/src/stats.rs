//! Error-statistics extraction from clustered sequencing data.
//!
//! Given a dataset of (reference, noisy reads) clusters, [`ErrorStats`]
//! recovers a per-read edit script (Appendix B) and accumulates every
//! statistic the paper's simulator layers are parameterised by:
//! conditional per-base error probabilities, the substitution confusion
//! matrix, long-deletion run lengths, the spatial (positional) error
//! distribution, and the second-order (base-specific) error spectrum.

use std::collections::HashMap;

use dnasim_core::{
    fold_windows, Base, Budget, Cluster, ClusterSource, Dataset, DnasimError, EditOp, EditScript,
    ErrorKind, Strand, WindowStats,
};
use dnasim_core::rng::Rng;

use crate::editops::{edit_script_with, EditScratch, TieBreak};

/// Accumulated error statistics over a clustered dataset.
///
/// # Examples
///
/// ```
/// use dnasim_core::{rng::seeded, Cluster, Dataset, Strand};
/// use dnasim_profile::{ErrorStats, TieBreak};
///
/// let reference: Strand = "ACGTACGT".parse()?;
/// let cluster = Cluster::new(reference.clone(), vec!["ACGTACG".parse()?]);
/// let dataset = Dataset::from_clusters(vec![cluster]);
/// let mut rng = seeded(1);
/// let stats = ErrorStats::from_dataset(&dataset, TieBreak::Random, &mut rng);
/// assert_eq!(stats.total_errors(), 1);
/// assert!(stats.aggregate_error_rate() > 0.0);
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ErrorStats {
    strand_len: usize,
    reads: usize,
    total_ref_bases: usize,
    /// Reference-position occurrences per base (denominator for
    /// conditional probabilities).
    base_occurrences: [usize; 4],
    /// `[base][kind]` error counts, with insertions attributed to the base
    /// *before which* they occurred.
    base_errors: [[usize; 3]; 4],
    /// `[orig][new]` substitution counts.
    subst_matrix: [[usize; 4]; 4],
    /// `histogram[len]` = number of deletion runs of exactly `len` bases.
    deletion_run_histogram: Vec<usize>,
    /// Errors observed at each reference position.
    positional_errors: Vec<usize>,
    /// Reads covering each reference position (reads of references at least
    /// that long).
    positional_sites: Vec<usize>,
    /// Specific (second-order) error spectrum with per-error positions.
    second_order: HashMap<EditOp, SecondOrderStat>,
    /// `histogram[len]` = number of maximal consecutive-error runs of
    /// exactly `len` ops (any error kind) — the burst spectrum.
    burst_histogram: Vec<usize>,
    /// (sites, errors) at positions inside homopolymer runs of length ≥ 3.
    homopolymer: (usize, usize),
    /// (sites, errors) at all other positions.
    non_homopolymer: (usize, usize),
}

/// Counts for one specific (second-order) error, e.g. `Insert(A)` or
/// `Subst{G→C}`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SecondOrderStat {
    /// Total occurrences.
    pub count: usize,
    /// Occurrences per reference position.
    pub positional: Vec<usize>,
}

impl ErrorStats {
    /// Creates an empty accumulator.
    pub fn new() -> ErrorStats {
        ErrorStats::default()
    }

    /// Profiles an entire dataset.
    pub fn from_dataset<R: Rng + ?Sized>(
        dataset: &Dataset,
        tie_break: TieBreak,
        rng: &mut R,
    ) -> ErrorStats {
        let mut stats = ErrorStats::new();
        // One DP scratch for the whole dataset: the edit-script matrix is
        // the profiler's dominant allocation.
        let mut scratch = EditScratch::new();
        for cluster in dataset.iter() {
            stats.record_cluster_with(&mut scratch, cluster, tie_break, rng);
        }
        stats
    }

    /// Streaming counterpart of [`ErrorStats::from_dataset`]: folds
    /// `source` through [`fold_windows`] in bounded batches of at most
    /// `batch_size`, profiles each batch into a batch-local accumulator,
    /// and [`merge`](ErrorStats::merge)s it into the running total.
    ///
    /// The RNG is threaded serially through clusters in global order —
    /// exactly as [`ErrorStats::from_dataset`] threads it — so the result
    /// is identical for every batch size (tie-break draws see the same
    /// RNG state either way).
    ///
    /// # Errors
    ///
    /// [`DnasimError::Config`] for `batch_size == 0` or a non-contiguous
    /// source, or whatever the source reports.
    pub fn from_source<S, R>(
        source: &mut S,
        batch_size: usize,
        tie_break: TieBreak,
        rng: &mut R,
    ) -> Result<(ErrorStats, WindowStats), DnasimError>
    where
        S: ClusterSource + ?Sized,
        R: Rng + ?Sized,
    {
        let mut total = ErrorStats::new();
        let mut scratch = EditScratch::new();
        let window = fold_windows(source, batch_size, &Budget::unlimited(), "profile", |batch| {
            let mut partial = ErrorStats::new();
            for cluster in batch.clusters() {
                partial.record_cluster_with(&mut scratch, cluster, tie_break, rng);
            }
            total.merge(&partial);
            Ok(())
        })?;
        Ok((total, window))
    }

    /// Records every read of one cluster.
    pub fn record_cluster<R: Rng + ?Sized>(
        &mut self,
        cluster: &Cluster,
        tie_break: TieBreak,
        rng: &mut R,
    ) {
        self.record_cluster_with(&mut EditScratch::new(), cluster, tie_break, rng);
    }

    /// [`record_cluster`](ErrorStats::record_cluster) with a shared DP
    /// scratch, for callers that profile many clusters.
    pub fn record_cluster_with<R: Rng + ?Sized>(
        &mut self,
        scratch: &mut EditScratch,
        cluster: &Cluster,
        tie_break: TieBreak,
        rng: &mut R,
    ) {
        for read in cluster.reads() {
            self.record_pair_with(scratch, cluster.reference(), read, tie_break, rng);
        }
    }

    /// Recovers an edit script for one (reference, read) pair and records it.
    pub fn record_pair<R: Rng + ?Sized>(
        &mut self,
        reference: &Strand,
        read: &Strand,
        tie_break: TieBreak,
        rng: &mut R,
    ) {
        self.record_pair_with(&mut EditScratch::new(), reference, read, tie_break, rng);
    }

    /// [`record_pair`](ErrorStats::record_pair) with a shared DP scratch.
    pub fn record_pair_with<R: Rng + ?Sized>(
        &mut self,
        scratch: &mut EditScratch,
        reference: &Strand,
        read: &Strand,
        tie_break: TieBreak,
        rng: &mut R,
    ) {
        let script = edit_script_with(scratch, reference, read, tie_break, rng);
        self.record_script(reference, &script);
    }

    /// Records a pre-computed edit script for `reference`.
    pub fn record_script(&mut self, reference: &Strand, script: &EditScript) {
        let len = reference.len();
        self.reads += 1;
        self.total_ref_bases += len;
        if len > self.strand_len {
            self.strand_len = len;
            self.positional_errors.resize(len, 0);
            self.positional_sites.resize(len, 0);
        }
        for site in self.positional_sites.iter_mut().take(len) {
            *site += 1;
        }
        for b in reference.iter() {
            self.base_occurrences[b.index()] += 1;
        }

        // Positions inside homopolymer runs of length ≥ 3 (sequencers are
        // disproportionately error-prone there; DNASimulator ignores this).
        let homopolymer_mask = homopolymer_mask(reference);
        for &inside in &homopolymer_mask {
            if inside {
                self.homopolymer.0 += 1;
            } else {
                self.non_homopolymer.0 += 1;
            }
        }

        let mut pos = 0usize;
        // Maximal runs of consecutive errors (bursts) and of consecutive
        // deletions, each recorded as the scan leaves it.
        let (mut burst, mut deletions) = (0usize, 0usize);
        for &op in script.ops() {
            if matches!(op, EditOp::Delete(_)) {
                deletions += 1;
            } else {
                record_run(&mut self.deletion_run_histogram, deletions);
                deletions = 0;
            }
            if let Some(kind) = op.kind() {
                burst += 1;
                // Attribute the error to the reference position it touches;
                // insertions to the base before which they occur, clamped
                // for end-of-strand inserts.
                let attributed = pos.min(len.saturating_sub(1));
                if len > 0 {
                    self.positional_errors[attributed] += 1;
                    if homopolymer_mask[attributed] {
                        self.homopolymer.1 += 1;
                    } else {
                        self.non_homopolymer.1 += 1;
                    }
                }
                let owner = match op {
                    EditOp::Subst { orig, .. } | EditOp::Delete(orig) => orig,
                    // Equal has kind() == None and never reaches here; fold
                    // it into the insertion attribution rather than panic.
                    EditOp::Insert(_) | EditOp::Equal(_) => {
                        reference.get(attributed).unwrap_or(Base::A)
                    }
                };
                self.base_errors[owner.index()][kind.index()] += 1;
                if let EditOp::Subst { orig, new } = op {
                    self.subst_matrix[orig.index()][new.index()] += 1;
                }
                let entry = self.second_order.entry(op).or_default();
                entry.count += 1;
                if entry.positional.len() < self.strand_len {
                    entry.positional.resize(self.strand_len, 0);
                }
                if len > 0 {
                    entry.positional[attributed] += 1;
                }
            } else {
                record_run(&mut self.burst_histogram, burst);
                burst = 0;
            }
            pos += op.reference_advance();
        }
        record_run(&mut self.burst_histogram, burst);
        record_run(&mut self.deletion_run_histogram, deletions);
    }

    /// The longest reference length seen.
    pub fn strand_len(&self) -> usize {
        self.strand_len
    }

    /// Number of reads profiled.
    pub fn read_count(&self) -> usize {
        self.reads
    }

    /// Total errors of all kinds.
    pub fn total_errors(&self) -> usize {
        self.base_errors.iter().flatten().sum()
    }

    /// Aggregate error rate: errors per reference base (0.0 if empty).
    pub fn aggregate_error_rate(&self) -> f64 {
        if self.total_ref_bases == 0 {
            return 0.0;
        }
        self.total_errors() as f64 / self.total_ref_bases as f64
    }

    /// Conditional probability of error `kind` given reference base `base`:
    /// `P(kind | base)` per base occurrence.
    pub fn conditional_probability(&self, base: Base, kind: ErrorKind) -> f64 {
        let occ = self.base_occurrences[base.index()];
        if occ == 0 {
            return 0.0;
        }
        self.base_errors[base.index()][kind.index()] as f64 / occ as f64
    }

    /// `P(new | substitution at orig)`: the substitution confusion row for
    /// `orig`, normalised over the three possible targets. Uniform if no
    /// substitutions of `orig` were seen.
    pub fn substitution_distribution(&self, orig: Base) -> [f64; 4] {
        let row = &self.subst_matrix[orig.index()];
        let total: usize = row.iter().sum();
        let mut out = [0.0f64; 4];
        if total == 0 {
            for b in Base::ALL {
                if b != orig {
                    out[b.index()] = 1.0 / 3.0;
                }
            }
            return out;
        }
        for i in 0..4 {
            out[i] = row[i] as f64 / total as f64;
        }
        out
    }

    /// `histogram[len]` = number of deletion runs of exactly `len` deleted
    /// bases (index 0 and 1 cover "no run"/singletons).
    pub fn deletion_run_histogram(&self) -> &[usize] {
        &self.deletion_run_histogram
    }

    /// Probability per reference base of *starting* a long deletion
    /// (a run of length ≥ 2).
    pub fn long_deletion_probability(&self) -> f64 {
        if self.total_ref_bases == 0 {
            return 0.0;
        }
        let long_runs: usize = self
            .deletion_run_histogram
            .iter()
            .skip(2)
            .sum();
        long_runs as f64 / self.total_ref_bases as f64
    }

    /// Mean length of long-deletion runs (length ≥ 2); 0.0 if none.
    pub fn long_deletion_mean_length(&self) -> f64 {
        let (mut total, mut count) = (0usize, 0usize);
        for (len, &n) in self.deletion_run_histogram.iter().enumerate().skip(2) {
            total += len * n;
            count += n;
        }
        if count == 0 {
            return 0.0;
        }
        total as f64 / count as f64
    }

    /// Errors observed per reference position.
    pub fn positional_errors(&self) -> &[usize] {
        &self.positional_errors
    }

    /// Number of reads covering each reference position (the denominator
    /// of [`positional_rates`](ErrorStats::positional_rates)).
    pub fn positional_sites(&self) -> &[usize] {
        &self.positional_sites
    }

    /// Per-position error *rate*: errors at position `i` divided by reads
    /// covering position `i`.
    pub fn positional_rates(&self) -> Vec<f64> {
        self.positional_errors
            .iter()
            .zip(&self.positional_sites)
            .map(|(&e, &s)| if s == 0 { 0.0 } else { e as f64 / s as f64 })
            .collect()
    }

    /// `histogram[len]` = number of maximal consecutive-error runs of
    /// exactly `len` operations.
    pub fn burst_histogram(&self) -> &[usize] {
        &self.burst_histogram
    }

    /// Fraction of reads containing a burst of at least `min_len`
    /// consecutive errors. The paper's §1.2 defines Nanopore bursts as 5+
    /// consecutive corrupted bases.
    pub fn burst_read_fraction(&self, min_len: usize) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        // Upper bound: each qualifying run is in some read; a read with two
        // bursts is counted twice, so clamp to 1.0.
        let bursts: usize = self
            .burst_histogram
            .iter()
            .skip(min_len)
            .sum();
        (bursts as f64 / self.reads as f64).min(1.0)
    }

    /// How much more error-prone homopolymer positions (runs ≥ 3) are than
    /// the rest of the strand: `rate(homopolymer) / rate(other)`. Returns
    /// 1.0 when either class has no observations.
    pub fn homopolymer_boost(&self) -> f64 {
        let (h_sites, h_errors) = self.homopolymer;
        let (o_sites, o_errors) = self.non_homopolymer;
        if h_sites == 0 || o_sites == 0 {
            return 1.0;
        }
        // Laplace-smoothed rates keep the ratio finite when one class saw
        // no errors.
        let h_rate = (h_errors as f64 + 0.5) / (h_sites as f64 + 1.0);
        let o_rate = (o_errors as f64 + 0.5) / (o_sites as f64 + 1.0);
        h_rate / o_rate
    }

    /// The second-order error spectrum, most frequent first.
    pub fn second_order_errors(&self) -> Vec<(EditOp, &SecondOrderStat)> {
        let mut v: Vec<(EditOp, &SecondOrderStat)> =
            self.second_order.iter().map(|(&k, v)| (k, v)).collect();
        v.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(&b.0)));
        v
    }

    /// The `k` most common specific errors and the fraction of all errors
    /// they jointly account for.
    pub fn top_second_order(&self, k: usize) -> (Vec<(EditOp, &SecondOrderStat)>, f64) {
        let all = self.second_order_errors();
        let total = self.total_errors();
        let top: Vec<_> = all.into_iter().take(k).collect();
        let covered: usize = top.iter().map(|(_, s)| s.count).sum();
        let share = if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        };
        (top, share)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &ErrorStats) {
        self.reads += other.reads;
        self.total_ref_bases += other.total_ref_bases;
        if other.strand_len > self.strand_len {
            self.strand_len = other.strand_len;
            self.positional_errors.resize(other.strand_len, 0);
            self.positional_sites.resize(other.strand_len, 0);
        }
        for (a, b) in self.positional_errors.iter_mut().zip(&other.positional_errors) {
            *a += b;
        }
        for (a, b) in self.positional_sites.iter_mut().zip(&other.positional_sites) {
            *a += b;
        }
        for i in 0..4 {
            self.base_occurrences[i] += other.base_occurrences[i];
            for k in 0..3 {
                self.base_errors[i][k] += other.base_errors[i][k];
            }
            for j in 0..4 {
                self.subst_matrix[i][j] += other.subst_matrix[i][j];
            }
        }
        if other.burst_histogram.len() > self.burst_histogram.len() {
            self.burst_histogram.resize(other.burst_histogram.len(), 0);
        }
        for (len, &n) in other.burst_histogram.iter().enumerate() {
            self.burst_histogram[len] += n;
        }
        if other.deletion_run_histogram.len() > self.deletion_run_histogram.len() {
            self.deletion_run_histogram
                .resize(other.deletion_run_histogram.len(), 0);
        }
        for (len, &n) in other.deletion_run_histogram.iter().enumerate() {
            self.deletion_run_histogram[len] += n;
        }
        self.homopolymer.0 += other.homopolymer.0;
        self.homopolymer.1 += other.homopolymer.1;
        self.non_homopolymer.0 += other.non_homopolymer.0;
        self.non_homopolymer.1 += other.non_homopolymer.1;
        for (&op, stat) in &other.second_order {
            let entry = self.second_order.entry(op).or_default();
            entry.count += stat.count;
            if entry.positional.len() < stat.positional.len() {
                entry.positional.resize(stat.positional.len(), 0);
            }
            for (a, b) in entry.positional.iter_mut().zip(&stat.positional) {
                *a += b;
            }
        }
    }
}

/// Counts one maximal run of length `run` in `histogram` (no-op for 0).
fn record_run(histogram: &mut Vec<usize>, run: usize) {
    if run == 0 {
        return;
    }
    if histogram.len() <= run {
        histogram.resize(run + 1, 0);
    }
    histogram[run] += 1;
}

/// `mask[i]` is true when reference position `i` sits inside a homopolymer
/// run of length ≥ 3.
fn homopolymer_mask(reference: &Strand) -> Vec<bool> {
    let bases = reference.as_bases();
    let mut mask = vec![false; bases.len()];
    let mut run_start = 0usize;
    for i in 1..=bases.len() {
        if i == bases.len() || bases[i] != bases[run_start] {
            if i - run_start >= 3 {
                mask[run_start..i].iter_mut().for_each(|m| *m = true);
            }
            run_start = i;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::seeded;

    fn s(text: &str) -> Strand {
        text.parse().unwrap()
    }

    #[test]
    fn clean_reads_yield_zero_rates() {
        let mut stats = ErrorStats::new();
        let mut rng = seeded(1);
        let r = s("ACGTACGT");
        stats.record_pair(&r, &r.clone(), TieBreak::Random, &mut rng);
        assert_eq!(stats.total_errors(), 0);
        assert_eq!(stats.aggregate_error_rate(), 0.0);
        for b in Base::ALL {
            for k in ErrorKind::ALL {
                assert_eq!(stats.conditional_probability(b, k), 0.0);
            }
        }
    }

    #[test]
    fn single_deletion_is_attributed() {
        let mut stats = ErrorStats::new();
        let mut rng = seeded(2);
        stats.record_pair(&s("AGCG"), &s("AGG"), TieBreak::Random, &mut rng);
        assert_eq!(stats.total_errors(), 1);
        // The deleted base is C (minimal script deletes the C).
        assert!(stats.conditional_probability(Base::C, ErrorKind::Deletion) > 0.0);
        assert_eq!(stats.deletion_run_histogram()[1], 1);
        assert_eq!(stats.long_deletion_probability(), 0.0);
    }

    #[test]
    fn substitution_matrix_is_recorded() {
        let mut stats = ErrorStats::new();
        let mut rng = seeded(3);
        // AAAA -> AGAA is a single A->G substitution.
        stats.record_pair(&s("AAAA"), &s("AGAA"), TieBreak::Random, &mut rng);
        let dist = stats.substitution_distribution(Base::A);
        assert!((dist[Base::G.index()] - 1.0).abs() < 1e-12);
        assert_eq!(dist[Base::A.index()], 0.0);
    }

    #[test]
    fn unseen_substitution_distribution_is_uniform() {
        let stats = ErrorStats::new();
        let dist = stats.substitution_distribution(Base::T);
        assert_eq!(dist[Base::T.index()], 0.0);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn long_deletion_statistics() {
        let mut stats = ErrorStats::new();
        let mut rng = seeded(4);
        // Two bases deleted in a run: TT missing.
        stats.record_pair(&s("ACTTGG"), &s("ACGG"), TieBreak::Random, &mut rng);
        assert_eq!(stats.deletion_run_histogram()[2], 1);
        assert!(stats.long_deletion_probability() > 0.0);
        assert_eq!(stats.long_deletion_mean_length(), 2.0);
    }

    #[test]
    fn positional_rates_track_error_location() {
        let mut stats = ErrorStats::new();
        let mut rng = seeded(5);
        // Error always at the last position.
        for _ in 0..10 {
            stats.record_pair(&s("AACC"), &s("AACT"), TieBreak::Random, &mut rng);
        }
        let rates = stats.positional_rates();
        assert_eq!(rates.len(), 4);
        assert!(rates[3] > 0.9);
        assert!(rates[0] < 0.1);
    }

    #[test]
    fn second_order_spectrum_ranks_by_count() {
        let mut stats = ErrorStats::new();
        let mut rng = seeded(6);
        for _ in 0..5 {
            stats.record_pair(&s("AAAA"), &s("AGAA"), TieBreak::Random, &mut rng);
        }
        stats.record_pair(&s("CCCC"), &s("CCC"), TieBreak::Random, &mut rng);
        let (top, share) = stats.top_second_order(1);
        assert_eq!(top.len(), 1);
        assert_eq!(
            top[0].0,
            EditOp::Subst {
                orig: Base::A,
                new: Base::G
            }
        );
        assert_eq!(top[0].1.count, 5);
        assert!((share - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_rate_counts_all_kinds() {
        let mut stats = ErrorStats::new();
        let mut rng = seeded(7);
        stats.record_pair(&s("ACGT"), &s("AACGT"), TieBreak::Random, &mut rng); // insertion
        stats.record_pair(&s("ACGT"), &s("ACG"), TieBreak::Random, &mut rng); // deletion
        assert_eq!(stats.total_errors(), 2);
        assert!((stats.aggregate_error_rate() - 2.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let mut rng = seeded(8);
        let pairs = [("ACGT", "ACG"), ("AAAA", "AGAA"), ("CCCC", "CCCCC")];
        let mut all = ErrorStats::new();
        for (a, b) in pairs {
            all.record_pair(&s(a), &s(b), TieBreak::PreferSubstitution, &mut rng);
        }
        let mut first = ErrorStats::new();
        first.record_pair(&s(pairs[0].0), &s(pairs[0].1), TieBreak::PreferSubstitution, &mut rng);
        let mut rest = ErrorStats::new();
        for (a, b) in &pairs[1..] {
            rest.record_pair(&s(a), &s(b), TieBreak::PreferSubstitution, &mut rng);
        }
        first.merge(&rest);
        assert_eq!(first, all);
    }

    #[test]
    fn dataset_profiling_visits_every_read() {
        let cluster = Cluster::new(
            s("ACGTACGT"),
            vec![s("ACGTACGT"), s("ACGTACG"), s("ACGTTACGT")],
        );
        let dataset = Dataset::from_clusters(vec![cluster]);
        let mut rng = seeded(9);
        let stats = ErrorStats::from_dataset(&dataset, TieBreak::Random, &mut rng);
        assert_eq!(stats.read_count(), 3);
        assert_eq!(stats.total_errors(), 2);
        assert_eq!(stats.strand_len(), 8);
    }

    #[test]
    fn from_source_matches_from_dataset_at_any_batch_size() {
        let clusters = vec![
            Cluster::new(s("ACGTACGT"), vec![s("ACGTACG"), s("ACGTTACGT")]),
            Cluster::new(s("TTTTCCCC"), vec![s("TTTCCCC"), s("TTTTCCCC")]),
            Cluster::erasure(s("GGGGGGGG")),
            Cluster::new(s("ACACACAC"), vec![s("ACACAAC")]),
        ];
        let dataset = Dataset::from_clusters(clusters);
        let mut rng = seeded(10);
        let whole = ErrorStats::from_dataset(&dataset, TieBreak::Random, &mut rng);
        for batch_size in [1, 2, 3, usize::MAX] {
            let mut rng = seeded(10);
            let (streamed, window) =
                ErrorStats::from_source(&mut dataset.stream(), batch_size, TieBreak::Random, &mut rng)
                    .unwrap();
            assert_eq!(streamed, whole, "batch_size={batch_size}");
            assert_eq!(window.clusters, dataset.len());
            assert!(window.high_watermark <= batch_size);
        }
    }

    #[test]
    fn from_source_rejects_zero_batch() {
        let dataset = Dataset::from_clusters(vec![Cluster::erasure(s("ACGT"))]);
        let mut rng = seeded(1);
        assert!(
            ErrorStats::from_source(&mut dataset.stream(), 0, TieBreak::Random, &mut rng).is_err()
        );
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use crate::editops::TieBreak;
    use dnasim_core::rng::seeded;
    use dnasim_core::{ErrorKind, Strand};

    /// DESIGN.md ablation 2: deterministic substitution-preferring
    /// tie-break inflates the recovered substitution share relative to the
    /// randomised tie-break the paper uses, on ambiguous (same-length,
    /// shuffled) noisy pairs.
    #[test]
    fn deterministic_tiebreak_biases_toward_substitutions() {
        let mut rng = seeded(42);
        let mut random_stats = ErrorStats::new();
        let mut prefer_stats = ErrorStats::new();
        for _ in 0..200 {
            let reference = Strand::random(60, &mut rng);
            // A deletion followed by an insertion elsewhere keeps the
            // length equal, making sub-vs-indel attribution ambiguous.
            let mut bases = reference.clone().into_bases();
            use dnasim_core::rng::RngExt;
            let del_at = rng.random_range(0..bases.len());
            bases.remove(del_at);
            let ins_at = rng.random_range(0..bases.len());
            bases.insert(ins_at, dnasim_core::Base::random(&mut rng));
            let read = Strand::from_bases(bases);
            random_stats.record_pair(&reference, &read, TieBreak::Random, &mut rng);
            prefer_stats.record_pair(&reference, &read, TieBreak::PreferSubstitution, &mut rng);
        }
        let share = |stats: &ErrorStats| {
            let total = stats.total_errors().max(1);
            let subs: usize = dnasim_core::Base::ALL
                .iter()
                .map(|&b| {
                    (stats.conditional_probability(b, ErrorKind::Substitution)
                        * stats.read_count() as f64
                        * 60.0
                        / 4.0) as usize
                })
                .sum();
            subs as f64 / total as f64
        };
        assert!(
            share(&prefer_stats) > share(&random_stats),
            "prefer-substitution should inflate substitution share: {} vs {}",
            share(&prefer_stats),
            share(&random_stats)
        );
    }
}

#[cfg(test)]
mod homopolymer_tests {
    use super::*;
    use crate::editops::TieBreak;
    use dnasim_core::rng::seeded;

    fn s(text: &str) -> Strand {
        text.parse().unwrap()
    }

    #[test]
    fn mask_flags_runs_of_three_or_more() {
        let mask = homopolymer_mask(&s("AACCCGTTTT"));
        assert_eq!(
            mask,
            vec![false, false, true, true, true, false, true, true, true, true]
        );
        assert!(homopolymer_mask(&Strand::new()).is_empty());
    }

    #[test]
    fn boost_defaults_to_one_without_data() {
        assert_eq!(ErrorStats::new().homopolymer_boost(), 1.0);
    }

    #[test]
    fn boost_detects_homopolymer_concentration() {
        let mut stats = ErrorStats::new();
        let mut rng = seeded(1);
        // Errors only inside the CCC run of ACCCGT.
        for _ in 0..20 {
            stats.record_pair(&s("ACCCGT"), &s("ACTCGT"), TieBreak::Random, &mut rng);
            stats.record_pair(&s("ACCCGT"), &s("ACCCGT"), TieBreak::Random, &mut rng);
        }
        assert!(stats.homopolymer_boost() > 3.0, "{}", stats.homopolymer_boost());
    }

    #[test]
    fn boost_is_one_for_uniform_errors() {
        // Errors at a non-homopolymer position only.
        let mut stats = ErrorStats::new();
        let mut rng = seeded(2);
        stats.record_pair(&s("ACCCGT"), &s("TCCCGT"), TieBreak::Random, &mut rng);
        assert!(stats.homopolymer_boost() < 1.0 + 1e-9);
    }
}

#[cfg(test)]
mod burst_tests {
    use super::*;
    use crate::editops::TieBreak;
    use dnasim_core::rng::seeded;

    fn s(text: &str) -> Strand {
        text.parse().unwrap()
    }

    #[test]
    fn burst_histogram_counts_consecutive_errors() {
        let mut stats = ErrorStats::new();
        let mut rng = seeded(1);
        // AAAACCCC -> TTTTCCCC: a burst of four substitutions.
        stats.record_pair(&s("AAAACCCC"), &s("TTTTCCCC"), TieBreak::Random, &mut rng);
        assert_eq!(stats.burst_histogram().get(4), Some(&1));
        assert!((stats.burst_read_fraction(4) - 1.0).abs() < 1e-12);
        assert_eq!(stats.burst_read_fraction(5), 0.0);
    }

    #[test]
    fn scattered_errors_are_not_bursts() {
        let mut stats = ErrorStats::new();
        let mut rng = seeded(2);
        stats.record_pair(&s("ACGTACGT"), &s("TCGTACGA"), TieBreak::Random, &mut rng);
        assert_eq!(stats.burst_read_fraction(2), 0.0);
        assert_eq!(stats.burst_histogram().get(1), Some(&2));
    }

    #[test]
    fn run_histograms_match_the_scripts_run_lengths() {
        use dnasim_dataset::NanoporeTwinConfig;
        let mut config = NanoporeTwinConfig::small();
        config.cluster_count = 40;
        let ds = config.generate();
        let mut rng = seeded(4);
        let mut stats = ErrorStats::new();
        let (mut bursts, mut deletions) = (Vec::new(), Vec::new());
        for cluster in ds.iter() {
            for read in cluster.reads() {
                let script =
                    crate::edit_script(cluster.reference(), read, TieBreak::Random, &mut rng);
                stats.record_script(cluster.reference(), &script);
                for run in script.error_run_lengths() {
                    record_run(&mut bursts, run);
                }
                for run in script.deletion_run_lengths() {
                    record_run(&mut deletions, run);
                }
            }
        }
        assert!(deletions.len() > 2, "no long deletions in the twin");
        assert_eq!(stats.burst_histogram(), &bursts[..]);
        assert_eq!(stats.deletion_run_histogram(), &deletions[..]);
    }

    #[test]
    fn twin_bursts_are_detectable() {
        use dnasim_dataset::NanoporeTwinConfig;
        let mut config = NanoporeTwinConfig::small();
        config.cluster_count = 60;
        let ds = config.generate();
        let mut rng = seeded(3);
        let stats = ErrorStats::from_dataset(&ds, TieBreak::Random, &mut rng);
        // The twin injects bursts at ~2% of reads; minimal-edit alignment
        // splits and shortens the recovered runs, but long error runs must
        // still be far above what independent errors at 5.9% produce
        // (P(5 consecutive) ≈ 0.059⁵ ≈ 7e-7 per site).
        let fraction = stats.burst_read_fraction(5);
        assert!(
            fraction > 0.002 && fraction < 0.10,
            "burst fraction {fraction}"
        );
    }
}
