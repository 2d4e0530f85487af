//! The error-model abstraction and the simulator driver.

use dnasim_core::rng::{SeedSequence, SimRng};
use dnasim_core::{
    produce_windows, pump_budgeted, Batch, Budget, Cluster, ClusterSink, ClusterSource, Dataset,
    DnasimError, Strand, WindowStats,
};
use dnasim_par::ThreadPool;

use crate::coverage::CoverageModel;

/// A noisy-channel error model: corrupts one reference strand into one
/// noisy read.
///
/// Implementations are the simulators under comparison: the naive model,
/// the DNASimulator baseline (Algorithm 1), the layered data-driven model,
/// and the parametric model used for sensitivity analysis.
///
/// The trait is object-safe so that experiment tables can iterate over a
/// heterogeneous suite of simulators.
pub trait ErrorModel: std::fmt::Debug {
    /// Produces one noisy read of `reference`.
    fn corrupt(&self, reference: &Strand, rng: &mut SimRng) -> Strand;

    /// A short human-readable name for reports and tables.
    fn name(&self) -> String;
}

impl<M: ErrorModel + ?Sized> ErrorModel for &M {
    fn corrupt(&self, reference: &Strand, rng: &mut SimRng) -> Strand {
        (**self).corrupt(reference, rng)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

impl<M: ErrorModel + ?Sized> ErrorModel for Box<M> {
    fn corrupt(&self, reference: &Strand, rng: &mut SimRng) -> Strand {
        (**self).corrupt(reference, rng)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

/// An error model that returns every reference unchanged — the zero-noise
/// channel, useful as a control and in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityModel;

impl ErrorModel for IdentityModel {
    fn corrupt(&self, reference: &Strand, _rng: &mut SimRng) -> Strand {
        reference.clone()
    }

    fn name(&self) -> String {
        "identity".to_owned()
    }
}

/// Drives an [`ErrorModel`] over a set of reference strands, drawing
/// per-cluster coverage from a [`CoverageModel`], to produce a simulated
/// [`Dataset`].
///
/// # Examples
///
/// ```
/// use dnasim_channel::{CoverageModel, IdentityModel, Simulator};
/// use dnasim_core::{rng::seeded, Strand};
///
/// let mut rng = seeded(1);
/// let references = vec![Strand::random(110, &mut rng)];
/// let sim = Simulator::new(IdentityModel, CoverageModel::Fixed(5));
/// let dataset = sim.simulate(&references, &mut rng);
/// assert_eq!(dataset.len(), 1);
/// assert_eq!(dataset.total_reads(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<M> {
    model: M,
    coverage: CoverageModel,
}

impl<M: ErrorModel> Simulator<M> {
    /// Creates a simulator from an error model and a coverage model.
    pub fn new(model: M, coverage: CoverageModel) -> Simulator<M> {
        Simulator { model, coverage }
    }

    /// The underlying error model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The coverage model.
    pub fn coverage(&self) -> &CoverageModel {
        &self.coverage
    }

    /// Simulates a dataset: one cluster per reference, with coverage drawn
    /// per cluster.
    pub fn simulate(&self, references: &[Strand], rng: &mut SimRng) -> Dataset {
        references
            .iter()
            .enumerate()
            .map(|(index, reference)| {
                let coverage = self.coverage.sample(index, rng);
                self.simulate_cluster(reference, coverage, rng)
            })
            .collect()
    }

    /// Simulates one cluster of `coverage` noisy reads for `reference`.
    pub fn simulate_cluster(
        &self,
        reference: &Strand,
        coverage: usize,
        rng: &mut SimRng,
    ) -> Cluster {
        let reads = (0..coverage)
            .map(|_| self.model.corrupt(reference, rng))
            .collect();
        Cluster::new(reference.clone(), reads)
    }

    /// Parallel counterpart of [`Simulator::simulate`] with per-cluster
    /// forked RNG streams: the streaming path
    /// ([`Simulator::simulate_stream`]) with one window.
    ///
    /// Where [`Simulator::simulate`] threads one RNG serially through every
    /// cluster, this method gives cluster `i` its own stream via
    /// [`SeedSequence::fork`], so the resulting dataset is byte-identical
    /// for every thread count (including a serial pool). The two methods
    /// therefore produce *different* (but equally valid) datasets for the
    /// same seed; pick one discipline per experiment.
    ///
    /// # Errors
    ///
    /// Returns [`DnasimError::Degraded`] if a worker panicked; completed
    /// clusters are discarded rather than returned partially.
    pub fn simulate_on(
        &self,
        references: &[Strand],
        seq: &SeedSequence,
        pool: &ThreadPool,
    ) -> Result<Dataset, DnasimError>
    where
        M: Sync,
    {
        let mut out = Dataset::new();
        self.simulate_stream(references, seq, usize::MAX, pool, &mut out).map(|_| out)
    }

    /// Resimulates a real dataset with *custom coverage*: the same
    /// reference strands, with each simulated cluster given exactly the
    /// coverage its real counterpart had (the Table 2.1 protocol).
    pub fn resimulate_matching(&self, real: &Dataset, rng: &mut SimRng) -> Dataset {
        real.iter()
            .map(|cluster| self.simulate_cluster(cluster.reference(), cluster.coverage(), rng))
            .collect()
    }

    /// Parallel counterpart of [`Simulator::resimulate_matching`]: the
    /// streaming path ([`Simulator::resimulate_stream`]) with one window.
    /// Cluster `i` is resimulated on the stream [`SeedSequence::fork`]`(i)`,
    /// so the output does not depend on the pool's thread count.
    ///
    /// # Errors
    ///
    /// Returns [`DnasimError::Degraded`] if a worker panicked.
    pub fn resimulate_matching_on(
        &self,
        real: &Dataset,
        seq: &SeedSequence,
        pool: &ThreadPool,
    ) -> Result<Dataset, DnasimError>
    where
        M: Sync,
    {
        let mut out = Dataset::new();
        self.resimulate_stream(&mut real.stream(), seq, usize::MAX, pool, &mut out).map(|_| out)
    }

    /// Simulates the references in bounded batches of at most
    /// `batch_size` clusters, pushing each finished batch into `sink`.
    ///
    /// Cluster `i` is simulated on the stream [`SeedSequence::fork`]`(i)`
    /// of its *global* index — never its within-batch position — so the
    /// output is byte-identical for every batch size and thread count
    /// ([`Simulator::simulate_on`] is this path with one window).
    ///
    /// # Errors
    ///
    /// [`DnasimError::Config`] for `batch_size == 0`,
    /// [`DnasimError::Degraded`] if a worker panicked, or whatever the
    /// sink reports.
    pub fn simulate_stream<K>(
        &self,
        references: &[Strand],
        seq: &SeedSequence,
        batch_size: usize,
        pool: &ThreadPool,
        sink: &mut K,
    ) -> Result<WindowStats, DnasimError>
    where
        M: Sync,
        K: ClusterSink + ?Sized,
    {
        self.simulate_stream_budgeted(references, seq, batch_size, pool, &Budget::unlimited(), sink)
    }

    /// [`Simulator::simulate_stream`] metered by a [`Budget`] through
    /// [`produce_windows`]: one work unit per cluster, admitted before the
    /// window fans out, so exhaustion lands on the same global cluster
    /// index at any batch size or thread count. The admitted prefix is
    /// still emitted before the typed error.
    ///
    /// # Errors
    ///
    /// [`DnasimError::DeadlineExceeded`] on exhaustion or cancellation,
    /// plus everything [`Simulator::simulate_stream`] can report.
    pub fn simulate_stream_budgeted<K>(
        &self,
        references: &[Strand],
        seq: &SeedSequence,
        batch_size: usize,
        pool: &ThreadPool,
        budget: &Budget,
        sink: &mut K,
    ) -> Result<WindowStats, DnasimError>
    where
        M: Sync,
        K: ClusterSink + ?Sized,
    {
        produce_windows(references.len(), sink, batch_size, budget, "simulate", |range| {
            let start = range.start;
            Ok(pool.par_map_indexed(&references[range], |i, reference| {
                let index = start + i;
                let mut rng = seq.fork_rng(index as u64);
                let coverage = self.coverage.sample(index, &mut rng);
                self.simulate_cluster(reference, coverage, &mut rng)
            })?)
        })
    }

    /// Resimulates a real dataset window by window: pulls real clusters
    /// from `source` in bounded batches, resimulates each with its real
    /// coverage, and pushes the results into `sink`.
    ///
    /// Per-cluster RNG streams fork from the cluster's global index, so
    /// the output is byte-identical at any batch size or thread count
    /// ([`Simulator::resimulate_matching_on`] is this path with one
    /// window).
    ///
    /// # Errors
    ///
    /// [`DnasimError::Config`] for `batch_size == 0`,
    /// [`DnasimError::Degraded`] if a worker panicked, or whatever the
    /// source or sink reports.
    pub fn resimulate_stream<S, K>(
        &self,
        source: &mut S,
        seq: &SeedSequence,
        batch_size: usize,
        pool: &ThreadPool,
        sink: &mut K,
    ) -> Result<WindowStats, DnasimError>
    where
        M: Sync,
        S: ClusterSource + ?Sized,
        K: ClusterSink + ?Sized,
    {
        self.resimulate_stream_budgeted(source, seq, batch_size, pool, &Budget::unlimited(), sink)
    }

    /// [`Simulator::resimulate_stream`] metered by a [`Budget`] through
    /// [`pump_budgeted`]: one work unit per cluster pulled, with the
    /// admitted prefix emitted before the typed deadline error.
    ///
    /// # Errors
    ///
    /// [`DnasimError::DeadlineExceeded`] on exhaustion or cancellation,
    /// plus everything [`Simulator::resimulate_stream`] can report.
    pub fn resimulate_stream_budgeted<S, K>(
        &self,
        source: &mut S,
        seq: &SeedSequence,
        batch_size: usize,
        pool: &ThreadPool,
        budget: &Budget,
        sink: &mut K,
    ) -> Result<WindowStats, DnasimError>
    where
        M: Sync,
        S: ClusterSource + ?Sized,
        K: ClusterSink + ?Sized,
    {
        pump_budgeted(source, sink, batch_size, budget, "resimulate", |batch| {
            let start = batch.start();
            let clusters = pool.par_map_indexed(batch.clusters(), |i, cluster| {
                let mut rng = seq.fork_rng((start + i) as u64);
                self.simulate_cluster(cluster.reference(), cluster.coverage(), &mut rng)
            })?;
            Ok(Batch::new(start, clusters))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::seeded;

    #[test]
    fn identity_model_is_lossless() {
        let mut rng = seeded(1);
        let r = Strand::random(50, &mut rng);
        assert_eq!(IdentityModel.corrupt(&r, &mut rng), r);
    }

    #[test]
    fn simulate_honours_fixed_coverage() {
        let mut rng = seeded(2);
        let refs: Vec<Strand> = (0..4).map(|_| Strand::random(20, &mut rng)).collect();
        let sim = Simulator::new(IdentityModel, CoverageModel::Fixed(3));
        let ds = sim.simulate(&refs, &mut rng);
        assert_eq!(ds.len(), 4);
        assert!(ds.iter().all(|c| c.coverage() == 3));
        for (c, r) in ds.iter().zip(&refs) {
            assert_eq!(c.reference(), r);
            assert!(c.reads().iter().all(|read| read == r));
        }
    }

    #[test]
    fn simulate_honours_custom_coverage() {
        let mut rng = seeded(3);
        let refs: Vec<Strand> = (0..3).map(|_| Strand::random(20, &mut rng)).collect();
        let sim = Simulator::new(IdentityModel, CoverageModel::Custom(vec![1, 0, 4]));
        let ds = sim.simulate(&refs, &mut rng);
        assert_eq!(ds.coverages(), vec![1, 0, 4]);
        assert_eq!(ds.erasure_count(), 1);
    }

    #[test]
    fn resimulate_matches_real_coverages() {
        let mut rng = seeded(4);
        let refs: Vec<Strand> = (0..5).map(|_| Strand::random(20, &mut rng)).collect();
        let real = Simulator::new(IdentityModel, CoverageModel::negative_binomial(8.0, 3.0))
            .simulate(&refs, &mut rng);
        let sim = Simulator::new(IdentityModel, CoverageModel::Fixed(999));
        let resim = sim.resimulate_matching(&real, &mut rng);
        assert_eq!(resim.coverages(), real.coverages());
        assert_eq!(resim.references(), real.references());
    }

    #[test]
    fn simulate_on_is_thread_count_invariant() {
        let mut rng = seeded(6);
        let refs: Vec<Strand> = (0..10).map(|_| Strand::random(20, &mut rng)).collect();
        let sim = Simulator::new(IdentityModel, CoverageModel::negative_binomial(6.0, 2.0));
        let seq = SeedSequence::new(99);
        let serial = sim.simulate_on(&refs, &seq, &ThreadPool::serial()).unwrap();
        for threads in [2, 4, 8] {
            let par = sim.simulate_on(&refs, &seq, &ThreadPool::new(threads)).unwrap();
            assert_eq!(serial, par);
        }
        let resim = sim
            .resimulate_matching_on(&serial, &seq, &ThreadPool::new(3))
            .unwrap();
        assert_eq!(resim.coverages(), serial.coverages());
    }

    #[test]
    fn simulate_stream_matches_simulate_on_at_any_batch_size() {
        let mut rng = seeded(7);
        let refs: Vec<Strand> = (0..11).map(|_| Strand::random(20, &mut rng)).collect();
        let sim = Simulator::new(IdentityModel, CoverageModel::negative_binomial(5.0, 2.0));
        let seq = SeedSequence::new(42);
        let pool = ThreadPool::new(3);
        let whole = sim.simulate_on(&refs, &seq, &pool).unwrap();
        for batch_size in [1, 3, 7, usize::MAX] {
            let mut streamed = Dataset::new();
            let stats = sim
                .simulate_stream(&refs, &seq, batch_size, &pool, &mut streamed)
                .unwrap();
            assert_eq!(streamed, whole, "batch_size={batch_size}");
            assert_eq!(stats.clusters, refs.len());
            assert!(stats.high_watermark <= batch_size);
        }
    }

    #[test]
    fn resimulate_stream_matches_resimulate_matching_on() {
        let mut rng = seeded(8);
        let refs: Vec<Strand> = (0..9).map(|_| Strand::random(20, &mut rng)).collect();
        let real = Simulator::new(IdentityModel, CoverageModel::negative_binomial(6.0, 2.0))
            .simulate(&refs, &mut rng);
        let sim = Simulator::new(IdentityModel, CoverageModel::Fixed(0));
        let seq = SeedSequence::new(17);
        let pool = ThreadPool::new(4);
        let whole = sim.resimulate_matching_on(&real, &seq, &pool).unwrap();
        for batch_size in [1, 2, 5, usize::MAX] {
            let mut streamed = Dataset::new();
            sim.resimulate_stream(&mut real.stream(), &seq, batch_size, &pool, &mut streamed)
                .unwrap();
            assert_eq!(streamed, whole, "batch_size={batch_size}");
        }
    }

    #[test]
    fn simulate_stream_rejects_zero_batch() {
        let sim = Simulator::new(IdentityModel, CoverageModel::Fixed(1));
        let seq = SeedSequence::new(1);
        let mut out = Dataset::new();
        assert!(sim
            .simulate_stream(&[], &seq, 0, &ThreadPool::serial(), &mut out)
            .is_err());
    }

    #[test]
    fn trait_objects_work() {
        let mut rng = seeded(5);
        let boxed: Box<dyn ErrorModel> = Box::new(IdentityModel);
        let r = Strand::random(10, &mut rng);
        assert_eq!(boxed.corrupt(&r, &mut rng), r);
        assert_eq!(boxed.name(), "identity");
        let sim = Simulator::new(boxed, CoverageModel::Fixed(1));
        assert_eq!(sim.simulate(&[r], &mut rng).total_reads(), 1);
    }
}
