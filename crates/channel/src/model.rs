//! The error-model abstraction and the simulator driver.

use dnasim_core::rng::{SeedSequence, SimRng};
use dnasim_core::{
    produce_windows, pump_budgeted, Batch, Cluster, ClusterSink, ClusterSource, Dataset,
    DnasimError, Strand, WindowStats,
};
use dnasim_par::RunCtx;

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

    /// Resimulates a real dataset with *custom coverage*: the same
    /// reference strands, with each simulated cluster given exactly the
    /// coverage its real counterpart had (the Table 2.1 protocol).
    pub fn resimulate_matching(&self, real: &Dataset, rng: &mut SimRng) -> Dataset {
        real.iter()
            .map(|cluster| self.simulate_cluster(cluster.reference(), cluster.coverage(), rng))
            .collect()
    }

    /// Simulates one cluster per reference, pushing finished windows of
    /// at most `ctx.batch_size()` clusters into `sink`, each window fanned
    /// out on `ctx.pool()`.
    ///
    /// Where [`Simulator::simulate`] threads one RNG serially through every
    /// cluster, cluster `i` here is simulated on its own stream,
    /// [`SeedSequence::fork`]`(i)` of its *global* index, so the output is
    /// byte-identical for every batch size and thread count. The two
    /// methods therefore produce *different* (but equally valid) datasets
    /// for the same seed; pick one discipline per experiment.
    ///
    /// The budget is charged through [`produce_windows`]: one work unit
    /// per cluster, admitted before the window fans out, so exhaustion
    /// lands on the same global cluster index at any batch size or thread
    /// count. The admitted prefix is still emitted before the typed error.
    ///
    /// # Errors
    ///
    /// [`DnasimError::DeadlineExceeded`] on exhaustion or cancellation,
    /// [`DnasimError::Degraded`] if a worker panicked, or whatever the
    /// sink reports.
    pub fn simulate_in<K>(
        &self,
        references: &[Strand],
        seq: &SeedSequence,
        ctx: &RunCtx,
        sink: &mut K,
    ) -> Result<WindowStats, DnasimError>
    where
        M: Sync,
        K: ClusterSink + ?Sized,
    {
        let (pool, batch_size, budget) = (ctx.pool(), ctx.batch_size(), ctx.budget());
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
    /// from `source` in windows of at most `ctx.batch_size()`, resimulates
    /// each with its real coverage on `ctx.pool()`, and pushes the results
    /// into `sink` — the parallel counterpart of
    /// [`Simulator::resimulate_matching`].
    ///
    /// Cluster `i` is resimulated on [`SeedSequence::fork`]`(i)` of its
    /// global index, so the output is byte-identical at any batch size or
    /// thread count. The budget is charged through [`pump_budgeted`]: one
    /// work unit per cluster pulled, with the admitted prefix emitted
    /// before the typed deadline error.
    ///
    /// # Errors
    ///
    /// [`DnasimError::DeadlineExceeded`] on exhaustion or cancellation,
    /// [`DnasimError::Degraded`] if a worker panicked, or whatever the
    /// source or sink reports.
    pub fn resimulate_in<S, K>(
        &self,
        source: &mut S,
        seq: &SeedSequence,
        ctx: &RunCtx,
        sink: &mut K,
    ) -> Result<WindowStats, DnasimError>
    where
        M: Sync,
        S: ClusterSource + ?Sized,
        K: ClusterSink + ?Sized,
    {
        let (pool, batch_size, budget) = (ctx.pool(), ctx.batch_size(), ctx.budget());
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
    use dnasim_par::ThreadPool;

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

    /// Runs `simulate_in` into a fresh dataset.
    fn simulated<M: ErrorModel + Sync>(
        sim: &Simulator<M>,
        refs: &[Strand],
        seq: &SeedSequence,
        ctx: &RunCtx,
    ) -> (Dataset, WindowStats) {
        let mut out = Dataset::new();
        let stats = sim.simulate_in(refs, seq, ctx, &mut out).unwrap();
        (out, stats)
    }

    #[test]
    fn simulate_in_is_thread_count_invariant() {
        let mut rng = seeded(6);
        let refs: Vec<Strand> = (0..10).map(|_| Strand::random(20, &mut rng)).collect();
        let sim = Simulator::new(IdentityModel, CoverageModel::negative_binomial(6.0, 2.0));
        let seq = SeedSequence::new(99);
        let (serial, _) = simulated(&sim, &refs, &seq, &RunCtx::serial());
        for threads in [2, 4, 8] {
            let ctx = RunCtx::new(&ThreadPool::new(threads), usize::MAX).unwrap();
            assert_eq!(serial, simulated(&sim, &refs, &seq, &ctx).0);
        }
        let mut resim = Dataset::new();
        let ctx = RunCtx::new(&ThreadPool::new(3), usize::MAX).unwrap();
        sim.resimulate_in(&mut serial.stream(), &seq, &ctx, &mut resim)
            .unwrap();
        assert_eq!(resim.coverages(), serial.coverages());
    }

    #[test]
    fn simulate_in_matches_one_window_at_any_batch_size() {
        let mut rng = seeded(7);
        let refs: Vec<Strand> = (0..11).map(|_| Strand::random(20, &mut rng)).collect();
        let sim = Simulator::new(IdentityModel, CoverageModel::negative_binomial(5.0, 2.0));
        let seq = SeedSequence::new(42);
        let pool = ThreadPool::new(3);
        let (whole, _) = simulated(&sim, &refs, &seq, &RunCtx::serial());
        for batch_size in [1, 3, 7, usize::MAX] {
            let ctx = RunCtx::new(&pool, batch_size).unwrap();
            let (streamed, stats) = simulated(&sim, &refs, &seq, &ctx);
            assert_eq!(streamed, whole, "batch_size={batch_size}");
            assert_eq!(stats.clusters, refs.len());
            assert!(stats.high_watermark <= batch_size);
        }
    }

    #[test]
    fn resimulate_in_matches_one_window_at_any_batch_size() {
        let mut rng = seeded(8);
        let refs: Vec<Strand> = (0..9).map(|_| Strand::random(20, &mut rng)).collect();
        let real = Simulator::new(IdentityModel, CoverageModel::negative_binomial(6.0, 2.0))
            .simulate(&refs, &mut rng);
        let sim = Simulator::new(IdentityModel, CoverageModel::Fixed(0));
        let seq = SeedSequence::new(17);
        let mut whole = Dataset::new();
        sim.resimulate_in(&mut real.stream(), &seq, &RunCtx::serial(), &mut whole)
            .unwrap();
        assert_eq!(whole.coverages(), real.coverages());
        for batch_size in [1, 2, 5, usize::MAX] {
            let ctx = RunCtx::new(&ThreadPool::new(4), batch_size).unwrap();
            let mut streamed = Dataset::new();
            sim.resimulate_in(&mut real.stream(), &seq, &ctx, &mut streamed)
                .unwrap();
            assert_eq!(streamed, whole, "batch_size={batch_size}");
        }
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
