//! Parallel per-cluster reconstruction.
//!
//! Trace reconstruction is embarrassingly parallel across clusters: each
//! cluster's estimate depends only on its own reads.
//! [`reconstruct_clusters`] fans a [`TraceReconstructor`] (`Send + Sync`
//! for exactly this) out over a [`Dataset`] on a [`ThreadPool`],
//! preserving cluster order in the output. Because every algorithm in this
//! crate is deterministic and takes no RNG, the estimates are byte-identical
//! to a serial loop for any thread count.

use dnasim_core::{Cluster, Dataset, DnasimError, Strand};
use dnasim_par::ThreadPool;

use crate::algorithms::TraceReconstructor;

/// Reconstructs every cluster of `dataset` with `algorithm` on `pool`.
///
/// Returns one estimate per cluster, in cluster order, each of length
/// `strand_len`. The output is independent of the pool's thread count.
///
/// # Errors
///
/// Returns [`DnasimError::Degraded`] if a worker panicked; completed
/// estimates are discarded rather than returned partially.
pub fn reconstruct_clusters<A>(
    algorithm: &A,
    dataset: &Dataset,
    strand_len: usize,
    pool: &ThreadPool,
) -> Result<Vec<Strand>, DnasimError>
where
    A: TraceReconstructor + ?Sized,
{
    let estimates = pool.par_map_indexed(dataset.clusters(), |_, cluster: &Cluster| {
        algorithm.reconstruct(cluster.reads(), strand_len)
    })?;
    Ok(estimates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{BmaLookahead, MajorityVote};
    use dnasim_core::rng::seeded;

    fn toy_dataset(clusters: usize, len: usize) -> Dataset {
        let mut rng = seeded(7);
        (0..clusters)
            .map(|_| {
                let reference = Strand::random(len, &mut rng);
                let reads = vec![reference.clone(); 3];
                Cluster::new(reference, reads)
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_loop() {
        let ds = toy_dataset(17, 24);
        let algo = BmaLookahead::default();
        let serial: Vec<Strand> = ds
            .iter()
            .map(|c| algo.reconstruct(c.reads(), 24))
            .collect();
        for threads in [1, 2, 4, 8] {
            let par = reconstruct_clusters(&algo, &ds, 24, &ThreadPool::new(threads)).unwrap();
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn trait_objects_reconstruct_in_parallel() {
        let ds = toy_dataset(5, 12);
        let boxed: Box<dyn TraceReconstructor + Send + Sync> = Box::new(MajorityVote);
        let est = reconstruct_clusters(boxed.as_ref(), &ds, 12, &ThreadPool::new(2)).unwrap();
        assert_eq!(est.len(), 5);
    }
}
