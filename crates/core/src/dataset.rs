//! Datasets: ordered collections of clusters plus summary statistics.

use crate::rng::SliceRandom;
use crate::rng::Rng;

use crate::cluster::Cluster;
use crate::strand::Strand;

/// A full sequencing dataset: one cluster per reference strand.
///
/// This is the unit the evaluation pipeline operates on: a real (or
/// synthetic-twin) Nanopore dataset, or the output of one of the simulators.
///
/// # Examples
///
/// ```
/// use dnasim_core::{Cluster, Dataset, Strand};
///
/// let c = Cluster::new("ACGT".parse()?, vec!["ACG".parse()?]);
/// let ds = Dataset::from_clusters(vec![c]);
/// assert_eq!(ds.len(), 1);
/// assert_eq!(ds.total_reads(), 1);
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dataset {
    clusters: Vec<Cluster>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Dataset {
        Dataset {
            clusters: Vec::new(),
        }
    }

    /// Creates a dataset from clusters.
    pub fn from_clusters(clusters: Vec<Cluster>) -> Dataset {
        Dataset { clusters }
    }

    /// The clusters in the dataset.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// A [`ClusterSource`](crate::stream::ClusterSource) over this
    /// dataset, emitting clusters in order in bounded batches.
    pub fn stream(&self) -> crate::stream::DatasetStream<'_> {
        crate::stream::DatasetStream::new(self)
    }

    /// Like [`Dataset::stream`], but consuming the dataset so the source
    /// is `'static` — the shape [`PrefetchSource`](crate::PrefetchSource)
    /// needs to move it onto its worker thread.
    pub fn into_stream(self) -> crate::stream::OwnedDatasetStream {
        crate::stream::OwnedDatasetStream::new(self)
    }

    /// Number of clusters (= number of reference strands).
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the dataset has no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Adds a cluster.
    pub fn push(&mut self, cluster: Cluster) {
        self.clusters.push(cluster);
    }

    /// Iterates over the clusters.
    pub fn iter(&self) -> std::slice::Iter<'_, Cluster> {
        self.clusters.iter()
    }

    /// Total number of noisy reads across all clusters.
    ///
    /// ```
    /// use dnasim_core::{Cluster, Dataset};
    /// let mut ds = Dataset::new();
    /// ds.push(Cluster::new("AC".parse().unwrap(), vec!["AC".parse().unwrap()]));
    /// ds.push(Cluster::erasure("GT".parse().unwrap()));
    /// assert_eq!(ds.total_reads(), 1);
    /// ```
    pub fn total_reads(&self) -> usize {
        self.clusters.iter().map(Cluster::coverage).sum()
    }

    /// Mean sequencing coverage across clusters (reads per reference).
    ///
    /// Returns 0.0 for an empty dataset.
    pub fn mean_coverage(&self) -> f64 {
        if self.clusters.is_empty() {
            return 0.0;
        }
        self.total_reads() as f64 / self.clusters.len() as f64
    }

    /// Number of erasures (clusters with zero reads).
    pub fn erasure_count(&self) -> usize {
        self.clusters.iter().filter(|c| c.is_erasure()).count()
    }

    /// The minimum and maximum coverage over all clusters, or `None` if the
    /// dataset is empty.
    pub fn coverage_range(&self) -> Option<(usize, usize)> {
        let mut it = self.clusters.iter().map(Cluster::coverage);
        let first = it.next()?;
        let (mut lo, mut hi) = (first, first);
        for c in it {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        Some((lo, hi))
    }

    /// Histogram of cluster coverages: `hist[c]` = number of clusters with
    /// coverage exactly `c`.
    pub fn coverage_histogram(&self) -> Vec<usize> {
        let max = self
            .clusters
            .iter()
            .map(Cluster::coverage)
            .max()
            .unwrap_or(0);
        let mut hist = vec![0usize; max + 1];
        for c in &self.clusters {
            hist[c.coverage()] += 1;
        }
        hist
    }

    /// The per-cluster coverages, in cluster order. Useful for resimulating
    /// with *custom coverage* equal to a real dataset's (Table 2.1 protocol).
    pub fn coverages(&self) -> Vec<usize> {
        self.clusters.iter().map(Cluster::coverage).collect()
    }

    /// The reference strands, in cluster order.
    pub fn references(&self) -> Vec<Strand> {
        self.clusters
            .iter()
            .map(|c| c.reference().clone())
            .collect()
    }

    /// Length of the reference strands, or `None` for an empty dataset.
    /// (All evaluation datasets in the paper use a fixed design length.)
    pub fn strand_len(&self) -> Option<usize> {
        self.clusters.first().map(|c| c.reference().len())
    }

    /// Returns a dataset where every cluster keeps only its first `n` reads
    /// (the fixed-coverage protocol of §3.2).
    pub fn with_coverage(&self, n: usize) -> Dataset {
        Dataset {
            clusters: self.clusters.iter().map(|c| c.with_coverage(n)).collect(),
        }
    }

    /// Returns a dataset restricted to clusters with coverage ≥ `min`.
    ///
    /// The §3.2 protocol discards clusters below a minimum coverage (1,006
    /// of the 10,000 Nanopore clusters at min = 10) before sweeping coverage.
    pub fn filter_min_coverage(&self, min: usize) -> Dataset {
        Dataset {
            clusters: self
                .clusters
                .iter()
                .filter(|c| c.coverage() >= min)
                .cloned()
                .collect(),
        }
    }

    /// Flattens the dataset into an unordered pool of reads, losing cluster
    /// identity — the shape a real sequencing read-out has before
    /// clustering.
    pub fn into_read_pool<R: Rng + ?Sized>(self, rng: &mut R) -> Vec<Strand> {
        let mut pool: Vec<Strand> = self
            .clusters
            .into_iter()
            .flat_map(|c| c.into_parts().1)
            .collect();
        pool.shuffle(rng);
        pool
    }
}

impl FromIterator<Cluster> for Dataset {
    fn from_iter<I: IntoIterator<Item = Cluster>>(iter: I) -> Dataset {
        Dataset {
            clusters: iter.into_iter().collect(),
        }
    }
}

impl Extend<Cluster> for Dataset {
    fn extend<I: IntoIterator<Item = Cluster>>(&mut self, iter: I) {
        self.clusters.extend(iter);
    }
}

impl IntoIterator for Dataset {
    type Item = Cluster;
    type IntoIter = std::vec::IntoIter<Cluster>;

    fn into_iter(self) -> Self::IntoIter {
        self.clusters.into_iter()
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Cluster;
    type IntoIter = std::slice::Iter<'a, Cluster>;

    fn into_iter(self) -> Self::IntoIter {
        self.clusters.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    fn sample() -> Dataset {
        let mut ds = Dataset::new();
        ds.push(Cluster::new(
            "ACGT".parse().unwrap(),
            vec!["ACGT".parse().unwrap(), "ACG".parse().unwrap()],
        ));
        ds.push(Cluster::new(
            "TTTT".parse().unwrap(),
            vec![
                "TTT".parse().unwrap(),
                "TTTT".parse().unwrap(),
                "TTTTT".parse().unwrap(),
            ],
        ));
        ds.push(Cluster::erasure("GGGG".parse().unwrap()));
        ds
    }

    #[test]
    fn summary_statistics() {
        let ds = sample();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.total_reads(), 5);
        assert!((ds.mean_coverage() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(ds.erasure_count(), 1);
        assert_eq!(ds.coverage_range(), Some((0, 3)));
        assert_eq!(ds.strand_len(), Some(4));
    }

    #[test]
    fn empty_dataset_statistics() {
        let ds = Dataset::new();
        assert!(ds.is_empty());
        assert_eq!(ds.mean_coverage(), 0.0);
        assert_eq!(ds.coverage_range(), None);
        assert_eq!(ds.strand_len(), None);
        assert_eq!(ds.coverage_histogram(), vec![0]);
    }

    #[test]
    fn coverage_histogram_counts() {
        let hist = sample().coverage_histogram();
        assert_eq!(hist, vec![1, 0, 1, 1]);
    }

    #[test]
    fn with_coverage_truncates_all() {
        let ds = sample().with_coverage(1);
        assert_eq!(ds.coverages(), vec![1, 1, 0]);
    }

    #[test]
    fn filter_min_coverage_drops_small_clusters() {
        let ds = sample().filter_min_coverage(2);
        assert_eq!(ds.len(), 2);
        assert!(ds.iter().all(|c| c.coverage() >= 2));
    }

    #[test]
    fn read_pool_has_all_reads() {
        let ds = sample();
        let total = ds.total_reads();
        let mut rng = seeded(11);
        let pool = ds.into_read_pool(&mut rng);
        assert_eq!(pool.len(), total);
    }

    #[test]
    fn from_iterator_collects() {
        let ds: Dataset = sample().into_iter().collect();
        assert_eq!(ds.len(), 3);
    }

    #[test]
    fn coverages_in_cluster_order() {
        assert_eq!(sample().coverages(), vec![2, 3, 0]);
    }
}
