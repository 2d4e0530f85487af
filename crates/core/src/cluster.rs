//! Clusters: a reference strand together with its noisy copies.

use crate::strand::Strand;

/// A reference strand paired with the noisy reads that sequenced from it.
///
/// Under perfect (pseudo-)clustering, the simulator's ordered output is
/// taken as already clustered; under imperfect clustering, reads are
/// assigned by a clustering algorithm and may be wrong. Either way, a
/// `Cluster` is the unit a trace-reconstruction algorithm consumes.
///
/// # Examples
///
/// ```
/// use dnasim_core::{Cluster, Strand};
///
/// let reference: Strand = "ACGT".parse()?;
/// let cluster = Cluster::new(reference, vec!["ACG".parse()?, "ACGT".parse()?]);
/// assert_eq!(cluster.coverage(), 2);
/// assert!(!cluster.is_erasure());
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cluster {
    reference: Strand,
    reads: Vec<Strand>,
}

impl Cluster {
    /// Creates a cluster from a reference strand and its noisy reads.
    pub fn new(reference: Strand, reads: Vec<Strand>) -> Cluster {
        Cluster { reference, reads }
    }

    /// Creates an erasure: a cluster for which no read was recovered.
    ///
    /// ```
    /// use dnasim_core::{Cluster, Strand};
    /// let c = Cluster::erasure("ACGT".parse().unwrap());
    /// assert!(c.is_erasure());
    /// ```
    pub fn erasure(reference: Strand) -> Cluster {
        Cluster {
            reference,
            reads: Vec::new(),
        }
    }

    /// The designed reference strand.
    pub fn reference(&self) -> &Strand {
        &self.reference
    }

    /// The noisy reads belonging to this cluster.
    pub fn reads(&self) -> &[Strand] {
        &self.reads
    }

    /// The sequencing coverage of this cluster (number of noisy reads).
    pub fn coverage(&self) -> usize {
        self.reads.len()
    }

    /// Whether the cluster is an erasure (zero reads recovered).
    pub fn is_erasure(&self) -> bool {
        self.reads.is_empty()
    }

    /// Adds one read to the cluster.
    pub fn push_read(&mut self, read: Strand) {
        self.reads.push(read);
    }

    /// Returns a cluster keeping only the first `n` reads.
    ///
    /// This implements the fixed-coverage protocol of §3.2: when comparing
    /// coverage `i` with coverage `i+1`, the first `i` reads are identical,
    /// so only the marginal read differs.
    ///
    /// ```
    /// use dnasim_core::{Cluster, Strand};
    /// let c = Cluster::new(
    ///     "AC".parse().unwrap(),
    ///     vec!["AC".parse().unwrap(), "A".parse().unwrap(), "C".parse().unwrap()],
    /// );
    /// assert_eq!(c.with_coverage(2).coverage(), 2);
    /// assert_eq!(c.with_coverage(9).coverage(), 3);
    /// ```
    pub fn with_coverage(&self, n: usize) -> Cluster {
        Cluster {
            reference: self.reference.clone(),
            reads: self.reads.iter().take(n).cloned().collect(),
        }
    }

    /// Decomposes the cluster into its reference and reads.
    pub fn into_parts(self) -> (Strand, Vec<Strand>) {
        (self.reference, self.reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cluster {
        Cluster::new(
            "ACGT".parse().unwrap(),
            vec![
                "ACGT".parse().unwrap(),
                "ACG".parse().unwrap(),
                "TACGT".parse().unwrap(),
            ],
        )
    }

    #[test]
    fn coverage_counts_reads() {
        assert_eq!(sample().coverage(), 3);
    }

    #[test]
    fn erasure_has_no_reads() {
        let c = Cluster::erasure("AC".parse().unwrap());
        assert!(c.is_erasure());
        assert_eq!(c.coverage(), 0);
        assert_eq!(c.reference().to_string(), "AC");
    }

    #[test]
    fn with_coverage_takes_prefix() {
        let c = sample();
        let c2 = c.with_coverage(2);
        assert_eq!(c2.reads(), &c.reads()[..2]);
        // Requesting more than available keeps everything.
        assert_eq!(c.with_coverage(10).coverage(), 3);
        // Zero coverage produces an erasure.
        assert!(c.with_coverage(0).is_erasure());
    }

    #[test]
    fn push_read_appends() {
        let mut c = Cluster::erasure("AC".parse().unwrap());
        c.push_read("A".parse().unwrap());
        assert_eq!(c.coverage(), 1);
        assert!(!c.is_erasure());
    }

    #[test]
    fn into_parts_round_trip() {
        let c = sample();
        let (reference, reads) = c.clone().into_parts();
        assert_eq!(Cluster::new(reference, reads), c);
    }
}
