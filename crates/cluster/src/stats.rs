//! Per-run counters for the clustering hot path.
//!
//! The multi-pattern kernel tier and the q-gram error-ball prefilter are
//! pure throughput optimisations — they must never change a cluster — so
//! their effect is only observable through counters: how many candidate
//! comparisons the signature stage proposed, how many the error-ball
//! bound discharged without a kernel, and how densely the survivors were
//! packed into multi-pattern banks.
//!
//! Every clustering entry point returns its pass's [`ClusterStats`] by
//! value: [`GreedyClusterer::cluster`](crate::GreedyClusterer::cluster)
//! and its reference-matching sibling alongside their groups,
//! [`StreamingClusterer::finish`](crate::StreamingClusterer::finish) at
//! the end of a stream. Nothing is accumulated process-wide; the CLI's
//! `cluster kernel:` line prints the counters the archive round trip
//! hands back.

/// Counters from one clustering pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Reads processed by the assignment pass.
    pub reads: usize,
    /// Candidate comparisons proposed by the signature/bucket stage
    /// (before the error-ball prefilter).
    pub candidates: usize,
    /// Candidates discharged by the q-gram lower bound — comparisons
    /// that provably could not land within the threshold, so no kernel
    /// ran for them.
    pub pruned: usize,
    /// Edit-distance kernel invocations (a multi-pattern bank scan
    /// counts once).
    pub kernel_calls: usize,
    /// Pattern lanes evaluated across all kernel invocations; divided by
    /// [`kernel_calls`](ClusterStats::kernel_calls) this is the mean
    /// bank occupancy.
    pub kernel_lanes: usize,
}

impl ClusterStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &ClusterStats) {
        self.reads += other.reads;
        self.candidates += other.candidates;
        self.pruned += other.pruned;
        self.kernel_calls += other.kernel_calls;
        self.kernel_lanes += other.kernel_lanes;
    }

    /// Fraction of proposed candidates discharged by the error-ball
    /// prefilter (0 when nothing was proposed).
    pub fn pruned_share(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned as f64 / self.candidates as f64
        }
    }

    /// Mean pattern lanes per kernel invocation (0 when no kernel ran).
    pub fn lanes_per_call(&self) -> f64 {
        if self.kernel_calls == 0 {
            0.0
        } else {
            self.kernel_lanes as f64 / self.kernel_calls as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = ClusterStats {
            reads: 1,
            candidates: 2,
            pruned: 1,
            kernel_calls: 1,
            kernel_lanes: 1,
        };
        let b = ClusterStats {
            reads: 10,
            candidates: 20,
            pruned: 5,
            kernel_calls: 3,
            kernel_lanes: 15,
        };
        a.merge(&b);
        assert_eq!(a.reads, 11);
        assert_eq!(a.candidates, 22);
        assert_eq!(a.pruned, 6);
        assert_eq!(a.kernel_calls, 4);
        assert_eq!(a.kernel_lanes, 16);
    }

    #[test]
    fn ratios_handle_empty_runs() {
        let empty = ClusterStats::default();
        assert_eq!(empty.pruned_share(), 0.0);
        assert_eq!(empty.lanes_per_call(), 0.0);
        let s = ClusterStats {
            reads: 4,
            candidates: 10,
            pruned: 4,
            kernel_calls: 2,
            kernel_lanes: 6,
        };
        assert!((s.pruned_share() - 0.4).abs() < 1e-12);
        assert!((s.lanes_per_call() - 3.0).abs() < 1e-12);
    }
}
