//! Cross-strand XOR parity — the erasure-recovery scheme of Bornholt et
//! al.'s DNA archival store.
//!
//! Whole strands are lost when PCR fails, coverage is too low, or
//! clustering misassigns every copy. Within-strand Reed–Solomon cannot help
//! then; instead, every group of `k` payloads gains one XOR parity strand,
//! and any *single* missing payload in a group is recoverable from the
//! survivors.

use std::fmt;

/// XOR parity over groups of `k` equal-length payloads.
///
/// # Examples
///
/// ```
/// use dnasim_codec::XorParity;
///
/// let parity = XorParity::new(2);
/// let payloads = vec![vec![1u8, 2], vec![3, 4], vec![5, 6]];
/// let protected = parity.protect(&payloads);
/// assert_eq!(protected.len(), 5); // 3 payloads + 2 parity strands
///
/// // Lose one payload of the first group, recover it.
/// let mut received: Vec<Option<Vec<u8>>> = protected.into_iter().map(Some).collect();
/// received[0] = None;
/// let recovered = parity.recover(&mut received)?;
/// assert_eq!(recovered, 1);
/// assert_eq!(received[0].as_deref(), Some(&[1u8, 2][..]));
/// # Ok::<(), dnasim_codec::ParityError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorParity {
    group_size: usize,
}

/// Errors from parity protection/recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParityError {
    /// Payloads in one group have different lengths.
    UnequalLengths,
    /// A group lost more strands than parity can recover.
    TooManyMissing {
        /// Index of the unrecoverable group.
        group: usize,
        /// Number of missing strands in it.
        missing: usize,
    },
}

impl fmt::Display for ParityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParityError::UnequalLengths => f.write_str("payloads in a group differ in length"),
            ParityError::TooManyMissing { group, missing } => {
                write!(f, "group {group} lost {missing} strands; XOR parity recovers at most 1")
            }
        }
    }
}

impl std::error::Error for ParityError {}

/// Result of a lenient (best-effort) recovery pass.
///
/// Lenient recovery never fails: groups whose losses exceed the code's
/// budget are recorded here instead of aborting the pass, and every other
/// group is still recovered. Callers decide whether partial recovery is
/// acceptable — the archival pipeline hands this to its degradation
/// budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Strands rebuilt in place.
    pub recovered: usize,
    /// Groups left unrecovered, as `(group index, strands missing)`.
    pub failed_groups: Vec<(usize, usize)>,
    /// Strand slots still `None` after the pass.
    pub still_missing: usize,
}

impl XorParity {
    /// Creates a parity scheme over groups of `group_size` payloads.
    ///
    /// # Panics
    ///
    /// Panics if `group_size == 0`.
    pub fn new(group_size: usize) -> XorParity {
        assert!(group_size > 0, "group size must be positive");
        XorParity { group_size }
    }

    /// The number of payloads per parity group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Appends one parity strand per group of `group_size` payloads.
    /// The layout is `[payload…, parity_g0, parity_g1, …]`; a final partial
    /// group still gets a parity strand.
    pub fn protect(&self, payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = payloads.to_vec();
        for group in payloads.chunks(self.group_size) {
            let len = group.iter().map(Vec::len).max().unwrap_or(0);
            let mut parity = vec![0u8; len];
            for payload in group {
                for (p, &b) in parity.iter_mut().zip(payload) {
                    *p ^= b;
                }
            }
            out.push(parity);
        }
        out
    }

    /// Number of strands [`protect`](XorParity::protect) produces for
    /// `payload_count` payloads.
    pub fn protected_len(&self, payload_count: usize) -> usize {
        payload_count + payload_count.div_ceil(self.group_size)
    }

    /// Recovers missing strands in place. `received` must follow the
    /// [`protect`](XorParity::protect) layout with `None` marking erasures.
    /// Returns the number of strands recovered.
    ///
    /// # Errors
    ///
    /// [`ParityError::TooManyMissing`] if any group lost two or more
    /// strands (payloads or its parity).
    pub fn recover(&self, received: &mut [Option<Vec<u8>>]) -> Result<usize, ParityError> {
        let outcome = self.recover_lenient(received);
        match outcome.failed_groups.first() {
            None => Ok(outcome.recovered),
            Some(&(group, missing)) => Err(ParityError::TooManyMissing { group, missing }),
        }
    }

    /// Best-effort variant of [`recover`](XorParity::recover): groups whose
    /// losses exceed the single-strand budget are reported in the
    /// [`RecoveryOutcome`] instead of aborting, and every recoverable group
    /// is still rebuilt.
    pub fn recover_lenient(&self, received: &mut [Option<Vec<u8>>]) -> RecoveryOutcome {
        // Invert protected_len: find the payload count p with
        // p + ceil(p / group_size) == received.len().
        let total = received.len();
        let mut payload_count = total * self.group_size / (self.group_size + 1);
        while payload_count + payload_count.div_ceil(self.group_size) < total {
            payload_count += 1;
        }
        let group_count = payload_count.div_ceil(self.group_size);
        debug_assert_eq!(payload_count + group_count, total, "layout mismatch");
        let mut recovered = 0usize;
        let mut failed_groups = Vec::new();
        for g in 0..group_count {
            let start = g * self.group_size;
            let end = ((g + 1) * self.group_size).min(payload_count);
            let parity_idx = payload_count + g;
            let mut missing: Vec<usize> = (start..end)
                .chain([parity_idx])
                .filter(|&i| received[i].is_none())
                .collect();
            match (missing.len(), missing.pop()) {
                (0, _) => {}
                (1, Some(hole)) => {
                    let len = (start..end)
                        .chain([parity_idx])
                        .filter_map(|i| received[i].as_ref().map(Vec::len))
                        .max()
                        .unwrap_or(0);
                    let mut rebuilt = vec![0u8; len];
                    for i in (start..end).chain([parity_idx]) {
                        if i == hole {
                            continue;
                        }
                        if let Some(payload) = &received[i] {
                            for (r, &b) in rebuilt.iter_mut().zip(payload) {
                                *r ^= b;
                            }
                        }
                    }
                    received[hole] = Some(rebuilt);
                    recovered += 1;
                }
                (n, _) => failed_groups.push((g, n)),
            }
        }
        let still_missing = received.iter().filter(|slot| slot.is_none()).count();
        RecoveryOutcome {
            recovered,
            failed_groups,
            still_missing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| (0..len).map(|j| (i * 31 + j) as u8).collect())
            .collect()
    }

    #[test]
    fn protect_appends_parity_per_group() {
        let parity = XorParity::new(4);
        let p = payloads(8, 10);
        let protected = parity.protect(&p);
        assert_eq!(protected.len(), 10);
        assert_eq!(parity.protected_len(8), 10);
        // Parity of group 0 is the XOR of its payloads.
        let mut expected = vec![0u8; 10];
        for payload in &p[..4] {
            for (e, &b) in expected.iter_mut().zip(payload) {
                *e ^= b;
            }
        }
        assert_eq!(protected[8], expected);
    }

    #[test]
    fn recover_single_loss_per_group() {
        let parity = XorParity::new(3);
        let p = payloads(6, 8);
        let protected = parity.protect(&p);
        let mut received: Vec<Option<Vec<u8>>> = protected.into_iter().map(Some).collect();
        received[1] = None; // group 0 payload
        received[5] = None; // group 1 payload
        let recovered = parity.recover(&mut received).unwrap();
        assert_eq!(recovered, 2);
        assert_eq!(received[1].as_deref(), Some(&p[1][..]));
        assert_eq!(received[5].as_deref(), Some(&p[5][..]));
    }

    #[test]
    fn recover_lost_parity_strand() {
        let parity = XorParity::new(2);
        let p = payloads(4, 5);
        let protected = parity.protect(&p);
        let expected_parity = protected[4].clone();
        let mut received: Vec<Option<Vec<u8>>> = protected.into_iter().map(Some).collect();
        received[4] = None; // the first parity strand itself
        assert_eq!(parity.recover(&mut received).unwrap(), 1);
        assert_eq!(received[4].as_deref(), Some(&expected_parity[..]));
    }

    #[test]
    fn double_loss_in_group_is_unrecoverable() {
        let parity = XorParity::new(4);
        let protected = parity.protect(&payloads(4, 6));
        let mut received: Vec<Option<Vec<u8>>> = protected.into_iter().map(Some).collect();
        received[0] = None;
        received[1] = None;
        assert_eq!(
            parity.recover(&mut received),
            Err(ParityError::TooManyMissing { group: 0, missing: 2 })
        );
    }

    #[test]
    fn partial_final_group_works() {
        let parity = XorParity::new(4);
        let p = payloads(6, 3); // groups of 4 + 2
        let protected = parity.protect(&p);
        assert_eq!(protected.len(), 8);
        let mut received: Vec<Option<Vec<u8>>> = protected.into_iter().map(Some).collect();
        received[5] = None; // in the partial group
        assert_eq!(parity.recover(&mut received).unwrap(), 1);
        assert_eq!(received[5].as_deref(), Some(&p[5][..]));
    }

    #[test]
    fn nothing_missing_recovers_zero() {
        let parity = XorParity::new(2);
        let protected = parity.protect(&payloads(4, 4));
        let mut received: Vec<Option<Vec<u8>>> = protected.into_iter().map(Some).collect();
        assert_eq!(parity.recover(&mut received).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "group size must be positive")]
    fn zero_group_size_panics() {
        let _ = XorParity::new(0);
    }

    #[test]
    fn lenient_recovers_surviving_groups_and_reports_failures() {
        let parity = XorParity::new(2);
        let p = payloads(4, 6); // two groups of 2
        let protected = parity.protect(&p);
        let mut received: Vec<Option<Vec<u8>>> = protected.into_iter().map(Some).collect();
        received[0] = None;
        received[1] = None; // group 0: both payloads lost, over budget
        received[2] = None; // group 1: one payload lost, recoverable
        let outcome = parity.recover_lenient(&mut received);
        assert_eq!(outcome.recovered, 1);
        assert_eq!(outcome.failed_groups, vec![(0, 2)]);
        assert_eq!(outcome.still_missing, 2);
        assert_ne!(outcome.still_missing, 0);
        assert_eq!(received[2].as_deref(), Some(&p[2][..]));
        assert!(received[0].is_none());
    }

    #[test]
    fn lenient_with_nothing_lost_is_complete() {
        let parity = XorParity::new(3);
        let protected = parity.protect(&payloads(6, 4));
        let mut received: Vec<Option<Vec<u8>>> = protected.into_iter().map(Some).collect();
        let outcome = parity.recover_lenient(&mut received);
        assert_eq!(outcome.recovered, 0);
        assert!(outcome.failed_groups.is_empty());
        assert_eq!(outcome.still_missing, 0);
    }
}
