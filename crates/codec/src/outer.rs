//! Outer Reed–Solomon erasure coding **across strands**.
//!
//! XOR parity recovers one lost strand per group; real archival systems
//! (Grass et al.) stripe an RS code across strands instead, recovering up
//! to `n − k` losses per group of `n`. Byte `i` of every strand in a group
//! forms one RS codeword column: losing whole strands erases the same
//! known positions of every column, which is exactly the erasure channel
//! RS decodes at full parity budget.

use std::fmt;

use crate::redundancy::RecoveryOutcome;
use crate::rs::{ReedSolomon, RsError};

/// An outer `RS(n, k)` code over groups of `k` equal-length payloads.
///
/// # Examples
///
/// ```
/// use dnasim_codec::OuterRsCode;
///
/// let outer = OuterRsCode::new(6, 4)?; // tolerates 2 lost strands per group
/// let payloads: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 8]).collect();
/// let protected = outer.protect(&payloads);
/// assert_eq!(protected.len(), 6);
///
/// let mut received: Vec<Option<Vec<u8>>> = protected.into_iter().map(Some).collect();
/// received[1] = None;
/// received[3] = None; // two losses in one group
/// let recovered = outer.recover(&mut received)?;
/// assert_eq!(recovered, 2);
/// assert_eq!(received[1].as_deref(), Some(&[1u8; 8][..]));
/// # Ok::<(), dnasim_codec::OuterCodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OuterRsCode {
    rs: ReedSolomon,
}

/// Errors from outer-code protection/recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OuterCodeError {
    /// Invalid `(n, k)` parameters.
    InvalidParameters(RsError),
    /// A group lost more strands than `n − k`.
    TooManyMissing {
        /// Index of the unrecoverable group.
        group: usize,
        /// Strands missing in it.
        missing: usize,
    },
}

impl fmt::Display for OuterCodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OuterCodeError::InvalidParameters(e) => write!(f, "invalid outer code: {e}"),
            OuterCodeError::TooManyMissing { group, missing } => {
                write!(f, "group {group} lost {missing} strands, beyond the parity budget")
            }
        }
    }
}

impl std::error::Error for OuterCodeError {}

impl OuterRsCode {
    /// Creates an outer code with `n` total strands per group carrying `k`
    /// payload strands.
    ///
    /// # Errors
    ///
    /// [`OuterCodeError::InvalidParameters`] unless `0 < k < n ≤ 255`.
    pub fn new(n: usize, k: usize) -> Result<OuterRsCode, OuterCodeError> {
        Ok(OuterRsCode {
            rs: ReedSolomon::new(n, k).map_err(OuterCodeError::InvalidParameters)?,
        })
    }

    /// Payload strands per group.
    pub fn group_payload(&self) -> usize {
        self.rs.data_len()
    }

    /// Total strands per group (payload + parity).
    pub fn group_total(&self) -> usize {
        self.rs.codeword_len()
    }

    /// Maximum recoverable losses per group.
    pub fn loss_budget(&self) -> usize {
        self.rs.codeword_len() - self.rs.data_len()
    }

    /// Number of strands [`protect`](OuterRsCode::protect) produces for
    /// `payload_count` payloads.
    pub fn protected_len(&self, payload_count: usize) -> usize {
        let k = self.group_payload();
        let groups = payload_count.div_ceil(k);
        payload_count + groups * self.loss_budget()
    }

    /// Appends `n − k` parity strands per group of `k` payloads (a final
    /// partial group is implicitly zero-padded to `k`). Layout:
    /// `[payload…, parity_g0…, parity_g1…, …]`.
    pub fn protect(&self, payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let k = self.group_payload();
        let parity_per_group = self.loss_budget();
        let mut out: Vec<Vec<u8>> = payloads.to_vec();
        for group in payloads.chunks(k) {
            let len = group.iter().map(Vec::len).max().unwrap_or(0);
            let mut parity = vec![vec![0u8; len]; parity_per_group];
            // Column-wise RS over byte position `col`.
            let mut column = vec![0u8; k];
            for col in 0..len {
                for (row, payload) in group.iter().enumerate() {
                    column[row] = payload.get(col).copied().unwrap_or(0);
                }
                column[group.len()..].iter_mut().for_each(|c| *c = 0);
                let codeword = self.rs.encode(&column);
                for (p, &byte) in parity.iter_mut().zip(&codeword[k..]) {
                    p[col] = byte;
                }
            }
            out.append(&mut parity);
        }
        out
    }

    /// Recovers missing strands in place; `received` must follow the
    /// [`protect`](OuterRsCode::protect) layout with `None` for losses.
    /// Returns the number of strands rebuilt.
    ///
    /// # Errors
    ///
    /// [`OuterCodeError::TooManyMissing`] if any group lost more than
    /// `n − k` strands.
    pub fn recover(&self, received: &mut [Option<Vec<u8>>]) -> Result<usize, OuterCodeError> {
        let outcome = self.recover_lenient(received);
        match outcome.failed_groups.first() {
            None => Ok(outcome.recovered),
            Some(&(group, missing)) => Err(OuterCodeError::TooManyMissing { group, missing }),
        }
    }

    /// Best-effort variant of [`recover`](OuterRsCode::recover): a group
    /// whose losses exceed `n − k` is reported in the [`RecoveryOutcome`]
    /// instead of aborting, and every recoverable group is still rebuilt.
    pub fn recover_lenient(&self, received: &mut [Option<Vec<u8>>]) -> RecoveryOutcome {
        let k = self.group_payload();
        let parity_per_group = self.loss_budget();
        // Invert protected_len: find p with p + ceil(p/k)·(n−k) ==
        // received.len(). The ratio-based guess can overshoot when the
        // final group is partial (its parity is full-size), so start from a
        // safe lower bound and walk up.
        let total = received.len();
        let mut payload_count = (total * k / self.group_total()).saturating_sub(parity_per_group);
        while payload_count + payload_count.div_ceil(k) * parity_per_group < total {
            payload_count += 1;
        }
        debug_assert_eq!(
            payload_count + payload_count.div_ceil(k) * parity_per_group,
            total,
            "received slice does not match the protect() layout"
        );
        let group_count = payload_count.div_ceil(k);
        let mut recovered = 0usize;
        let mut failed_groups = Vec::new();

        'groups: for g in 0..group_count {
            let payload_range = (g * k)..((g + 1) * k).min(payload_count);
            let parity_range =
                (payload_count + g * parity_per_group)..(payload_count + (g + 1) * parity_per_group);
            // Codeword rows: k payload slots (zero-padded virtual rows for a
            // partial final group count as *present* zeros) + parity rows.
            let group_width = payload_range.len();
            let missing: Vec<usize> = payload_range
                .clone()
                .chain(parity_range.clone())
                .enumerate()
                .filter_map(|(row_in_cw, idx)| {
                    received[idx].is_none().then_some(if row_in_cw < group_width {
                        row_in_cw
                    } else {
                        // Parity rows sit after the *full* k payload rows.
                        k + (row_in_cw - group_width)
                    })
                })
                .collect();
            if missing.is_empty() {
                continue;
            }
            if missing.len() > parity_per_group {
                failed_groups.push((g, missing.len()));
                continue;
            }
            let len = payload_range
                .clone()
                .chain(parity_range.clone())
                .filter_map(|idx| received[idx].as_ref().map(Vec::len))
                .max()
                .unwrap_or(0);
            let mut rebuilt: Vec<Vec<u8>> = vec![vec![0u8; len]; missing.len()];
            let mut codeword = vec![0u8; self.group_total()];
            for col in 0..len {
                codeword.iter_mut().for_each(|c| *c = 0);
                for (row_in_cw, idx) in payload_range.clone().enumerate() {
                    if let Some(payload) = &received[idx] {
                        codeword[row_in_cw] = payload.get(col).copied().unwrap_or(0);
                    }
                }
                for (p, idx) in parity_range.clone().enumerate() {
                    if let Some(payload) = &received[idx] {
                        codeword[k + p] = payload.get(col).copied().unwrap_or(0);
                    }
                }
                let data = match self.rs.decode_erasures(&mut codeword, &missing) {
                    Ok(data) => data,
                    Err(_) => {
                        failed_groups.push((g, missing.len()));
                        continue 'groups;
                    }
                };
                let full = {
                    let mut cw = data.to_vec();
                    cw.extend_from_slice(&codeword[k..]);
                    cw
                };
                for (slot, &cw_row) in rebuilt.iter_mut().zip(&missing) {
                    slot[col] = full[cw_row];
                }
            }
            // Write the rebuilt strands back.
            let mut rebuilt_iter = rebuilt.into_iter();
            for (row_in_cw, idx) in payload_range
                .clone()
                .chain(parity_range.clone())
                .enumerate()
            {
                let cw_row = if row_in_cw < group_width {
                    row_in_cw
                } else {
                    k + (row_in_cw - group_width)
                };
                if missing.contains(&cw_row) && received[idx].is_none() {
                    received[idx] = rebuilt_iter.next();
                    recovered += 1;
                }
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
            .map(|i| (0..len).map(|j| (i * 37 + j * 11) as u8).collect())
            .collect()
    }

    #[test]
    fn protect_layout_and_lengths() {
        let outer = OuterRsCode::new(6, 4).unwrap();
        let p = payloads(8, 10);
        let protected = outer.protect(&p);
        assert_eq!(protected.len(), outer.protected_len(8));
        assert_eq!(protected.len(), 12); // 8 payloads + 2 groups × 2 parity
        assert_eq!(&protected[..8], &p[..]); // systematic
        assert!(protected[8..].iter().all(|s| s.len() == 10));
    }

    #[test]
    fn recovers_loss_budget_per_group() {
        let outer = OuterRsCode::new(6, 4).unwrap();
        let p = payloads(8, 16);
        let protected = outer.protect(&p);
        let mut received: Vec<Option<Vec<u8>>> = protected.into_iter().map(Some).collect();
        // Two losses in group 0 (payloads) and two in group 1 (one payload,
        // one parity).
        received[0] = None;
        received[2] = None;
        received[5] = None;
        received[11] = None;
        let recovered = outer.recover(&mut received).unwrap();
        assert_eq!(recovered, 4);
        assert_eq!(received[0].as_deref(), Some(&p[0][..]));
        assert_eq!(received[2].as_deref(), Some(&p[2][..]));
        assert_eq!(received[5].as_deref(), Some(&p[5][..]));
    }

    #[test]
    fn beyond_budget_is_rejected() {
        let outer = OuterRsCode::new(6, 4).unwrap();
        let protected = outer.protect(&payloads(4, 8));
        let mut received: Vec<Option<Vec<u8>>> = protected.into_iter().map(Some).collect();
        received[0] = None;
        received[1] = None;
        received[2] = None; // 3 > n − k = 2
        assert_eq!(
            outer.recover(&mut received),
            Err(OuterCodeError::TooManyMissing { group: 0, missing: 3 })
        );
    }

    #[test]
    fn partial_final_group_recovers() {
        let outer = OuterRsCode::new(6, 4).unwrap();
        let p = payloads(6, 12); // second group has only 2 payloads
        let protected = outer.protect(&p);
        assert_eq!(protected.len(), 10);
        let mut received: Vec<Option<Vec<u8>>> = protected.into_iter().map(Some).collect();
        received[4] = None;
        received[5] = None; // both payloads of the partial group
        let recovered = outer.recover(&mut received).unwrap();
        assert_eq!(recovered, 2);
        assert_eq!(received[4].as_deref(), Some(&p[4][..]));
        assert_eq!(received[5].as_deref(), Some(&p[5][..]));
    }

    #[test]
    fn nothing_missing_is_a_noop() {
        let outer = OuterRsCode::new(5, 3).unwrap();
        let protected = outer.protect(&payloads(3, 4));
        let mut received: Vec<Option<Vec<u8>>> = protected.into_iter().map(Some).collect();
        assert_eq!(outer.recover(&mut received).unwrap(), 0);
    }

    #[test]
    fn lenient_recovers_surviving_groups_and_reports_failures() {
        let outer = OuterRsCode::new(6, 4).unwrap();
        let p = payloads(8, 10); // two groups of 4, budget 2 each
        let protected = outer.protect(&p);
        let mut received: Vec<Option<Vec<u8>>> = protected.into_iter().map(Some).collect();
        received[0] = None;
        received[1] = None;
        received[2] = None; // group 0: 3 losses > budget 2
        received[5] = None; // group 1: 1 loss, recoverable
        let outcome = outer.recover_lenient(&mut received);
        assert_eq!(outcome.recovered, 1);
        assert_eq!(outcome.failed_groups, vec![(0, 3)]);
        assert_eq!(outcome.still_missing, 3);
        assert_ne!(outcome.still_missing, 0);
        assert_eq!(received[5].as_deref(), Some(&p[5][..]));
        assert!(received[0].is_none());
    }

    #[test]
    fn outperforms_xor_parity_on_double_loss() {
        use crate::redundancy::XorParity;
        // Same overhead: XOR(4) = 1 parity per 4; RS(5,4) = 1 parity per 4.
        // Double loss in one group: XOR fails, RS(6,4) at the same *total*
        // budget as XOR(2) succeeds.
        let p = payloads(4, 8);
        let xor = XorParity::new(4);
        let mut xor_received: Vec<Option<Vec<u8>>> =
            xor.protect(&p).into_iter().map(Some).collect();
        xor_received[0] = None;
        xor_received[1] = None;
        assert!(xor.recover(&mut xor_received).is_err());

        let outer = OuterRsCode::new(6, 4).unwrap();
        let mut rs_received: Vec<Option<Vec<u8>>> =
            outer.protect(&p).into_iter().map(Some).collect();
        rs_received[0] = None;
        rs_received[1] = None;
        assert_eq!(outer.recover(&mut rs_received).unwrap(), 2);
        assert_eq!(rs_received[0].as_deref(), Some(&p[0][..]));
    }

    #[test]
    fn partial_group_layout_inversion() {
        // 13 payloads, k = 4: the naive ratio guess infers 14 — regression
        // test for the inversion.
        let outer = OuterRsCode::new(6, 4).unwrap();
        let p = payloads(13, 8);
        let protected = outer.protect(&p);
        assert_eq!(protected.len(), 13 + 4 * 2);
        let mut received: Vec<Option<Vec<u8>>> = protected.into_iter().map(Some).collect();
        received[12] = None; // the lone payload of the final group
        assert_eq!(outer.recover(&mut received).unwrap(), 1);
        assert_eq!(received[12].as_deref(), Some(&p[12][..]));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(OuterRsCode::new(4, 4).is_err());
        assert!(OuterRsCode::new(4, 0).is_err());
    }
}
