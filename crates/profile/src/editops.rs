//! Recovering the most-likely error sequence from a (reference, read) pair
//! — the paper's Appendix B algorithm.
//!
//! The true sequence of channel errors is unobservable: several different
//! error sequences can map a reference to the same read. Following the
//! paper, we use the *minimum edit-distance operations* as a
//! maximum-likelihood proxy, and break ties between equal-cost operation
//! sequences **randomly** so that no error kind is systematically
//! over-counted (the deterministic alternative is kept for ablation).

use dnasim_core::rng::{Rng, RngExt};
use dnasim_core::{Base, EditOp, EditScript, Strand};
use dnasim_metrics::{myers, MyersScratch};

/// Tie-breaking policy when several minimal edit paths exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Choose uniformly at random among minimal predecessors (paper
    /// behaviour, `ChooseRandomAndInsertOp`).
    Random,
    /// Prefer substitution, then deletion, then insertion — a fixed order
    /// that biases the recovered statistics (used to ablate the effect of
    /// randomisation).
    PreferSubstitution,
}

/// Reusable buffers for [`edit_script_with`]: the banded DP matrix and the
/// Myers scratch that sizes its band.
///
/// Profiling a dataset or refining a consensus calls the DP once per read,
/// so hot loops allocate one scratch and thread it through every call. The
/// buffers only ever grow, to the largest band seen.
#[derive(Debug, Clone, Default)]
pub struct EditScratch {
    dp: Vec<u32>,
    myers: MyersScratch,
}

impl EditScratch {
    /// Creates an empty scratch; the buffers grow on first use.
    pub fn new() -> EditScratch {
        EditScratch::default()
    }
}

/// Computes a minimal [`EditScript`] transforming `reference` into `read`.
///
/// The returned script's [`error_count`](EditScript::error_count) equals
/// the Levenshtein distance between the two strands, and applying the
/// script to `reference` reproduces `read` exactly.
///
/// Allocates fresh buffers per call; loops over many reads should use
/// [`edit_script_with`] with a shared [`EditScratch`].
///
/// # Examples
///
/// ```
/// use dnasim_core::{rng::seeded, Strand};
/// use dnasim_profile::{edit_script, TieBreak};
///
/// let reference: Strand = "AGCG".parse()?;
/// let read: Strand = "AGG".parse()?;
/// let mut rng = seeded(1);
/// let script = edit_script(&reference, &read, TieBreak::Random, &mut rng);
/// assert_eq!(script.error_count(), 1);
/// assert_eq!(script.apply(&reference).unwrap(), read);
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
pub fn edit_script<R: Rng + ?Sized>(
    reference: &Strand,
    read: &Strand,
    tie_break: TieBreak,
    rng: &mut R,
) -> EditScript {
    edit_script_with(&mut EditScratch::new(), reference, read, tie_break, rng)
}

/// Off-band sentinel: larger than any distance, and `+ 1` cannot overflow.
const INF: u32 = u32::MAX / 2;

/// The diagonals `k = i − j` of the DP matrix that an optimal path can
/// visit, and the row layout that stores only their cells.
///
/// Let `d` be the distance and `δ = m − n`. A cell on an optimal path has
/// prefix cost `≥ |k|` and suffix cost `≥ |δ − k|`, and the two sum to
/// `d`, so `|k| + |δ − k| ≤ d`: the diagonals from `min(0, δ)` to
/// `max(0, δ)`, widened by `⌊(d − |δ|)/2⌋` on either side.
#[derive(Debug, Clone, Copy)]
struct Band {
    /// The band's largest diagonal: `k ≤ hi`.
    hi: usize,
    /// The band's smallest diagonal, negated: `k ≥ −reach`.
    reach: usize,
    /// The read length, which is the last column.
    n: usize,
    /// Slots per row: the widest row's cells plus at least one trailing
    /// [`INF`] slot, which the next row reads as its off-band `up`.
    stride: usize,
}

impl Band {
    fn new(m: usize, n: usize, distance: usize) -> Band {
        let slack = (distance - m.abs_diff(n)) / 2;
        let (hi, reach) = (m.saturating_sub(n) + slack, n.saturating_sub(m) + slack);
        // A row never holds more than every column, so a long reference
        // against a short read costs no more than the full matrix.
        let width = (hi + reach + 1).min(n + 1);
        Band {
            hi,
            reach,
            n,
            stride: width + 1,
        }
    }

    /// The first column of row `i` inside the band.
    fn first(self, i: usize) -> usize {
        i.saturating_sub(self.hi)
    }

    /// The last column of row `i` inside the band.
    fn last(self, i: usize) -> usize {
        (i + self.reach).min(self.n)
    }

    /// The value of cell `(i, j)` (with `j ≤ n`), or [`INF`] off the band.
    fn get(self, dp: &[u32], i: usize, j: usize) -> u32 {
        if j < self.first(i) || j > i + self.reach {
            return INF;
        }
        dp[i * self.stride + j - self.first(i)]
    }

    /// Fills the banded matrix for `a` (rows) against `b` (columns). Row
    /// `i` keeps columns `first(i)..=last(i)` from slot 0; both bounds
    /// grow by at most one per row, so the `diag` and `up` neighbours of a
    /// run of cells are a contiguous run of the row above.
    fn fill(self, dp: &mut Vec<u32>, a: &[Base], b: &[Base]) {
        let stride = self.stride;
        let size = (a.len() + 1) * stride;
        if dp.len() < size {
            dp.resize(size, INF);
        }
        let dp = &mut dp[..size];
        // Slots past each row's last column must read as off-band.
        dp.fill(INF);
        for (j, cell) in dp[..=self.last(0)].iter_mut().enumerate() {
            *cell = j as u32;
        }
        for (i, &ai) in (1..=a.len()).zip(a) {
            let (prev, row) = dp[(i - 1) * stride..(i + 1) * stride].split_at_mut(stride);
            let (first, last) = (self.first(i), self.last(i));
            // The left neighbour of the row's first cell is off the band,
            // unless that cell is column 0, whose value is `i`.
            let mut left = INF;
            let mut j = first;
            if j == 0 {
                left = i as u32;
                row[0] = left;
                j = 1;
            }
            if j > last {
                continue;
            }
            let cells = row[j - first..=last - first].iter_mut();
            let above = prev[j - 1 - self.first(i - 1)..=last - self.first(i - 1)].windows(2);
            for ((cell, above), &bj) in cells.zip(above).zip(&b[j - 1..last]) {
                let diag = above[0] + u32::from(ai != bj);
                left = diag.min(above[1] + 1).min(left + 1);
                *cell = left;
            }
        }
    }
}

/// [`edit_script`] with a caller-provided scratch — identical output, no
/// per-call allocation beyond the script once the scratch has grown.
///
/// The DP is *banded*: the exact distance `d` (Myers' bit-parallel kernel)
/// bounds the diagonals any optimal path can use (see `Band`), and only
/// those are filled — for an `m`-base reference and an `n`-base read,
/// `O(m · min(d, n))` cells instead of `O(m · n)`. The result is identical
/// to the full matrix's, tie-break draws included:
///
/// * every cell on an optimal path has all its optimal prefix paths
///   inside the band, so its banded value is exact;
/// * the traceback only visits such cells, and a predecessor is minimal
///   (`value + 1 == here`) exactly when it lies on an optimal path — so
///   it is in the band with its exact value;
/// * a non-minimal predecessor's banded value is at least its true value,
///   which is at least `here`, so it is rejected in the band as in the
///   full matrix.
///
/// The candidate sets and their order are therefore unchanged, and so is
/// every `random_range` draw. `crates/profile/tests/banded_differential.rs`
/// checks this against the full-matrix DP.
pub fn edit_script_with<R: Rng + ?Sized>(
    scratch: &mut EditScratch,
    reference: &Strand,
    read: &Strand,
    tie_break: TieBreak,
    rng: &mut R,
) -> EditScript {
    let a = reference.as_bases();
    let b = read.as_bases();
    let (m, n) = (a.len(), b.len());
    let band = Band::new(m, n, myers::distance_bases_with(&mut scratch.myers, a, b));
    band.fill(&mut scratch.dp, a, b);
    let dp = &scratch.dp;

    // Traceback from (m, n), collecting ops in reverse.
    let mut ops: Vec<EditOp> = Vec::with_capacity(m.max(n));
    let (mut i, mut j) = (m, n);
    // Reused candidate buffer for the ≤3 minimal predecessors at each cell.
    let mut candidates: [Option<EditOp>; 3] = [None; 3];
    while i > 0 || j > 0 {
        if i > 0 && j > 0 && a[i - 1] == b[j - 1] {
            // Matching characters always admit the zero-cost diagonal (the
            // paper's EQUAL branch is unconditional).
            ops.push(EditOp::Equal(a[i - 1]));
            i -= 1;
            j -= 1;
            continue;
        }
        let here = band.get(dp, i, j);
        let mut count = 0;
        if i > 0 && j > 0 && band.get(dp, i - 1, j - 1) + 1 == here {
            candidates[count] = Some(EditOp::Subst {
                orig: a[i - 1],
                new: b[j - 1],
            });
            count += 1;
        }
        if i > 0 && band.get(dp, i - 1, j) + 1 == here {
            candidates[count] = Some(EditOp::Delete(a[i - 1]));
            count += 1;
        }
        if j > 0 && band.get(dp, i, j - 1) + 1 == here {
            candidates[count] = Some(EditOp::Insert(b[j - 1]));
            count += 1;
        }
        debug_assert!(count > 0, "traceback stuck at ({i}, {j})");
        let pick = match tie_break {
            TieBreak::Random => rng.random_range(0..count),
            TieBreak::PreferSubstitution => 0,
        };
        let Some(op) = candidates.get(pick).copied().flatten() else {
            // A well-formed DP table always admits a predecessor; if the
            // invariant is ever violated, stop the traceback rather than
            // panic — the partial script is still a valid edit script.
            break;
        };
        match op {
            EditOp::Subst { .. } | EditOp::Equal(_) => {
                i = i.saturating_sub(1);
                j = j.saturating_sub(1);
            }
            EditOp::Delete(_) => i = i.saturating_sub(1),
            EditOp::Insert(_) => j = j.saturating_sub(1),
        }
        ops.push(op);
    }
    ops.reverse();
    EditScript::from_ops(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::seeded;

    fn s(text: &str) -> Strand {
        text.parse().unwrap()
    }

    #[test]
    fn identity_yields_all_equal() {
        let r = s("ACGTACGT");
        let mut rng = seeded(1);
        let script = edit_script(&r, &r.clone(), TieBreak::Random, &mut rng);
        assert_eq!(script.error_count(), 0);
        assert_eq!(script.len(), 8);
        assert_eq!(script.apply(&r).unwrap(), r);
    }

    #[test]
    fn paper_example_agcg_agg() {
        // Reference AGCG, read AGG: minimal script has exactly one error.
        let mut rng = seeded(2);
        let script = edit_script(&s("AGCG"), &s("AGG"), TieBreak::Random, &mut rng);
        assert_eq!(script.error_count(), 1);
        assert_eq!(script.apply(&s("AGCG")).unwrap(), s("AGG"));
    }

    #[test]
    fn script_applies_back_to_read() {
        let cases = [
            ("ACGT", "ACGT"),
            ("ACGT", ""),
            ("", "ACGT"),
            ("AGCG", "AGG"),
            ("AAAA", "TTTT"),
            ("GATTACA", "GCATGCT"),
            ("ACGTACGTACGT", "AGTACGGTACT"),
        ];
        let mut rng = seeded(3);
        for (a, b) in cases {
            let (a, b) = (s(a), s(b));
            for tb in [TieBreak::Random, TieBreak::PreferSubstitution] {
                let script = edit_script(&a, &b, tb, &mut rng);
                assert_eq!(script.apply(&a).unwrap(), b, "{a} -> {b}");
                assert_eq!(
                    script.error_count(),
                    dnasim_metrics::levenshtein(a.as_bases(), b.as_bases()),
                    "{a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn pure_insertions_and_deletions() {
        let mut rng = seeded(4);
        let script = edit_script(&s("ACGT"), &Strand::new(), TieBreak::Random, &mut rng);
        assert_eq!(script.error_kind_counts(), [0, 4, 0]);
        let script = edit_script(&Strand::new(), &s("AC"), TieBreak::Random, &mut rng);
        assert_eq!(script.error_kind_counts(), [0, 0, 2]);
    }

    #[test]
    fn deterministic_tiebreak_is_reproducible() {
        let a = s("ACGTACGT");
        let b = s("TGCATGCA");
        let mut r1 = seeded(7);
        let mut r2 = seeded(99); // different rng: deterministic mode must not consult it
        let s1 = edit_script(&a, &b, TieBreak::PreferSubstitution, &mut r1);
        let s2 = edit_script(&a, &b, TieBreak::PreferSubstitution, &mut r2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn random_tiebreak_is_seed_deterministic() {
        let a = s("ACGTAACGGT");
        let b = s("AGTACGT");
        let s1 = edit_script(&a, &b, TieBreak::Random, &mut seeded(5));
        let s2 = edit_script(&a, &b, TieBreak::Random, &mut seeded(5));
        assert_eq!(s1, s2);
    }

    #[test]
    fn random_tiebreak_explores_alternatives() {
        // AT -> TA admits three distinct minimal scripts (two substitutions,
        // or delete-then-insert in either order has cost 2 as well via
        // Subst+Subst vs Del+Ins combinations). Over many seeds the random
        // tie-break should produce more than one distinct script, while the
        // deterministic mode always produces the same one.
        let a = s("AT");
        let b = s("TA");
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64 {
            let script = edit_script(&a, &b, TieBreak::Random, &mut seeded(seed));
            assert_eq!(script.error_count(), 2);
            seen.insert(format!("{:?}", script.ops()));
        }
        assert!(
            seen.len() > 1,
            "random tie-break never varied the script: {seen:?}"
        );
    }

    #[test]
    fn long_deletion_recovered_as_run() {
        let a = s("ACGTTTTACG");
        let b = s("ACGACG"); // TTTT deleted
        let mut rng = seeded(8);
        let script = edit_script(&a, &b, TieBreak::Random, &mut rng);
        assert_eq!(script.error_count(), 4);
        assert_eq!(script.deletion_run_lengths(), vec![4]);
    }

    #[test]
    fn band_storage_never_exceeds_the_full_matrix() {
        // A long reference against a short read has a distance far above
        // the read length; the band's rows must still be clipped to it.
        let mut rng = seeded(10);
        let mut scratch = EditScratch::new();
        for (m, n) in [(3000, 10), (10, 3000), (500, 0), (110, 110)] {
            let a = Strand::random(m, &mut rng);
            let b = Strand::random(n, &mut rng);
            let script = edit_script_with(&mut scratch, &a, &b, TieBreak::Random, &mut rng);
            assert_eq!(script.apply(&a).unwrap(), b);
            assert!(scratch.dp.len() <= (m + 1) * (n + 2), "({m}, {n})");
            scratch = EditScratch::new();
        }
    }

    #[test]
    fn substitution_preferred_mode_counts() {
        // Same-length unequal strands: PreferSubstitution yields pure subs.
        let a = s("AAAA");
        let b = s("TTTT");
        let mut rng = seeded(9);
        let script = edit_script(&a, &b, TieBreak::PreferSubstitution, &mut rng);
        assert_eq!(script.error_kind_counts(), [4, 0, 0]);
    }
}
