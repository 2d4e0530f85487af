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
use dnasim_core::{EditOp, EditScript, Strand};
use dnasim_metrics::myers::DeltaColumns;

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

/// Reusable buffers for [`edit_script_with`] and [`edit_ops_with`]: the
/// Myers delta words of every DP column, which the traceback reads with
/// bit tests.
///
/// Profiling a dataset or refining a consensus traces one script per
/// read, so hot loops allocate one scratch and thread it through every
/// call. The buffers only ever grow: a pair at distance ≤ 31 with a
/// reference longer than 64 bases is recorded in a one-word diagonal band,
/// `(n + 1)·4` words for an `n`-base read, and any other pair in
/// `(n + 1)·⌈m/64⌉·4` words for an `m`-base reference.
#[derive(Debug, Clone, Default)]
pub struct EditScratch {
    columns: DeltaColumns,
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

/// [`edit_script`] with a caller-provided scratch — identical output, no
/// per-call allocation beyond the script once the scratch has grown: the
/// ops of [`edit_ops_with`], collected and reversed.
pub fn edit_script_with<R: Rng + ?Sized>(
    scratch: &mut EditScratch,
    reference: &Strand,
    read: &Strand,
    tie_break: TieBreak,
    rng: &mut R,
) -> EditScript {
    let mut ops: Vec<EditOp> = Vec::with_capacity(reference.len().max(read.len()));
    edit_ops_with(scratch, reference, read, tie_break, rng, |op, _| {
        ops.push(op)
    });
    ops.reverse();
    EditScript::from_ops(ops)
}

/// Traces a minimal edit script from `reference` to `read` and hands each
/// op to `visit` with its reference position, in traceback order (last op
/// first). The position is the number of reference bases before the op:
/// the base an `Equal`, `Subst` or `Delete` consumes, or the base an
/// `Insert` precedes (`reference.len()` at the end).
///
/// A Myers kernel records every column's delta words ([`DeltaColumns`]):
/// the one-word diagonal band when the distance is at most
/// [`BAND`](dnasim_metrics::myers::BAND) and the reference is longer than
/// 64 bases, the blocked kernel otherwise.
/// Each traceback test is one bit test on them:
///
/// * `D(i−1, j) + 1 == D(i, j)` iff the vertical delta `v(i, j)` is +1;
/// * `D(i, j−1) + 1 == D(i, j)` iff the horizontal delta `h(i, j)` is +1
///   (always, in row 0);
/// * `D(i−1, j−1) + 1 == D(i, j)` iff `h(i, j) + v(i, j−1) == 1`.
///
/// These are the full matrix's values on every cell the traceback visits
/// (the band's are exact wherever the distance is at most its radius), so
/// the candidate sets, their order and every `TieBreak::Random` draw are
/// the full-matrix DP's. `crates/profile/tests/banded_differential.rs`
/// and `band_scripts.rs` check this against that DP.
pub fn edit_ops_with<R: Rng + ?Sized>(
    scratch: &mut EditScratch,
    reference: &Strand,
    read: &Strand,
    tie_break: TieBreak,
    rng: &mut R,
    mut visit: impl FnMut(EditOp, usize),
) {
    let a = reference.as_bases();
    let b = read.as_bases();
    let cols = &mut scratch.columns;
    cols.record(a, b);
    let (mut i, mut j) = (a.len(), b.len());
    // Reused candidate buffer for the ≤3 minimal predecessors at each cell.
    let mut candidates: [Option<EditOp>; 3] = [None; 3];
    while i > 0 || j > 0 {
        if i > 0 && j > 0 && a[i - 1] == b[j - 1] {
            // Matching characters always admit the zero-cost diagonal (the
            // paper's EQUAL branch is unconditional).
            i -= 1;
            j -= 1;
            visit(EditOp::Equal(a[i]), i);
            continue;
        }
        let mut count = 0;
        if i > 0 && j > 0 && cols.diag(i, j) {
            candidates[count] = Some(EditOp::Subst {
                orig: a[i - 1],
                new: b[j - 1],
            });
            count += 1;
        }
        if i > 0 && cols.up(i, j) {
            candidates[count] = Some(EditOp::Delete(a[i - 1]));
            count += 1;
        }
        if j > 0 && cols.left(i, j) {
            candidates[count] = Some(EditOp::Insert(b[j - 1]));
            count += 1;
        }
        debug_assert!(count > 0, "traceback stuck at ({i}, {j})");
        let pick = match tie_break {
            TieBreak::Random => rng.random_range(0..count),
            TieBreak::PreferSubstitution => 0,
        };
        let Some(op) = candidates.get(pick).copied().flatten() else {
            // The exact deltas always admit a predecessor; if the
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
        visit(op, i);
    }
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
    fn extreme_length_gaps_apply_back() {
        // A long reference against a short read, and the reverse: many
        // pattern blocks over few columns, and one block over many.
        let mut rng = seeded(10);
        let mut scratch = EditScratch::new();
        for (m, n) in [(3000, 10), (10, 3000), (500, 0), (0, 500), (110, 110)] {
            let a = Strand::random(m, &mut rng);
            let b = Strand::random(n, &mut rng);
            let script = edit_script_with(&mut scratch, &a, &b, TieBreak::Random, &mut rng);
            assert_eq!(script.apply(&a).unwrap(), b, "({m}, {n})");
            assert_eq!(
                script.error_count(),
                dnasim_metrics::levenshtein(a.as_bases(), b.as_bases()),
                "({m}, {n})"
            );
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
