//! Differential tests: the banded edit-script DP against the full
//! `O(m·n)` matrix it replaced.
//!
//! The band is sized by the exact distance, and the exactness argument on
//! `edit_script_with` says that every optimal path, every minimal
//! predecessor, and therefore every random tie-break draw is unchanged.
//! These tests hold the banded DP to that: the same script, and the RNG
//! left in the same state, under both tie-break policies. Pairs span
//! lengths 0–300, from identical strands through realistic noisy reads to
//! unrelated strands, plus low-entropy strands that maximise ties.

use dnasim_testkit::prelude::*;

use dnasim_channel::{ErrorModel, NaiveModel};
use dnasim_core::rng::{seeded, Rng, RngExt};
use dnasim_core::{Base, EditOp, EditScript, Strand};
use dnasim_profile::{edit_script_with, EditScratch, TieBreak};

/// The full-matrix DP and traceback the banded kernel replaced, kept
/// verbatim as the oracle.
fn full_matrix_script<R: Rng + ?Sized>(
    reference: &Strand,
    read: &Strand,
    tie_break: TieBreak,
    rng: &mut R,
) -> EditScript {
    let a = reference.as_bases();
    let b = read.as_bases();
    let (m, n) = (a.len(), b.len());
    let width = n + 1;
    let mut dp = vec![0u32; (m + 1) * width];
    for (j, cell) in dp.iter_mut().enumerate().take(n + 1) {
        *cell = j as u32;
    }
    for i in 1..=m {
        dp[i * width] = i as u32;
        for j in 1..=n {
            let cost = if a[i - 1] == b[j - 1] { 0 } else { 1 };
            let diag = dp[(i - 1) * width + (j - 1)] + cost;
            let up = dp[(i - 1) * width + j] + 1;
            let left = dp[i * width + (j - 1)] + 1;
            dp[i * width + j] = diag.min(up).min(left);
        }
    }
    let mut ops = Vec::new();
    let (mut i, mut j) = (m, n);
    while i > 0 || j > 0 {
        let here = dp[i * width + j];
        if i > 0 && j > 0 && a[i - 1] == b[j - 1] {
            ops.push(EditOp::Equal(a[i - 1]));
            i -= 1;
            j -= 1;
            continue;
        }
        let mut candidates = Vec::new();
        if i > 0 && j > 0 && dp[(i - 1) * width + (j - 1)] + 1 == here {
            candidates.push(EditOp::Subst {
                orig: a[i - 1],
                new: b[j - 1],
            });
        }
        if i > 0 && dp[(i - 1) * width + j] + 1 == here {
            candidates.push(EditOp::Delete(a[i - 1]));
        }
        if j > 0 && dp[i * width + (j - 1)] + 1 == here {
            candidates.push(EditOp::Insert(b[j - 1]));
        }
        let pick = match tie_break {
            TieBreak::Random => rng.random_range(0..candidates.len()),
            TieBreak::PreferSubstitution => 0,
        };
        let op = candidates[pick];
        match op {
            EditOp::Subst { .. } | EditOp::Equal(_) => {
                i -= 1;
                j -= 1;
            }
            EditOp::Delete(_) => i -= 1,
            EditOp::Insert(_) => j -= 1,
        }
        ops.push(op);
    }
    ops.reverse();
    EditScript::from_ops(ops)
}

/// Runs both DPs from the same RNG state through one shared scratch and
/// checks the scripts and the RNG states they leave behind.
fn check_pair(
    scratch: &mut EditScratch,
    a: &Strand,
    b: &Strand,
    seed: u64,
) -> Result<(), TestCaseError> {
    for tie_break in [TieBreak::Random, TieBreak::PreferSubstitution] {
        let (mut banded_rng, mut full_rng) = (seeded(seed), seeded(seed));
        let banded = edit_script_with(scratch, a, b, tie_break, &mut banded_rng);
        let full = full_matrix_script(a, b, tie_break, &mut full_rng);
        prop_assert_eq!(
            &banded,
            &full,
            "{:?} scripts differ for {} -> {}",
            tie_break,
            a,
            b
        );
        prop_assert_eq!(
            banded_rng.next_u64(),
            full_rng.next_u64(),
            "{:?} tie-break draws differ for {} -> {}",
            tie_break,
            a,
            b
        );
    }
    Ok(())
}

fn strand(len: std::ops::Range<usize>, alphabet: usize) -> impl Strategy<Value = Strand> {
    dnasim_testkit::collection::vec(0usize..alphabet, len).prop_map(|idx| {
        idx.into_iter()
            .map(|i| Base::from_index(i).expect("index < 4"))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Unrelated strands: distances near the length, so the band spans
    /// most of the matrix and its edges meet the matrix borders.
    #[test]
    fn banded_matches_full_on_unrelated_strands(
        a in strand(0..300, 4),
        b in strand(0..300, 4),
        seed in any::<u64>(),
    ) {
        check_pair(&mut EditScratch::new(), &a, &b, seed)?;
    }

    /// Noisy reads of one reference, the profiler's and the
    /// reconstructors' workload: narrow bands, interleaved through one
    /// scratch so a wide band's stale cells must never leak into a
    /// narrow one.
    #[test]
    fn banded_matches_full_on_noisy_reads(
        reference in strand(0..300, 4),
        rate in 0.0f64..0.35,
        seed in any::<u64>(),
    ) {
        let model = NaiveModel::with_total_rate(rate);
        let mut rng = seeded(seed);
        let mut scratch = EditScratch::new();
        for k in 0..4u64 {
            let read = model.corrupt(&reference, &mut rng);
            check_pair(&mut scratch, &reference, &read, seed ^ k)?;
            check_pair(&mut scratch, &read, &reference, seed.rotate_left(7) ^ k)?;
        }
    }

    /// Two-letter strands: long homopolymer runs give many equal-cost
    /// paths, so the tie sets, and the draws among them, are exercised
    /// hardest.
    #[test]
    fn banded_matches_full_on_tie_heavy_strands(
        a in strand(0..120, 2),
        b in strand(0..120, 2),
        seed in any::<u64>(),
    ) {
        check_pair(&mut EditScratch::new(), &a, &b, seed)?;
    }
}

/// Degenerate and boundary shapes, pinned so a shrink regression can
/// never silently drop them: empty operands, equal strands, pure length
/// gaps, and word-boundary lengths for the Myers kernel that sizes the
/// band.
#[test]
fn banded_matches_full_on_pinned_shapes() {
    let mut rng = seeded(11);
    let mut scratch = EditScratch::new();
    let model = NaiveModel::with_total_rate(0.1);
    for (la, lb) in [
        (0, 0),
        (0, 1),
        (1, 0),
        (0, 300),
        (300, 0),
        (1, 1),
        (63, 64),
        (64, 64),
        (65, 64),
        (110, 110),
        (128, 129),
        (300, 300),
        (10, 290),
    ] {
        let a = Strand::random(la, &mut rng);
        let b = Strand::random(lb, &mut rng);
        let prefix = a.substrand(0..la / 2);
        let noisy = model.corrupt(&a, &mut rng);
        for (x, y) in [(&a, &b), (&a, &a), (&a, &prefix), (&prefix, &a), (&a, &noisy)] {
            check_pair(&mut scratch, x, y, la as u64 * 1000 + lb as u64)
                .unwrap_or_else(|e| panic!("({la}, {lb}): {e:?}"));
        }
    }
}
