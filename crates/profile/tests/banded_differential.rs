//! Differential tests: the bit-vector edit-script traceback against the
//! full `O(m·n)` matrix DP.
//!
//! `edit_script_with` traces back over the Myers delta words of every
//! column, and its exactness argument says that each neighbour test reads
//! the full matrix's value, so every minimal predecessor, and therefore
//! every random tie-break draw, is unchanged. These tests hold the kernel
//! to that: the same script, and the RNG left in the same state, under
//! both tie-break policies. Pairs span lengths 0–1,000, from identical
//! strands through realistic noisy reads to unrelated strands, with
//! lengths on both sides of every 64-row block boundary up to 193, plus
//! one- and two-letter strands that maximise ties. The traceback visitor
//! `edit_ops_with` is checked against the script it builds.

use dnasim_testkit::prelude::*;

use dnasim_channel::{ErrorModel, NaiveModel};
use dnasim_core::rng::{seeded, Rng, RngExt};
use dnasim_core::{Base, EditOp, EditScript, Strand};
use dnasim_profile::{edit_ops_with, edit_script_with, EditScratch, TieBreak};

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

/// Lengths on both sides of the first three 64-row block boundaries, in
/// every pairing, so length gaps cross a boundary in both directions:
/// unrelated pairs, noisy reads and prefixes.
#[test]
fn bit_vector_matches_full_at_block_boundaries() {
    const LENGTHS: [usize; 9] = [63, 64, 65, 127, 128, 129, 191, 192, 193];
    let mut rng = seeded(21);
    let mut scratch = EditScratch::new();
    let model = NaiveModel::with_total_rate(0.08);
    for la in LENGTHS {
        for lb in LENGTHS {
            let a = Strand::random(la, &mut rng);
            let b = Strand::random(lb, &mut rng);
            let noisy = model.corrupt(&a, &mut rng);
            let cut = a.substrand(0..lb.min(la));
            let seed = (la * 1000 + lb) as u64;
            for (x, y) in [(&a, &b), (&a, &noisy), (&noisy, &a), (&a, &cut), (&cut, &a)] {
                check_pair(&mut scratch, x, y, seed)
                    .unwrap_or_else(|e| panic!("({la}, {lb}): {e:?}"));
            }
        }
    }
}

/// The imperfect archive's strand shape: 176-nt references against reads
/// at the archive's error rates, in both orientations.
#[test]
fn bit_vector_matches_full_on_archive_strands() {
    let mut rng = seeded(22);
    let mut scratch = EditScratch::new();
    for rate in [0.0, 0.02, 0.059, 0.12] {
        let model = NaiveModel::with_total_rate(rate);
        for k in 0..24u64 {
            let reference = Strand::random(176, &mut rng);
            let read = model.corrupt(&reference, &mut rng);
            check_pair(&mut scratch, &reference, &read, k).unwrap_or_else(|e| panic!("{e:?}"));
            check_pair(&mut scratch, &read, &reference, !k).unwrap_or_else(|e| panic!("{e:?}"));
        }
    }
}

/// A 1,000-nt near-identical pair: sixteen pattern blocks, a narrow
/// optimal path, and a traceback that crosses every block.
#[test]
fn bit_vector_matches_full_on_a_long_near_identical_pair() {
    let mut rng = seeded(23);
    let mut scratch = EditScratch::new();
    let reference = Strand::random(1000, &mut rng);
    for rate in [0.005, 0.02] {
        let read = NaiveModel::with_total_rate(rate).corrupt(&reference, &mut rng);
        check_pair(&mut scratch, &reference, &read, 5).unwrap_or_else(|e| panic!("{e:?}"));
        check_pair(&mut scratch, &read, &reference, 6).unwrap_or_else(|e| panic!("{e:?}"));
    }
}

/// The traceback visitor's ops, reversed, are `edit_script_with`'s
/// script, and each op's position is the number of reference bases the
/// forward script consumed before it.
fn check_visitor(scratch: &mut EditScratch, a: &Strand, b: &Strand, seed: u64) {
    for tie_break in [TieBreak::Random, TieBreak::PreferSubstitution] {
        let script = edit_script_with(scratch, a, b, tie_break, &mut seeded(seed));
        let mut visited = Vec::new();
        edit_ops_with(scratch, a, b, tie_break, &mut seeded(seed), |op, p| {
            visited.push((op, p))
        });
        visited.reverse();
        let mut consumed = 0;
        for (k, (&(op, p), &expect)) in visited.iter().zip(script.ops()).enumerate() {
            assert_eq!(op, expect, "{tie_break:?} op {k} for {a} -> {b}");
            assert_eq!(p, consumed, "{tie_break:?} position {k} for {a} -> {b}");
            consumed += op.reference_advance();
        }
        assert_eq!(visited.len(), script.len(), "{tie_break:?} for {a} -> {b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One-letter strands: every alignment of a shorter run against a
    /// longer one is optimal, across block boundaries.
    #[test]
    fn bit_vector_matches_full_on_one_letter_strands(
        a in strand(0..200, 1),
        b in strand(0..200, 1),
        seed in any::<u64>(),
    ) {
        check_pair(&mut EditScratch::new(), &a, &b, seed)?;
    }

    /// Two-letter strands past the first block boundary, where the
    /// homopolymer ties straddle two pattern words.
    #[test]
    fn bit_vector_matches_full_on_multi_block_two_letter_strands(
        a in strand(60..200, 2),
        b in strand(60..200, 2),
        seed in any::<u64>(),
    ) {
        check_pair(&mut EditScratch::new(), &a, &b, seed)?;
    }

    /// The visitor against the script, on noisy reads and unrelated
    /// strands.
    #[test]
    fn visitor_reversed_is_the_edit_script(
        reference in strand(0..200, 4),
        other in strand(0..200, 4),
        rate in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let read = NaiveModel::with_total_rate(rate).corrupt(&reference, &mut seeded(seed));
        let mut scratch = EditScratch::new();
        check_visitor(&mut scratch, &reference, &read, seed);
        check_visitor(&mut scratch, &read, &reference, seed);
        check_visitor(&mut scratch, &reference, &other, seed);
    }
}
