//! Edit scripts traced over the one-word diagonal band (DESIGN.md §28)
//! against the full `O(m·n)` matrix DP.
//!
//! A pair whose distance is at most `myers::BAND` is recorded in the band,
//! any other in the blocked kernel. Either way the traceback must read the
//! full matrix's answers: the same script, and the RNG left in the same
//! state, under both tie-break policies. The corpus sits at the band's
//! edge: distances around its radius, length gaps up to 33 in both
//! directions, lengths across the 64-row word boundaries, and two-letter
//! strands whose ties spread the traceback across the whole band.

use dnasim_core::rng::{seeded, Rng, RngExt, SimRng};
use dnasim_core::{Base, EditOp, EditScript, Strand};
use dnasim_metrics::levenshtein;
use dnasim_metrics::myers::BAND;
use dnasim_profile::{edit_script_with, EditScratch, TieBreak};

/// The full-matrix DP and its traceback, with the candidate order
/// (substitute, delete, insert) of the Appendix-B algorithm.
fn full_matrix_script<R: Rng + ?Sized>(
    a: &[Base],
    b: &[Base],
    tie_break: TieBreak,
    rng: &mut R,
) -> EditScript {
    let width = b.len() + 1;
    let mut dp = vec![0usize; (a.len() + 1) * width];
    for (j, cell) in dp.iter_mut().enumerate().take(width) {
        *cell = j;
    }
    for i in 1..=a.len() {
        dp[i * width] = i;
        for j in 1..width {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            dp[i * width + j] = (dp[(i - 1) * width + j - 1] + cost)
                .min(dp[(i - 1) * width + j] + 1)
                .min(dp[i * width + j - 1] + 1);
        }
    }
    let mut ops = Vec::new();
    let (mut i, mut j) = (a.len(), b.len());
    while i > 0 || j > 0 {
        let here = dp[i * width + j];
        if i > 0 && j > 0 && a[i - 1] == b[j - 1] {
            ops.push(EditOp::Equal(a[i - 1]));
            (i, j) = (i - 1, j - 1);
            continue;
        }
        let mut candidates = Vec::new();
        if i > 0 && j > 0 && dp[(i - 1) * width + j - 1] + 1 == here {
            candidates.push(EditOp::Subst {
                orig: a[i - 1],
                new: b[j - 1],
            });
        }
        if i > 0 && dp[(i - 1) * width + j] + 1 == here {
            candidates.push(EditOp::Delete(a[i - 1]));
        }
        if j > 0 && dp[i * width + j - 1] + 1 == here {
            candidates.push(EditOp::Insert(b[j - 1]));
        }
        let pick = match tie_break {
            TieBreak::Random => rng.random_range(0..candidates.len()),
            TieBreak::PreferSubstitution => 0,
        };
        let op = candidates[pick];
        match op {
            EditOp::Subst { .. } | EditOp::Equal(_) => (i, j) = (i - 1, j - 1),
            EditOp::Delete(_) => i -= 1,
            EditOp::Insert(_) => j -= 1,
        }
        ops.push(op);
    }
    ops.reverse();
    EditScript::from_ops(ops)
}

/// A random strand over the first `alphabet` bases.
fn strand(rng: &mut SimRng, len: usize, alphabet: usize) -> Vec<Base> {
    (0..len)
        .map(|_| Base::from_index(rng.random_range(0..alphabet)).expect("index < 4"))
        .collect()
}

/// `a` with `gap` bases deleted and `edits` random substitutions or
/// (deletion, insertion) pairs over the same alphabet.
fn variant(rng: &mut SimRng, a: &[Base], gap: usize, edits: usize, alphabet: usize) -> Vec<Base> {
    let mut bases = a.to_vec();
    for _ in 0..gap.min(bases.len()) {
        bases.remove(rng.random_range(0..bases.len()));
    }
    for _ in 0..edits {
        if bases.is_empty() {
            break;
        }
        let base = strand(rng, 1, alphabet)[0];
        let at = rng.random_range(0..bases.len());
        if rng.random_bool(0.5) {
            bases[at] = base;
        } else {
            bases.remove(at);
            bases.insert(rng.random_range(0..=bases.len()), base);
        }
    }
    bases
}

#[test]
fn scripts_at_the_band_edge_match_the_full_matrix() {
    const LENGTHS: [usize; 11] = [1, 20, 33, 63, 64, 65, 128, 129, 176, 188, 193];
    let mut rng = seeded(28);
    let mut scratch = EditScratch::new();
    let (mut in_band, mut beyond) = (0, 0);
    for len in LENGTHS {
        for gap in (0..=BAND + 2).filter(|&gap| gap <= len) {
            // Edit counts cycle through near, band-edge and tie-heavy
            // two-letter pairs.
            let (alphabet, edits) = [(4, gap % 7), (4, 12 + gap % 9), (2, 4 + gap % 5)][gap % 3];
            let a = strand(&mut rng, len, alphabet);
            let b = variant(&mut rng, &a, gap, edits, alphabet);
            let d = levenshtein(&a, &b);
            if d <= BAND {
                in_band += 1;
            } else {
                beyond += 1;
            }
            let (sa, sb) = (Strand::from_bases(a), Strand::from_bases(b));
            for (x, y) in [(&sa, &sb), (&sb, &sa)] {
                for tie_break in [TieBreak::Random, TieBreak::PreferSubstitution] {
                    let seed = (len * 100 + gap) as u64;
                    let (mut band_rng, mut full_rng) = (seeded(seed), seeded(seed));
                    let script = edit_script_with(&mut scratch, x, y, tie_break, &mut band_rng);
                    let full =
                        full_matrix_script(x.as_bases(), y.as_bases(), tie_break, &mut full_rng);
                    assert_eq!(script, full, "{tie_break:?} {x} -> {y} (d = {d})");
                    assert_eq!(
                        band_rng.next_u64(),
                        full_rng.next_u64(),
                        "{tie_break:?} draws for {x} -> {y} (d = {d})"
                    );
                }
            }
        }
    }
    // Both sides of the band's radius are traced.
    assert!(
        in_band > 150 && beyond > 30,
        "{in_band} in the band, {beyond} beyond"
    );
}
