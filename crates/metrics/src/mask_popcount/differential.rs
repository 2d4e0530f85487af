//! The batched screen against its per-candidate oracle.
//!
//! `QGramScratch::screen` must prune exactly the candidates that
//! `QGramScratch::exceeds` rejects and return every other one, in
//! candidate order, on every kernel. Each kernel is called directly where
//! this CPU can run it, so a host with AVX-512 VPOPCNTDQ still tests the
//! AVX2 kernel, and the scalar kernel runs everywhere.
//!
//! The corpus is the one `tests/qgram_screen.rs` uses for `exceeds`:
//! unrelated strands, 184-nt strands behind shared 20-nt primers,
//! homopolymer-heavy strands, empty and shorter-than-q strands, noisy
//! copies, and rows of a mismatched `q`. Every limit up to `2·len/q` is
//! asked, arenas span more than one 64-row page, and candidate lists come
//! both ascending and shuffled with repeats and ids past the arena's end.

use dnasim_core::rng::{seeded, Rng, SimRng};
use dnasim_core::{Base, Strand};

use super::{screen_on, ScreenKernel};
use crate::qgram::{QGramProfile, QGramScratch, ScreenArena};

const KERNELS: [ScreenKernel; 3] = [
    ScreenKernel::Scalar,
    ScreenKernel::Avx2,
    ScreenKernel::Avx512,
];

/// Shared primer length, as on every archive strand.
const FLANK: usize = 20;

fn len(rng: &mut SimRng, max: u64) -> usize {
    (rng.next_u64() % max) as usize
}

fn homopolymer_heavy(len: usize, rng: &mut SimRng) -> Strand {
    let run = 1 + (rng.next_u64() % 25) as usize;
    let mut base = Base::random(rng);
    (0..len)
        .map(|i| {
            if i % run == 0 && rng.next_u64().is_multiple_of(3) {
                base = Base::random(rng);
            }
            base
        })
        .collect()
}

/// A copy of `strand` with about `rate` random edits per base.
fn mutate(strand: &Strand, rate_percent: u64, rng: &mut SimRng) -> Strand {
    let mut out = Strand::with_capacity(strand.len() + 8);
    for base in strand.iter() {
        if rng.next_u64() % 100 >= rate_percent {
            out.push(base);
            continue;
        }
        match rng.next_u64() % 3 {
            0 => out.push(base.random_other(rng)),
            1 => {
                out.push(Base::random(rng));
                out.push(base);
            }
            _ => {}
        }
    }
    out
}

/// A probe strand and `rows` row strands of one corpus shape.
fn corpus(shape: u8, q: usize, rows: usize, seed: u64) -> (Strand, Vec<Strand>) {
    let mut rng = seeded(seed);
    let forward = Strand::random(FLANK, &mut rng);
    let reverse = Strand::random(FLANK, &mut rng);
    let probe = match shape {
        1 => forward
            .concat(&Strand::random(184 - 2 * FLANK, &mut rng))
            .concat(&reverse),
        2 => homopolymer_heavy(len(&mut rng, 200), &mut rng),
        3 => Strand::random(len(&mut rng, q as u64 + 1), &mut rng),
        _ => Strand::random(len(&mut rng, 200), &mut rng),
    };
    let strands = (0..rows)
        .map(|_| match shape {
            // Unrelated strands.
            0 => Strand::random(len(&mut rng, 200), &mut rng),
            // Primer-flanked 184-nt strands, a third of them noisy copies
            // of the probe.
            1 if rng.next_u64().is_multiple_of(3) => mutate(&probe, 6, &mut rng),
            1 => forward
                .concat(&Strand::random(184 - 2 * FLANK, &mut rng))
                .concat(&reverse),
            2 => homopolymer_heavy(len(&mut rng, 200), &mut rng),
            // Empty and short rows against a short probe.
            3 => Strand::random(len(&mut rng, 2 * q as u64 + 2), &mut rng),
            // Noisy copies at 0–24% edits: pairs near every limit.
            _ => mutate(&probe, rng.next_u64() % 25, &mut rng),
        })
        .collect();
    (probe, strands)
}

/// Candidate lists: every id ascending, and a shuffled list with repeats
/// and ids past the arena's end.
fn candidate_lists(rows: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = seeded(seed ^ 0x5eed);
    let ascending: Vec<usize> = (0..rows).collect();
    let shuffled = (0..rows / 2 + 8)
        .map(|_| len(&mut rng, rows as u64 + 3))
        .collect();
    vec![ascending, shuffled]
}

/// Checks every kernel this CPU can run, and the dispatched screen,
/// against `exceeds` at every limit up to `2·len/q`. Returns how many
/// kernels ran.
fn check(
    scratch: &QGramScratch,
    profiles: &[QGramProfile],
    arena: &ScreenArena,
    max_len: usize,
    q: usize,
    seed: u64,
) -> usize {
    let kernels: Vec<ScreenKernel> = KERNELS.into_iter().filter(|k| k.supported()).collect();
    for candidates in candidate_lists(profiles.len(), seed) {
        for limit in 0..=2 * max_len / q {
            let expected: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&id| profiles.get(id).is_none_or(|p| !scratch.exceeds(p, limit)))
                .collect();
            let pruned = candidates.len() - expected.len();
            // The screen appends: what `survivors` held stays in front.
            let mut survivors = vec![usize::MAX];
            let got = scratch.screen(arena, &candidates, limit, &mut survivors);
            assert_eq!(
                (got, &survivors[1..]),
                (pruned, &expected[..]),
                "dispatched, limit {limit}"
            );
            for &kernel in &kernels {
                survivors.clear();
                let got = screen_on(kernel, scratch, arena, &candidates, limit, &mut survivors);
                assert_eq!(
                    (got, &survivors),
                    (pruned, &expected),
                    "{kernel:?}, limit {limit}"
                );
            }
        }
    }
    kernels.len()
}

#[test]
fn every_kernel_prunes_exactly_what_exceeds_rejects() {
    let mut ran = 0;
    let mut pruned_and_kept = (false, false);
    for shape in 0..5u8 {
        for q in 1..=8usize {
            // 66 rows span two pages; 5 rows fill part of one.
            for (rows, seed) in [(66usize, 1u64), (5, 2)] {
                let seed = seed * 1000 + u64::from(shape) * 10 + q as u64;
                let (probe, strands) = corpus(shape, q, rows, seed);
                let profiles: Vec<QGramProfile> =
                    strands.iter().map(|s| QGramProfile::new(s, q)).collect();
                let mut arena = ScreenArena::new();
                for p in &profiles {
                    arena.push(p.clone());
                }
                let max_len = strands
                    .iter()
                    .chain([&probe])
                    .map(Strand::len)
                    .max()
                    .unwrap_or(0);
                let mut scratch = QGramScratch::new();
                scratch.load(&QGramProfile::new(&probe, q));
                ran = ran.max(check(&scratch, &profiles, &arena, max_len, q, seed));
                for p in &profiles {
                    let exceeds = scratch.exceeds(p, 18 / q);
                    pruned_and_kept = (pruned_and_kept.0 || exceeds, pruned_and_kept.1 || !exceeds);
                }
                if rows < 64 {
                    // The same arena with one of its rows as the probe.
                    scratch.load_row(&arena, rows / 2);
                    ran = ran.max(check(&scratch, &profiles, &arena, max_len, q, seed + 1));
                }
            }
        }
    }
    assert!(ran >= 1, "no kernel ran");
    assert_eq!(
        pruned_and_kept,
        (true, true),
        "the corpus never both prunes and keeps"
    );
}

#[test]
fn mismatched_q_rows_a_missing_row_and_an_unloaded_scratch_never_prune() {
    for shape in 0..5u8 {
        for q in 1..=8usize {
            let (probe, strands) = corpus(shape, q, 66, 77 + q as u64);
            // Rows of every q, mixed in one arena: one in eight matches.
            let profiles: Vec<QGramProfile> = strands
                .iter()
                .enumerate()
                .map(|(i, s)| QGramProfile::new(s, 1 + (q + i % 8) % 8))
                .collect();
            let mut arena = ScreenArena::new();
            for p in &profiles {
                arena.push(p.clone());
            }
            let max_len = strands
                .iter()
                .chain([&probe])
                .map(Strand::len)
                .max()
                .unwrap_or(0);
            let mut scratch = QGramScratch::new();
            check(&scratch, &profiles, &arena, max_len, q, 5);
            let all: Vec<usize> = (0..profiles.len()).collect();
            let mut survivors = Vec::new();
            assert_eq!(
                scratch.screen(&arena, &all, 0, &mut survivors),
                0,
                "unloaded scratch pruned"
            );
            scratch.load(&QGramProfile::new(&probe, q));
            check(&scratch, &profiles, &arena, max_len, q, 6);
            // A missing row unloads the scratch.
            scratch.load_row(&arena, profiles.len());
            survivors.clear();
            assert_eq!(
                scratch.screen(&arena, &all, 0, &mut survivors),
                0,
                "missing row pruned"
            );
        }
    }
}

/// Long strands set most of the mask's 1,024 bits, so every vector of
/// every kernel carries bits: a kernel that drops a vector or a 512-bit
/// half miscounts here.
#[test]
fn dense_masks_count_the_same_on_every_kernel() {
    let mut rng = seeded(1200);
    for q in [4usize, 5, 6, 8] {
        let strands: Vec<Strand> = (0..12)
            .map(|i| {
                let len = 400 + len(&mut rng, 800);
                if i % 2 == 0 {
                    Strand::random(len, &mut rng)
                } else {
                    homopolymer_heavy(len, &mut rng)
                }
            })
            .collect();
        let probe = Strand::random(800, &mut rng);
        let profiles: Vec<QGramProfile> = strands.iter().map(|s| QGramProfile::new(s, q)).collect();
        let mut arena = ScreenArena::new();
        for p in &profiles {
            arena.push(p.clone());
        }
        let mut scratch = QGramScratch::new();
        scratch.load(&QGramProfile::new(&probe, q));
        let (probe_len, max_len) = (
            probe.len(),
            strands.iter().map(Strand::len).max().unwrap_or(0),
        );
        check(&scratch, &profiles, &arena, max_len.max(probe_len), q, 9);
    }
}
