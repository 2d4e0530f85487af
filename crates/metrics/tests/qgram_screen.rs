//! Exactness of the bit-parallel error-ball screen.
//!
//! `QGramScratch::exceeds(p, limit)` must answer exactly
//! `QGramScratch::bound(p) > limit`: the presence-mask bound may only
//! settle a pair when it already proves the exact bound exceeds the
//! limit, and must defer to the exact scan otherwise. The property test
//! checks every limit a pair can meaningfully be asked about, over the
//! strand shapes that stress the mask: shared primer flanks (many common
//! bits), homopolymer runs (large `excess`), strands with no grams, gram
//! lengths that fold onto the 1024-bit mask (`q ≥ 6`), and mismatched
//! `q`. The decisiveness test checks the screen is not silently falling
//! back to the scan on the clustering workload's shape.

use dnasim_testkit::prelude::*;

use dnasim_core::rng::{seeded, Rng, SimRng};
use dnasim_core::{Base, Strand};
use dnasim_metrics::{levenshtein, QGramProfile, QGramScratch};

/// Shared 20-nt flanks, as the archive's primers put on every strand.
const FLANK: usize = 20;

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

/// A copy of `strand` with about `rate` random substitutions, insertions
/// and deletions per base.
fn mutate(strand: &Strand, rate: f64, rng: &mut SimRng) -> Strand {
    let threshold = (rate * 1_000_000.0) as u64;
    let mut out = Strand::with_capacity(strand.len() + 8);
    for base in strand.iter() {
        if rng.next_u64() % 1_000_000 >= threshold {
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

/// One strand pair of the given shape, drawn from `seed`.
fn pair(shape: u8, q: usize, seed: u64) -> (Strand, Strand) {
    let mut rng = seeded(seed);
    let len = |rng: &mut SimRng, max: u64| (rng.next_u64() % max) as usize;
    match shape {
        // Unrelated random strands.
        0 => {
            let (la, lb) = (len(&mut rng, 200), len(&mut rng, 200));
            (Strand::random(la, &mut rng), Strand::random(lb, &mut rng))
        }
        // Primer-flanked strands: distinct payloads behind shared flanks.
        1 => {
            let forward = Strand::random(FLANK, &mut rng);
            let reverse = Strand::random(FLANK, &mut rng);
            let (la, lb) = (len(&mut rng, 160), len(&mut rng, 160));
            let a = forward
                .concat(&Strand::random(la, &mut rng))
                .concat(&reverse);
            let b = forward
                .concat(&Strand::random(lb, &mut rng))
                .concat(&reverse);
            (a, b)
        }
        // Homopolymer-heavy strands: few distinct grams, large excess.
        2 => {
            let (la, lb) = (len(&mut rng, 200), len(&mut rng, 200));
            (
                homopolymer_heavy(la, &mut rng),
                homopolymer_heavy(lb, &mut rng),
            )
        }
        // Empty and shorter-than-q strands against anything.
        3 => {
            let short = Strand::random(len(&mut rng, q as u64 + 1), &mut rng);
            let other = Strand::random(len(&mut rng, 120), &mut rng);
            (short, other)
        }
        // Noisy copies: pairs near the limit, where the exact scan must
        // decide.
        _ => {
            let a = Strand::random(1 + len(&mut rng, 200), &mut rng);
            let rate = (rng.next_u64() % 25) as f64 / 100.0;
            let b = mutate(&a, rate, &mut rng);
            (a, b)
        }
    }
}

/// Checks `exceeds == (bound > limit)` and `mask_bound ≤ bound` for the
/// strand loaded in `scratch` against `other`, at every limit up to
/// `2·len/q`.
fn check_all_limits(scratch: &QGramScratch, other: &QGramProfile, len: usize, q: usize) {
    let bound = scratch.bound(other);
    assert!(
        scratch.mask_bound(other) <= bound,
        "mask bound above exact bound"
    );
    for limit in 0..=2 * len / q {
        assert_eq!(
            scratch.exceeds(other, limit),
            bound > limit,
            "limit {limit}, bound {bound}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn exceeds_is_exactly_bound_above_limit(
        shape in 0u8..5,
        q in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let (a, b) = pair(shape, q, seed);
        let (pa, pb) = (QGramProfile::new(&a, q), QGramProfile::new(&b, q));
        let len = a.len().max(b.len());
        // One scratch, reloaded in both directions: the sparse reset and
        // the copied mask must leave no trace of the previous load.
        let mut scratch = QGramScratch::new();
        scratch.load(&pa);
        check_all_limits(&scratch, &pb, len, q);
        scratch.load(&pb);
        check_all_limits(&scratch, &pa, len, q);
        // The mask bound is a bound on the true multiset bound too.
        prop_assert!(scratch.mask_bound(&pa) <= pb.distance_lower_bound(&pa));
    }

    #[test]
    fn mismatched_q_never_exceeds(
        shape in 0u8..5,
        q in 1usize..=8,
        other_q in 1usize..8,
        seed in any::<u64>(),
    ) {
        // Any gram length in 1..=8 except `q`.
        let other_q = other_q + usize::from(other_q >= q);
        let (a, b) = pair(shape, q, seed);
        let mut scratch = QGramScratch::new();
        scratch.load(&QGramProfile::new(&a, q));
        let pb = QGramProfile::new(&b, other_q);
        prop_assert_eq!(scratch.mask_bound(&pb), 0);
        for limit in 0..=2 * a.len().max(b.len()) {
            prop_assert!(!scratch.exceeds(&pb, limit));
        }
    }
}

#[test]
fn unloaded_scratch_never_exceeds() {
    let scratch = QGramScratch::new();
    let p = QGramProfile::new(&Strand::random(50, &mut seeded(3)), 5);
    assert_eq!(scratch.mask_bound(&p), 0);
    assert!(!scratch.exceeds(&p, 0));
}

/// On the archive's strand shape — 184 nt, 20-nt primers shared by every
/// strand — a read is a noisy copy of one reference and its clustering
/// candidates are mostly other references. At the default `q = 5` and
/// threshold 18, the mask bound alone must settle nearly all of those
/// pairs; if it stopped doing so, `exceeds` would still be exact but
/// would have fallen back to the scan on every candidate.
#[test]
fn mask_alone_settles_primer_flanked_pairs() {
    let (q, limit) = (5, 18);
    let mut rng = seeded(184);
    let forward = Strand::random(FLANK, &mut rng);
    let reverse = Strand::random(FLANK, &mut rng);
    let references: Vec<Strand> = (0..64)
        .map(|_| {
            forward
                .concat(&Strand::random(184 - 2 * FLANK, &mut rng))
                .concat(&reverse)
        })
        .collect();
    let profiles: Vec<QGramProfile> = references.iter().map(|r| QGramProfile::new(r, q)).collect();
    let mut scratch = QGramScratch::new();
    let (mut pairs, mut settled) = (0usize, 0usize);
    for (i, reference) in references.iter().enumerate() {
        let read = mutate(reference, 0.06, &mut rng);
        scratch.load(&QGramProfile::new(&read, q));
        for (j, profile) in profiles.iter().enumerate() {
            if i == j {
                continue;
            }
            pairs += 1;
            if scratch.mask_bound(profile) > limit {
                settled += 1;
            }
        }
        // A reference within the limit is never pruned.
        if levenshtein(read.as_bases(), reference.as_bases()) <= limit {
            assert!(!scratch.exceeds(&profiles[i], limit));
        }
    }
    assert!(
        settled * 100 >= pairs * 95,
        "mask settled only {settled} of {pairs} pairs"
    );
}

/// A pair of long strands whose masks are dense — at `q ≤ 5` a 1,000-nt
/// strand sets most of the 1,024 bits — so the AND carries bits in both
/// nibbles of nearly every byte: a noisy copy, or an unrelated strand.
fn dense_pair(seed: u64) -> (Strand, Strand) {
    let mut rng = seeded(seed);
    let a = Strand::random(600 + (rng.next_u64() % 600) as usize, &mut rng);
    let b = if rng.next_u64().is_multiple_of(2) {
        let rate = (rng.next_u64() % 30) as f64 / 100.0;
        mutate(&a, rate, &mut rng)
    } else {
        Strand::random(600 + (rng.next_u64() % 600) as usize, &mut rng)
    };
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The popcount runs on the active SIMD tier (AVX2 where the CPU has
    /// it, unless `DNASIM_SIMD=off`); it must give the scalar count.
    #[test]
    fn mask_bound_on_the_active_tier_equals_the_scalar_count(
        shape in 0u8..6,
        q in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let (a, b) = if shape == 5 { dense_pair(seed) } else { pair(shape, q, seed) };
        let (pa, pb) = (QGramProfile::new(&a, q), QGramProfile::new(&b, q));
        let mut scratch = QGramScratch::new();
        prop_assert_eq!(scratch.mask_bound(&pb), scratch.mask_bound_scalar(&pb));
        scratch.load(&pa);
        prop_assert_eq!(scratch.mask_bound(&pb), scratch.mask_bound_scalar(&pb));
        prop_assert_eq!(scratch.mask_bound(&pa), scratch.mask_bound_scalar(&pa));
        scratch.load(&pb);
        prop_assert_eq!(scratch.mask_bound(&pa), scratch.mask_bound_scalar(&pa));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exceeds_is_exactly_bound_above_limit_on_dense_masks(
        q in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let (a, b) = dense_pair(seed);
        let (pa, pb) = (QGramProfile::new(&a, q), QGramProfile::new(&b, q));
        let len = a.len().max(b.len());
        let mut scratch = QGramScratch::new();
        scratch.load(&pa);
        check_all_limits(&scratch, &pb, len, q);
        scratch.load(&pb);
        check_all_limits(&scratch, &pa, len, q);
    }
}

/// Near-full masks: 6,000-nt strands set almost every bit at `q = 5`, so
/// every byte of the AND is 0xff or close to it.
#[test]
fn full_masks_count_the_same_on_every_tier() {
    let mut rng = seeded(6000);
    let a = Strand::random(6000, &mut rng);
    let b = Strand::random(6000, &mut rng);
    for q in [4, 5, 6, 8] {
        let (pa, pb) = (QGramProfile::new(&a, q), QGramProfile::new(&b, q));
        let mut scratch = QGramScratch::new();
        scratch.load(&pa);
        assert_eq!(scratch.mask_bound(&pb), scratch.mask_bound_scalar(&pb), "q={q}");
        assert_eq!(scratch.mask_bound(&pa), scratch.mask_bound_scalar(&pa), "q={q}");
        // A strand against itself: the AND is its own mask.
        assert_eq!(scratch.mask_bound(&pa), 0, "q={q}");
    }
}
