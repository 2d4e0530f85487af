//! Differential tests: the Myers bit-parallel kernels against the scalar
//! DP oracle, plus the `PackedStrand` representation properties the
//! kernels rely on.
//!
//! This is the workspace's correctness contract for the fast path
//! (DESIGN.md §10): the scalar implementation in
//! `dnasim_metrics::levenshtein` is the oracle, and every kernel must
//! agree with it bit-for-bit — full distances, banded accept/reject
//! decisions, and the exact distances the band reports.

use dnasim_testkit::prelude::*;

use dnasim_core::{Base, PackedStrand, Strand};
use dnasim_metrics::{levenshtein, levenshtein_within, myers, MyersScratch};

fn strand(len: std::ops::Range<usize>) -> impl Strategy<Value = Strand> {
    dnasim_testkit::collection::vec(0usize..4, len).prop_map(|idx| {
        idx.into_iter()
            .map(|i| Base::from_index(i).expect("index < 4"))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline contract: Myers' full distance equals the scalar DP on
    /// arbitrary strand pairs, spanning one-word, boundary and multi-word
    /// pattern lengths.
    #[test]
    fn myers_distance_matches_scalar(a in strand(0..300), b in strand(0..300)) {
        let expect = levenshtein(a.as_bases(), b.as_bases());
        let (pa, pb) = (PackedStrand::from(&a), PackedStrand::from(&b));
        prop_assert_eq!(myers::distance(&pa, &pb), expect);
    }

    /// The unpacked entry point (patterns built into the scratch) is the
    /// same kernel: equal to the scalar DP through one reused scratch.
    #[test]
    fn myers_base_slices_match_scalar(
        pairs in dnasim_testkit::collection::vec((strand(0..300), strand(0..300)), 1..4),
    ) {
        let mut scratch = MyersScratch::new();
        for (a, b) in &pairs {
            prop_assert_eq!(
                myers::distance_bases_with(&mut scratch, a.as_bases(), b.as_bases()),
                levenshtein(a.as_bases(), b.as_bases())
            );
        }
    }

    /// The banded kernel mirrors the scalar band exactly: same Some/None
    /// decision, same reported distance.
    #[test]
    fn myers_within_matches_scalar_band(
        a in strand(0..300),
        b in strand(0..300),
        limit in 0usize..50,
    ) {
        let expect = levenshtein_within(a.as_bases(), b.as_bases(), limit);
        let (pa, pb) = (PackedStrand::from(&a), PackedStrand::from(&b));
        prop_assert_eq!(myers::within(&pa, &pb, limit), expect);
    }

    /// Distance is symmetric regardless of which operand the kernel picks
    /// as pattern.
    #[test]
    fn myers_distance_is_symmetric(a in strand(0..200), b in strand(0..200)) {
        let (pa, pb) = (PackedStrand::from(&a), PackedStrand::from(&b));
        prop_assert_eq!(myers::distance(&pa, &pb), myers::distance(&pb, &pa));
    }

    /// A reused scratch never leaks state between calls of different
    /// sizes: interleaving pairs through one scratch reproduces the
    /// fresh-scratch answers.
    #[test]
    fn scratch_reuse_is_stateless(
        pairs in dnasim_testkit::collection::vec((strand(0..180), strand(0..180)), 1..6),
        limit in 0usize..40,
    ) {
        let mut scratch = MyersScratch::new();
        for (a, b) in &pairs {
            let (pa, pb) = (PackedStrand::from(a), PackedStrand::from(b));
            prop_assert_eq!(
                myers::distance_with(&mut scratch, &pa, &pb),
                myers::distance(&pa, &pb)
            );
            prop_assert_eq!(
                myers::within_with(&mut scratch, &pa, &pb, limit),
                myers::within(&pa, &pb, limit)
            );
        }
    }

    /// Packing is lossless: PackedStrand round-trips to the identical
    /// strand, with matching length and per-position bases.
    #[test]
    fn packed_round_trip_is_lossless(a in strand(0..300)) {
        let packed = PackedStrand::from(&a);
        prop_assert_eq!(packed.len(), a.len());
        let back = Strand::from(&packed);
        prop_assert_eq!(&back, &a);
        for (i, b) in a.iter().enumerate() {
            prop_assert_eq!(packed.get(i), Some(b));
        }
        prop_assert_eq!(packed.get(a.len()), None);
    }

    /// The four Eq-mask planes partition the positions: each position is
    /// set in exactly the plane of its base and cleared in the other
    /// three, and padding bits above the length stay zero.
    #[test]
    fn eq_masks_partition_positions(a in strand(0..300)) {
        let packed = PackedStrand::from(&a);
        for (i, base) in a.iter().enumerate() {
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            for candidate in Base::ALL {
                let set = packed.eq_masks(candidate)[word] & bit != 0;
                prop_assert_eq!(set, candidate == base, "pos {} base {:?}", i, candidate);
            }
        }
        // Padding bits never vote in the kernel.
        if a.len() % 64 != 0 && !a.is_empty() {
            let pad = !0u64 << (a.len() % 64);
            for candidate in Base::ALL {
                let last = packed.eq_masks(candidate)[a.len() / 64];
                prop_assert_eq!(last & pad, 0);
            }
        }
    }
}

/// Deterministic word-boundary and degenerate cases, pinned so a proptest
/// shrink regression can never silently drop them.
#[test]
fn boundary_and_degenerate_cases() {
    let cases: [(&str, &str); 10] = [
        ("", ""),
        ("", "ACGT"),
        ("ACGT", ""),
        ("A", "A"),
        ("A", "T"),
        ("AGCG", "AGG"),
        // 63/64/65: the one-word ↔ blocked kernel boundary.
        (&"AC".repeat(32)[..63], &"AC".repeat(32)),
        (&"AC".repeat(32), &"AC".repeat(33)[..65]),
        // 110 nt — the dataset's strand length (two-word pattern).
        (&"ACGTT".repeat(22), &"ACGTA".repeat(22)),
        (&"G".repeat(128), &"G".repeat(129)),
    ];
    for (a, b) in cases {
        let (sa, sb): (Strand, Strand) = (a.parse().unwrap(), b.parse().unwrap());
        let (pa, pb) = (PackedStrand::from(&sa), PackedStrand::from(&sb));
        let expect = levenshtein(sa.as_bases(), sb.as_bases());
        assert_eq!(myers::distance(&pa, &pb), expect, "{a:?} vs {b:?}");
        for limit in [0usize, 1, expect.saturating_sub(1), expect, expect + 1, 50] {
            assert_eq!(
                myers::within(&pa, &pb, limit),
                levenshtein_within(sa.as_bases(), sb.as_bases(), limit),
                "{a:?} vs {b:?} at limit {limit}"
            );
        }
    }
}

/// Fully disjoint alphabets maximise the distance; the band must reject at
/// any limit below the full length and accept at it.
#[test]
fn disjoint_strands_hit_the_upper_bound() {
    let a: Strand = "A".repeat(150).parse().unwrap();
    let b: Strand = "T".repeat(150).parse().unwrap();
    let (pa, pb) = (PackedStrand::from(&a), PackedStrand::from(&b));
    assert_eq!(myers::distance(&pa, &pb), 150);
    assert_eq!(myers::within(&pa, &pb, 149), None);
    assert_eq!(myers::within(&pa, &pb, 150), Some(150));
}

/// Multi-pattern tier contract (DESIGN.md §15): every lane of a bank must
/// report exactly what the single-pattern banded kernel reports — same
/// Some/None decision, same distance — and the pinned scalar backend must
/// agree with whatever backend the runtime dispatcher picked. The verify
/// harness runs this file twice (default and `DNASIM_SIMD=off`) so both
/// sides of the dispatch are exercised.
mod bank_tier {
    use super::*;
    use dnasim_metrics::bank::bank_within_scalar_with;
    use dnasim_metrics::{bank_distances_with, bank_within_with, BankScratch, PatternBank};

    /// Builds `lanes` patterns out of a flat base pool, all within the
    /// same 64-bit word band (the bank's shape precondition).
    fn build_patterns(
        pool: &[usize],
        words: usize,
        lanes: usize,
        offsets: &[usize],
    ) -> Vec<Strand> {
        let lo = (words - 1) * 64 + 1;
        let hi = (words * 64).min(300);
        let mut patterns = Vec::with_capacity(lanes);
        let mut cursor = 0usize;
        for &offset in offsets.iter().take(lanes) {
            let len = lo + offset % (hi - lo + 1);
            let s: Strand = pool[cursor..cursor + len]
                .iter()
                .map(|&i| Base::from_index(i).expect("index < 4"))
                .collect();
            cursor += len;
            patterns.push(s);
        }
        patterns
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bank_lanes_match_the_single_pattern_band(
            pool in dnasim_testkit::collection::vec(0usize..4, 2400..2401),
            words in 1usize..6,
            lanes_sel in 0usize..4,
            offsets in dnasim_testkit::collection::vec(0usize..64, 8..9),
            text in strand(0..300),
            limit in 0usize..80,
        ) {
            let lanes = [1usize, 2, 4, 8][lanes_sel];
            let patterns = build_patterns(&pool, words, lanes, &offsets);
            let packed: Vec<PackedStrand> = patterns.iter().map(PackedStrand::from).collect();
            let refs: Vec<&PackedStrand> = packed.iter().collect();
            let bank = PatternBank::new(&refs).expect("uniform word counts");
            let pt = PackedStrand::from(&text);
            let mut scratch = BankScratch::new();

            let mut banded = Vec::new();
            bank_within_with(&mut scratch, &bank, &pt, limit, &mut banded);
            prop_assert_eq!(banded.len(), lanes);

            // The pinned scalar backend and the dispatched backend agree.
            let mut scalar = Vec::new();
            bank_within_scalar_with(&mut scratch, &bank, &pt, limit, &mut scalar);
            prop_assert_eq!(&banded, &scalar);

            let mut full = Vec::new();
            bank_distances_with(&mut scratch, &bank, &pt, &mut full);
            prop_assert_eq!(full.len(), lanes);

            for (lane, pat) in packed.iter().enumerate() {
                let d = myers::distance(pat, &pt);
                prop_assert_eq!(full[lane], d, "distances lane {}", lane);
                prop_assert_eq!(
                    banded[lane],
                    myers::within(pat, &pt, limit),
                    "within lane {}", lane
                );
                // Whenever the true distance fits the band, the lane must
                // report exactly it — never a different in-band value.
                if d <= limit {
                    prop_assert_eq!(banded[lane], Some(d), "lane {}", lane);
                } else {
                    prop_assert_eq!(banded[lane], None, "lane {}", lane);
                }
            }
        }
    }
}
