//! Property-based tests for the profiler: the Appendix-B edit-script
//! recovery and the statistics built on it.

use dnasim_testkit::prelude::*;

use dnasim_channel::{ErrorModel, NaiveModel};
use dnasim_core::rng::seeded;
use dnasim_core::{Base, Strand};
use dnasim_profile::{edit_script, ErrorStats, LearnedModel, TieBreak};

fn strand(len: std::ops::Range<usize>) -> impl Strategy<Value = Strand> {
    dnasim_testkit::collection::vec(0usize..4, len).prop_map(|idx| {
        idx.into_iter()
            .map(|i| Base::from_index(i).expect("index < 4"))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scripts_reproduce_reads_for_both_tiebreaks(
        a in strand(0..60),
        b in strand(0..60),
        seed in any::<u64>(),
    ) {
        for tb in [TieBreak::Random, TieBreak::PreferSubstitution] {
            let mut rng = seeded(seed);
            let script = edit_script(&a, &b, tb, &mut rng);
            prop_assert_eq!(script.apply(&a).unwrap(), b.clone());
            // Minimality: op count never exceeds the trivial bound.
            prop_assert!(script.error_count() <= a.len() + b.len());
        }
    }

    #[test]
    fn script_positions_are_within_reference(
        a in strand(1..50),
        b in strand(0..50),
        seed in any::<u64>(),
    ) {
        let mut rng = seeded(seed);
        let script = edit_script(&a, &b, TieBreak::Random, &mut rng);
        let mut pos = 0;
        for &op in script.ops() {
            if op.is_error() {
                prop_assert!(pos <= a.len());
            }
            pos += op.reference_advance();
        }
    }

    #[test]
    fn stats_error_count_matches_script_errors(
        reference in strand(10..60),
        seed in any::<u64>(),
        rate in 0.0f64..0.2,
    ) {
        let model = NaiveModel::with_total_rate(rate);
        let mut rng = seeded(seed);
        let reads: Vec<Strand> =
            (0..4).map(|_| model.corrupt(&reference, &mut rng)).collect();
        let mut stats = ErrorStats::new();
        let mut expected = 0usize;
        for read in &reads {
            let script = edit_script(&reference, read, TieBreak::PreferSubstitution, &mut rng);
            expected += script.error_count();
            stats.record_script(&reference, &script);
        }
        prop_assert_eq!(stats.total_errors(), expected);
        prop_assert_eq!(stats.read_count(), 4);
    }

    #[test]
    fn conditional_probabilities_are_probabilities(
        reference in strand(20..60),
        seed in any::<u64>(),
    ) {
        let model = NaiveModel::with_total_rate(0.2);
        let mut rng = seeded(seed);
        let mut stats = ErrorStats::new();
        for _ in 0..5 {
            let read = model.corrupt(&reference, &mut rng);
            stats.record_pair(&reference, &read, TieBreak::Random, &mut rng);
        }
        use dnasim_core::ErrorKind;
        for base in Base::ALL {
            for kind in ErrorKind::ALL {
                let p = stats.conditional_probability(base, kind);
                prop_assert!((0.0..=1.0).contains(&p), "{base} {kind}: {p}");
            }
            let dist = stats.substitution_distribution(base);
            let total: f64 = dist.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9 || total.abs() < 1e-9);
        }
    }

    #[test]
    fn learned_model_fields_are_finite_and_bounded(
        reference in strand(20..60),
        seed in any::<u64>(),
    ) {
        let model = NaiveModel::with_total_rate(0.15);
        let mut rng = seeded(seed);
        let mut stats = ErrorStats::new();
        for _ in 0..6 {
            let read = model.corrupt(&reference, &mut rng);
            stats.record_pair(&reference, &read, TieBreak::Random, &mut rng);
        }
        let learned = LearnedModel::from_stats(&stats, 5);
        prop_assert!(learned.aggregate_error_rate.is_finite());
        prop_assert!(learned.aggregate_error_rate >= 0.0);
        prop_assert!(learned.second_order.len() <= 5);
        prop_assert!(learned.second_order.iter().map(|e| e.share).sum::<f64>() <= 1.0 + 1e-9);
        prop_assert!(learned.homopolymer_boost.is_finite());
        prop_assert!(learned.homopolymer_boost > 0.0);
        for m in &learned.spatial_multipliers {
            prop_assert!(m.is_finite() && *m >= 0.0);
        }
        // Spatial multipliers have mean 1.0 (or are all 1.0 when no errors).
        if !learned.spatial_multipliers.is_empty() {
            let mean = learned.spatial_multipliers.iter().sum::<f64>()
                / learned.spatial_multipliers.len() as f64;
            prop_assert!((mean - 1.0).abs() < 1e-6, "mean {mean}");
        }
    }

    #[test]
    fn merge_is_equivalent_to_sequential_recording(
        reference in strand(10..40),
        seed in any::<u64>(),
    ) {
        let model = NaiveModel::with_total_rate(0.1);
        let mut rng = seeded(seed);
        let reads: Vec<Strand> =
            (0..6).map(|_| model.corrupt(&reference, &mut rng)).collect();
        // Deterministic tie-break so both paths see identical scripts.
        let mut all = ErrorStats::new();
        for read in &reads {
            all.record_pair(&reference, read, TieBreak::PreferSubstitution, &mut rng);
        }
        let mut left = ErrorStats::new();
        for read in &reads[..3] {
            left.record_pair(&reference, read, TieBreak::PreferSubstitution, &mut rng);
        }
        let mut right = ErrorStats::new();
        for read in &reads[3..] {
            right.record_pair(&reference, read, TieBreak::PreferSubstitution, &mut rng);
        }
        left.merge(&right);
        prop_assert_eq!(left, all);
    }
}
