//! Cross-crate integration tests: the full evaluation loop the paper runs,
//! exercised through the public facade.

use dnasim::cluster::GreedyClusterer;
use dnasim::metrics::ProfileKind;
use dnasim::pipeline::{post_reconstruction_profiles, pre_reconstruction_profiles};
use dnasim::prelude::*;

fn small_twin(clusters: usize) -> Dataset {
    let mut config = NanoporeTwinConfig::small();
    config.cluster_count = clusters;
    config.generate()
}

#[test]
fn profile_then_resimulate_preserves_aggregate_rate() {
    let real = small_twin(80);
    let mut rng = seeded(1);
    let stats = ErrorStats::from_dataset(&real, TieBreak::Random, &mut rng);
    let learned = LearnedModel::from_stats(&stats, 10);
    let real_rate = learned.aggregate_error_rate;

    // Resimulate with the learned model and re-profile the simulation.
    let model = KeoliyaModel::new(learned, SimulatorLayer::SecondOrder);
    let simulated =
        Simulator::new(model, CoverageModel::Fixed(0)).resimulate_matching(&real, &mut rng);
    let sim_stats = ErrorStats::from_dataset(&simulated, TieBreak::Random, &mut rng);
    let sim_rate = sim_stats.aggregate_error_rate();
    assert!(
        (sim_rate - real_rate).abs() / real_rate < 0.15,
        "simulated rate {sim_rate} vs real {real_rate}"
    );
}

#[test]
fn simulated_spatial_profile_tracks_real_profile() {
    let real = small_twin(80);
    let mut rng = seeded(2);
    let stats = ErrorStats::from_dataset(&real, TieBreak::Random, &mut rng);
    let learned = LearnedModel::from_stats(&stats, 10);
    let model = KeoliyaModel::new(learned, SimulatorLayer::SpatialSkew);
    let simulated =
        Simulator::new(model, CoverageModel::Fixed(0)).resimulate_matching(&real, &mut rng);

    let (_, real_gestalt) = pre_reconstruction_profiles(&real);
    let (_, sim_gestalt) = pre_reconstruction_profiles(&simulated);
    let real_rates = real_gestalt.rates();
    let sim_rates = sim_gestalt.rates();
    // Terminal positions must be inflated in both, interior flat in both.
    for rates in [&real_rates, &sim_rates] {
        let interior = rates[30..80].iter().sum::<f64>() / 50.0;
        assert!(rates[0] > 1.8 * interior, "head not skewed: {} vs {interior}", rates[0]);
        assert!(
            rates[109] > 1.8 * interior,
            "tail not skewed: {} vs {interior}",
            rates[109]
        );
    }
}

#[test]
fn reconstruction_profiles_have_paper_shapes() {
    let real = small_twin(120);
    let at_n5 = fixed_coverage_protocol(&real, 10, 5);

    // Iterative: Hamming errors grow toward the strand end (one-way).
    let (hamming, _) = post_reconstruction_profiles(&at_n5, &Iterative::default());
    let (head, _, tail) = hamming.thirds();
    assert!(
        tail > head,
        "iterative profile should rise toward the end: head {head}, tail {tail}"
    );

    // BMA: errors fold into the middle (two-way halves).
    let (bma_hamming, _) = post_reconstruction_profiles(&at_n5, &BmaLookahead::default());
    let (b_head, b_mid, b_tail) = bma_hamming.thirds();
    assert!(
        b_mid > 0.8 * b_head.max(b_tail),
        "bma profile should be middle-heavy: {b_head} / {b_mid} / {b_tail}"
    );
}

#[test]
fn imperfect_clustering_recovers_most_reads() {
    let real = small_twin(40);
    let references = real.references();
    let mut rng = seeded(3);
    let total = real.total_reads();
    let pool = real.into_read_pool(&mut rng);
    let (clustered, _) = GreedyClusterer::default().cluster_against_references(&pool, &references);
    assert_eq!(clustered.len(), 40);
    assert!(
        clustered.total_reads() * 10 >= total * 9,
        "recovered only {} of {total} reads",
        clustered.total_reads()
    );
}

#[test]
fn archive_round_trip_through_facade() {
    let mut rng = seeded(4);
    let payload: Vec<u8> = (0..300u32).map(|i| (i * 7 % 256) as u8).collect();
    let report = archive_round_trip(&payload, &ArchiveConfig::default(), &mut rng)
        .expect("round trip must succeed");
    assert_eq!(&report.data[..payload.len()], &payload[..]);
}

#[test]
fn fixed_coverage_protocol_prefix_property() {
    let real = small_twin(30);
    let n5 = fixed_coverage_protocol(&real, 10, 5);
    let n6 = fixed_coverage_protocol(&real, 10, 6);
    assert_eq!(n5.len(), n6.len());
    for (c5, c6) in n5.iter().zip(n6.iter()) {
        assert_eq!(c5.reads(), &c6.reads()[..c5.coverage()]);
    }
}

#[test]
fn dataset_io_round_trips_through_files() {
    let real = small_twin(20);
    let mut buffer = Vec::new();
    write_dataset(&real, &mut buffer).unwrap();
    let back = read_dataset(buffer.as_slice()).unwrap();
    assert_eq!(back, real);
}

#[test]
fn pre_reconstruction_hamming_dominates_gestalt() {
    let real = small_twin(30);
    let (hamming, gestalt) = pre_reconstruction_profiles(&real);
    assert!(hamming.total_errors() > gestalt.total_errors());
    assert_eq!(hamming.kind(), ProfileKind::Hamming);
    assert_eq!(gestalt.kind(), ProfileKind::GestaltAligned);
}

#[test]
fn profiler_learns_twin_homopolymer_boost() {
    // The twin inflates error rates inside homopolymer runs (≥3) by 1.8×;
    // the profiler must recover a boost meaningfully above 1.
    let real = small_twin(100);
    let mut rng = seeded(5);
    let stats = ErrorStats::from_dataset(&real, TieBreak::Random, &mut rng);
    let boost = stats.homopolymer_boost();
    assert!(
        boost > 1.15 && boost < 2.5,
        "learned homopolymer boost {boost}, twin uses 1.8"
    );
}

#[test]
fn persisted_model_simulates_identically() {
    // A LearnedModel survives the text round trip byte-for-byte in
    // simulation behaviour.
    let real = small_twin(40);
    let mut rng = seeded(6);
    let stats = ErrorStats::from_dataset(&real, TieBreak::Random, &mut rng);
    let model = LearnedModel::from_stats(&stats, 10);
    let restored = LearnedModel::from_text(&model.to_text()).unwrap();
    assert_eq!(restored, model);
    let a = KeoliyaModel::new(model, SimulatorLayer::SecondOrder);
    let b = KeoliyaModel::new(restored, SimulatorLayer::SecondOrder);
    let reference = Strand::random(110, &mut rng);
    assert_eq!(
        a.corrupt(&reference, &mut seeded(9)),
        b.corrupt(&reference, &mut seeded(9))
    );
}
