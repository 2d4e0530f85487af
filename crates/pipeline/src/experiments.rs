//! The paper's experiments, runnable end-to-end.
//!
//! [`Experiments`] owns the "real" dataset (the Nanopore twin), the learned
//! error model, and a seed sequence, and exposes one method per table /
//! figure. The `repro` harness and the CLI only format what these return.

use dnasim_channel::{
    CoverageModel, DnaSimulatorModel, ErrorModel, KeoliyaModel, ParametricModel, Simulator,
    SimulatorLayer, SpatialDistribution,
};
use dnasim_core::rng::{SeedSequence, SimRng};
use dnasim_core::{
    Batch, Cluster, ClusterSink, Dataset, DnasimError, EditOp, WindowStats,
};
use dnasim_metrics::PositionalProfile;
use dnasim_par::{RunCtx, ThreadPool};
use dnasim_profile::{cluster_pairs, profile_pairs, ErrorStats, LearnedModel, ReadPair, TieBreak};
use dnasim_reconstruct::{
    BmaLookahead, DividerBma, Iterative, MsaReconstructor, TraceReconstructor, TwoWayIterative,
    WeightedIterative,
};
use dnasim_dataset::NanoporeTwinConfig;

use crate::evaluate::{
    accuracy_of, evaluate_reconstruction, fixed_coverage_protocol, post_reconstruction_profiles,
    pre_reconstruction_profiles, reconstruct_all, residual_deletion_share,
};
use crate::table::{AccuracyCell, Table, TableRow};

/// Maximum number of reads fed to the profiler when learning the model
/// (keeps `Experiments::new` fast at paper scale without biasing the
/// statistics — reads are homogeneous across clusters).
const PROFILE_READ_CAP: usize = 40_000;

/// Minimum real coverage required by the fixed-coverage protocol (§3.2
/// discards clusters with fewer than 10 reads).
const PROTOCOL_MIN_COVERAGE: usize = 10;

/// Clusters per window when streaming the twin through the profiler.
const GENERATE_BATCH: usize = 256;

/// Accumulates the twin *and* learns the error model in one streaming
/// pass: each batch is profiled on the pool as it arrives (until
/// [`PROFILE_READ_CAP`]) and then appended to the dataset, so model
/// learning never waits for — or re-traverses — the fully materialised
/// twin.
///
/// Reads are profiled in the order the old two-phase code (generate, then
/// iterate) visited them, and [`profile_pairs`] draws the tie-breaks as
/// that serial loop did, so the profiler's RNG stream and the learned
/// statistics are byte-identical at every thread count.
struct ProfilingTee {
    clusters: Vec<Cluster>,
    stats: ErrorStats,
    rng: SimRng,
    pool: ThreadPool,
    seen: usize,
}

impl ProfilingTee {
    fn new(pool: &ThreadPool, seeds: &SeedSequence, clusters: usize) -> ProfilingTee {
        ProfilingTee {
            clusters: Vec::with_capacity(clusters),
            stats: ErrorStats::new(),
            rng: seeds.derive_rng("profiler"),
            pool: *pool,
            seen: 0,
        }
    }

    /// Profiles the reads of `clusters` that are still under the cap,
    /// then keeps the clusters.
    fn absorb(&mut self, clusters: Vec<Cluster>) {
        let pairs: Vec<ReadPair<'_>> = cluster_pairs(&clusters)
            .take(PROFILE_READ_CAP.saturating_sub(self.seen))
            .collect();
        if !pairs.is_empty() {
            let pass = profile_pairs(&self.pool, &pairs, TieBreak::Random, &mut self.rng);
            self.stats.merge(&pass.stats);
            self.seen += pairs.len();
        }
        self.clusters.extend(clusters);
    }
}

impl ClusterSink for ProfilingTee {
    fn accept(&mut self, batch: Batch) -> Result<(), DnasimError> {
        self.absorb(batch.into_clusters());
        Ok(())
    }
}

/// The experiment context: twin dataset + learned model + seeds.
#[derive(Debug)]
pub struct Experiments {
    twin: Dataset,
    learned: LearnedModel,
    stats: ErrorStats,
    seeds: SeedSequence,
    generation: WindowStats,
}

impl Experiments {
    /// Generates the twin and learns the simulator parameters from it, in
    /// one streaming pass (each generated window is profiled immediately,
    /// then absorbed into the dataset).
    pub fn new(config: &NanoporeTwinConfig) -> Experiments {
        // Domain-separate the experiment streams from the twin generator's
        // via the named-derive discipline rather than ad-hoc xor arithmetic
        // (see DESIGN.md §9: seed-forking contract).
        let seeds = SeedSequence::new(SeedSequence::new(config.seed).derive("experiments"));
        let pool = ThreadPool::from_env();
        let mut tee = ProfilingTee::new(&pool, &seeds, config.cluster_count);
        let generated =
            RunCtx::new(&pool, GENERATE_BATCH).and_then(|ctx| config.generate_in(&ctx, &mut tee));
        let generation = match generated {
            Ok(stats) => stats,
            Err(_) => {
                // A worker died mid-stream: generate and profile again on
                // one thread (same bytes, no parallel machinery).
                tee = ProfilingTee::new(&ThreadPool::serial(), &seeds, config.cluster_count);
                let mut stats = WindowStats::default();
                for cluster in config.generate() {
                    stats.record_window(1, cluster.reads().len());
                    tee.absorb(vec![cluster]);
                }
                stats
            }
        };
        let twin = Dataset::from_clusters(tee.clusters);
        let learned = LearnedModel::from_stats(&tee.stats, 10);
        Experiments {
            twin,
            learned,
            stats: tee.stats,
            seeds,
            generation,
        }
    }

    /// Window statistics of the streaming twin generation: batches,
    /// cluster high-watermark, and the peak-resident-reads gauge.
    pub fn generation_stats(&self) -> WindowStats {
        self.generation
    }

    /// The "real" dataset (the Nanopore twin).
    pub fn twin(&self) -> &Dataset {
        &self.twin
    }

    /// The model the profiler learned from the twin.
    pub fn learned(&self) -> &LearnedModel {
        &self.learned
    }

    /// The raw profiling statistics.
    pub fn stats(&self) -> &ErrorStats {
        &self.stats
    }

    /// Resimulates the twin with the given model at *custom coverage*
    /// (each simulated cluster gets its real counterpart's coverage).
    pub fn resimulate<M: ErrorModel>(&self, model: M, label: &str) -> Dataset {
        let mut rng = self.seeds.derive_rng(label);
        Simulator::new(model, CoverageModel::Fixed(0)).resimulate_matching(&self.twin, &mut rng)
    }

    /// The layered simulator at `layer`, built from the learned model.
    pub fn keoliya(&self, layer: SimulatorLayer) -> KeoliyaModel {
        KeoliyaModel::new(self.learned.clone(), layer)
    }

    /// **Table 2.1** — per-strand accuracy of BMA / DivBMA / Iterative on
    /// the real data, the naive simulator and DNASimulator at custom
    /// coverage, and DNASimulator at fixed coverage 26.
    pub fn table_2_1(&self) -> Table {
        let algos: Vec<Box<dyn TraceReconstructor>> = vec![
            Box::new(BmaLookahead::default()),
            Box::new(DividerBma),
            Box::new(Iterative::default()),
        ];
        let mut rows = Vec::new();
        let mut push_row = |label: &str, dataset: &Dataset| {
            let cells = algos
                .iter()
                .map(|algo| {
                    (
                        algo.name(),
                        AccuracyCell::from(evaluate_reconstruction(dataset, algo)),
                    )
                })
                .collect();
            rows.push(TableRow {
                label: label.to_owned(),
                cells,
            });
        };

        push_row("Real Nanopore", &self.twin);
        push_row(
            "Naive Simulator",
            &self.resimulate(self.keoliya(SimulatorLayer::Naive), "t2.1-naive"),
        );
        push_row(
            "DNASimulator",
            &self.resimulate(DnaSimulatorModel::nanopore_default(), "t2.1-dnasim"),
        );
        // Fixed coverage 26 for every cluster.
        let fixed = {
            let mut rng = self.seeds.derive_rng("t2.1-dnasim-fixed");
            Simulator::new(
                DnaSimulatorModel::nanopore_default(),
                CoverageModel::Fixed(26),
            )
            .simulate(&self.twin.references(), &mut rng)
        };
        push_row("DNASimulator (26)", &fixed);
        Table {
            title: "Table 2.1: per-strand accuracy on real vs simulated data (custom coverage)"
                .to_owned(),
            rows,
        }
    }

    /// **Table 2.2** — BMA and Iterative accuracy at fixed coverages 5 and
    /// 6 on the real data and DNASimulator.
    pub fn table_2_2(&self) -> Table {
        let mut rows = Vec::new();
        for coverage in [5usize, 6] {
            let real = fixed_coverage_protocol(&self.twin, PROTOCOL_MIN_COVERAGE, coverage);
            rows.push(self.accuracy_row(&format!("Nanopore (N={coverage})"), &real));
            let sim = self.resimulate(
                DnaSimulatorModel::nanopore_default(),
                &format!("t2.2-dnasim-{coverage}"),
            );
            let sim = fixed_coverage_protocol(&sim, PROTOCOL_MIN_COVERAGE, coverage);
            rows.push(self.accuracy_row(&format!("DNASimulator (N={coverage})"), &sim));
        }
        Table {
            title: "Table 2.2: accuracy at fixed coverage".to_owned(),
            rows,
        }
    }

    /// **Tables 3.1 / 3.2** — the simulator-layer ablation at fixed
    /// coverage `n` (5 for Table 3.1, 6 for Table 3.2): real data, then
    /// each refinement layer of this paper's simulator.
    pub fn ablation_table(&self, coverage: usize) -> Table {
        let mut rows = Vec::new();
        let real = fixed_coverage_protocol(&self.twin, PROTOCOL_MIN_COVERAGE, coverage);
        rows.push(self.accuracy_row("Nanopore", &real));
        for layer in SimulatorLayer::ALL {
            let sim = self.resimulate(
                self.keoliya(layer),
                &format!("ablation-{}-{coverage}", layer.label()),
            );
            let sim = fixed_coverage_protocol(&sim, PROTOCOL_MIN_COVERAGE, coverage);
            rows.push(self.accuracy_row(layer.label(), &sim));
        }
        Table {
            title: format!(
                "Table 3.{}: simulator-layer ablation at N = {coverage}",
                if coverage == 5 { "1" } else { "2" }
            ),
            rows,
        }
    }

    /// A row with BMA and Iterative (per-strand, per-char) cells.
    fn accuracy_row(&self, label: &str, dataset: &Dataset) -> TableRow {
        let bma = evaluate_reconstruction(dataset, &BmaLookahead::default());
        let iterative = evaluate_reconstruction(dataset, &Iterative::default());
        TableRow {
            label: label.to_owned(),
            cells: vec![
                ("bma".to_owned(), bma.into()),
                ("iterative".to_owned(), iterative.into()),
            ],
        }
    }

    /// **Fig. 3.2** — pre-reconstruction Hamming and gestalt-aligned error
    /// profiles of the real data.
    pub fn fig_3_2(&self) -> (PositionalProfile, PositionalProfile) {
        pre_reconstruction_profiles(&self.twin)
    }

    /// **Fig. 3.3** — Iterative accuracy at coverages `1..=max_coverage`
    /// under the fixed-coverage protocol.
    pub fn coverage_sweep(&self, max_coverage: usize) -> Vec<(usize, AccuracyCell)> {
        (1..=max_coverage)
            .map(|n| {
                let ds = fixed_coverage_protocol(&self.twin, PROTOCOL_MIN_COVERAGE, n);
                let report = evaluate_reconstruction(&ds, &Iterative::default());
                (n, report.into())
            })
            .collect()
    }

    /// **Figs. 3.4 / C.1** — post-reconstruction profiles of the real data
    /// at the given coverage, for BMA and Iterative. Returns
    /// `[(algorithm, hamming, gestalt); 2]`.
    pub fn post_profiles_real(
        &self,
        coverage: usize,
    ) -> Vec<(String, PositionalProfile, PositionalProfile)> {
        let ds = fixed_coverage_protocol(&self.twin, PROTOCOL_MIN_COVERAGE, coverage);
        self.post_profiles_for(&ds)
    }

    /// **Figs. 3.5 / C.2 / C.3** — post-reconstruction profiles of
    /// simulated data at the given simulator layer and coverage.
    pub fn post_profiles_simulated(
        &self,
        layer: SimulatorLayer,
        coverage: usize,
    ) -> Vec<(String, PositionalProfile, PositionalProfile)> {
        let sim = self.resimulate(
            self.keoliya(layer),
            &format!("post-profiles-{}-{coverage}", layer.label()),
        );
        let ds = fixed_coverage_protocol(&sim, PROTOCOL_MIN_COVERAGE, coverage);
        self.post_profiles_for(&ds)
    }

    fn post_profiles_for(
        &self,
        dataset: &Dataset,
    ) -> Vec<(String, PositionalProfile, PositionalProfile)> {
        let mut out = Vec::new();
        let bma = BmaLookahead::default();
        let (h, g) = post_reconstruction_profiles(dataset, &bma);
        out.push((bma.name(), h, g));
        let iterative = Iterative::default();
        let (h, g) = post_reconstruction_profiles(dataset, &iterative);
        out.push((iterative.name(), h, g));
        out
    }

    /// **Fig. 3.6** — the top-k second-order errors and their positional
    /// distributions, as learned from the real data.
    pub fn second_order_analysis(&self, k: usize) -> Vec<(EditOp, usize, Vec<usize>)> {
        self.stats
            .top_second_order(k)
            .0
            .into_iter()
            .map(|(op, stat)| (op, stat.count, stat.positional.clone()))
            .collect()
    }

    /// **Figs. 3.7 / 3.8** — post-reconstruction profiles of uniformly
    /// distributed errors at rate `p` and the given coverage.
    pub fn uniform_profiles(
        &self,
        p: f64,
        coverage: usize,
    ) -> Vec<(String, PositionalProfile, PositionalProfile)> {
        let ds = self.parametric_dataset(p, SpatialDistribution::Uniform, coverage);
        self.post_profiles_for(&ds)
    }

    /// **Fig. 3.9** — the pre-reconstruction positional error rates of
    /// A-shaped and V-shaped simulated data at rate `p`, confirming equal
    /// aggregate error with different placement.
    pub fn shaped_pre_profiles(&self, p: f64) -> Vec<(String, PositionalProfile)> {
        [SpatialDistribution::AShaped, SpatialDistribution::VShaped]
            .into_iter()
            .map(|shape| {
                let label = shape.to_string();
                let ds = self.parametric_dataset(p, shape, 5);
                let (_, gestalt) = pre_reconstruction_profiles(&ds);
                (label, gestalt)
            })
            .collect()
    }

    /// **Fig. 3.10** — post-reconstruction BMA profiles on A-shaped vs
    /// V-shaped data at rate `p` and coverage `n`.
    pub fn shaped_bma_profiles(
        &self,
        p: f64,
        coverage: usize,
    ) -> Vec<(String, PositionalProfile, PositionalProfile, AccuracyCell)> {
        [SpatialDistribution::AShaped, SpatialDistribution::VShaped]
            .into_iter()
            .map(|shape| {
                let label = shape.to_string();
                let ds = self.parametric_dataset(p, shape, coverage);
                let bma = BmaLookahead::default();
                let (h, g) = post_reconstruction_profiles(&ds, &bma);
                let acc = evaluate_reconstruction(&ds, &bma);
                (label, h, g, acc.into())
            })
            .collect()
    }

    /// **§3.4.1** — the sensitivity grid: accuracy of BMA and Iterative at
    /// every (error rate, coverage) combination under uniform spatial
    /// distribution, plus the deletion share of Iterative's residual
    /// errors.
    pub fn sensitivity_grid(
        &self,
        rates: &[f64],
        coverages: &[usize],
    ) -> Vec<SensitivityPoint> {
        let pool = ThreadPool::from_env();
        let mut out = Vec::new();
        for &p in rates {
            for &n in coverages {
                let ds = self.parametric_dataset(p, SpatialDistribution::Uniform, n);
                let bma = evaluate_reconstruction(&ds, &BmaLookahead::default());
                // One Iterative pass serves both the accuracy and the
                // residual-kind split.
                let iterative = reconstruct_all(&ds, &Iterative::default(), &pool);
                let deletion_share = residual_deletion_share(
                    ds.clusters(),
                    &iterative,
                    &mut self.seeds.derive_rng("residual-kinds"),
                );
                out.push(SensitivityPoint {
                    error_rate: p,
                    coverage: n,
                    bma: bma.into(),
                    iterative: accuracy_of(ds.clusters(), &iterative).into(),
                    iterative_residual_deletion_share: deletion_share,
                });
            }
        }
        out
    }

    /// **fidelity** — the §3.1 closed-form fidelity distances of every
    /// simulator layer against the real data (complements the
    /// accuracy-based tables).
    pub fn fidelity_by_layer(&self) -> Vec<(String, crate::FidelityReport)> {
        let mut rng = self.seeds.derive_rng("fidelity");
        let mut out = Vec::new();
        for layer in SimulatorLayer::ALL {
            let sim = self.resimulate(self.keoliya(layer), &format!("fidelity-{}", layer.label()));
            let report = crate::simulator_fidelity(&self.twin, &sim, &mut rng);
            out.push((layer.label().to_owned(), report));
        }
        let dnasim = self.resimulate(DnaSimulatorModel::nanopore_default(), "fidelity-dnasim");
        out.push((
            "DNASimulator".to_owned(),
            crate::simulator_fidelity(&self.twin, &dnasim, &mut rng),
        ));
        out
    }

    /// **ext-layers** — extensions beyond the paper's four layers: the
    /// learned homopolymer modulation (its §2.2.3 gap) and the §4.3
    /// full-error-histogram model, appended to the ablation at coverage
    /// `n`.
    pub fn extensions_table(&self, coverage: usize) -> Table {
        use dnasim_channel::FullHistogramModel;
        let mut rows = Vec::new();
        let real = fixed_coverage_protocol(&self.twin, PROTOCOL_MIN_COVERAGE, coverage);
        rows.push(self.accuracy_row("Nanopore", &real));
        let second = self.resimulate(
            self.keoliya(SimulatorLayer::SecondOrder),
            &format!("ext-layers-second-{coverage}"),
        );
        rows.push(self.accuracy_row(
            "+ 2nd-order Errors",
            &fixed_coverage_protocol(&second, PROTOCOL_MIN_COVERAGE, coverage),
        ));
        let homopolymer = self.resimulate(
            self.keoliya(SimulatorLayer::SecondOrder)
                .with_homopolymer_modulation(),
            &format!("ext-layers-homopolymer-{coverage}"),
        );
        rows.push(self.accuracy_row(
            "+ Homopolymer",
            &fixed_coverage_protocol(&homopolymer, PROTOCOL_MIN_COVERAGE, coverage),
        ));
        let histogram = self.resimulate(
            FullHistogramModel::from_stats(&self.stats),
            &format!("ext-layers-histogram-{coverage}"),
        );
        rows.push(self.accuracy_row(
            "Full histogram",
            &fixed_coverage_protocol(&histogram, PROTOCOL_MIN_COVERAGE, coverage),
        ));
        Table {
            title: format!("Extension layers beyond the paper (N = {coverage})"),
            rows,
        }
    }

    /// **ext-twoway** — the paper's proposed improvement: Iterative vs
    /// Two-Way Iterative on terminally-skewed (real-like) and uniform
    /// data.
    pub fn two_way_comparison(&self, coverage: usize) -> Table {
        let mut rows = Vec::new();
        let algos: Vec<Box<dyn TraceReconstructor>> = vec![
            Box::new(Iterative::default()),
            Box::new(TwoWayIterative::default()),
            Box::new(WeightedIterative::default()),
            Box::new(MsaReconstructor),
            Box::new(BmaLookahead::default()),
        ];
        let mut push_row = |label: &str, ds: &Dataset| {
            let cells = algos
                .iter()
                .map(|a| (a.name(), AccuracyCell::from(evaluate_reconstruction(ds, a))))
                .collect();
            rows.push(TableRow {
                label: label.to_owned(),
                cells,
            });
        };
        let real = fixed_coverage_protocol(&self.twin, PROTOCOL_MIN_COVERAGE, coverage);
        push_row("Nanopore (terminal skew)", &real);
        let skewed = {
            let sim = self.resimulate(
                self.keoliya(SimulatorLayer::SecondOrder),
                &format!("twoway-skewed-{coverage}"),
            );
            fixed_coverage_protocol(&sim, PROTOCOL_MIN_COVERAGE, coverage)
        };
        push_row("Simulated (skewed)", &skewed);
        let uniform = self.parametric_dataset(0.059, SpatialDistribution::Uniform, coverage);
        push_row("Simulated (uniform)", &uniform);
        Table {
            title: format!("Two-way Iterative extension (N = {coverage})"),
            rows,
        }
    }

    /// Simulates a parametric dataset over the twin's references at fixed
    /// coverage `n`.
    fn parametric_dataset(&self, p: f64, shape: SpatialDistribution, n: usize) -> Dataset {
        let label = format!("parametric-{p}-{shape}-{n}");
        let mut rng = self.seeds.derive_rng(&label);
        Simulator::new(ParametricModel::new(p, shape), CoverageModel::Fixed(n))
            .simulate(&self.twin.references(), &mut rng)
    }
}

/// §4.3 multi-dataset robustness: a channel model learned on one dataset
/// should match *that* dataset after resimulation, and the mismatch when
/// transferred to a different technology quantifies how much it memorised
/// rather than generalised.
///
/// Rows: each dataset's real accuracy, in-domain resimulation, and the
/// A-trained model transferred to B.
pub fn cross_dataset_robustness(
    config_a: &NanoporeTwinConfig,
    config_b: &NanoporeTwinConfig,
    coverage: usize,
) -> Table {
    let exp_a = Experiments::new(config_a);
    let exp_b = Experiments::new(config_b);

    let row = |label: &str, ds: &Dataset| -> TableRow {
        let ds = fixed_coverage_protocol(ds, PROTOCOL_MIN_COVERAGE, coverage);
        let bma = evaluate_reconstruction(&ds, &BmaLookahead::default());
        let iterative = evaluate_reconstruction(&ds, &Iterative::default());
        TableRow {
            label: label.to_owned(),
            cells: vec![
                ("bma".to_owned(), bma.into()),
                ("iterative".to_owned(), iterative.into()),
            ],
        }
    };

    let sim_a_on_a = exp_a.resimulate(exp_a.keoliya(SimulatorLayer::SecondOrder), "robust-aa");
    let model_a_on_b = KeoliyaModel::new(exp_a.learned().clone(), SimulatorLayer::SecondOrder);
    let sim_a_on_b = exp_b.resimulate(model_a_on_b, "robust-ab");
    let sim_b_on_b = exp_b.resimulate(exp_b.keoliya(SimulatorLayer::SecondOrder), "robust-bb");

    Table {
        title: format!("Cross-dataset robustness (N = {coverage})"),
        rows: vec![
            row("A: real", exp_a.twin()),
            row("A: sim (trained on A)", &sim_a_on_a),
            row("B: real", exp_b.twin()),
            row("B: sim (trained on A)", &sim_a_on_b),
            row("B: sim (trained on B)", &sim_b_on_b),
        ],
    }
}

/// One point of the §3.4.1 sensitivity grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityPoint {
    /// Aggregate error rate p̄.
    pub error_rate: f64,
    /// Coverage N.
    pub coverage: usize,
    /// BMA accuracy.
    pub bma: AccuracyCell,
    /// Iterative accuracy.
    pub iterative: AccuracyCell,
    /// Fraction of Iterative's residual errors that are deletions.
    pub iterative_residual_deletion_share: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Experiments {
        let mut config = NanoporeTwinConfig::small();
        config.cluster_count = 60;
        config.erasure_count = 1;
        Experiments::new(&config)
    }

    #[test]
    fn learned_model_captures_twin_statistics() {
        let exp = tiny();
        let learned = exp.learned();
        // Aggregate rate near 5.9%.
        assert!(
            (learned.aggregate_error_rate - 0.059).abs() < 0.02,
            "learned rate {}",
            learned.aggregate_error_rate
        );
        // Terminal spatial skew discovered: ends hotter than the middle.
        assert!(learned.spatial_multiplier(0) > 1.5);
        assert!(learned.spatial_multiplier(109) > 1.5);
        assert!(learned.spatial_multiplier(55) < 1.2);
        // Long deletions discovered.
        assert!(learned.long_deletion.probability > 0.0);
        // Second-order errors retained.
        assert_eq!(learned.second_order.len(), 10);
    }

    #[test]
    fn table_2_1_simulators_overestimate_accuracy() {
        let exp = tiny();
        let table = exp.table_2_1();
        assert_eq!(table.rows.len(), 4);
        let real = table.row("Real Nanopore").unwrap();
        let naive = table.row("Naive Simulator").unwrap();
        // The paper's headline observation: simulated per-strand accuracy
        // exceeds real accuracy for the position-blind simulators.
        for algo in ["bma", "iterative"] {
            let real_acc = real.cell(algo).unwrap().per_strand;
            let naive_acc = naive.cell(algo).unwrap().per_strand;
            assert!(
                naive_acc > real_acc,
                "{algo}: naive {naive_acc} should exceed real {real_acc}"
            );
        }
    }

    #[test]
    fn ablation_layers_converge_toward_real() {
        let exp = tiny();
        let table = exp.ablation_table(5);
        assert_eq!(table.rows.len(), 5);
        let real = table.row("Nanopore").unwrap().cell("bma").unwrap();
        let naive = table.row("Naive Simulator").unwrap().cell("bma").unwrap();
        let skew = table.row("+ Spatial Skew").unwrap().cell("bma").unwrap();
        // Adding spatial skew moves BMA accuracy from the naive level
        // toward (down to) the real level. On this 60-cluster smoke config
        // the layers can tie, so equality is tolerated.
        assert!(naive.per_strand > real.per_strand);
        assert!(
            skew.per_strand <= naive.per_strand + 1e-9,
            "skew {} should not exceed naive {}",
            skew.per_strand,
            naive.per_strand
        );
    }

    #[test]
    fn coverage_sweep_increases_accuracy() {
        let exp = tiny();
        let sweep = exp.coverage_sweep(8);
        assert_eq!(sweep.len(), 8);
        let low = sweep[0].1.per_char;
        let high = sweep[7].1.per_char;
        assert!(high > low, "per-char at N=8 ({high}) !> N=1 ({low})");
    }

    #[test]
    fn fig_3_2_profiles_show_terminal_skew() {
        let exp = tiny();
        let (hamming, gestalt) = exp.fig_3_2();
        assert!(hamming.total_errors() > gestalt.total_errors());
        // Gestalt profile: ends hotter than middle.
        let rates = gestalt.rates();
        let mid = rates[40..70].iter().sum::<f64>() / 30.0;
        assert!(rates[0] > 2.0 * mid);
        assert!(rates[109] > 2.0 * mid);
        // End roughly 2× the start (allowing sampling noise).
        assert!(rates[109] > 1.2 * rates[0]);
    }

    #[test]
    fn second_order_analysis_returns_k_entries() {
        let exp = tiny();
        let top = exp.second_order_analysis(10);
        assert_eq!(top.len(), 10);
        // Ranked descending.
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
        // The twin's engineered skews should surface: some top error is an
        // insertion of A or a T→C substitution.
        use dnasim_core::Base;
        assert!(top.iter().any(|(op, _, _)| matches!(
            op,
            EditOp::Insert(Base::A)
                | EditOp::Subst {
                    orig: Base::T,
                    new: Base::C
                }
        )));
    }

    #[test]
    fn shaped_profiles_have_equal_aggregate() {
        let exp = tiny();
        let profiles = exp.shaped_pre_profiles(0.15);
        assert_eq!(profiles.len(), 2);
        let a_total = profiles[0].1.total_errors() as f64 / profiles[0].1.comparisons() as f64;
        let v_total = profiles[1].1.total_errors() as f64 / profiles[1].1.comparisons() as f64;
        assert!(
            (a_total - v_total).abs() / a_total < 0.1,
            "A {a_total} vs V {v_total}"
        );
    }

    #[test]
    fn bma_prefers_a_shape() {
        let exp = tiny();
        let shaped = exp.shaped_bma_profiles(0.15, 6);
        let a = &shaped[0];
        let v = &shaped[1];
        assert_eq!(a.0, "A-shaped");
        assert!(
            a.3.per_char > v.3.per_char,
            "BMA should prefer A-shaped: {} vs {}",
            a.3.per_char,
            v.3.per_char
        );
    }

    #[test]
    fn two_way_rescues_iterative_under_skew() {
        let exp = tiny();
        let table = exp.two_way_comparison(6);
        let real = table.row("Nanopore (terminal skew)").unwrap();
        let one_way = real.cell("iterative").unwrap();
        let two_way = real.cell("iterative-twoway").unwrap();
        assert!(
            two_way.per_char >= one_way.per_char,
            "two-way {} !>= one-way {}",
            two_way.per_char,
            one_way.per_char
        );
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;

    /// §4.3: a model learned on dataset A must not silently transfer to a
    /// different technology B — the in-domain simulator should always be
    /// closer to its own dataset than the transferred one.
    #[test]
    fn transfer_gap_exceeds_in_domain_gap() {
        let mut config_a = NanoporeTwinConfig::small();
        config_a.cluster_count = 60;
        let mut config_b = NanoporeTwinConfig::high_error_variant();
        config_b.cluster_count = 60;
        config_b.erasure_count = 1;
        let table = cross_dataset_robustness(&config_a, &config_b, 5);
        assert_eq!(table.rows.len(), 5);
        let real_b = table.row("B: real").unwrap().cell("bma").unwrap().per_strand;
        let transfer = table
            .row("B: sim (trained on A)")
            .unwrap()
            .cell("bma")
            .unwrap()
            .per_strand;
        let in_domain = table
            .row("B: sim (trained on B)")
            .unwrap()
            .cell("bma")
            .unwrap()
            .per_strand;
        assert!(
            (in_domain - real_b).abs() < (transfer - real_b).abs(),
            "in-domain {in_domain} should be closer to real {real_b} than transfer {transfer}"
        );
    }
}
