//! Composable multi-stage channel simulation.
//!
//! The paper's simulator (like DNASimulator) collapses all noise sources
//! into one aggregate injection pass, and its §4.2 names this the key
//! limitation: an ideal simulator should model synthesis, storage, PCR and
//! sequencing *separately and composably*. This module provides that
//! substrate: a [`MoleculePool`] of weighted molecules flows through
//! [`SynthesisStage`] → [`DecayStage`] → [`PcrStage`] → [`SequencingStage`],
//! each stage transforming it with its own characteristic noise
//! (deletion-dominated synthesis, amplification bias, substitution-only
//! PCR, IDS-heavy sequencing).

use dnasim_core::rng::SimRng;
use dnasim_core::{Cluster, Dataset, Strand};
use dnasim_core::rng::RngExt;

use crate::sampler::WeightedSampler;
use crate::model::ErrorModel;

/// One physical molecule species in the pool: a (possibly corrupted)
/// sequence, which reference it originated from, and its abundance.
#[derive(Debug, Clone, PartialEq)]
pub struct Molecule {
    /// Index of the reference strand this molecule descends from.
    pub origin: usize,
    /// The molecule's actual sequence.
    pub strand: Strand,
    /// Abundance (expected copy count); fractional because amplification
    /// factors are continuous.
    pub abundance: f64,
}

/// A pool of molecules flowing through the storage pipeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MoleculePool {
    molecules: Vec<Molecule>,
}

impl MoleculePool {
    /// Creates an empty pool.
    pub fn new() -> MoleculePool {
        MoleculePool::default()
    }

    /// The molecules in the pool.
    pub fn molecules(&self) -> &[Molecule] {
        &self.molecules
    }

    /// Number of distinct molecule species.
    pub fn species_count(&self) -> usize {
        self.molecules.len()
    }

    /// Total abundance across species.
    pub fn total_abundance(&self) -> f64 {
        self.molecules.iter().map(|m| m.abundance).sum()
    }

    /// Adds a molecule species.
    pub fn push(&mut self, molecule: Molecule) {
        self.molecules.push(molecule);
    }
}

/// Synthesis: writes reference strands into physical molecules.
///
/// Synthesis errors are dominated by deletions (Heckel et al.); each
/// reference yields several distinct synthesized *variants*, and a strand
/// can drop out entirely.
#[derive(Debug)]
pub struct SynthesisStage<M> {
    /// Error model applied per synthesized variant.
    pub error_model: M,
    /// Number of distinct variants synthesized per reference.
    pub variants_per_reference: usize,
    /// Probability a reference fails to synthesize at all.
    pub dropout_probability: f64,
    /// Mean abundance per variant.
    pub mean_abundance: f64,
}

impl<M: ErrorModel> SynthesisStage<M> {
    /// Runs synthesis over the references.
    pub fn run(&self, references: &[Strand], rng: &mut SimRng) -> MoleculePool {
        let mut pool = MoleculePool::new();
        for (origin, reference) in references.iter().enumerate() {
            self.run_group_into(origin, reference, rng, &mut pool);
        }
        pool
    }

    /// Synthesises one reference — one *strand group* — in isolation.
    ///
    /// All of a reference's synthesis draws (dropout, per-variant
    /// corruption, abundance) are already strictly sequential and touch
    /// no cross-reference state, so the stage shards cleanly: driving
    /// `run_group` per reference with an RNG forked from the group index
    /// generates molecule pools window-by-window, with peak residency one
    /// group instead of the whole archive. [`run`] is exactly this helper
    /// folded over the references with a single shared RNG.
    ///
    /// [`run`]: SynthesisStage::run
    pub fn run_group(&self, origin: usize, reference: &Strand, rng: &mut SimRng) -> MoleculePool {
        let mut pool = MoleculePool::new();
        self.run_group_into(origin, reference, rng, &mut pool);
        pool
    }

    fn run_group_into(
        &self,
        origin: usize,
        reference: &Strand,
        rng: &mut SimRng,
        pool: &mut MoleculePool,
    ) {
        if rng.random::<f64>() < self.dropout_probability {
            return;
        }
        for _ in 0..self.variants_per_reference {
            let strand = self.error_model.corrupt(reference, rng);
            // Gamma(4)-distributed abundance around the mean: skewed like
            // real synthesis yields, but without the starvation tail a
            // pure exponential would give individual variants.
            let abundance = self.mean_abundance / 4.0
                * -(0..4)
                    .map(|_| rng.random::<f64>().max(f64::MIN_POSITIVE).ln())
                    .sum::<f64>();
            pool.push(Molecule {
                origin,
                strand,
                abundance,
            });
        }
    }
}

/// Storage decay: molecules degrade over time.
///
/// Abundance halves every `half_life_years`; badly-degraded species drop
/// out of the pool entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayStage {
    /// Storage duration in years.
    pub years: f64,
    /// Molecular half-life in years (silica-encapsulated DNA: centuries).
    pub half_life_years: f64,
    /// Minimum abundance below which a species is considered lost.
    pub loss_threshold: f64,
}

impl DecayStage {
    /// Applies decay to the pool.
    pub fn run(&self, pool: &MoleculePool) -> MoleculePool {
        let factor = 0.5f64.powf(self.years / self.half_life_years);
        let molecules = pool
            .molecules()
            .iter()
            .filter_map(|m| {
                let abundance = m.abundance * factor;
                (abundance >= self.loss_threshold).then(|| Molecule {
                    origin: m.origin,
                    strand: m.strand.clone(),
                    abundance,
                })
            })
            .collect();
        MoleculePool { molecules }
    }
}

/// PCR amplification: multiplies abundance with per-molecule bias, and
/// occasionally introduces substitution variants.
///
/// Heckel et al. show PCR prefers some sequences over others, distorting
/// the copy-number distribution; the lognormal per-species bias reproduces
/// that distortion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcrStage {
    /// Number of PCR cycles.
    pub cycles: u32,
    /// Per-cycle amplification efficiency in `[0, 1]`.
    pub efficiency: f64,
    /// Standard deviation of the lognormal per-species efficiency bias.
    pub bias_sigma: f64,
    /// Per-base, per-run probability of a polymerase substitution creating
    /// a variant species.
    pub substitution_rate: f64,
}

impl PcrStage {
    /// Runs PCR over the pool.
    pub fn run(&self, pool: &MoleculePool, rng: &mut SimRng) -> MoleculePool {
        let mut out = MoleculePool::new();
        for m in pool.molecules() {
            // Per-species efficiency bias (lognormal around the nominal).
            let z = {
                let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.random();
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            };
            let eff = (self.efficiency * (self.bias_sigma * z).exp()).clamp(0.0, 1.0);
            let gain = (1.0 + eff).powi(self.cycles as i32);
            let mut abundance = m.abundance * gain;

            // Polymerase errors spawn substitution variants carrying a
            // fraction of the amplified mass.
            let expected_variants = self.substitution_rate * m.strand.len() as f64;
            if expected_variants > 0.0 && rng.random::<f64>() < expected_variants.min(1.0) {
                let mut variant = m.strand.clone();
                if !variant.is_empty() {
                    let pos = rng.random_range(0..variant.len());
                    let mut bases = variant.into_bases();
                    bases[pos] = bases[pos].random_other(rng);
                    variant = Strand::from_bases(bases);
                }
                let share = abundance * 0.1;
                abundance -= share;
                out.push(Molecule {
                    origin: m.origin,
                    strand: variant,
                    abundance: share,
                });
            }
            out.push(Molecule {
                origin: m.origin,
                strand: m.strand.clone(),
                abundance,
            });
        }
        out
    }
}

/// Sequencing: samples reads from the pool (proportional to abundance) and
/// corrupts each read independently.
#[derive(Debug)]
pub struct SequencingStage<M> {
    /// Error model applied per read.
    pub error_model: M,
    /// Total number of reads to draw.
    pub total_reads: usize,
}

impl<M: ErrorModel> SequencingStage<M> {
    /// Sequences the pool, grouping reads by their originating reference
    /// (perfect clustering). `reference_count` fixes the number of clusters
    /// so that unsequenced references appear as erasures.
    pub fn run(
        &self,
        pool: &MoleculePool,
        references: &[Strand],
        rng: &mut SimRng,
    ) -> Dataset {
        let weights: Vec<f64> = pool.molecules().iter().map(|m| m.abundance).collect();
        let sampler = WeightedSampler::new(&weights);
        let mut reads_per_reference: Vec<Vec<Strand>> =
            references.iter().map(|_| Vec::new()).collect();
        if !pool.molecules().is_empty() {
            for _ in 0..self.total_reads {
                let idx = sampler.sample(rng);
                let molecule = &pool.molecules()[idx];
                let read = self.error_model.corrupt(&molecule.strand, rng);
                if let Some(bucket) = reads_per_reference.get_mut(molecule.origin) {
                    bucket.push(read);
                }
            }
        }
        references
            .iter()
            .zip(reads_per_reference)
            .map(|(reference, reads)| Cluster::new(reference.clone(), reads))
            .collect()
    }

    /// Splits the stage's read budget across strand groups proportionally
    /// to their total abundance, by drawing `total_reads` categorical
    /// samples over `group_weights` — the same draw the whole-pool sampler
    /// makes, collapsed to group granularity.
    ///
    /// This is the serial "pass 0" of the sharded sequencer: once every
    /// group knows its read count, the groups sample independently with
    /// forked RNGs ([`sample_group`]) and never need the whole molecule
    /// pool resident. The counts always sum to `total_reads` unless every
    /// weight is zero or non-finite (an empty/extinct pool), which yields
    /// all-zero counts — the sharded analogue of the whole-pool sampler
    /// sequencing nothing from an empty pool.
    ///
    /// [`sample_group`]: SequencingStage::sample_group
    pub fn allocate_reads(&self, group_weights: &[f64], rng: &mut SimRng) -> Vec<usize> {
        let mut counts = vec![0usize; group_weights.len()];
        let sampler = WeightedSampler::new(group_weights);
        if !sampler.has_mass() {
            return counts;
        }
        for _ in 0..self.total_reads {
            counts[sampler.sample(rng)] += 1;
        }
        counts
    }

    /// Sequences `count` reads from one strand group's molecules,
    /// weighted by abundance — the within-group half of the sharded
    /// sampler (see [`allocate_reads`]). An empty group yields no reads.
    ///
    /// [`allocate_reads`]: SequencingStage::allocate_reads
    pub fn sample_group(&self, pool: &MoleculePool, count: usize, rng: &mut SimRng) -> Vec<Strand> {
        let mut reads = Vec::with_capacity(count);
        if pool.molecules().is_empty() {
            return reads;
        }
        let weights: Vec<f64> = pool.molecules().iter().map(|m| m.abundance).collect();
        let sampler = WeightedSampler::new(&weights);
        for _ in 0..count {
            let idx = sampler.sample(rng);
            reads.push(self.error_model.corrupt(&pool.molecules()[idx].strand, rng));
        }
        reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::NaiveModel;
    use crate::model::IdentityModel;
    use dnasim_core::rng::seeded;

    fn references(n: usize, len: usize, seed: u64) -> Vec<Strand> {
        let mut rng = seeded(seed);
        (0..n).map(|_| Strand::random(len, &mut rng)).collect()
    }

    #[test]
    fn synthesis_produces_variants() {
        let stage = SynthesisStage {
            error_model: IdentityModel,
            variants_per_reference: 3,
            dropout_probability: 0.0,
            mean_abundance: 10.0,
        };
        let refs = references(4, 30, 1);
        let mut rng = seeded(2);
        let pool = stage.run(&refs, &mut rng);
        assert_eq!(pool.species_count(), 12);
        assert!(pool.total_abundance() > 0.0);
    }

    #[test]
    fn synthesis_dropout_loses_references() {
        let stage = SynthesisStage {
            error_model: IdentityModel,
            variants_per_reference: 1,
            dropout_probability: 1.0,
            mean_abundance: 10.0,
        };
        let refs = references(5, 30, 3);
        let mut rng = seeded(4);
        assert_eq!(stage.run(&refs, &mut rng).species_count(), 0);
    }

    #[test]
    fn decay_halves_abundance() {
        let mut pool = MoleculePool::new();
        pool.push(Molecule {
            origin: 0,
            strand: "ACGT".parse().unwrap(),
            abundance: 8.0,
        });
        let stage = DecayStage {
            years: 100.0,
            half_life_years: 100.0,
            loss_threshold: 0.0,
        };
        let decayed = stage.run(&pool);
        assert!((decayed.molecules()[0].abundance - 4.0).abs() < 1e-12);
    }

    #[test]
    fn decay_drops_below_threshold() {
        let mut pool = MoleculePool::new();
        pool.push(Molecule {
            origin: 0,
            strand: "ACGT".parse().unwrap(),
            abundance: 1.0,
        });
        let stage = DecayStage {
            years: 1000.0,
            half_life_years: 100.0,
            loss_threshold: 0.01,
        };
        assert_eq!(stage.run(&pool).species_count(), 0);
    }

    #[test]
    fn pcr_amplifies() {
        let mut pool = MoleculePool::new();
        pool.push(Molecule {
            origin: 0,
            strand: "ACGTACGT".parse().unwrap(),
            abundance: 1.0,
        });
        let stage = PcrStage {
            cycles: 10,
            efficiency: 0.9,
            bias_sigma: 0.0,
            substitution_rate: 0.0,
        };
        let mut rng = seeded(5);
        let amplified = stage.run(&pool, &mut rng);
        assert!(amplified.total_abundance() > 100.0);
    }

    #[test]
    fn pcr_bias_distorts_copy_numbers() {
        let mut pool = MoleculePool::new();
        for i in 0..50 {
            pool.push(Molecule {
                origin: i,
                strand: "ACGTACGTACGT".parse().unwrap(),
                abundance: 1.0,
            });
        }
        let stage = PcrStage {
            cycles: 12,
            efficiency: 0.8,
            bias_sigma: 0.08,
            substitution_rate: 0.0,
        };
        let mut rng = seeded(6);
        let amplified = stage.run(&pool, &mut rng);
        let abundances: Vec<f64> = amplified.molecules().iter().map(|m| m.abundance).collect();
        let max = abundances.iter().cloned().fold(f64::MIN, f64::max);
        let min = abundances.iter().cloned().fold(f64::MAX, f64::min);
        // Bias compounds over cycles: spread should be clearly visible.
        assert!(max / min > 1.5, "max/min = {}", max / min);
    }

    #[test]
    fn pcr_substitutions_create_variants() {
        let mut pool = MoleculePool::new();
        pool.push(Molecule {
            origin: 0,
            strand: Strand::random(100, &mut seeded(7)),
            abundance: 1.0,
        });
        let stage = PcrStage {
            cycles: 5,
            efficiency: 0.9,
            bias_sigma: 0.0,
            substitution_rate: 0.5, // very high, to force a variant
        };
        let mut rng = seeded(8);
        let amplified = stage.run(&pool, &mut rng);
        assert!(amplified.species_count() > 1);
    }

    #[test]
    fn sequencing_groups_reads_by_origin() {
        let refs = references(3, 40, 9);
        let synthesis = SynthesisStage {
            error_model: IdentityModel,
            variants_per_reference: 1,
            dropout_probability: 0.0,
            mean_abundance: 10.0,
        };
        let mut rng = seeded(10);
        let pool = synthesis.run(&refs, &mut rng);
        let sequencing = SequencingStage {
            error_model: IdentityModel,
            total_reads: 120,
        };
        let dataset = sequencing.run(&pool, &refs, &mut rng);
        assert_eq!(dataset.len(), 3);
        assert_eq!(dataset.total_reads(), 120);
        // With identity models end-to-end, every read equals its reference.
        for cluster in dataset.iter() {
            for read in cluster.reads() {
                assert_eq!(read, cluster.reference());
            }
        }
    }

    #[test]
    fn full_pipeline_composes() {
        let refs = references(5, 60, 11);
        let mut rng = seeded(12);
        let pool = SynthesisStage {
            error_model: NaiveModel::new(0.001, 0.004, 0.002),
            variants_per_reference: 2,
            dropout_probability: 0.05,
            mean_abundance: 5.0,
        }
        .run(&refs, &mut rng);
        let pool = DecayStage {
            years: 100.0,
            half_life_years: 500.0,
            loss_threshold: 1e-6,
        }
        .run(&pool);
        let pool = PcrStage {
            cycles: 10,
            efficiency: 0.85,
            bias_sigma: 0.05,
            substitution_rate: 0.0005,
        }
        .run(&pool, &mut rng);
        let dataset = SequencingStage {
            error_model: NaiveModel::with_total_rate(0.06),
            total_reads: 100,
        }
        .run(&pool, &refs, &mut rng);
        assert_eq!(dataset.len(), 5);
        assert_eq!(dataset.total_reads(), 100);
        assert!(dataset.mean_coverage() > 0.0);
    }

    #[test]
    fn sharded_synthesis_composes_to_the_whole_run() {
        // Folding run_group over the references with one shared RNG is
        // byte-identical to run(): the refactor may not change a single
        // draw.
        let stage = SynthesisStage {
            error_model: NaiveModel::with_total_rate(0.01),
            variants_per_reference: 3,
            dropout_probability: 0.1,
            mean_abundance: 8.0,
        };
        let refs = references(6, 50, 21);
        let whole = stage.run(&refs, &mut seeded(22));
        let mut rng = seeded(22);
        let mut sharded = MoleculePool::new();
        for (origin, r) in refs.iter().enumerate() {
            for m in stage.run_group(origin, r, &mut rng).molecules() {
                sharded.push(m.clone());
            }
        }
        assert_eq!(sharded, whole);
    }

    #[test]
    fn sharded_synthesis_is_deterministic_under_forked_rngs() {
        use dnasim_core::rng::SeedSequence;
        let stage = SynthesisStage {
            error_model: NaiveModel::with_total_rate(0.01),
            variants_per_reference: 2,
            dropout_probability: 0.0,
            mean_abundance: 8.0,
        };
        let refs = references(4, 40, 23);
        let seq = SeedSequence::new(77);
        let run = |seq: &SeedSequence| -> Vec<MoleculePool> {
            refs.iter()
                .enumerate()
                .map(|(g, r)| stage.run_group(g, r, &mut seq.fork_rng(g as u64)))
                .collect()
        };
        assert_eq!(run(&seq), run(&seq));
        // Each group's pool is a pure function of its own fork: dropping
        // other groups does not perturb it.
        let solo = stage.run_group(2, &refs[2], &mut seq.fork_rng(2));
        assert_eq!(run(&seq)[2], solo);
    }

    #[test]
    fn allocate_reads_sums_to_budget_and_respects_zero_weights() {
        let stage = SequencingStage {
            error_model: IdentityModel,
            total_reads: 200,
        };
        let mut rng = seeded(24);
        let counts = stage.allocate_reads(&[1.0, 0.0, 3.0, f64::NAN], &mut rng);
        assert_eq!(counts.iter().sum::<usize>(), 200);
        assert_eq!(counts[1], 0, "zero-weight group drew reads");
        assert_eq!(counts[3], 0, "non-finite-weight group drew reads");
        assert!(counts[2] > counts[0], "allocation ignored the weights");
        // Extinct pool: nothing to sequence.
        assert_eq!(
            stage.allocate_reads(&[0.0, 0.0], &mut rng),
            vec![0, 0]
        );
        assert!(stage.allocate_reads(&[], &mut rng).is_empty());
    }

    #[test]
    fn sample_group_draws_exactly_count_reads() {
        let refs = references(1, 40, 25);
        let synthesis = SynthesisStage {
            error_model: IdentityModel,
            variants_per_reference: 2,
            dropout_probability: 0.0,
            mean_abundance: 10.0,
        };
        let mut rng = seeded(26);
        let pool = synthesis.run(&refs, &mut rng);
        let stage = SequencingStage {
            error_model: IdentityModel,
            total_reads: 999, // unused by sample_group
        };
        let reads = stage.sample_group(&pool, 17, &mut rng);
        assert_eq!(reads.len(), 17);
        assert!(reads.iter().all(|r| r == &refs[0]));
        assert!(stage.sample_group(&MoleculePool::new(), 5, &mut rng).is_empty());
    }

    #[test]
    fn sequencing_empty_pool_yields_erasures() {
        let refs = references(2, 30, 13);
        let mut rng = seeded(14);
        let dataset = SequencingStage {
            error_model: IdentityModel,
            total_reads: 50,
        }
        .run(&MoleculePool::new(), &refs, &mut rng);
        assert_eq!(dataset.len(), 2);
        assert_eq!(dataset.erasure_count(), 2);
    }
}

