//! Random access in a shared DNA pool (§1.1.1).
//!
//! DNA storage is not physically organised: all files share one container.
//! Random access follows Yazdi et al. / Bornholt et al.: each file's
//! strands carry a unique primer pair, and PCR *selectively amplifies* the
//! strands whose primer matches — reading one file without sequencing the
//! whole pool. This module simulates that: multiple files are written into
//! one molecule pool, and retrieval amplifies, sequences, reconstructs and
//! decodes only the requested file.
//!
//! Only the physical side — the shared container, selective PCR and the
//! sequencing of the amplified pool — lives here. How a file becomes
//! strands and comes back is the archive's storage core: `store` frames
//! and protects through the same `encode_payload` and XOR
//! [`ErasureScheme`](crate::ErasureScheme), and `retrieve` decodes
//! through the same ensemble and first-wins slot merge, then recovers
//! through the same erasure code in strict mode.

use std::fmt;

use dnasim_channel::stages::{Molecule, MoleculePool, SequencingStage, SynthesisStage};
use dnasim_channel::NaiveModel;
use dnasim_codec::{RsError, StrandLayout};
use dnasim_core::rng::SimRng;
use dnasim_core::Strand;
use dnasim_dataset::GroundTruthChannel;

use crate::archive::{
    decode_cluster, decode_ensemble, encode_payload, merge_first_wins, recover_payload,
    ErasureCode,
};
use crate::{ArchiveMode, ErasureScheme};

/// A multi-file DNA storage pool with primer-based random access.
///
/// # Examples
///
/// ```
/// use dnasim_core::rng::seeded;
/// use dnasim_pipeline::{FilePool, PoolConfig};
///
/// let mut rng = seeded(11);
/// let mut pool = FilePool::new(PoolConfig::default());
/// pool.store("alpha", b"first file contents".to_vec(), &mut rng)?;
/// pool.store("beta", b"second, different file".to_vec(), &mut rng)?;
///
/// let alpha = pool.retrieve("alpha", &mut rng)?;
/// assert_eq!(&alpha[..], b"first file contents");
/// # Ok::<(), dnasim_pipeline::PoolError>(())
/// ```
#[derive(Debug)]
pub struct FilePool {
    config: PoolConfig,
    files: Vec<StoredFile>,
    pool: MoleculePool,
}

/// Configuration of the shared pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// RS codeword length per strand payload.
    pub rs_codeword_len: usize,
    /// RS data bytes per strand payload.
    pub rs_data_len: usize,
    /// XOR parity group size.
    pub parity_group: usize,
    /// Reads drawn per strand of the *amplified* file during retrieval.
    pub reads_per_strand: usize,
    /// PCR selectivity: amplification factor for matching strands relative
    /// to non-matching ones.
    pub amplification_factor: f64,
    /// Primer mismatches tolerated when classifying reads.
    pub primer_mismatch_budget: usize,
    /// Sequencing aggregate error rate.
    pub sequencing_error_rate: f64,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            rs_codeword_len: 32,
            rs_data_len: 16,
            parity_group: 4,
            reads_per_strand: 20,
            amplification_factor: 800.0,
            primer_mismatch_budget: 3,
            sequencing_error_rate: 0.03,
        }
    }
}

#[derive(Debug)]
struct StoredFile {
    name: String,
    layout: StrandLayout,
    code: ErasureCode,
    byte_len: usize,
    payload_chunks: usize,
    /// Strands written: the payload chunks plus their parity.
    strands: usize,
}

/// Errors from pool operations.
#[derive(Debug)]
pub enum PoolError {
    /// Layout construction failed.
    Layout(RsError),
    /// No file with that name exists.
    UnknownFile {
        /// The requested name.
        name: String,
    },
    /// The file could not be reassembled after retrieval.
    Unrecoverable {
        /// The file that failed.
        name: String,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Layout(e) => write!(f, "layout construction failed: {e}"),
            PoolError::UnknownFile { name } => write!(f, "no file named '{name}' in the pool"),
            PoolError::Unrecoverable { name } => {
                write!(f, "file '{name}' could not be recovered from the pool")
            }
        }
    }
}

impl std::error::Error for PoolError {}

impl FilePool {
    /// Creates an empty pool.
    pub fn new(config: PoolConfig) -> FilePool {
        FilePool {
            config,
            files: Vec::new(),
            pool: MoleculePool::new(),
        }
    }

    /// Total molecule species in the shared container.
    pub fn species_count(&self) -> usize {
        self.pool.species_count()
    }

    /// Writes a file into the pool: encode with a fresh primer pair,
    /// synthesize, and mix the molecules into the shared container.
    ///
    /// # Errors
    ///
    /// [`PoolError::Layout`] for invalid RS parameters.
    pub fn store(
        &mut self,
        name: &str,
        data: Vec<u8>,
        rng: &mut SimRng,
    ) -> Result<(), PoolError> {
        let layout = StrandLayout::new(
            self.config.rs_codeword_len,
            self.config.rs_data_len,
            rng,
        )
        .map_err(PoolError::Layout)?;
        let code = ErasureScheme::Xor {
            group: self.config.parity_group,
        }
        .code()
        .map_err(PoolError::Layout)?;
        let (payload_chunks, references) = encode_payload(&data, &layout, &code);

        // Synthesize into the *shared* pool; molecule origins are offset by
        // the file index so clusters stay attributable.
        let synth = SynthesisStage {
            error_model: NaiveModel::new(0.0002, 0.0004, 0.0004),
            variants_per_reference: 10,
            dropout_probability: 0.001,
            mean_abundance: 20.0,
        };
        let file_molecules = synth.run(&references, rng);
        let file_index = self.files.len();
        for m in file_molecules.molecules() {
            self.pool.push(Molecule {
                // Tag the origin with the file index in the high bits.
                origin: file_index << 32 | m.origin,
                strand: m.strand.clone(),
                abundance: m.abundance,
            });
        }
        self.files.push(StoredFile {
            name: name.to_owned(),
            layout,
            code,
            byte_len: data.len(),
            payload_chunks,
            strands: references.len(),
        });
        Ok(())
    }

    /// Reads one file back: PCR-amplify its primer, sequence the amplified
    /// pool, discard reads that don't match the primer, cluster by strand
    /// index, reconstruct, and decode.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownFile`] for an unknown name;
    /// [`PoolError::Unrecoverable`] if decoding fails.
    pub fn retrieve(&self, name: &str, rng: &mut SimRng) -> Result<Vec<u8>, PoolError> {
        let (file_index, file) = self
            .files
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .ok_or_else(|| PoolError::UnknownFile {
                name: name.to_owned(),
            })?;
        let mut received = self.decode_slots(file_index, file, rng);
        recover_payload(
            &file.code,
            &mut received,
            file.payload_chunks,
            file.layout.payload_bytes(),
            file.byte_len,
            ArchiveMode::Strict,
        )
        .map(|(data, _, _)| data)
        .map_err(|_| PoolError::Unrecoverable {
            name: name.to_owned(),
        })
    }

    /// The inner half of [`retrieve`](FilePool::retrieve): amplifies and
    /// sequences the pool, then decodes every cluster of file
    /// `file_index` into its protected strand slot (`None` where nothing
    /// decoded), ready for erasure recovery.
    fn decode_slots(
        &self,
        file_index: usize,
        file: &StoredFile,
        rng: &mut SimRng,
    ) -> Vec<Option<Vec<u8>>> {
        // Selective PCR: strands whose head matches the file's primer are
        // amplified; everything else stays at baseline abundance.
        let mut amplified = MoleculePool::new();
        for m in self.pool.molecules() {
            let matches = file
                .layout
                .matches_primer(&m.strand, self.config.primer_mismatch_budget);
            amplified.push(Molecule {
                origin: m.origin,
                strand: m.strand.clone(),
                abundance: if matches {
                    m.abundance * self.config.amplification_factor
                } else {
                    m.abundance
                },
            });
        }

        // Sequence the amplified pool. We cannot use SequencingStage's
        // per-reference grouping directly (origins are tagged), so sample
        // reads and group by decoded strand coordinates below.
        let total_reads = file.strands * self.config.reads_per_strand;
        let channel = GroundTruthChannel::new(
            self.config.sequencing_error_rate,
            file.layout.strand_len(),
        );
        let sequencing = SequencingStage {
            error_model: channel,
            total_reads,
        };
        // Group molecules of the amplified pool by their tagged origin so
        // reads arrive clustered per reference strand of *some* file.
        let mut references: Vec<Strand> = Vec::new();
        let mut origin_of: Vec<usize> = Vec::new();
        {
            let mut seen = std::collections::HashMap::new();
            for m in amplified.molecules() {
                seen.entry(m.origin).or_insert_with(|| {
                    references.push(m.strand.clone());
                    origin_of.push(m.origin);
                    references.len() - 1
                });
            }
        }
        // Re-tag the amplified pool into dense reference indices.
        let mut dense = MoleculePool::new();
        {
            let mut index_of = std::collections::HashMap::new();
            for (i, &origin) in origin_of.iter().enumerate() {
                index_of.insert(origin, i);
            }
            for m in amplified.molecules() {
                dense.push(Molecule {
                    origin: index_of[&m.origin],
                    strand: m.strand.clone(),
                    abundance: m.abundance,
                });
            }
        }
        let dataset = sequencing.run(&dense, &references, rng);

        // Keep only clusters whose reads match this file's primer, then
        // reconstruct and decode.
        let ensemble = decode_ensemble();
        let mut received = vec![None; file.strands];
        merge_first_wins(
            &mut received,
            dataset
                .iter()
                .zip(&origin_of)
                .filter(|&(_, &origin)| origin >> 32 == file_index)
                .map(|(cluster, _)| decode_cluster(cluster, &ensemble, &file.layout)),
        );
        received
    }

    /// Fraction of sequenced reads that belong to `name`'s file when the
    /// pool is sequenced *without* amplification — how lost a file is in
    /// the shared container (the §1.1.1 motivation for PCR selectivity).
    pub fn baseline_share(&self, name: &str) -> Result<f64, PoolError> {
        let file_index = self
            .files
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| PoolError::UnknownFile {
                name: name.to_owned(),
            })?;
        let total: f64 = self.pool.total_abundance();
        if total <= 0.0 {
            return Ok(0.0);
        }
        let mut matching = 0.0;
        for m in self.pool.molecules() {
            if m.origin >> 32 == file_index {
                matching += m.abundance;
            }
        }
        Ok(matching / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::seeded;

    #[test]
    fn two_files_round_trip_independently() {
        let mut rng = seeded(1);
        let mut pool = FilePool::new(PoolConfig::default());
        let alpha: Vec<u8> = (0u8..120).collect();
        let beta: Vec<u8> = (0u8..90).rev().collect();
        pool.store("alpha", alpha.clone(), &mut rng).unwrap();
        pool.store("beta", beta.clone(), &mut rng).unwrap();
        let names: Vec<&str> = pool.files.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta"]);

        assert_eq!(pool.retrieve("alpha", &mut rng).unwrap(), alpha);
        assert_eq!(pool.retrieve("beta", &mut rng).unwrap(), beta);
    }

    #[test]
    fn unknown_file_is_reported() {
        let mut rng = seeded(2);
        let pool = FilePool::new(PoolConfig::default());
        assert!(matches!(
            pool.retrieve("ghost", &mut rng),
            Err(PoolError::UnknownFile { .. })
        ));
    }

    #[test]
    fn baseline_share_shrinks_as_pool_grows() {
        let mut rng = seeded(3);
        let mut pool = FilePool::new(PoolConfig::default());
        pool.store("target", vec![7u8; 64], &mut rng).unwrap();
        let alone = pool.baseline_share("target").unwrap();
        for i in 0..4 {
            pool.store(&format!("noise-{i}"), vec![i as u8; 256], &mut rng)
                .unwrap();
        }
        let crowded = pool.baseline_share("target").unwrap();
        assert!(alone > 0.9);
        assert!(
            crowded < alone / 2.0,
            "share should shrink: {alone} -> {crowded}"
        );
    }

    #[test]
    fn retrieval_still_works_in_a_crowded_pool() {
        let mut rng = seeded(4);
        let mut pool = FilePool::new(PoolConfig::default());
        let target: Vec<u8> = (0u8..100).collect();
        pool.store("target", target.clone(), &mut rng).unwrap();
        for i in 0..5 {
            pool.store(&format!("other-{i}"), vec![0x55u8 + i; 150], &mut rng)
                .unwrap();
        }
        assert_eq!(pool.retrieve("target", &mut rng).unwrap(), target);
    }

    #[test]
    fn lost_strands_are_rebuilt_by_parity_until_the_budget_is_exceeded() {
        // A starved read-out (7 reads per strand) loses payload strands
        // that the XOR parity of their group rebuilds.
        let config = PoolConfig {
            reads_per_strand: 7,
            ..PoolConfig::default()
        };
        let data: Vec<u8> = (0u8..160).collect();
        let mut pool = FilePool::new(config.clone());
        pool.store("target", data.clone(), &mut seeded(1)).unwrap();
        let file = &pool.files[0];
        let slots = pool.decode_slots(0, file, &mut seeded(1));
        let lost = slots[..file.payload_chunks].iter().filter(|s| s.is_none()).count();
        assert!(lost > 0, "channel too clean to exercise parity recovery");
        assert_eq!(pool.retrieve("target", &mut seeded(1)).unwrap(), data);

        // Nothing sequenced: every group loses more than its one strand.
        let starved = FilePool {
            config: PoolConfig {
                reads_per_strand: 0,
                ..config
            },
            ..pool
        };
        assert!(matches!(
            starved.retrieve("target", &mut seeded(1)),
            Err(PoolError::Unrecoverable { .. })
        ));
    }
}
