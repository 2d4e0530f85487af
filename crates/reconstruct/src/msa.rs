//! Multiple-sequence-alignment (star-MSA) reconstruction.
//!
//! The classic trace-reconstruction family the paper's §1.1.2 cites (Yazdi
//! et al.): pick a *centre* read, align every other read against it,
//! project all reads into the centre's coordinate system, and take
//! column-wise votes including insertion columns. Unlike the scanning
//! algorithms, MSA is direction-symmetric — included both as a stronger
//! baseline and as a shape contrast for the profile figures.

use std::collections::BTreeMap;

use dnasim_core::{PackedStrand, Strand};
use dnasim_metrics::bank::{bank_distances_with, BankScratch, PatternBank, MAX_LANES};
use dnasim_metrics::myers;

use crate::algorithms::TraceReconstructor;
use crate::consensus::{positional_majority, AlignmentVotes};

/// Star-MSA reconstruction: centre-read alignment plus column voting.
///
/// # Examples
///
/// ```
/// use dnasim_core::Strand;
/// use dnasim_reconstruct::{MsaReconstructor, TraceReconstructor};
///
/// let reference: Strand = "ACGTACGTACGTACGTACGT".parse()?;
/// let reads = vec![
///     reference.clone(),
///     "ACGTACTACGTACGTACGT".parse()?, // deletion
///     "ACGTACGGTACGTACGTACGT".parse()?, // insertion
/// ];
/// let msa = MsaReconstructor::default();
/// assert_eq!(msa.reconstruct(&reads, 20), reference);
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsaReconstructor;

impl MsaReconstructor {
    /// Chooses the centre read: the one minimising total edit distance to
    /// the other reads (the star-MSA medoid).
    fn centre_index(reads: &[Strand]) -> usize {
        if reads.len() <= 2 {
            return 0;
        }
        // Pack every read once and fill the half-matrix row by row:
        // distance is symmetric, so each unordered pair is computed a
        // single time and credited to both rows. Row i's partners
        // (j > i) are grouped by word count and batched through the
        // multi-pattern bank kernel, so one pass over read i advances up
        // to MAX_LANES partners at once; leftover singletons and empty
        // reads take the single-pattern kernel. Both kernels are exact,
        // so the medoid matches the sequential scan.
        let packed: Vec<PackedStrand> = reads.iter().map(PackedStrand::from).collect();
        let mut scratch = myers::MyersScratch::new();
        let mut bank_scratch = BankScratch::new();
        let mut dists: Vec<usize> = Vec::new();
        let mut totals = vec![0usize; reads.len()];
        for i in 0..packed.len() {
            let mut by_words: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (j, p) in packed.iter().enumerate().skip(i + 1) {
                by_words.entry(p.words()).or_default().push(j);
            }
            for (words, partners) in by_words {
                if words == 0 {
                    // Empty partner: the distance is read i's length.
                    for &j in &partners {
                        let d = myers::distance_with(&mut scratch, &packed[i], &packed[j]);
                        totals[i] += d;
                        totals[j] += d;
                    }
                    continue;
                }
                for chunk in partners.chunks(MAX_LANES) {
                    let lanes: Vec<&PackedStrand> = chunk.iter().map(|&j| &packed[j]).collect();
                    match PatternBank::new(&lanes) {
                        Some(bank) if chunk.len() > 1 => {
                            bank_distances_with(&mut bank_scratch, &bank, &packed[i], &mut dists);
                            for (lane, &j) in chunk.iter().enumerate() {
                                let d = dists.get(lane).copied().unwrap_or(0);
                                totals[i] += d;
                                totals[j] += d;
                            }
                        }
                        _ => {
                            for &j in chunk {
                                let d =
                                    myers::distance_with(&mut scratch, &packed[i], &packed[j]);
                                totals[i] += d;
                                totals[j] += d;
                            }
                        }
                    }
                }
            }
        }
        // First minimum wins, matching the previous sequential scan.
        let mut best = (0usize, usize::MAX);
        for (i, &total) in totals.iter().enumerate() {
            if total < best.1 {
                best = (i, total);
            }
        }
        best.0
    }
}

impl TraceReconstructor for MsaReconstructor {
    fn reconstruct(&self, reads: &[Strand], strand_len: usize) -> Strand {
        if reads.is_empty() {
            return positional_majority(reads, strand_len);
        }
        let centre_idx = MsaReconstructor::centre_index(reads);
        let centre = &reads[centre_idx];

        // Column votes in centre coordinates. The centre aligns to itself
        // as all matches, so it votes its own bases.
        AlignmentVotes::new().refine(centre, reads, strand_len)
    }

    fn name(&self) -> String {
        "msa".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_channel::{ErrorModel, NaiveModel};
    use dnasim_core::rng::seeded as seed_rng;

    fn s(text: &str) -> Strand {
        text.parse().unwrap()
    }

    #[test]
    fn clean_cluster_reconstructs_exactly() {
        let reference = s("ACGTACGTACGTACGTACGT");
        let reads = vec![reference.clone(); 4];
        assert_eq!(MsaReconstructor.reconstruct(&reads, 20), reference);
    }

    #[test]
    fn empty_cluster_yields_filler() {
        assert_eq!(MsaReconstructor.reconstruct(&[], 6).len(), 6);
    }

    #[test]
    fn single_read_is_returned_cropped() {
        let read = s("ACGTACGT");
        let out = MsaReconstructor.reconstruct(std::slice::from_ref(&read), 8);
        assert_eq!(out, read);
        assert_eq!(MsaReconstructor.reconstruct(&[read], 4).len(), 4);
    }

    #[test]
    fn centre_is_the_medoid() {
        // Two noisy copies and one outlier: the medoid is a noisy copy.
        let reads = vec![
            s("ACGTACGTACGTACGT"),
            s("ACGTACGTACGTACGA"),
            s("TTTTTTTTTTTTTTTT"),
        ];
        assert!(MsaReconstructor::centre_index(&reads) < 2);
    }

    #[test]
    fn corrects_mixed_errors() {
        let reference = s("ACGTACGTACGTACGTACGTACGTACGTAC");
        let reads = vec![
            reference.clone(),
            s("ACGTACTTACGTACGTACGTACGTACGTAC"),  // sub
            s("ACGTACGTACGTACGACGTACGTACGTAC"),   // del
            s("ACGTACGTACGGTACGTACGTACGTACGTAC"), // ins
            reference.clone(),
        ];
        assert_eq!(MsaReconstructor.reconstruct(&reads, 30), reference);
    }

    #[test]
    fn length_is_always_exact() {
        let reads = vec![s("ACG"), s("ACGTACGTACGTACG"), s("A")];
        for len in [2usize, 8, 20] {
            assert_eq!(MsaReconstructor.reconstruct(&reads, len).len(), len);
        }
    }

    #[test]
    fn accuracy_is_competitive_on_uniform_noise() {
        let model = NaiveModel::with_total_rate(0.059);
        let mut rng = seed_rng(7);
        let mut exact = 0usize;
        let trials = 60;
        for _ in 0..trials {
            let reference = Strand::random(110, &mut rng);
            let reads: Vec<Strand> = (0..6).map(|_| model.corrupt(&reference, &mut rng)).collect();
            if MsaReconstructor.reconstruct(&reads, 110) == reference {
                exact += 1;
            }
        }
        assert!(exact > trials / 2, "msa exact only {exact}/{trials}");
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(MsaReconstructor.name(), "msa");
    }

    #[test]
    fn banked_medoid_matches_sequential_half_matrix() {
        let model = NaiveModel::with_total_rate(0.08);
        let mut rng = seed_rng(19);
        for (count, len) in [(3usize, 40usize), (7, 110), (12, 110), (17, 150)] {
            let reference = Strand::random(len, &mut rng);
            let mut reads: Vec<Strand> =
                (0..count).map(|_| model.corrupt(&reference, &mut rng)).collect();
            // Mix in shape variety: an empty read and a short read.
            reads.push(Strand::new());
            reads.push(Strand::random(9, &mut rng));
            // Brute-force medoid with the single-pattern kernel only.
            let packed: Vec<PackedStrand> = reads.iter().map(PackedStrand::from).collect();
            let mut totals = vec![0usize; reads.len()];
            for i in 0..packed.len() {
                for j in (i + 1)..packed.len() {
                    let d = myers::distance(&packed[i], &packed[j]);
                    totals[i] += d;
                    totals[j] += d;
                }
            }
            let mut expected = (0usize, usize::MAX);
            for (i, &total) in totals.iter().enumerate() {
                if total < expected.1 {
                    expected = (i, total);
                }
            }
            assert_eq!(
                MsaReconstructor::centre_index(&reads),
                expected.0,
                "count={count} len={len}"
            );
        }
    }
}
