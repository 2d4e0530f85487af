//! q-gram MinHash signatures for cheap candidate filtering.
//!
//! Comparing every read against every cluster with edit distance is
//! quadratic and dominates clustering cost at dataset scale. Reads from the
//! same reference share most of their q-grams, so a small MinHash sketch of
//! the q-gram set buckets similar reads together and the expensive banded
//! edit distance only runs within buckets.

use std::sync::OnceLock;

use dnasim_core::{Base, Strand};

/// A MinHash sketch over the q-grams of a strand.
///
/// Two strands within small edit distance share most q-grams, so their
/// sketches collide in at least one band with high probability.
///
/// # Examples
///
/// ```
/// use dnasim_cluster::QGramSignature;
/// use dnasim_core::Strand;
///
/// let a: Strand = "ACGTACGTACGT".parse()?;
/// let b: Strand = "ACGTACGACGT".parse()?; // one deletion
/// let sig_a = QGramSignature::new(&a, 4, 8);
/// let sig_b = QGramSignature::new(&b, 4, 8);
/// assert!(sig_a.shares_band(&sig_b, 2));
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QGramSignature {
    /// The `sketch_len` smallest distinct gram hashes, ascending, in an
    /// exactly-sized allocation (representatives keep theirs resident).
    hashes: Box<[u64]>,
}

impl QGramSignature {
    /// Builds a sketch of `sketch_len` minimum hashes over the `q`-grams of
    /// `strand`. A strand shorter than `q` gets a single whole-strand hash.
    ///
    /// The sketch is a bounded bottom-k selection: the sorted `k` smallest
    /// distinct hashes seen so far, where a hash no smaller than the
    /// current maximum of a full sketch is skipped with one compare. The
    /// result equals sorting, deduplicating and truncating all the gram
    /// hashes, without ever building that list. For `q ≤ 8` each gram's
    /// hash is read from a per-`q` table by its rolling 2-bit code.
    pub fn new(strand: &Strand, q: usize, sketch_len: usize) -> QGramSignature {
        let bases = strand.as_bases();
        if bases.len() < q || q == 0 {
            return QGramSignature {
                hashes: Box::new([hash_gram(bases, 0)]),
            };
        }
        let k = sketch_len.max(1);
        let mut sketch: Vec<u64> = Vec::with_capacity(k);
        let mut offer = |h: u64| {
            if sketch.len() == k && sketch.last().is_some_and(|&max| h >= max) {
                return;
            }
            if let Err(pos) = sketch.binary_search(&h) {
                if sketch.len() == k {
                    sketch.pop();
                }
                sketch.insert(pos, h);
            }
        };
        match gram_hashes(q) {
            Some(table) => {
                // Rolling 2-bit code of the current window: one shift per
                // base, and the mask drops the base that left the window.
                let keep = (1usize << (2 * q)) - 1;
                let mut code = 0usize;
                for (i, &b) in bases.iter().enumerate() {
                    code = ((code << 2) | b.index()) & keep;
                    if i + 1 >= q {
                        offer(table[code]);
                    }
                }
            }
            None => bases.windows(q).for_each(|gram| offer(hash_gram(gram, 0))),
        }
        QGramSignature {
            hashes: sketch.into_boxed_slice(),
        }
    }

    /// The sketch hashes (ascending).
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Whether the two sketches share at least one of their first
    /// `bands` hashes — the cheap candidate test.
    pub fn shares_band(&self, other: &QGramSignature, bands: usize) -> bool {
        let a = &self.hashes[..self.hashes.len().min(bands.max(1))];
        let b = &other.hashes[..other.hashes.len().min(bands.max(1))];
        // Both slices are sorted: linear merge intersection.
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Jaccard-style overlap of the two sketches in `[0, 1]`.
    pub fn overlap(&self, other: &QGramSignature) -> f64 {
        let (mut i, mut j, mut shared) = (0, 0, 0usize);
        while i < self.hashes.len() && j < other.hashes.len() {
            match self.hashes[i].cmp(&other.hashes[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let denom = self.hashes.len().max(other.hashes.len());
        if denom == 0 {
            return 0.0;
        }
        shared as f64 / denom as f64
    }
}

/// Largest gram length whose hashes are tabulated (`4^8` entries).
const MAX_TABLE_Q: usize = 8;

/// `hash_gram` of every `q`-gram, indexed by the gram's 2-bit code (first
/// base in the highest bits), for `1 ≤ q ≤ MAX_TABLE_Q`; `None` otherwise.
///
/// Each table is a pure function of `q`, built on first use and never
/// written again, so a lookup returns exactly the hash `hash_gram` computes
/// from the gram's bases.
fn gram_hashes(q: usize) -> Option<&'static [u64]> {
    static TABLES: [OnceLock<Box<[u64]>>; MAX_TABLE_Q] = [const { OnceLock::new() }; MAX_TABLE_Q];
    let slot = TABLES.get(q.checked_sub(1)?)?;
    Some(slot.get_or_init(|| {
        let mut gram = vec![Base::A; q];
        (0..1usize << (2 * q))
            .map(|code| {
                for (i, base) in gram.iter_mut().enumerate() {
                    *base = Base::ALL[(code >> (2 * (q - 1 - i))) & 3];
                }
                hash_gram(&gram, 0)
            })
            .collect()
    }))
}

/// FNV-1a over the gram bytes, mixed with SplitMix64.
fn hash_gram(gram: &[dnasim_core::Base], salt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt;
    for &b in gram {
        h ^= b.index() as u64 + 1;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // SplitMix64 finaliser.
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(text: &str) -> Strand {
        text.parse().unwrap()
    }

    #[test]
    fn identical_strands_have_identical_signatures() {
        let a = QGramSignature::new(&s("ACGTACGTACGT"), 4, 8);
        let b = QGramSignature::new(&s("ACGTACGTACGT"), 4, 8);
        assert_eq!(a, b);
        assert!((a.overlap(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similar_strands_share_bands() {
        let a = QGramSignature::new(&s("ACGTACGTACGTACGTAGTC"), 4, 10);
        let b = QGramSignature::new(&s("ACGTACGACGTACGTAGTC"), 4, 10);
        assert!(a.shares_band(&b, 4));
        assert!(a.overlap(&b) > 0.4);
    }

    #[test]
    fn dissimilar_strands_have_low_overlap() {
        let a = QGramSignature::new(&s("AAAACCCCAAAACCCC"), 4, 8);
        let b = QGramSignature::new(&s("GGGGTTTTGGGGTTTT"), 4, 8);
        assert!(a.overlap(&b) < 0.2);
    }

    #[test]
    fn short_strands_hash_whole() {
        let a = QGramSignature::new(&s("AC"), 4, 8);
        assert_eq!(a.hashes().len(), 1);
        let b = QGramSignature::new(&s("AC"), 4, 8);
        assert!(a.shares_band(&b, 1));
    }

    #[test]
    fn sketch_length_is_bounded() {
        let a = QGramSignature::new(&s("ACGTACGTACGTACGTACGTACGTACGT"), 3, 5);
        assert!(a.hashes().len() <= 5);
        assert!(a.hashes().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_strand_does_not_panic() {
        let a = QGramSignature::new(&Strand::new(), 4, 8);
        assert_eq!(a.hashes().len(), 1);
    }

    /// The oracle the bottom-k selection replaced: hash every gram, then
    /// sort, deduplicate and truncate.
    fn sorted_sketch(strand: &Strand, q: usize, sketch_len: usize) -> Vec<u64> {
        let bases = strand.as_bases();
        let mut hashes: Vec<u64> = if bases.len() < q || q == 0 {
            vec![hash_gram(bases, 0)]
        } else {
            bases.windows(q).map(|gram| hash_gram(gram, 0)).collect()
        };
        hashes.sort_unstable();
        hashes.dedup();
        hashes.truncate(sketch_len.max(1));
        hashes
    }

    #[test]
    fn bottom_k_sketch_equals_sort_dedup_truncate() {
        use dnasim_core::rng::{seeded, Rng};
        let mut rng = seeded(31);
        let forward = Strand::random(20, &mut rng);
        let reverse = Strand::random(20, &mut rng);
        let mut strands: Vec<Strand> = Vec::new();
        for _ in 0..60 {
            let len = (rng.next_u64() % 200) as usize;
            // Random strands of every length from empty up.
            strands.push(Strand::random(len, &mut rng));
            // Primer-flanked strands: the archive's shape, whose shared
            // flanks put the same hashes in every sketch.
            let payload = Strand::random(len, &mut rng);
            strands.push(forward.concat(&payload).concat(&reverse));
            // Homopolymer-heavy strands: runs of one base with rare
            // breaks, so few distinct grams and often a sketch shorter
            // than `sketch_len`.
            let run = 1 + (rng.next_u64() % 30) as usize;
            strands.push(
                (0..len)
                    .map(|i| {
                        let bump = usize::from(rng.next_u64().is_multiple_of(8));
                        Base::ALL[(i / run + bump) % 4]
                    })
                    .collect(),
            );
        }
        // Every length shorter than a tabulated q, and pure homopolymers.
        strands.extend((0..9).map(|len| Strand::random(len, &mut rng)));
        strands.extend(Base::ALL.map(|b| std::iter::repeat_n(b, 64).collect::<Strand>()));
        // q = 1..=8 read the hash table; q = 0 and q > 8 hash each window.
        for strand in &strands {
            for q in 0..=11 {
                for sketch_len in [0usize, 1, 5, 12, 64, 400] {
                    let sig = QGramSignature::new(strand, q, sketch_len);
                    assert_eq!(
                        sig.hashes(),
                        sorted_sketch(strand, q, sketch_len).as_slice(),
                        "q={q} sketch_len={sketch_len} strand={strand}"
                    );
                }
            }
        }
    }
}
