//! Q-gram counting lower bound on edit distance (the error-ball prefilter).
//!
//! A single edit (substitution, insertion, or deletion) changes or shifts
//! at most `q` of a strand's overlapping q-grams, so two strands within
//! edit distance `d` must share — as multisets — at least
//! `max(|a|, |b|) − d·q` grams, where `|x|` is the number of q-grams in
//! strand `x` (Ukkonen's q-gram distance bound; the same window-damage
//! argument behind the IDS error-ball ball-size bounds of Abbasian et
//! al.). Contrapositively, a shared-gram deficit forces
//!
//! ```text
//! distance(a, b) ≥ ⌈(max(|a|, |b|) − shared(a, b)) / q⌉
//! ```
//!
//! Clustering uses this as a *prefilter*: a [`QGramProfile`] is built once
//! per read or representative (one pass plus a sort of small integers),
//! and candidates whose lower bound already exceeds the distance
//! threshold are dropped before any Myers kernel runs. The bound is
//! conservative, never spurious: a pruned candidate provably cannot land
//! within the threshold, so filtering can never change cluster
//! membership (asserted by the filtered-vs-unfiltered differential in
//! `dnasim-cluster`).
//!
//! The prefilter asks one question per candidate, "does the bound exceed
//! the threshold?", through [`QGramScratch::exceeds`]. Each profile also
//! carries a [`MASK_BITS`]-bit gram-presence mask and its `excess` (grams
//! beyond one per set bit), from which one AND + popcount gives a weaker
//! bound, [`QGramScratch::mask_bound`]. When that already exceeds the
//! threshold the candidate is pruned at once; otherwise the exact
//! histogram scan decides. The answer is exactly `bound > threshold`
//! either way. Strands behind shared primers are the case this is for:
//! their common flanks put nearly every representative in each read's
//! candidate set, the mask settles almost all of those candidates, and
//! only the few near ones pay the scan.
//!
//! # Examples
//!
//! ```
//! use dnasim_core::Strand;
//! use dnasim_metrics::qgram::QGramProfile;
//!
//! let a = QGramProfile::new(&"ACGTACGTACGT".parse::<Strand>()?, 3);
//! let b = QGramProfile::new(&"TTTTTTTTTTTT".parse::<Strand>()?, 3);
//! assert!(a.distance_lower_bound(&b) >= 1);
//! assert_eq!(a.distance_lower_bound(&a), 0);
//! # Ok::<(), dnasim_core::ParseStrandError>(())
//! ```

use dnasim_core::Strand;

use crate::mask_popcount::{and_popcount, and_popcount_scalar};

/// Bits in a profile's gram-presence mask. Every gram code of `q ≤ 5`
/// (`4^5 = 1024` codes) has a bit of its own; longer grams fold onto
/// bit `code mod MASK_BITS`.
pub const MASK_BITS: usize = 1024;

pub(crate) const MASK_WORDS: usize = MASK_BITS / 64;

/// Largest `q` whose gram codes (`4^q` of them) each own a mask bit.
const UNFOLDED_Q: usize = 5;
const _: () = assert!(1 << (2 * UNFOLDED_Q) <= MASK_BITS);

/// The sorted q-gram multiset of one strand, 2-bit packed (`q ≤ 8` keeps
/// every gram in a `u16`), plus its gram-presence mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QGramProfile {
    q: usize,
    /// Sorted 2-bit-packed gram codes, duplicates retained (multiset).
    grams: Vec<u16>,
    /// Bit `code mod MASK_BITS` is set for every gram present.
    mask: [u64; MASK_WORDS],
    /// `grams.len() − popcount(mask)`: the grams the mask does not count
    /// (repeats, and for `q ≥ 6` codes folded onto an already-set bit).
    excess: usize,
}

impl QGramProfile {
    /// Profiles `strand` with gram length `q` (clamped to `1..=8`).
    ///
    /// A strand shorter than `q` has no grams; its profile yields a lower
    /// bound of 0 against everything and therefore never prunes.
    pub fn new(strand: &Strand, q: usize) -> QGramProfile {
        let q = q.clamp(1, 8);
        let bases = strand.as_bases();
        // Rolling code: each base shifts in at the bottom and the mask drops
        // the base that left the window, so every gram costs one shift.
        let keep = (1u32 << (2 * q)) - 1;
        let codes = bases
            .iter()
            .scan(0u32, |code, b| {
                *code = ((*code << 2) | b.index() as u32) & keep;
                Some(*code as u16)
            })
            .skip(q - 1);
        let mut grams: Vec<u16> = Vec::with_capacity((bases.len() + 1).saturating_sub(q));
        let mut mask = [0u64; MASK_WORDS];
        let mut excess = 0;
        if q <= UNFOLDED_Q {
            // Every code has a mask bit of its own, so the sorted multiset is
            // each set bit's code, ascending, repeated by its count: a
            // counting sort with the mask as its index.
            let mut counts = [0u32; MASK_BITS];
            for code in codes {
                counts[code as usize] += 1;
                mask[code as usize / 64] |= 1 << (code % 64);
            }
            for (w, &word) in mask.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let code = w * 64 + bits.trailing_zeros() as usize;
                    let count = counts[code] as usize;
                    grams.extend(std::iter::repeat_n(code as u16, count));
                    excess += count - 1;
                    bits &= bits - 1;
                }
            }
        } else {
            grams.extend(codes);
            grams.sort_unstable();
            for &g in &grams {
                let bit = g as usize % MASK_BITS;
                let (word, one) = (&mut mask[bit / 64], 1u64 << (bit % 64));
                excess += usize::from(*word & one != 0);
                *word |= one;
            }
        }
        QGramProfile {
            q,
            grams,
            mask,
            excess,
        }
    }

    /// The gram length this profile was built with.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of q-grams in the profiled strand (`len − q + 1`, or 0).
    #[inline]
    pub fn gram_count(&self) -> usize {
        self.grams.len()
    }

    /// Multiset intersection size with `other` (sorted-merge scan).
    pub fn shared_grams(&self, other: &QGramProfile) -> usize {
        let (a, b) = (&self.grams, &other.grams);
        let (mut i, mut j, mut shared) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        shared
    }

    /// Lower bound on the edit distance between the two profiled strands:
    /// `⌈(max(|a|, |b|) − shared) / q⌉`.
    ///
    /// Returns 0 (no information) when the profiles were built with
    /// different `q`, so mismatched profiles degrade to "never prune"
    /// rather than to an unsound bound.
    pub fn distance_lower_bound(&self, other: &QGramProfile) -> usize {
        if self.q != other.q {
            return 0;
        }
        let most = self.grams.len().max(other.grams.len());
        let deficit = most - self.shared_grams(other);
        deficit.div_ceil(self.q)
    }
}

/// Load-once, query-many histogram for the hot-path variant of
/// [`QGramProfile::distance_lower_bound`].
///
/// The sorted-merge scan in `distance_lower_bound` pays a data-dependent
/// branch per gram on *both* sides of every pair. The clustering prefilter
/// instead [`load`](QGramScratch::load)s one profile's grams into a dense
/// `4^q`-entry counting array once, then [`bound`](QGramScratch::bound)s
/// any number of candidate profiles against it — each query is a read-only
/// run-length scan of just the candidate's gram list, so comparing one
/// read against many representatives costs `O(|candidate|)` per pair
/// instead of `O(|read| + |candidate|)` plus a histogram rebuild. The
/// bound is identical to the merge version.
#[derive(Debug, Default)]
pub struct QGramScratch {
    /// Dense gram counts of the loaded profile (all-zero outside it).
    counts: Vec<u16>,
    /// Gram list of the loaded profile, kept for the sparse reset on the
    /// next load.
    loaded: Vec<u16>,
    /// `q` of the loaded profile (0 = nothing loaded: every bound is 0).
    loaded_q: usize,
    /// Gram count of the loaded profile.
    loaded_count: usize,
    /// Gram-presence mask of the loaded profile.
    loaded_mask: [u64; MASK_WORDS],
    /// `excess` of the loaded profile.
    loaded_excess: usize,
}

impl QGramScratch {
    /// An empty scratch; the first [`load`](QGramScratch::load) sizes it.
    pub fn new() -> QGramScratch {
        QGramScratch::default()
    }

    /// Loads `profile` into the histogram, replacing any previous load.
    ///
    /// Only the entries set by the previous load are re-zeroed, so a load
    /// costs one pass over each profile's gram list regardless of `4^q`.
    pub fn load(&mut self, profile: &QGramProfile) {
        for &g in &self.loaded {
            self.counts[g as usize] = 0;
        }
        // Gram codes are 2q bits by construction, so they index `space`.
        let space = 1usize << (2 * profile.q);
        if self.counts.len() < space {
            self.counts.resize(space, 0);
        }
        for &g in &profile.grams {
            self.counts[g as usize] += 1;
        }
        self.loaded.clear();
        self.loaded.extend_from_slice(&profile.grams);
        self.loaded_q = profile.q;
        self.loaded_count = profile.grams.len();
        self.loaded_mask = profile.mask;
        self.loaded_excess = profile.excess;
    }

    /// Lower bound on the edit distance between the loaded strand and
    /// `other` — exactly [`QGramProfile::distance_lower_bound`], but
    /// read-only, so one load serves any number of candidate queries.
    ///
    /// Returns 0 (never prunes) when nothing is loaded or the `q`s differ.
    pub fn bound(&self, other: &QGramProfile) -> usize {
        if self.loaded_q != other.q {
            return 0;
        }
        // `other.grams` is sorted, so equal grams form runs; each run of
        // length r contributes min(r, loaded count) to the multiset
        // intersection.
        let grams = &other.grams;
        let mut shared = 0usize;
        let mut i = 0usize;
        while i < grams.len() {
            let g = grams[i];
            let mut run = 1usize;
            while i + run < grams.len() && grams[i + run] == g {
                run += 1;
            }
            shared += run.min(self.counts[g as usize] as usize);
            i += run;
        }
        let most = self.loaded_count.max(grams.len());
        (most - shared).div_ceil(other.q)
    }

    /// The bit-parallel screen: a lower bound on [`bound`](QGramScratch::bound)
    /// from the two presence masks alone, one AND + popcount over
    /// [`MASK_BITS`] bits.
    ///
    /// Let `A_b`, `B_b` count each side's grams on bit `b`. Only bits set
    /// in both masks share grams, and bit `b` shares at most
    /// `min(A_b, B_b) = 1 + min(A_b − 1, B_b − 1)` (folding distinct codes
    /// onto one bit can only raise this). The `A_b − 1` summed over all
    /// bits is `excess_a`, so the multiset intersection obeys
    /// `shared ≤ popcount(a & b) + min(excess_a, excess_b)`, and
    ///
    /// ```text
    /// ⌈(max(|a|, |b|) − popcount(a & b) − min(excess_a, excess_b)) / q⌉ ≤ bound
    /// ```
    ///
    /// Like `bound`, returns 0 (never prunes) when nothing is loaded or
    /// the `q`s differ.
    ///
    /// The popcount runs on the active SIMD tier (see `DNASIM_SIMD`); every
    /// tier returns the same integer as
    /// [`mask_bound_scalar`](QGramScratch::mask_bound_scalar).
    #[inline]
    pub fn mask_bound(&self, other: &QGramProfile) -> usize {
        if self.loaded_q != other.q {
            return 0;
        }
        self.bound_from_common(other, and_popcount(&self.loaded_mask, &other.mask))
    }

    /// [`mask_bound`](QGramScratch::mask_bound) with the portable
    /// `count_ones` popcount whatever the SIMD mode. Public so the
    /// differential suite can compare the tiers.
    pub fn mask_bound_scalar(&self, other: &QGramProfile) -> usize {
        if self.loaded_q != other.q {
            return 0;
        }
        self.bound_from_common(other, and_popcount_scalar(&self.loaded_mask, &other.mask))
    }

    /// The mask bound given `common = popcount(loaded_mask & other.mask)`.
    #[inline]
    fn bound_from_common(&self, other: &QGramProfile, common: usize) -> usize {
        let shared_at_most = common + self.loaded_excess.min(other.excess);
        let most = self.loaded_count.max(other.grams.len());
        most.saturating_sub(shared_at_most).div_ceil(other.q)
    }

    /// Whether [`bound`](QGramScratch::bound) exceeds `limit` — exactly
    /// `bound(other) > limit`, decided by the [`mask_bound`](QGramScratch::mask_bound)
    /// screen when it already exceeds `limit` and by the exact scan
    /// otherwise.
    #[inline]
    pub fn exceeds(&self, other: &QGramProfile, limit: usize) -> bool {
        self.mask_bound(other) > limit || self.bound(other) > limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::{seeded, Rng};

    fn profile(text: &str, q: usize) -> QGramProfile {
        QGramProfile::new(&text.parse::<Strand>().unwrap(), q)
    }

    #[test]
    fn identical_strands_have_zero_bound() {
        let p = profile("ACGTACGTAC", 4);
        assert_eq!(p.distance_lower_bound(&p), 0);
        assert_eq!(p.shared_grams(&p), p.gram_count());
    }

    #[test]
    fn disjoint_alphabets_give_strong_bound() {
        let a = profile(&"A".repeat(40), 4);
        let b = profile(&"T".repeat(40), 4);
        assert_eq!(a.shared_grams(&b), 0);
        // 37 grams, zero shared, q = 4 → bound ⌈37/4⌉ = 10.
        assert_eq!(a.distance_lower_bound(&b), 10);
    }

    #[test]
    fn short_strands_never_prune() {
        let a = profile("AC", 5);
        let b = profile(&"ACGT".repeat(10), 5);
        // `a` has no grams: deficit is b's full gram count.
        assert_eq!(a.gram_count(), 0);
        assert!(a.distance_lower_bound(&b) <= 40);
        let c = profile("GT", 5);
        assert_eq!(a.distance_lower_bound(&c), 0);
    }

    #[test]
    fn mismatched_q_yields_no_information() {
        let a = profile("ACGTACGT", 3);
        let b = profile("TTTTTTTT", 4);
        assert_eq!(a.distance_lower_bound(&b), 0);
    }

    #[test]
    fn bound_never_exceeds_true_distance_randomised() {
        let mut rng = seeded(11);
        for _ in 0..200 {
            let len_a = 1 + (rng.next_u64() % 120) as usize;
            let len_b = 1 + (rng.next_u64() % 120) as usize;
            let a = Strand::random(len_a, &mut rng);
            let b = Strand::random(len_b, &mut rng);
            for q in [1usize, 3, 5, 8] {
                let pa = QGramProfile::new(&a, q);
                let pb = QGramProfile::new(&b, q);
                let bound = pa.distance_lower_bound(&pb);
                let true_d = crate::levenshtein(a.as_bases(), b.as_bases());
                assert!(
                    bound <= true_d,
                    "unsound bound {bound} > distance {true_d} (q={q}, a={a}, b={b})"
                );
                assert_eq!(bound, pb.distance_lower_bound(&pa), "bound is symmetric");
            }
        }
    }

    #[test]
    fn scratch_bound_equals_merge_bound() {
        let mut rng = seeded(23);
        let mut scratch = QGramScratch::new();
        assert_eq!(scratch.bound(&profile("ACGTACGT", 3)), 0, "unloaded scratch never prunes");
        for _ in 0..300 {
            let a = Strand::random(1 + (rng.next_u64() % 150) as usize, &mut rng);
            let b = Strand::random(1 + (rng.next_u64() % 150) as usize, &mut rng);
            for q in [1usize, 2, 5, 8] {
                let pa = QGramProfile::new(&a, q);
                let pb = QGramProfile::new(&b, q);
                // The scratch is reusable in both directions and across
                // mixed q sizes (the sparse reset really restores zero).
                scratch.load(&pa);
                assert_eq!(scratch.bound(&pb), pa.distance_lower_bound(&pb));
                scratch.load(&pb);
                assert_eq!(scratch.bound(&pa), pb.distance_lower_bound(&pa));
            }
        }
        // Mismatched q still degrades to "no information".
        let p3 = QGramProfile::new(&Strand::random(40, &mut rng), 3);
        let p4 = QGramProfile::new(&Strand::random(40, &mut rng), 4);
        scratch.load(&p3);
        assert_eq!(scratch.bound(&p4), 0);
    }

    /// The construction the rolling code replaced, kept as its oracle:
    /// every window folded from scratch, then sorted, then the mask and
    /// its excess from a popcount.
    fn windows_profile(strand: &Strand, q: usize) -> QGramProfile {
        let q = q.clamp(1, 8);
        let bases = strand.as_bases();
        let mut grams: Vec<u16> = if bases.len() < q {
            Vec::new()
        } else {
            bases
                .windows(q)
                .map(|w| {
                    let mut code: u16 = 0;
                    for &b in w {
                        code = (code << 2) | b.index() as u16;
                    }
                    code
                })
                .collect()
        };
        grams.sort_unstable();
        let mut mask = [0u64; MASK_WORDS];
        for &g in &grams {
            let bit = g as usize % MASK_BITS;
            mask[bit / 64] |= 1 << (bit % 64);
        }
        let excess = grams.len() - mask.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        QGramProfile {
            q,
            grams,
            mask,
            excess,
        }
    }

    #[test]
    fn rolling_codes_equal_the_windowed_profile() {
        use dnasim_core::Base;
        let mut rng = seeded(47);
        let forward = Strand::random(20, &mut rng);
        let reverse = Strand::random(20, &mut rng);
        let mut strands: Vec<Strand> = vec![Strand::new()];
        for len in 0..12 {
            // Every length around every q, including shorter than q.
            strands.push(Strand::random(len, &mut rng));
        }
        for _ in 0..40 {
            let len = (rng.next_u64() % 200) as usize;
            strands.push(Strand::random(len, &mut rng));
            // Primer-flanked: the archive's shape.
            strands.push(forward.concat(&Strand::random(len, &mut rng)).concat(&reverse));
            // Homopolymer runs with rare breaks: few distinct grams and a
            // large excess.
            let run = 1 + (rng.next_u64() % 30) as usize;
            strands.push(
                (0..len)
                    .map(|i| Base::ALL[(i / run + usize::from(rng.next_u64().is_multiple_of(8))) % 4])
                    .collect(),
            );
        }
        for base in Base::ALL {
            strands.push(std::iter::repeat_n(base, 64).collect());
        }
        for strand in &strands {
            // q = 0 and q > 8 clamp to the nearest supported length.
            for q in 0..=11 {
                assert_eq!(
                    QGramProfile::new(strand, q),
                    windows_profile(strand, q),
                    "q={q} strand={strand}"
                );
            }
        }
    }

    #[test]
    fn single_edit_bound_is_at_most_one() {
        // One substitution damages ≤ q grams, so the bound must be ≤ 1.
        let a = profile("ACGTACGTACGTACGT", 4);
        let b = profile("ACGTACTTACGTACGT", 4);
        assert!(a.distance_lower_bound(&b) <= 1);
    }
}
