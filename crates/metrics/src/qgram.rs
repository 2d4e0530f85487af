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
//! the threshold?", which [`QGramScratch::exceeds`] answers for one
//! candidate. Each profile also carries a [`MASK_BITS`]-bit gram-presence
//! mask and its `excess` (grams beyond one per set bit), from which one
//! AND + popcount gives a weaker bound, [`QGramScratch::mask_bound`]. When
//! that already exceeds the threshold the candidate is pruned at once;
//! otherwise the exact histogram scan decides. The answer is exactly
//! `bound > threshold` either way. Strands behind shared primers are the
//! case this is for: their common flanks put nearly every representative
//! in each read's candidate set, the mask settles almost all of those
//! candidates, and only the few near ones pay the scan.
//!
//! Clustering asks the question for a whole candidate list at once:
//! [`QGramScratch::screen`] runs it over the rows of a [`ScreenArena`],
//! which holds each representative's profile once, in one SIMD call per
//! list. Its verdict for every candidate is `exceeds`'s.
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

use crate::mask_popcount::{and_popcount, and_popcount_scalar, screen_on, ScreenKernel};

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
        self.load_parts(profile.q, &profile.grams, &profile.mask, profile.excess);
    }

    /// Loads row `id` of `arena`, exactly as [`load`](QGramScratch::load)
    /// of the profile pushed as that row. An id with no row unloads the
    /// scratch (every bound is then 0).
    pub fn load_row(&mut self, arena: &ScreenArena, id: usize) {
        match arena.row(id) {
            Some((page, slot)) => {
                let meta = page.meta[slot];
                self.load_parts(meta.q, &page.grams[slot], &page.masks[slot].0, meta.excess);
            }
            None => self.load_parts(0, &[], &[0; MASK_WORDS], 0),
        }
    }

    fn load_parts(&mut self, q: usize, grams: &[u16], mask: &[u64; MASK_WORDS], excess: usize) {
        for &g in &self.loaded {
            self.counts[g as usize] = 0;
        }
        // Gram codes are 2q bits by construction, so they index `space`.
        let space = 1usize << (2 * q);
        if self.counts.len() < space {
            self.counts.resize(space, 0);
        }
        for &g in grams {
            self.counts[g as usize] += 1;
        }
        self.loaded.clear();
        self.loaded.extend_from_slice(grams);
        self.loaded_q = q;
        self.loaded_count = grams.len();
        self.loaded_mask = *mask;
        self.loaded_excess = excess;
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
        let most = self.loaded_count.max(other.grams.len());
        (most - self.shared(&other.grams)).div_ceil(other.q)
    }

    /// Multiset intersection of the loaded grams with the sorted `grams`.
    /// Equal grams form runs; each run of length r contributes
    /// min(r, loaded count) to the intersection.
    #[inline]
    fn shared(&self, grams: &[u16]) -> usize {
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
        shared
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

    /// The batched screen: settles every id of `candidates` against the
    /// loaded profile in one call. Each id whose row
    /// [`exceeds`](QGramScratch::exceeds) would reject is counted; every
    /// other id is appended to `survivors`, in `candidates` order. Returns
    /// the count. An id with no row in `arena` survives.
    ///
    /// The mask popcount runs on the active SIMD tier: the AVX2 tier uses
    /// AVX-512 VPOPCNTDQ where the CPU has it, and the AVX2 nibble table
    /// otherwise. Every kernel gives each candidate the same verdict as
    /// `exceeds`.
    pub fn screen(
        &self,
        arena: &ScreenArena,
        candidates: &[usize],
        limit: usize,
        survivors: &mut Vec<usize>,
    ) -> usize {
        screen_on(
            ScreenKernel::active(),
            self,
            arena,
            candidates,
            limit,
            survivors,
        )
    }

    /// The mask of the loaded profile, for the screen kernels.
    #[inline]
    pub(crate) fn loaded_mask(&self) -> &[u64; MASK_WORDS] {
        &self.loaded_mask
    }

    /// The screen's loop, shared by every kernel; `common` is the
    /// kernel's `popcount(loaded_mask & row)`.
    ///
    /// It decides `bound > limit` without dividing: for integers `x ≥ 0`
    /// and `q ≥ 1`, `⌈x/q⌉ > limit ⟺ x > limit·q`. A `limit·q` that
    /// overflows saturates, and no deficit exceeds `usize::MAX`, which is
    /// the division's answer too. The mask test comes first, and only the
    /// candidates it leaves open take the exact test, out of line.
    #[inline(always)]
    pub(crate) fn screen_rows(
        &self,
        arena: &ScreenArena,
        candidates: &[usize],
        limit: usize,
        survivors: &mut Vec<usize>,
        mut common: impl FnMut(&[u64; MASK_WORDS]) -> usize,
    ) -> usize {
        let q = self.loaded_q;
        let threshold = limit.saturating_mul(q);
        let before = survivors.len();
        for &id in candidates {
            // Rows always have `q ≥ 1`, so an unloaded scratch (`q = 0`)
            // prunes nothing, as `exceeds` does.
            let settled = arena.row(id).is_some_and(|(page, slot)| {
                let meta = page.meta[slot];
                let most = self.loaded_count.max(meta.count);
                let shared_at_most =
                    common(&page.masks[slot].0) + self.loaded_excess.min(meta.excess);
                meta.q == q && most.saturating_sub(shared_at_most) > threshold
            });
            if !settled && !self.row_exceeds(arena, id, threshold) {
                survivors.push(id);
            }
        }
        candidates.len() - (survivors.len() - before)
    }

    /// The exact test of row `id`: `max(|a|, |b|) − shared > threshold`,
    /// which is `bound > limit` for `threshold = limit·q`. False for a
    /// missing row or another `q`.
    #[inline(never)]
    fn row_exceeds(&self, arena: &ScreenArena, id: usize, threshold: usize) -> bool {
        arena.row(id).is_some_and(|(page, slot)| {
            let meta = page.meta[slot];
            let most = self.loaded_count.max(meta.count);
            meta.q == self.loaded_q && most - self.shared(&page.grams[slot]) > threshold
        })
    }
}

/// Rows per [`ScreenArena`] page: one 64-bit word of a candidate bitmap.
const PAGE_ROWS: usize = 64;

/// One gram-presence mask, aligned so that its 128 bytes fill exactly two
/// cache lines.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct MaskRow([u64; MASK_WORDS]);

/// What the screen reads of a row besides its mask.
#[derive(Clone, Copy, Default)]
struct RowMeta {
    q: usize,
    count: usize,
    excess: usize,
}

/// [`PAGE_ROWS`] rows. A page is allocated once and never moves.
struct Page {
    masks: [MaskRow; PAGE_ROWS],
    meta: [RowMeta; PAGE_ROWS],
    /// The sorted grams of each row, for the exact fallback.
    grams: Vec<Box<[u16]>>,
}

/// The profiles a [`QGramScratch::screen`] runs against, one row per id.
///
/// A row holds what the screen reads: the 128-byte presence mask, the gram
/// count, the excess and `q`, and the sorted grams for the exact
/// fallback. Rows live in pages of 64, so ids `64w..64w + 63` share a page
/// and growing the arena never copies or double-buffers a row.
///
/// # Examples
///
/// ```
/// use dnasim_core::Strand;
/// use dnasim_metrics::qgram::{QGramProfile, QGramScratch, ScreenArena};
///
/// let strands = ["ACGTACGTACGTACGT", "TTTTTTTTTTTTTTTT", "ACGTACGTACGAACGT"];
/// let mut arena = ScreenArena::new();
/// for s in strands {
///     arena.push(QGramProfile::new(&s.parse::<Strand>()?, 3));
/// }
/// let mut scratch = QGramScratch::new();
/// scratch.load(&QGramProfile::new(&strands[0].parse::<Strand>()?, 3));
/// let mut survivors = Vec::new();
/// let pruned = scratch.screen(&arena, &[0, 1, 2], 2, &mut survivors);
/// assert_eq!((pruned, survivors), (1, vec![0, 2]));
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
#[derive(Default)]
pub struct ScreenArena {
    pages: Vec<Box<Page>>,
    len: usize,
}

impl std::fmt::Debug for ScreenArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScreenArena")
            .field("rows", &self.len)
            .finish()
    }
}

impl ScreenArena {
    /// An empty arena.
    pub fn new() -> ScreenArena {
        ScreenArena::default()
    }

    /// Appends `profile` as the next row: the first push is id 0, the
    /// next id 1, and so on. The grams move into the arena; the mask is
    /// copied into its page.
    pub fn push(&mut self, profile: QGramProfile) {
        let slot = self.len % PAGE_ROWS;
        if slot == 0 {
            self.pages.push(Box::new(Page {
                masks: [MaskRow([0; MASK_WORDS]); PAGE_ROWS],
                meta: [RowMeta::default(); PAGE_ROWS],
                grams: Vec::with_capacity(PAGE_ROWS),
            }));
        }
        if let Some(page) = self.pages.last_mut() {
            page.masks[slot] = MaskRow(profile.mask);
            page.meta[slot] = RowMeta {
                q: profile.q,
                count: profile.grams.len(),
                excess: profile.excess,
            };
            page.grams.push(profile.grams.into_boxed_slice());
        }
        self.len += 1;
    }

    /// The page holding row `id` and the row's slot in it.
    #[inline]
    fn row(&self, id: usize) -> Option<(&Page, usize)> {
        if id >= self.len {
            return None;
        }
        self.pages
            .get(id / PAGE_ROWS)
            .map(|page| (&**page, id % PAGE_ROWS))
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
        assert_eq!(p.shared_grams(&p), p.grams.len());
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
        assert!(a.grams.is_empty());
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
