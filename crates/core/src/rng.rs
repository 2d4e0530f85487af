//! Deterministic random-number plumbing — fully self-contained.
//!
//! Every stochastic component in the workspace takes an explicit `&mut R:
//! Rng`, and experiments construct their generators through [`seeded`] /
//! [`SeedSequence`] so that whole tables and figures are reproducible from a
//! single seed.
//!
//! The generator, the [`Rng`]/[`RngExt`] traits, and the slice helpers are
//! implemented in-tree (no crates.io dependency): the workspace builds with
//! `CARGO_NET_OFFLINE=true` from a clean checkout. The stream produced by
//! [`seeded`] is part of the repo's compatibility contract — golden tests
//! pin it, and changing it invalidates every recorded experiment seed.
//!
//! # Seed discipline
//!
//! * One experiment = one root seed, fanned out through [`SeedSequence`].
//! * Components that may be added/removed independently use
//!   [`SeedSequence::derive`] with a stable string label, so their stream
//!   never depends on the order other components draw in.
//! * Loops over homogeneous units (clusters, sweep points) use
//!   [`SeedSequence::next_seed`].

use std::ops::{Range, RangeInclusive};

/// The RNG used throughout the simulator: xoshiro256++, a small, fast,
/// seedable PRNG with 256 bits of state and good statistical quality.
pub type SimRng = Xoshiro256PlusPlus;

/// A xoshiro256++ pseudo-random generator (Blackman & Vigna, 2019).
///
/// Seeded from a single `u64` by expanding it through four rounds of
/// SplitMix64, the standard construction that guarantees a non-degenerate
/// (never all-zero) initial state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Creates a generator by expanding a 64-bit seed through SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Xoshiro256PlusPlus {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            splitmix64(sm)
        };
        Xoshiro256PlusPlus {
            s: [next(), next(), next(), next()],
        }
    }

}

impl Rng for Xoshiro256PlusPlus {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// A source of random bits.
///
/// The one required method is [`next_u64`]; everything else (typed draws,
/// ranges, booleans, slice operations) is layered on top via [`RngExt`] and
/// [`SliceRandom`]. Stochastic functions take `&mut R` with `R: Rng + ?Sized`
/// so callers can pass any generator (in practice always [`SimRng`]).
///
/// [`next_u64`]: Rng::next_u64
pub trait Rng {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (the upper half of a 64-bit draw).
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Convenience draws on any [`Rng`]: typed values, ranges, and biased coins.
///
/// ```
/// use dnasim_core::rng::{seeded, RngExt};
///
/// let mut rng = seeded(7);
/// let x: f64 = rng.random();
/// assert!((0.0..1.0).contains(&x));
/// assert!((0..10).contains(&rng.random_range(0..10)));
/// let _coin = rng.random_bool(0.25);
/// ```
pub trait RngExt: Rng {
    /// Draws a value uniformly over the type's full domain (`[0, 1)` for
    /// floats).
    #[inline]
    fn random<T: StandardRandom>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn random_range<T: SampleUniform, B: SampleRange<T>>(&mut self, range: B) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.random::<f64>() < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Types drawable uniformly over their whole domain via [`RngExt::random`].
pub trait StandardRandom {
    /// Draws one value from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_random_int {
    ($($unsigned:ty => $signed:ty),* $(,)?) => {$(
        impl StandardRandom for $unsigned {
            #[inline]
            fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $unsigned
            }
        }
        impl StandardRandom for $signed {
            #[inline]
            fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $signed
            }
        }
    )*};
}

standard_random_int!(u8 => i8, u16 => i16, u32 => i32, u64 => i64, usize => isize);

impl StandardRandom for u128 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl StandardRandom for i128 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        u128::sample(rng) as i128
    }
}

impl StandardRandom for bool {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl StandardRandom for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardRandom for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types with an unbiased bounded-uniform sampler, usable with
/// [`RngExt::random_range`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Draws uniformly from `[low, high)`, or `[low, high]` if `inclusive`.
    fn sample_between<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self, inclusive: bool)
        -> Self;
}

/// Unbiased uniform draw from `[0, span)` via Lemire's multiply-shift
/// rejection method (`span == 0` means the full 2^64 domain).
#[inline]
fn uniform_u64_below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    let mut x = rng.next_u64();
    let mut m = u128::from(x) * u128::from(span);
    let mut low_bits = m as u64;
    if low_bits < span {
        let threshold = span.wrapping_neg() % span;
        while low_bits < threshold {
            x = rng.next_u64();
            m = u128::from(x) * u128::from(span);
            low_bits = m as u64;
        }
    }
    (m >> 64) as u64
}

macro_rules! sample_uniform_int {
    ($($ty:ty),* $(,)?) => {$(
        impl SampleUniform for $ty {
            #[inline]
            fn sample_between<R: Rng + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                inclusive: bool,
            ) -> Self {
                if inclusive {
                    assert!(low <= high, "cannot sample from an empty range");
                } else {
                    assert!(low < high, "cannot sample from an empty range");
                }
                // Width as u64; spans are computed in the unsigned domain so
                // signed ranges (e.g. -5..5) wrap correctly.
                let span = (high as u64)
                    .wrapping_sub(low as u64)
                    .wrapping_add(inclusive as u64);
                low.wrapping_add(uniform_u64_below(rng, span) as $ty)
            }
        }
    )*};
}

sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! sample_uniform_float {
    ($($ty:ty),* $(,)?) => {$(
        impl SampleUniform for $ty {
            #[inline]
            fn sample_between<R: Rng + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                inclusive: bool,
            ) -> Self {
                assert!(
                    low < high || (inclusive && low == high),
                    "cannot sample from an empty range"
                );
                assert!(low.is_finite() && high.is_finite());
                let unit = <$ty as StandardRandom>::sample(rng);
                let value = low + (high - low) * unit;
                // Rounding can land exactly on `high`; fold it back for
                // half-open ranges.
                if !inclusive && value >= high {
                    low
                } else {
                    value
                }
            }
        }
    )*};
}

sample_uniform_float!(f32, f64);

/// Range shapes accepted by [`RngExt::random_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, *self.start(), *self.end(), true)
    }
}

/// Random operations on slices: Fisher–Yates [`shuffle`] and uniform
/// [`choose`].
///
/// ```
/// use dnasim_core::rng::{seeded, SliceRandom};
///
/// let mut rng = seeded(9);
/// let mut xs = [1, 2, 3, 4, 5];
/// xs.shuffle(&mut rng);
/// assert!(xs.contains(&3));
/// assert!(xs.choose(&mut rng).is_some());
/// ```
///
/// [`shuffle`]: SliceRandom::shuffle
/// [`choose`]: SliceRandom::choose
pub trait SliceRandom {
    /// The element type.
    type Item;

    /// Shuffles the slice in place (unbiased Fisher–Yates).
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

    /// Returns a uniformly chosen element, or `None` if empty.
    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            self.swap(i, rng.random_range(0..=i));
        }
    }

    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.random_range(0..self.len())])
        }
    }
}

/// Creates a deterministic [`SimRng`] from a 64-bit seed.
///
/// ```
/// use dnasim_core::rng::seeded;
/// use dnasim_core::rng::RngExt;
///
/// let mut a = seeded(7);
/// let mut b = seeded(7);
/// assert_eq!(a.random::<u64>(), b.random::<u64>());
/// ```
pub fn seeded(seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed)
}

/// A hierarchical seed dispenser.
///
/// Experiments fan out into many independent stochastic components (one per
/// cluster, per simulator layer, per sweep point). `SeedSequence` derives a
/// stream of decorrelated child seeds from one root seed, so adding a
/// component never perturbs the randomness of the others.
///
/// # Examples
///
/// ```
/// use dnasim_core::rng::SeedSequence;
///
/// let mut seq = SeedSequence::new(42);
/// let a = seq.next_seed();
/// let b = seq.next_seed();
/// assert_ne!(a, b);
///
/// // A named substream is independent of draw order.
/// let x = SeedSequence::new(42).derive("channel");
/// let y = SeedSequence::new(42).derive("channel");
/// assert_eq!(x, y);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedSequence {
    root: u64,
    counter: u64,
}

impl SeedSequence {
    /// Creates a sequence rooted at `seed`.
    pub fn new(seed: u64) -> SeedSequence {
        SeedSequence {
            root: seed,
            counter: 0,
        }
    }

    /// The root seed this sequence derives children from.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Returns the next child seed in the stream.
    pub fn next_seed(&mut self) -> u64 {
        self.counter += 1;
        splitmix64(self.root ^ splitmix64(self.counter))
    }

    /// Derives an independent child sequence for item `index`.
    ///
    /// This is the workspace's discipline for fan-outs over homogeneous
    /// units (clusters, sweep points, chaos cases): each item gets its own
    /// decorrelated stream, keyed *only* by `(root, index)`. Unlike
    /// [`next_seed`], forking does not mutate the sequence, so the stream an
    /// item receives is independent of processing order — and therefore of
    /// thread scheduling, which is what makes parallel execution
    /// bit-identical to serial (see `dnasim-par`).
    ///
    /// Never substitute ad-hoc arithmetic (`seed + i`, `seed ^ i`) for this:
    /// adjacent seeds fed to SplitMix-style expansion are decorrelated, but
    /// the *set* of streams then depends on how the caller enumerates items,
    /// and collides across components that pick overlapping offsets.
    ///
    /// ```
    /// use dnasim_core::rng::SeedSequence;
    ///
    /// let seq = SeedSequence::new(7);
    /// let a = seq.fork(0).next_seed();
    /// let b = seq.fork(1).next_seed();
    /// assert_ne!(a, b);
    /// // Forking is order-independent and repeatable.
    /// assert_eq!(seq.fork(0).next_seed(), a);
    /// ```
    ///
    /// [`next_seed`]: SeedSequence::next_seed
    pub fn fork(&self, index: u64) -> SeedSequence {
        // Domain-separation tweak keeps fork(i) off the next_seed() stream
        // (which mixes small counters) and off derive() (which mixes FNV
        // label hashes).
        const FORK_TWEAK: u64 = 0x9E6C_63D0_876A_3F6B;
        SeedSequence::new(splitmix64(self.root ^ splitmix64(index ^ FORK_TWEAK)))
    }

    /// Derives the RNG of the child sequence for item `index`.
    pub fn fork_rng(&self, index: u64) -> SimRng {
        seeded(self.fork(index).root)
    }

    /// Derives a seed for a named substream, independent of [`next_seed`]
    /// draw order.
    ///
    /// [`next_seed`]: SeedSequence::next_seed
    pub fn derive(&self, label: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for byte in label.bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3); // FNV prime
        }
        splitmix64(self.root ^ h)
    }

    /// Derives an RNG for a named substream.
    pub fn derive_rng(&self, label: &str) -> SimRng {
        seeded(self.derive(label))
    }

    /// Derives an independent child *sequence* for a named substream, so
    /// namespaces can be nested: `seq.derive_seq(tenant).derive_seq(id)`
    /// yields a stream keyed by the whole label path, independent of any
    /// other path. This is the serve tier's isolation primitive — every
    /// `(tenant, request_id)` pair owns a namespace no other pair can
    /// observe or perturb (DESIGN.md §12).
    ///
    /// ```
    /// use dnasim_core::rng::SeedSequence;
    ///
    /// let root = SeedSequence::new(1);
    /// let a = root.derive_seq("tenant-a").derive_seq("req-1");
    /// let b = root.derive_seq("tenant-b").derive_seq("req-1");
    /// assert_ne!(a, b);
    /// // Replaying the same path reproduces the same namespace.
    /// assert_eq!(a, root.derive_seq("tenant-a").derive_seq("req-1"));
    /// ```
    pub fn derive_seq(&self, label: &str) -> SeedSequence {
        SeedSequence::new(self.derive(label))
    }
}

/// SplitMix64 finaliser: a strong 64-bit mixer used to decorrelate seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let xs: Vec<u32> = (0..8).map(|_| seeded(99).random()).collect();
        assert!(xs.windows(2).all(|w| w[0] == w[1]));
        let mut rng = seeded(99);
        let first: u32 = rng.random();
        assert_eq!(first, xs[0]);
    }

    #[test]
    fn different_seeds_differ() {
        let a: u64 = seeded(1).random();
        let b: u64 = seeded(2).random();
        assert_ne!(a, b);
    }

    #[test]
    fn matches_xoshiro256plusplus_reference_vector() {
        // Reference output for state [1, 2, 3, 4] from the xoshiro authors'
        // C implementation (prng.di.unimi.it).
        let mut rng = Xoshiro256PlusPlus { s: [1, 2, 3, 4] };
        let expected: [u64; 10] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
            14011001112246962877,
            12406186145184390807,
            15849039046786891736,
            10450023813501588000,
        ];
        for &e in &expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn fill_bytes_matches_next_u64_stream() {
        let mut a = seeded(5);
        let mut b = seeded(5);
        let mut buf = [0u8; 20];
        a.fill_bytes(&mut buf);
        let w0 = b.next_u64().to_le_bytes();
        let w1 = b.next_u64().to_le_bytes();
        let w2 = b.next_u64().to_le_bytes();
        assert_eq!(&buf[..8], &w0);
        assert_eq!(&buf[8..16], &w1);
        assert_eq!(&buf[16..], &w2[..4]);
    }

    #[test]
    fn random_range_respects_bounds() {
        let mut rng = seeded(11);
        for _ in 0..2000 {
            let x = rng.random_range(3..17usize);
            assert!((3..17).contains(&x));
            let y = rng.random_range(1..=255u32);
            assert!((1..=255).contains(&y));
            let z = rng.random_range(-5i64..5);
            assert!((-5..5).contains(&z));
            let f = rng.random_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn random_range_covers_small_domain() {
        let mut rng = seeded(13);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.random_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Inclusive single-point range is the identity.
        assert_eq!(rng.random_range(9..=9u32), 9);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        seeded(1).random_range(5..5usize);
    }

    #[test]
    fn random_bool_edge_probabilities() {
        let mut rng = seeded(17);
        assert!((0..100).all(|_| !rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn unit_floats_are_in_unit_interval() {
        let mut rng = seeded(19);
        for _ in 0..2000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = rng.random();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = seeded(23);
        let mut xs: Vec<u32> = (0..50).collect();
        xs.shuffle(&mut rng);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // A 50-element shuffle fixing every point has probability 1/50!.
        assert_ne!(xs, sorted);
    }

    #[test]
    fn choose_is_none_only_for_empty() {
        let mut rng = seeded(29);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let xs = [7u8, 8, 9];
        assert!(xs.contains(xs.choose(&mut rng).unwrap()));
    }

    #[test]
    fn sequence_children_are_distinct() {
        let mut seq = SeedSequence::new(7);
        let seeds: Vec<u64> = (0..100).map(|_| seq.next_seed()).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn sequence_is_reproducible() {
        let mut a = SeedSequence::new(5);
        let mut b = SeedSequence::new(5);
        for _ in 0..10 {
            assert_eq!(a.next_seed(), b.next_seed());
        }
    }

    #[test]
    fn derive_is_order_independent() {
        let mut seq = SeedSequence::new(3);
        let before = seq.derive("x");
        seq.next_seed();
        seq.next_seed();
        assert_eq!(seq.derive("x"), before);
    }

    #[test]
    fn fork_is_order_independent_and_pure() {
        let mut seq = SeedSequence::new(11);
        let before = seq.fork(3);
        seq.next_seed();
        seq.next_seed();
        assert_eq!(seq.fork(3), before);
        // Forking does not advance the parent stream.
        let mut a = SeedSequence::new(11);
        let mut b = SeedSequence::new(11);
        let _ = a.fork(0);
        assert_eq!(a.next_seed(), b.next_seed());
    }

    #[test]
    fn fork_children_are_distinct_and_rooted() {
        let seq = SeedSequence::new(13);
        let mut seeds: Vec<u64> = (0..1000).map(|i| seq.fork(i).next_seed()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1000);
        // Different roots give different children for the same index.
        assert_ne!(
            SeedSequence::new(1).fork(7).next_seed(),
            SeedSequence::new(2).fork(7).next_seed()
        );
        // fork_rng draws from the child sequence's root stream.
        let mut direct = seeded(seq.fork(5).next_seed());
        let mut viarng = seq.fork_rng(5);
        // Both are seeded deterministically; they need not be equal, but
        // each must be reproducible.
        assert_eq!(direct.next_u64(), seeded(seq.fork(5).next_seed()).next_u64());
        assert_eq!(viarng.next_u64(), seq.fork_rng(5).next_u64());
    }

    #[test]
    fn fork_avoids_next_seed_and_derive_streams() {
        let seq = SeedSequence::new(99);
        let mut ordered = SeedSequence::new(99);
        let ordinary: Vec<u64> = (0..64).map(|_| ordered.next_seed()).collect();
        for i in 0..64u64 {
            let child = seq.fork(i).next_seed();
            assert!(!ordinary.contains(&child), "fork({i}) collides with next_seed stream");
            assert_ne!(seq.fork(i).next_seed(), seq.derive("channel"));
        }
    }

    #[test]
    fn derive_labels_are_distinct() {
        let seq = SeedSequence::new(3);
        assert_ne!(seq.derive("channel"), seq.derive("coverage"));
        assert_ne!(seq.derive("a"), SeedSequence::new(4).derive("a"));
    }

    #[test]
    fn derive_seq_nests_into_distinct_namespaces() {
        let root = SeedSequence::new(42);
        // Nesting composes: the path (tenant, request) keys the namespace.
        let mut paths = Vec::new();
        for tenant in ["alpha", "beta", "gamma"] {
            for req in ["r0", "r1", "r2"] {
                paths.push(root.derive_seq(tenant).derive_seq(req).root());
            }
        }
        let mut dedup = paths.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), paths.len(), "nested namespaces collide");
        // Label concatenation must not alias the nested path: ("ab", "c")
        // and ("a", "bc") are different namespaces.
        assert_ne!(
            root.derive_seq("ab").derive_seq("c").root(),
            root.derive_seq("a").derive_seq("bc").root()
        );
        // A nested namespace is pure: deriving never mutates the parent.
        let mut a = SeedSequence::new(42);
        let mut b = SeedSequence::new(42);
        let _ = a.derive_seq("tenant");
        assert_eq!(a.next_seed(), b.next_seed());
    }

    #[test]
    fn splitmix_mixes() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
