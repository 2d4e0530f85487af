//! Value-generation strategies for the property-test harness.
//!
//! A [`Strategy`] knows how to *generate* a random value from a seeded
//! [`SimRng`] and how to propose *shrink candidates* — simpler variants of a
//! failing input that (if they still fail) make the counterexample easier to
//! read. The shrinking model is deliberately lighter than proptest's
//! value-tree design: strategies shrink finished values, and combinators
//! that lose provenance (like [`prop_map`]) simply stop shrinking below
//! themselves.
//!
//! [`prop_map`]: Strategy::prop_map

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use dnasim_core::rng::{RngExt, SimRng};

/// A generator of random test inputs, with optional shrinking.
///
/// The `Value` associated type mirrors proptest, so signatures like
/// `impl Strategy<Value = Strand>` port verbatim.
pub trait Strategy {
    /// The type of generated values.
    type Value: Clone + Debug;

    /// Generates one value from the given deterministic generator.
    fn generate(&self, rng: &mut SimRng) -> Self::Value;

    /// Proposes simpler variants of `value` to try during shrinking.
    ///
    /// Candidates should be *strictly simpler* (closer to the strategy's
    /// minimum) so the shrink loop terminates. An empty vector means the
    /// value cannot be simplified further.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Maps generated values through `f` (shrinking stops at the map
    /// boundary, since `f` is not invertible).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Clone + Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    U: Clone + Debug,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut SimRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Types generatable over their full domain with [`any`].
pub trait ArbitraryValue: Clone + Debug {
    /// Draws one value uniformly over the whole domain.
    fn arbitrary(rng: &mut SimRng) -> Self;

    /// Proposes simpler variants (toward zero / `false`).
    fn shrink_arbitrary(&self) -> Vec<Self> {
        Vec::new()
    }
}

macro_rules! arbitrary_uint {
    ($($ty:ty),* $(,)?) => {$(
        impl ArbitraryValue for $ty {
            fn arbitrary(rng: &mut SimRng) -> Self {
                rng.random()
            }

            fn shrink_arbitrary(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                if v > 0 {
                    out.push(0);
                    if v / 2 > 0 {
                        out.push(v / 2);
                    }
                    if v - 1 > v / 2 {
                        out.push(v - 1);
                    }
                }
                out
            }
        }
    )*};
}

arbitrary_uint!(u8, u16, u32, u64, usize);

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut SimRng) -> Self {
        rng.random()
    }

    fn shrink_arbitrary(&self) -> Vec<Self> {
        if *self { vec![false] } else { Vec::new() }
    }
}

impl ArbitraryValue for f64 {
    fn arbitrary(rng: &mut SimRng) -> Self {
        rng.random()
    }

    fn shrink_arbitrary(&self) -> Vec<Self> {
        if *self != 0.0 { vec![0.0, self / 2.0] } else { Vec::new() }
    }
}

macro_rules! arbitrary_int {
    ($($ty:ty),* $(,)?) => {$(
        impl ArbitraryValue for $ty {
            fn arbitrary(rng: &mut SimRng) -> Self {
                rng.random()
            }

            fn shrink_arbitrary(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                if v != 0 {
                    out.push(0);
                    if v / 2 != 0 {
                        out.push(v / 2);
                    }
                }
                out
            }
        }
    )*};
}

arbitrary_int!(i8, i16, i32, i64, isize);

/// Strategy over a type's full domain: `any::<u64>()`.
pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(PhantomData)
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut SimRng) -> T {
        T::arbitrary(rng)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        value.shrink_arbitrary()
    }
}

macro_rules! range_strategy_int {
    ($($ty:ty),* $(,)?) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut SimRng) -> $ty {
                rng.random_range(self.clone())
            }

            fn shrink(&self, value: &$ty) -> Vec<$ty> {
                shrink_toward(self.start, *value)
            }
        }

        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut SimRng) -> $ty {
                rng.random_range(self.clone())
            }

            fn shrink(&self, value: &$ty) -> Vec<$ty> {
                shrink_toward(*self.start(), *value)
            }
        }
    )*};
}

range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Integer shrink candidates strictly between `low` and `value`.
fn shrink_toward<T>(low: T, value: T) -> Vec<T>
where
    T: Copy + PartialOrd + std::ops::Sub<Output = T> + std::ops::Add<Output = T> + HalfStep,
{
    let mut out = Vec::new();
    if value > low {
        out.push(low);
        let mid = low + (value - low).half();
        if mid > low && mid < value {
            out.push(mid);
        }
        let prev = value - T::one_step();
        if prev > low && prev != mid {
            out.push(prev);
        }
    }
    out
}

/// Helper arithmetic for the integer range strategies' shrink candidates.
pub trait HalfStep {
    /// Half of `self` (integer division).
    fn half(self) -> Self;
    /// The smallest positive step of the type.
    fn one_step() -> Self;
}

macro_rules! half_step {
    ($($ty:ty),* $(,)?) => {$(
        impl HalfStep for $ty {
            fn half(self) -> Self {
                self / 2
            }

            fn one_step() -> Self {
                1 as $ty
            }
        }
    )*};
}

half_step!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! range_strategy_float {
    ($($ty:ty),* $(,)?) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut SimRng) -> $ty {
                rng.random_range(self.clone())
            }

            fn shrink(&self, value: &$ty) -> Vec<$ty> {
                let mut out = Vec::new();
                if *value > self.start {
                    out.push(self.start);
                    let mid = self.start + (*value - self.start) / 2.0;
                    if mid > self.start && mid < *value {
                        out.push(mid);
                    }
                }
                out
            }
        }
    )*};
}

range_strategy_float!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($S:ident . $idx:tt),+);)*) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut SimRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = candidate;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )*};
}

tuple_strategy! {
    (S0.0);
    (S0.0, S1.1);
    (S0.0, S1.1, S2.2);
    (S0.0, S1.1, S2.2, S3.3);
    (S0.0, S1.1, S2.2, S3.3, S4.4);
    (S0.0, S1.1, S2.2, S3.3, S4.4, S5.5);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::seeded;

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = seeded(1);
        for _ in 0..500 {
            let v = (3usize..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let w = (1u8..=255).generate(&mut rng);
            assert!(w >= 1);
            let f = (0.0f64..0.3).generate(&mut rng);
            assert!((0.0..0.3).contains(&f));
        }
    }

    #[test]
    fn shrink_candidates_move_toward_minimum() {
        let strat = 2usize..100;
        for candidate in strat.shrink(&50) {
            assert!((2..50).contains(&candidate));
        }
        assert!(strat.shrink(&2).is_empty());
    }

    #[test]
    fn prop_map_transforms_values() {
        let strat = (0usize..10).prop_map(|v| v * 2);
        let mut rng = seeded(2);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!(v % 2 == 0 && v < 20);
        }
    }

    #[test]
    fn tuple_shrink_varies_one_component_at_a_time() {
        let strat = (0usize..10, 0usize..10);
        let candidates = strat.shrink(&(5, 7));
        assert!(!candidates.is_empty());
        for (a, b) in candidates {
            assert!((a, b) != (5, 7));
            assert!(a == 5 || b == 7);
        }
    }
}
