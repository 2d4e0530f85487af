//! Collection strategies: `vec` and `hash_set`, mirroring
//! `proptest::collection`.

use std::collections::HashSet;
use std::fmt::Debug;
use std::hash::Hash;
use std::ops::{Range, RangeInclusive};

use dnasim_core::rng::{RngExt, SimRng};

use crate::strategy::Strategy;

/// An admissible size band for a generated collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeRange {
    min: usize,
    /// Inclusive upper bound.
    max: usize,
}

impl SizeRange {
    fn sample(&self, rng: &mut SimRng) -> usize {
        rng.random_range(self.min..=self.max)
    }

    /// The smallest admissible size.
    pub fn min(&self) -> usize {
        self.min
    }
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> SizeRange {
        SizeRange {
            min: exact,
            max: exact,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(range: Range<usize>) -> SizeRange {
        assert!(!range.is_empty(), "collection size range must be non-empty");
        SizeRange {
            min: range.start,
            max: range.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(range: RangeInclusive<usize>) -> SizeRange {
        assert!(!range.is_empty(), "collection size range must be non-empty");
        SizeRange {
            min: *range.start(),
            max: *range.end(),
        }
    }
}

/// Strategy for `Vec`s whose length lies in `size` and whose elements come
/// from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut SimRng) -> Vec<S::Value> {
        let len = self.size.sample(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        let min = self.size.min;
        // Structural shrinks: cut the tail back toward the minimum length.
        if value.len() > min {
            out.push(value[..min].to_vec());
            let half = min + (value.len() - min) / 2;
            if half > min && half < value.len() {
                out.push(value[..half].to_vec());
            }
            out.push(value[..value.len() - 1].to_vec());
        }
        // Element-wise shrinks: simplify one position at a time (first
        // candidate only, to keep the candidate set small).
        for (i, item) in value.iter().enumerate() {
            if let Some(simpler) = self.element.shrink(item).into_iter().next() {
                let mut next = value.clone();
                next[i] = simpler;
                out.push(next);
            }
        }
        out
    }
}

/// Strategy for `HashSet`s with `size.min()..=max` *distinct* elements drawn
/// from `element`.
///
/// If the element domain is too small to reach the drawn size, the set is
/// returned at the largest size reachable within a bounded number of draws
/// (matching proptest's best-effort behaviour).
pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
where
    S: Strategy,
    S::Value: Eq + Hash,
{
    HashSetStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`hash_set`].
#[derive(Debug, Clone)]
pub struct HashSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for HashSetStrategy<S>
where
    S: Strategy,
    S::Value: Eq + Hash,
{
    type Value = HashSet<S::Value>;

    fn generate(&self, rng: &mut SimRng) -> HashSet<S::Value> {
        let target = self.size.sample(rng);
        let mut set = HashSet::with_capacity(target);
        let mut attempts = 0usize;
        while set.len() < target && attempts < target.saturating_mul(20) + 100 {
            set.insert(self.element.generate(rng));
            attempts += 1;
        }
        set
    }

    fn shrink(&self, value: &HashSet<S::Value>) -> Vec<HashSet<S::Value>> {
        let mut out = Vec::new();
        if value.len() > self.size.min {
            for drop in value.iter() {
                let mut next = value.clone();
                next.remove(drop);
                out.push(next);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::seeded;

    #[test]
    fn vec_lengths_respect_band() {
        let strat = vec(0usize..4, 2..5);
        let mut rng = seeded(3);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 4));
        }
    }

    #[test]
    fn exact_size_vec() {
        let strat = vec(crate::strategy::any::<u8>(), 16);
        let mut rng = seeded(4);
        assert_eq!(strat.generate(&mut rng).len(), 16);
    }

    #[test]
    fn vec_shrinks_respect_min_length() {
        let strat = vec(0usize..10, 2..8);
        let value = vec![5, 5, 5, 5, 5];
        for candidate in strat.shrink(&value) {
            assert!(candidate.len() >= 2);
        }
        // Values at minimum length still shrink element-wise only.
        let at_min = vec![5, 5];
        assert!(strat.shrink(&at_min).iter().all(|c| c.len() == 2));
    }

    #[test]
    fn hash_set_sizes_are_reachable() {
        let strat = hash_set(0usize..24, 0..4);
        let mut rng = seeded(5);
        for _ in 0..200 {
            let s = strat.generate(&mut rng);
            assert!(s.len() < 4);
            assert!(s.iter().all(|&x| x < 24));
        }
    }
}
