//! Categorical sampling over abundance weights.
//!
//! [`sample_weighted_index`] is the sequential subtraction chain every
//! stage has always drawn with: sum the live weights (finite and
//! positive), scale one uniform by the sum, then subtract live weights in
//! order until the residual reaches zero. It costs two passes over the
//! weights per draw.
//!
//! [`WeightedSampler`] answers the same draws in `O(log n)` after one
//! `O(n)` build: it binary-searches floating-point prefix sums of the live
//! weights. Prefix sums and the chain round differently, so a draw is
//! only answered by the search when it is *certified*: its target lies
//! further from both neighbouring prefix sums than the two computations'
//! combined rounding error can reach. Every other draw — a target within
//! that slack of a boundary, a sum that overflowed, a target past the last
//! certified boundary — replays the chain. The result is the chain's index
//! for every draw, and the sampler consumes the same single uniform per
//! draw, so swapping it in changes no output. DESIGN.md §23 gives the
//! error bound.

use dnasim_core::rng::{RngExt, SimRng};

/// The integer threshold of a cumulative rate `c`: for every 53-bit `k`,
/// `k < uniform_threshold(c)` exactly when `k · 2^-53 < c`. The uniform
/// `random::<f64>()` is `k · 2^-53` for `k = next_u64() >> 11`, so a
/// kernel can compare `k` instead of the float (DESIGN.md §24).
///
/// `c · 2^53` is exact (a power-of-two scaling), so `k < c · 2^53` holds
/// for the integer `k` exactly when `k < ⌈c · 2^53⌉`. Rates `c ≥ 1` admit
/// every `k` (`2^53`); NaN and `c ≤ 0` admit none (0).
pub fn uniform_threshold(c: f64) -> u64 {
    const UNIT: f64 = (1u64 << 53) as f64;
    if c >= 1.0 {
        1 << 53
    } else if c > 0.0 {
        // The ceiling without a libm call: below 2^53 the truncation and
        // its conversion back are exact, so it rounds up exactly when the
        // truncation dropped a fraction.
        let scaled = c * UNIT;
        let floor = scaled as i64;
        floor as u64 + u64::from((floor as f64) < scaled)
    } else {
        0
    }
}

/// The thresholds of a three-way draw `u < s`, else `u < s + d`, else
/// `u < s + d + i`: [`uniform_threshold`] of each cumulative sum, summed
/// in the chain's order, and their maximum. A 53-bit `k` at or above the
/// maximum fails all three compares.
pub fn chain_thresholds([s, d, i]: [f64; 3]) -> [u64; 4] {
    let [first, second, third] = [s, s + d, s + d + i].map(uniform_threshold);
    [first, second, third, first.max(second).max(third)]
}

/// Whether a weight takes part in a draw. Zero, negative, NaN and
/// infinite weights are skipped by both samplers alike.
#[inline]
fn live(w: f64) -> bool {
    w.is_finite() && w > 0.0
}

/// Samples an index proportional to `weights` (0 if all weights are zero or
/// the slice is empty, so callers always get a valid in-range choice).
///
/// This is the sequential subtraction chain: the reference behaviour that
/// [`WeightedSampler`] reproduces, and its fallback.
pub(crate) fn sample_weighted_index(weights: &[f64], rng: &mut SimRng) -> usize {
    let total: f64 = weights.iter().filter(|w| live(**w)).sum();
    if total <= 0.0 || weights.is_empty() {
        return 0;
    }
    chain_index(weights, rng.random::<f64>() * total)
}

/// The chain's answer for one scaled draw `target`: the first live index
/// at which the running residual `target − w₀ − w₁ − …` reaches zero, or
/// the last index if it never does.
fn chain_index(weights: &[f64], mut target: f64) -> usize {
    for (i, &w) in weights.iter().enumerate() {
        if live(w) {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
    }
    weights.len() - 1
}

/// Draws indices proportional to a fixed weight vector, exactly as
/// [`sample_weighted_index`] would, in `O(log n)` per draw.
#[derive(Debug)]
pub(crate) struct WeightedSampler<'w> {
    weights: &'w [f64],
    /// `prefix[i]`: the left-to-right float sum of the live weights in
    /// `0..=i` (0 before the first live weight).
    prefix: Vec<f64>,
    /// The live weights' sum, the same fold the chain computes.
    total: f64,
    /// Index of the first live weight (`weights.len()` if none).
    first_live: usize,
    /// Bound on the rounding error of any prefix sum plus that of any
    /// chain residual; see DESIGN.md §23.
    slack: f64,
}

impl<'w> WeightedSampler<'w> {
    /// Builds the prefix sums of `weights` in one pass.
    pub(crate) fn new(weights: &'w [f64]) -> WeightedSampler<'w> {
        let mut prefix = Vec::with_capacity(weights.len());
        let (mut total, mut live_count, mut first_live) = (0.0f64, 0usize, weights.len());
        for (i, &w) in weights.iter().enumerate() {
            if live(w) {
                total += w;
                live_count += 1;
                first_live = first_live.min(i);
            }
            prefix.push(total);
        }
        // The m prefix additions and the chain's m subtractions each round
        // by at most ε/2 of a value ≤ total: m·ε·total together. Twice
        // that, plus the `+ 1`, also covers rounding `target ± slack`.
        let slack = 2.0 * (live_count + 1) as f64 * f64::EPSILON * total;
        WeightedSampler {
            weights,
            prefix,
            total,
            first_live,
            slack,
        }
    }

    /// Whether any weight is live, i.e. whether a draw consumes a uniform.
    /// Without one, [`sample`](WeightedSampler::sample) returns 0.
    pub(crate) fn has_mass(&self) -> bool {
        self.total > 0.0
    }

    /// One draw: the index [`sample_weighted_index`] returns from the same
    /// `rng` state, leaving `rng` in the same state.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> usize {
        if !self.has_mass() {
            return 0;
        }
        self.index_for(rng.random::<f64>() * self.total)
    }

    /// The chain's index for the scaled draw `target`, by binary search
    /// when the search's answer is certified and by the chain otherwise.
    fn index_for(&self, target: f64) -> usize {
        if self.total.is_finite() {
            let (hi, lo) = (target + self.slack, target - self.slack);
            // The first prefix sum clearly above the target; prefix sums
            // only rise at live weights, so `j` is live.
            let j = self.prefix.partition_point(|&p| p <= hi);
            if j < self.prefix.len() && (j == self.first_live || self.prefix[j - 1] < lo) {
                return j;
            }
        }
        chain_index(self.weights, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::{seeded, Rng};

    /// Checks the sampler against the chain at `target` and at the
    /// targets a few ulps either side of it.
    fn check_around(sampler: &WeightedSampler<'_>, weights: &[f64], target: f64) {
        let mut t = target;
        for _ in 0..4 {
            t = t.next_down();
        }
        for _ in 0..9 {
            if (0.0..=sampler.total).contains(&t) {
                assert_eq!(
                    sampler.index_for(t),
                    chain_index(weights, t),
                    "target {t:e} over {weights:?}"
                );
            }
            t = t.next_up();
        }
    }

    /// The smallest target in `[0, total]` for which the chain answers an
    /// index above `k` (`None` if it never does). The chain's index only
    /// grows with the target, and non-negative floats order like their
    /// bit patterns, so this is a bisection over bits.
    fn chain_boundary(weights: &[f64], total: f64, k: usize) -> Option<f64> {
        let (mut lo, mut hi) = (0u64, total.to_bits());
        if chain_index(weights, total) <= k {
            return None;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if chain_index(weights, f64::from_bits(mid)) > k {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(f64::from_bits(lo))
    }

    /// Every boundary of `weights`, probed a few ulps around its prefix sum
    /// and around the chain's own boundary, plus draws at u = 0, near
    /// u = 1 and a seeded spread between.
    fn check_weights(weights: &[f64]) {
        let sampler = WeightedSampler::new(weights);
        let total: f64 = weights.iter().filter(|w| live(**w)).sum();
        assert_eq!(sampler.total, total, "total is the chain's fold");
        if !sampler.has_mass() {
            let mut rng = seeded(1);
            assert_eq!(sampler.sample(&mut rng), sample_weighted_index(weights, &mut rng));
            return;
        }
        for (k, &w) in weights.iter().enumerate() {
            if live(w) {
                check_around(&sampler, weights, sampler.prefix[k]);
                if let Some(boundary) = chain_boundary(weights, total, k) {
                    check_around(&sampler, weights, boundary);
                }
            }
        }
        for u in [0.0, 1.0 - f64::EPSILON / 2.0, 1.0 - f64::EPSILON, 0.5] {
            check_around(&sampler, weights, u * total);
        }
        let mut rng = seeded(weights.len() as u64);
        for _ in 0..64 {
            let mut a = rng.clone();
            assert_eq!(sampler.sample(&mut rng), sample_weighted_index(weights, &mut a));
            assert_eq!(rng.next_u64(), a.next_u64(), "one uniform per draw");
        }
    }

    #[test]
    fn adversarial_weights_match_the_chain() {
        let tiny = f64::MIN_POSITIVE;
        let sub = f64::from_bits(1); // smallest subnormal
        let huge = f64::MAX / 4.0;
        let cases: Vec<Vec<f64>> = vec![
            vec![],
            vec![0.0],
            vec![0.0, 0.0, 0.0],
            vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0],
            vec![2.5],
            vec![0.0, f64::NAN, 3.0, 0.0],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
            vec![1.0, 1e-300, 1e-17, 1e-16, 1.0, 1e16, 1.0],
            vec![tiny, tiny * 3.0, tiny / 2.0, sub, sub * 7.0],
            vec![sub, sub, sub],
            vec![huge, huge, 1.0],
            // Sum overflows to +inf: every draw falls through to the end.
            vec![f64::MAX, f64::MAX, 1.0, 0.0],
            vec![f64::MAX, f64::MAX, f64::NAN],
            vec![1e-10, f64::INFINITY, 1e10, -0.0, 3.3],
        ];
        for weights in &cases {
            check_weights(weights);
        }
    }

    #[test]
    fn random_weight_vectors_match_the_chain() {
        let mut rng = seeded(23);
        for round in 0..300 {
            let n = 1 + (rng.next_u64() % 40) as usize;
            let weights: Vec<f64> = (0..n)
                .map(|_| match rng.next_u64() % 8 {
                    0 => 0.0,
                    1 => 1e-12 * rng.random::<f64>(),
                    2 => 1e12 * rng.random::<f64>(),
                    // Decimal fractions that round on every addition.
                    3 => (1 + rng.next_u64() % 9) as f64 / 10.0,
                    4 if round % 7 == 0 => f64::NAN,
                    _ => rng.random::<f64>(),
                })
                .collect();
            check_weights(&weights);
        }
    }

    #[test]
    fn rounding_sensitive_boundaries_fall_back_to_the_chain() {
        // Behind a huge first weight, each prefix sum of small uniforms
        // rounds at the huge weight's ulp while the chain's residual,
        // already small, keeps their low bits: the two drift apart by
        // several ulps, and a search without slack answers targets near a
        // boundary with a neighbouring index.
        let mut rng = seeded(5);
        let mut weights = vec![6.258_847_867_098_595e11];
        weights.extend((0..40).map(|_| rng.random::<f64>()));
        weights.push(9.5e11);
        check_weights(&weights);
    }
}
