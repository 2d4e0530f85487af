//! Statistical sanity checks for `SeedSequence::fork` — the per-item
//! stream derivation the parallel layer (`dnasim-par`) builds on.
//!
//! The fork contract: `fork(i)` is a pure function of `(root, i)`, distinct
//! across indices and across the `next_seed`/`derive` families, and the
//! resulting child streams are statistically independent. These tests use
//! the same χ² machinery as `rng_stats.rs` and fixed seeds throughout, so
//! they are deterministic pass/fail.

use std::collections::HashSet;

use dnasim_core::rng::{seeded, RngExt, SeedSequence};
use dnasim_metrics::{chi_square_distance, normalize_histogram};

/// χ² distance between an observed bucket histogram and the uniform
/// distribution over the same number of buckets.
fn chi2_vs_uniform(counts: &[usize]) -> f64 {
    let observed = normalize_histogram(counts);
    let uniform = vec![1.0 / counts.len() as f64; counts.len()];
    chi_square_distance(&observed, &uniform)
}

#[test]
fn fork_roots_never_collide_across_a_wide_index_range() {
    // 100k children per root, plus adversarially close roots: any collision
    // would hand two clusters identical randomness.
    for root in [0u64, 1, 42, u64::MAX] {
        let seq = SeedSequence::new(root);
        let mut seen = HashSet::with_capacity(100_000);
        for index in 0..100_000u64 {
            assert!(
                seen.insert(seq.fork(index).root()),
                "fork collision at root {root}, index {index}"
            );
        }
    }
}

#[test]
fn fork_roots_are_chi2_uniform_over_buckets() {
    const BUCKETS: usize = 32;
    const CHILDREN: u64 = 64_000;
    let seq = SeedSequence::new(0xF04C);
    let mut counts = [0usize; BUCKETS];
    for index in 0..CHILDREN {
        counts[(seq.fork(index).root() % BUCKETS as u64) as usize] += 1;
    }
    let distance = chi2_vs_uniform(&counts);
    assert!(distance < 1e-3, "fork roots χ² vs uniform: {distance}");
}

#[test]
fn sibling_streams_are_pairwise_decorrelated() {
    // Draw a histogram from each of two sibling streams; identical streams
    // give χ² = 0, healthy independent ones a clearly nonzero distance.
    let seq = SeedSequence::new(7);
    let histogram = |index: u64| {
        let mut rng = seq.fork_rng(index);
        let mut counts = [0usize; 64];
        for _ in 0..4096 {
            counts[rng.random_range(0..64)] += 1;
        }
        counts
    };
    for (a, b) in [(0u64, 1u64), (1, 2), (0, 1000), (999, 1000)] {
        let lhs = normalize_histogram(&histogram(a));
        let rhs = normalize_histogram(&histogram(b));
        assert!(
            chi_square_distance(&lhs, &rhs) > 0.0,
            "fork({a}) and fork({b}) streams coincide"
        );
    }
    // And the same index twice reproduces exactly.
    assert_eq!(histogram(5), histogram(5));
}

#[test]
fn fork_is_independent_of_sequence_state_and_order() {
    // Consuming next_seed()/derive() must not move fork(), and forking in
    // any order gives the same children — the property that makes
    // work-stealing schedules invisible to the output.
    let pristine = SeedSequence::new(123);
    let mut consumed = SeedSequence::new(123);
    let _ = consumed.next_seed();
    let _ = consumed.next_seed();
    let _ = consumed.derive("label");
    let forward: Vec<u64> = (0..50).map(|i| pristine.fork(i).root()).collect();
    let backward: Vec<u64> = (0..50).rev().map(|i| consumed.fork(i).root()).collect();
    assert_eq!(
        forward,
        backward.into_iter().rev().collect::<Vec<u64>>(),
        "fork depends on sequence state or call order"
    );
}

#[test]
fn tenant_request_namespaces_never_collide_across_10k_pairs() {
    // The serve tier keys every request's randomness by
    // derive_seq(tenant).derive_seq(request_id). 100 tenants × 100
    // requests plus adversarial label shapes (shared prefixes, shared
    // suffixes, concatenation aliases) must all land on distinct roots —
    // a collision would let one tenant's request replay another's stream.
    let root = SeedSequence::new(0x5E6E);
    let mut seen = HashSet::with_capacity(10_000);
    for tenant in 0..100u32 {
        let tenant_ns = root.derive_seq(&format!("tenant-{tenant}"));
        for request in 0..100u32 {
            let ns = tenant_ns.derive_seq(&format!("req-{request}"));
            assert!(
                seen.insert(ns.root()),
                "namespace collision at tenant-{tenant}/req-{request}"
            );
        }
    }
    assert_eq!(seen.len(), 10_000);
    // Concatenation must not alias the nested path: ("tenant-1", "2") vs
    // ("tenant-", "12") and ("t", "x1") vs ("tx", "1").
    for ((a1, a2), (b1, b2)) in [
        (("tenant-1", "2"), ("tenant-", "12")),
        (("t", "x1"), ("tx", "1")),
        (("", "a"), ("a", "")),
    ] {
        assert_ne!(
            root.derive_seq(a1).derive_seq(a2).root(),
            root.derive_seq(b1).derive_seq(b2).root(),
            "({a1:?},{a2:?}) aliases ({b1:?},{b2:?})"
        );
    }
}

#[test]
fn tenant_request_namespace_roots_are_chi2_uniform() {
    const BUCKETS: usize = 32;
    let root = SeedSequence::new(0xCAFE);
    let mut counts = [0usize; BUCKETS];
    for tenant in 0..128u32 {
        let tenant_ns = root.derive_seq(&format!("tenant-{tenant}"));
        for request in 0..256u32 {
            let ns = tenant_ns.derive_seq(&format!("req-{request}"));
            counts[(ns.root() % BUCKETS as u64) as usize] += 1;
        }
    }
    let distance = chi2_vs_uniform(&counts);
    assert!(distance < 1e-3, "namespace roots χ² vs uniform: {distance}");
}

#[test]
fn tenant_request_streams_are_statistically_independent() {
    // Neighbouring namespaces (same tenant, adjacent requests; adjacent
    // tenants, same request) must produce decorrelated draw histograms,
    // and replaying a namespace in isolation reproduces it exactly.
    let root = SeedSequence::new(99);
    let histogram = |tenant: &str, request: &str| {
        let mut rng = seeded(root.derive_seq(tenant).derive_seq(request).next_seed());
        let mut counts = [0usize; 64];
        for _ in 0..4096 {
            counts[rng.random_range(0..64)] += 1;
        }
        counts
    };
    let pairs = [
        (("alpha", "req-0"), ("alpha", "req-1")),
        (("alpha", "req-0"), ("beta", "req-0")),
        (("alpha", "req-999"), ("beta", "req-999")),
    ];
    for ((t1, r1), (t2, r2)) in pairs {
        let lhs = normalize_histogram(&histogram(t1, r1));
        let rhs = normalize_histogram(&histogram(t2, r2));
        assert!(
            chi_square_distance(&lhs, &rhs) > 0.0,
            "({t1},{r1}) and ({t2},{r2}) streams coincide"
        );
    }
    assert_eq!(histogram("gamma", "req-7"), histogram("gamma", "req-7"));
}

#[test]
fn namespace_family_avoids_fork_and_next_seed_families() {
    // Request namespaces must not land on the per-cluster fork streams the
    // ops themselves consume, or a request could correlate with one of its
    // own clusters.
    let mut seq = SeedSequence::new(0xBEEF);
    let mut seen = HashSet::new();
    for index in 0..10_000u64 {
        assert!(seen.insert(seq.fork(index).root()), "fork self-collision");
    }
    for step in 0..10_000u64 {
        assert!(seen.insert(seq.next_seed()), "next_seed collision at {step}");
    }
    let root = SeedSequence::new(0xBEEF);
    for tenant in 0..32u32 {
        let tenant_ns = root.derive_seq(&format!("tenant-{tenant}"));
        for request in 0..32u32 {
            let ns = tenant_ns.derive_seq(&format!("req-{request}"));
            assert!(
                seen.insert(ns.root()),
                "namespace tenant-{tenant}/req-{request} landed on an existing seed"
            );
        }
    }
}

#[test]
fn fork_family_avoids_next_seed_and_derive_families() {
    // The three derivation families (indexed fork, ordered next_seed,
    // labelled derive) partition the seed space in practice: no collisions
    // within a realistic budget of draws from each.
    let mut seq = SeedSequence::new(0xDEC0);
    let mut seen = HashSet::new();
    for index in 0..10_000u64 {
        assert!(seen.insert(seq.fork(index).root()), "fork self-collision");
    }
    for step in 0..10_000u64 {
        assert!(
            seen.insert(seq.next_seed()),
            "next_seed landed on a fork root at step {step}"
        );
    }
    for label in 0..1_000u32 {
        assert!(
            seen.insert(seq.derive(&format!("substream-{label}"))),
            "derive(\"substream-{label}\") landed on an existing seed"
        );
    }
}
