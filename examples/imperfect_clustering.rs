//! Perfect vs. imperfect clustering (§3.1's evaluation choice).
//!
//! The paper evaluates under *pseudo-clustering* (the simulator's output is
//! taken as already grouped) to avoid contaminating reconstruction results
//! with clustering artifacts. This example quantifies that choice: shuffle
//! all reads into one pool, re-cluster them greedily, and compare
//! reconstruction accuracy against the perfectly-clustered baseline.
//!
//! ```text
//! cargo run --release --example imperfect_clustering
//! ```

use dnasim::cluster::GreedyClusterer;
use dnasim::prelude::*;

fn main() {
    // A reduced Nanopore twin as the "sequencing run".
    let mut config = NanoporeTwinConfig::small();
    config.cluster_count = 150;
    let perfect = config.generate();
    let references = perfect.references();
    println!(
        "dataset: {} clusters, {} reads, {:.1}% aggregate error",
        perfect.len(),
        perfect.total_reads(),
        5.9
    );

    // Destroy the grouping, then recover it with the greedy clusterer.
    let mut rng = seeded(8);
    let total_reads = perfect.total_reads();
    let pool = perfect.clone().into_read_pool(&mut rng);
    let clusterer = GreedyClusterer::default();
    let (reclustered, _) = clusterer.cluster_against_references(&pool, &references);
    println!(
        "re-clustering recovered {} of {} reads ({} erasures created)",
        reclustered.total_reads(),
        total_reads,
        reclustered.erasure_count().saturating_sub(perfect.erasure_count()),
    );

    // Compare reconstruction accuracy under both clusterings at N = 5.
    println!(
        "\n{:<12} {:>22} {:>22}",
        "algorithm", "perfect clustering", "greedy clustering"
    );
    for algo in [
        Box::new(BmaLookahead::default()) as Box<dyn TraceReconstructor>,
        Box::new(Iterative::default()),
        Box::new(TwoWayIterative::default()),
    ] {
        let p = evaluate_reconstruction(
            &fixed_coverage_protocol(&perfect, 10, 5),
            &algo,
        );
        let g = evaluate_reconstruction(
            &fixed_coverage_protocol(&reclustered, 10, 5),
            &algo,
        );
        println!(
            "{:<12} {:>10.2} /{:>9.2} {:>10.2} /{:>9.2}",
            algo.name(),
            p.per_strand_percent(),
            p.per_char_percent(),
            g.per_strand_percent(),
            g.per_char_percent()
        );
    }
    println!(
        "\nThe gap between the columns is the clustering algorithm's own error \
         signature —\nexactly the contamination pseudo-clustering removes from the \
         paper's evaluation."
    );
}
