//! The scan kernel against the unfiltered oracle scan (`scan_core`): same
//! output strand and same `LookaheadFilterStats` on every cluster.
//!
//! The corpus covers coverage 0–300 (past the 255 reads a byte lane
//! holds), look-ahead 0–17 (one to three 8-byte words), anchor weight 0–3
//! with anchors shorter and longer than the design length, design length
//! 0, empty, short, long and exhausted reads, tie columns and
//! homopolymers, forward and reversed rows.
//!
//! The certificate tests check `scan_certified` against the anchored
//! rescan it stands for: a certified strand is its own rescan at every
//! anchor weight, and the verdict equals its definition.

use dnasim_channel::{ErrorModel, NaiveModel};
use dnasim_core::rng::{seeded, RngExt, SimRng};
use dnasim_core::Strand;

use super::ReadRows;
use crate::consensus::{scan_core, LookaheadFilterStats};

fn s(text: &str) -> Strand {
    let strand = text.parse();
    assert!(strand.is_ok(), "not a strand: {text:?}");
    strand.unwrap_or_default()
}

/// The counters the kernel must report: an unanchored cluster of
/// byte-identical reads is one unanimous cluster that scores no window;
/// any other cluster counts the oracle's skippable and scored columns.
fn expected_stats(
    reads: &[Strand],
    anchor: Option<&Strand>,
    anchor_weight: usize,
    oracle: LookaheadFilterStats,
) -> LookaheadFilterStats {
    let anchored = anchor.is_some() && anchor_weight > 0;
    let unanimous = reads
        .first()
        .is_some_and(|first| reads.iter().all(|r| r == first));
    if !anchored && unanimous {
        LookaheadFilterStats {
            unanimous_clusters: 1,
            ..LookaheadFilterStats::default()
        }
    } else {
        oracle
    }
}

/// Runs the kernel on forward and reversed rows against the oracle on the
/// same reads and on the reversed reads, for every look-ahead given.
fn check(
    reads: &[Strand],
    anchor: Option<&Strand>,
    anchor_weight: usize,
    strand_len: usize,
    lookaheads: &[usize],
    total: &mut LookaheadFilterStats,
) {
    let reversed: Vec<Strand> = reads.iter().map(Strand::reversed).collect();
    for &lookahead in lookaheads {
        for (rows, oracle_reads) in [
            (ReadRows::new(reads, lookahead), reads),
            (ReadRows::reversed(reads, lookahead), &reversed[..]),
        ] {
            let mut stats = LookaheadFilterStats::default();
            let out = rows.scan(anchor, anchor_weight, strand_len, &mut stats);
            let (want, oracle_stats) =
                scan_core(oracle_reads, anchor, anchor_weight, strand_len, lookahead);
            let context = format!(
                "{} reads, strand_len {strand_len}, lookahead {lookahead}, \
                 anchor {:?} × {anchor_weight}",
                reads.len(),
                anchor.map(Strand::len)
            );
            assert_eq!(out, want, "output diverged: {context}");
            assert_eq!(
                stats,
                expected_stats(oracle_reads, anchor, anchor_weight, oracle_stats),
                "stats diverged: {context}"
            );
            total.absorb(&stats);
        }
    }
}

/// A read of `reference` cut, extended or emptied at random.
fn reshape(read: Strand, rng: &mut SimRng) -> Strand {
    match rng.random_range(0..8u32) {
        0 => Strand::new(),
        1 => {
            let keep = rng.random_range(0..=read.len());
            read.substrand(0..keep)
        }
        2 => {
            let extra = Strand::random(rng.random_range(1..12), rng);
            read.concat(&extra)
        }
        _ => read,
    }
}

#[test]
fn kernel_matches_oracle_on_seeded_noisy_clusters() {
    let mut rng = seeded(0x5ca7);
    let mut total = LookaheadFilterStats::default();
    let lookaheads = [0, 1, 2, 3, 4, 5, 8, 9, 17];
    for rate in [0.0, 0.03, 0.08, 0.2] {
        let model = NaiveModel::with_total_rate(rate);
        for coverage in [0usize, 1, 2, 3, 4, 5, 8, 13] {
            for len in [0usize, 1, 7, 33, 110] {
                let reference = Strand::random(len, &mut rng);
                let reads: Vec<Strand> = (0..coverage)
                    .map(|_| reshape(model.corrupt(&reference, &mut rng), &mut rng))
                    .collect();
                for strand_len in [len, len.saturating_sub(3), len + 5] {
                    check(&reads, None, 0, strand_len, &lookaheads, &mut total);
                    let anchor = model.corrupt(&reference, &mut rng);
                    for weight in 0..=3 {
                        check(
                            &reads,
                            Some(&anchor),
                            weight,
                            strand_len,
                            &[0, 2, 3, 5, 9],
                            &mut total,
                        );
                    }
                }
            }
        }
    }
    assert!(
        total.unanimous_clusters > 0,
        "unanimity fast path never fired"
    );
    assert!(
        total.skipped_windows > 0,
        "lazy look-ahead never skipped a window"
    );
    assert!(
        total.scored_windows > 0,
        "noisy columns must still score windows"
    );
}

/// Coverage past the 255 reads one byte lane counts: the column and
/// look-ahead lanes must flush, not carry into the next base's lane.
#[test]
fn kernel_matches_oracle_past_the_lane_width() {
    let mut rng = seeded(0x1a7e);
    let mut total = LookaheadFilterStats::default();
    for (rate, coverage) in [
        (0.01, 254usize),
        (0.01, 255),
        (0.02, 256),
        (0.05, 300),
        (0.0, 300),
    ] {
        let model = NaiveModel::with_total_rate(rate);
        let reference = Strand::random(60, &mut rng);
        let mut reads: Vec<Strand> = (0..coverage)
            .map(|_| model.corrupt(&reference, &mut rng))
            .collect();
        check(&reads, None, 0, 60, &[2, 3, 9], &mut total);
        check(&reads, Some(&reference), 3, 60, &[2, 3], &mut total);
        // Homopolymer reads: one lane takes nearly every vote.
        reads.iter_mut().for_each(|r| *r = s(&"A".repeat(r.len())));
        reads.push(s("AAAAACAAAA"));
        check(&reads, None, 0, 60, &[3], &mut total);
    }
    assert!(total.scored_windows > 0);
}

#[test]
fn kernel_matches_oracle_on_ties_and_homopolymers() {
    let mut total = LookaheadFilterStats::default();
    let clusters: Vec<Vec<Strand>> = vec![
        // Every column a two-way tie: alphabet order decides.
        vec![s("ACGTACGT"), s("CATGCATG")],
        vec![s("TGCA"), s("GTAC"), s("CATG"), s("ACGT")],
        vec![s("TTTT"), s("GGGG"), s("TTTT"), s("GGGG")],
        // Homopolymer runs with a deletion and an insertion.
        vec![s("AAAATTTTCCCC"), s("AAATTTTCCCC"), s("AAAATTTTTCCCC")],
        vec![
            s("GGGGGGGGGG"),
            s("GGGGGGGG"),
            s("GGGGGGGGGGGG"),
            s("GGGGGGGGGG"),
        ],
        // Exhausted reads next to long ones.
        vec![s("AC"), s("ACGTACGTACGT"), s(""), s("A")],
        vec![s(""), s("")],
        vec![s("ACGT"); 3],
    ];
    for reads in &clusters {
        for strand_len in [0usize, 3, 8, 14] {
            let lookaheads = [0, 1, 2, 3, 4, 5];
            check(reads, None, 0, strand_len, &lookaheads, &mut total);
            for anchor in [s("TTTTTTTTTTTTTT"), s("GCA"), s("")] {
                for weight in 0..=3 {
                    check(
                        reads,
                        Some(&anchor),
                        weight,
                        strand_len,
                        &lookaheads,
                        &mut total,
                    );
                }
            }
        }
    }
}

/// Unanimous runs: clusters whose reads fall back into step after one
/// scored column, so the next columns are taken as one run. The run must
/// stop at an `END` lane inside its word (every read ends there), be cut
/// at `strand_len`, and be refused when the reads only tie the anchor.
#[test]
fn unanimous_runs_match_the_oracle() {
    let mut total = LookaheadFilterStats::default();
    let clusters: Vec<Vec<Strand>> = vec![
        // One scored column, then "CGTA" and every read's `END` in lane 4.
        vec![s("ACGTA"), s("ACGTA"), s("TCGTA")],
        // Runs longer than one word, cut at short design lengths.
        vec![s("ACGTACGTACGTACGTAC"), s("ACGTACGTACGTACGTAC"), s("TCGTACGTACGTACGTAC")],
        // Reads that end at different columns after the run.
        vec![s("GATTACAGG"), s("GATTACA"), s("CATTACAG"), s("GATTACAGGT")],
        // Identical reads: anchored scans take them as runs.
        vec![s("CCCCGGTT"); 2],
        vec![s("TTGCA"); 3],
        // A deletion in one read re-syncs into a run.
        vec![s("ACGTTGCAAC"), s("ACGTTGCAAC"), s("ACGTGCAAC")],
    ];
    let anchors = [s("AAAAAAAAAAAAAAAAAAAA"), s("CCGG"), s("ACGTACGTACGTACGTAC"), s("")];
    for reads in &clusters {
        for strand_len in 0..=20 {
            let lookaheads = [0, 1, 3, 8, 9];
            check(reads, None, 0, strand_len, &lookaheads, &mut total);
            // Weights below, equal to and above the read count.
            for anchor in &anchors {
                for weight in 0..=reads.len() + 1 {
                    check(reads, Some(anchor), weight, strand_len, &lookaheads, &mut total);
                }
            }
        }
    }
    assert!(total.skipped_windows > 0 && total.scored_windows > 0);
}

/// Checks the certificate on forward and reversed rows of `reads`: the
/// recording scan returns the plain scan's strand and counters, and a
/// certified strand `E` is what every anchored rescan `scan(Some(&E), w)`
/// returns. Counts certified and uncertified scans.
///
/// It also checks the verdict itself against its definition. An anchor
/// of weight 200 outvotes every read here, so the rescan's pattern lane
/// `k` at a scored column `j` is `E[j + 1 + k]` inside the strand. By
/// induction over the columns, the rescan then scores the same columns
/// with the same patterns exactly when every lane already held those
/// bases, i.e. exactly when the scan is certified.
fn check_certificate(
    reads: &[Strand],
    strand_len: usize,
    lookahead: usize,
    (certified, uncertified): &mut (usize, usize),
) {
    for rows in [
        ReadRows::new(reads, lookahead),
        ReadRows::reversed(reads, lookahead),
    ] {
        let mut stats = LookaheadFilterStats::default();
        let (out, is_certified) = rows.scan_certified(strand_len, &mut stats);
        let mut plain_stats = LookaheadFilterStats::default();
        assert_eq!(out, rows.scan(None, 0, strand_len, &mut plain_stats));
        assert_eq!(stats, plain_stats, "recording changed the counters");
        assert!(reads.len() < 200, "the anchor must outvote every read");
        let (mut patterns, mut anchored_patterns) = (Vec::new(), Vec::new());
        rows.scan_with(None, 0, strand_len, &mut stats, Some(&mut patterns));
        rows.scan_with(
            Some(&out),
            200,
            strand_len,
            &mut stats,
            Some(&mut anchored_patterns),
        );
        assert_eq!(
            is_certified,
            patterns == anchored_patterns,
            "certificate verdict is not its definition: {} reads, strand_len {strand_len}, \
             lookahead {lookahead}",
            reads.len()
        );
        if !is_certified {
            *uncertified += 1;
            continue;
        }
        *certified += 1;
        for weight in [1, 2, 3, 200] {
            let rescanned = rows.scan(Some(&out), weight, strand_len, &mut stats);
            assert_eq!(
                rescanned,
                out,
                "certified scan is not its own rescan: {} reads, strand_len {strand_len}, \
                 lookahead {lookahead}, weight {weight}",
                reads.len()
            );
        }
    }
}

/// A random strand over the first `alphabet` bases: two-letter strands
/// make look-ahead windows repeat, which is where a certificate checked
/// against the wrong position would pass.
fn random_over(len: usize, alphabet: usize, rng: &mut SimRng) -> Strand {
    (0..len)
        .map(|_| dnasim_core::Base::ALL[rng.random_range(0..alphabet)])
        .collect()
}

#[test]
fn certified_scans_are_their_own_anchored_rescans() {
    let mut rng = seeded(0xce27);
    let mut counts = (0, 0);
    let lookaheads = [0, 1, 2, 3, 5, 8, 9, 12, 17];
    for rate in [0.0, 0.02, 0.06, 0.12, 0.25] {
        let model = NaiveModel::with_total_rate(rate);
        for coverage in [0usize, 1, 2, 3, 4, 6, 9, 15] {
            for (len, alphabet) in [(0usize, 4usize), (6, 2), (24, 2), (40, 4), (110, 4)] {
                let reference = random_over(len, alphabet, &mut rng);
                let reads: Vec<Strand> = (0..coverage)
                    .map(|_| reshape(model.corrupt(&reference, &mut rng), &mut rng))
                    .collect();
                // Design lengths past every read leave columns where each
                // read is exhausted.
                for strand_len in [len, len.saturating_sub(4), len + 7] {
                    for &lookahead in &lookaheads {
                        check_certificate(&reads, strand_len, lookahead, &mut counts);
                    }
                }
            }
        }
    }
    let (certified, uncertified) = counts;
    assert!(certified > 0, "no scan certified");
    assert!(uncertified > 0, "every scan certified");
}

#[test]
fn certificate_holds_on_ties_and_exhausted_reads() {
    let mut counts = (0, 0);
    let clusters: Vec<Vec<Strand>> = vec![
        vec![s("ACGTACGT"), s("CATGCATG")],
        vec![s("AAAATTTTCCCC"), s("AAATTTTCCCC"), s("AAAATTTTTCCCC")],
        vec![s("AC"), s("ACGTACGTACGT"), s(""), s("A")],
        vec![s("ACGTTGCA"), s("ACGTTGCA"), s("ACGTGCA"), s("A")],
        vec![s(""), s("")],
        vec![s("ACGT"); 3],
        vec![],
    ];
    for reads in &clusters {
        for strand_len in [0usize, 3, 8, 14, 30] {
            for lookahead in [0, 1, 2, 3, 9, 17] {
                check_certificate(reads, strand_len, lookahead, &mut counts);
            }
        }
    }
    assert!(counts.0 > 0 && counts.1 > 0, "{counts:?}");
}
