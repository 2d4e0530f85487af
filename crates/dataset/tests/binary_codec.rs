//! Cross-format differential properties: the binary codec must carry
//! exactly the clusters the text format carries — for every cluster shape
//! the simulator can produce (erasures, empty reads, CRLF-era corpora) —
//! and corrupt binary input must always surface as a typed error.

use dnasim_core::rng::seeded;
use dnasim_core::{Cluster, Dataset, Strand};
use dnasim_dataset::{
    read_dataset, read_dataset_auto, write_dataset, write_dataset_format, BinaryDatasetReader,
    BinaryDatasetWriter, Format, ReadDatasetError,
};
use dnasim_testkit::prelude::*;

/// Builds a dataset exercising the representational extremes: erasure
/// clusters, empty reads, and max-length strands (mirrors `io_edges.rs`).
fn adversarial_dataset(clusters: usize, max_len: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let mut ds = Dataset::new();
    for i in 0..clusters {
        let reference = Strand::random(max_len, &mut rng);
        match i % 3 {
            0 => ds.push(Cluster::erasure(reference)),
            1 => ds.push(Cluster::new(
                reference.clone(),
                vec![Strand::new(), reference.clone(), Strand::new()],
            )),
            _ => {
                let reads = (0..3)
                    .map(|_| Strand::random(max_len, &mut rng))
                    .collect();
                ds.push(Cluster::new(reference, reads));
            }
        }
    }
    ds
}

fn to_binary(ds: &Dataset) -> Vec<u8> {
    let mut buf = Vec::new();
    write_dataset_format(ds, &mut buf, Format::Binary).unwrap();
    buf
}

#[test]
fn empty_reads_and_sentinels_survive_text_binary_text() {
    // The `-` sentinel corner: empty reads are coverage, not erasures,
    // and must stay that way through the binary codec.
    let text = ">ACGT\n-\nAC\n-\n\n>TTTT\n";
    let ds = read_dataset(text.as_bytes()).unwrap();
    let back = read_dataset_auto(to_binary(&ds).as_slice()).unwrap();
    assert_eq!(back, ds);
    assert_eq!(back.clusters()[0].coverage(), 3);
    assert_eq!(back.erasure_count(), 1);
    let mut round = Vec::new();
    write_dataset(&back, &mut round).unwrap();
    assert_eq!(String::from_utf8(round).unwrap(), ">ACGT\n-\nAC\n-\n\n>TTTT\n");
}

#[test]
fn crlf_corpus_parses_to_the_same_binary_bytes() {
    let ds = adversarial_dataset(7, 40, 99);
    let mut text = Vec::new();
    write_dataset(&ds, &mut text).unwrap();
    let crlf = String::from_utf8(text).unwrap().replace('\n', "\r\n");
    let from_crlf = read_dataset(crlf.as_bytes()).unwrap();
    // CRLF tolerance composed with the binary codec: identical frames.
    assert_eq!(to_binary(&from_crlf), to_binary(&ds));
}

#[test]
fn zero_cluster_binary_file_round_trips() {
    let ds = Dataset::new();
    let bytes = to_binary(&ds);
    assert!(!bytes.is_empty(), "empty binary file still has a header");
    assert!(read_dataset_auto(bytes.as_slice()).unwrap().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn text_to_binary_to_text_is_byte_identical(
        clusters in 1usize..12,
        max_len in 1usize..200,
        seed in any::<u64>(),
    ) {
        let ds = adversarial_dataset(clusters, max_len, seed);
        let mut text_first = Vec::new();
        write_dataset(&ds, &mut text_first).expect("write text");
        // text → dataset → binary → dataset → text
        let parsed = read_dataset(text_first.as_slice()).expect("read text");
        let binary = to_binary(&parsed);
        let back = read_dataset_auto(binary.as_slice()).expect("read binary");
        prop_assert_eq!(&back, &ds);
        let mut text_second = Vec::new();
        write_dataset(&back, &mut text_second).expect("rewrite text");
        prop_assert_eq!(text_first, text_second);
    }

    #[test]
    fn binary_write_is_a_byte_identical_fixed_point(
        clusters in 1usize..10,
        max_len in 1usize..120,
        seed in any::<u64>(),
    ) {
        let ds = adversarial_dataset(clusters, max_len, seed);
        let first = to_binary(&ds);
        let back = read_dataset_auto(first.as_slice()).expect("read");
        prop_assert_eq!(to_binary(&back), first);
    }

    #[test]
    fn streaming_binary_reader_matches_whole_file_parse(
        clusters in 1usize..10,
        max_len in 1usize..80,
        seed in any::<u64>(),
        batch in 1usize..5,
    ) {
        let ds = adversarial_dataset(clusters, max_len, seed);
        let bytes = to_binary(&ds);
        let mut reader = BinaryDatasetReader::new(bytes.as_slice());
        let mut streamed = Dataset::new();
        while let Some(b) = dnasim_core::ClusterSource::next_batch(&mut reader, batch).expect("batch") {
            streamed.extend(b.clusters().iter().cloned());
        }
        prop_assert_eq!(streamed, ds);
    }

    #[test]
    fn truncated_binary_never_panics_and_never_misreads(
        clusters in 1usize..6,
        max_len in 1usize..60,
        seed in any::<u64>(),
        frac in 0.0f64..1.0,
    ) {
        let ds = adversarial_dataset(clusters, max_len, seed);
        let bytes = to_binary(&ds);
        let cut = ((bytes.len() as f64) * frac) as usize;
        match read_dataset_auto(&bytes[..cut]) {
            // A cut on a frame boundary yields a strict prefix of the
            // dataset — every decoded cluster must be the real one.
            Ok(prefix) => {
                prop_assert!(prefix.len() <= ds.len());
                prop_assert_eq!(
                    prefix.clusters(),
                    &ds.clusters()[..prefix.len()]
                );
            }
            Err(ReadDatasetError::Frame { .. } | ReadDatasetError::Io { .. }) => {}
            Err(other) => return Err(TestCaseError::fail(format!("unexpected {other}"))),
        }
    }

    #[test]
    fn single_byte_corruption_is_detected_or_harmless(
        clusters in 1usize..6,
        max_len in 1usize..60,
        seed in any::<u64>(),
        victim in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let ds = adversarial_dataset(clusters, max_len, seed);
        let mut bytes = to_binary(&ds);
        // Corrupt one byte past the header (header corruption is covered
        // by the unit suite; payload/frame corruption is the sharp edge).
        let span = bytes.len() - 8;
        let at = 8 + (victim as usize) % span;
        bytes[at] ^= flip;
        match read_dataset_auto(bytes.as_slice()) {
            // The only acceptable success: the flipped bits were in a
            // strand's padding area and the checksum caught… nothing,
            // which cannot happen — padding is covered by the checksum.
            // So any Ok must decode to something ≠ ds only if the write
            // path differs; require failure or exact equality.
            Ok(back) => prop_assert_eq!(back, ds),
            Err(ReadDatasetError::Frame { .. } | ReadDatasetError::Io { .. }) => {}
            Err(other) => return Err(TestCaseError::fail(format!("unexpected {other}"))),
        }
    }
}

#[test]
fn binary_writer_via_sink_matches_whole_file_write() {
    let ds = adversarial_dataset(9, 50, 4242);
    let whole = to_binary(&ds);
    for batch_size in [1, 2, 4, usize::MAX] {
        let mut buf = Vec::new();
        let mut sink = BinaryDatasetWriter::new(&mut buf);
        dnasim_core::pump(&mut ds.stream(), &mut sink, batch_size, Ok).unwrap();
        assert_eq!(buf, whole, "batch_size={batch_size}");
    }
}
