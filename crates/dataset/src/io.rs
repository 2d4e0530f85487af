//! Cluster-file text I/O.
//!
//! The on-disk format mirrors the Microsoft Nanopore cluster files the
//! paper works with: each cluster is the reference strand on a `>`-prefixed
//! line followed by one read per line, clusters separated by blank lines.
//!
//! ```text
//! >ACGTACGTAC
//! ACGTACTAC
//! ACGGTACGTAC
//!
//! >TTGACCAGTA
//! TTGACCAGTA
//! ```
//!
//! Parsing is tolerant of the byte-level variation real files arrive
//! with: CRLF line endings, surrounding whitespace, repeated or trailing
//! blank lines, and a final cluster with no blank line after it all parse
//! identically to the canonical form.
//!
//! One extension over the Microsoft format: a read whose every base was
//! deleted by the channel is a zero-length strand, which a bare line
//! cannot express (an empty line already means "cluster boundary"). Such
//! reads are written as a single `-` and parsed back to an empty read, so
//! `write_dataset` → `read_dataset` is lossless for every dataset the
//! simulator can produce.

use std::fmt;
use std::io::{self, BufRead, Write};

use dnasim_core::{
    checked_batch_size, Batch, Cluster, ClusterSink, ClusterSource, Dataset, DnasimError,
    ParseStrandError, Strand,
};

/// Sentinel line for a zero-length read (all bases deleted).
const EMPTY_READ_TOKEN: &str = "-";

/// Errors from reading a cluster file, text or binary.
///
/// Every variant carries a position: text-format failures carry the
/// 1-based line number they surfaced at (see
/// [`line`](ReadDatasetError::line)) *and* the byte offset of that line's
/// start, while binary frames — which have no lines — carry the byte
/// offset alone (see [`offset`](ReadDatasetError::offset)). Either way, a
/// multi-megabyte cluster file with one bad byte is diagnosable without
/// bisecting it by hand.
#[derive(Debug)]
pub enum ReadDatasetError {
    /// Underlying I/O failure.
    Io {
        /// 1-based line number at which the read failed (the line after
        /// the last one successfully read); 0 for binary input.
        line: usize,
        /// Byte offset at which the read failed (bytes fully consumed
        /// before the failure).
        offset: u64,
        /// The I/O failure.
        source: io::Error,
    },
    /// A line failed to parse as a strand.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Byte offset of the start of the offending line.
        offset: u64,
        /// The parse failure.
        source: ParseStrandError,
    },
    /// A read line appeared before any `>` reference line.
    ReadBeforeReference {
        /// 1-based line number.
        line: usize,
        /// Byte offset of the start of the offending line.
        offset: u64,
    },
    /// A binary cluster frame is malformed: bad magic or version, a
    /// checksum mismatch, a truncated frame, or a length field that lies
    /// about the payload. Binary files have no lines, so the position is
    /// a byte offset only.
    Frame {
        /// Byte offset of the start of the offending frame or field.
        offset: u64,
        /// What was wrong with it.
        message: String,
    },
}

impl ReadDatasetError {
    /// The 1-based line number the failure surfaced at (0 for binary
    /// input, which has no lines — use
    /// [`offset`](ReadDatasetError::offset) instead).
    pub fn line(&self) -> usize {
        match self {
            ReadDatasetError::Io { line, .. }
            | ReadDatasetError::Parse { line, .. }
            | ReadDatasetError::ReadBeforeReference { line, .. } => *line,
            ReadDatasetError::Frame { .. } => 0,
        }
    }

    /// The byte offset the failure surfaced at: the start of the
    /// offending line for text input, the offending frame or field for
    /// binary input.
    pub fn offset(&self) -> u64 {
        match self {
            ReadDatasetError::Io { offset, .. }
            | ReadDatasetError::Parse { offset, .. }
            | ReadDatasetError::ReadBeforeReference { offset, .. }
            | ReadDatasetError::Frame { offset, .. } => *offset,
        }
    }
}

impl fmt::Display for ReadDatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadDatasetError::Io { line: 0, offset, source } => {
                write!(f, "byte {offset}: i/o error: {source}")
            }
            ReadDatasetError::Io { line, offset, source } => {
                write!(f, "line {line} (byte {offset}): i/o error: {source}")
            }
            ReadDatasetError::Parse { line, offset, source } => {
                write!(f, "line {line} (byte {offset}): {source}")
            }
            ReadDatasetError::ReadBeforeReference { line, offset } => {
                write!(
                    f,
                    "line {line} (byte {offset}): read appears before any '>' reference line"
                )
            }
            ReadDatasetError::Frame { offset, message } => {
                write!(f, "byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for ReadDatasetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadDatasetError::Io { source, .. } => Some(source),
            ReadDatasetError::Parse { source, .. } => Some(source),
            ReadDatasetError::ReadBeforeReference { .. } | ReadDatasetError::Frame { .. } => None,
        }
    }
}

impl From<ReadDatasetError> for DnasimError {
    fn from(e: ReadDatasetError) -> DnasimError {
        match e {
            // Re-wrap so the position survives into the generic error;
            // the original kind is preserved for retry/ENOENT dispatch.
            ReadDatasetError::Io { line: 0, offset, source } => DnasimError::Io(io::Error::new(
                source.kind(),
                format!("cluster file byte {offset}: {source}"),
            )),
            ReadDatasetError::Io { line, offset, source } => DnasimError::Io(io::Error::new(
                source.kind(),
                format!("cluster file line {line} (byte {offset}): {source}"),
            )),
            ReadDatasetError::Parse { line, offset, source } => DnasimError::parse(
                "cluster file",
                line,
                format!("byte {offset}: {source}"),
            ),
            ReadDatasetError::ReadBeforeReference { line, offset } => DnasimError::parse(
                "cluster file",
                line,
                format!("byte {offset}: read appears before any '>' reference line"),
            ),
            ReadDatasetError::Frame { offset, message } => DnasimError::parse(
                "binary cluster file",
                0,
                format!("byte {offset}: {message}"),
            ),
        }
    }
}

/// An incremental cluster-file parser: yields one [`Cluster`] at a time
/// over any [`BufRead`], holding at most one cluster in memory.
///
/// This is the streaming face of [`read_dataset`] (which is now a thin
/// wrapper over it) and implements
/// [`ClusterSource`](dnasim_core::ClusterSource) so a file on disk plugs
/// directly into the bounded-window pipeline. All byte-level tolerance
/// (CRLF, surrounding whitespace, repeated/trailing blank lines, the `-`
/// empty-read sentinel) is identical to the whole-file parser, because it
/// *is* the whole-file parser, re-cut at cluster granularity.
///
/// After the first error the reader is fused: subsequent calls yield
/// end-of-stream rather than resuming a corrupt parse.
///
/// # Examples
///
/// ```
/// use dnasim_dataset::DatasetReader;
///
/// let text = ">ACGT\nACG\n\n>TTTT\n";
/// let mut reader = DatasetReader::new(text.as_bytes());
/// let first = reader.next_cluster()?.ok_or("missing cluster")?;
/// assert_eq!(first.coverage(), 1);
/// let second = reader.next_cluster()?.ok_or("missing cluster")?;
/// assert!(second.is_erasure());
/// assert!(reader.next_cluster()?.is_none());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DatasetReader<R> {
    reader: R,
    buf: String,
    line_no: usize,
    offset: u64,
    pending: Option<Cluster>,
    emitted: usize,
    done: bool,
}

impl<R: BufRead> DatasetReader<R> {
    /// Creates a streaming reader over cluster-file text.
    pub fn new(reader: R) -> DatasetReader<R> {
        DatasetReader {
            reader,
            buf: String::new(),
            line_no: 0,
            offset: 0,
            pending: None,
            emitted: 0,
            done: false,
        }
    }

    /// Number of clusters emitted so far (the global index of the next
    /// cluster this reader will yield).
    pub fn clusters_read(&self) -> usize {
        self.emitted
    }

    /// Bytes fully consumed from the underlying reader so far.
    pub fn bytes_read(&self) -> u64 {
        self.offset
    }

    /// Parses the next cluster, or `Ok(None)` at end of input.
    ///
    /// # Errors
    ///
    /// Any [`ReadDatasetError`] variant for malformed input; the reader
    /// is fused afterwards.
    pub fn next_cluster(&mut self) -> Result<Option<Cluster>, ReadDatasetError> {
        if self.done {
            return Ok(None);
        }
        match self.advance() {
            Ok(Some(cluster)) => {
                self.emitted += 1;
                Ok(Some(cluster))
            }
            Ok(None) => {
                self.done = true;
                Ok(None)
            }
            Err(e) => {
                self.done = true;
                Err(e)
            }
        }
    }

    fn advance(&mut self) -> Result<Option<Cluster>, ReadDatasetError> {
        loop {
            self.buf.clear();
            let line_start = self.offset;
            let consumed =
                self.reader
                    .read_line(&mut self.buf)
                    .map_err(|source| ReadDatasetError::Io {
                        line: self.line_no + 1,
                        offset: line_start,
                        source,
                    })?;
            if consumed == 0 {
                break;
            }
            self.line_no += 1;
            self.offset += consumed as u64;
            let line_no = self.line_no;
            let trimmed = self.buf.trim();
            if trimmed.is_empty() {
                if let Some(cluster) = self.pending.take() {
                    return Ok(Some(cluster));
                }
                continue;
            }
            if let Some(reference_text) = trimmed.strip_prefix('>') {
                let reference: Strand = reference_text
                    .trim()
                    .parse()
                    .map_err(|source| ReadDatasetError::Parse {
                        line: line_no,
                        offset: line_start,
                        source,
                    })?;
                let flushed = self.pending.replace(Cluster::erasure(reference));
                if let Some(cluster) = flushed {
                    return Ok(Some(cluster));
                }
            } else {
                let read: Strand = if trimmed == EMPTY_READ_TOKEN {
                    Strand::new()
                } else {
                    trimmed.parse().map_err(|source| ReadDatasetError::Parse {
                        line: line_no,
                        offset: line_start,
                        source,
                    })?
                };
                match self.pending.as_mut() {
                    Some(cluster) => cluster.push_read(read),
                    None => {
                        return Err(ReadDatasetError::ReadBeforeReference {
                            line: line_no,
                            offset: line_start,
                        })
                    }
                }
            }
        }
        Ok(self.pending.take())
    }
}

impl<R: BufRead> Iterator for DatasetReader<R> {
    type Item = Result<Cluster, ReadDatasetError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_cluster().transpose()
    }
}

impl<R: BufRead> ClusterSource for DatasetReader<R> {
    fn next_batch(&mut self, max: usize) -> Result<Option<Batch>, DnasimError> {
        let max = checked_batch_size(max)?;
        let start = self.emitted;
        let mut clusters = Vec::new();
        while clusters.len() < max {
            match self.next_cluster()? {
                Some(cluster) => clusters.push(cluster),
                None => break,
            }
        }
        if clusters.is_empty() {
            Ok(None)
        } else {
            Ok(Some(Batch::new(start, clusters)))
        }
    }
}

/// An incremental cluster-file emitter: writes one [`Cluster`] at a time,
/// buffering nothing beyond the underlying writer.
///
/// The streaming face of [`write_dataset`] (now a thin wrapper), and a
/// [`ClusterSink`](dnasim_core::ClusterSink) so the bounded-window
/// pipeline can emit straight to disk. Output is byte-identical to the
/// whole-dataset writer: a blank line *before* every cluster except the
/// first, so interleaving or re-batching never changes the file.
///
/// # Examples
///
/// ```
/// use dnasim_core::Cluster;
/// use dnasim_dataset::{read_dataset, DatasetWriter};
///
/// let mut buf = Vec::new();
/// let mut writer = DatasetWriter::new(&mut buf);
/// writer.write_cluster(&Cluster::erasure("ACGT".parse()?))?;
/// writer.write_cluster(&Cluster::erasure("TTTT".parse()?))?;
/// assert_eq!(writer.clusters_written(), 2);
/// assert_eq!(read_dataset(buf.as_slice())?.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DatasetWriter<W: Write> {
    writer: W,
    /// One rendered line, reused for every line written.
    line: Vec<u8>,
    clusters: usize,
    reads: usize,
    erasures: usize,
}

impl<W: Write> DatasetWriter<W> {
    /// Creates a streaming writer over `writer`.
    pub fn new(writer: W) -> DatasetWriter<W> {
        DatasetWriter {
            writer,
            line: Vec::new(),
            clusters: 0,
            reads: 0,
            erasures: 0,
        }
    }

    /// Number of clusters written so far.
    pub fn clusters_written(&self) -> usize {
        self.clusters
    }

    /// Number of reads written so far.
    pub fn reads_written(&self) -> usize {
        self.reads
    }

    /// Number of erasure clusters written so far.
    pub fn erasures_written(&self) -> usize {
        self.erasures
    }

    /// Appends one cluster in cluster-file text format: each line is
    /// rendered into one reused buffer and written with one call.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the writer.
    pub fn write_cluster(&mut self, cluster: &Cluster) -> io::Result<()> {
        let line = &mut self.line;
        line.clear();
        if self.clusters > 0 {
            line.push(b'\n');
        }
        line.push(b'>');
        cluster.reference().extend_ascii(line);
        line.push(b'\n');
        self.writer.write_all(line)?;
        for read in cluster.reads() {
            line.clear();
            if read.is_empty() {
                line.extend_from_slice(EMPTY_READ_TOKEN.as_bytes());
            } else {
                read.extend_ascii(line);
            }
            line.push(b'\n');
            self.writer.write_all(line)?;
        }
        self.clusters += 1;
        self.reads += cluster.coverage();
        if cluster.is_erasure() {
            self.erasures += 1;
        }
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the flush.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> ClusterSink for DatasetWriter<W> {
    /// Writes the batch, requiring contiguity: the batch must start at the
    /// number of clusters already written.
    fn accept(&mut self, batch: Batch) -> Result<(), DnasimError> {
        if batch.start() != self.clusters {
            return Err(DnasimError::config(
                "stream",
                format!(
                    "batch starts at global index {} but writer has emitted {} clusters",
                    batch.start(),
                    self.clusters
                ),
            ));
        }
        for cluster in batch.clusters() {
            self.write_cluster(cluster).map_err(DnasimError::Io)?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), DnasimError> {
        self.writer.flush().map_err(DnasimError::Io)
    }
}

/// Reads a dataset from cluster-file text.
///
/// A thin wrapper over [`DatasetReader`] that materialises the whole file.
///
/// # Errors
///
/// Any [`ReadDatasetError`] variant for malformed input.
///
/// # Examples
///
/// ```
/// use dnasim_dataset::read_dataset;
///
/// let text = ">ACGT\nACG\nACGT\n\n>TTTT\n";
/// let ds = read_dataset(text.as_bytes())?;
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.clusters()[0].coverage(), 2);
/// assert!(ds.clusters()[1].is_erasure());
/// # Ok::<(), dnasim_dataset::ReadDatasetError>(())
/// ```
pub fn read_dataset<R: BufRead>(reader: R) -> Result<Dataset, ReadDatasetError> {
    let mut dataset = Dataset::new();
    let mut source = DatasetReader::new(reader);
    while let Some(cluster) = source.next_cluster()? {
        dataset.push(cluster);
    }
    Ok(dataset)
}

/// Writes a dataset in cluster-file text format.
///
/// A thin wrapper over [`DatasetWriter`].
///
/// # Errors
///
/// Propagates I/O failures from the writer.
pub fn write_dataset<W: Write>(dataset: &Dataset, writer: W) -> io::Result<()> {
    let mut sink = DatasetWriter::new(writer);
    for cluster in dataset.iter() {
        sink.write_cluster(cluster)?;
    }
    sink.into_inner().map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::seeded;

    fn sample() -> Dataset {
        let mut rng = seeded(1);
        let mut ds = Dataset::new();
        for _ in 0..5 {
            let reference = Strand::random(20, &mut rng);
            let reads = (0..3).map(|_| Strand::random(18, &mut rng)).collect();
            ds.push(Cluster::new(reference, reads));
        }
        ds.push(Cluster::erasure(Strand::random(20, &mut rng)));
        ds
    }

    #[test]
    fn round_trip() {
        let ds = sample();
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        let back = read_dataset(buf.as_slice()).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn empty_input_is_empty_dataset() {
        let ds = read_dataset("".as_bytes()).unwrap();
        assert!(ds.is_empty());
    }

    #[test]
    fn trailing_cluster_without_blank_line() {
        let ds = read_dataset(">AC\nAC\nAG".as_bytes()).unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.clusters()[0].coverage(), 2);
    }

    #[test]
    fn multiple_blank_lines_are_tolerated() {
        let ds = read_dataset(">AC\nAC\n\n\n\n>GT\nGT\n".as_bytes()).unwrap();
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn parse_error_reports_line() {
        let err = read_dataset(">AC\nAX\n".as_bytes()).unwrap_err();
        match err {
            ReadDatasetError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn read_before_reference_is_rejected() {
        let err = read_dataset("ACGT\n".as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            ReadDatasetError::ReadBeforeReference { line: 1, offset: 0 }
        ));
    }

    #[test]
    fn parse_error_reports_byte_offset_of_the_line_start() {
        // ">AC\n" is 4 bytes, "AC\n" is 3: the bad line starts at byte 7.
        let err = read_dataset(">AC\nAC\nAX\n".as_bytes()).unwrap_err();
        match &err {
            ReadDatasetError::Parse { line, offset, .. } => {
                assert_eq!(*line, 3);
                assert_eq!(*offset, 7);
            }
            other => panic!("unexpected: {other}"),
        }
        assert_eq!(err.offset(), 7);
        assert!(err.to_string().contains("byte 7"));
    }

    #[test]
    fn whitespace_around_lines_is_trimmed() {
        let ds = read_dataset("  >ACGT  \n  AC  \n".as_bytes()).unwrap();
        assert_eq!(ds.clusters()[0].reference().to_string(), "ACGT");
        assert_eq!(ds.clusters()[0].reads()[0].to_string(), "AC");
    }

    #[test]
    fn erasure_round_trips() {
        let mut ds = Dataset::new();
        ds.push(Cluster::erasure("ACGT".parse().unwrap()));
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        let back = read_dataset(buf.as_slice()).unwrap();
        assert_eq!(back.erasure_count(), 1);
    }

    #[test]
    fn streaming_reader_matches_whole_file_parse() {
        let ds = sample();
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        let streamed: Dataset = DatasetReader::new(buf.as_slice())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, ds);
    }

    #[test]
    fn streaming_writer_output_is_byte_identical_at_any_batching() {
        let ds = sample();
        let mut whole = Vec::new();
        write_dataset(&ds, &mut whole).unwrap();
        for batch_size in [1, 2, 4, usize::MAX] {
            let mut buf = Vec::new();
            let mut sink = DatasetWriter::new(&mut buf);
            dnasim_core::pump(&mut ds.stream(), &mut sink, batch_size, Ok).unwrap();
            assert_eq!(buf, whole, "batch_size={batch_size}");
        }
    }

    #[test]
    fn reader_source_batches_have_stable_indices() {
        let ds = sample();
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        let mut source = DatasetReader::new(buf.as_slice());
        let first = source.next_batch(4).unwrap().unwrap();
        assert_eq!(first.global_indices(), 0..4);
        let second = source.next_batch(4).unwrap().unwrap();
        assert_eq!(second.global_indices(), 4..6);
        assert!(source.next_batch(4).unwrap().is_none());
    }

    #[test]
    fn reader_is_fused_after_error() {
        let mut reader = DatasetReader::new(">AC\nAX\n\n>GT\nGT\n".as_bytes());
        assert!(reader.next_cluster().is_err());
        assert!(reader.next_cluster().unwrap().is_none());
    }

    #[test]
    fn writer_sink_rejects_gap() {
        let mut sink = DatasetWriter::new(Vec::new());
        let batch = Batch::new(3, vec![Cluster::erasure("AC".parse().unwrap())]);
        assert!(sink.accept(batch).is_err());
    }

    /// The `writeln!` writer `write_cluster` replaced, kept as its oracle.
    fn write_per_line(dataset: &Dataset) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, cluster) in dataset.iter().enumerate() {
            if i > 0 {
                writeln!(out).unwrap();
            }
            writeln!(out, ">{}", cluster.reference()).unwrap();
            for read in cluster.reads() {
                if read.is_empty() {
                    writeln!(out, "{EMPTY_READ_TOKEN}").unwrap();
                } else {
                    writeln!(out, "{read}").unwrap();
                }
            }
        }
        out
    }

    #[test]
    fn writer_matches_the_writeln_oracle() {
        use dnasim_core::rng::RngExt;
        let mut rng = seeded(0x1E7);
        for case in 0..200 {
            let mut ds = Dataset::new();
            for _ in 0..rng.random_range(0..6usize) {
                let reference = Strand::random(rng.random_range(0..300usize), &mut rng);
                // Empty reads (the `-` sentinel), erasures and long reads.
                let reads = (0..rng.random_range(0..5usize))
                    .map(|_| {
                        let len = if rng.random_bool(0.2) { 0 } else { rng.random_range(1..300) };
                        Strand::random(len, &mut rng)
                    })
                    .collect();
                ds.push(Cluster::new(reference, reads));
            }
            let mut buf = Vec::new();
            write_dataset(&ds, &mut buf).unwrap();
            assert_eq!(buf, write_per_line(&ds), "case {case}");
        }
    }

    #[test]
    fn writer_counts_reads_and_erasures() {
        let ds = sample();
        let mut sink = DatasetWriter::new(Vec::new());
        for cluster in ds.iter() {
            sink.write_cluster(cluster).unwrap();
        }
        assert_eq!(sink.clusters_written(), ds.len());
        assert_eq!(sink.reads_written(), ds.total_reads());
        assert_eq!(sink.erasures_written(), ds.erasure_count());
    }
}
