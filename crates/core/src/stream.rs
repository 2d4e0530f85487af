//! Streaming cluster flow: bounded windows of clusters with stable
//! global indices.
//!
//! Every pipeline stage in the workspace seeds its per-cluster RNG from
//! the cluster's *global* index (`SeedSequence::fork(global_index)`), so a
//! stage that processes clusters in bounded batches produces byte-identical
//! output to one that materialises the whole [`Dataset`] — regardless of
//! batch size or thread count. This module provides the vocabulary for
//! that contract:
//!
//! * [`Batch`] — a window of clusters that remembers where in the global
//!   cluster order it starts;
//! * [`ClusterSource`] / [`ClusterSink`] — pull/push endpoints a stage
//!   streams between;
//! * [`fold_windows`] / [`produce_windows`] — the one budgeted window
//!   loop every streaming stage runs on (consumers fold a source,
//!   producers generate index ranges), which also audits the window
//!   high-watermark and resident reads so tests can assert a stage never
//!   held more than `batch_size` clusters in flight;
//! * [`pump`] — the source → transform → sink form of the same loop;
//! * [`Dataset`] adapters, making the in-memory type one trivial
//!   source/sink so existing callers keep working unchanged.
//!
//! # Examples
//!
//! ```
//! use dnasim_core::{Batch, Cluster, ClusterSink, ClusterSource, Dataset, pump};
//!
//! let mut ds = Dataset::new();
//! for _ in 0..10 {
//!     ds.push(Cluster::erasure("ACGT".parse()?));
//! }
//! let mut out = Dataset::new();
//! let stats = pump(&mut ds.stream(), &mut out, 3, Ok)?;
//! assert_eq!(out, ds);
//! assert_eq!(stats.clusters, 10);
//! assert!(stats.high_watermark <= 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::ops::Range;

use crate::budget::Budget;
use crate::cluster::Cluster;
use crate::dataset::Dataset;
use crate::error::DnasimError;

/// A bounded window of consecutive clusters with stable global indices.
///
/// `Batch` is the unit streaming stages exchange: cluster `i` of the batch
/// is cluster `start() + i` of the global stream, and stages that need a
/// per-cluster seed fork it from that global index, never from the
/// within-batch position. That is what makes output independent of batch
/// size (see DESIGN.md §11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    start: usize,
    clusters: Vec<Cluster>,
}

impl Batch {
    /// Creates a batch whose first cluster has global index `start`.
    pub fn new(start: usize, clusters: Vec<Cluster>) -> Batch {
        Batch { start, clusters }
    }

    /// Global index of the first cluster in the batch.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of clusters in the batch.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the batch holds no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The clusters in the batch, in global order.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Consumes the batch, yielding its clusters — for sinks that keep
    /// them (accumulators, tees) rather than serialising and dropping.
    pub fn into_clusters(self) -> Vec<Cluster> {
        self.clusters
    }

    /// The half-open range of global indices the batch covers.
    pub fn global_indices(&self) -> Range<usize> {
        self.start..self.start + self.clusters.len()
    }

    /// Iterates `(global_index, cluster)` pairs.
    pub fn iter_indexed(&self) -> impl Iterator<Item = (usize, &Cluster)> {
        let start = self.start;
        self.clusters
            .iter()
            .enumerate()
            .map(move |(i, c)| (start + i, c))
    }

    /// Consumes the batch, returning its start index and clusters.
    pub fn into_parts(self) -> (usize, Vec<Cluster>) {
        (self.start, self.clusters)
    }

    /// Keeps only the first `len` clusters, preserving the start index.
    /// A no-op when the batch is already at most `len` long. This is how
    /// a budgeted driver cuts a batch at the admitted prefix.
    pub fn truncate(&mut self, len: usize) {
        self.clusters.truncate(len);
    }
}

/// A pull endpoint producing clusters in global order, one bounded batch
/// at a time.
pub trait ClusterSource {
    /// Produces the next batch of at most `max` clusters, or `Ok(None)`
    /// once the stream is exhausted.
    ///
    /// Implementations must emit clusters in global order with contiguous
    /// indices: the first batch starts at 0 and each subsequent batch
    /// starts where the previous one ended.
    ///
    /// # Errors
    ///
    /// Implementation-specific — e.g. I/O or parse failures for sources
    /// backed by a reader. `max == 0` is a caller bug and yields
    /// [`DnasimError::Config`].
    fn next_batch(&mut self, max: usize) -> Result<Option<Batch>, DnasimError>;
}

/// A push endpoint consuming clusters in global order.
pub trait ClusterSink {
    /// Accepts the next batch. Batches arrive in global order with
    /// contiguous indices; sinks may reject gaps or overlaps with
    /// [`DnasimError::Config`].
    ///
    /// # Errors
    ///
    /// Implementation-specific — e.g. I/O failures for writer-backed
    /// sinks, or a contiguity violation.
    fn accept(&mut self, batch: Batch) -> Result<(), DnasimError>;

    /// Signals that no further batches will arrive, flushing any
    /// buffered state.
    ///
    /// # Errors
    ///
    /// Implementation-specific; the default does nothing.
    fn finish(&mut self) -> Result<(), DnasimError> {
        Ok(())
    }
}

/// Counters from a bounded-window streaming run.
///
/// `high_watermark` is the audit the acceptance criteria lean on: the
/// maximum number of clusters any single window held, which must never
/// exceed the requested batch size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Number of batches pumped.
    pub batches: usize,
    /// Total clusters pumped.
    pub clusters: usize,
    /// Maximum clusters held in flight by any one window.
    pub high_watermark: usize,
    /// Maximum *reads* resident in any one window — the memory gauge
    /// behind the bounded-memory acceptance criteria. Where
    /// `high_watermark` counts clusters, this counts the strands actually
    /// held, so a stage whose clusters balloon (e.g. pathological
    /// misassignment in imperfect clustering) is observable, not just
    /// asserted bounded.
    pub peak_resident_reads: usize,
}

impl WindowStats {
    /// Folds another window's counters into this one (for multi-stage
    /// pipelines reporting a single summary).
    pub fn absorb(&mut self, other: WindowStats) {
        self.batches += other.batches;
        self.clusters += other.clusters;
        self.high_watermark = self.high_watermark.max(other.high_watermark);
        self.peak_resident_reads = self.peak_resident_reads.max(other.peak_resident_reads);
    }

    /// Records one window of `clusters` clusters holding `reads` reads,
    /// bumping the batch/cluster counters and ratcheting both residency
    /// gauges.
    pub fn record_window(&mut self, clusters: usize, reads: usize) {
        self.batches += 1;
        self.clusters += clusters;
        self.high_watermark = self.high_watermark.max(clusters);
        self.peak_resident_reads = self.peak_resident_reads.max(reads);
    }
}

/// Total reads held by a slice of clusters — the quantity the
/// [`WindowStats::peak_resident_reads`] gauge tracks.
pub fn resident_reads(clusters: &[Cluster]) -> usize {
    clusters.iter().map(|c| c.reads().len()).sum()
}

/// Validates a streaming batch size, translating `0` into a typed error.
/// Every window driver, reader and service that takes a batch size goes
/// through this one check.
///
/// # Errors
///
/// [`DnasimError::Config`] for `batch_size == 0`.
pub fn checked_batch_size(batch_size: usize) -> Result<usize, DnasimError> {
    if batch_size == 0 {
        Err(DnasimError::config(
            "batch_size",
            "streaming batch size must be at least 1",
        ))
    } else {
        Ok(batch_size)
    }
}

/// A window the driver can meter: a contiguous run of global cluster
/// indices, either materialised ([`Batch`]) or still to be produced
/// (`Range<usize>`).
trait Window {
    fn start(&self) -> usize;
    fn len(&self) -> usize;
    fn truncate(&mut self, len: usize);
}

impl Window for Batch {
    fn start(&self) -> usize {
        Batch::start(self)
    }
    fn len(&self) -> usize {
        Batch::len(self)
    }
    fn truncate(&mut self, len: usize) {
        Batch::truncate(self, len);
    }
}

impl Window for Range<usize> {
    fn start(&self) -> usize {
        self.start
    }
    fn len(&self) -> usize {
        ExactSizeIterator::len(self)
    }
    fn truncate(&mut self, len: usize) {
        self.end = self.end.min(self.start.saturating_add(len));
    }
}

/// The window loop. Pulls windows of at most `batch_size` clusters,
/// observes cancellation at every boundary, charges one unit per empty
/// window (so a stalled source trips the budget instead of spinning),
/// rejects gaps and overlaps, admits each window against the budget, hands
/// the admitted prefix to `visit` (which returns the reads it holds) and
/// fails with the typed deadline error once a window is cut short.
fn drive<W, P, V>(
    batch_size: usize,
    budget: &Budget,
    stage: &'static str,
    mut pull: P,
    mut visit: V,
) -> Result<WindowStats, DnasimError>
where
    W: Window,
    P: FnMut(usize) -> Result<Option<W>, DnasimError>,
    V: FnMut(W) -> Result<usize, DnasimError>,
{
    let batch_size = checked_batch_size(batch_size)?;
    let mut stats = WindowStats::default();
    let mut expected_start = 0usize;
    loop {
        budget.check(stage)?;
        let Some(mut window) = pull(batch_size)? else {
            return Ok(stats);
        };
        let full_len = window.len();
        if full_len == 0 {
            // Progress guard: real sources never emit empty windows, so
            // metered runs stay byte-identical.
            budget.charge(stage, 1)?;
            continue;
        }
        if window.start() != expected_start {
            return Err(DnasimError::config(
                "stream",
                format!(
                    "source emitted batch starting at {} but {} clusters were seen",
                    window.start(),
                    expected_start
                ),
            ));
        }
        let admitted = usize::try_from(budget.admit(full_len as u64)).unwrap_or(usize::MAX);
        if admitted > 0 {
            window.truncate(admitted);
            let reads = visit(window)?;
            stats.record_window(admitted, reads);
            expected_start += admitted;
        }
        if admitted < full_len {
            return Err(budget.exceeded(stage));
        }
    }
}

/// Folds `source` window by window: the streaming driver every consumer
/// stage (profiling, evaluation, fidelity) is a per-batch closure over.
///
/// Each window holds at most `batch_size` clusters and costs one budget
/// unit per cluster. When the budget runs dry mid-window, `visit` still
/// sees the *admitted prefix*, so it folds exactly the first `limit`
/// clusters of the stream — at any batch size — before the typed error is
/// returned. The returned [`WindowStats`] gauge every window's clusters
/// and resident reads. `stage` names the driver in deadline errors.
///
/// # Errors
///
/// [`DnasimError::Config`] for `batch_size == 0` or a non-contiguous
/// source, [`DnasimError::DeadlineExceeded`] on exhaustion or
/// cancellation, otherwise whatever the source or `visit` reports.
pub fn fold_windows<S, F>(
    source: &mut S,
    batch_size: usize,
    budget: &Budget,
    stage: &'static str,
    mut visit: F,
) -> Result<WindowStats, DnasimError>
where
    S: ClusterSource + ?Sized,
    F: FnMut(Batch) -> Result<(), DnasimError>,
{
    drive(
        batch_size,
        budget,
        stage,
        |max| source.next_batch(max),
        |batch: Batch| {
            let reads = resident_reads(batch.clusters());
            visit(batch)?;
            Ok(reads)
        },
    )
}

/// The producer form of [`fold_windows`]: generates clusters
/// `0..count` window by window, calling `produce` with each admitted range
/// of global indices and pushing the result into `sink`. A stage that
/// seeds cluster `i` from its global index produces the same bytes at any
/// batch size, and an exhausted budget cuts the output at global cluster
/// `limit`. The read gauge counts the produced clusters' reads.
///
/// # Errors
///
/// [`DnasimError::Config`] for `batch_size == 0` or a `produce` that
/// returns the wrong number of clusters,
/// [`DnasimError::DeadlineExceeded`] on exhaustion or cancellation,
/// otherwise whatever `produce` or the sink reports.
pub fn produce_windows<K, F>(
    count: usize,
    sink: &mut K,
    batch_size: usize,
    budget: &Budget,
    stage: &'static str,
    mut produce: F,
) -> Result<WindowStats, DnasimError>
where
    K: ClusterSink + ?Sized,
    F: FnMut(Range<usize>) -> Result<Vec<Cluster>, DnasimError>,
{
    let mut cursor = 0usize;
    let stats = drive(
        batch_size,
        budget,
        stage,
        |max| {
            if cursor >= count {
                return Ok(None);
            }
            let range = cursor..cursor.saturating_add(max).min(count);
            cursor = range.end;
            Ok(Some(range))
        },
        |range: Range<usize>| {
            let (start, len) = (range.start, range.end - range.start);
            emit(sink, Batch::new(start, produce(range)?), start, len)
        },
    )?;
    sink.finish()?;
    Ok(stats)
}

/// Pushes a stage's output window into `sink` after checking it still
/// covers global indices `start..start + len`; returns its resident reads.
fn emit<K: ClusterSink + ?Sized>(
    sink: &mut K,
    out: Batch,
    start: usize,
    len: usize,
) -> Result<usize, DnasimError> {
    if out.start() != start || out.len() != len {
        return Err(DnasimError::config(
            "stream",
            "streaming transform must map batches 1:1 (same start and length)",
        ));
    }
    let reads = resident_reads(out.clusters());
    sink.accept(out)?;
    Ok(reads)
}

/// Drives `source` → `transform` → `sink` with a bounded window of at most
/// `batch_size` clusters, returning the window counters.
///
/// `transform` must map batches 1:1 — same start index, same cluster
/// count — so global indices stay stable through the stage; a transform
/// that re-shapes the stream is a config error, not silent corruption.
/// The sink's [`ClusterSink::finish`] hook runs after the source is
/// exhausted.
///
/// # Errors
///
/// [`DnasimError::Config`] for `batch_size == 0`, a non-contiguous
/// source, or a transform that changes batch shape; otherwise whatever
/// the source, transform, or sink reports.
pub fn pump<S, K, F>(
    source: &mut S,
    sink: &mut K,
    batch_size: usize,
    transform: F,
) -> Result<WindowStats, DnasimError>
where
    S: ClusterSource + ?Sized,
    K: ClusterSink + ?Sized,
    F: FnMut(Batch) -> Result<Batch, DnasimError>,
{
    pump_budgeted(source, sink, batch_size, &Budget::unlimited(), "pump", transform)
}

/// [`pump`] metered by a [`Budget`] through [`fold_windows`]: one unit per
/// cluster, one per empty batch, cancellation observed at every batch
/// boundary. The admitted prefix is still transformed and emitted, so the
/// sink holds exactly the first `limit` clusters of the stream — at any
/// batch size — before the typed error is returned. `stage` names this
/// driver in the error.
///
/// # Errors
///
/// [`DnasimError::DeadlineExceeded`] on exhaustion or cancellation, plus
/// everything [`pump`] can report.
pub fn pump_budgeted<S, K, F>(
    source: &mut S,
    sink: &mut K,
    batch_size: usize,
    budget: &Budget,
    stage: &'static str,
    mut transform: F,
) -> Result<WindowStats, DnasimError>
where
    S: ClusterSource + ?Sized,
    K: ClusterSink + ?Sized,
    F: FnMut(Batch) -> Result<Batch, DnasimError>,
{
    let stats = fold_windows(source, batch_size, budget, stage, |batch| {
        let (start, len) = (batch.start(), batch.len());
        emit(sink, transform(batch)?, start, len).map(|_| ())
    })?;
    sink.finish()?;
    Ok(stats)
}

/// A [`ClusterSource`] adapter that decodes ahead on a dedicated I/O
/// worker thread: while the consumer (typically a thread pool working on
/// batch `k`) holds one batch, the worker is already pulling batch `k+1`
/// from the inner source, hiding decode and I/O latency behind compute.
///
/// Hand-off happens over a rendezvous channel, so at most **two** batches
/// exist at once — the one the consumer holds and the one the worker has
/// decoded and is offering. [`PrefetchSource::stats`] audits that bound:
/// its `high_watermark` is the peak combined size of two consecutive
/// batches, which never exceeds 2× the batch size.
///
/// Batches are delivered strictly in source order, so output through a
/// prefetched source is byte-identical to pulling from the inner source
/// directly. An inner-source error is delivered at exactly the point in
/// the stream where the serial source would have reported it — after
/// every batch decoded before it, never reordered past one. Dropping the
/// source early (e.g. because a downstream sink failed) shuts the worker
/// down and discards any batch still in the hand-off buffer: a buffered
/// batch is never delivered after an abort.
///
/// # Examples
///
/// ```
/// use dnasim_core::{Cluster, Dataset, PrefetchSource, pump};
///
/// let mut ds = Dataset::new();
/// for _ in 0..10 {
///     ds.push(Cluster::erasure("ACGT".parse()?));
/// }
/// let mut prefetch = PrefetchSource::spawn(ds.clone().into_stream(), 3)?;
/// let mut out = Dataset::new();
/// pump(&mut prefetch, &mut out, 3, Ok)?;
/// assert_eq!(out, ds);
/// assert!(prefetch.stats().high_watermark <= 6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PrefetchSource {
    rx: Option<std::sync::mpsc::Receiver<Result<Batch, DnasimError>>>,
    worker: Option<std::thread::JoinHandle<()>>,
    prev_len: usize,
    prev_reads: usize,
    stats: WindowStats,
    done: bool,
}

impl PrefetchSource {
    /// Moves `source` onto a dedicated worker thread that pulls batches
    /// of `batch_size` clusters one ahead of the consumer.
    ///
    /// # Errors
    ///
    /// [`DnasimError::Config`] for `batch_size == 0`, or
    /// [`DnasimError::Io`] if the worker thread cannot be spawned.
    pub fn spawn<S>(mut source: S, batch_size: usize) -> Result<PrefetchSource, DnasimError>
    where
        S: ClusterSource + Send + 'static,
    {
        let batch_size = checked_batch_size(batch_size)?;
        // Capacity 0 is a rendezvous: the worker blocks in `send` holding
        // batch k+1 while the consumer processes batch k, which is what
        // caps the in-flight total at two batches.
        let (tx, rx) = std::sync::mpsc::sync_channel(0);
        let worker = std::thread::Builder::new()
            .name("dnasim-prefetch".to_owned())
            .spawn(move || loop {
                match source.next_batch(batch_size) {
                    Ok(Some(batch)) => {
                        if tx.send(Ok(batch)).is_err() {
                            // Consumer hung up (abort): drop the batch.
                            return;
                        }
                    }
                    // Dropping `tx` is the end-of-stream signal.
                    Ok(None) => return,
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                }
            })
            .map_err(DnasimError::Io)?;
        Ok(PrefetchSource {
            rx: Some(rx),
            worker: Some(worker),
            prev_len: 0,
            prev_reads: 0,
            stats: WindowStats::default(),
            done: false,
        })
    }

    /// Occupancy counters for the hand-off: `high_watermark` is the peak
    /// combined size of two consecutive batches (the consumer's plus the
    /// prefetched one), ≤ 2× the batch size by construction.
    pub fn stats(&self) -> WindowStats {
        self.stats
    }

    fn join_worker(&mut self) -> Result<(), DnasimError> {
        self.rx = None;
        match self.worker.take() {
            Some(handle) => handle.join().map_err(|_| {
                DnasimError::config("prefetch", "prefetch worker terminated abnormally")
            }),
            None => Ok(()),
        }
    }
}

impl ClusterSource for PrefetchSource {
    fn next_batch(&mut self, max: usize) -> Result<Option<Batch>, DnasimError> {
        let max = checked_batch_size(max)?;
        if self.done {
            return Ok(None);
        }
        let received = match self.rx.as_ref() {
            Some(rx) => rx.recv(),
            None => {
                self.done = true;
                return Ok(None);
            }
        };
        match received {
            Ok(Ok(batch)) => {
                if batch.len() > max {
                    self.done = true;
                    let _ = self.join_worker();
                    return Err(DnasimError::config(
                        "prefetch",
                        format!(
                            "prefetched batch of {} clusters exceeds the requested window \
                             of {max}; pull with the batch size the source was spawned with",
                            batch.len()
                        ),
                    ));
                }
                if !batch.is_empty() {
                    let reads = resident_reads(batch.clusters());
                    self.stats.batches += 1;
                    self.stats.clusters += batch.len();
                    self.stats.high_watermark =
                        self.stats.high_watermark.max(self.prev_len + batch.len());
                    self.stats.peak_resident_reads = self
                        .stats
                        .peak_resident_reads
                        .max(self.prev_reads + reads);
                    self.prev_len = batch.len();
                    self.prev_reads = reads;
                }
                Ok(Some(batch))
            }
            Ok(Err(e)) => {
                self.done = true;
                // The worker returns right after sending an error, so the
                // join cannot itself fail meaningfully here.
                let _ = self.join_worker();
                Err(e)
            }
            Err(_) => {
                // Channel closed: clean end of stream — or a worker panic,
                // which the join converts into a typed error.
                self.done = true;
                self.join_worker()?;
                Ok(None)
            }
        }
    }
}

impl Drop for PrefetchSource {
    fn drop(&mut self) {
        // Closing the channel fails the worker's blocked send, so it exits
        // and any buffered batch is dropped undelivered.
        self.rx = None;
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

/// [`pump`] with the source wrapped in a [`PrefetchSource`]: batch `k+1`
/// is decoded on a dedicated I/O worker while the transform runs batch
/// `k`, and the returned `high_watermark` reports the true in-flight peak
/// — consumer window plus prefetched batch, ≤ 2× `batch_size`.
///
/// Output is byte-identical to [`pump`] over the same source; only the
/// overlap (and therefore wall-clock) differs.
///
/// # Errors
///
/// Everything [`pump`] and [`PrefetchSource::spawn`] can report.
pub fn pump_prefetch<S, K, F>(
    source: S,
    sink: &mut K,
    batch_size: usize,
    transform: F,
) -> Result<WindowStats, DnasimError>
where
    S: ClusterSource + Send + 'static,
    K: ClusterSink + ?Sized,
    F: FnMut(Batch) -> Result<Batch, DnasimError>,
{
    let mut prefetch = PrefetchSource::spawn(source, batch_size)?;
    let mut stats = pump(&mut prefetch, sink, batch_size, transform)?;
    stats.high_watermark = stats.high_watermark.max(prefetch.stats().high_watermark);
    Ok(stats)
}

/// A [`ClusterSource`] over an in-memory [`Dataset`], cloning each window
/// of clusters out of the dataset. See [`Dataset::stream`].
#[derive(Debug)]
pub struct DatasetStream<'a> {
    dataset: &'a Dataset,
    cursor: usize,
}

impl<'a> DatasetStream<'a> {
    pub(crate) fn new(dataset: &'a Dataset) -> DatasetStream<'a> {
        DatasetStream { dataset, cursor: 0 }
    }
}

impl ClusterSource for DatasetStream<'_> {
    fn next_batch(&mut self, max: usize) -> Result<Option<Batch>, DnasimError> {
        let max = checked_batch_size(max)?;
        let clusters = self.dataset.clusters();
        if self.cursor >= clusters.len() {
            return Ok(None);
        }
        let end = self.cursor.saturating_add(max).min(clusters.len());
        let batch = Batch::new(self.cursor, clusters[self.cursor..end].to_vec());
        self.cursor = end;
        Ok(Some(batch))
    }
}

/// A [`ClusterSource`] that owns its [`Dataset`], so it can be moved onto
/// another thread (see [`PrefetchSource`]). See [`Dataset::into_stream`].
#[derive(Debug)]
pub struct OwnedDatasetStream {
    dataset: Dataset,
    cursor: usize,
}

impl OwnedDatasetStream {
    pub(crate) fn new(dataset: Dataset) -> OwnedDatasetStream {
        OwnedDatasetStream { dataset, cursor: 0 }
    }
}

impl ClusterSource for OwnedDatasetStream {
    fn next_batch(&mut self, max: usize) -> Result<Option<Batch>, DnasimError> {
        let max = checked_batch_size(max)?;
        let clusters = self.dataset.clusters();
        if self.cursor >= clusters.len() {
            return Ok(None);
        }
        let end = self.cursor.saturating_add(max).min(clusters.len());
        let batch = Batch::new(self.cursor, clusters[self.cursor..end].to_vec());
        self.cursor = end;
        Ok(Some(batch))
    }
}

impl ClusterSink for Dataset {
    /// Appends the batch's clusters, requiring contiguity: the batch must
    /// start exactly where the dataset currently ends, so a mis-wired
    /// pipeline cannot silently drop or duplicate clusters.
    fn accept(&mut self, batch: Batch) -> Result<(), DnasimError> {
        if batch.start() != self.len() {
            return Err(DnasimError::config(
                "stream",
                format!(
                    "batch starts at global index {} but sink dataset holds {} clusters",
                    batch.start(),
                    self.len()
                ),
            ));
        }
        let (_, clusters) = batch.into_parts();
        self.extend(clusters);
        Ok(())
    }
}

/// A sink that counts clusters and discards them — for stages that only
/// need the stream driven (e.g. profiling via a tap) or for measuring.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink {
    clusters: usize,
}

impl NullSink {
    /// Creates a sink that drops every batch.
    pub fn new() -> NullSink {
        NullSink::default()
    }

    /// Total clusters accepted so far.
    pub fn clusters(&self) -> usize {
        self.clusters
    }
}

impl ClusterSink for NullSink {
    fn accept(&mut self, batch: Batch) -> Result<(), DnasimError> {
        self.clusters += batch.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Dataset {
        (0..n)
            .map(|i| {
                let reference: crate::strand::Strand = "ACGT".parse().unwrap();
                if i % 3 == 0 {
                    Cluster::erasure(reference)
                } else {
                    Cluster::new(reference.clone(), vec![reference])
                }
            })
            .collect()
    }

    #[test]
    fn pump_copies_dataset_at_any_batch_size() {
        let ds = sample(10);
        for batch_size in [1, 3, 7, 10, 64, usize::MAX] {
            let mut out = Dataset::new();
            let stats = pump(&mut ds.stream(), &mut out, batch_size, Ok).unwrap();
            assert_eq!(out, ds, "batch_size={batch_size}");
            assert_eq!(stats.clusters, 10);
            assert!(stats.high_watermark <= batch_size);
        }
    }

    #[test]
    fn batch_global_indices_are_stable() {
        let ds = sample(7);
        let mut source = ds.stream();
        let first = source.next_batch(3).unwrap().unwrap();
        let second = source.next_batch(3).unwrap().unwrap();
        assert_eq!(first.global_indices(), 0..3);
        assert_eq!(second.global_indices(), 3..6);
        let indexed: Vec<usize> = second.iter_indexed().map(|(i, _)| i).collect();
        assert_eq!(indexed, vec![3, 4, 5]);
    }

    #[test]
    fn zero_batch_size_is_config_error() {
        let ds = sample(2);
        let mut out = Dataset::new();
        let err = pump(&mut ds.stream(), &mut out, 0, Ok).unwrap_err();
        assert!(matches!(err, DnasimError::Config { .. }));
    }

    #[test]
    fn dataset_sink_rejects_gap() {
        let mut out = Dataset::new();
        let batch = Batch::new(5, vec![Cluster::erasure("AC".parse().unwrap())]);
        let err = out.accept(batch).unwrap_err();
        assert!(matches!(err, DnasimError::Config { .. }));
    }

    #[test]
    fn pump_rejects_shape_changing_transform() {
        let ds = sample(4);
        let mut out = Dataset::new();
        let err = pump(&mut ds.stream(), &mut out, 2, |b| {
            Ok(Batch::new(b.start(), Vec::new()))
        })
        .unwrap_err();
        assert!(matches!(err, DnasimError::Config { .. }));
    }

    #[test]
    fn null_sink_counts() {
        let ds = sample(9);
        let mut sink = NullSink::new();
        let stats = pump(&mut ds.stream(), &mut sink, 4, Ok).unwrap();
        assert_eq!(sink.clusters(), 9);
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.high_watermark, 4);
    }

    /// A source that interposes empty batches between real windows; `pump`
    /// must skip them without counting a batch or disturbing contiguity.
    struct EmptyBatchSource<'a> {
        inner: DatasetStream<'a>,
        emit_empty: bool,
    }

    impl ClusterSource for EmptyBatchSource<'_> {
        fn next_batch(&mut self, max: usize) -> Result<Option<Batch>, DnasimError> {
            if self.emit_empty {
                self.emit_empty = false;
                // An empty batch at the current cursor position.
                return Ok(Some(Batch::new(0, Vec::new())));
            }
            self.emit_empty = true;
            self.inner.next_batch(max)
        }
    }

    #[test]
    fn pump_skips_empty_batches_without_counting_them() {
        let ds = sample(6);
        let mut source = EmptyBatchSource {
            inner: ds.stream(),
            emit_empty: true,
        };
        let mut out = Dataset::new();
        let stats = pump(&mut source, &mut out, 2, Ok).unwrap();
        assert_eq!(out, ds);
        // Only the three non-empty windows count toward the stats.
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.clusters, 6);
        assert_eq!(stats.high_watermark, 2);
    }

    #[test]
    fn empty_source_yields_zeroed_stats_and_runs_finish() {
        let ds = Dataset::new();
        let mut sink = NullSink::new();
        let stats = pump(&mut ds.stream(), &mut sink, 8, Ok).unwrap();
        assert_eq!(stats, WindowStats::default());
        assert_eq!(stats.high_watermark, 0);
        assert_eq!(sink.clusters(), 0);
    }

    #[test]
    fn single_cluster_window_pins_watermark_to_one() {
        let ds = sample(5);
        let mut out = Dataset::new();
        let stats = pump(&mut ds.stream(), &mut out, 1, Ok).unwrap();
        assert_eq!(out, ds);
        assert_eq!(stats.batches, 5);
        assert_eq!(stats.clusters, 5);
        assert_eq!(stats.high_watermark, 1);
    }

    #[test]
    fn high_watermark_is_monotone_under_interleaved_pump_drivers() {
        // A serve-style aggregate absorbs WindowStats from many interleaved
        // pump runs; the high-watermark must only ever ratchet upward and
        // the batch/cluster counters must sum exactly.
        let sizes = [3usize, 1, 7, 2, 5, 4];
        let mut aggregate = WindowStats::default();
        let mut last_watermark = 0;
        let mut expected_clusters = 0;
        for (round, &batch_size) in sizes.iter().enumerate() {
            let ds = sample(8 + round);
            let mut sink = NullSink::new();
            let window = pump(&mut ds.stream(), &mut sink, batch_size, Ok).unwrap();
            assert!(window.high_watermark <= batch_size);
            aggregate.absorb(window);
            assert!(
                aggregate.high_watermark >= last_watermark,
                "watermark regressed after round {round}"
            );
            last_watermark = aggregate.high_watermark;
            expected_clusters += 8 + round;
        }
        assert_eq!(aggregate.clusters, expected_clusters);
        assert_eq!(aggregate.high_watermark, 7);
        // Absorbing a zeroed window (an admitted-but-empty request) is a
        // no-op on the watermark.
        aggregate.absorb(WindowStats::default());
        assert_eq!(aggregate.high_watermark, 7);
    }

    #[test]
    fn budgeted_pump_emits_exactly_the_limit_prefix_at_any_batch_size() {
        let ds = sample(10);
        for limit in [0u64, 1, 4, 9, 10, 50] {
            let expected: Vec<Cluster> =
                ds.clusters()[..ds.len().min(limit as usize)].to_vec();
            for batch_size in [1, 3, 7, 64] {
                let budget = Budget::limited(limit);
                let mut out = Dataset::new();
                let result =
                    pump_budgeted(&mut ds.stream(), &mut out, batch_size, &budget, "copy", Ok);
                if limit >= 10 {
                    result.unwrap();
                } else {
                    match result.unwrap_err() {
                        DnasimError::DeadlineExceeded { spent, limit: l, stage } => {
                            assert_eq!(spent, limit);
                            assert_eq!(l, limit);
                            assert_eq!(stage, "copy");
                        }
                        other => panic!("expected DeadlineExceeded, got {other:?}"),
                    }
                }
                assert_eq!(
                    out.clusters(),
                    expected.as_slice(),
                    "limit={limit} batch_size={batch_size}"
                );
            }
        }
    }

    #[test]
    fn produced_windows_stop_at_the_limit_prefix_at_any_batch_size() {
        let ds = sample(10);
        for limit in [0u64, 1, 4, 9, 10, 50] {
            let expected = &ds.clusters()[..ds.len().min(limit as usize)];
            for batch_size in [1, 3, 7, usize::MAX] {
                let budget = Budget::limited(limit);
                let mut out = Dataset::new();
                let result = produce_windows(ds.len(), &mut out, batch_size, &budget, "make", |r| {
                    Ok(ds.clusters()[r].to_vec())
                });
                match result {
                    Ok(stats) => {
                        assert!(limit >= 10);
                        assert_eq!(stats.clusters, 10);
                        assert!(stats.high_watermark <= batch_size);
                        let largest = ds.clusters().chunks(batch_size.min(10)).map(resident_reads);
                        assert_eq!(Some(stats.peak_resident_reads), largest.max());
                    }
                    Err(DnasimError::DeadlineExceeded { spent, stage, .. }) => {
                        assert!(limit < 10);
                        assert_eq!((spent, stage), (limit, "make"));
                    }
                    Err(other) => panic!("unexpected {other:?}"),
                }
                assert_eq!(out.clusters(), expected, "limit={limit} batch_size={batch_size}");
            }
        }
    }

    #[test]
    fn producer_returning_the_wrong_count_is_a_config_error() {
        let mut out = Dataset::new();
        let err = produce_windows(4, &mut out, 2, &Budget::unlimited(), "make", |_| {
            Ok(Vec::new())
        })
        .unwrap_err();
        assert!(matches!(err, DnasimError::Config { .. }));
        let err = produce_windows(4, &mut out, 0, &Budget::unlimited(), "make", |_| {
            Ok(Vec::new())
        })
        .unwrap_err();
        assert!(matches!(err, DnasimError::Config { .. }));
    }

    /// A source that never produces a cluster: without the empty-batch
    /// charge this would loop forever; with it, the budget trips.
    struct StalledForever;

    impl ClusterSource for StalledForever {
        fn next_batch(&mut self, _max: usize) -> Result<Option<Batch>, DnasimError> {
            Ok(Some(Batch::new(0, Vec::new())))
        }
    }

    #[test]
    fn budgeted_pump_detects_a_stalled_source() {
        let budget = Budget::limited(16);
        let mut sink = NullSink::new();
        let err =
            pump_budgeted(&mut StalledForever, &mut sink, 4, &budget, "stall", Ok).unwrap_err();
        assert!(matches!(err, DnasimError::DeadlineExceeded { .. }));
        assert_eq!(sink.clusters(), 0);
    }

    #[test]
    fn cancelled_budget_stops_pump_at_the_next_batch_boundary() {
        let ds = sample(8);
        let budget = Budget::unlimited();
        budget.token().cancel();
        let mut out = Dataset::new();
        let err = pump_budgeted(&mut ds.stream(), &mut out, 2, &budget, "drain", Ok).unwrap_err();
        assert!(matches!(err, DnasimError::DeadlineExceeded { .. }));
        assert!(out.is_empty(), "cancellation before the first batch emits nothing");
    }

    #[test]
    fn prefetch_output_is_byte_identical_at_any_batch_size() {
        let ds = sample(13);
        for batch_size in [1, 3, 7, 13, 64] {
            let mut out = Dataset::new();
            let stats =
                pump_prefetch(ds.clone().into_stream(), &mut out, batch_size, Ok).unwrap();
            assert_eq!(out, ds, "batch_size={batch_size}");
            assert_eq!(stats.clusters, 13);
            assert!(
                stats.high_watermark <= 2 * batch_size,
                "double-buffer exceeded 2x batch: {} > {}",
                stats.high_watermark,
                2 * batch_size
            );
        }
    }

    #[test]
    fn prefetch_over_empty_source_is_clean_end_of_stream() {
        let mut prefetch = PrefetchSource::spawn(Dataset::new().into_stream(), 4).unwrap();
        assert!(prefetch.next_batch(4).unwrap().is_none());
        // Fused: repeated pulls stay at end of stream.
        assert!(prefetch.next_batch(4).unwrap().is_none());
        assert_eq!(prefetch.stats(), WindowStats::default());
    }

    #[test]
    fn prefetch_single_batch_watermark_is_one_batch() {
        let ds = sample(3);
        let mut out = Dataset::new();
        let stats = pump_prefetch(ds.clone().into_stream(), &mut out, 8, Ok).unwrap();
        assert_eq!(out, ds);
        assert_eq!(stats.batches, 1);
        // With a single batch there is never a second buffer in flight.
        assert_eq!(stats.high_watermark, 3);
    }

    #[test]
    fn prefetch_watermark_is_bounded_by_two_consecutive_batches() {
        let ds = sample(10);
        let mut prefetch = PrefetchSource::spawn(ds.into_stream(), 4).unwrap();
        while prefetch.next_batch(4).unwrap().is_some() {}
        let stats = prefetch.stats();
        assert_eq!(stats.clusters, 10);
        assert_eq!(stats.batches, 3);
        // Peak pair is 4 + 4; the final pair is 4 + 2.
        assert_eq!(stats.high_watermark, 8);
    }

    /// A source that yields `good` batches of one cluster and then fails,
    /// recording how many batches it actually produced.
    struct CountingThenFailing {
        produced: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        good: usize,
        cursor: usize,
    }

    impl ClusterSource for CountingThenFailing {
        fn next_batch(&mut self, _max: usize) -> Result<Option<Batch>, DnasimError> {
            if self.cursor >= self.good {
                return Err(DnasimError::config("test", "injected source fault"));
            }
            let batch = Batch::new(
                self.cursor,
                vec![Cluster::erasure("ACGT".parse().map_err(|_| {
                    DnasimError::config("test", "bad strand literal")
                })?)],
            );
            self.cursor += 1;
            self.produced
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(Some(batch))
        }
    }

    #[test]
    fn prefetch_delivers_source_error_in_stream_order() {
        let produced = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let source = CountingThenFailing {
            produced: produced.clone(),
            good: 2,
            cursor: 0,
        };
        let mut prefetch = PrefetchSource::spawn(source, 1).unwrap();
        assert_eq!(prefetch.next_batch(1).unwrap().unwrap().len(), 1);
        assert_eq!(prefetch.next_batch(1).unwrap().unwrap().len(), 1);
        let err = prefetch.next_batch(1).unwrap_err();
        assert!(matches!(err, DnasimError::Config { .. }));
        // Fused after the error.
        assert!(prefetch.next_batch(1).unwrap().is_none());
    }

    #[test]
    fn aborted_prefetch_drops_the_buffered_batch_undelivered() {
        // The worker decodes ahead; when the consumer aborts (drops the
        // source) the batch sitting in the hand-off must be discarded,
        // not delivered anywhere.
        let produced = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let source = CountingThenFailing {
            produced: produced.clone(),
            good: 100,
            cursor: 0,
        };
        let mut prefetch = PrefetchSource::spawn(source, 1).unwrap();
        let delivered = prefetch.next_batch(1).unwrap().map(|b| b.len());
        assert_eq!(delivered, Some(1));
        let stats = prefetch.stats();
        drop(prefetch); // abort: worker shut down, buffer discarded
        assert_eq!(stats.clusters, 1, "exactly one batch was delivered");
        // The worker had at most one batch in the hand-off beyond the
        // delivered one — never the whole stream.
        let total = produced.load(std::sync::atomic::Ordering::SeqCst);
        assert!(
            (1..=3).contains(&total),
            "worker ran ahead of the rendezvous: produced {total}"
        );
    }

    #[test]
    fn prefetch_source_error_mid_stream_aborts_pump_without_stale_delivery() {
        let produced = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let source = CountingThenFailing {
            produced,
            good: 3,
            cursor: 0,
        };
        let mut out = Dataset::new();
        let err = pump_prefetch(source, &mut out, 1, Ok).unwrap_err();
        assert!(matches!(err, DnasimError::Config { .. }));
        // Every batch decoded before the fault was delivered, in order —
        // exactly what the serial pump would have done.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn prefetch_rejects_mismatched_pull_size() {
        let ds = sample(8);
        let mut prefetch = PrefetchSource::spawn(ds.into_stream(), 4).unwrap();
        let err = prefetch.next_batch(2).unwrap_err();
        assert!(matches!(err, DnasimError::Config { .. }));
    }

    #[test]
    fn window_stats_absorb_takes_max_watermark() {
        let mut a = WindowStats {
            batches: 1,
            clusters: 4,
            high_watermark: 4,
            peak_resident_reads: 9,
        };
        a.absorb(WindowStats {
            batches: 2,
            clusters: 10,
            high_watermark: 7,
            peak_resident_reads: 5,
        });
        assert_eq!(a.batches, 3);
        assert_eq!(a.clusters, 14);
        assert_eq!(a.high_watermark, 7);
        assert_eq!(a.peak_resident_reads, 9, "read gauge is a max, not a sum");
    }

    #[test]
    fn pump_tracks_peak_resident_reads() {
        // sample() gives every non-erasure cluster exactly one read, with
        // erasures at indices 0, 3, 6, ... — so a window of 3 holds at most
        // 2 reads.
        let ds = sample(9);
        let total: usize = resident_reads(ds.clusters());
        let mut out = Dataset::new();
        let stats = pump(&mut ds.stream(), &mut out, 3, Ok).unwrap();
        assert_eq!(stats.peak_resident_reads, 2);
        // One whole-dataset window degenerates to the total.
        let mut whole = Dataset::new();
        let stats = pump(&mut ds.stream(), &mut whole, usize::MAX, Ok).unwrap();
        assert_eq!(stats.peak_resident_reads, total);
    }

    #[test]
    fn prefetch_read_gauge_is_bounded_by_two_consecutive_batches() {
        let ds = sample(10); // reads at non-multiples of 3: 6 reads total
        let mut prefetch = PrefetchSource::spawn(ds.into_stream(), 4).unwrap();
        while prefetch.next_batch(4).unwrap().is_some() {}
        let stats = prefetch.stats();
        // Batches of 4 hold ≤ 3 reads each; the pairwise peak stays ≤ 6.
        assert!(stats.peak_resident_reads <= 6);
        assert!(stats.peak_resident_reads >= 3);
    }
}
