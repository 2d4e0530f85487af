//! The traced run's span recorder.
//!
//! Spans are recorded around calls into the library's layers, kept in
//! memory (name, start, end, parent) and analysed — and written out —
//! once the run ends. A span's name is `<layer>.<call>`, and the layer is
//! the crate the call enters, so self time aggregates per crate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use dnasim::serve::json::Obj;

use crate::metrics::{Values, PER_LAYER};

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in ns since the trace was created.
    pub start_ns: u64,
    /// End, in ns since the trace was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// The layer (crate) the span's call entered.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread-safe, in-memory span log.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the trace was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self
            .spans
            .lock()
            .expect("trace lock poisoned by a panicking worker");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span that [`Trace::close`] ends; spans it causes name the
    /// returned index as their parent.
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        })
    }

    /// Ends a span opened by [`Trace::open`].
    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("trace lock poisoned by a panicking worker")[id]
            .end_ns = end_ns;
    }

    /// Runs `f` as one span.
    pub fn time<R>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let result = f();
        self.record(name, parent, start_ns, self.now_ns());
        result
    }

    /// Records a span whose interval was measured elsewhere on this
    /// trace's clock.
    pub fn record(&self, name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) {
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
    }

    /// The recorded spans, in the order they were recorded.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("trace lock poisoned by a panicking worker")
    }
}

/// Summed duration, in seconds, of the spans named `name` — the time the
/// layer was busy with that call, across all threads.
pub fn busy_s(spans: &[Span], name: &str) -> f64 {
    ns_to_s(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum(),
    )
}

/// How many spans are named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Self time per layer, in seconds: each span's duration minus the part of
/// its interval its child spans cover, summed by layer.
pub fn self_s_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    let mut by_layer = BTreeMap::new();
    for (span, kids) in spans.iter().zip(&mut children) {
        let covered = union_ns(kids, span.start_ns, span.end_ns);
        *by_layer.entry(span.layer()).or_insert(0.0) +=
            ns_to_s(span.duration_ns().saturating_sub(covered));
    }
    by_layer
}

/// Seconds of `[from_ns, to_ns]` covered by parentless spans.
pub fn top_level_s(spans: &[Span], from_ns: u64, to_ns: u64) -> f64 {
    let mut top: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    ns_to_s(union_ns(&mut top, from_ns, to_ns))
}

/// Length of the union of `intervals`, each clipped to `[from, to]`.
fn union_ns(intervals: &mut [(u64, u64)], from: u64, to: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = from;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(to));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Fills the trace-wide metrics: tracing overhead against an untraced
/// pass, the share of the traced timed region (`region`, in trace ns)
/// covered by top-level spans, and self time per layer.
pub fn summarise(values: &mut Values, spans: &[Span], region: (u64, u64), untraced_run_s: f64) {
    let traced_s = ns_to_s(region.1 - region.0);
    values.insert("trace.overhead_s", traced_s - untraced_run_s);
    values.insert(
        "trace.coverage",
        top_level_s(spans, region.0, region.1) / traced_s,
    );
    for (layer, self_s) in self_s_by_layer(spans) {
        let key = format!("{layer}.self_s");
        let name = PER_LAYER
            .iter()
            .map(|&(name, _)| name)
            .find(|&name| name == key)
            .unwrap_or_else(|| panic!("span layer {layer} has no self-time metric"));
        values.insert(name, self_s);
    }
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The spans as one JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut rows = String::from("[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            rows,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            span.name, span.start_ns, span.end_ns
        );
    }
    rows.push(']');
    Obj::new()
        .str("workload", workload)
        .raw("seed", &seed.to_string())
        .raw("spans", &rows)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // A 100 ns parent with two overlapping children covering 10..60
        // and one child spilling past its end.
        let spans = [
            span("pipeline.run", 0, 100, None),
            span("channel.pool", 10, 40, Some(0)),
            span("channel.pool", 30, 60, Some(0)),
            span("codec.decode", 90, 130, Some(0)),
        ];
        let by_layer = self_s_by_layer(&spans);
        assert!((by_layer["pipeline"] - 40e-9).abs() < 1e-15);
        assert!((by_layer["channel"] - 60e-9).abs() < 1e-15);
        assert!((by_layer["codec"] - 40e-9).abs() < 1e-15);
        assert!((busy_s(&spans, "channel.pool") - 60e-9).abs() < 1e-15);
        assert_eq!(count(&spans, "channel.pool"), 2);
    }

    #[test]
    fn top_level_coverage_counts_only_parentless_spans_in_the_region() {
        let spans = [
            span("codec.encode", 0, 10, None),
            span("cluster.push", 20, 30, None),
            span("channel.pool", 20, 50, Some(1)),
            span("codec.recover", 90, 120, None),
        ];
        assert!((top_level_s(&spans, 5, 100) - 25e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_record_parents_across_threads() {
        let trace = Trace::new();
        let root = trace.open("parallel.map", None);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| trace.time("channel.pool", Some(root), || ()));
            }
        });
        trace.close(root);
        let spans = trace.into_spans();
        assert_eq!(spans.len(), 3);
        assert!(spans[1..].iter().all(|s| s.parent == Some(root)));
        assert!(spans[0].end_ns >= spans[1].end_ns.max(spans[2].end_ns));
        let json = to_json("archive-imperfect", 7, &spans);
        assert!(dnasim::serve::json::parse(&json).is_ok());
    }
}
