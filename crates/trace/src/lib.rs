//! # mood-trace — structured tracing for the MOOD query lifecycle
//!
//! A lightweight tracing facade: the query layer opens a [`Span`] per
//! lifecycle phase (parse → bind → optimize → execute) and per algebra
//! operator; each span captures a scoped [`MetricsSnapshot`] delta (page
//! accesses attributed to the span's window), an optional actual row count,
//! and wall-clock time. Finished spans are dispatched to pluggable
//! [`Subscriber`]s — a [`RingBuffer`] collector for tests and programmatic
//! inspection, a [`TextDump`] that renders a human-readable indented log
//! for the CLI.
//!
//! Spans are intentionally synchronous and coordinator-side: parallel
//! operators still run their workers freely, and because [`DiskMetrics`]
//! totals are always the sum of the per-thread counts, a span's delta is
//! exact no matter how the work was distributed across threads.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mood_storage::{DiskMetrics, MetricsSnapshot};
use parking_lot::Mutex;

/// A finished span, as delivered to subscribers.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name, e.g. `"parse"`, `"execute"`, `"op:SELECT"`.
    pub name: String,
    /// Nesting depth at the time the span was opened (0 = top level).
    pub depth: usize,
    /// Free-form attributes attached while the span was open.
    pub attrs: Vec<(String, String)>,
    /// Actual row count, when the span produced rows.
    pub rows: Option<u64>,
    /// Page/buffer counter delta over the span's window.
    pub delta: MetricsSnapshot,
    /// Wall-clock duration of the span.
    pub elapsed: Duration,
}

/// Receives finished spans. Implementations must tolerate concurrent calls.
pub trait Subscriber: Send + Sync {
    fn on_span(&self, span: &SpanRecord);
}

/// Names one attachment of a subscriber, for [`Tracer::unsubscribe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriptionId(u64);

#[derive(Default)]
struct TracerInner {
    subscribers: Mutex<Vec<(SubscriptionId, Arc<dyn Subscriber>)>>,
    next_id: AtomicU64,
    /// Subscriber count mirrored outside the mutex so the hot path can
    /// test "is anyone listening?" with one atomic load.
    active: AtomicUsize,
    depth: AtomicUsize,
}

/// Entry point: hands out spans and fans finished ones out to subscribers.
/// Cloning shares the subscriber list (Arc).
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a subscriber; it sees every span *opened* after this call
    /// (a span opened while no subscriber was attached records nothing).
    /// The returned id detaches it again.
    pub fn subscribe(&self, sub: Arc<dyn Subscriber>) -> SubscriptionId {
        let id = SubscriptionId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        self.inner.subscribers.lock().push((id, sub));
        self.inner.active.fetch_add(1, Ordering::Release);
        id
    }

    /// Detach the subscriber `id` names; false if it already was. Once the
    /// last one is gone, spans are inert again and tracing costs one atomic
    /// load per span, as before anything was attached. A span already open
    /// still reports to whoever is attached when it closes.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        let mut subscribers = self.inner.subscribers.lock();
        let before = subscribers.len();
        subscribers.retain(|(sid, _)| *sid != id);
        let removed = subscribers.len() < before;
        if removed {
            self.inner.active.fetch_sub(1, Ordering::Release);
        }
        removed
    }

    /// True when at least one subscriber is attached — callers may skip
    /// span bookkeeping entirely when tracing is off.
    pub fn enabled(&self) -> bool {
        self.inner.active.load(Ordering::Acquire) > 0
    }

    /// Open a span. The span measures the `metrics` delta and wall-clock
    /// time from now until it is dropped (or [`Span::finish`]ed).
    ///
    /// With no subscriber attached the span is inert: no counter snapshot
    /// is taken and nothing is dispatched on drop, so tracing costs one
    /// atomic load per span on the query hot path.
    pub fn span(&self, name: impl Into<String>, metrics: &DiskMetrics) -> Span {
        let recording = self.enabled();
        let depth = if recording {
            self.inner.depth.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Span {
            tracer: self.clone(),
            name: if recording { name.into() } else { String::new() },
            depth,
            attrs: Vec::new(),
            rows: None,
            metrics: metrics.clone(),
            start_snapshot: if recording {
                metrics.snapshot()
            } else {
                MetricsSnapshot::default()
            },
            start: Instant::now(),
            finished: false,
            recording,
        }
    }

    /// Run `f` inside a span named `name`, recording the result row count
    /// via `rows(&T)`.
    pub fn in_span<T>(
        &self,
        name: &str,
        metrics: &DiskMetrics,
        rows: impl FnOnce(&T) -> Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let mut span = self.span(name, metrics);
        let out = f();
        if let Some(n) = rows(&out) {
            span.set_rows(n);
        }
        out
    }

    fn dispatch(&self, record: &SpanRecord) {
        self.inner.depth.fetch_sub(1, Ordering::Relaxed);
        for (_, sub) in self.inner.subscribers.lock().iter() {
            sub.on_span(record);
        }
    }
}

/// An open span; finishes (and reports) when dropped.
pub struct Span {
    tracer: Tracer,
    name: String,
    depth: usize,
    attrs: Vec<(String, String)>,
    rows: Option<u64>,
    metrics: DiskMetrics,
    start_snapshot: MetricsSnapshot,
    start: Instant,
    finished: bool,
    /// False when the span was opened with no subscriber attached: emit
    /// builds an empty record and skips dispatch (and depth bookkeeping,
    /// which was never incremented).
    recording: bool,
}

impl Span {
    /// Attach a key/value attribute.
    pub fn attr(&mut self, key: impl Into<String>, value: impl ToString) {
        self.attrs.push((key.into(), value.to_string()));
    }

    /// Record the span's actual output row count.
    pub fn set_rows(&mut self, rows: u64) {
        self.rows = Some(rows);
    }

    /// Finish eagerly (drop would do the same).
    pub fn finish(mut self) -> SpanRecord {
        self.emit()
    }

    fn emit(&mut self) -> SpanRecord {
        self.finished = true;
        if !self.recording {
            return SpanRecord {
                name: std::mem::take(&mut self.name),
                depth: self.depth,
                attrs: std::mem::take(&mut self.attrs),
                rows: self.rows,
                delta: MetricsSnapshot::default(),
                elapsed: self.start.elapsed(),
            };
        }
        let record = SpanRecord {
            name: std::mem::take(&mut self.name),
            depth: self.depth,
            attrs: std::mem::take(&mut self.attrs),
            rows: self.rows,
            delta: self.metrics.snapshot().delta(&self.start_snapshot),
            elapsed: self.start.elapsed(),
        };
        self.tracer.dispatch(&record);
        record
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.finished {
            self.emit();
        }
    }
}

/// Bounded in-memory collector: keeps the last `capacity` spans. The test
/// harness reads these back to assert on the query lifecycle. Spans evicted
/// to make room are counted in [`RingBuffer::dropped`] so saturation is
/// visible instead of silent.
pub struct RingBuffer {
    capacity: usize,
    records: Mutex<std::collections::VecDeque<SpanRecord>>,
    dropped: AtomicU64,
}

impl RingBuffer {
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(RingBuffer {
            capacity: capacity.max(1),
            records: Mutex::new(std::collections::VecDeque::new()),
            dropped: AtomicU64::new(0),
        })
    }

    /// Copy of the retained spans, oldest first.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.lock().iter().cloned().collect()
    }

    /// Retained spans with the given name, oldest first.
    pub fn named(&self, name: &str) -> Vec<SpanRecord> {
        self.records
            .lock()
            .iter()
            .filter(|r| r.name == name)
            .cloned()
            .collect()
    }

    /// Number of spans evicted because the buffer was full (cumulative;
    /// not reset by [`RingBuffer::clear`]).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn clear(&self) {
        self.records.lock().clear();
    }
}

impl Subscriber for RingBuffer {
    fn on_span(&self, span: &SpanRecord) {
        let mut records = self.records.lock();
        if records.len() == self.capacity {
            records.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        records.push_back(span.clone());
    }
}

/// Renders finished spans as indented human-readable lines; the CLI's
/// `.spans` command drains these. Bounded: once `capacity` lines are
/// buffered, the oldest line is discarded per new span and the loss is
/// surfaced both by [`TextDump::dropped`] and a marker line at the head
/// of the next [`TextDump::drain`].
pub struct TextDump {
    capacity: usize,
    lines: Mutex<Vec<String>>,
    dropped: AtomicU64,
}

/// Default line capacity for [`TextDump::new`] — enough for interactive
/// sessions; long-running collectors should size explicitly.
pub const TEXT_DUMP_DEFAULT_CAPACITY: usize = 4096;

impl Default for TextDump {
    fn default() -> Self {
        TextDump {
            capacity: TEXT_DUMP_DEFAULT_CAPACITY,
            lines: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }
}

impl TextDump {
    pub fn new() -> Arc<Self> {
        Arc::new(TextDump::default())
    }

    /// A dump that retains at most `capacity` lines between drains.
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(TextDump { capacity: capacity.max(1), ..TextDump::default() })
    }

    /// Lines discarded because the buffer was full, since the last drain.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Take the accumulated lines (clears the buffer). When lines were
    /// dropped since the previous drain, the first returned line is a
    /// `... (N spans dropped)` marker so saturation is never silent.
    pub fn drain(&self) -> Vec<String> {
        let mut lines = std::mem::take(&mut *self.lines.lock());
        let dropped = self.dropped.swap(0, Ordering::Relaxed);
        if dropped > 0 {
            lines.insert(0, format!("... ({dropped} spans dropped)"));
        }
        lines
    }
}

/// One-line rendering of a span: name, rows, page delta, elapsed time.
pub fn render_span(r: &SpanRecord) -> String {
    let mut line = format!("{}{}", "  ".repeat(r.depth), r.name);
    if let Some(rows) = r.rows {
        line.push_str(&format!(" rows={rows}"));
    }
    let pages = r.delta.total_reads() + r.delta.writes;
    line.push_str(&format!(
        " pages={pages} (seq={} rnd={} idx={} w={})",
        r.delta.seq_pages, r.delta.rnd_pages, r.delta.idx_pages, r.delta.writes
    ));
    line.push_str(&format!(" time={:.3}ms", r.elapsed.as_secs_f64() * 1e3));
    for (k, v) in &r.attrs {
        line.push_str(&format!(" {k}={v}"));
    }
    line
}

impl Subscriber for TextDump {
    fn on_span(&self, span: &SpanRecord) {
        let mut lines = self.lines.lock();
        if lines.len() == self.capacity {
            lines.remove(0);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        lines.push(render_span(span));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_storage::AccessKind;

    #[test]
    fn span_captures_rows_delta_and_attrs() {
        let tracer = Tracer::new();
        let ring = RingBuffer::new(8);
        tracer.subscribe(ring.clone());
        let metrics = DiskMetrics::new();
        {
            let mut span = tracer.span("op:SELECT", &metrics);
            span.attr("predicate", "cylinders = 2");
            metrics.record_read(AccessKind::Sequential);
            metrics.record_read(AccessKind::Random);
            span.set_rows(4);
        }
        let records = ring.records();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.name, "op:SELECT");
        assert_eq!(r.rows, Some(4));
        assert_eq!(r.delta.seq_pages, 1);
        assert_eq!(r.delta.rnd_pages, 1);
        assert_eq!(r.attrs, vec![("predicate".to_string(), "cylinders = 2".to_string())]);
    }

    #[test]
    fn nested_spans_record_depth() {
        let tracer = Tracer::new();
        let ring = RingBuffer::new(8);
        tracer.subscribe(ring.clone());
        let metrics = DiskMetrics::new();
        {
            let _outer = tracer.span("execute", &metrics);
            let _inner = tracer.span("op:BIND", &metrics);
        }
        let records = ring.records();
        // Inner finishes (drops) first.
        assert_eq!(records[0].name, "op:BIND");
        assert_eq!(records[0].depth, 1);
        assert_eq!(records[1].name, "execute");
        assert_eq!(records[1].depth, 0);
    }

    #[test]
    fn ring_buffer_keeps_last_n() {
        let tracer = Tracer::new();
        let ring = RingBuffer::new(2);
        tracer.subscribe(ring.clone());
        let metrics = DiskMetrics::new();
        for i in 0..5 {
            tracer.span(format!("s{i}"), &metrics);
        }
        let names: Vec<String> = ring.records().into_iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["s3", "s4"]);
    }

    #[test]
    fn delta_is_scoped_to_the_span_window() {
        let tracer = Tracer::new();
        let ring = RingBuffer::new(8);
        tracer.subscribe(ring.clone());
        let metrics = DiskMetrics::new();
        metrics.record_read(AccessKind::Random); // before: not counted
        {
            let _span = tracer.span("scan", &metrics);
            metrics.record_read(AccessKind::Sequential);
        }
        metrics.record_read(AccessKind::Random); // after: not counted
        let r = &ring.records()[0];
        assert_eq!(r.delta.total_reads(), 1);
        assert_eq!(r.delta.seq_pages, 1);
    }

    #[test]
    fn parallel_worker_pages_land_in_the_span_delta() {
        let tracer = Tracer::new();
        let ring = RingBuffer::new(8);
        tracer.subscribe(ring.clone());
        let metrics = DiskMetrics::new();
        {
            let _span = tracer.span("op:SELECT", &metrics);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let m = metrics.clone();
                    s.spawn(move || m.record_read(AccessKind::Sequential));
                }
            });
        }
        assert_eq!(ring.records()[0].delta.seq_pages, 4);
    }

    #[test]
    fn text_dump_renders_indented_lines() {
        let tracer = Tracer::new();
        let dump = TextDump::new();
        tracer.subscribe(dump.clone());
        let metrics = DiskMetrics::new();
        {
            let _outer = tracer.span("execute", &metrics);
            let mut inner = tracer.span("op:SELECT", &metrics);
            inner.set_rows(3);
        }
        let lines = dump.drain();
        assert!(lines[0].starts_with("  op:SELECT rows=3"));
        assert!(lines[1].starts_with("execute"));
        assert!(dump.drain().is_empty(), "drain clears");
    }

    #[test]
    fn ring_buffer_counts_overflow_drops() {
        let tracer = Tracer::new();
        let ring = RingBuffer::new(2);
        tracer.subscribe(ring.clone());
        let metrics = DiskMetrics::new();
        for i in 0..5 {
            tracer.span(format!("s{i}"), &metrics);
        }
        assert_eq!(ring.dropped(), 3);
        ring.clear();
        assert_eq!(ring.dropped(), 3, "drop counter survives clear");
    }

    #[test]
    fn text_dump_caps_lines_and_marks_drops() {
        let tracer = Tracer::new();
        let dump = TextDump::with_capacity(2);
        tracer.subscribe(dump.clone());
        let metrics = DiskMetrics::new();
        for i in 0..5 {
            tracer.span(format!("s{i}"), &metrics);
        }
        assert_eq!(dump.dropped(), 3);
        let lines = dump.drain();
        assert_eq!(lines.len(), 3, "marker + 2 retained lines");
        assert_eq!(lines[0], "... (3 spans dropped)");
        assert!(lines[1].starts_with("s3"));
        assert!(lines[2].starts_with("s4"));
        assert_eq!(dump.dropped(), 0, "drain resets the drop count");
        assert!(dump.drain().is_empty(), "no marker when nothing dropped");
    }

    #[test]
    fn disabled_tracer_reports_no_subscribers() {
        let tracer = Tracer::new();
        assert!(!tracer.enabled());
        tracer.subscribe(RingBuffer::new(1));
        assert!(tracer.enabled());
    }

    #[test]
    fn unsubscribing_the_last_sink_makes_spans_inert_again() {
        let tracer = Tracer::new();
        let metrics = DiskMetrics::new();
        let (a, b) = (RingBuffer::new(8), RingBuffer::new(8));
        let id_a = tracer.subscribe(a.clone());
        let id_b = tracer.subscribe(b.clone());
        tracer.span("both", &metrics);
        assert!(tracer.unsubscribe(id_a));
        assert!(!tracer.unsubscribe(id_a), "already detached");
        assert!(tracer.enabled(), "b is still attached");
        tracer.span("only-b", &metrics);
        assert!(tracer.unsubscribe(id_b));
        assert!(!tracer.enabled());
        // Inert: no snapshot taken, no record built, nothing dispatched.
        metrics.record_read(AccessKind::Sequential);
        let record = tracer.span("nobody", &metrics).finish();
        assert_eq!((record.name.as_str(), record.depth), ("", 0));
        assert_eq!(record.delta, MetricsSnapshot::default());
        assert_eq!(a.records().len(), 1);
        assert_eq!(b.records().len(), 2);
        // Depth bookkeeping stayed balanced: a fresh sink sees depth 0.
        let c = RingBuffer::new(8);
        tracer.subscribe(c.clone());
        tracer.span("again", &metrics);
        assert_eq!(c.records()[0].depth, 0);
    }

    #[test]
    fn in_span_records_result_rows() {
        let tracer = Tracer::new();
        let ring = RingBuffer::new(4);
        tracer.subscribe(ring.clone());
        let metrics = DiskMetrics::new();
        let out: Vec<u32> =
            tracer.in_span("op:PROJECT", &metrics, |v: &Vec<u32>| Some(v.len() as u64), || {
                vec![1, 2, 3]
            });
        assert_eq!(out.len(), 3);
        assert_eq!(ring.records()[0].rows, Some(3));
    }
}
