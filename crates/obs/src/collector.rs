//! The [`Collector`]: a shared handle owning a metrics [`Registry`], a
//! bounded ring buffer of [`Record`]s, and the span-id allocator.
//!
//! Cloning a collector clones the handle, not the data — every subsystem
//! holds a clone of the same collector. A *disabled* collector (from
//! [`Collector::disabled`]) carries no inner state: every operation
//! early-returns after one `Option` check, which is what makes it safe to
//! leave the instrumentation calls in the parallel formation hot path.

use crate::metrics::{MetricsSnapshot, Registry};
use crate::record::{EventRecord, HistogramRecord, Record, SpanRecord, Value};
use crate::summary::render_summary;
use crate::trace::SpanLink;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default bound on the number of records the ring buffer retains.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Closure that reports the current simulated time in microseconds.
type SimSource = Box<dyn Fn() -> u64 + Send + Sync>;

struct Inner {
    epoch: Instant,
    registry: Registry,
    ring: Mutex<VecDeque<Record>>,
    capacity: usize,
    next_span_id: AtomicU64,
    next_trace_id: AtomicU64,
    dropped: AtomicU64,
    sim_source: OnceLock<SimSource>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A cheaply-cloneable observability sink.
///
/// See the [module docs](self) for the enabled/disabled contract.
#[derive(Clone, Debug, Default)]
pub struct Collector {
    inner: Option<Arc<Inner>>,
}

impl Collector {
    /// Creates an enabled collector with [`DEFAULT_RING_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Creates an enabled collector whose ring buffer keeps at most
    /// `capacity` records (oldest evicted first; evictions are counted in
    /// [`Collector::dropped`]).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                registry: Registry::new(),
                ring: Mutex::new(VecDeque::with_capacity(capacity.min(1_024))),
                capacity,
                next_span_id: AtomicU64::new(1),
                next_trace_id: AtomicU64::new(1),
                dropped: AtomicU64::new(0),
                sim_source: OnceLock::new(),
            })),
        }
    }

    /// Creates a collector for which every operation is a no-op.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this collector records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The metrics registry, or `None` when disabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// Adds `n` to the counter registered under `name`. No-op when
    /// disabled. Hot paths that increment repeatedly should fetch the
    /// handle once via [`Collector::registry`] instead.
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter(name).add(n);
        }
    }

    /// Installs the simulated-time source (a closure returning elapsed
    /// simulated microseconds). First caller wins; later calls are
    /// ignored, which makes attach-twice safe.
    pub fn set_sim_source(&self, source: impl Fn() -> u64 + Send + Sync + 'static) {
        if let Some(inner) = &self.inner {
            let _ = inner.sim_source.set(Box::new(source));
        }
    }

    /// Current simulated time in microseconds (0 before a source is
    /// installed or when disabled).
    pub fn sim_now(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.sim_source.get().map_or(0, |f| f()),
            None => 0,
        }
    }

    fn wall_now(inner: &Inner) -> u64 {
        inner.epoch.elapsed().as_micros() as u64
    }

    fn push(inner: &Inner, record: Record) {
        let mut ring = inner.ring.lock().expect("obs ring lock");
        if ring.len() >= inner.capacity {
            ring.pop_front();
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Records a structured event. No-op when disabled.
    pub fn event(&self, name: &str, fields: Vec<(String, Value)>) {
        if let Some(inner) = &self.inner {
            let record = Record::Event(EventRecord {
                name: name.to_string(),
                wall_us: Self::wall_now(inner),
                sim_us: self.sim_now(),
                fields,
            });
            Self::push(inner, record);
        }
    }

    /// Starts a root span. The returned guard records the span into the
    /// ring buffer when dropped.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_with_parent(name, None)
    }

    /// Starts a span with an explicit parent id (from
    /// [`SpanGuard::id`] of the enclosing span, possibly on another
    /// thread).
    pub fn span_with_parent(&self, name: &str, parent: Option<u64>) -> SpanGuard {
        self.span_linked(
            name,
            SpanLink {
                trace_id: 0,
                parent,
            },
        )
    }

    /// Starts a span at a trace position: parented under `link.parent`
    /// and tagged with `link.trace_id`. With a default (untraced) link
    /// this is exactly [`Collector::span`].
    pub fn span_linked(&self, name: &str, link: SpanLink) -> SpanGuard {
        match &self.inner {
            Some(inner) => SpanGuard {
                collector: self.clone(),
                record: Some(SpanRecord {
                    id: inner.next_span_id.fetch_add(1, Ordering::Relaxed),
                    parent: link.parent,
                    trace_id: link.trace_id,
                    name: name.to_string(),
                    wall_start_us: Self::wall_now(inner),
                    wall_us: 0,
                    sim_start_us: self.sim_now(),
                    sim_us: 0,
                    fields: Vec::new(),
                }),
            },
            None => SpanGuard {
                collector: Collector::disabled(),
                record: None,
            },
        }
    }

    /// Allocates a fresh trace id (dense, starting at 1), or 0 when
    /// disabled — callers treat 0 as "don't trace".
    pub fn new_trace_id(&self) -> u64 {
        self.inner
            .as_deref()
            .map_or(0, |i| i.next_trace_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Copies out the ring buffer contents, oldest first.
    pub fn records(&self) -> Vec<Record> {
        match &self.inner {
            Some(inner) => inner
                .ring
                .lock()
                .expect("obs ring lock")
                .iter()
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }

    /// Removes and returns the ring buffer contents, oldest first.
    pub fn drain(&self) -> Vec<Record> {
        match &self.inner {
            Some(inner) => inner
                .ring
                .lock()
                .expect("obs ring lock")
                .drain(..)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Number of records evicted from the ring buffer because it was
    /// full.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_deref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Snapshot of every registered metric (empty when disabled).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry().map(Registry::snapshot).unwrap_or_default()
    }

    /// The ring buffer contents followed by one `Counter`/`Gauge`/
    /// `Histogram` record per registered metric — the batch every
    /// exporter serializes. With `scrub`, wall-clock timings are zeroed
    /// (see [`Record::scrub_wall_times`]; wall-latency `*.op_us`
    /// histograms keep their sample count but lose their run-varying
    /// timing shape).
    pub fn export_records(&self, scrub: bool) -> Vec<Record> {
        let mut records = self.records();
        if scrub {
            for record in &mut records {
                record.scrub_wall_times();
            }
        }
        let snap = self.metrics();
        for (name, value) in snap.counters {
            records.push(Record::Counter { name, value });
        }
        for (name, value) in snap.gauges {
            records.push(Record::Gauge { name, value });
        }
        for (name, h) in snap.histograms {
            let mut record = Record::Histogram(HistogramRecord {
                name,
                bounds: h.bounds,
                buckets: h.buckets,
                count: h.count,
                sum: h.sum,
            });
            if scrub {
                record.scrub_wall_times();
            }
            records.push(record);
        }
        records
    }

    /// Serializes the ring buffer plus a metrics snapshot as JSON lines:
    /// span/event records in arrival order, then one `counter`/`gauge`/
    /// `histogram` line per registered metric.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in self.export_records(false) {
            out.push_str(&record.to_json_line());
            out.push('\n');
        }
        out
    }

    /// [`Self::to_jsonl`], with wall-clock timings scrubbed to zero
    /// (see [`Record::scrub_wall_times`]): two runs of the same
    /// deterministic workload — e.g. a seeded chaos bench — export
    /// byte-identical JSONL, so CI can `diff` them.
    pub fn to_jsonl_deterministic(&self) -> String {
        let mut out = String::new();
        for record in self.export_records(true) {
            out.push_str(&record.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Exports the ring buffer plus a metrics snapshot as a Chrome
    /// trace-event / Perfetto JSON document with wall-clock timestamps
    /// (see [`crate::perfetto`]).
    pub fn to_perfetto(&self) -> String {
        crate::perfetto::render(&self.export_records(false))
    }

    /// [`Self::to_perfetto`] on the simulated clock with wall times
    /// scrubbed — same byte-identical-replay contract as
    /// [`Self::to_jsonl_deterministic`].
    pub fn to_perfetto_deterministic(&self) -> String {
        crate::perfetto::render_deterministic(&self.export_records(true))
    }

    /// Renders a human-readable summary table of spans, events, and
    /// metrics.
    pub fn summary(&self) -> String {
        render_summary(&self.export_records(false))
    }
}

/// RAII guard for an in-flight span; records it on drop.
///
/// From a disabled collector the guard is inert: `id()` is `None` and
/// `field()`/drop do nothing.
#[derive(Debug)]
pub struct SpanGuard {
    collector: Collector,
    record: Option<SpanRecord>,
}

impl SpanGuard {
    /// The span's id, for parenting child spans — `None` when inert.
    pub fn id(&self) -> Option<u64> {
        self.record.as_ref().map(|r| r.id)
    }

    /// The trace this span belongs to (0 when untraced or inert).
    pub fn trace_id(&self) -> u64 {
        self.record.as_ref().map_or(0, |r| r.trace_id)
    }

    /// A link for opening children of this span in the same trace
    /// (the default, untraced link when inert).
    pub fn link(&self) -> SpanLink {
        match &self.record {
            Some(r) => SpanLink {
                trace_id: r.trace_id,
                parent: Some(r.id),
            },
            None => SpanLink::default(),
        }
    }

    /// Attaches a structured field to the span.
    pub fn field(&mut self, key: &str, value: impl Into<Value>) {
        if let Some(record) = &mut self.record {
            record.fields.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let (Some(mut record), Some(inner)) = (self.record.take(), self.collector.inner.clone())
        {
            let wall_now = Collector::wall_now(&inner);
            record.wall_us = wall_now.saturating_sub(record.wall_start_us);
            record.sim_us = self.collector.sim_now().saturating_sub(record.sim_start_us);
            Collector::push(&inner, Record::Span(record));
        }
    }
}

/// A collector plus the current parent span id — the unit the
/// negotiation engine threads through its call tree.
///
/// `ObsContext::default()` is disabled, so existing `NegotiationConfig`
/// construction sites keep working unchanged.
#[derive(Clone, Debug, Default)]
pub struct ObsContext {
    collector: Collector,
    parent: Option<u64>,
    trace_id: u64,
}

impl ObsContext {
    /// Wraps a collector with no parent span.
    pub fn new(collector: Collector) -> Self {
        Self {
            collector,
            parent: None,
            trace_id: 0,
        }
    }

    /// A context whose operations are all no-ops.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Returns this context tagged with a trace id: spans it opens
    /// belong to that trace (0 leaves them untraced).
    pub fn with_trace(mut self, trace_id: u64) -> Self {
        self.trace_id = trace_id;
        self
    }

    /// Returns this context positioned at `link` (both parent and
    /// trace).
    pub fn at_link(mut self, link: SpanLink) -> Self {
        self.parent = link.parent;
        self.trace_id = link.trace_id;
        self
    }

    /// The trace position this context opens spans at.
    pub fn link(&self) -> SpanLink {
        SpanLink {
            trace_id: self.trace_id,
            parent: self.parent,
        }
    }

    /// Whether the underlying collector records anything.
    pub fn is_enabled(&self) -> bool {
        self.collector.is_enabled()
    }

    /// The underlying collector.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Starts a span parented under this context's parent id, in this
    /// context's trace.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.collector.span_linked(name, self.link())
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, name: &str, n: u64) {
        self.collector.counter_add(name, n);
    }

    /// Records a structured event.
    pub fn event(&self, name: &str, fields: Vec<(String, Value)>) {
        self.collector.event(name, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_via_explicit_parents() {
        let c = Collector::new();
        let root = c.span("root");
        let mut child = c.span_with_parent("child", root.id());
        child.field("k", "v");
        drop(child);
        drop(root);
        let records = c.records();
        assert_eq!(records.len(), 2);
        // Child drops first, so it is recorded first.
        match (&records[0], &records[1]) {
            (Record::Span(child), Record::Span(root)) => {
                assert_eq!(child.name, "child");
                assert_eq!(child.parent, Some(root.id));
                assert_eq!(root.parent, None);
                assert_eq!(
                    child.fields,
                    vec![("k".to_string(), Value::Str("v".into()))]
                );
            }
            other => panic!("unexpected records {other:?}"),
        }
    }

    #[test]
    fn trace_ids_thread_through_linked_spans() {
        let c = Collector::new();
        let trace = c.new_trace_id();
        assert_eq!(trace, 1);
        assert_eq!(c.new_trace_id(), 2);
        let root = c.span_linked(
            "root",
            SpanLink {
                trace_id: trace,
                parent: None,
            },
        );
        assert_eq!(root.trace_id(), trace);
        let child = c.span_linked("child", root.link());
        assert_eq!(child.trace_id(), trace);
        let ctx = ObsContext::new(c.clone()).at_link(child.link());
        let grandchild = ctx.span("grandchild");
        let (child_id, grandchild_id) = (child.id().unwrap(), grandchild.id().unwrap());
        drop(grandchild);
        drop(child);
        drop(root);
        let spans: Vec<_> = c
            .records()
            .into_iter()
            .filter_map(|r| match r {
                Record::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        assert!(spans.iter().all(|s| s.trace_id == trace));
        let gc = spans.iter().find(|s| s.id == grandchild_id).unwrap();
        assert_eq!(gc.parent, Some(child_id));
        // Disabled collectors hand out the "don't trace" id.
        assert_eq!(Collector::disabled().new_trace_id(), 0);
    }

    #[test]
    fn deterministic_export_is_reproducible_and_wall_free() {
        let run = || {
            let c = Collector::new();
            let mut span = c.span("work");
            span.field("k", "v");
            drop(span);
            c.event("tick", vec![("n".into(), Value::I64(3))]);
            c.counter_add("hits", 2);
            c.to_jsonl_deterministic()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "identical workloads must export identical JSONL");
        assert!(a.contains("\"wall_us\":0"));
        assert!(a.contains("\"wall_start_us\":0"));
        assert!(a.contains("\"name\":\"hits\",\"value\":2"));
        // Still parseable by the round-trip reader.
        let parsed = crate::record::parse_jsonl(&a).unwrap();
        assert_eq!(parsed.len(), 3);
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let c = Collector::with_capacity(2);
        for i in 0..4 {
            c.event("e", vec![("i".into(), Value::I64(i))]);
        }
        let records = c.records();
        assert_eq!(records.len(), 2);
        assert_eq!(c.dropped(), 2);
        match &records[0] {
            Record::Event(e) => assert_eq!(e.fields[0].1, Value::I64(2)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn disabled_collector_is_inert() {
        let c = Collector::disabled();
        assert!(!c.is_enabled());
        let mut span = c.span("x");
        assert_eq!(span.id(), None);
        span.field("k", 1i64);
        drop(span);
        c.event("e", vec![]);
        c.counter_add("n", 5);
        assert!(c.records().is_empty());
        assert_eq!(c.metrics(), MetricsSnapshot::default());
        assert!(c.to_jsonl().is_empty());
    }

    #[test]
    fn sim_source_feeds_span_durations() {
        let c = Collector::new();
        let ticks = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(100));
        let t = ticks.clone();
        c.set_sim_source(move || t.load(Ordering::Relaxed));
        let span = c.span("charged");
        ticks.store(350, Ordering::Relaxed);
        drop(span);
        match &c.records()[0] {
            Record::Span(s) => {
                assert_eq!(s.sim_start_us, 100);
                assert_eq!(s.sim_us, 250);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn jsonl_export_parses_back() {
        let c = Collector::new();
        c.event(
            "hello",
            vec![("msg".into(), Value::Str("line1\nline2".into()))],
        );
        c.counter_add("negotiation.messages", 3);
        let records = crate::record::parse_jsonl(&c.to_jsonl()).unwrap();
        assert_eq!(records.len(), 2);
        assert!(matches!(
            &records[1],
            Record::Counter { name, value: 3 } if name == "negotiation.messages"
        ));
    }
}
