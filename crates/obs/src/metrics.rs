//! Atomic metric primitives and the name-keyed [`Registry`].
//!
//! Counters are sharded across cache-line-padded atomics so concurrent
//! workers (the parallel formation path) never contend on a single word.
//! The registry itself is only locked when a handle is first created;
//! callers clone the handle once and increment lock-free thereafter.
//!
//! Metric primitives always count, whether or not any collector records
//! spans: subsystem stats facades (e.g. the negotiation cache's
//! `CacheStats`) are built on top of them and must stay correct with no
//! collector attached.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Number of independent shards per [`Counter`]. Eight covers the worker
/// counts the formation benches exercise without bloating `get()`.
const COUNTER_SHARDS: usize = 8;

/// One atomic padded out to a cache line so neighbouring shards never
/// false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// Round-robin source for per-thread shard indices.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Lazily-assigned shard index for the current thread. `usize::MAX`
    /// means "not yet assigned".
    static THREAD_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn thread_shard() -> usize {
    THREAD_SHARD.with(|slot| {
        let mut idx = slot.get();
        if idx == usize::MAX {
            idx = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
            slot.set(idx);
        }
        idx
    })
}

/// A monotonically increasing counter, sharded to avoid contention.
///
/// Cloning is cheap (an `Arc` bump) and all clones observe the same
/// value. Increments are a single relaxed `fetch_add` on the calling
/// thread's shard; reads sum all shards.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    shards: Arc<[PaddedU64; COUNTER_SHARDS]>,
}

impl Counter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.shards[thread_shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Returns the current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A signed instantaneous value (e.g. current queue depth).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Creates a gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) to the gauge.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is currently lower — a high-water
    /// mark (e.g. peak queue depth), monotone under concurrent updates.
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Default histogram bucket upper bounds, in microseconds: a 1-2-5
/// exponential series spanning 1 µs .. 10 s, suitable for both store op
/// latencies and whole-negotiation sim durations.
pub const DEFAULT_LATENCY_BOUNDS_US: &[u64] = &[
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
];

#[derive(Debug)]
struct HistogramInner {
    /// Inclusive upper bounds of each bucket, strictly increasing.
    bounds: Box<[u64]>,
    /// `bounds.len() + 1` buckets; the last one catches overflow.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram of `u64` samples (microsecond latencies by
/// convention). Recording is lock-free: a binary search over the bounds
/// plus three relaxed `fetch_add`s.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Creates a histogram with the given inclusive bucket upper bounds.
    /// Bounds must be strictly increasing; an extra overflow bucket is
    /// appended automatically.
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            inner: Arc::new(HistogramInner {
                bounds: bounds.into(),
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let idx = self.inner.bounds.partition_point(|&b| b < v);
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Takes a consistent-enough snapshot of the histogram state.
    ///
    /// Under concurrent recording the bucket totals and `count` may be
    /// momentarily out of step by in-flight samples; with recording
    /// quiesced they agree exactly.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.inner.bounds.to_vec(),
            buckets: self
                .inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of each bucket.
    pub bounds: Vec<u64>,
    /// Per-bucket sample counts; one longer than `bounds` (overflow last).
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

/// Name-keyed store of metric handles.
///
/// `counter`/`gauge`/`histogram` are get-or-create: the first call for a
/// name registers the metric, later calls return a clone of the same
/// handle. Lookups take a read lock only; the write lock is taken once
/// per name, at registration.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it if absent.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().expect("registry lock").get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .expect("registry lock")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the gauge registered under `name`, creating it if absent.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().expect("registry lock").get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .expect("registry lock")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the histogram registered under `name`, creating it with the
    /// given bounds if absent. Bounds are fixed at first registration;
    /// later calls ignore the argument and return the existing handle.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        if let Some(h) = self.histograms.read().expect("registry lock").get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .expect("registry lock")
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// Returns a histogram under `name` with [`DEFAULT_LATENCY_BOUNDS_US`].
    pub fn latency_histogram(&self, name: &str) -> Histogram {
        self.histogram(name, DEFAULT_LATENCY_BOUNDS_US)
    }

    /// Copies out the current value of every registered metric, sorted by
    /// name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .expect("registry lock")
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("registry lock")
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("registry lock")
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of every metric in a [`Registry`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Convenience: the total for `name`, or 0 if never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::new();
        thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8_000);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new(&[10, 100]);
        h.record(3); // bucket 0 (<=10)
        h.record(10); // bucket 0 (inclusive bound)
        h.record(50); // bucket 1 (<=100)
        h.record(1_000); // overflow bucket
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![2, 1, 1]);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 1_063);
    }

    #[test]
    fn registry_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(r.counter("x").get(), 5);
        assert_eq!(r.snapshot().counter("x"), 5);
    }

    #[test]
    fn histogram_bounds_fixed_at_registration() {
        let r = Registry::new();
        let a = r.histogram("lat", &[1, 2, 3]);
        let b = r.histogram("lat", &[99]);
        a.record(2);
        assert_eq!(b.snapshot().bounds, vec![1, 2, 3]);
        assert_eq!(b.count(), 1);
    }
}
