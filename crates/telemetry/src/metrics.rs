//! Named counters, gauges and log-bucketed histograms.
//!
//! All handles are cheap `Arc` clones over lock-free atomics: producers
//! resolve a handle once (registry lookup takes a short mutex) and then
//! record without any shared lock. Metric names use the dotted
//! lower-case convention documented in `DESIGN.md` (`pool.steals`,
//! `stage.<stage>.sim_latency_ns`, `opt.<phase>.iterations`, ...).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Number of histogram buckets (6-bit exponent × 2 significant bits).
const BUCKETS: usize = 256;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh, detached counter (not visible to any registry).
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge.
///
/// Only finite values are stored; `set` silently drops NaN/infinities so
/// every exported snapshot stays JSON-serializable.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh, detached gauge (not visible to any registry).
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge to `v` (ignored unless finite).
    pub fn set(&self, v: f64) {
        if v.is_finite() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `delta` to the gauge (ignored unless finite): how several
    /// writers that each add only their own change make the gauge read
    /// the sum of their shares.
    pub fn add(&self, delta: f64) {
        if delta.is_finite() {
            let _ = self
                .bits
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                    Some((f64::from_bits(bits) + delta).to_bits())
                });
        }
    }

    /// Current value (0.0 until first set).
    #[must_use]
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Maps a value to its log bucket: 6 exponent bits × 2 significant bits,
/// so any recorded value lands in a bucket whose floor is within 25% of
/// it (HDR-style, fixed 256-slot layout, no allocation, no saturation).
fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let msb = 63 - u64::from(v.leading_zeros());
        let sub = (v >> (msb - 2)) & 0b11;
        ((msb as usize) << 2) | sub as usize
    }
}

/// Lower bound of bucket `i` (inverse of [`bucket_index`]).
fn bucket_floor(i: usize) -> u64 {
    if i < 8 {
        i as u64
    } else {
        let msb = (i >> 2) as u64;
        let sub = (i & 0b11) as u64;
        (1u64 << msb) | (sub << (msb - 2))
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A log-bucketed histogram of `u64` samples (latencies in ns, sizes,
/// percentages, ...). Recording is lock-free: one bucket increment plus
/// count/sum/min/max updates, all relaxed atomics.
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            core: Arc::new(HistogramCore {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// A fresh, detached histogram (not visible to any registry).
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let core = &self.core;
        core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
        core.min.fetch_min(v, Ordering::Relaxed);
        core.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time summary (exact count/sum/min/max
    /// modulo racing writers; quantiles are bucket floors, i.e. within
    /// 25% below the true value).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &self.core;
        let count = core.count.load(Ordering::Relaxed);
        let min = core.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: core.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: core.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }

    /// The floor of the bucket holding the `q`-quantile sample (0 when
    /// the histogram is empty). Computed from the log-bucket snapshot,
    /// so the answer is within 25% below the true sample.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.bucket_counts(), q)
    }

    /// The occupied log buckets, in ascending value order. Each entry
    /// covers the half-open sample range `[floor, upper)`; empty buckets
    /// are omitted (cumulative consumers — quantiles, Prometheus
    /// exposition — lose nothing by skipping them).
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<BucketCount> {
        self.core
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, bucket)| {
                let count = bucket.load(Ordering::Relaxed);
                (count > 0).then(|| BucketCount {
                    floor: bucket_floor(i),
                    upper: if i + 1 < BUCKETS {
                        bucket_floor(i + 1)
                    } else {
                        u64::MAX
                    },
                    count,
                })
            })
            .collect()
    }

    /// Mean of the recorded samples (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let count = self.core.count.load(Ordering::Relaxed);
        if count == 0 {
            0.0
        } else {
            self.core.sum.load(Ordering::Relaxed) as f64 / count as f64
        }
    }
}

/// One occupied log bucket of a [`Histogram`]: `count` samples fell in
/// the half-open value range `[floor, upper)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Smallest value the bucket can hold.
    pub floor: u64,
    /// Exclusive upper bound (`u64::MAX` for the last bucket).
    pub upper: u64,
    /// Samples recorded into the bucket.
    pub count: u64,
}

/// The `q`-quantile over an ascending bucket snapshot (the floor of the
/// bucket the quantile sample fell in; 0 when the snapshot is empty).
/// This is the same arithmetic [`Histogram::quantile`] runs, exposed so
/// exported bucket data — exposition scrapes, ring samples — can answer
/// quantile queries offline.
#[must_use]
pub fn quantile_from_buckets(buckets: &[BucketCount], q: f64) -> u64 {
    let total: u64 = buckets.iter().map(|b| b.count).sum();
    if total == 0 {
        return 0;
    }
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for b in buckets {
        seen += b.count;
        if seen >= target {
            return b.floor;
        }
    }
    buckets.last().map_or(0, |b| b.floor)
}

/// Serializable summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median (bucket floor).
    pub p50: u64,
    /// 90th percentile (bucket floor).
    pub p90: u64,
    /// 99th percentile (bucket floor).
    pub p99: u64,
}

/// Which kind of instrument produced a [`MetricSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotonic counter; `value` is the count.
    Counter,
    /// Last-write-wins gauge; `value` is the gauge reading.
    Gauge,
    /// Distribution; `value` is the mean, `histogram` has the details.
    Histogram,
}

/// One exported metric: a stable name, its kind, a scalar summary and —
/// for histograms — the full distribution summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSnapshot {
    /// Dotted lower-case metric name.
    pub name: String,
    /// Instrument kind.
    pub kind: MetricKind,
    /// Counter count, gauge value, or histogram mean.
    pub value: f64,
    /// Distribution summary (histograms only).
    pub histogram: Option<HistogramSnapshot>,
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A process-local registry mapping stable names to metric handles.
///
/// Lookup takes a mutex over a `BTreeMap` (so snapshots export in a
/// deterministic name order); recording through a resolved handle is
/// lock-free. A name must keep one kind for the whole run: asking for an
/// existing name with a different kind returns a *detached* handle that
/// records into nothing visible, so producers never panic in the hot
/// path (the mismatch is a programming error caught by tests).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Resolves (creating on first use) the counter named `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::new(),
        }
    }

    /// Resolves (creating on first use) the gauge named `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::new(),
        }
    }

    /// Resolves (creating on first use) the histogram named `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::new(),
        }
    }

    /// Exports every registered metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let metrics = self.metrics.lock();
        metrics
            .iter()
            .map(|(name, metric)| match metric {
                Metric::Counter(c) => MetricSnapshot {
                    name: name.clone(),
                    kind: MetricKind::Counter,
                    value: c.value() as f64,
                    histogram: None,
                },
                Metric::Gauge(g) => MetricSnapshot {
                    name: name.clone(),
                    kind: MetricKind::Gauge,
                    value: g.value(),
                    histogram: None,
                },
                Metric::Histogram(h) => MetricSnapshot {
                    name: name.clone(),
                    kind: MetricKind::Histogram,
                    value: h.mean(),
                    histogram: Some(h.snapshot()),
                },
            })
            .collect()
    }

    /// Like [`MetricsRegistry::snapshot`], but histograms additionally
    /// carry their occupied log buckets — the input the Prometheus
    /// exposition renderer needs for `_bucket` lines. The summary-only
    /// [`MetricSnapshot`] stays untouched because it is part of the
    /// golden-pinned trace schema.
    #[must_use]
    pub fn families(&self) -> Vec<MetricFamily> {
        let metrics = self.metrics.lock();
        metrics
            .iter()
            .map(|(name, metric)| {
                let (snapshot, buckets) = match metric {
                    Metric::Counter(c) => (
                        MetricSnapshot {
                            name: name.clone(),
                            kind: MetricKind::Counter,
                            value: c.value() as f64,
                            histogram: None,
                        },
                        Vec::new(),
                    ),
                    Metric::Gauge(g) => (
                        MetricSnapshot {
                            name: name.clone(),
                            kind: MetricKind::Gauge,
                            value: g.value(),
                            histogram: None,
                        },
                        Vec::new(),
                    ),
                    Metric::Histogram(h) => (
                        MetricSnapshot {
                            name: name.clone(),
                            kind: MetricKind::Histogram,
                            value: h.mean(),
                            histogram: Some(h.snapshot()),
                        },
                        h.bucket_counts(),
                    ),
                };
                MetricFamily { snapshot, buckets }
            })
            .collect()
    }
}

/// One metric with everything the registry knows about it: the summary
/// [`MetricSnapshot`] plus — for histograms — the occupied log buckets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricFamily {
    /// The summary snapshot (same shape the trace exports).
    pub snapshot: MetricSnapshot,
    /// Occupied log buckets, ascending; empty for counters and gauges.
    pub buckets: Vec<BucketCount>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_floor_inverts() {
        let mut last = 0usize;
        for v in [0u64, 1, 2, 3, 7, 8, 9, 15, 16, 100, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= last, "index not monotonic at {v}");
            assert!(i < BUCKETS);
            let floor = bucket_floor(i);
            assert!(floor <= v, "floor {floor} above value {v}");
            // 2 significant bits => floor within 25% below the value.
            assert!(
                v < 8 || (v - floor) * 4 <= v,
                "floor {floor} too far below {v}"
            );
            last = i;
        }
    }

    #[test]
    fn histogram_summary_tracks_samples() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1100);
        assert_eq!(snap.min, 10);
        assert_eq!(snap.max, 1000);
        assert!(snap.p50 <= 30 && snap.p50 >= 20, "p50 = {}", snap.p50);
        assert!(snap.p99 >= 768, "p99 = {}", snap.p99);
        assert!((h.mean() - 220.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_snapshot_is_all_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(
            snap,
            HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p99: 0
            }
        );
    }

    #[test]
    fn registry_shares_handles_by_name_and_sorts_snapshots() {
        let reg = MetricsRegistry::new();
        reg.counter("b.two").add(2);
        reg.counter("b.two").add(3);
        reg.gauge("c.three").set(1.5);
        reg.histogram("a.one").record(7);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a.one", "b.two", "c.three"]);
        assert_eq!(snap[1].value, 5.0);
        assert_eq!(snap[2].value, 1.5);
        assert_eq!(snap[0].histogram.unwrap().count, 1);
    }

    #[test]
    fn kind_mismatch_returns_detached_handle() {
        let reg = MetricsRegistry::new();
        reg.counter("x").add(1);
        let detached = reg.histogram("x");
        detached.record(5);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].kind, MetricKind::Counter);
        assert_eq!(snap[0].value, 1.0);
    }

    #[test]
    fn bucket_counts_cover_every_sample_and_invert_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 3, 10, 20, 30, 40, 1000, 1000] {
            h.record(v);
        }
        let buckets = h.bucket_counts();
        assert_eq!(buckets.iter().map(|b| b.count).sum::<u64>(), 8);
        for w in buckets.windows(2) {
            assert!(w[0].upper <= w[1].floor, "buckets out of order: {w:?}");
        }
        for b in &buckets {
            assert!(b.floor < b.upper);
        }
        // The offline quantile over exported buckets equals the live one.
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(quantile_from_buckets(&buckets, q), h.quantile(q));
        }
        assert_eq!(quantile_from_buckets(&[], 0.5), 0);
        // A value-0 sample lands in a floor-0 bucket and stays there.
        assert_eq!(buckets[0].floor, 0);
        assert_eq!(quantile_from_buckets(&buckets, 0.01), 0);
    }

    #[test]
    fn families_carry_buckets_only_for_histograms() {
        let reg = MetricsRegistry::new();
        reg.counter("a.count").add(4);
        reg.gauge("b.gauge").set(2.0);
        reg.histogram("c.hist").record(100);
        let families = reg.families();
        assert_eq!(families.len(), 3);
        assert!(families[0].buckets.is_empty());
        assert!(families[1].buckets.is_empty());
        assert_eq!(families[2].buckets.iter().map(|b| b.count).sum::<u64>(), 1);
        // families' snapshots agree with the plain snapshot path.
        let snaps: Vec<MetricSnapshot> = families.into_iter().map(|f| f.snapshot).collect();
        assert_eq!(snaps, reg.snapshot());
    }

    #[test]
    fn gauge_ignores_non_finite_values() {
        let g = Gauge::new();
        g.set(2.5);
        g.set(f64::NAN);
        g.set(f64::INFINITY);
        assert_eq!(g.value(), 2.5);
    }
}
