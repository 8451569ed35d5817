//! Live-introspection primitives over the metrics registry: Prometheus
//! text exposition, snapshot-to-snapshot rate tracking, and a bounded
//! in-memory ring of periodic snapshots.
//!
//! Everything here is read-only over [`MetricsRegistry`] exports, so a
//! consumer (the serve daemon's HTTP plane, a test harness) can poll as
//! often as it likes without perturbing the flow: the byte-identity
//! guarantee holds with introspection enabled.

use std::collections::{BTreeMap, VecDeque};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::metrics::{MetricFamily, MetricKind, MetricSnapshot};

/// Maps a dotted registry name to its Prometheus exposition name:
/// `ascdg_` plus the name with every character outside `[a-zA-Z0-9_]`
/// replaced by `_`. The mapping is stable — a registry name never
/// changes its exposition name across releases (see OBSERVABILITY.md).
#[must_use]
pub fn exposition_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("ascdg_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    out
}

/// Renders metric families as Prometheus text exposition (format 0.0.4):
/// one `# TYPE` line per family, plain samples for counters and gauges,
/// and cumulative `_bucket{le="..."}`/`_sum`/`_count` lines for
/// histograms. An `ascdg_up 1` gauge always leads, so a scrape of an
/// idle registry is still non-empty.
///
/// Bucket `le` bounds are exact for the integer samples the registry
/// records: a log bucket covering `[floor, upper)` contributes
/// `le="upper - 1"`; the final cumulative line is `le="+Inf"`.
#[must_use]
pub fn render_exposition(families: &[MetricFamily]) -> String {
    let mut out = String::new();
    out.push_str("# TYPE ascdg_up gauge\nascdg_up 1\n");
    for family in families {
        let snap = &family.snapshot;
        let name = exposition_name(&snap.name);
        match snap.kind {
            MetricKind::Counter => {
                out.push_str(&format!("# TYPE {name} counter\n"));
                out.push_str(&format!("{name} {}\n", snap.value as u64));
            }
            MetricKind::Gauge => {
                out.push_str(&format!("# TYPE {name} gauge\n"));
                out.push_str(&format!("{name} {}\n", snap.value));
            }
            MetricKind::Histogram => {
                let hist = snap.histogram.unwrap_or(crate::HistogramSnapshot {
                    count: 0,
                    sum: 0,
                    min: 0,
                    max: 0,
                    p50: 0,
                    p90: 0,
                    p99: 0,
                });
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let mut cumulative = 0u64;
                for bucket in &family.buckets {
                    cumulative += bucket.count;
                    if bucket.upper == u64::MAX {
                        // The top bucket's bound is the +Inf line below.
                        continue;
                    }
                    out.push_str(&format!(
                        "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                        bucket.upper - 1
                    ));
                }
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", hist.count));
                out.push_str(&format!("{name}_sum {}\n", hist.sum));
                out.push_str(&format!("{name}_count {}\n", hist.count));
            }
        }
    }
    out
}

/// One monotonic series' movement between two snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateSample {
    /// Registry name of the series (histograms get a `.count` suffix).
    pub name: String,
    /// Increase since the previous snapshot (0 if it went backwards,
    /// e.g. across a registry swap).
    pub delta: u64,
    /// `delta` divided by the elapsed wall-clock seconds.
    pub per_sec: f64,
}

/// Diffs successive registry snapshots into rates.
///
/// Counters and histogram sample counts are monotonic, so their
/// first differences are meaningful rates — serve's sims/s per tenant
/// class (`serve.tenant_sims.*`), objective evaluations/s
/// (`objective.evals`), and recorded sims/s and merges/s
/// (`batch.sims_recorded`, `batch.repo_merges`), which move while a
/// traced regression runs (every served request's is traced). Gauges
/// are skipped (their current value *is* the observation). The first
/// feed seeds the baseline and returns no samples.
#[derive(Debug, Default)]
pub struct DeltaTracker {
    prev_at_ms: Option<u64>,
    prev: BTreeMap<String, u64>,
}

impl DeltaTracker {
    /// A tracker with no baseline yet.
    #[must_use]
    pub fn new() -> Self {
        DeltaTracker::default()
    }

    /// Feeds one snapshot taken `at_ms` milliseconds after an arbitrary
    /// fixed epoch and returns the per-series rates since the previous
    /// feed, sorted by name. An explicit timestamp (rather than an
    /// internal clock) keeps the arithmetic testable and lets callers
    /// replay ring samples through a fresh tracker.
    pub fn observe(&mut self, at_ms: u64, snapshot: &[MetricSnapshot]) -> Vec<RateSample> {
        let mut current: BTreeMap<String, u64> = BTreeMap::new();
        for metric in snapshot {
            match metric.kind {
                MetricKind::Counter => {
                    current.insert(metric.name.clone(), metric.value as u64);
                }
                MetricKind::Histogram => {
                    let count = metric.histogram.map_or(0, |h| h.count);
                    current.insert(format!("{}.count", metric.name), count);
                }
                MetricKind::Gauge => {}
            }
        }
        let rates = match self.prev_at_ms {
            Some(prev_at_ms) if at_ms > prev_at_ms => {
                let elapsed_s = (at_ms - prev_at_ms) as f64 / 1000.0;
                current
                    .iter()
                    .map(|(name, &value)| {
                        let before = self.prev.get(name).copied().unwrap_or(0);
                        let delta = value.saturating_sub(before);
                        RateSample {
                            name: name.clone(),
                            delta,
                            per_sec: delta as f64 / elapsed_s,
                        }
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        self.prev_at_ms = Some(at_ms);
        self.prev = current;
        rates
    }
}

/// One periodic sample held by a [`SnapshotRing`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RingSample {
    /// Monotonic sample number (never reused, survives eviction).
    pub seq: u64,
    /// Milliseconds since the sampler's epoch.
    pub at_ms: u64,
    /// The registry snapshot at that moment.
    pub metrics: Vec<MetricSnapshot>,
}

struct RingInner {
    next_seq: u64,
    samples: VecDeque<RingSample>,
}

/// A bounded, thread-safe ring of periodic registry snapshots.
///
/// A background sampler pushes one snapshot per tick; the ring keeps the
/// newest `capacity` of them so short-lived spikes (queue depth, pool
/// occupancy, per-class tenant sims) stay visible after the fact.
/// Memory is bounded by construction — pushing past capacity evicts the
/// oldest sample.
pub struct SnapshotRing {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl SnapshotRing {
    /// An empty ring holding at most `capacity` samples (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SnapshotRing {
            capacity,
            inner: Mutex::new(RingInner {
                next_seq: 0,
                samples: VecDeque::with_capacity(capacity),
            }),
        }
    }

    /// Maximum samples the ring retains.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().samples.len()
    }

    /// Whether no sample has been pushed yet (or all were evicted —
    /// impossible, eviction only happens on push).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a snapshot, evicting the oldest sample when full, and
    /// returns the new sample's sequence number.
    pub fn push(&self, at_ms: u64, metrics: Vec<MetricSnapshot>) -> u64 {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.samples.len() == self.capacity {
            inner.samples.pop_front();
        }
        inner.samples.push_back(RingSample {
            seq,
            at_ms,
            metrics,
        });
        seq
    }

    /// The newest sample, if any.
    #[must_use]
    pub fn latest(&self) -> Option<RingSample> {
        self.inner.lock().samples.back().cloned()
    }

    /// Every retained sample, oldest first.
    #[must_use]
    pub fn samples(&self) -> Vec<RingSample> {
        self.inner.lock().samples.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn exposition_names_are_stable_mangles() {
        assert_eq!(exposition_name("pool.steals"), "ascdg_pool_steals");
        assert_eq!(
            exposition_name("stage.coarse-search.sim_latency_ns"),
            "ascdg_stage_coarse_search_sim_latency_ns"
        );
        assert_eq!(
            exposition_name("campaign.ready_queue_depth.batch"),
            "ascdg_campaign_ready_queue_depth_batch"
        );
    }

    #[test]
    fn exposition_renders_all_three_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("serve.requests_total").add(3);
        reg.gauge("campaign.pool_occupancy").set(2.5);
        let h = reg.histogram("stage.regression.sim_latency_ns");
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }
        let text = render_exposition(&reg.families());
        assert!(text.starts_with("# TYPE ascdg_up gauge\nascdg_up 1\n"));
        assert!(text.contains("# TYPE ascdg_serve_requests_total counter\n"));
        assert!(text.contains("ascdg_serve_requests_total 3\n"));
        assert!(text.contains("ascdg_campaign_pool_occupancy 2.5\n"));
        assert!(text.contains("# TYPE ascdg_stage_regression_sim_latency_ns histogram\n"));
        assert!(text.contains("ascdg_stage_regression_sim_latency_ns_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("ascdg_stage_regression_sim_latency_ns_sum 1060\n"));
        assert!(text.contains("ascdg_stage_regression_sim_latency_ns_count 4\n"));
        // Bucket lines are cumulative and end at the total count.
        let cumulative: Vec<u64> = text
            .lines()
            .filter(|l| l.contains("_bucket{le=") && !l.contains("+Inf"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!cumulative.is_empty());
        assert!(cumulative.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*cumulative.last().unwrap(), 4);
        // Every line is exposition-shaped: comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.split(' ').count() == 2,
                "bad exposition line: {line}"
            );
        }
    }

    #[test]
    fn delta_tracker_turns_counter_steps_into_rates() {
        let reg = MetricsRegistry::new();
        let sims = reg.counter("batch.sims_recorded");
        let lat = reg.histogram("stage.regression.sim_latency_ns");
        reg.gauge("campaign.pool_occupancy").set(4.0);
        let mut tracker = DeltaTracker::new();
        sims.add(100);
        lat.record(5);
        assert!(
            tracker.observe(1000, &reg.snapshot()).is_empty(),
            "first feed only seeds the baseline"
        );
        sims.add(50);
        lat.record(5);
        lat.record(7);
        let rates = tracker.observe(3000, &reg.snapshot());
        let by_name = |n: &str| rates.iter().find(|r| r.name == n).unwrap();
        assert_eq!(by_name("batch.sims_recorded").delta, 50);
        assert!((by_name("batch.sims_recorded").per_sec - 25.0).abs() < 1e-9);
        assert_eq!(by_name("stage.regression.sim_latency_ns.count").delta, 2);
        assert!(rates.iter().all(|r| r.name != "campaign.pool_occupancy"));
        // Equal timestamps produce no rates but still advance the baseline.
        sims.add(10);
        assert!(tracker.observe(3000, &reg.snapshot()).is_empty());
        let rates = tracker.observe(4000, &reg.snapshot());
        assert_eq!(by_name("batch.sims_recorded").delta, 50, "old vec intact");
        assert_eq!(
            rates.iter().find(|r| r.name == "batch.sims_recorded"),
            Some(&RateSample {
                name: "batch.sims_recorded".to_owned(),
                delta: 0,
                per_sec: 0.0
            })
        );
    }

    #[test]
    fn snapshot_ring_is_bounded_and_keeps_newest() {
        let ring = SnapshotRing::new(3);
        assert!(ring.is_empty());
        assert_eq!(ring.capacity(), 3);
        for i in 0..5u64 {
            let seq = ring.push(i * 100, Vec::new());
            assert_eq!(seq, i);
        }
        assert_eq!(ring.len(), 3);
        let samples = ring.samples();
        assert_eq!(
            samples.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(ring.latest().unwrap().seq, 4);
    }
}
