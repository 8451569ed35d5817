//! Unified telemetry for the AS-CDG flow.
//!
//! One [`Telemetry`] handle carries all three observability surfaces the
//! flow previously spread across ad-hoc types:
//!
//! - a **span tracer**: parent-linked [`SpanRecord`]s with wall-clock and
//!   simulation-count attribution, covering the flow, its stages, pool
//!   chunk execution and objective evaluations;
//! - a **metrics registry**: named [`Counter`]s, [`Gauge`]s and
//!   log-bucketed [`Histogram`]s ([`MetricsRegistry`]);
//! - **exporters**: a JSONL trace ([`write_jsonl`], [`render_trace`]) and
//!   run-manifest provenance ([`Provenance`]);
//! - **live introspection**: Prometheus text exposition
//!   ([`render_exposition`]), snapshot-rate diffing ([`DeltaTracker`])
//!   and a bounded periodic-snapshot ring ([`SnapshotRing`]) — the
//!   read-only plane the serve daemon's HTTP endpoints are built on.
//!
//! The handle is a cheap `Arc` clone and thread-safe. A *disabled* handle
//! (the default) is a `None` — every instrumentation call short-circuits
//! on one branch with no allocation, keeping the simulation hot path
//! unaffected; the bench harness guards this with an overhead probe.
//! Telemetry is purely observational: enabling it never changes flow
//! outcomes (byte-identity is asserted in CI at several thread counts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod introspect;
mod metrics;
mod provenance;
mod trace;

pub use introspect::{
    exposition_name, render_exposition, DeltaTracker, RateSample, RingSample, SnapshotRing,
};
pub use metrics::{
    quantile_from_buckets, BucketCount, Counter, Gauge, Histogram, HistogramSnapshot, MetricFamily,
    MetricKind, MetricSnapshot, MetricsRegistry,
};
pub use provenance::{detect_git_commit, Provenance};
pub use trace::{
    check_span_accounting, parse_jsonl, render_trace, write_jsonl, EventRecord, OptIterRecord,
    SpanRecord, TraceMeta, TraceRecord, TRACE_SCHEMA_VERSION,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

/// Per-stage metric handles, pre-resolved once per stage so hot-path
/// producers (chunk workers) record without touching the registry.
///
/// Metric names: `stage.<stage>.sim_latency_ns` (per-simulation latency
/// of each chunk, ns), `stage.<stage>.chunk_sims` (simulations per
/// dispatched chunk) and `stage.<stage>.merge_ns` (latency of a recorded
/// run's one repository merge on the submitting thread, ns).
#[derive(Clone, Debug)]
pub struct StageMetrics {
    /// Per-simulation latency within a chunk, in nanoseconds.
    pub sim_latency_ns: Histogram,
    /// Simulations per executed chunk.
    pub chunk_sims: Histogram,
    /// Latency of each recorded run's one coverage-repository merge, in
    /// nanoseconds.
    pub merge_ns: Histogram,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    next_span: AtomicU64,
    records: Mutex<Vec<TraceRecord>>,
    metrics: MetricsRegistry,
}

/// The shared telemetry handle threaded through the flow.
///
/// Cloning shares the same tracer and registry. A handle also carries
/// its *scope*: the span its spans parent-link to (see
/// [`Span::telemetry`]) and the stage metrics its chunks record into
/// (see [`Telemetry::for_stage`]). The scope is a value of the handle,
/// never process-wide, so concurrent sessions sharing one tracer each
/// keep their own span tree. The [`Default`] handle is disabled: all
/// recording methods are no-ops behind one `Option` branch.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    /// Span id new spans parent-link to (0 = none).
    parent: u64,
    stage: Option<Arc<StageMetrics>>,
}

impl Telemetry {
    /// A disabled handle: every instrumentation call is a no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// A live handle with a fresh tracer and registry; "now" becomes the
    /// epoch all span timestamps are relative to.
    #[must_use]
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
                records: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::new(),
            })),
            ..Telemetry::default()
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The metrics registry, when enabled.
    #[must_use]
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.inner.as_ref().map(|i| &i.metrics)
    }

    /// `Instant::now()` when enabled, `None` otherwise — the zero-cost
    /// pattern for timing a section only under telemetry:
    /// `let t0 = telemetry.timed(); ...; telemetry.closed_span(.., t0, ..)`.
    #[must_use]
    pub fn timed(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    fn now_us(inner: &Inner) -> u64 {
        inner.epoch.elapsed().as_micros() as u64
    }

    /// Records a span parented to this handle's span, from `start` to now.
    fn record_span(&self, id: u64, kind: &str, name: String, start: Instant, sims: u64) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let record = TraceRecord::Span(SpanRecord {
            id,
            parent: Some(self.parent).filter(|&p| p != 0),
            kind: kind.to_owned(),
            name,
            start_us: start
                .checked_duration_since(inner.epoch)
                .map_or(0, |d| d.as_micros() as u64),
            dur_us: start.elapsed().as_micros() as u64,
            sims,
        });
        inner.records.lock().push(record);
    }

    /// Records an already-finished span that started at `start` (from
    /// [`Telemetry::timed`]), parented to this handle's span. No-op when
    /// disabled or `start` is `None`.
    pub fn closed_span(&self, kind: &str, name: &str, start: Option<Instant>, sims: u64) {
        let (Some(inner), Some(start)) = (self.inner.as_deref(), start) else {
            return;
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        self.record_span(id, kind, name.to_owned(), start, sims);
    }

    /// Opens a span parented to this handle's span; it is recorded when
    /// finished or dropped. Spans recorded through its
    /// [`Span::telemetry`] handle parent-link to it.
    #[must_use]
    pub fn scope_span(&self, kind: &'static str, name: &str) -> Span {
        let (id, name) = match self.inner.as_deref() {
            Some(inner) => (inner.next_span.fetch_add(1, Ordering::Relaxed), name),
            None => (0, ""),
        };
        Span {
            telemetry: self.clone(),
            id,
            kind,
            name: name.to_owned(),
            start: Instant::now(),
            sims: 0,
        }
    }

    /// This handle with the pre-resolved per-stage metric handles for
    /// `stage` (see [`StageMetrics`] for the naming convention). Handles
    /// for the same stage name share their histograms.
    #[must_use]
    pub fn for_stage(&self, stage: &str) -> Telemetry {
        let stage = self.metrics().map(|m| {
            Arc::new(StageMetrics {
                sim_latency_ns: m.histogram(&format!("stage.{stage}.sim_latency_ns")),
                chunk_sims: m.histogram(&format!("stage.{stage}.chunk_sims")),
                merge_ns: m.histogram(&format!("stage.{stage}.merge_ns")),
            })
        });
        Telemetry {
            stage,
            ..self.clone()
        }
    }

    /// The per-stage handles this handle carries, if any.
    #[must_use]
    pub fn stage_metrics(&self) -> Option<&StageMetrics> {
        self.stage.as_deref()
    }

    /// Mirrors a structured flow event into the trace.
    pub fn event(&self, name: &str, detail: &str) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let record = TraceRecord::Event(EventRecord {
            at_us: Self::now_us(inner),
            name: name.to_owned(),
            detail: detail.to_owned(),
        });
        inner.records.lock().push(record);
    }

    /// Records one optimizer iteration (non-finite floats are dropped so
    /// the export stays JSON-serializable).
    pub fn opt_iter(
        &self,
        phase: &str,
        iter: u64,
        step: f64,
        iter_best: f64,
        running_best: f64,
        evals: u64,
    ) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        if !step.is_finite() || !iter_best.is_finite() || !running_best.is_finite() {
            return;
        }
        let record = TraceRecord::OptIter(OptIterRecord {
            at_us: Self::now_us(inner),
            phase: phase.to_owned(),
            iter,
            step,
            iter_best,
            running_best,
            evals,
        });
        inner.records.lock().push(record);
    }

    /// Exports the full trace: a `Meta` line, every span/event/opt-iter
    /// in recorded order, then one `Metric` trailer per registered
    /// metric. Empty when disabled.
    #[must_use]
    pub fn export_trace(&self, unit: &str, seed: u64) -> Vec<TraceRecord> {
        let Some(inner) = self.inner.as_deref() else {
            return Vec::new();
        };
        let mut out = vec![TraceRecord::Meta(TraceMeta {
            schema: TRACE_SCHEMA_VERSION,
            unit: unit.to_owned(),
            seed,
        })];
        out.extend(inner.records.lock().iter().cloned());
        out.extend(
            inner
                .metrics
                .snapshot()
                .into_iter()
                .map(TraceRecord::Metric),
        );
        out
    }
}

/// Guard for an open span (see [`Telemetry::scope_span`]), recorded
/// when finished or dropped.
#[derive(Debug)]
pub struct Span {
    /// The handle the span was opened from: its scope is the span's.
    telemetry: Telemetry,
    id: u64,
    kind: &'static str,
    name: String,
    start: Instant,
    sims: u64,
}

impl Span {
    /// This span's id (0 for inert spans from a disabled handle).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// A handle whose spans parent-link to this span, carrying the same
    /// stage metrics as the handle the span was opened from.
    #[must_use]
    pub fn telemetry(&self) -> Telemetry {
        Telemetry {
            parent: self.id,
            ..self.telemetry.clone()
        }
    }

    /// Attributes `sims` simulations and closes the span.
    pub fn finish(mut self, sims: u64) {
        self.sims = sims;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let name = std::mem::take(&mut self.name);
        self.telemetry
            .record_span(self.id, self.kind, name, self.start, self.sims);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(t.timed().is_none());
        t.closed_span("chunk", "", t.timed(), 10);
        t.event("StageStarted", "{}");
        t.opt_iter("optimize", 0, 0.1, 1.0, 1.0, 5);
        let span = t.scope_span("stage", "regression");
        span.finish(100);
        assert!(t.export_trace("u", 1).is_empty());
        assert!(t.metrics().is_none());
        assert!(t.stage_metrics().is_none());
    }

    fn spans_of(trace: &[TraceRecord]) -> Vec<&SpanRecord> {
        trace
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Span(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn spans_nest_and_restore_parents() {
        let t = Telemetry::enabled();
        let flow = t.scope_span("flow", "u");
        let flow_id = flow.id();
        let in_flow = flow.telemetry();
        let stage = in_flow
            .for_stage("regression")
            .scope_span("stage", "regression");
        let stage_id = stage.id();
        let in_stage = stage.telemetry();
        in_stage.closed_span("chunk", "", in_stage.timed(), 25);
        stage.finish(25);
        // After the stage, the flow's handle still parents to the flow.
        in_flow.closed_span("objective", "eval", in_flow.timed(), 5);
        flow.finish(30);

        let trace = t.export_trace("u", 7);
        let spans = spans_of(&trace);
        assert_eq!(spans.len(), 4);
        let chunk = spans.iter().find(|s| s.kind == "chunk").unwrap();
        assert_eq!(chunk.parent, Some(stage_id));
        assert_eq!(chunk.sims, 25);
        let objective = spans.iter().find(|s| s.kind == "objective").unwrap();
        assert_eq!(objective.parent, Some(flow_id));
        let stage = spans.iter().find(|s| s.kind == "stage").unwrap();
        assert_eq!(stage.parent, Some(flow_id));
        assert_eq!(stage.sims, 25);
        let flow = spans.iter().find(|s| s.kind == "flow").unwrap();
        assert_eq!(flow.parent, None);
        assert!(matches!(trace[0], TraceRecord::Meta(_)));
    }

    #[test]
    fn overlapping_spans_keep_their_own_children() {
        // Two sessions' stages open and close out of LIFO order on one
        // tracer; each chunk still parents to its own stage.
        let t = Telemetry::enabled();
        let a = t.scope_span("stage", "a");
        let b = t.scope_span("stage", "b");
        let (in_a, in_b) = (a.telemetry(), b.telemetry());
        a.finish(0);
        in_b.closed_span("chunk", "b", in_b.timed(), 2);
        in_a.closed_span("chunk", "a", in_a.timed(), 1);
        b.finish(0);
        let trace = t.export_trace("u", 1);
        let spans = spans_of(&trace);
        for name in ["a", "b"] {
            let stage = spans.iter().find(|s| s.kind == "stage" && s.name == name);
            let chunk = spans.iter().find(|s| s.kind == "chunk" && s.name == name);
            assert_eq!(chunk.unwrap().parent, Some(stage.unwrap().id), "{name}");
            assert_eq!(stage.unwrap().parent, None);
        }
    }

    #[test]
    fn stage_metrics_are_shared_per_name() {
        let t = Telemetry::enabled();
        assert!(t.stage_metrics().is_none());
        let first = t.for_stage("regression");
        first.stage_metrics().unwrap().chunk_sims.record(100);
        // A second handle for the same stage resolves the same histograms.
        let second = t.for_stage("regression");
        assert_eq!(second.stage_metrics().unwrap().chunk_sims.count(), 1);
        // Spans opened under a stage hand its metrics to their children.
        let span = second.scope_span("stage", "regression");
        assert_eq!(
            span.telemetry().stage_metrics().unwrap().chunk_sims.count(),
            1
        );
        assert!(t.stage_metrics().is_none());
        let snap = t.metrics().unwrap().snapshot();
        assert!(snap
            .iter()
            .any(|m| m.name == "stage.regression.chunk_sims" && m.value == 100.0));
    }

    #[test]
    fn export_appends_metric_trailers_and_opt_iters() {
        let t = Telemetry::enabled();
        t.metrics().unwrap().counter("objective.evals").add(3);
        t.opt_iter("optimize", 1, 0.25, 0.5, 0.5, 21);
        t.opt_iter("optimize", 2, f64::NAN, 0.5, 0.5, 42);
        let trace = t.export_trace("io_unit", 2021);
        let metrics: Vec<_> = trace
            .iter()
            .filter(|r| matches!(r, TraceRecord::Metric(_)))
            .collect();
        assert_eq!(metrics.len(), 1);
        let iters: Vec<_> = trace
            .iter()
            .filter(|r| matches!(r, TraceRecord::OptIter(_)))
            .collect();
        assert_eq!(iters.len(), 1, "NaN iteration must be dropped");
        // The whole export must be JSONL-serializable.
        let text = write_jsonl(&trace).unwrap();
        assert_eq!(parse_jsonl(&text).unwrap(), trace);
    }
}
