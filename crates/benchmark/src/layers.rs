//! The traced run's layer split: program spans and metrics (exported
//! through [`Telemetry`](ascdg_core::Telemetry)) read against the spans
//! the benchmark records around its own calls.
//!
//! Times and counts are per timed round; ratios are over the whole timed
//! part. Program spans are kept when they start inside the timed part, so
//! set-up work never leaks into a layer.

use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Content, Serialize};

use ascdg_telemetry::{MetricSnapshot, SpanRecord, TraceRecord};

use crate::report::{Json, Measured};
use crate::spans::{split, Interval, Union};
use crate::spec::STAGES;
use crate::stats::median;
use crate::workloads::BenchSpan;

/// Units whose chunk cost the traced run reports separately.
const UNITS: [&str; 3] = ["io_unit", "l3cache", "ifu"];

/// What the layer split reads.
#[derive(Debug)]
pub struct LayerInput<'a> {
    /// The program's exported trace (spans, events, metric trailers).
    pub records: &'a [TraceRecord],
    /// The benchmark's own spans.
    pub bench: &'a [BenchSpan],
    /// The timed part, in seconds since the trace epoch.
    pub window: Interval,
    /// Timed rounds.
    pub rounds: u64,
    /// Summed round wall time.
    pub timed_s: f64,
    /// Metric registry at the start of the timed part.
    pub before: &'a [MetricSnapshot],
    /// Metric registry at its end.
    pub after: &'a [MetricSnapshot],
    /// Serve state-directory growth over the timed part.
    pub checkpoint_bytes: u64,
}

fn interval(s: &SpanRecord) -> Interval {
    let start = s.start_us as f64 / 1e6;
    Interval::new(start, start + s.dur_us as f64 / 1e6)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn metric<'a>(snap: &'a [MetricSnapshot], name: &str) -> Option<&'a MetricSnapshot> {
    snap.iter().find(|m| m.name == name)
}

impl LayerInput<'_> {
    /// Program spans of `kind` that start inside the timed part.
    fn program_spans(&self, kind: &str) -> Vec<&SpanRecord> {
        self.records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Span(s) if s.kind == kind => Some(s),
                _ => None,
            })
            .filter(|s| {
                let t = interval(s).start;
                t >= self.window.start && t <= self.window.end
            })
            .collect()
    }

    fn bench_spans<'s>(&'s self, kind: &'s str) -> impl Iterator<Item = &'s BenchSpan> + 's {
        self.bench.iter().filter(move |s| s.kind == kind)
    }

    /// A counter's movement over the timed part.
    fn counter(&self, name: &str) -> f64 {
        let at = |snap| metric(snap, name).map_or(0.0, |m| m.value);
        at(self.after) - at(self.before)
    }

    /// Count and sum movement of every histogram whose name satisfies
    /// `pick`.
    fn histograms(&self, pick: impl Fn(&str) -> bool) -> (f64, f64) {
        let mut count = 0.0;
        let mut sum = 0.0;
        for m in self.after.iter().filter(|m| pick(&m.name)) {
            let (Some(after), before) = (
                m.histogram,
                metric(self.before, &m.name).and_then(|b| b.histogram),
            ) else {
                continue;
            };
            let (c0, s0) = before.map_or((0, 0), |b| (b.count, b.sum));
            count += (after.count - c0) as f64;
            sum += (after.sum - s0) as f64;
        }
        (count, sum)
    }

    /// Where stage `name` ran: the benchmark's `step` spans when it
    /// stepped the engine itself, the program's `stage` spans otherwise
    /// (campaign and serve, whose scheduler steps the sessions).
    fn stage_windows(&self, name: &str) -> Vec<Interval> {
        if self.bench_spans("step").next().is_some() {
            return self
                .bench_spans("step")
                .filter(|s| s.name == name)
                .map(BenchSpan::interval)
                .collect();
        }
        self.program_spans("stage")
            .into_iter()
            .filter(|s| s.name == name)
            .map(interval)
            .collect()
    }
}

/// Computes every per-layer metric except `trace.overhead_pct`, which
/// needs the untraced run too.
#[must_use]
pub fn per_layer(input: &LayerInput<'_>) -> Vec<Measured> {
    let rounds = input.rounds.max(1) as f64;
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64| {
        out.push(Measured {
            name: name.to_owned(),
            // An empty float sum is -0.0; report it as 0.
            value: value + 0.0,
        });
    };

    let chunks = input.program_spans("chunk");
    let chunk_intervals: Vec<Interval> = chunks.iter().map(|s| interval(s)).collect();
    let chunk_union = Union::of(&chunk_intervals);
    let mut stage_wall = 0.0;
    for stage in STAGES {
        let parts = split(&input.stage_windows(stage), &chunk_union);
        stage_wall += parts.wall_s;
        put(&format!("stage.{stage}.wall_s"), parts.wall_s / rounds);
        put(&format!("stage.{stage}.host_s"), parts.self_s / rounds);
    }

    let chunk_ns: f64 = chunks.iter().map(|s| s.dur_us as f64 * 1e3).sum();
    let chunk_sims: f64 = chunks.iter().map(|s| s.sims as f64).sum();
    put("batch.chunk_ns_per_sim", ratio(chunk_ns, chunk_sims));
    // A chunk belongs to the operation whose window it starts in; with
    // concurrent operations (serve) there is no single owner.
    let mut ops: Vec<&BenchSpan> = input.bench_spans("op").collect();
    ops.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
    let disjoint = ops.windows(2).all(|w| w[0].end_s <= w[1].start_s);
    for unit in UNITS {
        let (mut ns, mut sims) = (0.0, 0.0);
        if disjoint {
            for c in &chunks {
                let t = interval(c).start;
                let i = ops.partition_point(|o| o.start_s <= t);
                if i > 0 && ops[i - 1].name == unit && t <= ops[i - 1].end_s {
                    ns += c.dur_us as f64 * 1e3;
                    sims += c.sims as f64;
                }
            }
        }
        put(&format!("batch.{unit}.chunk_ns_per_sim"), ratio(ns, sims));
    }
    put(
        "batch.sims_per_chunk",
        ratio(chunk_sims, chunks.len() as f64),
    );
    put("pool.chunks_in_flight", ratio(chunk_ns / 1e9, stage_wall));
    put(
        "pool.jobs_dispatched",
        input.counter("pool.jobs_dispatched") / rounds,
    );
    put("pool.steals", input.counter("pool.steals") / rounds);

    let (merges, merge_ns) =
        input.histograms(|n| n.starts_with("stage.") && n.ends_with(".merge_ns"));
    put("coverage.merges", merges / rounds);
    put("coverage.merge_s", merge_ns / 1e9 / rounds);

    let objective: Vec<Interval> = input
        .program_spans("objective")
        .into_iter()
        .map(interval)
        .collect();
    put("objective.evals", input.counter("objective.evals") / rounds);
    put(
        "objective.eval_s",
        objective.iter().map(Interval::len).sum::<f64>() / rounds,
    );
    let optimize = split(&input.stage_windows("optimize"), &Union::of(&objective));
    put("opt.host_s", optimize.self_s / rounds);

    let fused = input.counter("batch.fused_chunks");
    put("batch.fused_chunks", fused / rounds);
    let occupancy = metric(input.after, "batch.fusion_occupancy_pct").map_or(0.0, |m| m.value);
    put(
        "batch.fusion_occupancy_pct",
        if fused > 0.0 { occupancy } else { 0.0 },
    );

    let stage_span_s: f64 = input
        .program_spans("stage")
        .into_iter()
        .map(|s| interval(s).len())
        .sum();
    put("scheduler.overlap", ratio(stage_span_s, input.timed_s));

    let lengths = |kind| {
        input
            .bench_spans(kind)
            .map(|s| s.end_s - s.start_s)
            .collect::<Vec<f64>>()
    };
    put("serve.admit_p50_s", median(&lengths("admitted")));
    put("serve.run_p50_s", median(&lengths("running")));
    put(
        "checkpoint.bytes_per_request",
        ratio(input.checkpoint_bytes as f64, ops.len() as f64),
    );
    out
}

fn tagged(tag: &str, value: &impl Serialize) -> String {
    let line = Json(Content::Map(vec![(tag.to_owned(), value.serialize())]));
    serde_json::to_string(&line).expect("trace values are finite")
}

/// The trace file of a workload: `<dir>/trace-<workload>.jsonl`.
#[must_use]
pub fn trace_path(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("trace-{workload}.jsonl"))
}

/// One `{"Layer": {"name": .., "value": ..}}` trace line.
#[must_use]
pub fn layer_line(m: &Measured) -> String {
    tagged("Layer", m)
}

/// Writes the workload's trace: one `{"Bench": ..}` line per benchmark
/// span, the program's exported trace in its own JSONL format (`Meta`,
/// `Span`, `Event`, `OptIter` and `Metric` lines), then one
/// `{"Layer": ..}` line per per-layer metric.
///
/// # Errors
///
/// File creation or write failure.
pub fn write_trace(
    dir: &Path,
    workload: &str,
    input: &LayerInput<'_>,
    per_layer: &[Measured],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = trace_path(dir, workload);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for span in input.bench {
        writeln!(out, "{}", tagged("Bench", span))?;
    }
    for record in input.records {
        writeln!(
            out,
            "{}",
            serde_json::to_string(record).map_err(std::io::Error::other)?
        )?;
    }
    for m in per_layer {
        writeln!(out, "{}", layer_line(m))?;
    }
    out.flush()?;
    Ok(path)
}
