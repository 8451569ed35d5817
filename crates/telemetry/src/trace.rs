//! The JSONL trace schema and its writer/parser/renderer.
//!
//! A trace is a flat list of [`TraceRecord`]s, exported one JSON object
//! per line. Every line is externally tagged with its record kind —
//! `{"Span": {...}}`, `{"Event": {...}}`, ... — so consumers can stream
//! it line by line without holding the file in memory. The field names
//! and types of each kind are pinned by a golden test; bump
//! [`TRACE_SCHEMA_VERSION`] when changing them.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::metrics::{MetricKind, MetricSnapshot};

/// Version stamp of the JSONL trace schema (the `Meta` line carries it).
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// First line of every trace: schema version plus run identity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// [`TRACE_SCHEMA_VERSION`] at export time.
    pub schema: u32,
    /// Unit (coverage model) the run targeted.
    pub unit: String,
    /// Session seed of the run.
    pub seed: u64,
}

/// One finished span of the parent-linked span tree.
///
/// `start_us`/`dur_us` are microseconds relative to telemetry creation;
/// `sims` attributes the simulations run under the span (0 for
/// analysis-only spans).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Unique span id (> 0, allocation order).
    pub id: u64,
    /// Enclosing span id, `None` for roots.
    pub parent: Option<u64>,
    /// Span kind: `flow`, `stage`, `chunk`, `objective`, ...
    pub kind: String,
    /// Human label (stage name, unit name; may be empty for hot-path
    /// spans that avoid allocating).
    pub name: String,
    /// Start offset in µs since telemetry creation.
    pub start_us: u64,
    /// Wall-clock duration in µs.
    pub dur_us: u64,
    /// Simulations attributed to the span.
    pub sims: u64,
}

/// A structured flow event mirrored off the `FlowEvent` bus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Offset in µs since telemetry creation.
    pub at_us: u64,
    /// Event kind name (`StageStarted`, `PhaseFinished`, ...).
    pub name: String,
    /// JSON-encoded event payload (may be empty).
    pub detail: String,
}

/// One optimizer iteration, exported from the convergence trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptIterRecord {
    /// Offset in µs since telemetry creation (export time, not
    /// iteration time: the optimizer trace is exported post-hoc).
    pub at_us: u64,
    /// Which optimization ran (`optimize`, `refine`).
    pub phase: String,
    /// Iteration index.
    pub iter: u64,
    /// Stencil step size at the iteration.
    pub step: f64,
    /// Best objective value seen in the iteration.
    pub iter_best: f64,
    /// Running best across iterations.
    pub running_best: f64,
    /// Cumulative objective evaluations.
    pub evals: u64,
}

/// One line of the JSONL trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceRecord {
    /// Run identity; always the first line.
    Meta(TraceMeta),
    /// A finished span.
    Span(SpanRecord),
    /// A mirrored flow event.
    Event(EventRecord),
    /// An optimizer iteration.
    OptIter(OptIterRecord),
    /// A final metric snapshot (trailer lines).
    Metric(MetricSnapshot),
}

/// Serializes records to JSONL: one record per line, trailing newline.
///
/// # Errors
///
/// Propagates `serde_json` encoding errors (non-finite floats).
pub fn write_jsonl(records: &[TraceRecord]) -> Result<String, serde_json::Error> {
    let mut out = String::new();
    for record in records {
        out.push_str(&serde_json::to_string(record)?);
        out.push('\n');
    }
    Ok(out)
}

/// Parses a JSONL trace produced by [`write_jsonl`] (blank lines are
/// skipped).
///
/// # Errors
///
/// Returns the first line's parse error, prefixed with its line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, serde_json::Error> {
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: TraceRecord = serde_json::from_str(line).map_err(|e| {
            serde_json::Error::from(serde::DeError(format!("line {}: {e}", lineno + 1)))
        })?;
        records.push(record);
    }
    Ok(records)
}

fn spans_of(records: &[TraceRecord]) -> Vec<&SpanRecord> {
    records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Span(s) => Some(s),
            _ => None,
        })
        .collect()
}

/// Renders a parsed trace as a human-readable span tree plus metric and
/// event summaries (the `ascdg trace` output).
#[must_use]
pub fn render_trace(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    let spans = spans_of(records);
    let events: Vec<&EventRecord> = records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Event(e) => Some(e),
            _ => None,
        })
        .collect();
    let opt_iters = records
        .iter()
        .filter(|r| matches!(r, TraceRecord::OptIter(_)))
        .count();
    let metrics: Vec<&MetricSnapshot> = records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Metric(m) => Some(m),
            _ => None,
        })
        .collect();

    for record in records {
        if let TraceRecord::Meta(meta) = record {
            out.push_str(&format!(
                "trace: unit {}, seed {}, schema v{} ({} spans, {} events, {} opt iters)\n",
                meta.unit,
                meta.seed,
                meta.schema,
                spans.len(),
                events.len(),
                opt_iters
            ));
        }
    }

    render_span_tree(&mut out, &spans);

    if !events.is_empty() {
        out.push_str("events:\n");
        let mut counts: Vec<(String, usize)> = Vec::new();
        for e in &events {
            match counts.iter_mut().find(|(n, _)| *n == e.name) {
                Some((_, c)) => *c += 1,
                None => counts.push((e.name.clone(), 1)),
            }
        }
        for (name, count) in counts {
            out.push_str(&format!("  {name} x{count}\n"));
        }
    }

    if !metrics.is_empty() {
        out.push_str("metrics:\n");
        let name_w = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in metrics {
            match (&m.kind, &m.histogram) {
                (MetricKind::Histogram, Some(h)) => out.push_str(&format!(
                    "  {:name_w$}  histogram  count {}  mean {:.1}  p50 {}  p90 {}  p99 {}  max {}\n",
                    m.name, h.count, m.value, h.p50, h.p90, h.p99, h.max
                )),
                (MetricKind::Counter, _) => out.push_str(&format!(
                    "  {:name_w$}  counter    {}\n",
                    m.name, m.value as u64
                )),
                _ => out.push_str(&format!("  {:name_w$}  gauge      {:.3}\n", m.name, m.value)),
            }
        }
    }
    out
}

/// Checks a trace's span accounting, the invariants every session's
/// span tree keeps however many sessions share the tracer:
///
/// - span ids are unique, and every span's `parent` is a span of the
///   trace;
/// - every `chunk` and `objective` span's parent is a `stage` span;
/// - a `stage` span that reports simulations has exactly that many in
///   its `chunk` children.
///
/// Flow spans are not summed: a resumed run attributes the stages it
/// skipped to its flow span.
///
/// # Errors
///
/// The first violation, described.
pub fn check_span_accounting(records: &[TraceRecord]) -> Result<(), String> {
    let spans = spans_of(records);
    let mut by_id: HashMap<u64, &SpanRecord> = HashMap::with_capacity(spans.len());
    for span in &spans {
        if by_id.insert(span.id, span).is_some() {
            return Err(format!("span id {} is used twice", span.id));
        }
    }
    let mut chunk_sims: HashMap<u64, u64> = HashMap::new();
    for span in &spans {
        let parent = match span.parent {
            Some(p) => Some(*by_id.get(&p).ok_or_else(|| {
                format!(
                    "{} span {} has parent {p}, which is not in the trace",
                    span.kind, span.id
                )
            })?),
            None => None,
        };
        if matches!(span.kind.as_str(), "chunk" | "objective")
            && parent.is_none_or(|p| p.kind != "stage")
        {
            return Err(format!(
                "{} span {} is not parented to a stage span (parent: {})",
                span.kind,
                span.id,
                parent.map_or("none".to_owned(), |p| format!("{} span {}", p.kind, p.id))
            ));
        }
        if let (Some(p), "chunk") = (parent, span.kind.as_str()) {
            let sum = chunk_sims.entry(p.id).or_default();
            *sum = sum.saturating_add(span.sims);
        }
    }
    for span in spans.iter().filter(|s| s.kind == "stage" && s.sims > 0) {
        let chunks = chunk_sims.get(&span.id).copied().unwrap_or(0);
        if chunks != span.sims {
            return Err(format!(
                "stage span {} (`{}`) reports {} sims, but its chunk spans hold {chunks}",
                span.id, span.name, span.sims
            ));
        }
    }
    Ok(())
}

/// Indented span tree; sibling runs of the same (kind, name) are
/// aggregated (chunk spans come in the hundreds) while distinctly-named
/// `flow`/`stage` spans render individually. Each span renders once, so
/// a damaged trace whose ids repeat or loop still terminates.
fn render_span_tree(out: &mut String, spans: &[&SpanRecord]) {
    let mut rendered = vec![false; spans.len()];
    for (i, root) in spans.iter().enumerate() {
        if root.parent.is_none() {
            rendered[i] = true;
            render_span(out, spans, &mut rendered, root, 0);
        }
    }
}

fn render_span(
    out: &mut String,
    spans: &[&SpanRecord],
    rendered: &mut [bool],
    span: &SpanRecord,
    depth: usize,
) {
    let indent = "  ".repeat(depth);
    let label = if span.name.is_empty() {
        span.kind.clone()
    } else {
        format!("{} {}", span.kind, span.name)
    };
    out.push_str(&format!(
        "{indent}{label:<32}  {:>10.1} ms  {:>9} sims\n",
        span.dur_us as f64 / 1e3,
        span.sims
    ));
    let children: Vec<usize> = (0..spans.len())
        .filter(|&i| !rendered[i] && spans[i].parent == Some(span.id))
        .collect();
    for &i in &children {
        rendered[i] = true;
    }
    // Group same-(kind, name) siblings: singletons render (and recurse)
    // individually — so the seven distinctly-named stage spans each get
    // a line — while repeated groups (chunk spans come in the hundreds,
    // objective evals in the dozens) render as one aggregate line.
    let mut keys: Vec<(&str, &str)> = Vec::new();
    for &i in &children {
        let key = (spans[i].kind.as_str(), spans[i].name.as_str());
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    for (kind, name) in keys {
        let group: Vec<&SpanRecord> = children
            .iter()
            .map(|&i| spans[i])
            .filter(|s| s.kind == kind && s.name == name)
            .collect();
        if group.len() == 1 {
            render_span(out, spans, rendered, group[0], depth + 1);
        } else {
            let dur = group.iter().fold(0u64, |a, s| a.saturating_add(s.dur_us));
            let sims = group.iter().fold(0u64, |a, s| a.saturating_add(s.sims));
            let indent = "  ".repeat(depth + 1);
            let label = if name.is_empty() {
                format!("{kind} x{}", group.len())
            } else {
                format!("{kind} {name} x{}", group.len())
            };
            out.push_str(&format!(
                "{indent}{label:<32}  {:>10.1} ms  {:>9} sims\n",
                dur as f64 / 1e3,
                sims
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trips_and_skips_blank_lines() {
        let records = vec![
            TraceRecord::Meta(TraceMeta {
                schema: TRACE_SCHEMA_VERSION,
                unit: "io_unit".to_owned(),
                seed: 7,
            }),
            TraceRecord::Span(SpanRecord {
                id: 1,
                parent: None,
                kind: "flow".to_owned(),
                name: "io_unit".to_owned(),
                start_us: 0,
                dur_us: 1500,
                sims: 42,
            }),
        ];
        let text = write_jsonl(&records).unwrap();
        assert_eq!(text.lines().count(), 2);
        let reparsed = parse_jsonl(&format!("{text}\n")).unwrap();
        assert_eq!(reparsed, records);
    }

    #[test]
    fn parse_error_carries_line_number() {
        let err = parse_jsonl("{\"Meta\":{\"schema\":1,\"unit\":\"u\",\"seed\":1}}\nnot json\n")
            .unwrap_err();
        assert!(format!("{err}").contains("line 2"), "{err}");
    }

    fn mk(id: u64, parent: Option<u64>, kind: &str, sims: u64) -> TraceRecord {
        TraceRecord::Span(SpanRecord {
            id,
            parent,
            kind: kind.to_owned(),
            name: String::new(),
            start_us: 0,
            dur_us: 1000,
            sims,
        })
    }

    #[test]
    fn render_aggregates_same_kind_siblings() {
        let records = vec![
            mk(1, None, "stage", 30),
            mk(2, Some(1), "chunk", 10),
            mk(3, Some(1), "chunk", 20),
        ];
        let text = render_trace(&records);
        assert!(text.contains("chunk x2"), "{text}");
        assert!(
            !text.contains("chunk  "),
            "chunks rendered individually:\n{text}"
        );
    }

    #[test]
    fn span_accounting_flags_each_rule() {
        let good = vec![
            mk(1, None, "flow", 30),
            mk(2, Some(1), "stage", 30),
            mk(3, Some(2), "chunk", 10),
            mk(4, Some(2), "chunk", 20),
            mk(5, Some(2), "objective", 30),
            mk(6, Some(1), "stage", 0),
        ];
        assert_eq!(check_span_accounting(&good), Ok(()));
        let with = |span| {
            let mut records = good.clone();
            records.push(span);
            check_span_accounting(&records).unwrap_err()
        };
        assert!(with(mk(7, Some(9), "stage", 0)).contains("not in the trace"));
        assert!(with(mk(7, None, "chunk", 5)).contains("not parented to a stage"));
        assert!(with(mk(7, Some(1), "objective", 5)).contains("flow span 1"));
        assert!(with(mk(7, Some(2), "chunk", 5)).contains("chunk spans hold 35"));
        assert!(with(mk(4, Some(2), "chunk", 0)).contains("used twice"));
    }

    #[test]
    fn render_terminates_on_repeated_ids() {
        // A damaged trace where a span's id is its own parent's.
        let records = vec![mk(1, None, "stage", 5), mk(1, Some(1), "chunk", 5)];
        assert_eq!(render_trace(&records).lines().count(), 2);
        assert!(check_span_accounting(&records).is_err());
    }
}
