//! Renderers regenerating the paper's tables and figures as text.

use std::fmt::Write as _;

use ascdg_coverage::{EventStatus, StatusPolicy};
use ascdg_opt::Trace;

use crate::FlowOutcome;

/// Renders the per-event hit table of Figs. 3 and 4: one row per family
/// event, one `#hits / hit rate` column pair per phase.
///
/// Each event row is tagged with its status in the final phase using the
/// IBM convention (`[--]` never hit, `[~ ]` lightly hit, `[OK]` well hit) —
/// the text stand-in for the paper's red/orange/green color coding.
#[must_use]
pub fn render_family_table(outcome: &FlowOutcome) -> String {
    let events = outcome.table_events();
    let policy = StatusPolicy::default();
    let mut out = String::new();
    let _ = writeln!(out, "Unit: {}", outcome.unit);
    let _ = writeln!(
        out,
        "Chosen template: {} | skeleton slots: {}",
        outcome.chosen_template,
        outcome.skeleton.num_slots()
    );

    let name_w = events
        .iter()
        .map(|&e| outcome.model.name(e).len())
        .max()
        .unwrap_or(10)
        .max("Event".len());
    let col_w = 22usize;

    let _ = write!(out, "{:name_w$} |", "Event");
    for p in &outcome.phases {
        let header = format!("{} ({} sims)", p.name, p.sims);
        let _ = write!(out, " {header:col_w$} |");
    }
    out.push('\n');
    let _ = write!(out, "{:-<name_w$}-+", "");
    for _ in &outcome.phases {
        let _ = write!(out, "-{:-<col_w$}-+", "");
    }
    out.push('\n');

    for &e in &events {
        let tag = match outcome
            .phases
            .last()
            .map(|p| policy.classify(p.stats(e)))
            .unwrap_or(EventStatus::NeverHit)
        {
            EventStatus::NeverHit => "[--]",
            EventStatus::LightlyHit => "[~ ]",
            EventStatus::WellHit => "[OK]",
        };
        let name = outcome.model.name(e);
        let _ = write!(out, "{name:name_w$} |");
        for p in &outcome.phases {
            let s = p.stats(e);
            let cell = format!("{:>9} {:>9.3}%", s.hits, 100.0 * s.rate());
            let _ = write!(out, " {cell:col_w$} |");
        }
        let _ = writeln!(out, " {tag}");
    }
    out
}

/// Renders the per-phase event-status chart of Fig. 5: counts of never /
/// lightly / well hit events with proportional bars.
#[must_use]
pub fn render_status_chart(outcome: &FlowOutcome, policy: StatusPolicy) -> String {
    let mut out = String::new();
    let total = outcome.model.len();
    let _ = writeln!(
        out,
        "Unit: {} | {} events | chosen template: {}",
        outcome.unit, total, outcome.chosen_template
    );
    for p in &outcome.phases {
        let counts = p.status_counts(policy);
        let _ = writeln!(out, "{} ({} sims):", p.name, p.sims);
        for (label, n) in [
            ("never-hit  ", counts.never_hit),
            ("lightly-hit", counts.lightly_hit),
            ("well-hit   ", counts.well_hit),
        ] {
            let bar_len = (n * 50).checked_div(total).unwrap_or(0);
            let _ = writeln!(out, "  {label} {n:>4} {}", "#".repeat(bar_len));
        }
    }
    out
}

/// Renders the optimization-progress series of Fig. 6: the maximal target
/// value sampled at each iteration, as an ASCII chart plus the raw values.
#[must_use]
pub fn render_trace_chart(trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Optimization progress (max target value per iteration):"
    );
    if trace.is_empty() {
        out.push_str("  (no iterations)\n");
        return out;
    }
    let values: Vec<f64> = trace.iter().map(|r| r.iter_best).collect();
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    for (r, &v) in trace.iter().zip(&values) {
        let bar = ((v - min) / span * 40.0).round() as usize;
        let _ = writeln!(
            out,
            "  iter {:>3}  {:>10.4}  {}",
            r.iter,
            v,
            "*".repeat(bar.max(1))
        );
    }
    out
}

/// Renders the wall-clock timing section: one line per simulation phase
/// with its elapsed time and simulation throughput.
///
/// Returns an empty string when the outcome carries no timings (e.g. one
/// deserialized from an older run).
#[must_use]
pub fn render_timings(outcome: &FlowOutcome) -> String {
    if outcome.timings.is_empty() {
        return String::new();
    }
    let mut out = String::from("Phase timings (wall clock):\n");
    let name_w = outcome
        .timings
        .iter()
        .map(|t| t.name.len())
        .max()
        .unwrap_or(10);
    for t in &outcome.timings {
        match t.sims_per_sec {
            Some(rate) => {
                let _ = writeln!(
                    out,
                    "  {:name_w$}  {:>10.1} ms  {:>12.0} sims/s",
                    t.name, t.wall_ms, rate
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {:name_w$}  {:>10.1} ms  {:>12} sims/s",
                    t.name, t.wall_ms, "n/a"
                );
            }
        }
    }
    out
}

/// Renders a per-feature breakdown for a cross-product model: for each
/// value of each feature, the status counts of that slice in the final
/// phase. This answers the Fig. 5 follow-up question "*which* part of the
/// cross product is still uncovered?" (the paper's answer: all of
/// `entry7`).
///
/// Returns an empty string when the model has no cross-product structure.
#[must_use]
pub fn render_cross_breakdown(outcome: &FlowOutcome, policy: StatusPolicy) -> String {
    let Some(cp) = outcome.model.cross_product() else {
        return String::new();
    };
    let Some(last) = outcome.phases.last() else {
        return String::new();
    };
    let mut out = String::new();
    let _ = writeln!(out, "Final-phase status by feature value ({}):", last.name);
    for (fi, feature) in cp.features().iter().enumerate() {
        let _ = writeln!(out, "  {}:", feature.name());
        for (vi, value) in feature.values().iter().enumerate() {
            let slice = cp.slice(fi, vi);
            let counts = policy.count(slice.iter().map(|e| last.stats(*e)));
            let marker = if counts.never_hit == slice.len() {
                "  <- fully uncovered"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {value:<6} never={:<4} lightly={:<4} well={:<4}{marker}",
                counts.never_hit, counts.lightly_hit, counts.well_hit
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascdg_opt::IterRecord;

    #[test]
    fn trace_chart_handles_empty_and_flat() {
        let empty = render_trace_chart(&vec![]);
        assert!(empty.contains("no iterations"));
        let flat: Trace = (0..3)
            .map(|i| IterRecord {
                iter: i,
                step: 0.1,
                iter_best: 1.0,
                running_best: 1.0,
                evals: 10,
            })
            .collect();
        let s = render_trace_chart(&flat);
        assert_eq!(s.matches("iter ").count(), 3);
    }

    // Table/chart rendering over real outcomes is covered by the flow and
    // integration tests, which assert on content.
}
