//! Shared result/trace types and the `Optimizer` trait.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::{Bounds, Objective};

/// Why an optimization run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum StopReason {
    /// The iteration limit was reached.
    MaxIters,
    /// The evaluation budget was exhausted.
    MaxEvals,
    /// The stencil/step size shrank below its minimum.
    StepConverged,
    /// The objective reached the configured target value.
    TargetReached,
    /// The simplex collapsed (Nelder–Mead only).
    SimplexCollapsed,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StopReason::MaxIters => "iteration limit",
            StopReason::MaxEvals => "evaluation budget",
            StopReason::StepConverged => "step size converged",
            StopReason::TargetReached => "target value reached",
            StopReason::SimplexCollapsed => "simplex collapsed",
        })
    }
}

/// One iteration of an optimizer's progress, as plotted in the paper's
/// Fig. 6 (maximal target value per iteration).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterRecord {
    /// 0-based iteration number.
    pub iter: usize,
    /// Step/stencil size in effect during the iteration (0 where the
    /// notion does not apply).
    pub step: f64,
    /// Best objective value *sampled during this iteration* (the noisy
    /// per-iteration maximum the paper plots; includes noise spikes).
    pub iter_best: f64,
    /// Best objective value seen so far across the run.
    pub running_best: f64,
    /// Cumulative objective evaluations at the end of the iteration.
    pub evals: u64,
}

/// Per-iteration progress records.
pub type Trace = Vec<IterRecord>;

/// The outcome of an optimization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptResult {
    /// The best point found.
    pub best_x: Vec<f64>,
    /// The objective value observed at `best_x`.
    pub best_value: f64,
    /// Total objective evaluations.
    pub evals: u64,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Per-iteration progress.
    pub trace: Trace,
}

/// Convergence metrics extracted from a [`Trace`] — the "convergence rate
/// ... in terms of iterations and number of samples" the paper's
/// hyperparameter discussion is about.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceMetrics {
    /// Final running-best value.
    pub final_best: f64,
    /// Iterations until the running best first reached 90% of its final
    /// value (`None` for an empty trace).
    pub iters_to_90pct: Option<usize>,
    /// Evaluations spent until that iteration (`None` for an empty trace).
    pub evals_to_90pct: Option<u64>,
    /// Total evaluations recorded by the trace.
    pub total_evals: u64,
}

impl TraceMetrics {
    /// Computes the metrics of a trace.
    ///
    /// # Examples
    ///
    /// ```
    /// use ascdg_opt::{IterRecord, TraceMetrics};
    ///
    /// let trace = vec![
    ///     IterRecord { iter: 0, step: 0.2, iter_best: 0.1, running_best: 0.1, evals: 10 },
    ///     IterRecord { iter: 1, step: 0.2, iter_best: 1.0, running_best: 1.0, evals: 20 },
    ///     IterRecord { iter: 2, step: 0.1, iter_best: 0.9, running_best: 1.0, evals: 30 },
    /// ];
    /// let m = TraceMetrics::of(&trace);
    /// assert_eq!(m.final_best, 1.0);
    /// assert_eq!(m.iters_to_90pct, Some(1));
    /// assert_eq!(m.evals_to_90pct, Some(20));
    /// assert_eq!(m.total_evals, 30);
    /// ```
    #[must_use]
    pub fn of(trace: &Trace) -> TraceMetrics {
        let final_best = trace.last().map_or(f64::NEG_INFINITY, |r| r.running_best);
        let threshold = if final_best >= 0.0 {
            0.9 * final_best
        } else {
            // For negative objectives, "90% of final" means within 10% of
            // the final value from below.
            final_best * 1.1
        };
        let hit = trace.iter().find(|r| r.running_best >= threshold);
        TraceMetrics {
            final_best,
            iters_to_90pct: hit.map(|r| r.iter),
            evals_to_90pct: hit.map(|r| r.evals),
            total_evals: trace.last().map_or(0, |r| r.evals),
        }
    }
}

/// Exports a finished convergence [`Trace`] into a telemetry handle:
/// one `OptIter` record per iteration, plus `opt.<phase>.iterations` /
/// `opt.<phase>.evals` counters and an `opt.<phase>.final_best` gauge.
/// No-op on a disabled handle or an empty trace.
pub fn record_trace(phase: &str, trace: &Trace, telemetry: &ascdg_telemetry::Telemetry) {
    if !telemetry.is_enabled() || trace.is_empty() {
        return;
    }
    for rec in trace {
        telemetry.opt_iter(
            phase,
            rec.iter as u64,
            rec.step,
            rec.iter_best,
            rec.running_best,
            rec.evals,
        );
    }
    if let Some(m) = telemetry.metrics() {
        m.counter(&format!("opt.{phase}.iterations"))
            .add(trace.len() as u64);
        m.counter(&format!("opt.{phase}.evals"))
            .add(trace.last().map_or(0, |r| r.evals));
        let final_best = TraceMetrics::of(trace).final_best;
        if final_best.is_finite() {
            m.gauge(&format!("opt.{phase}.final_best")).set(final_best);
        }
    }
}

/// A derivative-free maximizer over a bounded box.
///
/// Implementations draw only noisy samples of the objective. `start` is the
/// initial iterate (AS-CDG passes the best template from the random-sample
/// phase); methods that do not use a start point may ignore it.
pub trait Optimizer {
    /// Runs the method and returns the best point found.
    ///
    /// # Panics
    ///
    /// Implementations panic when `start` or `bounds` disagree with the
    /// objective's dimension.
    fn maximize(
        &self,
        objective: &mut dyn Objective,
        bounds: &Bounds,
        start: &[f64],
        seed: u64,
    ) -> OptResult;

    /// A short human-readable name for reports ("implicit-filtering", ...).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_reason_display() {
        assert_eq!(StopReason::MaxIters.to_string(), "iteration limit");
        assert_eq!(StopReason::StepConverged.to_string(), "step size converged");
    }

    #[test]
    fn metrics_on_empty_trace() {
        let m = TraceMetrics::of(&vec![]);
        assert_eq!(m.iters_to_90pct, None);
        assert_eq!(m.total_evals, 0);
    }

    #[test]
    fn metrics_negative_objective() {
        let rec = |iter, best, evals| IterRecord {
            iter,
            step: 0.1,
            iter_best: best,
            running_best: best,
            evals,
        };
        let trace = vec![rec(0, -10.0, 5), rec(1, -1.05, 10), rec(2, -1.0, 15)];
        let m = TraceMetrics::of(&trace);
        assert_eq!(m.final_best, -1.0);
        // Threshold is -1.1; first reached at iteration 1.
        assert_eq!(m.iters_to_90pct, Some(1));
    }
}
