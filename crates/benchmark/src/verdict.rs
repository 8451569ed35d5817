//! The A/B rule `compare` applies to each (metric, workload) pair.
//!
//! Runs come in pairs (parent run `i` against change run `i`, same seed,
//! alternating which side ran first). A change *improved* a metric only
//! when it won at least nine tenths of the pairs (ties count for neither
//! side) and its median beats the parent's by more than the parent's own
//! interquartile distance. It *regressed* when its median is worse by
//! more than the metric's bound. When the runs of either side spread
//! wider than the bound, the metric is *unresolved* rather than
//! unchanged, unless every change run beats every parent run.

use std::fmt;

use crate::stats::{median, quartiles, relative_spread};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, coverage).
    Higher,
}

impl Better {
    /// Parses the `BENCHMARK.json` spelling (`"lower"` / `"higher"`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// Whether `a` is strictly better than `b`.
    #[must_use]
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// The outcome of comparing a change against its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Won at least 9/10 of the pairs by more than the parent's spread.
    Improved,
    /// Neither improved nor worse by more than the bound.
    Unchanged,
    /// Median worse than the parent's by more than the bound.
    Regressed,
    /// The runs spread wider than the bound; no claim either way.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Pair wins of the change over the parent (ties count for neither).
#[must_use]
pub fn wins(better: Better, parent: &[f64], change: &[f64]) -> usize {
    parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better.beats(c, p))
        .count()
}

/// Applies the A/B rule to paired runs of one metric. `bound` is the
/// share of the parent's median by which the metric may worsen.
#[must_use]
pub fn verdict(better: Better, bound: f64, parent: &[f64], change: &[f64]) -> Verdict {
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return Verdict::Unresolved;
    }
    let (mp, mc) = (median(parent), median(change));
    let [q1, _, q3] = quartiles(parent);
    if wins(better, parent, change) * 10 >= pairs * 9
        && better.beats(mc, mp)
        && (mc - mp).abs() > q3 - q1
    {
        return Verdict::Improved;
    }
    let noisy = relative_spread(parent).max(relative_spread(change)) > bound;
    let all_change_better = parent
        .iter()
        .all(|&p| change.iter().all(|&c| better.beats(c, p)));
    let all_change_worse = parent
        .iter()
        .all(|&p| change.iter().all(|&c| better.beats(p, c)));
    let worse_by = match better {
        Better::Lower => mc - mp,
        Better::Higher => mp - mc,
    };
    if worse_by > bound * mp.abs() && (!noisy || all_change_worse) {
        Verdict::Regressed
    } else if noisy && !all_change_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}
