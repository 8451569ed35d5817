//! Interval arithmetic behind the layer split: a layer's self time is its
//! span's duration minus the part of that interval its child spans cover.

/// A time interval in seconds since the run's trace epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Start, in seconds.
    pub start: f64,
    /// End, in seconds (`>= start`).
    pub end: f64,
}

impl Interval {
    /// The interval `[start, end]`.
    #[must_use]
    pub fn new(start: f64, end: f64) -> Self {
        Interval { start, end }
    }

    /// Its length in seconds.
    #[must_use]
    pub fn len(&self) -> f64 {
        self.end - self.start
    }

    /// Whether it has zero length.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() <= 0.0
    }
}

/// The union of a set of intervals, kept as disjoint intervals sorted by
/// start, so the covered part of any window is one binary search away.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Union(Vec<Interval>);

impl Union {
    /// The union of `intervals` (overlapping or touching ones merge).
    #[must_use]
    pub fn of(intervals: &[Interval]) -> Self {
        let mut sorted: Vec<Interval> = intervals
            .iter()
            .copied()
            .filter(|i| !i.is_empty())
            .collect();
        sorted.sort_by(|a, b| a.start.total_cmp(&b.start));
        let mut merged: Vec<Interval> = Vec::with_capacity(sorted.len());
        for i in sorted {
            match merged.last_mut() {
                Some(last) if i.start <= last.end => last.end = last.end.max(i.end),
                _ => merged.push(i),
            }
        }
        Union(merged)
    }

    /// Seconds of `window` the union covers.
    #[must_use]
    pub fn overlap(&self, window: Interval) -> f64 {
        let first = self.0.partition_point(|i| i.end <= window.start);
        self.0[first..]
            .iter()
            .take_while(|i| i.start < window.end)
            .map(|i| (i.end.min(window.end) - i.start.max(window.start)).max(0.0))
            .sum()
    }
}

/// One layer's split of a set of parent windows: total wall, the part the
/// children cover, and the remainder, which always sum back:
/// `self_s + covered_s == wall_s`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Split {
    /// Summed window length.
    pub wall_s: f64,
    /// Summed child coverage of the windows.
    pub covered_s: f64,
    /// `wall_s - covered_s`: time no child span accounts for.
    pub self_s: f64,
}

/// Splits every window into child-covered and self time and sums the
/// parts over all windows. Windows are taken one at a time, so two
/// overlapping windows (concurrent campaign groups) each count the
/// children inside them.
#[must_use]
pub fn split(windows: &[Interval], children: &Union) -> Split {
    let mut out = Split::default();
    for &w in windows {
        out.wall_s += w.len();
        out.covered_s += children.overlap(w);
    }
    out.self_s = out.wall_s - out.covered_s;
    out
}
