//! Order statistics shared by the workloads, the result lines and the
//! `compare` verdicts.

/// Sorted copy of `xs` (NaNs sort last; the benchmark never produces any).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, averaging the two middle samples of an even count (0 for
/// no samples).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(xs, n=4)` (the default `exclusive`
/// method), so spreads printed here match the ones an outside checker
/// computes from the same values. Fewer than two samples have no spread:
/// all three read the single value (or 0).
#[must_use]
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0).
#[must_use]
pub fn relative_spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Zero-based rank of the nearest-rank 95th percentile among `n` sorted
/// samples: with 200 samples, 10 lie beyond it.
#[must_use]
pub fn p95_rank(n: usize) -> usize {
    (n * 95).div_ceil(100).max(1) - 1
}

/// The nearest-rank 95th percentile (0 for no samples).
#[must_use]
pub fn p95(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    v.get(p95_rank(v.len())).copied().unwrap_or(0.0)
}
