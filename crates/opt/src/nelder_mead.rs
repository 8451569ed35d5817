//! Nelder–Mead simplex baseline.

use serde::{Deserialize, Serialize};

use crate::{Bounds, IterRecord, Objective, OptResult, Optimizer, StopReason};

/// Options for [`NelderMead`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NmOptions {
    /// Edge length of the initial simplex, as a fraction of the box extent.
    pub initial_size: f64,
    /// Stop when the simplex diameter falls below this fraction of the box
    /// extent.
    pub min_size: f64,
    /// Stop after this many iterations.
    pub max_iters: usize,
    /// Stop after this many evaluations (0 = unlimited).
    pub max_evals: u64,
}

impl Default for NmOptions {
    fn default() -> Self {
        NmOptions {
            initial_size: 0.2,
            min_size: 1e-4,
            max_iters: 500,
            max_evals: 0,
        }
    }
}

/// The classic Nelder–Mead downhill simplex, adapted to maximization and
/// projected into the bounds box.
///
/// Used as a baseline in the optimizer-comparison ablation; like compass
/// search it has no noise handling, so dynamic noise degrades it quickly.
///
/// # Examples
///
/// ```
/// use ascdg_opt::{Bounds, FnObjective, NelderMead, NmOptions, Optimizer};
///
/// let mut f = FnObjective::new(2, |x: &[f64]| -(x[0] - 0.6).powi(2) - (x[1] - 0.4).powi(2));
/// let r = NelderMead::new(NmOptions::default())
///     .maximize(&mut f, &Bounds::unit(2), &[0.1, 0.1], 0);
/// assert!((r.best_x[0] - 0.6).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NelderMead {
    options: NmOptions,
}

impl NelderMead {
    /// Creates the optimizer.
    #[must_use]
    pub fn new(options: NmOptions) -> Self {
        NelderMead { options }
    }
}

const ALPHA: f64 = 1.0; // reflection
const GAMMA: f64 = 2.0; // expansion
const RHO: f64 = 0.5; // contraction
const SIGMA: f64 = 0.5; // shrink

fn diameter(simplex: &[Vec<f64>]) -> f64 {
    let mut d = 0.0f64;
    for i in 0..simplex.len() {
        for j in i + 1..simplex.len() {
            let dist = simplex[i]
                .iter()
                .zip(&simplex[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            d = d.max(dist);
        }
    }
    d
}

impl Optimizer for NelderMead {
    fn maximize(
        &self,
        objective: &mut dyn Objective,
        bounds: &Bounds,
        start: &[f64],
        _seed: u64,
    ) -> OptResult {
        let dim = objective.dim();
        assert_eq!(bounds.dim(), dim, "bounds dimension mismatch");
        assert_eq!(start.len(), dim, "start dimension mismatch");
        let opts = &self.options;

        let mut evals: u64 = 0;
        let eval = |obj: &mut dyn Objective, x: &[f64], evals: &mut u64| {
            *evals += 1;
            obj.eval(x)
        };

        // Initial simplex: start plus a displaced vertex per axis.
        let start = bounds.project(start);
        let edge = opts.initial_size * bounds.max_extent();
        let mut simplex: Vec<Vec<f64>> = vec![start.clone()];
        for axis in 0..dim {
            let mut v = start.clone();
            // Displace inward if displacing outward would leave the box.
            v[axis] = if v[axis] + edge <= bounds.hi()[axis] {
                v[axis] + edge
            } else {
                v[axis] - edge
            };
            simplex.push(bounds.project(&v));
        }
        let mut values: Vec<f64> = simplex
            .iter()
            .map(|v| eval(objective, v, &mut evals))
            .collect();

        let mut trace = Vec::new();
        let mut stop_reason = StopReason::MaxIters;
        // Past the initial simplex, no evaluation starts once the budget
        // is spent, even in the middle of an iteration.
        let spent = |evals: u64| opts.max_evals != 0 && evals >= opts.max_evals;

        for iter in 0..opts.max_iters {
            // Sort descending by value (best first: maximization).
            let mut order: Vec<usize> = (0..simplex.len()).collect();
            order.sort_by(|&a, &b| {
                values[b]
                    .partial_cmp(&values[a])
                    .expect("non-NaN objective")
            });
            simplex = order.iter().map(|&i| simplex[i].clone()).collect();
            values = order.iter().map(|&i| values[i]).collect();

            if diameter(&simplex) < opts.min_size * bounds.max_extent() {
                stop_reason = StopReason::SimplexCollapsed;
                break;
            }
            if spent(evals) {
                stop_reason = StopReason::MaxEvals;
                break;
            }

            let worst = simplex.len() - 1;
            // Centroid of all but the worst vertex.
            let mut centroid = vec![0.0; dim];
            for v in &simplex[..worst] {
                for (c, x) in centroid.iter_mut().zip(v) {
                    *c += x;
                }
            }
            for c in &mut centroid {
                *c /= worst as f64;
            }

            let blend = |a: &[f64], b: &[f64], t: f64| -> Vec<f64> {
                bounds.project(
                    &a.iter()
                        .zip(b)
                        .map(|(&x, &y)| x + t * (x - y))
                        .collect::<Vec<_>>(),
                )
            };

            let reflected = blend(&centroid, &simplex[worst], ALPHA);
            let fr = eval(objective, &reflected, &mut evals);
            let mut iter_best = fr;

            if fr > values[0] {
                // Try expanding; without budget, keep the new best.
                let expanded = blend(&centroid, &simplex[worst], GAMMA);
                let fe = if spent(evals) {
                    f64::NEG_INFINITY
                } else {
                    eval(objective, &expanded, &mut evals)
                };
                iter_best = iter_best.max(fe);
                if fe > fr {
                    simplex[worst] = expanded;
                    values[worst] = fe;
                } else {
                    simplex[worst] = reflected;
                    values[worst] = fr;
                }
            } else if fr > values[worst - 1] {
                simplex[worst] = reflected;
                values[worst] = fr;
            } else if !spent(evals) {
                // Contract toward the centroid.
                let contracted = blend(&centroid, &simplex[worst], -RHO);
                let fc = eval(objective, &contracted, &mut evals);
                iter_best = iter_best.max(fc);
                if fc > values[worst] {
                    simplex[worst] = contracted;
                    values[worst] = fc;
                } else {
                    // Shrink everything toward the best vertex; a vertex
                    // the budget cannot pay for stays where it was.
                    let best = simplex[0].clone();
                    for i in 1..simplex.len() {
                        if spent(evals) {
                            break;
                        }
                        let shrunk: Vec<f64> = simplex[i]
                            .iter()
                            .zip(&best)
                            .map(|(&x, &b)| b + SIGMA * (x - b))
                            .collect();
                        simplex[i] = bounds.project(&shrunk);
                        values[i] = eval(objective, &simplex[i], &mut evals);
                        iter_best = iter_best.max(values[i]);
                    }
                }
            }

            let running_best = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            trace.push(IterRecord {
                iter,
                step: diameter(&simplex),
                iter_best,
                running_best,
                evals,
            });
        }

        let (best_idx, &best_value) = values
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("non-NaN objective"))
            .expect("simplex is non-empty");
        OptResult {
            best_x: simplex[best_idx].clone(),
            best_value,
            evals,
            stop_reason,
            trace,
        }
    }

    fn name(&self) -> &'static str {
        "nelder-mead"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnObjective;

    #[test]
    fn converges_on_quadratic() {
        let mut f = FnObjective::new(2, |x: &[f64]| {
            -(x[0] - 0.6).powi(2) - 2.0 * (x[1] - 0.4).powi(2)
        });
        let r = NelderMead::default().maximize(&mut f, &Bounds::unit(2), &[0.05, 0.95], 0);
        assert!((r.best_x[0] - 0.6).abs() < 0.02, "{:?}", r.best_x);
        assert!((r.best_x[1] - 0.4).abs() < 0.02, "{:?}", r.best_x);
        assert_eq!(r.stop_reason, StopReason::SimplexCollapsed);
    }

    #[test]
    fn handles_optimum_on_boundary() {
        let mut f = FnObjective::new(2, |x: &[f64]| x[0] + x[1]);
        let r = NelderMead::default().maximize(&mut f, &Bounds::unit(2), &[0.2, 0.2], 0);
        assert!(r.best_x[0] > 0.95 && r.best_x[1] > 0.95, "{:?}", r.best_x);
    }

    #[test]
    fn respects_budget() {
        let mut f = FnObjective::new(3, |_: &[f64]| 0.0);
        let r = NelderMead::new(NmOptions {
            max_evals: 30,
            max_iters: 10_000,
            min_size: 0.0,
            ..NmOptions::default()
        })
        .maximize(&mut f, &Bounds::unit(3), &[0.5; 3], 0);
        assert_eq!(r.stop_reason, StopReason::MaxEvals);
        // A flat objective shrinks every iteration (5 evaluations after
        // the 4 of the initial simplex): the budget must cut an iteration
        // short, not overshoot.
        assert!(r.evals <= 30, "{} evaluations", r.evals);
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut f = FnObjective::new(2, |x: &[f64]| -(x[0] - 0.3).powi(2) - x[1]);
            NelderMead::default().maximize(&mut f, &Bounds::unit(2), &[0.9, 0.9], 0)
        };
        assert_eq!(run(), run());
    }
}
