//! The CDG objective: settings vector → estimated approximated target.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ascdg_duv::VerifEnv;
use ascdg_opt::Objective;
use ascdg_stimgen::mix_seed;
use ascdg_template::Skeleton;

use crate::{ApproxTarget, BatchRunner, BatchStats, ResolvedTemplate};

/// The noisy objective the optimizer maximizes (Section IV-E).
///
/// Each evaluation instantiates the skeleton at the given settings, runs
/// `N` simulations through the batch environment, estimates every event's
/// hit probability `e_N(t)` and returns the approximated target
/// `T_N(t) = sum_e w_e * e_N(t)`. Every evaluation uses fresh seeds, so two
/// evaluations at the same point differ — the *dynamic noise* the paper's
/// optimizer must absorb (and why `N` trades noise against budget).
///
/// Batch evaluation ([`Objective::eval_batch`]) fans a whole stencil of
/// points across the runner's persistent [`SimPool`](crate::SimPool): each
/// point keeps the evaluation index, and thereby the seed
/// `mix_seed(base_seed, eval_idx)`, it would have received from a serial
/// point-at-a-time run, so the results are byte-identical at any thread
/// count.
///
/// The objective also accumulates per-event hits across all evaluations of
/// a phase; the flow reads this to fill the per-phase columns of the
/// paper's tables.
///
/// The first lifetime borrows the phase-local skeleton and target; the
/// second (`'env`) is the pool scope — the environment must outlive the
/// workers that simulate on it.
///
/// # Examples
///
/// ```
/// use ascdg_core::{pool_scope, ApproxTarget, BatchRunner, CdgObjective, Skeletonizer};
/// use ascdg_duv::{io_unit::IoEnv, VerifEnv};
/// use ascdg_opt::Objective;
///
/// let env = IoEnv::new();
/// let template = env.stock_library().by_name("io_burst_stress").unwrap().1.clone();
/// let skeleton = Skeletonizer::new().skeletonize(&template).unwrap();
/// let target = ApproxTarget::auto(
///     env.coverage_model(),
///     &[env.coverage_model().id("crc_064").unwrap()],
///     0.5,
/// ).unwrap();
/// pool_scope(1, |pool| {
///     let mut obj = CdgObjective::new(&env, &skeleton, &target, 20, BatchRunner::new(pool), 7);
///     let value = obj.eval(&vec![0.5; obj.dim()]);
///     assert!(value >= 0.0);
///     assert_eq!(obj.phase_stats().sims, 20);
/// });
/// ```
pub struct CdgObjective<'a, 'env, E: VerifEnv> {
    env: &'env E,
    skeleton: &'a Skeleton,
    target: &'a ApproxTarget,
    sims_per_point: u64,
    runner: BatchRunner<'env>,
    base_seed: u64,
    // Mutex (not Cell/RefCell) so the objective stays Sync like the rest of
    // the flow machinery; contention is nil (one optimizer thread). Lock
    // poisoning is recoverable: the guarded state is a plain accumulator
    // that every critical section leaves consistent, so a panic elsewhere
    // must not cascade into the flow's error path.
    state: Mutex<EvalState>,
}

#[derive(Debug)]
struct EvalState {
    evals: u64,
    accum: BatchStats,
    best_value: f64,
    best_settings: Vec<f64>,
}

impl<'a, 'env, E: VerifEnv> CdgObjective<'a, 'env, E> {
    /// Creates the objective.
    ///
    /// `sims_per_point` is the paper's `N`; `base_seed` makes the whole
    /// phase reproducible.
    #[must_use]
    pub fn new(
        env: &'env E,
        skeleton: &'a Skeleton,
        target: &'a ApproxTarget,
        sims_per_point: u64,
        runner: BatchRunner<'env>,
        base_seed: u64,
    ) -> Self {
        let events = env.coverage_model().len();
        CdgObjective {
            env,
            skeleton,
            target,
            sims_per_point: sims_per_point.max(1),
            runner,
            base_seed,
            state: Mutex::new(EvalState {
                evals: 0,
                accum: BatchStats::empty(events),
                best_value: f64::NEG_INFINITY,
                best_settings: Vec::new(),
            }),
        }
    }

    /// The evaluation state; a worker that panicked holding it leaves it
    /// readable.
    fn state(&self) -> MutexGuard<'_, EvalState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Per-event hits accumulated over every evaluation so far (the
    /// phase-level statistics reported in the paper's tables).
    #[must_use]
    pub fn phase_stats(&self) -> BatchStats {
        self.state().accum.clone()
    }

    /// The best `(settings, value)` pair observed so far, if any
    /// evaluation happened.
    #[must_use]
    pub fn best(&self) -> Option<(Vec<f64>, f64)> {
        let s = self.state();
        if s.best_settings.is_empty() {
            None
        } else {
            Some((s.best_settings.clone(), s.best_value))
        }
    }

    /// Number of evaluations so far.
    #[must_use]
    pub fn evals(&self) -> u64 {
        self.state().evals
    }

    /// Prepares evaluation `eval_idx` at point `x` for the hot path: the
    /// skeleton instantiated and resolved once for the evaluation's `N`
    /// simulations, and a `(template, seed)` identity that follows the
    /// evaluation index, `mix_seed(base_seed, eval_idx)`, so a revisited
    /// point draws fresh noise. The name and seed are byte-identical to the
    /// historical `renamed(...)` + per-sim string-hash derivation, with the
    /// name hashed once per evaluation instead of once per simulation.
    fn resolved_point(&self, x: &[f64], eval_idx: u64) -> (ResolvedTemplate, u64) {
        let template = self
            .skeleton
            .instantiate(x)
            .expect("settings dimension matches skeleton");
        let params = self
            .env
            .registry()
            .resolve(&template)
            .expect("skeleton-derived template must validate");
        let name = format!("{}__p{eval_idx}", self.skeleton.name());
        (
            ResolvedTemplate::from_parts(name, Arc::new(params)),
            mix_seed(self.base_seed, eval_idx),
        )
    }

    /// Folds one evaluation's statistics into the phase state and returns
    /// the target value — the single place the serial and batched paths
    /// share, so their state transitions are identical.
    fn absorb(&self, x: &[f64], stats: &BatchStats) -> f64 {
        let value = self.target.value(|e| stats.rate(e));
        let mut s = self.state();
        s.accum.merge(stats);
        if value > s.best_value {
            s.best_value = value;
            s.best_settings = x.to_vec();
        }
        value
    }
}

impl<E: VerifEnv> Objective for CdgObjective<'_, '_, E> {
    fn dim(&self) -> usize {
        self.skeleton.num_slots()
    }

    /// # Panics
    ///
    /// Panics if the settings vector has the wrong dimension or the
    /// environment rejects a skeleton-derived template — both indicate a
    /// bug in the caller, not a recoverable condition.
    fn eval(&mut self, x: &[f64]) -> f64 {
        let clock = self.runner.telemetry().timed();
        let eval_idx = {
            let mut s = self.state();
            s.evals += 1;
            s.evals
        };
        let (template, seed) = self.resolved_point(x, eval_idx);
        let stats = self
            .runner
            .run_resolved(self.env, &template, self.sims_per_point, seed)
            .expect("skeleton-derived template must simulate");
        if clock.is_some() {
            let telemetry = self.runner.telemetry();
            if let Some(m) = telemetry.metrics() {
                m.counter("objective.evals").add(1);
            }
            telemetry.closed_span("objective", "eval", clock, stats.sims);
        }
        self.absorb(x, &stats)
    }

    /// Evaluates a whole stencil of points as one batch on the runner's
    /// worker pool. Evaluation indices (and with them the per-point seeds)
    /// are assigned in point order before dispatch, and the results are
    /// folded into the phase state in the same order, so the outcome is
    /// byte-identical to evaluating the points one at a time.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CdgObjective::eval`].
    fn eval_batch(&mut self, xs: &[Vec<f64>]) -> Vec<f64> {
        if xs.is_empty() {
            return Vec::new();
        }
        let clock = self.runner.telemetry().timed();
        let first_idx = {
            let mut s = self.state();
            let first = s.evals + 1;
            s.evals += xs.len() as u64;
            first
        };
        let dispatch: Vec<(ResolvedTemplate, u64)> = xs
            .iter()
            .enumerate()
            .map(|(k, x)| self.resolved_point(x, first_idx + k as u64))
            .collect();
        let fresh = self
            .runner
            .run_many_resolved(self.env, &dispatch, self.sims_per_point)
            .expect("skeleton-derived template must simulate");
        if clock.is_some() {
            let telemetry = self.runner.telemetry();
            let executed: u64 = fresh.iter().map(|st| st.sims).sum();
            if let Some(m) = telemetry.metrics() {
                m.counter("objective.evals").add(xs.len() as u64);
            }
            telemetry.closed_span("objective", "eval_batch", clock, executed);
        }
        xs.iter()
            .zip(&fresh)
            .map(|(x, stats)| self.absorb(x, stats))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::pool_scope;
    use crate::Skeletonizer;
    use ascdg_duv::io_unit::IoEnv;

    fn test_threads() -> usize {
        std::env::var("ASCDG_TEST_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(4)
    }

    fn fixture(env: &IoEnv) -> (Skeleton, ApproxTarget) {
        let t = env
            .stock_library()
            .by_name("io_burst_stress")
            .unwrap()
            .1
            .clone();
        let sk = Skeletonizer::new().skeletonize(&t).unwrap();
        let model = env.coverage_model();
        let target = ApproxTarget::auto(model, &[model.id("crc_064").unwrap()], 0.5).unwrap();
        (sk, target)
    }

    #[test]
    fn eval_returns_weighted_rates_and_accumulates() {
        let env = IoEnv::new();
        let (sk, target) = fixture(&env);
        pool_scope(1, |pool| {
            let mut obj = CdgObjective::new(&env, &sk, &target, 10, BatchRunner::new(pool), 3);
            assert!(obj.best().is_none());
            let v1 = obj.eval(&vec![0.8; sk.num_slots()]);
            assert!(v1 > 0.0, "burst settings should hit some family members");
            assert_eq!(obj.evals(), 1);
            assert_eq!(obj.phase_stats().sims, 10);
            let _ = obj.eval(&vec![0.2; sk.num_slots()]);
            assert_eq!(obj.phase_stats().sims, 20);
            let (best_x, best_v) = obj.best().unwrap();
            assert_eq!(best_x.len(), sk.num_slots());
            assert!(best_v >= v1);
        });
    }

    #[test]
    fn same_point_gives_dynamic_noise() {
        let env = IoEnv::new();
        let (sk, target) = fixture(&env);
        pool_scope(1, |pool| {
            let mut obj = CdgObjective::new(&env, &sk, &target, 25, BatchRunner::new(pool), 5);
            let x = vec![0.7; sk.num_slots()];
            let a = obj.eval(&x);
            let b = obj.eval(&x);
            // With 25 samples the estimates at a live point almost surely
            // differ between evaluations.
            assert_ne!(a, b, "expected dynamic noise between evaluations");
            // The noise follows the evaluation index: a fresh objective
            // reproduces both values at the revisited point.
            let mut again = CdgObjective::new(&env, &sk, &target, 25, BatchRunner::new(pool), 5);
            assert_eq!(again.eval(&x), a);
            assert_eq!(again.eval(&x), b);
        });
    }

    #[test]
    fn reproducible_for_same_base_seed() {
        let env = IoEnv::new();
        let (sk, target) = fixture(&env);
        pool_scope(1, |pool| {
            let x = vec![0.6; sk.num_slots()];
            let run = |seed| {
                let mut obj =
                    CdgObjective::new(&env, &sk, &target, 15, BatchRunner::new(pool), seed);
                obj.eval(&x)
            };
            assert_eq!(run(11), run(11));
            assert_ne!(run(11), run(12));
        });
    }

    #[test]
    fn eval_batch_is_byte_identical_to_serial_evals() {
        let env = IoEnv::new();
        let (sk, target) = fixture(&env);
        // Seven distinct points plus one revisit, which must draw the
        // revisit's own fresh seed in both paths.
        let mut xs: Vec<Vec<f64>> = (0..7)
            .map(|i| vec![i as f64 / 7.0; sk.num_slots()])
            .collect();
        xs.push(xs[2].clone());

        let (serial_values, serial_stats, serial_evals, serial_best) = pool_scope(1, |pool| {
            let mut obj = CdgObjective::new(&env, &sk, &target, 9, BatchRunner::new(pool), 31);
            let values: Vec<f64> = xs.iter().map(|x| obj.eval(x)).collect();
            (values, obj.phase_stats(), obj.evals(), obj.best())
        });

        // One batch must reproduce the serial run exactly, on a one-thread
        // pool (inline) and on a shared multi-thread pool: values,
        // accumulated stats, eval count and best point.
        for threads in [1, test_threads()] {
            let (batch_values, batch_stats, batch_evals, batch_best) =
                pool_scope(threads, |pool| {
                    let mut obj =
                        CdgObjective::new(&env, &sk, &target, 9, BatchRunner::new(pool), 31);
                    let values = obj.eval_batch(&xs);
                    (values, obj.phase_stats(), obj.evals(), obj.best())
                });
            assert_eq!(batch_values, serial_values);
            assert_eq!(batch_stats, serial_stats);
            assert_eq!(batch_evals, serial_evals);
            assert_eq!(batch_best, serial_best);
        }
    }

    #[test]
    fn mixed_eval_and_batch_keep_one_index_stream() {
        let env = IoEnv::new();
        let (sk, target) = fixture(&env);
        pool_scope(1, |pool| {
            let xs: Vec<Vec<f64>> = (0..3)
                .map(|i| vec![i as f64 / 3.0; sk.num_slots()])
                .collect();
            let mut serial_obj =
                CdgObjective::new(&env, &sk, &target, 5, BatchRunner::new(pool), 19);
            let mut expect = vec![serial_obj.eval(&xs[0])];
            expect.extend(xs.iter().map(|x| serial_obj.eval(x)));

            let mut mixed_obj =
                CdgObjective::new(&env, &sk, &target, 5, BatchRunner::new(pool), 19);
            let mut got = vec![mixed_obj.eval(&xs[0])];
            got.extend(mixed_obj.eval_batch(&xs));
            assert_eq!(got, expect);
        });
    }
}
