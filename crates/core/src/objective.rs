//! The CDG objective: settings vector → estimated approximated target.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use ascdg_duv::VerifEnv;
use ascdg_opt::Objective;
use ascdg_stimgen::mix_seed;
use ascdg_template::{ResolvedParams, Skeleton};

use crate::{ApproxTarget, BatchRunner, BatchStats, ResolvedTemplate, SharedEvalCache};

/// Backstop bound on the per-phase resolve and evaluation caches. Implicit
/// filtering revisits only a handful of stencil centers, so the caches stay
/// tiny in practice; at the bound one arbitrary entry is evicted (both
/// caches hold pure-function results, so an evicted entry only costs a
/// recompute — or, for the evaluation cache, a re-simulation).
const RESOLVE_CACHE_CAP: usize = 256;

/// How [`CdgObjective`] derives the per-evaluation seed stream — and with
/// it, whether two evaluations at the same point can share simulations.
///
/// * [`EvalStrategy::Indexed`] (the default) seeds evaluation `k` with
///   `mix_seed(base_seed, k)`: re-evaluating a point yields fresh noise
///   (the paper's dynamic noise), so nothing can be coalesced.
/// * [`EvalStrategy::PointSeeded`] seeds each evaluation from a
///   fingerprint of the settings vector instead: re-evaluating the same
///   point replays the identical simulations. Every point is still
///   simulated on every visit.
/// * [`EvalStrategy::Coalesced`] is `PointSeeded` plus memoization:
///   completed evaluations are cached by the settings bit pattern, and a
///   batch dedupes identical points before dispatch, fanning the one
///   result back out. Because `PointSeeded` replays are already bitwise
///   identical, coalescing changes nothing about the values, phase
///   statistics or best point — only how many simulations actually run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EvalStrategy {
    /// Fresh seeds per evaluation index (dynamic noise on revisits).
    #[default]
    Indexed,
    /// Seeds derived from the settings vector: revisits replay bitwise.
    PointSeeded,
    /// `PointSeeded` plus completed-evaluation memoization and in-batch
    /// dedup — each distinct point is simulated once.
    Coalesced,
}

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
    strategy: EvalStrategy,
    // Campaign-shared completed-evaluation cache and the session seed of
    // the group this objective belongs to (classifies hits as in-group or
    // cross-group). Consulted only under `EvalStrategy::Coalesced`.
    shared: Option<(Arc<SharedEvalCache>, u64)>,
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
    // Settings-vector (bit pattern) → resolved parameters. Instantiation
    // and resolution are pure functions of `x`, so re-evaluated points
    // (implicit filtering resamples its center every iteration) reuse the
    // resolved set instead of rebuilding the full parameter map.
    resolve_cache: HashMap<Vec<u64>, Arc<ResolvedParams>>,
    // Settings-vector (bit pattern) → completed evaluation statistics.
    // Only populated under `EvalStrategy::Coalesced`, where a revisit's
    // simulations would replay bitwise anyway.
    eval_cache: HashMap<Vec<u64>, Arc<BatchStats>>,
    // Evaluations served from `eval_cache` (including in-batch duplicates
    // beyond the first instance) and the simulations they did not re-run.
    coalesced_evals: u64,
    sims_saved: u64,
}

/// Evicts one arbitrary entry once the cache reaches the cap, keeping the
/// other hot entries instead of clearing the whole map.
fn evict_at_cap<V>(cache: &mut HashMap<Vec<u64>, V>) {
    if cache.len() >= RESOLVE_CACHE_CAP {
        if let Some(victim) = cache.keys().next().cloned() {
            cache.remove(&victim);
        }
    }
}

/// The settings vector's bit pattern — the cache key both caches share.
fn point_key(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// FNV-1a over the settings bit pattern: the point fingerprint that names
/// and seeds point-keyed evaluations.
fn point_fingerprint(key: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &word in key {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
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
            strategy: EvalStrategy::Indexed,
            shared: None,
            state: Mutex::new(EvalState {
                evals: 0,
                accum: BatchStats::empty(events),
                best_value: f64::NEG_INFINITY,
                best_settings: Vec::new(),
                resolve_cache: HashMap::new(),
                eval_cache: HashMap::new(),
                coalesced_evals: 0,
                sims_saved: 0,
            }),
        }
    }

    /// Selects the evaluation seeding/coalescing strategy (see
    /// [`EvalStrategy`]; the default is [`EvalStrategy::Indexed`]).
    #[must_use]
    pub fn with_strategy(mut self, strategy: EvalStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Attaches a campaign-shared completed-evaluation cache; `origin` is
    /// the session seed of the group this objective evaluates for.
    ///
    /// With a cache attached, the point-keyed seed derivation roots at
    /// [`SharedEvalCache::seed`] instead of this objective's base seed, so
    /// every attached objective replays identical simulations at identical
    /// points — the property that makes cross-group reuse exact (see the
    /// [`SharedEvalCache`] docs). Lookups and stores still happen only
    /// under [`EvalStrategy::Coalesced`].
    #[must_use]
    pub fn with_shared_cache(mut self, cache: Arc<SharedEvalCache>, origin: u64) -> Self {
        self.shared = Some((cache, origin));
        self
    }

    /// Evaluations served from the completed-evaluation cache so far
    /// (only non-zero under [`EvalStrategy::Coalesced`]).
    #[must_use]
    pub fn coalesced_evals(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .coalesced_evals
    }

    /// Simulations those coalesced evaluations did not re-run — the gap
    /// between the logical phase statistics and what actually executed.
    #[must_use]
    pub fn sims_saved(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .sims_saved
    }

    /// Per-event hits accumulated over every evaluation so far (the
    /// phase-level statistics reported in the paper's tables).
    #[must_use]
    pub fn phase_stats(&self) -> BatchStats {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .accum
            .clone()
    }

    /// The best `(settings, value)` pair observed so far, if any
    /// evaluation happened.
    #[must_use]
    pub fn best(&self) -> Option<(Vec<f64>, f64)> {
        let s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if s.best_settings.is_empty() {
            None
        } else {
            Some((s.best_settings.clone(), s.best_value))
        }
    }

    /// Number of evaluations so far.
    #[must_use]
    pub fn evals(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .evals
    }

    /// Resolves the parameters for point `x` at most once per distinct bit
    /// pattern (the key both caches share).
    fn resolved_params(&self, key: &[u64], x: &[f64]) -> Arc<ResolvedParams> {
        let cached = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .resolve_cache
            .get(key)
            .cloned();
        match cached {
            Some(params) => {
                self.runner.counters().note_resolve_hit();
                params
            }
            None => {
                let template = self
                    .skeleton
                    .instantiate(x)
                    .expect("settings dimension matches skeleton");
                let params = Arc::new(
                    self.env
                        .registry()
                        .resolve(&template)
                        .expect("skeleton-derived template must validate"),
                );
                self.runner.counters().note_resolve_miss();
                let mut s = self
                    .state
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                evict_at_cap(&mut s.resolve_cache);
                s.resolve_cache.insert(key.to_vec(), Arc::clone(&params));
                params
            }
        }
    }

    /// Prepares evaluation `eval_idx` at point `x` for the hot path:
    /// parameters resolved at most once per distinct `x` (cached by the
    /// settings vector's bit pattern), and a `(template, seed)` identity
    /// per the strategy. Under [`EvalStrategy::Indexed`] the name and seed
    /// follow the evaluation index — byte-identical to the historical
    /// `renamed(...)` + per-sim string-hash derivation, with the name
    /// hashed once per evaluation instead of once per simulation. The
    /// point-keyed strategies name and seed by the settings fingerprint
    /// instead, so revisits replay bitwise.
    fn resolved_point(&self, key: &[u64], x: &[f64], eval_idx: u64) -> (ResolvedTemplate, u64) {
        let params = self.resolved_params(key, x);
        let (name, seed) = match self.strategy {
            EvalStrategy::Indexed => (
                format!("{}__p{eval_idx}", self.skeleton.name()),
                mix_seed(self.base_seed, eval_idx),
            ),
            EvalStrategy::PointSeeded | EvalStrategy::Coalesced => {
                let fp = point_fingerprint(key);
                // With a shared cache attached the seed roots at the
                // cache's seed, not this objective's: every group then
                // derives the same seed for the same point, which is what
                // makes a cross-group cache hit byte-identical to a miss.
                let root = self
                    .shared
                    .as_ref()
                    .map_or(self.base_seed, |(cache, _)| cache.seed());
                (
                    format!("{}__x{fp:016x}", self.skeleton.name()),
                    mix_seed(root, fp),
                )
            }
        };
        (ResolvedTemplate::from_parts(name, params), seed)
    }

    /// Looks up a completed evaluation of `key`, counting the coalesced
    /// evaluation when one is found. Always misses unless the strategy is
    /// [`EvalStrategy::Coalesced`]. With a shared cache attached the
    /// campaign-wide cache replaces the phase-local one, and a hit on
    /// another group's entry additionally bumps the
    /// `objective.cross_group_hits` metric.
    fn cached_eval(&self, key: &[u64]) -> Option<Arc<BatchStats>> {
        if self.strategy != EvalStrategy::Coalesced {
            return None;
        }
        if let Some((cache, origin)) = &self.shared {
            let hit = cache.lookup(self.skeleton.name(), key, self.sims_per_point, *origin);
            if let Some((stats, cross)) = &hit {
                let mut s = self
                    .state
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                s.coalesced_evals += 1;
                s.sims_saved += stats.sims;
                drop(s);
                if *cross {
                    if let Some(m) = self.runner.telemetry().metrics() {
                        m.counter("objective.cross_group_hits").add(1);
                    }
                }
            }
            return hit.map(|(stats, _)| stats);
        }
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let hit = s.eval_cache.get(key).cloned();
        if let Some(stats) = &hit {
            s.coalesced_evals += 1;
            s.sims_saved += stats.sims;
        }
        hit
    }

    /// Stores a completed evaluation for future coalescing (in the shared
    /// cache when one is attached, the phase-local one otherwise).
    fn cache_eval(&self, key: &[u64], stats: &BatchStats) {
        if let Some((cache, origin)) = &self.shared {
            cache.store(
                self.skeleton.name(),
                key,
                self.sims_per_point,
                *origin,
                Arc::new(stats.clone()),
            );
            return;
        }
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        evict_at_cap(&mut s.eval_cache);
        s.eval_cache.insert(key.to_vec(), Arc::new(stats.clone()));
    }

    /// Folds one evaluation's statistics into the phase state and returns
    /// the target value — the single place the serial and batched paths
    /// share, so their state transitions are identical.
    fn absorb(&self, x: &[f64], stats: &BatchStats) -> f64 {
        let value = self.target.value(|e| stats.rate(e));
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
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
            let mut s = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            s.evals += 1;
            s.evals
        };
        let key = point_key(x);
        let (stats, executed) = match self.cached_eval(&key) {
            Some(stats) => ((*stats).clone(), 0),
            None => {
                let (template, seed) = self.resolved_point(&key, x, eval_idx);
                let stats = self
                    .runner
                    .run_resolved(self.env, &template, self.sims_per_point, seed)
                    .expect("skeleton-derived template must simulate");
                if self.strategy == EvalStrategy::Coalesced {
                    self.cache_eval(&key, &stats);
                }
                let executed = stats.sims;
                (stats, executed)
            }
        };
        if clock.is_some() {
            let telemetry = self.runner.telemetry();
            if let Some(m) = telemetry.metrics() {
                m.counter("objective.evals").add(1);
                m.counter("objective.sims_executed").add(executed);
                if executed == 0 {
                    m.counter("objective.coalesced").add(1);
                }
            }
            telemetry.closed_span("objective", "eval", clock, executed);
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
            let mut s = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let first = s.evals + 1;
            s.evals += xs.len() as u64;
            first
        };
        let keys: Vec<Vec<u64>> = xs.iter().map(|x| point_key(x)).collect();
        // Each batch entry is either served from the completed-evaluation
        // cache, or mapped to a dispatch slot; identical points within the
        // batch share one slot under `Coalesced` (the replayed simulations
        // would be bitwise identical anyway), so each distinct point is
        // simulated once and fanned back out.
        enum Source {
            Cached(Arc<BatchStats>),
            Slot(usize),
        }
        let mut dispatch: Vec<(ResolvedTemplate, u64)> = Vec::with_capacity(xs.len());
        let mut dispatch_keys: Vec<usize> = Vec::with_capacity(xs.len());
        let mut slot_of: HashMap<&[u64], usize> = HashMap::new();
        let coalesce = self.strategy == EvalStrategy::Coalesced;
        let sources: Vec<Source> = xs
            .iter()
            .enumerate()
            .map(|(k, x)| {
                let key = keys[k].as_slice();
                if let Some(stats) = self.cached_eval(key) {
                    return Source::Cached(stats);
                }
                if coalesce {
                    if let Some(&slot) = slot_of.get(key) {
                        let mut s = self
                            .state
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        s.coalesced_evals += 1;
                        s.sims_saved += self.sims_per_point;
                        return Source::Slot(slot);
                    }
                }
                let slot = dispatch.len();
                dispatch.push(self.resolved_point(key, x, first_idx + k as u64));
                dispatch_keys.push(k);
                if coalesce {
                    slot_of.insert(key, slot);
                }
                Source::Slot(slot)
            })
            .collect();
        drop(slot_of);
        let fresh = self
            .runner
            .run_many_resolved(self.env, &dispatch, self.sims_per_point)
            .expect("skeleton-derived template must simulate");
        if coalesce {
            for (slot, &k) in dispatch_keys.iter().enumerate() {
                self.cache_eval(&keys[k], &fresh[slot]);
            }
        }
        if clock.is_some() {
            let telemetry = self.runner.telemetry();
            let executed: u64 = fresh.iter().map(|st| st.sims).sum();
            if let Some(m) = telemetry.metrics() {
                m.counter("objective.evals").add(xs.len() as u64);
                m.counter("objective.sims_executed").add(executed);
                m.counter("objective.coalesced")
                    .add((xs.len() - fresh.len()) as u64);
            }
            telemetry.closed_span("objective", "eval_batch", clock, executed);
        }
        xs.iter()
            .zip(&sources)
            .map(|(x, src)| match src {
                Source::Cached(stats) => self.absorb(x, stats),
                Source::Slot(slot) => self.absorb(x, &fresh[*slot]),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::pool_scope;
    use crate::Skeletonizer;
    use ascdg_duv::io_unit::IoEnv;
    use ascdg_opt::{Bounds, IfOptions, ImplicitFiltering, Optimizer};

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
        // Seven distinct points plus one revisit, so the resolve cache
        // both misses and hits.
        let mut xs: Vec<Vec<f64>> = (0..7)
            .map(|i| vec![i as f64 / 7.0; sk.num_slots()])
            .collect();
        xs.push(xs[2].clone());

        let (serial_values, serial_stats, serial_evals, serial_best, serial_counters) =
            pool_scope(1, |pool| {
                let runner = BatchRunner::new(pool);
                let counters = Arc::clone(runner.counters());
                let mut obj = CdgObjective::new(&env, &sk, &target, 9, runner, 31);
                let values: Vec<f64> = xs.iter().map(|x| obj.eval(x)).collect();
                let snap = counters.snapshot();
                (values, obj.phase_stats(), obj.evals(), obj.best(), snap)
            });

        // One batch must reproduce the serial run exactly, on a one-thread
        // pool (inline) and on a shared multi-thread pool: values,
        // accumulated stats, eval count, best point and hot-path counters.
        for threads in [1, test_threads()] {
            let (batch_values, batch_stats, batch_evals, batch_best, batch_counters) =
                pool_scope(threads, |pool| {
                    let runner = BatchRunner::new(pool);
                    let counters = Arc::clone(runner.counters());
                    let mut obj = CdgObjective::new(&env, &sk, &target, 9, runner, 31);
                    let values = obj.eval_batch(&xs);
                    let snap = counters.snapshot();
                    (values, obj.phase_stats(), obj.evals(), obj.best(), snap)
                });
            assert_eq!(batch_values, serial_values);
            assert_eq!(batch_stats, serial_stats);
            assert_eq!(batch_evals, serial_evals);
            assert_eq!(batch_best, serial_best);
            assert_eq!(batch_counters, serial_counters);
            assert_eq!(batch_counters.resolve_misses, 7);
            assert_eq!(batch_counters.resolve_hits, 1);
        }
    }

    #[test]
    fn repeated_points_hit_the_resolve_cache() {
        let env = IoEnv::new();
        let (sk, target) = fixture(&env);
        pool_scope(1, |pool| {
            let runner = BatchRunner::new(pool);
            let counters = Arc::clone(runner.counters());
            let mut obj = CdgObjective::new(&env, &sk, &target, 5, runner, 7);
            let x = vec![0.5; sk.num_slots()];
            let _ = obj.eval(&x);
            let _ = obj.eval(&x); // same point: must reuse the resolution
            let _ = obj.eval(&vec![0.25; sk.num_slots()]);
            let snap = counters.snapshot();
            assert_eq!(snap.resolve_hits, 1);
            assert_eq!(snap.resolve_misses, 2);
            // The cached path stays byte-identical to a fresh objective.
            let mut fresh = CdgObjective::new(&env, &sk, &target, 5, BatchRunner::new(pool), 7);
            let a = fresh.eval(&x);
            let b = fresh.eval(&x);
            let mut again = CdgObjective::new(&env, &sk, &target, 5, BatchRunner::new(pool), 7);
            assert_eq!(again.eval(&x), a);
            assert_eq!(again.eval(&x), b);
        });
    }

    #[test]
    fn shared_cache_coalesces_across_objectives() {
        let env = IoEnv::new();
        let (sk, target) = fixture(&env);
        pool_scope(1, |pool| {
            let x = vec![0.4; sk.num_slots()];
            let cache = Arc::new(SharedEvalCache::new(99));
            // Two objectives with *different* base seeds and origins: the
            // shared cache must make their evaluations at the same point
            // identical, and classify the second as a cross-group hit.
            let mut a = CdgObjective::new(&env, &sk, &target, 8, BatchRunner::new(pool), 1)
                .with_strategy(EvalStrategy::Coalesced)
                .with_shared_cache(Arc::clone(&cache), 111);
            let mut b = CdgObjective::new(&env, &sk, &target, 8, BatchRunner::new(pool), 2)
                .with_strategy(EvalStrategy::Coalesced)
                .with_shared_cache(Arc::clone(&cache), 222);
            let va = a.eval(&x);
            let vb = b.eval(&x);
            assert_eq!(va, vb);
            assert_eq!(cache.cross_group_hits(), 1);
            assert_eq!(cache.in_group_hits(), 0);
            assert_eq!(b.coalesced_evals(), 1);
            assert_eq!(b.sims_saved(), 8);
            // A hit is byte-identical to a miss: a third objective on a
            // *fresh* cache with the same cache seed recomputes the same
            // value and the same phase statistics.
            let fresh = Arc::new(SharedEvalCache::new(99));
            let mut c = CdgObjective::new(&env, &sk, &target, 8, BatchRunner::new(pool), 3)
                .with_strategy(EvalStrategy::Coalesced)
                .with_shared_cache(Arc::clone(&fresh), 333);
            assert_eq!(c.eval(&x), va);
            assert_eq!(c.phase_stats(), b.phase_stats());
            assert_eq!(fresh.cross_group_hits(), 0);
        });
    }

    #[test]
    fn shared_cache_replays_a_whole_phase_across_groups() {
        let env = IoEnv::new();
        let (sk, target) = fixture(&env);
        pool_scope(1, |pool| {
            let bounds = Bounds::unit(sk.num_slots());
            let optimizer = ImplicitFiltering::new(IfOptions {
                n_directions: 4,
                max_iters: 4,
                ..IfOptions::default()
            });
            // One implicit-filtering phase as group `origin` on `cache`; the
            // base seed differs per group, as it does across campaign groups.
            let phase = |cache: &Arc<SharedEvalCache>, origin: u64| {
                let mut obj =
                    CdgObjective::new(&env, &sk, &target, 12, BatchRunner::new(pool), origin)
                        .with_strategy(EvalStrategy::Coalesced)
                        .with_shared_cache(Arc::clone(cache), origin);
                let result = optimizer.maximize(&mut obj, &bounds, &bounds.center(), 2);
                (obj.phase_stats(), result.best_x, obj.sims_saved())
            };

            let cache = Arc::new(SharedEvalCache::new(0xeca));
            let (first_stats, first_best, _) = phase(&cache, 1);
            assert!(cache.in_group_hits() > 0, "no revisited stencil center");
            assert_eq!(cache.cross_group_hits(), 0);
            // A second group on the same cache retraces the whole trajectory
            // from the first group's entries, without simulating.
            let misses = cache.misses();
            let (second_stats, second_best, second_saved) = phase(&cache, 2);
            assert!(cache.cross_group_hits() > 0, "no cross-group reuse");
            assert_eq!(cache.misses(), misses, "the replay simulated");
            assert_eq!(second_saved, second_stats.sims);
            assert_eq!(second_stats, first_stats);
            assert_eq!(second_best, first_best);
            // A third group on a fresh cache with the same seed computes every
            // entry itself and must land on the same bytes: who computed an
            // entry never shapes the trajectory.
            let fresh = Arc::new(SharedEvalCache::new(0xeca));
            let (third_stats, third_best, _) = phase(&fresh, 3);
            assert_eq!(fresh.cross_group_hits(), 0);
            assert_eq!(third_stats, first_stats);
            assert_eq!(third_best, first_best);
        });
    }

    #[test]
    fn attached_cache_is_inert_under_indexed_strategy() {
        let env = IoEnv::new();
        let (sk, target) = fixture(&env);
        pool_scope(1, |pool| {
            let x = vec![0.3; sk.num_slots()];
            let mut plain = CdgObjective::new(&env, &sk, &target, 6, BatchRunner::new(pool), 17);
            let expect = plain.eval(&x);
            let cache = Arc::new(SharedEvalCache::new(4242));
            let mut with_cache =
                CdgObjective::new(&env, &sk, &target, 6, BatchRunner::new(pool), 17)
                    .with_shared_cache(Arc::clone(&cache), 5);
            assert_eq!(with_cache.eval(&x), expect);
            let _ = with_cache.eval(&x);
            assert!(cache.is_empty(), "indexed strategy must never store");
            assert_eq!(cache.misses(), 0, "indexed strategy must never look up");
        });
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
