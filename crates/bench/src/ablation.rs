//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Every arm is a [`FlowEngine`] session. An L3 study steps one session
//! on the `byp_reqs` family through the shared prefix (regression, coarse
//! search, skeletonize), then resumes an edited copy of that state once
//! per arm. Paired arms share the session seed and differ only in their
//! edit, and each arm is assessed by its own harvest phase.
//!
//! * [`no_approx`] (A1) — optimize the *real* target directly instead of
//!   the approximated target.
//! * [`no_sample`] (A2) — skip the random-sample phase: the optimizer
//!   starts at the box center with the sampling budget as extra
//!   iterations.
//! * [`optimizers`] (A3) — implicit filtering vs the baseline optimizers
//!   in the optimize stage, under an equal evaluation budget.
//! * [`noise_n`] (A4) — the effect of `N` (simulations per point) under a
//!   fixed total simulation budget.
//! * [`multi_target`] (E1) — the paper's future-work extension: one shared
//!   search for several target groups vs one search per group.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use ascdg_core::{
    default_stages, pool_scope, ApproxTarget, CdgFlow, FlowConfig, FlowEngine, FlowError,
    FlowOutcome, Optimize, Regression, SessionState, SimPool, Stage, TargetSpec, PHASE_BEST,
    STAGE_OPTIMIZE, STAGE_SAMPLE,
};
use ascdg_coverage::CoverageRepository;
use ascdg_duv::{io_unit::IoEnv, l3cache::L3Env, VerifEnv};
use ascdg_opt::{
    Bounds, CompassOptions, CompassSearch, IfBfgsOptions, IfOptions, ImplicitFiltering,
    ImplicitFilteringBfgs, NelderMead, NmOptions, Optimizer, RandomSearch, RsOptions, Spsa,
    SpsaOptions,
};
use ascdg_stimgen::mix_seed;

/// An optimizer an optimize stage can share across arms.
type SharedOptimizer = Arc<dyn Optimizer + Send + Sync>;

/// Independent repeats per A3 contender and per A4 setting: single runs
/// of a noisy search are themselves noisy.
const REPEATS: u64 = 3;

/// Steps a fresh session through `stages` and returns its state.
fn prefix<'env, E: VerifEnv>(
    env: &'env E,
    config: &FlowConfig,
    pool: &SimPool<'env>,
    spec: TargetSpec,
    seed: u64,
    stages: Vec<Box<dyn Stage<E>>>,
) -> Result<SessionState, FlowError> {
    let engine = FlowEngine::with_stages(env, config.clone(), pool, stages);
    let mut cx = engine.session(spec, seed);
    while engine.step(&mut cx)?.is_some() {}
    Ok(cx.into_state())
}

/// The environment and worker pool an L3 study's arms share.
struct L3Study<'s, 'env> {
    env: &'env L3Env,
    pool: &'s SimPool<'env>,
}

impl L3Study<'_, '_> {
    /// Runs a study on the paper's L3 budget at `scale`, with at least
    /// `assess_sims` simulations in the harvest phase that scores an arm.
    /// Steps one session on the `byp_reqs` family through regression,
    /// coarse search and skeletonize (and the random sample when `sample`
    /// is set), then hands its state to `arms`.
    fn run<R>(
        scale: f64,
        seed: u64,
        assess_sims: u64,
        sample: bool,
        arms: impl FnOnce(&L3Study<'_, '_>, SessionState) -> Result<R, FlowError>,
    ) -> Result<R, FlowError> {
        let env = L3Env::new();
        let mut config = FlowConfig::paper_l3().scaled(scale);
        config.best_sims = config.best_sims.max(assess_sims);
        pool_scope(config.threads, |pool| {
            // The flow's first stages: regression, coarse search,
            // skeletonize, then the random sample.
            let prefix_len = 3 + usize::from(sample);
            let stages = default_stages().into_iter().take(prefix_len).collect();
            let spec = TargetSpec::Family("byp_reqs".to_owned());
            let base = prefix(&env, &config, pool, spec, seed, stages)?;
            arms(&L3Study { env: &env, pool }, base)
        })
    }

    /// Resumes an arm's edited `state` on the default stage list, without
    /// the random sample unless `sample` is set and with `optimizer` in
    /// the optimize stage when one is given, and runs it to its outcome.
    fn arm(
        &self,
        state: SessionState,
        sample: bool,
        optimizer: Option<&SharedOptimizer>,
    ) -> Result<FlowOutcome, FlowError> {
        let stages = default_stages()
            .into_iter()
            .filter(|s| sample || s.name() != STAGE_SAMPLE)
            .map(|s| match optimizer {
                Some(o) if s.name() == STAGE_OPTIMIZE => Box::new(Optimize::with(Arc::clone(o))),
                _ => s,
            })
            .collect();
        let engine = FlowEngine::with_stages(self.env, state.config.clone(), self.pool, stages);
        let mut cx = engine.resume(state)?;
        engine.run(&mut cx)
    }
}

/// `target`'s value on the hit rates of an arm's harvested template.
fn assessed(out: &FlowOutcome, target: &ApproxTarget) -> f64 {
    let best = out
        .phase(PHASE_BEST)
        .expect("every arm ends with the harvest");
    target.value(|e| best.stats(e).rate())
}

/// The center of the prefix's settings box: the start of an arm without
/// the random sample.
fn box_center(state: &SessionState) -> Vec<f64> {
    let skeleton = state.skeleton.as_ref().expect("the prefix skeletonized");
    Bounds::unit(skeleton.num_slots()).center()
}

/// Outcome of the A1 ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoApproxResult {
    /// Final best-template hit rate summed over the real targets, with the
    /// approximated target guiding the search.
    pub with_approx_target_rate: f64,
    /// Same, when the search optimizes the real target directly.
    pub without_approx_target_rate: f64,
}

/// A1: the default flow with vs without the approximated target. The
/// "without" arm replaces the session's target by the real targets at
/// weight 1, for the random sample and the optimization alike.
///
/// # Errors
///
/// Any flow error of the prefix or an arm.
pub fn no_approx(scale: f64, seed: u64) -> Result<NoApproxResult, FlowError> {
    L3Study::run(scale, seed, 1, false, |study, with| {
        let approx = with.approx.as_ref().expect("the coarse search ran");
        let targets = approx.targets();
        let real = ApproxTarget::from_weights(targets.to_vec(), targets.iter().map(|&e| (e, 1.0)));
        let without = SessionState {
            approx: Some(real.clone()),
            ..with.clone()
        };
        let rate = |state| {
            study
                .arm(state, true, None)
                .map(|out| assessed(&out, &real))
        };
        Ok(NoApproxResult {
            with_approx_target_rate: rate(with)?,
            without_approx_target_rate: rate(without)?,
        })
    })
}

/// Outcome of the A2 ablation. Both values are the harvest phase's
/// approximated-target value, an assessment independent of the search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoSampleResult {
    /// Final-point target value when starting from the sampling phase's
    /// best point.
    pub with_sampling: f64,
    /// Final-point value when starting from the box center (no sampling
    /// phase), with the sampling budget folded into extra optimizer
    /// iterations.
    pub without_sampling: f64,
}

/// A2: the default flow vs one without the random-sample stage, which
/// starts at the box center and spends the sampling budget on extra
/// optimizer iterations.
///
/// # Errors
///
/// Any flow error of the prefix or an arm.
pub fn no_sample(scale: f64, seed: u64) -> Result<NoSampleResult, FlowError> {
    L3Study::run(scale, seed, 500, false, |study, with| {
        let mut without = with.clone();
        let cfg = &mut without.config;
        let sample_budget = cfg.sample_templates as u64 * cfg.sample_sims;
        cfg.opt_iterations +=
            (sample_budget / (cfg.opt_sims * (cfg.opt_directions as u64 + 1))) as usize;
        without.start_settings = Some(box_center(&without));
        let value = |state, sample| {
            study
                .arm(state, sample, None)
                .map(|out| assessed(&out, &out.approx_target))
        };
        Ok(NoSampleResult {
            with_sampling: value(with, true)?,
            without_sampling: value(without, false)?,
        })
    })
}

/// One optimizer's row in the A3 comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizerRow {
    /// Optimizer name.
    pub name: String,
    /// The harvest phase's approximated-target value, averaged over the
    /// repeats.
    pub best_value: f64,
    /// Objective evaluations spent.
    pub evals: u64,
}

/// A3: each contender runs the optimize stage from the one shared random
/// sample, under an equal evaluation budget; a repeat salts the session
/// seed.
///
/// # Errors
///
/// Any flow error of the prefix or an arm.
pub fn optimizers(scale: f64, seed: u64) -> Result<Vec<OptimizerRow>, FlowError> {
    L3Study::run(scale, seed, 500, true, |study, base| {
        let cfg = &base.config;
        let budget = (cfg.opt_iterations as u64) * (cfg.opt_directions as u64 + 1);
        let contenders: Vec<SharedOptimizer> = vec![
            Arc::new(ImplicitFiltering::new(IfOptions {
                max_evals: budget,
                max_iters: usize::MAX,
                n_directions: cfg.opt_directions,
                ..IfOptions::default()
            })),
            Arc::new(RandomSearch::new(RsOptions {
                samples: budget,
                target_value: None,
            })),
            Arc::new(CompassSearch::new(CompassOptions {
                max_evals: budget,
                max_iters: usize::MAX,
                ..CompassOptions::default()
            })),
            Arc::new(NelderMead::new(NmOptions {
                max_evals: budget,
                max_iters: usize::MAX,
                ..NmOptions::default()
            })),
            Arc::new(Spsa::new(SpsaOptions {
                max_evals: budget,
                max_iters: usize::MAX,
                ..SpsaOptions::default()
            })),
            Arc::new(ImplicitFilteringBfgs::new(IfBfgsOptions {
                max_evals: budget,
                max_iters: usize::MAX,
                ..IfBfgsOptions::default()
            })),
        ];
        let mut rows = Vec::new();
        for optimizer in &contenders {
            let (mut value, mut evals) = (0.0, 0);
            for rep in 0..REPEATS {
                let state = SessionState {
                    seed: mix_seed(seed, rep),
                    ..base.clone()
                };
                let out = study.arm(state, true, Some(optimizer))?;
                value += assessed(&out, &out.approx_target);
                evals += out.trace.last().map_or(0, |r| r.evals);
            }
            rows.push(OptimizerRow {
                name: optimizer.name().to_owned(),
                best_value: value / REPEATS as f64,
                evals: evals / REPEATS,
            });
        }
        Ok(rows)
    })
}

/// One `N` setting's row in the A4 study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseRow {
    /// Simulations per point.
    pub n: u64,
    /// The harvest phase's approximated-target value, averaged over the
    /// repeats (comparable across rows despite their per-eval noise).
    pub assessed_value: f64,
    /// Optimizer iterations completed within the budget.
    pub iterations: usize,
}

/// A4: the `N` (samples per point) noise/budget trade-off under a fixed
/// total simulation budget. Each setting runs `N` simulations per
/// evaluation and implicit filtering capped at `total / N` evaluations,
/// from the box center.
///
/// # Errors
///
/// Any flow error of the prefix or an arm.
pub fn noise_n(scale: f64, seed: u64, ns: &[u64]) -> Result<Vec<NoiseRow>, FlowError> {
    L3Study::run(scale, seed, 400, false, |study, base| {
        let cfg = &base.config;
        let total_sims = cfg.opt_iterations as u64 * (cfg.opt_directions as u64 + 1) * cfg.opt_sims;
        let center = box_center(&base);
        let mut rows = Vec::new();
        for &n in ns {
            let optimizer: SharedOptimizer = Arc::new(ImplicitFiltering::new(IfOptions {
                max_evals: (total_sims / n.max(1)).max(1),
                max_iters: usize::MAX,
                n_directions: cfg.opt_directions,
                ..IfOptions::default()
            }));
            let (mut value, mut iterations) = (0.0, 0);
            for rep in 0..REPEATS {
                let mut state = SessionState {
                    seed: mix_seed(seed, rep),
                    start_settings: Some(center.clone()),
                    ..base.clone()
                };
                state.config.opt_sims = n;
                let out = study.arm(state, false, Some(&optimizer))?;
                value += assessed(&out, &out.approx_target);
                iterations += out.trace.len();
            }
            rows.push(NoiseRow {
                n,
                assessed_value: value / REPEATS as f64,
                iterations: iterations / REPEATS as usize,
            });
        }
        Ok(rows)
    })
}

/// Outcome of the E1 extension study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiTargetStudy {
    /// Simulations spent by the shared multi-target run.
    pub shared_sims: u64,
    /// Targets hit by the shared run's best template.
    pub shared_targets_hit: usize,
    /// Simulations spent by one run per group.
    pub separate_sims: u64,
    /// Targets hit across the separate runs' best templates.
    pub separate_targets_hit: usize,
}

/// E1: shared-simulation multi-target search vs one search per group,
/// on the I/O unit's deep CRC events, both from one regression session.
///
/// # Errors
///
/// Propagates flow failures.
pub fn multi_target(scale: f64, seed: u64) -> Result<MultiTargetStudy, FlowError> {
    let config = FlowConfig::paper_io().scaled(scale);
    let flow = CdgFlow::new(IoEnv::new(), config.clone());
    let model = flow.env().coverage_model();
    let regressed = pool_scope(config.threads, |pool| {
        let stages: Vec<Box<dyn Stage<IoEnv>>> = vec![Box::new(Regression)];
        let spec = TargetSpec::Uncovered;
        prefix(flow.env(), &config, pool, spec, seed ^ 0xe0, stages)
    })?;
    let snapshot = regressed.repo.expect("the regression ran");
    let repo = CoverageRepository::from_snapshot(model.clone(), &snapshot)?;
    let groups = vec![
        vec![model.id("crc_032")?, model.id("crc_064")?],
        vec![model.id("crc_096")?],
    ];

    let shared = flow.run_multi_target(&repo, &groups, seed ^ 0xe1)?;

    pool_scope(config.threads, |pool| {
        let engine = FlowEngine::new(flow.env(), config.clone(), pool);
        let (mut separate_sims, mut separate_targets_hit) = (0, 0);
        for (i, group) in groups.iter().enumerate() {
            let approx = ApproxTarget::auto(model, group, config.neighbor_decay)?;
            let mut cx = engine.session_with_repo(&repo, approx, seed ^ 0xe2 ^ i as u64)?;
            let out = engine.run(&mut cx)?;
            // Count phase sims excluding the shared regression.
            separate_sims += out
                .phases
                .iter()
                .filter(|p| p.name != ascdg_core::PHASE_BEFORE)
                .map(|p| p.sims)
                .sum::<u64>();
            let best = out.phases.last().expect("flow has phases");
            separate_targets_hit += group.iter().filter(|&&e| best.hits[e.index()] > 0).count();
        }
        Ok(MultiTargetStudy {
            shared_sims: shared.total_sims,
            shared_targets_hit: shared.total_targets_hit(),
            separate_sims,
            separate_targets_hit,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_study_runs_at_a_tiny_scale() {
        const SCALE: f64 = 0.002;
        const SEED: u64 = 1;
        let a1 = no_approx(SCALE, SEED).unwrap();
        let a2 = no_sample(SCALE, SEED).unwrap();
        let a3 = optimizers(SCALE, SEED).unwrap();
        let a4 = noise_n(SCALE, SEED, &[1, 5, 25]).unwrap();
        let e1 = multi_target(SCALE, SEED).unwrap();
        let names: Vec<&str> = a3.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "implicit-filtering",
                "random-search",
                "compass-search",
                "nelder-mead",
                "spsa",
                "implicit-filtering-bfgs"
            ]
        );
        assert_eq!(a4.iter().map(|r| r.n).collect::<Vec<_>>(), [1, 5, 25]);
        let values = [
            a1.with_approx_target_rate,
            a1.without_approx_target_rate,
            a2.with_sampling,
            a2.without_sampling,
        ]
        .into_iter()
        .chain(a3.iter().map(|r| r.best_value))
        .chain(a4.iter().map(|r| r.assessed_value));
        for v in values {
            assert!(v.is_finite() && v >= 0.0, "{v}");
        }
        assert!(a3.iter().all(|r| r.evals > 0));
        assert!(e1.shared_sims > 0 && e1.separate_sims > 0);
    }
}
