//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! * [`no_approx`] (A1) — optimize the *real* target directly instead of
//!   the approximated target: the landscape is flat and the search stalls.
//! * [`no_sample`] (A2) — skip the random-sample phase: the optimizer
//!   starts in the flat far-field.
//! * [`optimizers`] (A3) — implicit filtering vs the baseline optimizers
//!   on the live CDG objective under an equal evaluation budget.
//! * [`noise_n`] (A4) — the effect of `N` (simulations per point) under a
//!   fixed total simulation budget.
//! * [`multi_target`] (E1) — the paper's future-work extension: one shared
//!   search for several target groups vs one search per group.

use serde::{Deserialize, Serialize};

use ascdg_core::{
    pool_scope, sampling::random_sample, ApproxTarget, BatchRunner, CdgFlow, CdgObjective,
    FlowConfig, FlowError, Skeletonizer,
};
use ascdg_coverage::EventId;
use ascdg_duv::{io_unit::IoEnv, l3cache::L3Env, VerifEnv};
use ascdg_opt::{
    Bounds, CompassOptions, CompassSearch, IfBfgsOptions, IfOptions, ImplicitFiltering,
    ImplicitFilteringBfgs, NelderMead, NmOptions, Optimizer, RandomSearch, RsOptions, Spsa,
    SpsaOptions,
};
use ascdg_template::Skeleton;

/// Everything the L3-based ablations share: environment, regression
/// repository, chosen skeleton, approximated target and real targets.
pub struct L3Setup {
    /// The L3 environment.
    pub env: L3Env,
    /// The skeleton of the TAC-chosen template.
    pub skeleton: Skeleton,
    /// The approximated target over family neighbors.
    pub approx: ApproxTarget,
    /// The real (uncovered) target events.
    pub targets: Vec<EventId>,
    /// Flow configuration (scaled).
    pub config: FlowConfig,
}

/// Builds the shared L3 setup at the given scale: regression, target
/// discovery, neighbor weighting, coarse TAC search and skeletonization —
/// everything up to (but not including) the fine-grained search.
///
/// # Errors
///
/// Propagates regression/TAC/skeletonization failures.
pub fn l3_setup(scale: f64, seed: u64) -> Result<L3Setup, FlowError> {
    use ascdg_coverage::EventFamily;
    use ascdg_tac::TacQuery;

    let env = L3Env::new();
    let config = FlowConfig::paper_l3().scaled(scale);
    let flow = CdgFlow::new(env.clone(), config.clone());
    let repo = flow.run_regression(seed)?;
    let model = env.coverage_model();
    let family = EventFamily::discover(model)
        .into_iter()
        .find(|f| f.stem() == "byp_reqs")
        .expect("L3 model declares the byp_reqs family");
    let targets: Vec<EventId> = family
        .events()
        .into_iter()
        .filter(|&e| repo.global_stats(e).hits == 0)
        .collect();
    if targets.is_empty() {
        return Err(FlowError::NoTargets(
            "byp_reqs family already covered at this scale".to_owned(),
        ));
    }
    let approx = ApproxTarget::auto(model, &targets, config.neighbor_decay)?;
    let ranking = TacQuery::new(approx.weights().iter().copied()).top_n(&repo, 1);
    let chosen = ranking.first().ok_or(FlowError::NoEvidence)?;
    let template = env
        .stock_library()
        .get(chosen.template.index())
        .expect("TAC ranks recorded templates")
        .clone();
    let skeleton = Skeletonizer::new()
        .with_subranges(config.subranges)
        .skeletonize(&template)?;
    Ok(L3Setup {
        env,
        skeleton,
        approx,
        targets,
        config,
    })
}

fn real_only_target(targets: &[EventId]) -> ApproxTarget {
    ApproxTarget::from_weights(targets.to_vec(), targets.iter().map(|&e| (e, 1.0)))
}

fn if_options(config: &FlowConfig) -> IfOptions {
    IfOptions {
        n_directions: config.opt_directions,
        initial_step: config.opt_initial_step,
        max_iters: config.opt_iterations,
        ..IfOptions::default()
    }
}

/// Re-assesses a settings vector with an independent batch, so optimizers
/// with different evaluation counts are compared without the upward bias
/// of "max over noisy samples".
fn assess<'env>(
    setup: &'env L3Setup,
    runner: &BatchRunner<'env>,
    x: &[f64],
    sims: u64,
    seed: u64,
) -> f64 {
    let template = setup
        .skeleton
        .instantiate(x)
        .expect("dimensions match")
        .renamed("ablation_assess");
    let stats = runner
        .run(&setup.env, &template, sims, seed)
        .expect("skeleton templates simulate");
    setup.approx.value(|e| stats.rate(e))
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

/// A1: optimize with vs without the approximated target.
///
/// # Errors
///
/// Propagates setup failures.
pub fn no_approx(scale: f64, seed: u64) -> Result<NoApproxResult, FlowError> {
    let setup = l3_setup(scale, seed)?;
    Ok(pool_scope(setup.config.threads, |pool| {
        let run = |objective_target: &ApproxTarget| -> f64 {
            let runner = BatchRunner::new(pool);
            let mut sample_obj = CdgObjective::new(
                &setup.env,
                &setup.skeleton,
                objective_target,
                setup.config.sample_sims,
                runner.clone(),
                seed ^ 0xa1,
            );
            let sample = random_sample(&mut sample_obj, setup.config.sample_templates, seed ^ 0xa2);
            let mut opt_obj = CdgObjective::new(
                &setup.env,
                &setup.skeleton,
                objective_target,
                setup.config.opt_sims,
                runner.clone(),
                seed ^ 0xa3,
            );
            let result = ImplicitFiltering::new(if_options(&setup.config)).maximize(
                &mut opt_obj,
                &Bounds::unit(setup.skeleton.num_slots()),
                &sample.best_settings,
                seed ^ 0xa4,
            );
            // Assess the harvested template on the REAL targets either way.
            let best = setup
                .skeleton
                .instantiate(&result.best_x)
                .expect("dimensions match")
                .renamed("ablation_best");
            let stats = runner
                .run(&setup.env, &best, setup.config.best_sims, seed ^ 0xa5)
                .expect("skeleton templates simulate");
            setup.targets.iter().map(|&e| stats.rate(e)).sum()
        };
        NoApproxResult {
            with_approx_target_rate: run(&setup.approx),
            without_approx_target_rate: run(&real_only_target(&setup.targets)),
        }
    }))
}

/// Outcome of the A2 ablation. Both values are independent re-assessments
/// of the final point, so the comparison is unbiased.
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

/// A2: skip the random-sample phase.
///
/// # Errors
///
/// Propagates setup failures.
pub fn no_sample(scale: f64, seed: u64) -> Result<NoSampleResult, FlowError> {
    let setup = l3_setup(scale, seed)?;
    Ok(pool_scope(setup.config.threads, |pool| {
        let runner = BatchRunner::new(pool);
        let bounds = Bounds::unit(setup.skeleton.num_slots());

        // With sampling: n x N sampling sims + the optimization budget.
        let mut sample_obj = CdgObjective::new(
            &setup.env,
            &setup.skeleton,
            &setup.approx,
            setup.config.sample_sims,
            runner.clone(),
            seed ^ 0xb1,
        );
        let sample = random_sample(&mut sample_obj, setup.config.sample_templates, seed ^ 0xb2);
        let mut opt_obj = CdgObjective::new(
            &setup.env,
            &setup.skeleton,
            &setup.approx,
            setup.config.opt_sims,
            runner.clone(),
            seed ^ 0xb3,
        );
        let with = ImplicitFiltering::new(if_options(&setup.config)).maximize(
            &mut opt_obj,
            &bounds,
            &sample.best_settings,
            seed ^ 0xb4,
        );

        // Without sampling: same total simulation budget, all given to the
        // optimizer, starting from the box center.
        let sample_budget = setup.config.sample_templates as u64 * setup.config.sample_sims;
        let extra_iters = (sample_budget
            / (setup.config.opt_sims * (setup.config.opt_directions as u64 + 1)))
            as usize;
        let mut opts = if_options(&setup.config);
        opts.max_iters += extra_iters;
        let mut cold_obj = CdgObjective::new(
            &setup.env,
            &setup.skeleton,
            &setup.approx,
            setup.config.opt_sims,
            runner.clone(),
            seed ^ 0xb5,
        );
        let without = ImplicitFiltering::new(opts).maximize(
            &mut cold_obj,
            &bounds,
            &bounds.center(),
            seed ^ 0xb6,
        );

        let assess_sims = 500.max(setup.config.best_sims);
        NoSampleResult {
            with_sampling: assess(&setup, &runner, &with.best_x, assess_sims, seed ^ 0xb7),
            without_sampling: assess(&setup, &runner, &without.best_x, assess_sims, seed ^ 0xb8),
        }
    }))
}

/// One optimizer's row in the A3 comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizerRow {
    /// Optimizer name.
    pub name: String,
    /// Independent re-assessment of the optimizer's final point.
    pub best_value: f64,
    /// Objective evaluations spent.
    pub evals: u64,
}

/// A3: optimizer comparison under an equal evaluation budget.
///
/// # Errors
///
/// Propagates setup failures.
pub fn optimizers(scale: f64, seed: u64) -> Result<Vec<OptimizerRow>, FlowError> {
    let setup = l3_setup(scale, seed)?;
    let bounds = Bounds::unit(setup.skeleton.num_slots());
    let budget = (setup.config.opt_iterations as u64) * (setup.config.opt_directions as u64 + 1);

    Ok(pool_scope(setup.config.threads, |pool| {
        let start = {
            let runner = BatchRunner::new(pool);
            let mut obj = CdgObjective::new(
                &setup.env,
                &setup.skeleton,
                &setup.approx,
                setup.config.sample_sims,
                runner,
                seed ^ 0xc0,
            );
            random_sample(&mut obj, setup.config.sample_templates, seed ^ 0xc1).best_settings
        };

        let contenders: Vec<Box<dyn Optimizer>> = vec![
            Box::new(ImplicitFiltering::new(IfOptions {
                max_evals: budget,
                max_iters: usize::MAX,
                n_directions: setup.config.opt_directions,
                ..IfOptions::default()
            })),
            Box::new(RandomSearch::new(RsOptions {
                samples: budget,
                target_value: None,
            })),
            Box::new(CompassSearch::new(CompassOptions {
                max_evals: budget,
                max_iters: usize::MAX,
                ..CompassOptions::default()
            })),
            Box::new(NelderMead::new(NmOptions {
                max_evals: budget,
                max_iters: usize::MAX,
                ..NmOptions::default()
            })),
            Box::new(Spsa::new(SpsaOptions {
                max_evals: budget,
                max_iters: usize::MAX,
                ..SpsaOptions::default()
            })),
            Box::new(ImplicitFilteringBfgs::new(IfBfgsOptions {
                max_evals: budget,
                max_iters: usize::MAX,
                ..IfBfgsOptions::default()
            })),
        ];

        // Single runs of a noisy search are themselves noisy; average each
        // contender over several independent repeats.
        const REPEATS: u64 = 3;
        let mut rows = Vec::new();
        for opt in contenders {
            let runner = BatchRunner::new(pool);
            let assess_sims = 500.max(setup.config.best_sims);
            let mut total_value = 0.0;
            let mut total_evals = 0;
            for rep in 0..REPEATS {
                let mut obj = CdgObjective::new(
                    &setup.env,
                    &setup.skeleton,
                    &setup.approx,
                    setup.config.opt_sims,
                    runner.clone(),
                    seed ^ 0xc2 ^ (rep << 8),
                );
                let r = opt.maximize(&mut obj, &bounds, &start, seed ^ 0xc3 ^ rep);
                total_value += assess(&setup, &runner, &r.best_x, assess_sims, seed ^ 0xc4 ^ rep);
                total_evals += r.evals;
            }
            rows.push(OptimizerRow {
                name: opt.name().to_owned(),
                best_value: total_value / REPEATS as f64,
                evals: total_evals / REPEATS,
            });
        }
        rows
    }))
}

/// One `N` setting's row in the A4 study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseRow {
    /// Simulations per point.
    pub n: u64,
    /// Best value re-assessed with a large independent batch (so rows are
    /// comparable despite their different per-eval noise).
    pub assessed_value: f64,
    /// Optimizer iterations completed within the budget.
    pub iterations: usize,
}

/// A4: the `N` (samples per point) noise/budget trade-off under a fixed
/// total simulation budget.
///
/// # Errors
///
/// Propagates setup failures.
pub fn noise_n(scale: f64, seed: u64, ns: &[u64]) -> Result<Vec<NoiseRow>, FlowError> {
    let setup = l3_setup(scale, seed)?;
    let bounds = Bounds::unit(setup.skeleton.num_slots());
    let total_sims = setup.config.opt_iterations as u64
        * (setup.config.opt_directions as u64 + 1)
        * setup.config.opt_sims;
    Ok(pool_scope(setup.config.threads, |pool| {
        let runner = BatchRunner::new(pool);
        const REPEATS: u64 = 3;
        let mut rows = Vec::new();
        for &n in ns {
            let evals = (total_sims / n.max(1)).max(1);
            let mut total_value = 0.0;
            let mut iterations = 0;
            for rep in 0..REPEATS {
                let mut obj = CdgObjective::new(
                    &setup.env,
                    &setup.skeleton,
                    &setup.approx,
                    n,
                    runner.clone(),
                    seed ^ 0xd1 ^ n ^ (rep << 8),
                );
                let r = ImplicitFiltering::new(IfOptions {
                    max_evals: evals,
                    max_iters: usize::MAX,
                    n_directions: setup.config.opt_directions,
                    ..IfOptions::default()
                })
                .maximize(&mut obj, &bounds, &bounds.center(), seed ^ 0xd2 ^ rep);
                // Re-assess the winner with an independent large batch.
                total_value += assess(
                    &setup,
                    &runner,
                    &r.best_x,
                    400.max(setup.config.best_sims),
                    seed ^ 0xd3 ^ rep,
                );
                iterations += r.trace.len();
            }
            rows.push(NoiseRow {
                n,
                assessed_value: total_value / REPEATS as f64,
                iterations: iterations / REPEATS as usize,
            });
        }
        rows
    }))
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
/// on the I/O unit's deep CRC events.
///
/// # Errors
///
/// Propagates flow failures.
pub fn multi_target(scale: f64, seed: u64) -> Result<MultiTargetStudy, FlowError> {
    let env = IoEnv::new();
    let config = FlowConfig::paper_io().scaled(scale);
    let flow = CdgFlow::new(env, config.clone());
    let repo = flow.run_regression(seed ^ 0xe0)?;
    let model = flow.env().coverage_model();
    let groups = vec![
        vec![model.id("crc_032")?, model.id("crc_064")?],
        vec![model.id("crc_096")?],
    ];

    let shared = flow.run_multi_target(&repo, &groups, seed ^ 0xe1)?;

    let mut separate_sims = 0;
    let mut separate_targets_hit = 0;
    for (i, group) in groups.iter().enumerate() {
        let approx = ApproxTarget::auto(model, group, config.neighbor_decay)?;
        let out = flow.run_phases(&repo, approx, seed ^ 0xe2 ^ i as u64)?;
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
}
