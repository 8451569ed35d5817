//! The concrete pipeline stages of the AS-CDG flow (Fig. 2).
//!
//! Each box of the paper's flow is one [`Stage`]: it reads its inputs from
//! the [`SessionCx`], derives its own seed stream via
//! [`SessionCx::stage_seed`] (the salts are part of the output contract —
//! changing one changes every downstream result), and writes its products
//! back into the session state. The
//! [`FlowEngine`](crate::FlowEngine) sequences the stages; custom
//! pipelines compose their own list (the multi-target flow reuses the
//! shared prefix without [`Refine`]).

use std::sync::Arc;
use std::time::Instant;

use ascdg_coverage::{CoverageRepository, EventFamily, EventId, TemplateId};
use ascdg_duv::VerifEnv;
use ascdg_opt::{Bounds, IfOptions, ImplicitFiltering, OptResult, Optimizer};
use ascdg_stimgen::mix_seed;
use ascdg_tac::{relevant_params, TacQuery};
use ascdg_template::Skeleton;

use crate::events::FlowEvent;
use crate::sampling::random_sample;
use crate::session::{SessionCx, TargetSpec};
use crate::{
    ApproxTarget, BatchRunner, CdgObjective, FlowError, PhaseStats, PhaseTiming, Skeletonizer,
    PHASE_BEST, PHASE_OPTIMIZATION, PHASE_REFINEMENT, PHASE_SAMPLING,
};

/// Name of the [`Regression`] stage.
pub const STAGE_REGRESSION: &str = "regression";
/// Name of the [`CoarseSearch`] stage.
pub const STAGE_COARSE: &str = "coarse-search";
/// Name of the [`Skeletonize`] stage.
pub const STAGE_SKELETONIZE: &str = "skeletonize";
/// Name of the [`RandomSample`] stage.
pub const STAGE_SAMPLE: &str = "random-sample";
/// Name of the [`Optimize`] stage.
pub const STAGE_OPTIMIZE: &str = "optimize";
/// Name of the [`Refine`] stage.
pub const STAGE_REFINE: &str = "refine";
/// Name of the [`Harvest`] stage.
pub const STAGE_HARVEST: &str = "harvest";

/// What one stage reports back to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageOutput {
    /// Simulations the stage ran (0 for analysis-only stages).
    pub sims: u64,
}

impl StageOutput {
    /// An output for a stage that ran no simulations.
    #[must_use]
    pub fn idle() -> Self {
        StageOutput::default()
    }

    /// An output reporting `sims` simulations.
    #[must_use]
    pub fn simulated(sims: u64) -> Self {
        StageOutput { sims }
    }
}

/// One composable step of the flow pipeline.
///
/// Implementations must be deterministic functions of the session state
/// and their [`SessionCx::stage_seed`] streams: no wall-clock, no ambient
/// RNG, no dependence on worker count. That is what makes the engine's
/// checkpoint/resume reproduce byte-identical outcomes.
pub trait Stage<E: VerifEnv>: Send + Sync {
    /// The stage's unique name (recorded in `SessionState::completed`).
    fn name(&self) -> &'static str;

    /// Runs the stage against the session.
    ///
    /// # Errors
    ///
    /// Any flow error; [`FlowError::MissingStageState`] when a
    /// prerequisite stage has not run.
    fn run(&self, cx: &mut SessionCx<'_, '_, E>) -> Result<StageOutput, FlowError>;
}

/// The full single-target stage list, in flow order.
#[must_use]
pub fn default_stages<E: VerifEnv>() -> Vec<Box<dyn Stage<E>>> {
    vec![
        Box::new(Regression),
        Box::new(CoarseSearch),
        Box::new(Skeletonize),
        Box::new(RandomSample),
        Box::new(Optimize::default()),
        Box::new(Refine),
        Box::new(Harvest::default()),
    ]
}

fn missing(stage: &'static str, what: &'static str) -> FlowError {
    FlowError::MissingStageState {
        stage,
        missing: what,
    }
}

fn skeleton_of<E: VerifEnv>(
    cx: &SessionCx<'_, '_, E>,
    stage: &'static str,
) -> Result<Skeleton, FlowError> {
    cx.state()
        .skeleton
        .clone()
        .ok_or_else(|| missing(stage, "skeleton"))
}

fn approx_of<E: VerifEnv>(
    cx: &SessionCx<'_, '_, E>,
    stage: &'static str,
) -> Result<ApproxTarget, FlowError> {
    cx.state()
        .approx
        .clone()
        .ok_or_else(|| missing(stage, "approximated target"))
}

/// Simulates the whole stock library into a fresh coverage repository —
/// the "Before CDG" state the coarse search mines.
///
/// Runs on the session's runner, so the regression shares the engine's
/// pool with every other stage; sessions seeded with a pre-built
/// repository skip this stage entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct Regression;

/// Shared regression body (also behind
/// [`CdgFlow::run_regression`](crate::CdgFlow::run_regression) and
/// [`FlowEngine::regression_checkpoint`](crate::FlowEngine::regression_checkpoint)):
/// every stock template's run is merged into the repository once, on the
/// calling thread.
pub(crate) fn regression_repository<'env, E: VerifEnv>(
    env: &'env E,
    runner: &BatchRunner<'env>,
    sims_per_template: u64,
    seed: u64,
) -> Result<CoverageRepository, FlowError> {
    let lib = env.stock_library();
    if lib.is_empty() {
        return Err(FlowError::EmptyLibrary);
    }
    let repo = CoverageRepository::new(env.coverage_model().clone());
    for (idx, template) in lib.iter() {
        runner.run_recorded(
            env,
            template,
            sims_per_template,
            mix_seed(seed, idx as u64),
            &repo,
            TemplateId(idx as u32),
        )?;
    }
    Ok(repo)
}

impl<E: VerifEnv> Stage<E> for Regression {
    fn name(&self) -> &'static str {
        STAGE_REGRESSION
    }

    fn run(&self, cx: &mut SessionCx<'_, '_, E>) -> Result<StageOutput, FlowError> {
        let seed = cx.stage_seed(0xbef0);
        let repo = regression_repository(
            cx.env(),
            &cx.runner(),
            cx.config().regression_sims_per_template,
            seed,
        )?;
        let sims = repo.total_simulations();
        cx.set_repo(repo);
        Ok(StageOutput::simulated(sims))
    }
}

/// Section IV-A + IV-B: resolves the session's [`TargetSpec`] into an
/// approximated target, then runs the coarse-grained TAC search over the
/// stock library to choose the template to tune.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoarseSearch;

fn resolve_targets<E: VerifEnv>(cx: &SessionCx<'_, '_, E>) -> Result<ApproxTarget, FlowError> {
    let model = cx.env().coverage_model();
    let decay = cx.config().neighbor_decay;
    match &cx.state().target_spec {
        TargetSpec::Family(stem) => {
            let family = EventFamily::discover(model)
                .into_iter()
                .find(|f| f.stem() == stem.as_str())
                .ok_or_else(|| FlowError::UnknownFamily(stem.clone()))?;
            let repo = cx.repo()?;
            let targets: Vec<EventId> = family
                .events()
                .into_iter()
                .filter(|&e| repo.global_stats(e).hits == 0)
                .collect();
            if targets.is_empty() {
                return Err(FlowError::NoTargets(format!(
                    "family `{stem}` is already fully covered"
                )));
            }
            ApproxTarget::auto(model, &targets, decay)
        }
        TargetSpec::Uncovered => {
            let targets = cx.repo()?.uncovered_events();
            if targets.is_empty() {
                return Err(FlowError::NoTargets(
                    "every event is already covered".to_owned(),
                ));
            }
            ApproxTarget::auto(model, &targets, decay)
        }
        TargetSpec::Explicit(targets) => ApproxTarget::auto(model, targets, decay),
        TargetSpec::Weighted(approx) => Ok(approx.clone()),
    }
}

impl<E: VerifEnv> Stage<E> for CoarseSearch {
    fn name(&self) -> &'static str {
        STAGE_COARSE
    }

    fn run(&self, cx: &mut SessionCx<'_, '_, E>) -> Result<StageOutput, FlowError> {
        if cx.state().approx.is_none() {
            let approx = resolve_targets(cx)?;
            cx.state_mut().approx = Some(approx);
        }
        let approx = approx_of(cx, STAGE_COARSE)?;
        let cfg = cx.config();
        let ranking = TacQuery::new(approx.weights().iter().copied())
            .with_min_sims(cfg.regression_sims_per_template.min(10))
            .top_n(cx.repo()?, cfg.tac_top_n);
        // Per-template hit telemetry from the TAC ranking: what evidence
        // the coarse search saw per candidate, keyed by template name
        // (`stage.coarse-search.template_hits.<template>` and the sims
        // behind it; see docs/OBSERVABILITY.md).
        if let Some(m) = cx.telemetry().metrics() {
            let library = cx.env().stock_library();
            for r in &ranking {
                if let Some(template) = library.get(r.template.index()) {
                    let hits: u64 = r.per_event.iter().map(|(_, st)| st.hits).sum();
                    m.counter(&format!(
                        "stage.coarse-search.template_hits.{}",
                        template.name()
                    ))
                    .add(hits);
                    m.counter(&format!(
                        "stage.coarse-search.template_sims.{}",
                        template.name()
                    ))
                    .add(r.sims);
                }
            }
        }
        let chosen = ranking
            .first()
            .filter(|r| r.score > 0.0)
            .ok_or(FlowError::NoEvidence)?;
        let library = cx.env().stock_library();
        let chosen_template = library
            .get(chosen.template.index())
            .ok_or(FlowError::StaleRepository {
                template_index: chosen.template.index(),
            })?
            .clone();
        let relevant = relevant_params(library, &ranking);
        let state = cx.state_mut();
        state.chosen_template = Some(chosen_template);
        state.relevant_params = relevant;
        Ok(StageOutput::idle())
    }
}

/// Section IV-C: skeletonizes the chosen template, marking the tunable
/// weights and splitting range parameters into weighted subranges.
#[derive(Debug, Clone, Copy, Default)]
pub struct Skeletonize;

impl<E: VerifEnv> Stage<E> for Skeletonize {
    fn name(&self) -> &'static str {
        STAGE_SKELETONIZE
    }

    fn run(&self, cx: &mut SessionCx<'_, '_, E>) -> Result<StageOutput, FlowError> {
        let template = cx
            .state()
            .chosen_template
            .clone()
            .ok_or_else(|| missing(STAGE_SKELETONIZE, "chosen template"))?;
        let cfg = cx.config();
        let skeleton = Skeletonizer::new()
            .with_subranges(cfg.subranges)
            .include_zero_weights(cfg.include_zero_weights)
            .skeletonize(&template)?;
        let relevant = cx.state().relevant_params.clone();
        cx.emit(FlowEvent::CoarseChoice {
            template: template.name().to_owned(),
            relevant_params: relevant,
        });
        cx.state_mut().skeleton = Some(skeleton);
        Ok(StageOutput::idle())
    }
}

/// Section IV-D: the random-sample phase — `n` uniform settings vectors,
/// `N` simulations each; the best seeds the optimizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSample;

impl<E: VerifEnv> Stage<E> for RandomSample {
    fn name(&self) -> &'static str {
        STAGE_SAMPLE
    }

    fn run(&self, cx: &mut SessionCx<'_, '_, E>) -> Result<StageOutput, FlowError> {
        let skeleton = skeleton_of(cx, STAGE_SAMPLE)?;
        let approx = approx_of(cx, STAGE_SAMPLE)?;
        let cfg = cx.config().clone();
        cx.emit(FlowEvent::PhaseStarted {
            phase: PHASE_SAMPLING.to_owned(),
            planned_sims: cfg.sample_templates as u64 * cfg.sample_sims,
        });
        let mut obj = CdgObjective::new(
            cx.env(),
            &skeleton,
            &approx,
            cfg.sample_sims,
            cx.runner(),
            cx.stage_seed(0x5a4c),
        );
        let phase_clock = Instant::now();
        let sample = random_sample(&mut obj, cfg.sample_templates, cx.stage_seed(1));
        let stats = obj.phase_stats();
        let timing = PhaseTiming::measure(PHASE_SAMPLING, stats.sims, phase_clock.elapsed());
        cx.emit(FlowEvent::BestObjective {
            phase: PHASE_SAMPLING.to_owned(),
            iteration: 0,
            value: sample.best_value,
        });
        cx.record_phase(
            PhaseStats {
                name: PHASE_SAMPLING.to_owned(),
                sims: stats.sims,
                hits: stats.hits,
            },
            timing,
        );
        cx.state_mut().start_settings = Some(sample.best_settings);
        Ok(StageOutput::simulated(stats.sims))
    }
}

/// One fine-search phase as [`Optimize`] and [`Refine`] run it: its
/// iteration budget, the objective's target, the starting point, and the
/// salts of the objective's and the optimizer's seed streams.
struct FineSearch<'a> {
    stage: &'static str,
    phase: &'static str,
    iterations: usize,
    target: &'a ApproxTarget,
    start: &'a [f64],
    salts: (u64, u64),
}

impl FineSearch<'_> {
    /// Announces the phase, maximizes the objective over the session's
    /// skeleton with `optimizer`, and records the trace, the per-iteration
    /// best values and the phase statistics. Returns the optimizer's
    /// result and the phase's simulations.
    fn run<E: VerifEnv>(
        self,
        cx: &mut SessionCx<'_, '_, E>,
        optimizer: &dyn Optimizer,
    ) -> Result<(OptResult, u64), FlowError> {
        let skeleton = skeleton_of(cx, self.stage)?;
        let cfg = cx.config().clone();
        let planned_sims = self.iterations as u64 * (cfg.opt_directions as u64 + 1) * cfg.opt_sims;
        cx.emit(FlowEvent::PhaseStarted {
            phase: self.phase.to_owned(),
            planned_sims,
        });
        let mut obj = CdgObjective::new(
            cx.env(),
            &skeleton,
            self.target,
            cfg.opt_sims,
            cx.runner(),
            cx.stage_seed(self.salts.0),
        );
        let phase_clock = Instant::now();
        let result = optimizer.maximize(
            &mut obj,
            &Bounds::unit(skeleton.num_slots()),
            self.start,
            cx.stage_seed(self.salts.1),
        );
        let stats = obj.phase_stats();
        let timing = PhaseTiming::measure(self.phase, stats.sims, phase_clock.elapsed());
        ascdg_opt::record_trace(self.stage, &result.trace, cx.telemetry());
        for rec in &result.trace {
            cx.emit(FlowEvent::BestObjective {
                phase: self.phase.to_owned(),
                iteration: rec.iter,
                value: rec.running_best,
            });
        }
        cx.record_phase(
            PhaseStats {
                name: self.phase.to_owned(),
                sims: stats.sims,
                hits: stats.hits,
            },
            timing,
        );
        Ok((result, stats.sims))
    }
}

/// Section IV-E: the fine-grained search over the noisy simulation
/// objective, started from the sampling phase's best point. By default
/// the search is the paper's implicit filtering (Algorithm 1), configured
/// from the session's [`FlowConfig`](crate::FlowConfig).
#[derive(Clone, Default)]
pub struct Optimize {
    optimizer: Option<Arc<dyn Optimizer + Send + Sync>>,
}

impl Optimize {
    /// An optimize stage that runs `optimizer` in place of the configured
    /// implicit filtering, with the default stage's objective, seed
    /// streams and announced budget.
    ///
    /// A session's state records which stages ran, not which optimizer
    /// ran them: a checkpoint from a session on such a stage list resumes
    /// only on an engine with the same stage list.
    #[must_use]
    pub fn with(optimizer: Arc<dyn Optimizer + Send + Sync>) -> Self {
        Optimize {
            optimizer: Some(optimizer),
        }
    }
}

impl<E: VerifEnv> Stage<E> for Optimize {
    fn name(&self) -> &'static str {
        STAGE_OPTIMIZE
    }

    fn run(&self, cx: &mut SessionCx<'_, '_, E>) -> Result<StageOutput, FlowError> {
        let approx = approx_of(cx, STAGE_OPTIMIZE)?;
        let start = cx
            .state()
            .start_settings
            .clone()
            .ok_or_else(|| missing(STAGE_OPTIMIZE, "sampling-phase starting point"))?;
        let cfg = cx.config();
        let optimizer = self.optimizer.clone().unwrap_or_else(|| {
            Arc::new(ImplicitFiltering::new(IfOptions {
                n_directions: cfg.opt_directions,
                initial_step: cfg.opt_initial_step,
                min_step: 1e-4,
                max_iters: cfg.opt_iterations,
                target_value: cfg.opt_target_value,
                resample_center: true,
                ..IfOptions::default()
            }))
        });
        let (result, sims) = FineSearch {
            stage: STAGE_OPTIMIZE,
            phase: PHASE_OPTIMIZATION,
            iterations: cfg.opt_iterations,
            target: &approx,
            start: &start,
            salts: (0x0b7, 2),
        }
        .run(cx, optimizer.as_ref())?;
        let state = cx.state_mut();
        state.best_settings = Some(result.best_x);
        state.trace = Some(result.trace);
        Ok(StageOutput::simulated(sims))
    }
}

/// Optional Section IV-E second pass: once the optimization produced
/// evidence for the *real* targets, repeat the search with the real
/// objective function. Self-skips when `refine_iterations` is 0 or there
/// is no evidence yet.
#[derive(Debug, Clone, Copy, Default)]
pub struct Refine;

impl<E: VerifEnv> Stage<E> for Refine {
    fn name(&self) -> &'static str {
        STAGE_REFINE
    }

    fn run(&self, cx: &mut SessionCx<'_, '_, E>) -> Result<StageOutput, FlowError> {
        let cfg = cx.config().clone();
        if cfg.refine_iterations == 0 {
            return Ok(StageOutput::idle());
        }
        let targets = approx_of(cx, STAGE_REFINE)?.targets().to_vec();
        let opt_stats = cx
            .state()
            .phase(PHASE_OPTIMIZATION)
            .ok_or_else(|| missing(STAGE_REFINE, "optimization-phase statistics"))?;
        if !targets.iter().any(|e| opt_stats.hits[e.index()] > 0) {
            return Ok(StageOutput::idle());
        }
        let best_x = cx
            .state()
            .best_settings
            .clone()
            .ok_or_else(|| missing(STAGE_REFINE, "optimized settings"))?;
        let real_target =
            ApproxTarget::from_weights(targets.clone(), targets.iter().map(|&e| (e, 1.0)));
        let optimizer = ImplicitFiltering::new(IfOptions {
            n_directions: cfg.opt_directions,
            initial_step: cfg.opt_initial_step / 2.0,
            min_step: 1e-4,
            max_iters: cfg.refine_iterations,
            resample_center: true,
            ..IfOptions::default()
        });
        let (result, sims) = FineSearch {
            stage: STAGE_REFINE,
            phase: PHASE_REFINEMENT,
            iterations: cfg.refine_iterations,
            target: &real_target,
            start: &best_x,
            salts: (0x4ef1, 0x4ef2),
        }
        .run(cx, &optimizer)?;
        // Keep the refined point only if it genuinely improved the real
        // target (the refinement may wander when evidence is thin).
        if result.best_value > 0.0 {
            cx.state_mut().best_settings = Some(result.best_x);
        }
        Ok(StageOutput::simulated(sims))
    }
}

/// Section IV-F: instantiates the best settings, renames the template for
/// the regression suite, and assesses it with a final simulation batch.
#[derive(Debug, Clone, Copy)]
pub struct Harvest {
    suffix: &'static str,
}

impl Default for Harvest {
    /// Harvests under the single-target `_cdg_best` suffix.
    fn default() -> Self {
        Harvest { suffix: "cdg_best" }
    }
}

impl Harvest {
    /// A harvest stage naming its template `<skeleton>_<suffix>`.
    #[must_use]
    pub fn with_suffix(suffix: &'static str) -> Self {
        Harvest { suffix }
    }
}

impl<E: VerifEnv> Stage<E> for Harvest {
    fn name(&self) -> &'static str {
        STAGE_HARVEST
    }

    fn run(&self, cx: &mut SessionCx<'_, '_, E>) -> Result<StageOutput, FlowError> {
        let skeleton = skeleton_of(cx, STAGE_HARVEST)?;
        let best_x = cx
            .state()
            .best_settings
            .clone()
            .ok_or_else(|| missing(STAGE_HARVEST, "optimized settings"))?;
        let cfg = cx.config().clone();
        cx.emit(FlowEvent::PhaseStarted {
            phase: PHASE_BEST.to_owned(),
            planned_sims: cfg.best_sims,
        });
        let best_template =
            skeleton
                .instantiate(&best_x)?
                .renamed(format!("{}_{}", skeleton.name(), self.suffix));
        let phase_clock = Instant::now();
        let stats = cx.runner().run(
            cx.env(),
            &best_template,
            cfg.best_sims,
            cx.stage_seed(0xbe57),
        )?;
        let timing = PhaseTiming::measure(PHASE_BEST, stats.sims, phase_clock.elapsed());
        cx.record_phase(
            PhaseStats {
                name: PHASE_BEST.to_owned(),
                sims: stats.sims,
                hits: stats.hits,
            },
            timing,
        );
        cx.state_mut().best_template = Some(best_template);
        Ok(StageOutput::simulated(stats.sims))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::pool_scope;
    use crate::{FlowConfig, FlowEngine, TargetSpec};
    use ascdg_duv::io_unit::IoEnv;

    fn test_threads() -> usize {
        std::env::var("ASCDG_TEST_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(4)
    }

    fn strip_timings(mut outcome: crate::FlowOutcome) -> String {
        outcome.timings.clear();
        serde_json::to_string(&outcome).unwrap()
    }

    /// The default stage list with `optimizer` in the optimize stage.
    fn stages_with(optimizer: Arc<dyn Optimizer + Send + Sync>) -> Vec<Box<dyn Stage<IoEnv>>> {
        default_stages()
            .into_iter()
            .map(|s| match s.name() {
                STAGE_OPTIMIZE => Box::new(Optimize::with(Arc::clone(&optimizer))),
                _ => s,
            })
            .collect()
    }

    #[test]
    fn optimize_with_the_configured_if_options_matches_the_default() {
        let env = IoEnv::new();
        let cfg = FlowConfig::quick();
        let explicit = Arc::new(ImplicitFiltering::new(IfOptions {
            n_directions: cfg.opt_directions,
            initial_step: cfg.opt_initial_step,
            min_step: 1e-4,
            max_iters: cfg.opt_iterations,
            max_evals: 0,
            target_value: cfg.opt_target_value,
            resample_center: true,
            direction_mode: Default::default(),
        }));
        let run = |stages: Vec<Box<dyn Stage<IoEnv>>>| {
            pool_scope(2, |pool| {
                let engine = FlowEngine::with_stages(&env, cfg.clone(), pool, stages);
                let mut cx = engine.session(TargetSpec::Family("crc_".to_owned()), 9);
                strip_timings(engine.run(&mut cx).unwrap())
            })
        };
        assert_eq!(run(stages_with(explicit)), run(default_stages()));
    }

    #[test]
    fn optimize_with_spsa_keeps_its_budget_and_resumes() {
        const BUDGET: u64 = 9;
        let env = IoEnv::new();
        let cfg = FlowConfig::quick();
        let spsa = Arc::new(ascdg_opt::Spsa::new(ascdg_opt::SpsaOptions {
            max_evals: BUDGET,
            max_iters: usize::MAX,
            ..Default::default()
        }));
        let mut after_optimize = None;
        let (golden, evals) = pool_scope(2, |pool| {
            let engine =
                FlowEngine::with_stages(&env, cfg.clone(), pool, stages_with(spsa.clone()));
            let mut cx = engine.session(TargetSpec::Family("crc_".to_owned()), 4);
            cx.subscribe(|event, state| {
                if matches!(event, FlowEvent::StageCompleted { stage, .. } if stage == STAGE_OPTIMIZE)
                {
                    after_optimize = Some(state.clone());
                }
            });
            let out = engine.run(&mut cx).unwrap();
            let evals = out.trace.last().map_or(0, |r| r.evals);
            (strip_timings(out), evals)
        });
        assert!(
            evals > 0 && evals <= BUDGET,
            "SPSA spent {evals} evaluations"
        );
        let resumed = pool_scope(2, |pool| {
            let engine = FlowEngine::with_stages(&env, cfg.clone(), pool, stages_with(spsa));
            let mut cx = engine.resume(after_optimize.unwrap()).unwrap();
            strip_timings(engine.run(&mut cx).unwrap())
        });
        assert_eq!(resumed, golden);
    }

    #[test]
    fn regression_simulates_on_the_engines_pool() {
        let env = IoEnv::new();
        // Steps a regression-only engine on a fresh pool of `threads`;
        // returns the repository and the jobs that pool was handed.
        let regress = |threads: usize| {
            let mut config = FlowConfig::quick();
            config.threads = threads;
            pool_scope(threads, |pool| {
                let engine =
                    FlowEngine::with_stages(&env, config, pool, vec![Box::new(Regression)]);
                let mut cx = engine.session(TargetSpec::Uncovered, 5);
                assert_eq!(engine.step(&mut cx).unwrap(), Some(STAGE_REGRESSION));
                (cx.repo().unwrap().snapshot(), pool.jobs_dispatched())
            })
        };
        let (serial, _) = regress(1);
        let (pooled, jobs) = regress(test_threads().max(2));
        assert!(jobs > 0, "the regression bypassed the engine's pool");
        assert_eq!(pooled, serial);
    }
}
