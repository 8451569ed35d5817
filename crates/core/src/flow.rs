//! The CDG-Runner: end-to-end orchestration of the AS-CDG flow (Fig. 2).

use serde::{de_field, Content, DeError, Deserialize, Serialize};

use ascdg_coverage::{
    CoverageModel, CoverageRepository, EventFamily, EventId, HitStats, StatusCounts, StatusPolicy,
};
use ascdg_duv::VerifEnv;
use ascdg_opt::Trace;
use ascdg_template::{Skeleton, TestTemplate};

use crate::engine::FlowEngine;
use crate::pool::pool_scope;
use crate::session::TargetSpec;
use crate::stages::regression_repository;
use crate::{ApproxTarget, BatchRunner, FlowError};

/// Name of the regression ("Before CDG") phase.
pub const PHASE_BEFORE: &str = "Before CDG";
/// Name of the random-sample phase.
pub const PHASE_SAMPLING: &str = "Sampling phase";
/// Name of the optimization phase.
pub const PHASE_OPTIMIZATION: &str = "Optimization phase";
/// Name of the optional real-target refinement phase (Section IV-E: "once
/// there is good evidence for the target event, we can repeat the process,
/// this time with the real objective function").
pub const PHASE_REFINEMENT: &str = "Refinement phase";
/// Name of the final assessment phase.
pub const PHASE_BEST: &str = "Running best test";

/// Simulation budgets and hyperparameters for one AS-CDG run.
///
/// The presets encode the budgets the paper reports for each unit
/// (Figs. 3-5); [`FlowConfig::scaled`] shrinks them proportionally for
/// tests and benches.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FlowConfig {
    /// Simulations per stock template in the regression phase.
    pub regression_sims_per_template: u64,
    /// Templates the coarse-grained TAC search returns.
    pub tac_top_n: usize,
    /// `n`: random templates in the sampling phase.
    pub sample_templates: usize,
    /// `N`: simulations per sampled template.
    pub sample_sims: u64,
    /// Optimizer iteration budget.
    pub opt_iterations: usize,
    /// Directions per optimizer iteration (the paper's per-iteration test
    /// count minus the resampled center).
    pub opt_directions: usize,
    /// `N`: simulations per optimization point.
    pub opt_sims: u64,
    /// Initial stencil size as a fraction of the settings box.
    pub opt_initial_step: f64,
    /// Stop the optimization phase early once the estimated approximated
    /// target reaches this value (the paper's third stopping criterion:
    /// "the hit probability of the target event"). `None` runs the full
    /// iteration budget.
    pub opt_target_value: Option<f64>,
    /// Extra optimizer iterations on the *real* target once the main
    /// optimization produced evidence for it (0 disables the refinement
    /// stage; the paper's tables report the flow without it).
    pub refine_iterations: usize,
    /// Assessment simulations of the harvested best template.
    pub best_sims: u64,
    /// Subranges the Skeletonizer splits each range parameter into.
    pub subranges: usize,
    /// Whether zero weights are also marked for tuning.
    pub include_zero_weights: bool,
    /// Geometric decay of neighbor weights.
    pub neighbor_decay: f64,
    /// Batch environment worker threads (`0` = machine-sized, i.e. one
    /// worker per available core, as in [`pool_scope`]).
    ///
    /// Every simulation of one run — the regression included — runs on a
    /// single persistent worker pool of this many threads, opened by the
    /// [`CdgFlow`] entry points; an engine built by hand runs on the pool
    /// it is given instead.
    pub threads: usize,
    /// Scheduler workers a campaign steps its target-group flows with over
    /// the shared worker pool (`1` = the calling thread alone, still
    /// round-robin stage by stage). Group seeds are salted per group
    /// index before any scheduling happens, so the
    /// [`CampaignOutcome`](crate::CampaignOutcome) is byte-identical at
    /// any value.
    pub campaign_jobs: usize,
}

fn default_campaign_jobs() -> usize {
    1
}

/// Deserialized by hand for one rule. Checkpoints written while
/// evaluations could be coalesced carry an `eval_strategy` field.
/// `"Indexed"`, the one seeding left, loads as if the field were absent.
/// Any other value names seed streams this build cannot reproduce, so it
/// is refused instead of silently resuming with indexed seeds. A
/// campaign's config and every group session's copy pass through here.
impl Deserialize for FlowConfig {
    fn deserialize(content: &Content) -> Result<Self, DeError> {
        if !matches!(content, Content::Map(_)) {
            return Err(DeError::expected("map", content));
        }
        match content.get("eval_strategy") {
            None => {}
            Some(Content::Str(s)) if s == "Indexed" => {}
            Some(Content::Str(s)) => {
                return Err(DeError::custom(format!(
                    "eval_strategy `{s}` was retired with evaluation coalescing; \
                     only `Indexed` checkpoints can resume"
                )))
            }
            Some(other) => return Err(DeError::expected("an eval_strategy name", other)),
        }
        Ok(FlowConfig {
            regression_sims_per_template: de_field(content, "regression_sims_per_template")?,
            tac_top_n: de_field(content, "tac_top_n")?,
            sample_templates: de_field(content, "sample_templates")?,
            sample_sims: de_field(content, "sample_sims")?,
            opt_iterations: de_field(content, "opt_iterations")?,
            opt_directions: de_field(content, "opt_directions")?,
            opt_sims: de_field(content, "opt_sims")?,
            opt_initial_step: de_field(content, "opt_initial_step")?,
            opt_target_value: de_field(content, "opt_target_value")?,
            refine_iterations: de_field(content, "refine_iterations")?,
            best_sims: de_field(content, "best_sims")?,
            subranges: de_field(content, "subranges")?,
            include_zero_weights: de_field(content, "include_zero_weights")?,
            neighbor_decay: de_field(content, "neighbor_decay")?,
            threads: de_field(content, "threads")?,
            campaign_jobs: de_field(content, "campaign_jobs")?,
        })
    }
}

impl FlowConfig {
    /// A tiny budget for unit tests and examples (seconds, not minutes).
    #[must_use]
    pub fn quick() -> Self {
        FlowConfig {
            regression_sims_per_template: 60,
            tac_top_n: 3,
            sample_templates: 16,
            sample_sims: 12,
            opt_iterations: 6,
            opt_directions: 8,
            opt_sims: 12,
            opt_initial_step: 0.25,
            opt_target_value: None,
            refine_iterations: 0,
            best_sims: 100,
            subranges: 4,
            include_zero_weights: false,
            neighbor_decay: 0.5,
            threads: 1,
            campaign_jobs: default_campaign_jobs(),
        }
    }

    /// The I/O-unit budget of Fig. 3: 669k regression sims (over the stock
    /// library), 200x100 sampling, 7 iterations x 20 tests x 200 sims,
    /// 10k best-test sims.
    #[must_use]
    pub fn paper_io() -> Self {
        FlowConfig {
            regression_sims_per_template: 41_813, // ~669k over 16 templates
            tac_top_n: 3,
            sample_templates: 200,
            sample_sims: 100,
            opt_iterations: 7,
            opt_directions: 19, // + resampled center = 20 tests/iteration
            opt_sims: 200,
            opt_initial_step: 0.25,
            opt_target_value: None,
            refine_iterations: 0,
            best_sims: 10_000,
            subranges: 4,
            include_zero_weights: false,
            neighbor_decay: 0.5,
            threads: 0,
            campaign_jobs: default_campaign_jobs(),
        }
    }

    /// The L3 budget of Fig. 4: 1M regression sims, 210x100 sampling,
    /// 25 iterations x 12 tests x 100 sims, 15k best-test sims.
    #[must_use]
    pub fn paper_l3() -> Self {
        FlowConfig {
            regression_sims_per_template: 66_667, // ~1M over 15 templates
            tac_top_n: 3,
            sample_templates: 210,
            sample_sims: 100,
            opt_iterations: 25,
            opt_directions: 11, // + resampled center = 12 tests/iteration
            opt_sims: 100,
            opt_initial_step: 0.25,
            opt_target_value: None,
            refine_iterations: 0,
            best_sims: 15_000,
            subranges: 4,
            include_zero_weights: false,
            neighbor_decay: 0.5,
            threads: 0,
            campaign_jobs: default_campaign_jobs(),
        }
    }

    /// An IFU budget in the same spirit (the paper's Fig. 5 does not list
    /// exact counts).
    #[must_use]
    pub fn paper_ifu() -> Self {
        FlowConfig {
            regression_sims_per_template: 5_000,
            tac_top_n: 3,
            sample_templates: 200,
            sample_sims: 100,
            opt_iterations: 20,
            opt_directions: 15,
            opt_sims: 100,
            opt_initial_step: 0.25,
            opt_target_value: None,
            refine_iterations: 0,
            best_sims: 10_000,
            subranges: 4,
            include_zero_weights: false,
            neighbor_decay: 0.5,
            threads: 0,
            campaign_jobs: default_campaign_jobs(),
        }
    }

    /// Scales every simulation budget by `factor` (each count stays at
    /// least 1; template/direction counts are scaled too, with floors that
    /// keep the flow functional — in particular `sample_templates` and
    /// `tac_top_n` can never scale below 1, so an aggressive factor cannot
    /// produce a zero-template sampling phase or an empty coarse search).
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        let f = factor.max(0.0);
        let scale_u64 = |v: u64| ((v as f64 * f).round() as u64).max(1);
        let scale_usize =
            |v: usize, floor: usize| ((v as f64 * f).round() as usize).max(floor.max(1));
        self.regression_sims_per_template = scale_u64(self.regression_sims_per_template);
        self.tac_top_n = scale_usize(self.tac_top_n, 1);
        self.sample_templates = scale_usize(self.sample_templates, 4);
        self.sample_sims = scale_u64(self.sample_sims);
        self.opt_iterations = scale_usize(self.opt_iterations, 3);
        self.opt_sims = scale_u64(self.opt_sims);
        self.best_sims = scale_u64(self.best_sims);
        self
    }
}

/// Per-phase accumulated statistics: the columns of the paper's tables.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Phase name (one of the `PHASE_*` constants).
    pub name: String,
    /// Total simulations in the phase.
    pub sims: u64,
    /// Per-event hit counts, indexed by event id.
    pub hits: Vec<u64>,
}

impl PhaseStats {
    /// The accumulated stats of one event.
    #[must_use]
    pub fn stats(&self, e: EventId) -> HitStats {
        HitStats {
            hits: self.hits[e.index()],
            sims: self.sims,
        }
    }

    /// The hit rate of one event.
    #[must_use]
    pub fn rate(&self, e: EventId) -> f64 {
        self.stats(e).rate()
    }

    /// Classifies every event and counts the buckets (Fig. 5's view).
    #[must_use]
    pub fn status_counts(&self, policy: StatusPolicy) -> StatusCounts {
        policy.count(self.hits.iter().map(|&hits| HitStats {
            hits,
            sims: self.sims,
        }))
    }
}

/// Wall-clock measurement of one flow phase.
///
/// Timings are observational: they vary run to run and with the thread
/// count, so they live next to — never inside — the deterministic
/// [`PhaseStats`], which must stay byte-identical across worker counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Phase name (one of the `PHASE_*` constants).
    pub name: String,
    /// Wall-clock time the phase took, in milliseconds.
    pub wall_ms: f64,
    /// Simulations the phase ran (the count behind `sims_per_sec`).
    #[serde(default)]
    pub sims: u64,
    /// Simulation throughput (simulations per wall-clock second). `None`
    /// when the phase took exactly zero seconds on the wall clock.
    #[serde(default)]
    pub sims_per_sec: Option<f64>,
}

impl PhaseTiming {
    /// Builds a timing record from a phase's simulation count and elapsed
    /// wall-clock time.
    #[must_use]
    pub fn measure(name: &str, sims: u64, elapsed: std::time::Duration) -> Self {
        let secs = elapsed.as_secs_f64();
        PhaseTiming {
            name: name.to_owned(),
            wall_ms: secs * 1e3,
            sims,
            sims_per_sec: (secs > 0.0).then(|| sims as f64 / secs),
        }
    }
}

/// Everything one AS-CDG run produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowOutcome {
    /// The unit the flow ran against.
    pub unit: String,
    /// The unit's coverage model.
    pub model: CoverageModel,
    /// The real target events.
    pub targets: Vec<EventId>,
    /// The approximated target used by every search phase.
    pub approx_target: ApproxTarget,
    /// Name of the stock template the coarse-grained search chose.
    pub chosen_template: String,
    /// Relevant parameters extracted from the top TAC templates.
    pub relevant_params: Vec<String>,
    /// The skeleton the fine-grained search explored.
    pub skeleton: Skeleton,
    /// Phase statistics, in flow order (`PHASE_*` names).
    pub phases: Vec<PhaseStats>,
    /// Wall-clock timings of the simulation phases, in flow order. Unlike
    /// `phases`, these depend on the machine and the worker count.
    #[serde(default)]
    pub timings: Vec<PhaseTiming>,
    /// The harvested best template.
    pub best_template: TestTemplate,
    /// The settings vector that produced it.
    pub best_settings: Vec<f64>,
    /// The optimizer's per-iteration trace (Fig. 6's series).
    pub trace: Trace,
}

impl FlowOutcome {
    /// Looks up a phase by name.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// The family events the report table lists: the family containing the
    /// first target if one exists, otherwise all weighted events.
    #[must_use]
    pub fn table_events(&self) -> Vec<EventId> {
        if let Some(&first) = self.targets.first() {
            if let Some(fam) = EventFamily::containing(&self.model, first) {
                return fam.events();
            }
        }
        self.approx_target
            .weights()
            .iter()
            .map(|&(e, _)| e)
            .collect()
    }

    /// Renders the full human-readable report (the family table, or for
    /// a cross-product model the status chart and its per-feature
    /// breakdown, plus the optimization trace).
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        if self.model.cross_product().is_some() {
            let policy = StatusPolicy::default();
            out.push_str(&crate::report::render_status_chart(self, policy));
            out.push('\n');
            out.push_str(&crate::report::render_cross_breakdown(self, policy));
        } else {
            out.push_str(&crate::report::render_family_table(self));
        }
        out.push('\n');
        out.push_str(&crate::report::render_trace_chart(&self.trace));
        let timings = crate::report::render_timings(self);
        if !timings.is_empty() {
            out.push('\n');
            out.push_str(&timings);
        }
        out
    }
}

/// The CDG-Runner: wires the environment, the configuration and the phase
/// implementations together.
///
/// # Examples
///
/// ```
/// use ascdg_core::{CdgFlow, FlowConfig};
/// use ascdg_duv::io_unit::IoEnv;
///
/// let flow = CdgFlow::new(IoEnv::new(), FlowConfig::quick());
/// let outcome = flow.run_for_family("crc_", 7)?;
/// assert_eq!(outcome.unit, "io_unit");
/// assert_eq!(outcome.phases.len(), 4);
/// # Ok::<(), ascdg_core::FlowError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CdgFlow<E> {
    env: E,
    config: FlowConfig,
}

impl<E: VerifEnv> CdgFlow<E> {
    /// Creates a flow over `env` with the given budgets.
    pub fn new(env: E, config: FlowConfig) -> Self {
        CdgFlow { env, config }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// The environment the flow runs against.
    #[must_use]
    pub fn env(&self) -> &E {
        &self.env
    }

    /// Runs the regression phase on a scoped worker pool: simulates the
    /// whole stock library into a fresh coverage repository (the "Before
    /// CDG" state).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::EmptyLibrary`] when there is nothing to run,
    /// or any batch error.
    pub fn run_regression(&self, seed: u64) -> Result<CoverageRepository, FlowError> {
        pool_scope(self.config.threads, |pool| {
            regression_repository(
                &self.env,
                &BatchRunner::new(pool),
                self.config.regression_sims_per_template,
                seed,
            )
        })
    }

    /// Runs a full engine session (all stages, including regression) on a
    /// scoped worker pool.
    fn run_session(&self, spec: TargetSpec, seed: u64) -> Result<FlowOutcome, FlowError> {
        pool_scope(self.config.threads, |pool| {
            let engine = FlowEngine::new(&self.env, self.config.clone(), pool);
            let mut cx = engine.session(spec, seed);
            engine.run(&mut cx)
        })
    }

    /// Full flow against the uncovered members of the event family with
    /// the given name stem (e.g. `"byp_reqs"` or `"crc_"`).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownFamily`] if no such family exists and
    /// [`FlowError::NoTargets`] if all its members are already covered
    /// after regression, plus any downstream phase error.
    pub fn run_for_family(&self, stem: &str, seed: u64) -> Result<FlowOutcome, FlowError> {
        // Validate the family before spending any simulations on the
        // regression (the engine's coarse-search stage re-resolves it
        // against the repository to pick the uncovered members).
        let model = self.env.coverage_model();
        EventFamily::discover(model)
            .into_iter()
            .find(|f| f.stem() == stem)
            .ok_or_else(|| FlowError::UnknownFamily(stem.to_owned()))?;
        self.run_session(TargetSpec::Family(stem.to_owned()), seed)
    }

    /// Full flow against every event still uncovered after regression —
    /// the cross-product usage of Fig. 5.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NoTargets`] when nothing is uncovered, plus
    /// any downstream phase error.
    pub fn run_for_uncovered(&self, seed: u64) -> Result<FlowOutcome, FlowError> {
        self.run_session(TargetSpec::Uncovered, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowEvent;
    use ascdg_duv::io_unit::IoEnv;
    use ascdg_duv::l3cache::L3Env;

    #[test]
    fn config_scaling_floors() {
        let c = FlowConfig::paper_l3().scaled(0.0001);
        assert!(c.regression_sims_per_template >= 1);
        assert!(c.sample_templates >= 4);
        assert!(c.opt_iterations >= 3);
        // Aggressive factors must never zero out the coarse search or the
        // sampling phase.
        assert!(c.tac_top_n >= 1);
        assert!(c.sample_sims >= 1 && c.opt_sims >= 1 && c.best_sims >= 1);
        let c = FlowConfig::quick().scaled(0.0);
        assert!(c.tac_top_n >= 1 && c.sample_templates >= 4);
    }

    #[test]
    fn quick_flow_on_io_unit_improves_family() {
        let flow = CdgFlow::new(IoEnv::new(), FlowConfig::quick());
        let out = flow.run_for_family("crc_", 3).unwrap();
        assert_eq!(out.phases.len(), 4);
        assert_eq!(out.phases[0].name, PHASE_BEFORE);
        assert!(!out.targets.is_empty());
        assert!(out.skeleton.num_slots() > 0);
        // The chosen template must be one that touches burst parameters.
        assert!(
            out.relevant_params.iter().any(|p| p == "PktLen"),
            "relevant params {:?}",
            out.relevant_params
        );
        // The best template must beat the regression baseline on the
        // shallowest uncovered target's rate.
        let best = out.phase(PHASE_BEST).unwrap();
        let before = out.phase(PHASE_BEFORE).unwrap();
        let t0 = out.targets[0];
        assert!(
            best.rate(t0) >= before.rate(t0),
            "best {} vs before {}",
            best.rate(t0),
            before.rate(t0)
        );
    }

    #[test]
    fn unknown_family_errors() {
        let flow = CdgFlow::new(IoEnv::new(), FlowConfig::quick());
        assert!(matches!(
            flow.run_for_family("nope_", 1),
            Err(FlowError::UnknownFamily(_))
        ));
    }

    #[test]
    fn regression_repo_covers_all_templates() {
        let flow = CdgFlow::new(L3Env::new(), FlowConfig::quick());
        let repo = flow.run_regression(5).unwrap();
        let lib_len = flow.env().stock_library().len() as u64;
        assert_eq!(
            repo.total_simulations(),
            lib_len * flow.config().regression_sims_per_template
        );
        assert_eq!(repo.templates().len(), lib_len as usize);
    }

    #[test]
    fn outcome_report_renders() {
        let flow = CdgFlow::new(IoEnv::new(), FlowConfig::quick());
        let out = flow.run_for_family("crc_", 11).unwrap();
        let report = out.report();
        assert!(report.contains("crc_004"));
        assert!(report.contains(PHASE_SAMPLING));
    }

    #[test]
    fn outcome_serializes() {
        let flow = CdgFlow::new(IoEnv::new(), FlowConfig::quick());
        let out = flow.run_for_family("crc_", 13).unwrap();
        let json = serde_json::to_string(&out).unwrap();
        let back: FlowOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back.unit, out.unit);
        assert_eq!(back.phases, out.phases);
        assert_eq!(back.best_template, out.best_template);
        // Floats survive JSON only approximately (last-ULP differences).
        assert_eq!(back.best_settings.len(), out.best_settings.len());
        for (a, b) in back.best_settings.iter().zip(&out.best_settings) {
            assert!((a - b).abs() < 1e-9);
        }
    }
    #[test]
    fn subscriber_sees_all_milestones() {
        let flow = CdgFlow::new(IoEnv::new(), FlowConfig::quick());
        let repo = flow.run_regression(1).unwrap();
        let targets = repo.uncovered_events();
        let approx = ApproxTarget::auto(flow.env().coverage_model(), &targets, 0.5).unwrap();
        let run = |events: Option<&mut Vec<FlowEvent>>| {
            pool_scope(flow.config().threads, |pool| {
                let engine = FlowEngine::new(flow.env(), flow.config().clone(), pool);
                let mut cx = engine.session_with_repo(&repo, approx.clone(), 2)?;
                if let Some(events) = events {
                    cx.subscribe(|event, _| events.push(event.clone()));
                }
                engine.run(&mut cx)
            })
            .unwrap()
        };
        let mut events: Vec<FlowEvent> = Vec::new();
        let mut out = run(Some(&mut events));
        let (mut choices, mut started, mut finished) = (Vec::new(), Vec::new(), Vec::new());
        for event in &events {
            match event {
                FlowEvent::CoarseChoice { template, .. } => choices.push(template.clone()),
                FlowEvent::PhaseStarted {
                    phase,
                    planned_sims,
                } => {
                    assert!(*planned_sims > 0);
                    started.push(phase.clone());
                }
                FlowEvent::PhaseFinished { stats } => finished.push(stats.name.clone()),
                _ => {}
            }
        }
        assert_eq!(choices, vec![out.chosen_template.clone()]);
        assert_eq!(
            started,
            vec![PHASE_SAMPLING, PHASE_OPTIMIZATION, PHASE_BEST]
        );
        assert_eq!(
            finished,
            vec![PHASE_SAMPLING, PHASE_OPTIMIZATION, PHASE_BEST]
        );
        // A subscriber only observes: the same session without one
        // reaches the same outcome.
        let mut plain = run(None);
        out.timings.clear();
        plain.timings.clear();
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&out).unwrap()
        );
    }
    #[test]
    fn opt_target_value_stops_the_phase_early() {
        let mut config = FlowConfig::quick();
        config.opt_iterations = 50;
        // The approximated target for shallow crc members exceeds 0.05
        // almost immediately, so the optimizer must stop well short of 50
        // iterations.
        config.opt_target_value = Some(0.05);
        let flow = CdgFlow::new(IoEnv::new(), config);
        let out = flow.run_for_family("crc_", 3).unwrap();
        assert!(
            out.trace.len() < 50,
            "optimizer ran all {} iterations despite the target stop",
            out.trace.len()
        );
    }
}
