//! The stage engine: sequences pipeline stages over a session context.
//!
//! [`FlowEngine`] owns the worker pool, the configuration and the stage
//! list; a [`SessionCx`] carries one run's accumulated state between the
//! stages. Because every stage draws its randomness from seed streams
//! derived *only* from the session seed (never from a shared RNG, the
//! wall clock, or the worker count), the engine's [`FlowOutcome`] is
//! byte-identical to the pre-engine inline flow at any thread count — and
//! a run resumed from any post-stage snapshot reproduces the identical
//! outcome, because the skipped stages' products are already in the state.

use std::sync::Arc;

use ascdg_coverage::CoverageRepository;
use ascdg_duv::VerifEnv;
use ascdg_stimgen::mix_seed;
use ascdg_telemetry::Telemetry;

use crate::checkpoint::restore_snapshot;
use crate::events::FlowEvent;
use crate::pool::SimPool;
use crate::session::{
    CampaignProgress, DetachedSession, GroupProgress, SessionCx, SessionState, StageSims,
    TargetSpec,
};
use crate::stages::{default_stages, regression_repository, Stage, STAGE_REGRESSION};
use crate::{
    group_uncovered, BatchRunner, FlowConfig, FlowError, FlowOutcome, PhaseStats, PHASE_BEFORE,
};

/// Executes a stage list against flow sessions.
///
/// # Examples
///
/// ```
/// use ascdg_core::{pool_scope, FlowConfig, FlowEngine, TargetSpec};
/// use ascdg_duv::io_unit::IoEnv;
///
/// let env = IoEnv::new();
/// let config = FlowConfig::quick();
/// let outcome = pool_scope(config.threads, |pool| {
///     let engine = FlowEngine::new(&env, config.clone(), pool);
///     let mut cx = engine.session(TargetSpec::Family("crc_".to_owned()), 7);
///     engine.run(&mut cx)
/// })?;
/// assert_eq!(outcome.unit, "io_unit");
/// # Ok::<(), ascdg_core::FlowError>(())
/// ```
pub struct FlowEngine<'env, E: VerifEnv> {
    env: &'env E,
    config: FlowConfig,
    pool: SimPool<'env>,
    stages: Vec<Box<dyn Stage<E>>>,
    telemetry: Telemetry,
}

impl<'env, E: VerifEnv> FlowEngine<'env, E> {
    /// An engine running the full single-target stage list
    /// ([`default_stages`]) on the given worker pool.
    #[must_use]
    pub fn new(env: &'env E, config: FlowConfig, pool: &SimPool<'env>) -> Self {
        FlowEngine::with_stages(env, config, pool, default_stages())
    }

    /// An engine running a custom stage list (e.g. the multi-target flow's
    /// shared prefix, or a pipeline with extra analysis stages).
    #[must_use]
    pub fn with_stages(
        env: &'env E,
        config: FlowConfig,
        pool: &SimPool<'env>,
        stages: Vec<Box<dyn Stage<E>>>,
    ) -> Self {
        FlowEngine {
            env,
            config,
            pool: pool.clone(),
            stages,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: sessions created afterwards record
    /// spans, mirrored events and metrics into it. Telemetry is purely
    /// observational — the [`FlowOutcome`] is byte-identical with it on or
    /// off.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The engine's telemetry handle (disabled unless
    /// [`FlowEngine::with_telemetry`] was called).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The environment the engine runs against.
    #[must_use]
    pub fn env(&self) -> &'env E {
        self.env
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// The stage names, in execution order.
    #[must_use]
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// A fresh session: every stage (including regression) will run.
    #[must_use]
    pub fn session<'bus>(&self, spec: TargetSpec, seed: u64) -> SessionCx<'env, 'bus, E> {
        let state = SessionState::new(self.env.unit_name(), self.config.clone(), spec, seed);
        self.attach(DetachedSession { state, repo: None })
    }

    /// Puts a [`DetachedSession`] back together on this engine, sharing
    /// its repository instead of copying it. Checks nothing: the session
    /// was either built by this engine's environment or checked when it
    /// was loaded (see [`FlowEngine::resume`]).
    #[must_use]
    pub(crate) fn attach<'bus>(&self, session: DetachedSession) -> SessionCx<'env, 'bus, E> {
        SessionCx::from_parts(self.env, self.runner(), session)
    }

    /// A batch runner on the engine's pool, sharing its telemetry handle.
    fn runner(&self) -> BatchRunner<'env> {
        BatchRunner::new(&self.pool).with_telemetry(self.telemetry.clone())
    }

    /// A session seeded with a pre-built regression repository, aimed at
    /// `target`: a [`TargetSpec`], or an
    /// [`ApproxTarget`](crate::ApproxTarget) taken as
    /// [`TargetSpec::Weighted`]. The regression stage is marked completed
    /// and will be skipped; the coarse search resolves the target.
    ///
    /// # Errors
    ///
    /// [`FlowError::Coverage`] when the repository does not belong to the
    /// engine's environment model.
    pub fn session_with_repo<'bus>(
        &self,
        repo: &CoverageRepository,
        target: impl Into<TargetSpec>,
        seed: u64,
    ) -> Result<SessionCx<'env, 'bus, E>, FlowError> {
        let snapshot = repo.snapshot();
        let live = CoverageRepository::from_snapshot(self.env.coverage_model().clone(), &snapshot)?;
        let mut state = self.state_after(&live, target.into(), seed);
        state.repo = Some(snapshot);
        Ok(self.attach(DetachedSession {
            state,
            repo: Some(Arc::new(live)),
        }))
    }

    /// The state of a session that starts after the regression recorded
    /// in `repo`, aimed at `spec`: the regression stage is marked
    /// completed, and the state carries no `repo` of its own.
    pub(crate) fn state_after(
        &self,
        repo: &CoverageRepository,
        spec: TargetSpec,
        seed: u64,
    ) -> SessionState {
        let regression = STAGE_REGRESSION.to_owned();
        SessionState {
            completed: vec![regression.clone()],
            stage_sims: vec![StageSims {
                stage: regression,
                sims: repo.total_simulations(),
            }],
            ..SessionState::new(self.env.unit_name(), self.config.clone(), spec, seed)
        }
    }

    /// The checkpoint every fresh campaign starts from: the shared
    /// regression, run on the engine's pool under a `regression` stage
    /// span of the engine's telemetry, and the unit's uncovered events
    /// grouped by [`group_uncovered`], with no group started yet.
    ///
    /// # Errors
    ///
    /// Any regression error.
    pub fn regression_checkpoint(&self, seed: u64) -> Result<CampaignProgress, FlowError> {
        let span = self
            .telemetry
            .for_stage(STAGE_REGRESSION)
            .scope_span("stage", STAGE_REGRESSION);
        let repo = regression_repository(
            self.env,
            &BatchRunner::new(&self.pool).with_telemetry(span.telemetry()),
            self.config.regression_sims_per_template,
            mix_seed(seed, 0xca3),
        );
        span.finish(
            repo.as_ref()
                .map_or(0, CoverageRepository::total_simulations),
        );
        let repo = repo?;
        let groups = group_uncovered(self.env.coverage_model(), &repo)
            .into_iter()
            .map(|(name, targets)| GroupProgress {
                name,
                targets,
                session: None,
                failure: None,
            })
            .collect();
        Ok(CampaignProgress {
            unit: self.env.unit_name().to_owned(),
            seed,
            config: Some(self.config.clone()),
            repo: Some(repo.snapshot()),
            groups,
        })
    }

    /// Rebuilds a session from a post-stage snapshot; [`FlowEngine::run`]
    /// will skip the completed stages and reproduce the identical outcome.
    ///
    /// # Errors
    ///
    /// [`FlowError::SnapshotMismatch`] when the snapshot belongs to a
    /// different unit, and [`FlowError::Checkpoint`] when its repository
    /// does not match the environment's model or does not add up, a
    /// settings vector does not fit its skeleton, or a phase row or
    /// target event does not fit the model.
    pub fn resume<'bus>(&self, state: SessionState) -> Result<SessionCx<'env, 'bus, E>, FlowError> {
        self.check(&state)?;
        let repo = state
            .repo
            .as_ref()
            .map(|snap| restore_snapshot(self.env.coverage_model(), snap).map(Arc::new))
            .transpose()?;
        Ok(self.attach(DetachedSession { state, repo }))
    }

    /// The checks [`FlowEngine::resume`] makes of a snapshot before its
    /// repository: it belongs to this engine's unit, and no vector in it
    /// would make a later stage panic (a settings vector of the wrong
    /// dimension for its skeleton, a phase row of the wrong width, or a
    /// target event outside the model).
    pub(crate) fn check(&self, state: &SessionState) -> Result<(), FlowError> {
        if state.unit != self.env.unit_name() {
            return Err(FlowError::SnapshotMismatch(format!(
                "snapshot is for unit `{}`, engine runs `{}`",
                state.unit,
                self.env.unit_name()
            )));
        }
        let misfit = |why: String| Err(FlowError::Checkpoint(format!("session checkpoint {why}")));
        if let Some(slots) = state.skeleton.as_ref().map(|sk| sk.num_slots()) {
            for (field, settings) in [
                ("start_settings", &state.start_settings),
                ("best_settings", &state.best_settings),
            ] {
                if let Some(x) = settings.as_ref().filter(|x| x.len() != slots) {
                    return misfit(format!(
                        "`{field}` has {} entries, but its skeleton has {slots} slots",
                        x.len()
                    ));
                }
            }
        }
        let events = self.env.coverage_model().len();
        if let Some(phase) = state.phases.iter().find(|p| p.hits.len() != events) {
            return misfit(format!(
                "phase `{}` has {} hit counts, but unit `{}` has {events} events",
                phase.name,
                phase.hits.len(),
                state.unit
            ));
        }
        if let Some(approx) = &state.approx {
            let mut ids = approx
                .targets()
                .iter()
                .chain(approx.weights().iter().map(|(e, _)| e));
            if let Some(bad) = ids.find(|e| e.index() >= events) {
                return misfit(format!(
                    "targets event {}, but unit `{}` has {events} events",
                    bad.index(),
                    state.unit
                ));
            }
        }
        Ok(())
    }

    /// Runs every not-yet-completed stage, in order, then assembles the
    /// [`FlowOutcome`].
    ///
    /// # Errors
    ///
    /// The first failing stage's error; [`FlowError::MissingStageState`]
    /// when the stage list (or a resumed snapshot) left a required product
    /// missing.
    pub fn run(&self, cx: &mut SessionCx<'_, '_, E>) -> Result<FlowOutcome, FlowError> {
        let flow_span = cx.telemetry().scope_span("flow", &cx.state().unit);
        for stage in &self.stages {
            let name = stage.name();
            if cx.state().is_completed(name) {
                cx.emit(FlowEvent::StageSkipped {
                    stage: name.to_owned(),
                });
            }
        }
        cx.scoped(flow_span.telemetry(), |cx| {
            while self.step(cx)?.is_some() {}
            Ok::<_, FlowError>(())
        })?;
        // The flow span is attributed the whole run's simulations,
        // including stages completed before a resume.
        flow_span.finish(cx.state().stage_sims.iter().map(|s| s.sims).sum());
        self.finish(cx)
    }

    /// The first stage of the engine's list the session has not yet
    /// completed, or `None` when every stage already ran.
    #[must_use]
    pub fn next_stage(&self, state: &SessionState) -> Option<&'static str> {
        self.stages
            .iter()
            .map(|s| s.name())
            .find(|name| !state.is_completed(name))
    }

    /// Runs exactly one pending stage — the schedulable unit the campaign
    /// scheduler interleaves across sessions — with the same event and
    /// telemetry bookkeeping as [`FlowEngine::run`].
    /// Returns the name of the stage that ran, or `None` when every stage
    /// had already completed. Stepping a session to exhaustion and calling
    /// [`FlowEngine::finish`] is byte-identical to one [`FlowEngine::run`].
    ///
    /// # Errors
    ///
    /// The stage's error, exactly as [`FlowEngine::run`] would surface it.
    pub fn step(&self, cx: &mut SessionCx<'_, '_, E>) -> Result<Option<&'static str>, FlowError> {
        let Some(stage) = self
            .stages
            .iter()
            .find(|s| !cx.state().is_completed(s.name()))
        else {
            return Ok(None);
        };
        let name = stage.name();
        cx.emit(FlowEvent::StageStarted {
            stage: name.to_owned(),
        });
        // The stage runs on a handle of its own: its chunks and objective
        // evaluations parent-link to its span and record into its metrics.
        let stage_span = cx.telemetry().for_stage(name).scope_span("stage", name);
        let result = cx.scoped(stage_span.telemetry(), |cx| stage.run(cx));
        stage_span.finish(result.as_ref().map_or(0, |o| o.sims));
        let output = result?;
        cx.state_mut().completed.push(name.to_owned());
        cx.state_mut().stage_sims.push(StageSims {
            stage: name.to_owned(),
            sims: output.sims,
        });
        cx.emit(FlowEvent::StageCompleted {
            stage: name.to_owned(),
            sims: output.sims,
        });
        Ok(Some(name))
    }

    /// The engine's worker pool handle (for occupancy observability).
    pub(crate) fn pool(&self) -> &SimPool<'env> {
        &self.pool
    }

    /// Assembles the [`FlowOutcome`] of a session whose stages have all
    /// run (i.e. [`FlowEngine::step`] returned `None`).
    ///
    /// # Errors
    ///
    /// [`FlowError::MissingStageState`] when a required stage product is
    /// absent from the session state.
    pub fn finish(&self, cx: &SessionCx<'_, '_, E>) -> Result<FlowOutcome, FlowError> {
        fn missing(what: &'static str) -> FlowError {
            FlowError::MissingStageState {
                stage: "outcome",
                missing: what,
            }
        }
        let state = cx.state();
        let repo = cx.repo()?;
        let approx = state
            .approx
            .clone()
            .ok_or_else(|| missing("approximated target"))?;
        let chosen = state
            .chosen_template
            .as_ref()
            .ok_or_else(|| missing("chosen template"))?;
        let before = PhaseStats {
            name: PHASE_BEFORE.to_owned(),
            sims: repo.total_simulations(),
            hits: repo.all_global_stats().iter().map(|s| s.hits).collect(),
        };
        let mut phases = Vec::with_capacity(state.phases.len() + 1);
        phases.push(before);
        phases.extend(state.phases.iter().cloned());
        Ok(FlowOutcome {
            unit: state.unit.clone(),
            model: self.env.coverage_model().clone(),
            targets: approx.targets().to_vec(),
            approx_target: approx,
            chosen_template: chosen.name().to_owned(),
            relevant_params: state.relevant_params.clone(),
            skeleton: state.skeleton.clone().ok_or_else(|| missing("skeleton"))?,
            phases,
            timings: state.timings.clone(),
            best_template: state
                .best_template
                .clone()
                .ok_or_else(|| missing("harvested template"))?,
            best_settings: state
                .best_settings
                .clone()
                .ok_or_else(|| missing("optimized settings"))?,
            trace: state
                .trace
                .clone()
                .ok_or_else(|| missing("optimizer trace"))?,
        })
    }
}

impl<E: VerifEnv> std::fmt::Debug for FlowEngine<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowEngine")
            .field("stages", &self.stage_names())
            .field("threads", &self.pool.threads())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::pool_scope;
    use crate::stages::{Optimize, STAGE_HARVEST};
    use ascdg_duv::io_unit::IoEnv;

    fn test_threads() -> usize {
        std::env::var("ASCDG_TEST_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(4)
    }

    fn config() -> FlowConfig {
        let mut c = FlowConfig::quick();
        c.threads = test_threads();
        c
    }

    fn strip_timings(mut outcome: FlowOutcome) -> FlowOutcome {
        outcome.timings.clear();
        outcome
    }

    #[test]
    fn default_stage_list_is_the_paper_flow() {
        let env = IoEnv::new();
        pool_scope(1, |pool| {
            let engine = FlowEngine::new(&env, config(), pool);
            assert_eq!(
                engine.stage_names(),
                vec![
                    "regression",
                    "coarse-search",
                    "skeletonize",
                    "random-sample",
                    "optimize",
                    "refine",
                    "harvest"
                ]
            );
        });
    }

    #[test]
    fn engine_emits_structured_events_and_checkpoints() {
        let env = IoEnv::new();
        let mut log: Vec<FlowEvent> = Vec::new();
        let mut snaps = Vec::new();
        let cfg = config();
        pool_scope(cfg.threads, |pool| {
            let engine = FlowEngine::new(&env, cfg.clone(), pool);
            let mut cx = engine.session(TargetSpec::Family("crc_".to_owned()), 3);
            cx.subscribe(|event, _| log.push(event.clone()));
            cx.subscribe(|event, state| {
                if matches!(event, FlowEvent::StageCompleted { .. }) {
                    snaps.push(state.clone());
                }
            });
            let out = engine.run(&mut cx).expect("flow runs");
            assert_eq!(out.phases.len(), 4);
        });
        assert_eq!(snaps.len(), 7);
        // Each checkpoint extends the previous one's completed list.
        for (i, snap) in snaps.iter().enumerate() {
            assert_eq!(snap.completed.len(), i + 1);
        }
        let completed: Vec<&str> = log
            .iter()
            .filter_map(|e| match e {
                FlowEvent::StageCompleted { stage, .. } => Some(stage.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            completed,
            vec![
                "regression",
                "coarse-search",
                "skeletonize",
                "random-sample",
                "optimize",
                "refine",
                "harvest"
            ]
        );
        assert!(!log
            .iter()
            .any(|e| matches!(e, FlowEvent::StageSkipped { .. })));
        // The 7 `StageCompleted` events each carried the post-stage state.
        assert_eq!(completed.len(), 7);
        for (snap, stage) in snaps.iter().zip(&completed) {
            assert_eq!(snap.completed.last().map(String::as_str), Some(*stage));
        }
        // The optimizer trace surfaced as best-objective events.
        assert!(log
            .iter()
            .any(|e| matches!(e, FlowEvent::BestObjective { phase, .. }
                if phase == crate::PHASE_OPTIMIZATION)));
    }

    #[test]
    fn resume_from_every_checkpoint_reproduces_the_outcome() {
        let env = IoEnv::new();
        let cfg = config();
        let mut snapshots = Vec::new();
        let baseline = pool_scope(cfg.threads, |pool| {
            let engine = FlowEngine::new(&env, cfg.clone(), pool);
            let mut cx = engine.session(TargetSpec::Family("crc_".to_owned()), 11);
            cx.subscribe(|event, state| {
                if matches!(event, FlowEvent::StageCompleted { .. }) {
                    snapshots.push(state.clone());
                }
            });
            engine.run(&mut cx).expect("flow runs")
        });
        let golden = serde_json::to_string(&strip_timings(baseline)).unwrap();
        for (i, snap) in snapshots.into_iter().enumerate() {
            let resumed = pool_scope(cfg.threads, |pool| {
                let engine = FlowEngine::new(&env, cfg.clone(), pool);
                let mut cx = engine.resume(snap).expect("snapshot resumes");
                engine.run(&mut cx).expect("resumed flow runs")
            });
            assert_eq!(
                serde_json::to_string(&strip_timings(resumed)).unwrap(),
                golden,
                "resume after checkpoint {i} diverged"
            );
        }
    }

    #[test]
    fn resume_rejects_foreign_snapshots() {
        let env = IoEnv::new();
        let cfg = config();
        let mut state = SessionState::new("not_this_unit", cfg.clone(), TargetSpec::Uncovered, 1);
        state.completed.push(STAGE_REGRESSION.to_owned());
        pool_scope(1, |pool| {
            let engine = FlowEngine::new(&env, cfg.clone(), pool);
            assert!(matches!(
                engine.resume(state.clone()),
                Err(FlowError::SnapshotMismatch(_))
            ));
        });
    }

    #[test]
    fn out_of_order_stage_list_reports_missing_state() {
        let env = IoEnv::new();
        let cfg = config();
        pool_scope(1, |pool| {
            let engine = FlowEngine::with_stages(
                &env,
                cfg.clone(),
                pool,
                vec![Box::new(Optimize::default())],
            );
            let mut cx = engine.session(TargetSpec::Uncovered, 1);
            assert!(matches!(
                engine.run(&mut cx),
                Err(FlowError::MissingStageState { .. })
            ));
            assert_ne!(STAGE_HARVEST, STAGE_REGRESSION);
        });
    }
}
