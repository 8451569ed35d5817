//! The session context threaded between flow stages, and its serializable
//! snapshot.
//!
//! A [`SessionCx`] is everything one AS-CDG run accumulates: the live
//! coverage repository, the chosen template, the skeleton, the phase
//! statistics, plus the run-time machinery (environment handle, batch
//! runner, event subscribers). The accumulated *data* lives in a
//! [`SessionState`], which is plain serde — snapshotting it after each
//! stage, from a subscriber on [`FlowEvent::StageCompleted`], is what
//! gives the engine checkpoint/resume
//! (see [`FlowEngine::resume`](crate::FlowEngine::resume)). A session
//! holds no scheduling state: cancellation belongs to the
//! [`AdmissionQueue`](crate::AdmissionQueue) that dispatches its stages.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use ascdg_coverage::{CoverageRepository, EventId, RepoSnapshot};
use ascdg_duv::VerifEnv;
use ascdg_opt::Trace;
use ascdg_stimgen::mix_seed;
use ascdg_telemetry::Telemetry;
use ascdg_template::{Skeleton, TestTemplate};

use crate::events::{event_name, FlowEvent};
use crate::{ApproxTarget, BatchRunner, FlowConfig, FlowError, PhaseStats, PhaseTiming};

/// A listener on a session's event stream: called with each event and
/// the state of the session that emitted it (see [`SessionCx::subscribe`]).
type Subscriber<'bus> = Box<dyn FnMut(&FlowEvent, &SessionState) + 'bus>;

/// A session between two stages: its serializable state and the live
/// regression repository it reads, once the regression has run.
///
/// This is what the scheduler queues and hands between workers (the
/// [`SessionCx`] itself holds non-`Send` machinery): it takes a session
/// apart after each stage and puts it back together for the next one,
/// without copying the repository. Only data crosses: the session's
/// subscribers stay behind, so a scheduled session reports through its
/// admission's step hook instead. The sessions of one campaign all share
/// its one repository.
#[derive(Debug)]
pub struct DetachedSession {
    /// The accumulated session data.
    pub state: SessionState,
    /// The regression repository the session reads; `None` before the
    /// regression stage ran.
    pub repo: Option<Arc<CoverageRepository>>,
}

/// How a session chooses its target events once the regression repository
/// exists.
///
/// Only [`CoarseSearch`](crate::CoarseSearch) resolves the spec into the
/// session's [`ApproxTarget`] (Section IV-A's automatic strategy, or the
/// `Weighted` target as given), whether the session runs its own
/// regression or starts on a pre-built repository.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TargetSpec {
    /// The uncovered members of the event family with this name stem.
    Family(String),
    /// Every event still uncovered after regression (Fig. 5's usage).
    Uncovered,
    /// An explicit list of target events.
    Explicit(Vec<EventId>),
    /// A fully pre-built approximated target (skips automatic weighting).
    Weighted(ApproxTarget),
}

impl From<ApproxTarget> for TargetSpec {
    fn from(approx: ApproxTarget) -> Self {
        TargetSpec::Weighted(approx)
    }
}

/// Simulations attributed to one completed stage — the per-stage sim
/// ledger the run manifest reconciles against phase statistics and the
/// coverage repository.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSims {
    /// Stage name (one of the `STAGE_*` constants).
    pub stage: String,
    /// Simulations the stage ran (0 for analysis-only stages).
    pub sims: u64,
}

/// The serializable data a flow session has accumulated so far.
///
/// Every field a stage writes lives here, so `serde`-snapshotting this
/// struct after a stage captures the session completely; feeding the
/// snapshot to [`FlowEngine::resume`](crate::FlowEngine::resume) skips the
/// stages listed in `completed` and reproduces the identical
/// [`FlowOutcome`](crate::FlowOutcome) (timings aside, which are
/// wall-clock).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionState {
    /// Unit name of the environment the session ran against (checked on
    /// resume).
    pub unit: String,
    /// The configuration in effect.
    pub config: FlowConfig,
    /// The session's base seed; stages derive their own streams from it.
    pub seed: u64,
    /// How the session picks its targets.
    pub target_spec: TargetSpec,
    /// Names of the stages that already ran, in order.
    pub completed: Vec<String>,
    /// Regression coverage repository ([`Regression`](crate::Regression)).
    #[serde(default)]
    pub repo: Option<RepoSnapshot>,
    /// Resolved approximated target
    /// ([`CoarseSearch`](crate::CoarseSearch)).
    #[serde(default)]
    pub approx: Option<ApproxTarget>,
    /// The stock template the coarse search chose.
    #[serde(default)]
    pub chosen_template: Option<TestTemplate>,
    /// Relevant parameters mined from the top TAC templates.
    #[serde(default)]
    pub relevant_params: Vec<String>,
    /// The skeleton ([`Skeletonize`](crate::Skeletonize)).
    #[serde(default)]
    pub skeleton: Option<Skeleton>,
    /// Best settings found by the sampling phase
    /// ([`RandomSample`](crate::RandomSample)).
    #[serde(default)]
    pub start_settings: Option<Vec<f64>>,
    /// Best settings so far ([`Optimize`](crate::Optimize), possibly
    /// improved by [`Refine`](crate::Refine)).
    #[serde(default)]
    pub best_settings: Option<Vec<f64>>,
    /// The optimizer's per-iteration trace.
    #[serde(default)]
    pub trace: Option<Trace>,
    /// Simulation-phase statistics, in stage order (the regression phase is
    /// kept in `repo`, not here).
    #[serde(default)]
    pub phases: Vec<PhaseStats>,
    /// Wall-clock timings of the simulation phases run so far.
    #[serde(default)]
    pub timings: Vec<PhaseTiming>,
    /// Simulations attributed to each completed stage, in stage order.
    #[serde(default)]
    pub stage_sims: Vec<StageSims>,
    /// The harvested best template ([`Harvest`](crate::Harvest)).
    #[serde(default)]
    pub best_template: Option<TestTemplate>,
}

impl SessionState {
    /// A fresh state for `unit` with nothing completed yet.
    #[must_use]
    pub fn new(unit: &str, config: FlowConfig, target_spec: TargetSpec, seed: u64) -> Self {
        SessionState {
            unit: unit.to_owned(),
            config,
            seed,
            target_spec,
            completed: Vec::new(),
            repo: None,
            approx: None,
            chosen_template: None,
            relevant_params: Vec::new(),
            skeleton: None,
            start_settings: None,
            best_settings: None,
            trace: None,
            phases: Vec::new(),
            timings: Vec::new(),
            stage_sims: Vec::new(),
            best_template: None,
        }
    }

    /// Whether the named stage already ran.
    #[must_use]
    pub fn is_completed(&self, stage: &str) -> bool {
        self.completed.iter().any(|s| s == stage)
    }

    /// Looks up an accumulated phase by name.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == name)
    }
}

/// One target group's progress within a campaign checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupProgress {
    /// Group name: the family stem, or `"(ungrouped)"` / `"(cross-product)"`.
    pub name: String,
    /// The group's target events, recorded so a resumed campaign can
    /// rebuild groups that had not reached their first checkpoint yet.
    #[serde(default)]
    pub targets: Vec<EventId>,
    /// The latest post-stage session snapshot (the same [`SessionState`]
    /// format single-flow checkpoints use, without a `repo`: the group
    /// runs on the campaign's one regression repository); `None` until
    /// the group's first stage completes.
    #[serde(default)]
    pub session: Option<SessionState>,
    /// The failure that kept the group from being scheduled, if any.
    #[serde(default)]
    pub failure: Option<String>,
}

/// A whole-campaign checkpoint: the regression snapshot and per-group
/// session progress, folded from the campaign's checkpoint stream (see
/// [`CampaignEntry`] and
/// [`read_campaign_checkpoint`](crate::read_campaign_checkpoint)), and
/// the input of the [`CampaignPlan`](crate::CampaignPlan) every campaign
/// is planned from.
///
/// Unlike a single flow's checkpoint (one [`SessionState`]), a campaign
/// interleaves several sessions, so its progress is one snapshot per
/// group, all of them reading the one regression snapshot in `repo`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignProgress {
    /// The unit the campaign runs against.
    pub unit: String,
    /// The campaign's base seed (group seeds are salted from it).
    pub seed: u64,
    /// The configuration the campaign ran with, so a resume does not
    /// depend on the caller repeating the same flags.
    #[serde(default)]
    pub config: Option<FlowConfig>,
    /// The shared regression repository snapshot. Makes the checkpoint
    /// self-contained: a resume rebuilds unstarted groups (and the
    /// unit-level before/after fold) without re-running the regression.
    #[serde(default)]
    pub repo: Option<RepoSnapshot>,
    /// Per-group progress, in group order.
    pub groups: Vec<GroupProgress>,
}

/// One entry of a campaign's checkpoint stream: the plan once, when a
/// campaign starts or resumes, then one step per completed group stage.
/// Folding the entries in order gives the campaign's latest
/// [`CampaignProgress`].
#[derive(Debug, Clone, Copy)]
pub enum CampaignEntry<'a> {
    /// The planned campaign: its regression snapshot and every group's
    /// progress so far (group sessions carry no `repo`).
    Plan(&'a CampaignProgress),
    /// A group's session state after one more completed stage.
    Step {
        /// The group's index in [`CampaignProgress::groups`].
        group: usize,
        /// The group's post-stage state (without a `repo`, like every
        /// campaign group's).
        state: &'a SessionState,
    },
}

/// A consumer of a campaign's checkpoint stream. Steps may arrive
/// concurrently from several scheduler workers, but one group's steps
/// arrive in stage order, each after the one before it returned.
pub type CampaignSink<'a> = dyn Fn(CampaignEntry<'_>) + Send + Sync + 'a;

/// The mutable context a [`FlowEngine`](crate::FlowEngine) threads through
/// its stages.
///
/// Couples the serializable [`SessionState`] with the run-time machinery
/// stages need: the environment, a [`BatchRunner`] on the engine's worker
/// pool (whose telemetry handle is the session's), the live coverage
/// repository (shared, read-only once built), and the event subscribers.
pub struct SessionCx<'env, 'bus, E: VerifEnv> {
    env: &'env E,
    runner: BatchRunner<'env>,
    repo: Option<Arc<CoverageRepository>>,
    state: SessionState,
    subscribers: Vec<Subscriber<'bus>>,
}

impl<'env, 'bus, E: VerifEnv> SessionCx<'env, 'bus, E> {
    pub(crate) fn from_parts(
        env: &'env E,
        runner: BatchRunner<'env>,
        session: DetachedSession,
    ) -> Self {
        SessionCx {
            env,
            runner,
            repo: session.repo,
            state: session.state,
            subscribers: Vec::new(),
        }
    }

    /// The session's telemetry handle, its runner's (disabled unless the
    /// engine was built with one). While a stage runs, it is scoped to
    /// that stage's span and metrics.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        self.runner.telemetry()
    }

    /// Runs `f` with `telemetry` as the session's handle, then puts the
    /// previous handle back: how the engine scopes a run to its flow
    /// span and a stage to its stage span.
    pub(crate) fn scoped<R>(&mut self, telemetry: Telemetry, f: impl FnOnce(&mut Self) -> R) -> R {
        let outer = std::mem::replace(&mut self.runner.telemetry, telemetry);
        let result = f(self);
        self.runner.telemetry = outer;
        result
    }

    /// The environment the session runs against.
    #[must_use]
    pub fn env(&self) -> &'env E {
        self.env
    }

    /// A batch runner sharing the engine's persistent worker pool.
    #[must_use]
    pub fn runner(&self) -> BatchRunner<'env> {
        self.runner.clone()
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &FlowConfig {
        &self.state.config
    }

    /// The session's base seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.state.seed
    }

    /// Derives a stage-local seed stream from the session seed. Stages must
    /// draw all their randomness through this, never from a shared RNG, so
    /// the outcome is independent of stage timing and worker count.
    #[must_use]
    pub fn stage_seed(&self, salt: u64) -> u64 {
        mix_seed(self.state.seed, salt)
    }

    /// The accumulated session data.
    #[must_use]
    pub fn state(&self) -> &SessionState {
        &self.state
    }

    /// Mutable access to the accumulated session data.
    pub fn state_mut(&mut self) -> &mut SessionState {
        &mut self.state
    }

    /// The live regression repository.
    ///
    /// # Errors
    ///
    /// [`FlowError::MissingStageState`] when the regression stage has not
    /// run (and the session was not seeded with a repository).
    pub fn repo(&self) -> Result<&CoverageRepository, FlowError> {
        self.repo.as_deref().ok_or(FlowError::MissingStageState {
            stage: crate::stages::STAGE_COARSE,
            missing: "regression repository",
        })
    }

    /// Installs the regression repository (also recording its snapshot in
    /// the serializable state).
    pub fn set_repo(&mut self, repo: CoverageRepository) {
        self.state.repo = Some(repo.snapshot());
        self.repo = Some(Arc::new(repo));
    }

    /// Adds an event subscriber for the rest of the session. It is
    /// called with every event, in emission order and after the
    /// subscribers added before it, together with the session state the
    /// event was emitted from: on [`FlowEvent::StageCompleted`] that is
    /// the post-stage snapshot [`FlowEngine::resume`](crate::FlowEngine::resume)
    /// restarts from. Subscribers must not assume any particular thread:
    /// events come from the thread driving the stages, never from a
    /// simulation worker.
    pub fn subscribe(&mut self, subscriber: impl FnMut(&FlowEvent, &SessionState) + 'bus) {
        self.subscribers.push(Box::new(subscriber));
    }

    /// Emits an event to every subscriber (and mirrors it into the
    /// telemetry trace when one is recording).
    pub fn emit(&mut self, event: FlowEvent) {
        if self.telemetry().is_enabled() {
            let detail = serde_json::to_string(&event).unwrap_or_default();
            self.telemetry().event(event_name(&event), &detail);
        }
        for subscriber in &mut self.subscribers {
            subscriber(&event, &self.state);
        }
    }

    /// Consumes the context, returning the accumulated session data
    /// without cloning.
    #[must_use]
    pub fn into_state(self) -> SessionState {
        self.state
    }

    /// Consumes the context, returning its state and live repository
    /// without copying either: how the scheduler parks a session between
    /// stages.
    #[must_use]
    pub(crate) fn detach(self) -> DetachedSession {
        DetachedSession {
            state: self.state,
            repo: self.repo,
        }
    }

    /// Records a finished simulation phase: appends its statistics and
    /// timing and emits [`FlowEvent::PhaseFinished`].
    pub fn record_phase(&mut self, stats: PhaseStats, timing: PhaseTiming) {
        self.state.timings.push(timing);
        self.emit(FlowEvent::PhaseFinished {
            stats: stats.clone(),
        });
        self.state.phases.push(stats);
    }
}

impl<E: VerifEnv> std::fmt::Debug for SessionCx<'_, '_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCx")
            .field("unit", &self.state.unit)
            .field("seed", &self.state.seed)
            .field("completed", &self.state.completed)
            .field("subscribers", &self.subscribers.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_serde_round_trips() {
        let mut state = SessionState::new(
            "io_unit",
            FlowConfig::quick(),
            TargetSpec::Family("crc_".to_owned()),
            42,
        );
        state.completed.push("regression".to_owned());
        state.relevant_params.push("PktLen".to_owned());
        state.start_settings = Some(vec![0.25, 0.75]);
        state.phases.push(PhaseStats {
            name: "Sampling phase".to_owned(),
            sims: 100,
            hits: vec![3, 0],
        });
        let json = serde_json::to_string(&state).unwrap();
        let back: SessionState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        assert!(back.is_completed("regression"));
        assert!(!back.is_completed("harvest"));
        assert_eq!(back.phase("Sampling phase").unwrap().sims, 100);
    }

    #[test]
    fn target_specs_serialize() {
        for spec in [
            TargetSpec::Family("crc_".to_owned()),
            TargetSpec::Uncovered,
            TargetSpec::Explicit(vec![EventId(3)]),
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: TargetSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
    }
}
