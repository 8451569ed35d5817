//! Unit-level coverage-closure campaigns (the paper's Section V usage).
//!
//! The paper deploys AS-CDG per *unit*: identify the hard-to-hit events —
//! "focusing on those belonging to a larger family of events, e.g.
//! filling-a-buffer events or a cross-product" — then run the flow group
//! by group. [`CdgFlow::run_campaign`] automates that sweep: one shared
//! regression, one flow run per uncovered family (plus one combined run
//! for uncovered events outside any family), and a unit-level summary of
//! what closed, what resisted, and what it cost.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use ascdg_coverage::{
    CoverageModel, CoverageRepository, EventFamily, EventId, StatusCounts, StatusPolicy,
};
use ascdg_duv::VerifEnv;
use ascdg_stimgen::mix_seed;
use ascdg_telemetry::Telemetry;
use ascdg_template::TemplateLibrary;

use crate::checkpoint::restore_snapshot;
use crate::pool::pool_scope_with;
use crate::scheduler::{AdmissionQueue, AdmitSpec, GroupRun, StepFn};
use crate::session::{
    CampaignEntry, CampaignProgress, CampaignSink, DetachedSession, SessionState, TargetSpec,
};
use crate::{CdgFlow, FlowEngine, FlowError, FlowOutcome, RunManifest, PHASE_BEFORE, PHASE_BEST};

/// One target group's result within a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignGroup {
    /// Group name: the family stem, or `"(ungrouped)"` for leftovers.
    pub name: String,
    /// The group's target events.
    pub targets: Vec<EventId>,
    /// Events of this group the harvested template newly covered.
    pub newly_covered: usize,
    /// Simulations spent on this group (excluding the shared regression).
    pub sims: u64,
    /// Name of the harvested template, when the flow succeeded.
    pub harvested_template: Option<String>,
    /// The failure, when the flow could not run for this group (e.g. no
    /// evidence) — the paper's "failed to provide the desired results"
    /// category.
    pub failure: Option<String>,
}

/// The outcome of a whole-unit campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// The unit the campaign ran against.
    pub unit: String,
    /// Status counts after the shared regression alone.
    pub before: StatusCounts,
    /// Status counts after regression plus every harvested best-test run
    /// (union of hit evidence).
    pub after: StatusCounts,
    /// Per-group details, in execution order.
    pub groups: Vec<CampaignGroup>,
    /// Total simulations across regression and all groups.
    pub total_sims: u64,
    /// Every harvested template, ready to join the regression suite.
    pub harvested: TemplateLibrary,
}

impl CampaignOutcome {
    /// Total events newly covered across all groups.
    #[must_use]
    pub fn total_newly_covered(&self) -> usize {
        self.groups.iter().map(|g| g.newly_covered).sum()
    }

    /// Renders a one-screen summary.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Campaign on {}: {} -> {} (total {} sims)",
            self.unit, self.before, self.after, self.total_sims
        );
        for g in &self.groups {
            match &g.failure {
                Some(why) => {
                    let _ = writeln!(
                        out,
                        "  {:<14} {} targets, FAILED: {why}",
                        g.name,
                        g.targets.len()
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  {:<14} {} targets, {} newly covered, {} sims, harvested `{}`",
                        g.name,
                        g.targets.len(),
                        g.newly_covered,
                        g.sims,
                        g.harvested_template.as_deref().unwrap_or("-")
                    );
                }
            }
        }
        out
    }
}

/// A campaign's outcome together with the per-group session evidence the
/// scheduler kept: one final [`SessionState`] per group that ran (indexed
/// like [`CampaignOutcome::groups`]), each carrying the group's full
/// `stage_sims` ledger for manifest validation.
#[derive(Debug)]
pub struct CampaignReport {
    /// The deterministic campaign outcome (byte-identical at any
    /// `campaign_jobs` value).
    pub outcome: CampaignOutcome,
    /// Per-group final session states, in group order; `None` for groups
    /// whose flow failed.
    pub sessions: Vec<Option<SessionState>>,
}

impl<E: VerifEnv> CdgFlow<E> {
    /// Runs a whole-unit campaign: one shared regression, then one flow
    /// run per family with uncovered members, then one combined run for
    /// any uncovered events outside families.
    ///
    /// The groups' flows are interleaved stage by stage over the shared
    /// worker pool by up to `campaign_jobs` scheduler workers (see the
    /// `scheduler` module); each group's seed is salted by its index
    /// before any scheduling happens, so the outcome is byte-identical at
    /// any `campaign_jobs` value.
    ///
    /// Groups that fail (no evidence, empty skeleton, ...) are recorded
    /// with their failure instead of aborting the campaign.
    ///
    /// # Errors
    ///
    /// Only the shared regression can fail the whole campaign.
    pub fn run_campaign(&self, seed: u64) -> Result<CampaignOutcome, FlowError> {
        self.run_campaign_with(seed, &Telemetry::disabled(), None)
            .map(|report| report.outcome)
    }

    /// Like [`CdgFlow::run_campaign`], with telemetry recording and the
    /// per-group final session states in the returned report (for
    /// per-group run manifests). With `on_progress`, the campaign's
    /// checkpoint stream goes to it: the planned campaign once, then one
    /// [`CampaignEntry::Step`] per completed group stage, from whichever
    /// scheduler worker ran it. A [`CheckpointWriter`] records the stream
    /// as an append-only log.
    ///
    /// [`CheckpointWriter`]: crate::CheckpointWriter
    ///
    /// A fresh campaign is a resume from its
    /// [`regression_checkpoint`](FlowEngine::regression_checkpoint), run
    /// under a `regression` stage span on the engine that then schedules
    /// the groups.
    ///
    /// # Errors
    ///
    /// Same as [`CdgFlow::run_campaign`].
    pub fn run_campaign_with(
        &self,
        seed: u64,
        telemetry: &Telemetry,
        on_progress: Option<&CampaignSink<'_>>,
    ) -> Result<CampaignReport, FlowError> {
        self.run_planned(telemetry, on_progress, |engine| {
            CampaignPlan::new(engine, &engine.regression_checkpoint(seed)?)
        })
    }

    /// Resumes a campaign from a [`CampaignProgress`] checkpoint through
    /// the [`CampaignPlan`]: the shared regression is restored from the
    /// embedded snapshot instead of re-run, groups that already
    /// checkpointed resume from their session state (fully finished
    /// groups replay for free — the engine skips all their stages), and
    /// groups that never reached a checkpoint are rebuilt from their
    /// recorded targets with the same salted seeds. The result is
    /// byte-identical to the uninterrupted campaign at any
    /// `campaign_jobs`/thread count. `on_progress` gets the same stream as
    /// in [`CdgFlow::run_campaign_with`], starting with the re-planned
    /// campaign.
    ///
    /// # Errors
    ///
    /// Those of [`CampaignPlan::new`].
    pub fn resume_campaign(
        &self,
        progress: &CampaignProgress,
        telemetry: &Telemetry,
        on_progress: Option<&CampaignSink<'_>>,
    ) -> Result<CampaignReport, FlowError> {
        self.run_planned(telemetry, on_progress, |engine| {
            CampaignPlan::new(engine, progress)
        })
    }

    /// Plans a campaign with `plan` on one traced engine over a fresh
    /// pool, admits it to a private equal-weight queue, and steps its
    /// groups with a crew of up to `campaign_jobs` workers (the caller is
    /// worker zero) until the queue drains: all groups share the one
    /// persistent worker pool instead of spinning a pool up per group.
    fn run_planned(
        &self,
        telemetry: &Telemetry,
        on_progress: Option<&CampaignSink<'_>>,
        plan: impl FnOnce(&FlowEngine<'_, E>) -> Result<CampaignPlan, FlowError>,
    ) -> Result<CampaignReport, FlowError> {
        pool_scope_with(self.config().threads, telemetry, |pool| {
            let engine = FlowEngine::new(self.env(), self.config().clone(), pool)
                .with_telemetry(telemetry.clone());
            let mut plan = plan(&engine)?;
            let queue = AdmissionQueue::new(telemetry.clone());
            let sink = on_progress.map(|sink| Arc::new(sink) as Arc<CampaignSink<'_>>);
            let jobs = plan
                .admit(&queue, 1, "default", sink)
                .expect("a fresh queue admits")
                .len();
            queue.seal();
            // The workers only coordinate; the simulations inside each
            // step still fan out over the engine's pool.
            std::thread::scope(|scope| {
                for _ in 1..self.config().campaign_jobs.min(jobs) {
                    scope.spawn(|| queue.run_worker(&engine));
                }
                queue.run_worker(&engine);
            });
            Ok(plan.collect(&queue).expect("a sealed queue runs every job"))
        })
    }
}

/// The one campaign driver: every campaign — fresh or resumed, one-shot
/// or served by the daemon — is planned here from a [`CampaignProgress`]
/// checkpoint (a fresh campaign's is its
/// [`FlowEngine::regression_checkpoint`]), [admitted](CampaignPlan::admit)
/// to an [`AdmissionQueue`] with its checkpoint stream, and
/// [collected](CampaignPlan::collect) into its report. A one-shot
/// campaign admits to a private queue it crews itself; the daemon admits
/// to its unit's shared queue.
///
/// Every group's session is built — and its seed salted by its group
/// index — **before** any scheduling happens, the sessions share nothing
/// mutable (they all read the campaign's one regression repository,
/// which no stage writes to), and [`CampaignPlan::collect`] walks the
/// finished runs in group order. That is the whole identity argument:
/// nothing about the result depends on which worker stepped which group
/// when, so any scheduler and any `campaign_jobs` value produces the same
/// bytes.
pub struct CampaignPlan {
    /// The regression repository, restored once from the checkpoint and
    /// shared by every group session.
    repo: Arc<CoverageRepository>,
    before: StatusCounts,
    /// One session per group ready to schedule; `None` where the group
    /// could not be prepared (its failure is in the checkpoint).
    sessions: Vec<Option<DetachedSession>>,
    /// The planned campaign, the header of its checkpoint log: the
    /// regression snapshot once, group sessions without their own copy.
    checkpoint: CampaignProgress,
    /// `(group index, job id)` of every session admitted to the queue.
    jobs: Vec<(usize, u64)>,
}

impl CampaignPlan {
    /// Plans a campaign from `progress` on `engine`'s environment and
    /// configuration: restores the regression snapshot once, keeps each
    /// checkpointed group's session, and starts every other group as a
    /// [`TargetSpec::Explicit`] session of its recorded targets, past the
    /// regression, with its index-salted seed `mix_seed(seed, 0xc0 + i)`
    /// (its coarse search resolves the approximated target); every session
    /// shares the one restored repository. A checkpointed session gets
    /// the checks [`FlowEngine::resume`] makes (its unit, its vectors,
    /// and a `repo` of its own, from a checkpoint that predates the log,
    /// must be the campaign's). A group whose session misfits is recorded
    /// with its failure instead of failing the plan; failures stored in
    /// `progress` are recomputed, not trusted.
    ///
    /// # Errors
    ///
    /// [`FlowError::SnapshotMismatch`] when the checkpoint belongs to a
    /// different unit; [`FlowError::Checkpoint`] when it has no regression
    /// snapshot, the snapshot does not fit the model or does not add up,
    /// or a group targets an event outside the unit's model.
    pub fn new<E: VerifEnv>(
        engine: &FlowEngine<'_, E>,
        progress: &CampaignProgress,
    ) -> Result<Self, FlowError> {
        let env = engine.env();
        let model = env.coverage_model();
        if progress.unit != env.unit_name() {
            return Err(FlowError::SnapshotMismatch(format!(
                "campaign checkpoint is for unit `{}`, flow runs `{}`",
                progress.unit,
                env.unit_name()
            )));
        }
        let snap = progress.repo.as_ref().ok_or_else(|| {
            FlowError::Checkpoint(
                "campaign checkpoint has no regression snapshot; \
                 it predates resumable checkpoints and cannot be resumed"
                    .to_owned(),
            )
        })?;
        for (i, group) in progress.groups.iter().enumerate() {
            if let Some(bad) = group.targets.iter().find(|e| e.index() >= model.len()) {
                return Err(FlowError::Checkpoint(format!(
                    "campaign checkpoint group {i} (`{}`) targets event {}, \
                     but unit `{}` has {} events",
                    group.name,
                    bad.index(),
                    progress.unit,
                    model.len()
                )));
            }
        }
        let repo = Arc::new(restore_snapshot(model, snap)?);
        let before = repo.status_counts(StatusPolicy::default());
        let mut checkpoint = CampaignProgress {
            config: Some(engine.config().clone()),
            ..progress.clone()
        };
        let mut sessions = Vec::with_capacity(checkpoint.groups.len());
        for (i, group) in checkpoint.groups.iter_mut().enumerate() {
            let prep = match &mut group.session {
                // The header keeps the snapshot once; a session from a
                // checkpoint that predates the log carries its own copy,
                // which must be the campaign's.
                Some(state) => {
                    let own = state.repo.take();
                    engine.check(state).and_then(|()| match own {
                        Some(own) if own != *snap => Err(FlowError::Checkpoint(
                            "session checkpoint's regression snapshot is not the campaign's"
                                .to_owned(),
                        )),
                        _ => Ok(state.clone()),
                    })
                }
                None => Ok(engine.state_after(
                    &repo,
                    TargetSpec::Explicit(group.targets.clone()),
                    mix_seed(progress.seed, 0xc0 + i as u64),
                )),
            };
            group.failure = prep.as_ref().err().map(ToString::to_string);
            sessions.push(prep.ok().map(|state| DetachedSession {
                state,
                repo: Some(Arc::clone(&repo)),
            }));
        }
        Ok(CampaignPlan {
            repo,
            before,
            sessions,
            checkpoint,
            jobs: Vec::new(),
        })
    }

    /// Hands over the sessions to schedule, as `(group index, session)`.
    fn take_sessions(&mut self) -> Vec<(usize, DetachedSession)> {
        self.sessions
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.take().map(|state| (i, state)))
            .collect()
    }

    /// The planned campaign, as [`CampaignEntry::Plan`] streams it.
    #[must_use]
    pub fn checkpoint(&self) -> &CampaignProgress {
        &self.checkpoint
    }

    /// Streams the planned campaign to `sink` (a checkpoint log's
    /// header, written before any stage runs), then admits every prepared
    /// group session to `queue` with `weight` and `class`. Each admitted
    /// group streams a [`CampaignEntry::Step`] to `sink` after every
    /// stage it completes, in stage order. Returns the `(group index, job
    /// id)` of every admitted session, or `None` when the queue refused
    /// one (it was sealed or closed).
    pub fn admit<'cb>(
        &mut self,
        queue: &AdmissionQueue<'cb>,
        weight: u32,
        class: &str,
        sink: Option<Arc<CampaignSink<'cb>>>,
    ) -> Option<&[(usize, u64)]> {
        if let Some(sink) = &sink {
            sink(CampaignEntry::Plan(&self.checkpoint));
        }
        for (group, session) in self.take_sessions() {
            let on_step = sink.clone().map(|sink| {
                Box::new(move |state: &SessionState| sink(CampaignEntry::Step { group, state }))
                    as StepFn<'cb>
            });
            let id = queue.admit(AdmitSpec {
                session,
                weight,
                class: class.to_owned(),
                on_step,
            })?;
            self.jobs.push((group, id));
        }
        Some(&self.jobs)
    }

    /// Waits for every admitted group's run on `queue` and folds the runs
    /// in group order: a group that was never admitted reports its
    /// recorded prep failure. Returns `None` when the queue closed before
    /// a group finished (its checkpoint is the recovery path).
    #[must_use]
    pub fn collect(&self, queue: &AdmissionQueue<'_>) -> Option<CampaignReport> {
        let mut runs: Vec<Option<GroupRun>> = std::iter::repeat_with(|| None)
            .take(self.sessions.len())
            .collect();
        for &(group, id) in &self.jobs {
            runs[group] = Some(queue.wait(id)?);
        }
        Some(fold_campaign(
            &self.checkpoint,
            &self.repo,
            self.before,
            runs,
        ))
    }
}

impl CampaignReport {
    /// One validated run manifest per group that ran, as `(group index,
    /// manifest)`, in group order.
    ///
    /// # Errors
    ///
    /// `group <i> manifest failed validation: <why>` for the first group
    /// whose manifest fails [`RunManifest::validate`].
    pub fn manifests(&self, telemetry: &Telemetry) -> Result<Vec<(usize, RunManifest)>, String> {
        let mut manifests = Vec::new();
        for (i, state) in self.sessions.iter().enumerate() {
            let Some(state) = state else { continue };
            let manifest = RunManifest::from_state(state, telemetry);
            manifest
                .validate()
                .map_err(|e| format!("group {i} manifest failed validation: {e}"))?;
            manifests.push((i, manifest));
        }
        Ok(manifests)
    }
}

/// Groups a unit's uncovered events the way the paper deploys the flow:
/// cross-product models form one group (their structure, not name
/// suffixes, defines neighborship); otherwise one group per name family
/// plus a leftover group for uncovered events outside any family.
pub fn group_uncovered(
    model: &CoverageModel,
    repo: &CoverageRepository,
) -> Vec<(String, Vec<EventId>)> {
    let uncovered = repo.uncovered_events();
    if model.cross_product().is_some() {
        if uncovered.is_empty() {
            return Vec::new();
        }
        return vec![("(cross-product)".to_owned(), uncovered)];
    }
    let mut groups: Vec<(String, Vec<EventId>)> = Vec::new();
    let mut grouped: Vec<EventId> = Vec::new();
    for family in EventFamily::discover(model) {
        let targets: Vec<EventId> = family
            .events()
            .into_iter()
            .filter(|e| uncovered.contains(e))
            .collect();
        if !targets.is_empty() {
            grouped.extend(&targets);
            groups.push((family.stem().to_owned(), targets));
        }
    }
    let leftovers: Vec<EventId> = uncovered
        .iter()
        .copied()
        .filter(|e| !grouped.contains(e))
        .collect();
    if !leftovers.is_empty() {
        groups.push(("(ungrouped)".to_owned(), leftovers));
    }
    groups
}

/// Folds finished group runs into a [`CampaignReport`], walking the runs
/// in group order (the harvested-name collision suffix and the summary
/// are order-sensitive; the hit union is commutative anyway). A group
/// without a run reports its recorded prep failure. Each reported
/// session gets the campaign's regression snapshot back as its `repo`,
/// so its run manifest carries the coverage section. With no groups at
/// all this is the regression-only outcome: `after == before` and an
/// empty library.
fn fold_campaign(
    progress: &CampaignProgress,
    repo: &CoverageRepository,
    before: StatusCounts,
    mut runs: Vec<Option<GroupRun>>,
) -> CampaignReport {
    let groups = &progress.groups;
    let policy = StatusPolicy::default();
    let n = groups.len();
    let mut out_groups = Vec::with_capacity(n);
    let mut sessions: Vec<Option<SessionState>> = vec![None; n];
    let mut harvested = TemplateLibrary::new();
    let mut union_hits: Vec<u64> = repo.all_global_stats().iter().map(|s| s.hits).collect();
    let union_sims_base = repo.total_simulations();
    let mut extra_sims: u64 = 0;
    let mut union_extra_sims: u64 = 0;
    for (i, group) in groups.iter().enumerate() {
        let (name, targets) = (group.name.clone(), group.targets.clone());
        let (outcome, state) = match runs[i].take() {
            Some(Ok(run)) => run,
            Some(Err(e)) => {
                fail_group(&mut out_groups, name, targets, e.to_string());
                continue;
            }
            None => {
                let why = group
                    .failure
                    .clone()
                    .unwrap_or_else(|| "group was never scheduled".to_owned());
                fail_group(&mut out_groups, name, targets, why);
                continue;
            }
        };
        let Some(best) = outcome.phase(PHASE_BEST).cloned() else {
            fail_group(
                &mut out_groups,
                name,
                targets,
                "flow produced no best-test phase".to_owned(),
            );
            continue;
        };
        let group_sims = non_regression_sims(&outcome);
        extra_sims += group_sims;
        let newly = targets
            .iter()
            .filter(|&&e| best.hits[e.index()] > 0)
            .count();
        // Fold the best-test evidence into the unit-level "after"
        // picture.
        for (acc, &h) in union_hits.iter_mut().zip(&best.hits) {
            *acc += h;
        }
        union_extra_sims += best.sims;
        // Two groups can choose the same stock template, so qualify
        // the harvested name by the group (and, should two groups
        // still collide, by the group index).
        let clean: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let mut template_name = format!("{}__{clean}", outcome.best_template.name());
        if harvested.by_name(&template_name).is_some() {
            template_name = format!("{template_name}_{i}");
        }
        match harvested.push(outcome.best_template.renamed(&template_name)) {
            Ok(_) => {
                sessions[i] = Some(SessionState {
                    repo: progress.repo.clone(),
                    ..state
                });
                out_groups.push(CampaignGroup {
                    name,
                    targets,
                    newly_covered: newly,
                    sims: group_sims,
                    harvested_template: Some(template_name),
                    failure: None,
                });
            }
            Err(e) => {
                fail_group(
                    &mut out_groups,
                    name,
                    targets,
                    FlowError::from(e).to_string(),
                );
            }
        }
    }

    let after = policy.count(union_hits.iter().map(|&hits| ascdg_coverage::HitStats {
        hits,
        sims: union_sims_base + union_extra_sims,
    }));

    CampaignReport {
        outcome: CampaignOutcome {
            unit: progress.unit.clone(),
            before,
            after,
            groups: out_groups,
            total_sims: union_sims_base + extra_sims,
            harvested,
        },
        sessions,
    }
}

/// Records a group the flow could not complete — the paper's "failed to
/// provide the desired results" category.
fn fail_group(out: &mut Vec<CampaignGroup>, name: String, targets: Vec<EventId>, why: String) {
    out.push(CampaignGroup {
        name,
        targets,
        newly_covered: 0,
        sims: 0,
        harvested_template: None,
        failure: Some(why),
    });
}

/// Sum of a flow outcome's phase simulations, excluding the shared
/// regression phase.
fn non_regression_sims(outcome: &FlowOutcome) -> u64 {
    outcome
        .phases
        .iter()
        .filter(|p| p.name != PHASE_BEFORE)
        .map(|p| p.sims)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowConfig;
    use ascdg_duv::io_unit::IoEnv;
    use ascdg_duv::l3cache::L3Env;
    use std::sync::Mutex;

    fn config() -> FlowConfig {
        let mut c = FlowConfig::quick().scaled(3.0);
        c.threads = 2;
        c
    }

    #[test]
    fn io_campaign_sweeps_both_families() {
        let flow = CdgFlow::new(IoEnv::new(), config());
        let out = flow.run_campaign(7).expect("campaign runs");
        assert_eq!(out.unit, "io_unit");
        let names: Vec<&str> = out.groups.iter().map(|g| g.name.as_str()).collect();
        assert!(names.contains(&"crc_"), "groups: {names:?}");
        assert!(names.contains(&"qdepth_"), "groups: {names:?}");
        // The campaign must make net progress.
        assert!(
            out.after.never_hit < out.before.never_hit,
            "{}",
            out.summary()
        );
        assert!(out.total_newly_covered() > 0);
        // Each successful group harvested a template.
        for g in &out.groups {
            if g.failure.is_none() {
                assert!(g.harvested_template.is_some());
                assert!(g.sims > 0);
            }
        }
        assert_eq!(
            out.harvested.len(),
            out.groups.iter().filter(|g| g.failure.is_none()).count()
        );
        // The summary mentions every group.
        let s = out.summary();
        assert!(s.contains("crc_") && s.contains("qdepth_"));
    }

    #[test]
    fn l3_campaign_accounts_simulations() {
        let flow = CdgFlow::new(L3Env::new(), config());
        let out = flow.run_campaign(3).expect("campaign runs");
        let group_sims: u64 = out.groups.iter().map(|g| g.sims).sum();
        let lib_len = flow.env().stock_library().len() as u64;
        let regression = lib_len * flow.config().regression_sims_per_template;
        assert_eq!(out.total_sims, regression + group_sims);
    }

    /// Runs `f` on a quick io_unit engine over a two-thread pool.
    fn on_engine<R>(f: impl FnOnce(&FlowEngine<'_, IoEnv>) -> R) -> R {
        let env = IoEnv::new();
        crate::pool_scope(2, |pool| {
            f(&FlowEngine::new(&env, FlowConfig::quick(), pool))
        })
    }

    /// A fresh io_unit campaign's regression-only checkpoint.
    fn regression_checkpoint(seed: u64) -> CampaignProgress {
        on_engine(|engine| engine.regression_checkpoint(seed)).expect("regression runs")
    }

    /// Plans `progress` on an io_unit engine and hands the plan to `f`.
    fn with_plan<R>(progress: &CampaignProgress, f: impl FnOnce(CampaignPlan) -> R) -> R {
        on_engine(|engine| f(CampaignPlan::new(engine, progress).expect("plans")))
    }

    #[test]
    fn plan_salts_rebuilt_groups_and_recomputes_stored_failures() {
        let mut progress = regression_checkpoint(11);
        assert!(progress.groups.len() >= 2, "io_unit leaves families open");
        // A stale failure on disk must not keep a group from running.
        progress.groups[0].failure = Some("stale".to_owned());
        with_plan(&progress, |mut plan| {
            let sessions = plan.take_sessions();
            assert_eq!(sessions.len(), progress.groups.len());
            for (i, session) in &sessions {
                assert_eq!(session.state.seed, mix_seed(11, 0xc0 + *i as u64));
            }
            let planned = plan.checkpoint();
            assert!(planned.groups.iter().all(|g| g.failure.is_none()));
            assert!(planned.config.is_some(), "the plan embeds its config");
        });
    }

    #[test]
    fn plan_without_groups_folds_to_the_regression_only_outcome() {
        let mut progress = regression_checkpoint(11);
        progress.groups.clear();
        let report = with_plan(&progress, |plan| {
            plan.collect(&AdmissionQueue::new(Telemetry::disabled()))
        });
        let out = report.expect("nothing to wait for").outcome;
        assert_eq!(out.after, out.before);
        assert!(out.groups.is_empty() && out.harvested.is_empty());
        let repo = progress.repo.expect("snapshot");
        assert_eq!(out.total_sims, repo.global_sims);
    }

    /// Admits `plan` to a fresh queue with `weight`, `class` and `sink`,
    /// steps it with two workers on `engine`, and collects its report.
    fn drive<'cb>(
        engine: &FlowEngine<'_, IoEnv>,
        queue: &AdmissionQueue<'cb>,
        plan: &mut CampaignPlan,
        (weight, class): (u32, &str),
        sink: Option<Arc<CampaignSink<'cb>>>,
    ) -> CampaignReport {
        plan.admit(queue, weight, class, sink).expect("open queue");
        queue.seal();
        std::thread::scope(|scope| {
            scope.spawn(|| queue.run_worker(engine));
            queue.run_worker(engine);
        });
        plan.collect(queue).expect("a sealed queue runs every job")
    }

    /// Every planned group session, fresh or checkpointed, reads the
    /// plan's one repository, and a whole campaign leaves it equal to the
    /// header's snapshot: no stage writes to it.
    #[test]
    fn group_sessions_share_one_repository_that_no_stage_writes() {
        let mut progress = regression_checkpoint(11);
        on_engine(|engine| {
            let mut plan = CampaignPlan::new(engine, &progress).expect("plans");
            let planned: Vec<&DetachedSession> = plan.sessions.iter().flatten().collect();
            assert_eq!(planned.len(), progress.groups.len());
            for session in planned {
                let repo = session.repo.as_ref().expect("a planned session has a repo");
                assert!(Arc::ptr_eq(repo, &plan.repo));
                assert!(session.state.repo.is_none());
            }
            let queue = AdmissionQueue::new(Telemetry::disabled());
            let report = drive(engine, &queue, &mut plan, (1, "default"), None);
            assert!(report.outcome.groups.iter().any(|g| g.failure.is_none()));
            assert_eq!(Some(plan.repo.snapshot()), progress.repo);
            // Reported sessions get the snapshot back for their manifests.
            for state in report.sessions.iter().flatten() {
                assert_eq!(state.repo, progress.repo);
            }
            // A checkpointed group shares the repository of its new plan.
            progress.groups[0].session = report.sessions[0].clone();
            let mut plan = CampaignPlan::new(engine, &progress).expect("plans");
            assert!(plan.checkpoint().groups[0].session.is_some());
            for (_, session) in plan.take_sessions() {
                assert!(Arc::ptr_eq(session.repo.as_ref().unwrap(), &plan.repo));
            }
        });
    }

    /// A plan admitted to a caller-owned queue, with a weight and class of
    /// its own, streams one `Plan` and then each group's stages in stage
    /// order, and folds to the one-shot campaign's bytes.
    #[test]
    fn plan_on_a_caller_queue_streams_its_log_and_folds_to_the_campaign() {
        let seed = 5;
        let one_shot = CdgFlow::new(IoEnv::new(), FlowConfig::quick())
            .run_campaign(seed)
            .expect("campaign runs");
        // One entry per streamed item: `None` for the plan, else the
        // group and its completed stages.
        type Streamed = Option<(usize, Vec<String>)>;
        let entries: Mutex<Vec<Streamed>> = Mutex::new(Vec::new());
        let (report, statuses, stage_names) = on_engine(|engine| {
            let start = engine.regression_checkpoint(seed).expect("regression runs");
            let mut plan = CampaignPlan::new(engine, &start).expect("plans");
            let queue = AdmissionQueue::new(Telemetry::disabled());
            let sink: Arc<CampaignSink<'_>> = Arc::new(|entry: CampaignEntry<'_>| {
                let item = match entry {
                    CampaignEntry::Plan(_) => None,
                    CampaignEntry::Step { group, state } => Some((group, state.completed.clone())),
                };
                entries.lock().unwrap().push(item);
            });
            let report = drive(engine, &queue, &mut plan, (3, "gold"), Some(sink));
            let names: Vec<String> = engine.stage_names().iter().map(|&s| s.to_owned()).collect();
            (report, queue.snapshot().jobs, names)
        });
        assert_eq!(
            serde_json::to_string(&report.outcome).unwrap(),
            serde_json::to_string(&one_shot).unwrap()
        );
        assert!(statuses.iter().all(|s| s.weight == 3 && s.class == "gold"));
        let entries = entries.into_inner().unwrap();
        assert_eq!(entries[0], None, "the plan comes first");
        assert!(entries[1..].iter().all(Option::is_some), "one plan only");
        for (group, state) in report.sessions.iter().enumerate() {
            let completed: Vec<&Vec<String>> = entries
                .iter()
                .flatten()
                .filter(|(g, _)| *g == group)
                .map(|(_, completed)| completed)
                .collect();
            // Regression is planned as done; every later stage streams once.
            for (i, stages) in completed.iter().enumerate() {
                assert_eq!(stages[..], stage_names[..i + 2], "group {group}");
            }
            if let Some(state) = state {
                assert_eq!(completed.len(), stage_names.len() - 1);
                assert_eq!(completed.last().map(|c| &c[..]), Some(&state.completed[..]));
            }
        }
    }

    #[test]
    fn campaign_serializes() {
        let flow = CdgFlow::new(IoEnv::new(), FlowConfig::quick());
        let out = flow.run_campaign(1).expect("campaign runs");
        let json = serde_json::to_string(&out).unwrap();
        let back: CampaignOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back.unit, out.unit);
        assert_eq!(back.groups.len(), out.groups.len());
    }
}
