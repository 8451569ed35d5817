//! Stage-granular scheduling of several flow sessions over one engine.
//!
//! The [`AdmissionQueue`] turns each session into a schedulable job whose
//! unit of work is **one pipeline stage** ([`FlowEngine::step`]). A small
//! worker crew pulls jobs off a shared ready queue, steps them once on the
//! engine's persistent [`SimPool`](crate::SimPool), and requeues them — so
//! while one session sits in a cheap analysis stage (coarse search,
//! skeletonize), another session's simulation batches keep the pool
//! saturated.
//!
//! Admission is *weighted*: each job carries a deficit-round-robin weight
//! (its priority/budget class), and a job popped with an empty deficit is
//! granted `weight` consecutive stage quanta before rotating to the back
//! of the queue. Equal weights degenerate to the exact round-robin
//! rotation the campaign scheduler always had (pinned by test), and no
//! weight can starve another job: every ready job is dispatched at least
//! once per `sum(weights)` quanta.
//!
//! Determinism: the job passed between workers is a [`DetachedSession`],
//! the serializable state beside the live repository it reads (the
//! [`SessionCx`](crate::SessionCx) holds non-`Send` machinery and is put
//! back together per step by `FlowEngine::attach`, which copies and
//! checks nothing). Every session's seeds are salted *before* scheduling
//! begins, and the one thing sessions share, the regression repository,
//! no stage writes to, so each job's [`FlowOutcome`] — and any
//! order-independent fold over them — is byte-identical at any worker
//! count or weight assignment. Only wall-clock attribution (timings,
//! telemetry) varies.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use ascdg_duv::VerifEnv;
use ascdg_telemetry::Telemetry;
use serde::{Deserialize, Serialize};

use crate::engine::FlowEngine;
use crate::session::{CancelToken, DetachedSession, SessionState};
use crate::{FlowError, FlowOutcome};

/// One scheduled session's result: the assembled outcome plus its final
/// state (kept for manifests and per-group progress reporting).
pub(crate) type GroupRun = Result<(FlowOutcome, SessionState), FlowError>;

/// A job's per-stage progress callback (invoked outside the queue lock,
/// from whichever worker stepped the job).
pub(crate) type StepFn<'cb> = Box<dyn Fn(&SessionState) + Send + Sync + 'cb>;

/// Where a job is in its life on the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionLifecycle {
    /// Admitted and waiting on the ready queue.
    Queued,
    /// A worker is currently stepping one of its stages.
    Running,
    /// Cancellation was requested while the job was queued or running; it
    /// retires at its next dispatch.
    Draining,
    /// All stages ran and the outcome was assembled.
    Complete,
    /// A stage failed; the job retired with its error.
    Failed,
    /// The job retired through cancellation.
    Cancelled,
}

impl SessionLifecycle {
    /// Whether the job has retired (no further dispatches).
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SessionLifecycle::Complete | SessionLifecycle::Failed | SessionLifecycle::Cancelled
        )
    }
}

impl std::fmt::Display for SessionLifecycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SessionLifecycle::Queued => "queued",
            SessionLifecycle::Running => "running",
            SessionLifecycle::Draining => "draining",
            SessionLifecycle::Complete => "complete",
            SessionLifecycle::Failed => "failed",
            SessionLifecycle::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// Everything one admission needs: the session plus its scheduling
/// parameters and its step hook.
pub(crate) struct AdmitSpec<'cb> {
    /// The session to run (stages already completed are skipped, so a
    /// checkpointed state resumes where it left off).
    pub session: DetachedSession,
    /// Deficit-round-robin weight: consecutive stage quanta granted per
    /// rotation. Clamped to at least 1; all-equal weights reproduce the
    /// exact unweighted round-robin order.
    pub weight: u32,
    /// Priority-class label, used for per-class queue-depth gauges and
    /// per-tenant sim accounting (`serve.*` metrics).
    pub class: String,
    /// Called with the latest state after every completed stage —
    /// checkpoint/streaming hook; runs outside the queue lock.
    pub on_step: Option<StepFn<'cb>>,
}

/// A point-in-time view of one admitted job (for `ascdg status`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// The id `admit` returned.
    pub id: u64,
    /// The job's priority-class label.
    pub class: String,
    /// The job's dispatch weight.
    pub weight: u32,
    /// Where the job is in its life.
    pub lifecycle: SessionLifecycle,
    /// Pipeline stages completed so far.
    pub completed_stages: usize,
    /// Simulations attributed to the job so far.
    pub sims: u64,
}

struct Job<'cb> {
    class: String,
    weight: u32,
    /// Remaining consecutive quanta in the job's current DRR grant.
    deficit: u32,
    lifecycle: SessionLifecycle,
    completed_stages: usize,
    sims: u64,
    cancel: CancelToken,
    on_step: Option<StepFn<'cb>>,
    result: Option<Box<GroupRun>>,
}

struct QueueInner<'cb> {
    jobs: Vec<Job<'cb>>,
    /// Every priority class that ever admitted a job, in first-seen order.
    classes: Vec<String>,
    /// `(job, session)` ready to be stepped, drained deficit-round-robin.
    ready: VecDeque<(u64, DetachedSession)>,
    /// Jobs currently being stepped by a worker.
    in_flight: usize,
    /// Admitted and not yet terminal (spans queued + running).
    active: usize,
    /// No further admissions; workers exit once the queue drains.
    sealed: bool,
    /// Hard stop: workers exit after their current quantum, pending jobs
    /// stay unfinished (their checkpoints are the recovery path).
    closed: bool,
}

/// What one scheduling quantum produced. Both payloads are boxed: each
/// crosses the scheduler lock once per multi-second stage step, so the
/// indirection costs nothing and keeps the enum pointer-sized.
enum Stepped {
    /// The session has stages left; back on the ready queue it goes.
    Pending(Box<DetachedSession>),
    /// The session finished (or failed); its slot is done.
    Finished(Box<GroupRun>),
}

/// An admission-controlled, weight-aware scheduler for flow sessions.
///
/// Jobs can be admitted while workers are already running: every
/// campaign admits its group sessions through
/// [`CampaignPlan::admit`](crate::CampaignPlan::admit), a one-shot
/// campaign to a private queue it then seals, the daemon's serve loop to
/// its unit's long-lived queue as each request arrives. Workers are
/// driven by [`AdmissionQueue::run_worker`]; the queue itself owns no
/// threads, so it composes with scoped pools.
pub struct AdmissionQueue<'cb> {
    inner: Mutex<QueueInner<'cb>>,
    /// Signals workers: new ready work, or seal/close.
    work_ready: Condvar,
    /// Signals waiters: a job retired, or the queue closed.
    job_done: Condvar,
    telemetry: Telemetry,
}

fn lock<'q, 'cb>(inner: &'q Mutex<QueueInner<'cb>>) -> MutexGuard<'q, QueueInner<'cb>> {
    inner.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<'cb> AdmissionQueue<'cb> {
    /// An empty, open queue. Telemetry is observational only — gauges
    /// (`campaign.ready_queue_depth`, `serve.queue_depth.<class>`,
    /// `campaign.in_flight_groups`) and per-class sim counters.
    #[must_use]
    pub fn new(telemetry: Telemetry) -> Self {
        AdmissionQueue {
            inner: Mutex::new(QueueInner {
                jobs: Vec::new(),
                classes: Vec::new(),
                ready: VecDeque::new(),
                in_flight: 0,
                active: 0,
                sealed: false,
                closed: false,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            telemetry,
        }
    }

    /// Admits a session with a fresh cancel token; returns its job id,
    /// or `None` when the queue no longer accepts work (sealed or
    /// closed). Campaigns admit through
    /// [`CampaignPlan::admit`](crate::CampaignPlan::admit).
    pub(crate) fn admit(&self, spec: AdmitSpec<'cb>) -> Option<u64> {
        let mut inner = lock(&self.inner);
        if inner.sealed || inner.closed {
            return None;
        }
        let id = inner.jobs.len() as u64;
        if !inner.classes.contains(&spec.class) {
            inner.classes.push(spec.class.clone());
        }
        inner.jobs.push(Job {
            class: spec.class,
            weight: spec.weight.max(1),
            deficit: 0,
            lifecycle: SessionLifecycle::Queued,
            completed_stages: spec.session.state.completed.len(),
            sims: spec.session.state.stage_sims.iter().map(|s| s.sims).sum(),
            cancel: CancelToken::new(),
            on_step: spec.on_step,
            result: None,
        });
        inner.ready.push_back((id, spec.session));
        inner.active += 1;
        self.update_depth_gauges(&inner);
        drop(inner);
        self.work_ready.notify_all();
        Some(id)
    }

    /// Requests cancellation of a job. The job retires with
    /// [`FlowError::Cancelled`] at its next dispatch (or, mid-stage, at
    /// the stage boundary). Returns `false` for unknown or already
    /// retired jobs.
    pub fn cancel(&self, id: u64) -> bool {
        let mut inner = lock(&self.inner);
        let Some(job) = inner.jobs.get_mut(id as usize) else {
            return false;
        };
        if job.lifecycle.is_terminal() {
            return false;
        }
        job.cancel.cancel();
        job.lifecycle = SessionLifecycle::Draining;
        drop(inner);
        self.work_ready.notify_all();
        true
    }

    /// Stops admissions; workers exit once every admitted job retires.
    /// This is the batch mode (a one-shot campaign seals its private
    /// queue after admitting its whole plan).
    pub(crate) fn seal(&self) {
        let mut inner = lock(&self.inner);
        inner.sealed = true;
        drop(inner);
        self.work_ready.notify_all();
        self.job_done.notify_all();
    }

    /// Hard stop: workers exit after the quantum they are in; queued jobs
    /// stay unfinished and their waiters return `None`. The jobs' on-disk
    /// checkpoints are the recovery path.
    pub fn close(&self) {
        let mut inner = lock(&self.inner);
        inner.closed = true;
        inner.sealed = true;
        drop(inner);
        self.work_ready.notify_all();
        self.job_done.notify_all();
    }

    /// Blocks until the job retires and takes its result. Returns `None`
    /// for unknown ids, if the queue closed before the job finished, or
    /// if the result was already taken.
    pub(crate) fn wait(&self, id: u64) -> Option<GroupRun> {
        let mut inner = lock(&self.inner);
        loop {
            let job = inner.jobs.get_mut(id as usize)?;
            if job.result.is_some() {
                return job.result.take().map(|b| *b);
            }
            if job.lifecycle.is_terminal() || inner.closed {
                return None;
            }
            inner = self
                .job_done
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Point-in-time view of every admitted job, in admission order.
    #[must_use]
    pub fn statuses(&self) -> Vec<JobStatus> {
        let inner = lock(&self.inner);
        inner
            .jobs
            .iter()
            .enumerate()
            .map(|(id, job)| JobStatus {
                id: id as u64,
                class: job.class.clone(),
                weight: job.weight,
                lifecycle: job.lifecycle,
                completed_stages: job.completed_stages,
                sims: job.sims,
            })
            .collect()
    }

    /// Jobs admitted and not yet retired (the `serve.active_sessions`
    /// gauge source).
    #[must_use]
    pub fn active_jobs(&self) -> usize {
        lock(&self.inner).active
    }

    /// Jobs waiting on the ready queue right now (not counting the ones
    /// a worker is stepping). Read-only: same number the
    /// `campaign.ready_queue_depth` gauge reports, exposed for pull-style
    /// introspection (the daemon's `/status` endpoint).
    #[must_use]
    pub fn ready_depth(&self) -> usize {
        lock(&self.inner).ready.len()
    }

    /// The ready-queue depth split per priority class, sorted by class
    /// name. Every class that ever admitted a job is present — a drained
    /// class reports 0, mirroring the per-class depth gauges.
    #[must_use]
    pub fn ready_depths_by_class(&self) -> Vec<(String, usize)> {
        let inner = lock(&self.inner);
        let mut depths: Vec<(String, usize)> = depths_by_class(&inner)
            .into_iter()
            .map(|(class, depth)| (class.to_owned(), depth))
            .collect();
        depths.sort();
        depths
    }

    /// Jobs a worker is stepping at this instant.
    #[must_use]
    pub fn in_flight_jobs(&self) -> usize {
        lock(&self.inner).in_flight
    }

    /// Re-emits the ready-queue depth gauges: the total
    /// `campaign.ready_queue_depth` plus one
    /// `campaign.ready_queue_depth.<class>` per priority class present.
    fn update_depth_gauges(&self, inner: &QueueInner<'_>) {
        let Some(m) = self.telemetry.metrics() else {
            return;
        };
        m.gauge("campaign.ready_queue_depth")
            .set(inner.ready.len() as f64);
        for (class, depth) in depths_by_class(inner) {
            m.gauge(&format!("campaign.ready_queue_depth.{class}"))
                .set(depth as f64);
        }
    }

    /// One scheduler worker: pop a ready job (deficit round-robin), step
    /// it one stage on `engine`, requeue or retire it. Returns when the
    /// queue is sealed and drained, or closed. Any number of workers may
    /// run concurrently, on any thread that can borrow the engine.
    pub fn run_worker<E: VerifEnv>(&self, engine: &FlowEngine<'_, E>) {
        loop {
            let (id, session, cancel, on_step) = {
                let mut inner = lock(&self.inner);
                loop {
                    if inner.closed {
                        return;
                    }
                    if let Some((id, session)) = inner.ready.pop_front() {
                        let job = &mut inner.jobs[id as usize];
                        if job.cancel.is_cancelled() {
                            Self::retire(
                                &mut inner,
                                id,
                                Box::new(Err(FlowError::Cancelled)),
                                SessionLifecycle::Cancelled,
                            );
                            self.update_depth_gauges(&inner);
                            drop(inner);
                            self.job_done.notify_all();
                            inner = lock(&self.inner);
                            continue;
                        }
                        // Deficit round-robin: an empty deficit refills to
                        // the job's weight; the grant drains one quantum
                        // per dispatch. Weight 1 refills and drains in the
                        // same rotation — the exact historical
                        // round-robin.
                        if job.deficit == 0 {
                            job.deficit = job.weight;
                        }
                        job.lifecycle = SessionLifecycle::Running;
                        let cancel = job.cancel.clone();
                        let on_step = job.on_step.take();
                        inner.in_flight += 1;
                        if let Some(m) = self.telemetry.metrics() {
                            m.gauge("campaign.in_flight_groups")
                                .set(inner.in_flight as f64);
                        }
                        self.update_depth_gauges(&inner);
                        break (id, session, cancel, on_step);
                    }
                    if inner.sealed && inner.in_flight == 0 {
                        // Sealed, drained, and nobody can produce more
                        // work: the crew is done.
                        return;
                    }
                    inner = self
                        .work_ready
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let stepped = step_once(engine, session, &cancel);
            if let Some(m) = self.telemetry.metrics() {
                m.gauge("campaign.pool_occupancy")
                    .set(engine.pool().busy_workers() as f64);
            }
            let state = match &stepped {
                Stepped::Pending(session) => Some(&session.state),
                Stepped::Finished(run) => run.as_ref().as_ref().ok().map(|(_, state)| state),
            };
            // Report progress outside the queue lock: sinks may do I/O.
            if let (Some(sink), Some(state)) = (&on_step, state) {
                sink(state);
            }
            let mut inner = lock(&self.inner);
            inner.in_flight -= 1;
            let in_flight = inner.in_flight;
            let job = &mut inner.jobs[id as usize];
            job.on_step = on_step;
            if let Some(m) = self.telemetry.metrics() {
                // Attribute the quantum's simulations to the job's class
                // (the per-tenant consumption counter).
                let after = state.map_or(job.sims, |s| s.stage_sims.iter().map(|s| s.sims).sum());
                m.counter(&format!("serve.tenant_sims.{}", job.class))
                    .add(after.saturating_sub(job.sims));
                job.sims = after;
                m.gauge("campaign.in_flight_groups").set(in_flight as f64);
            }
            match stepped {
                Stepped::Pending(session) => {
                    let job = &mut inner.jobs[id as usize];
                    job.completed_stages = session.state.completed.len();
                    job.deficit -= 1;
                    job.lifecycle = if job.cancel.is_cancelled() {
                        SessionLifecycle::Draining
                    } else {
                        SessionLifecycle::Queued
                    };
                    if job.deficit > 0 {
                        // Still inside its weighted grant: stay at the
                        // front for the next consecutive quantum.
                        inner.ready.push_front((id, *session));
                    } else {
                        // Grant exhausted: rotate to the back, so no job
                        // starves — every ready job runs at least once
                        // per sum-of-weights quanta.
                        inner.ready.push_back((id, *session));
                    }
                }
                Stepped::Finished(run) => {
                    let lifecycle = match run.as_ref() {
                        Ok(_) => SessionLifecycle::Complete,
                        Err(FlowError::Cancelled) => SessionLifecycle::Cancelled,
                        Err(_) => SessionLifecycle::Failed,
                    };
                    Self::retire(&mut inner, id, run, lifecycle);
                }
            }
            self.update_depth_gauges(&inner);
            drop(inner);
            self.work_ready.notify_all();
            self.job_done.notify_all();
        }
    }

    /// Marks a job terminal and stores its result (queue lock held).
    fn retire(
        inner: &mut QueueInner<'_>,
        id: u64,
        run: Box<GroupRun>,
        lifecycle: SessionLifecycle,
    ) {
        let job = &mut inner.jobs[id as usize];
        if let Ok((_, state)) = run.as_ref() {
            job.completed_stages = state.completed.len();
        }
        job.lifecycle = lifecycle;
        job.result = Some(run);
        inner.active -= 1;
    }
}

/// The ready-queue depth of every class that ever admitted a job, in
/// first-seen order; only the ready queue is walked.
fn depths_by_class<'q>(inner: &'q QueueInner<'_>) -> Vec<(&'q str, usize)> {
    let mut depths: Vec<(&str, usize)> = inner.classes.iter().map(|c| (c.as_str(), 0)).collect();
    for (id, _) in &inner.ready {
        let class = inner.jobs[*id as usize].class.as_str();
        if let Some((_, depth)) = depths.iter_mut().find(|(c, _)| *c == class) {
            *depth += 1;
        }
    }
    depths
}

/// Attaches a parked session, runs exactly one stage, and reports whether
/// it still has work. A job's failure retires the job, never the
/// scheduler.
fn step_once<E: VerifEnv>(
    engine: &FlowEngine<'_, E>,
    session: DetachedSession,
    cancel: &CancelToken,
) -> Stepped {
    let mut cx = engine.attach(session);
    cx.set_cancel_token(cancel.clone());
    match engine.step(&mut cx) {
        Err(e) => Stepped::Finished(Box::new(Err(e))),
        Ok(_) if engine.next_stage(cx.state()).is_none() => {
            let outcome = engine.finish(&cx);
            Stepped::Finished(Box::new(outcome.map(|o| (o, cx.into_state()))))
        }
        Ok(_) => Stepped::Pending(Box::new(cx.detach())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::pool_scope;
    use crate::session::TargetSpec;
    use crate::FlowConfig;
    use ascdg_duv::io_unit::IoEnv;
    use ascdg_stimgen::mix_seed;
    use std::sync::atomic::Ordering;

    fn test_threads() -> usize {
        std::env::var("ASCDG_TEST_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(4)
    }

    fn strip_timings(mut outcome: FlowOutcome) -> FlowOutcome {
        outcome.timings.clear();
        outcome
    }

    impl AdmitSpec<'_> {
        /// A weight-1 `"default"`-class admission without a hook.
        fn new(session: DetachedSession) -> Self {
            AdmitSpec {
                session,
                weight: 1,
                class: "default".to_owned(),
                on_step: None,
            }
        }
    }

    /// Runs `sessions` to completion on a sealed equal-weight queue
    /// crewed by `jobs` workers, the caller among them, and returns their
    /// runs in admission order.
    fn run_crew(
        engine: &FlowEngine<'_, IoEnv>,
        jobs: usize,
        sessions: Vec<DetachedSession>,
    ) -> Vec<GroupRun> {
        let queue = AdmissionQueue::new(Telemetry::disabled());
        let ids: Vec<u64> = sessions
            .into_iter()
            .map(|session| queue.admit(AdmitSpec::new(session)).expect("open queue"))
            .collect();
        queue.seal();
        std::thread::scope(|scope| {
            for _ in 1..jobs {
                scope.spawn(|| queue.run_worker(engine));
            }
            queue.run_worker(engine);
        });
        ids.into_iter()
            .map(|id| queue.wait(id).expect("job scheduled"))
            .collect()
    }

    /// Two independent family sessions interleaved by a crew of 1, 2 or
    /// 8 workers must each reproduce their plain `FlowEngine::run`
    /// outcome bit for bit.
    #[test]
    fn interleaved_sessions_match_sequential_runs() {
        let env = IoEnv::new();
        let mut cfg = FlowConfig::quick();
        cfg.threads = test_threads();
        let specs = [
            TargetSpec::Family("crc_".to_owned()),
            TargetSpec::Family("qdepth_".to_owned()),
        ];
        let outcome_json = |outcome| serde_json::to_string(&strip_timings(outcome)).unwrap();
        let sequential: Vec<String> = pool_scope(cfg.threads, |pool| {
            let engine = FlowEngine::new(&env, cfg.clone(), pool);
            specs
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    let mut cx = engine.session(spec.clone(), mix_seed(17, i as u64));
                    outcome_json(engine.run(&mut cx).expect("flow runs"))
                })
                .collect()
        });
        let run_at = |jobs: usize| {
            pool_scope(cfg.threads, |pool| {
                let engine = FlowEngine::new(&env, cfg.clone(), pool);
                let sessions = specs
                    .iter()
                    .enumerate()
                    .map(|(i, spec)| {
                        engine
                            .session(spec.clone(), mix_seed(17, i as u64))
                            .detach()
                    })
                    .collect();
                run_crew(&engine, jobs, sessions)
                    .into_iter()
                    .map(|run| {
                        let (outcome, state) = run.expect("flow runs");
                        assert!(engine.next_stage(&state).is_none());
                        outcome_json(outcome)
                    })
                    .collect::<Vec<_>>()
            })
        };
        for jobs in [1, 2, 8] {
            assert_eq!(run_at(jobs), sequential, "{jobs} workers");
        }
    }

    /// A session that cannot run (no targets) retires its own slot; the
    /// healthy session still completes.
    #[test]
    fn one_failing_session_does_not_sink_the_others() {
        let env = IoEnv::new();
        let mut cfg = FlowConfig::quick();
        cfg.threads = test_threads();
        pool_scope(cfg.threads, |pool| {
            let engine = FlowEngine::new(&env, cfg.clone(), pool);
            let bad = engine.session(TargetSpec::Family("no_such_".to_owned()), 5);
            let good = engine.session(TargetSpec::Family("crc_".to_owned()), 5);
            let runs = run_crew(&engine, 2, vec![bad.detach(), good.detach()]);
            assert!(runs[0].is_err());
            assert!(runs[1].is_ok());
        });
    }

    /// Records the dispatch order of a single-worker crew: the sequence
    /// of job ids in the order their quanta ran.
    fn dispatch_order(weights: &[u32]) -> (Vec<u64>, Vec<JobStatus>) {
        let env = IoEnv::new();
        let cfg = FlowConfig::quick();
        let families = ["crc_", "qdepth_"];
        pool_scope(2, |pool| {
            let engine = FlowEngine::new(&env, cfg.clone(), pool);
            let order = Mutex::new(Vec::new());
            let queue = AdmissionQueue::new(Telemetry::disabled());
            let ids: Vec<u64> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| {
                    let cx = engine.session(
                        TargetSpec::Family(families[i % families.len()].to_owned()),
                        mix_seed(23, i as u64),
                    );
                    let mut spec = AdmitSpec::new(cx.detach());
                    spec.weight = w;
                    spec.class = format!("w{w}");
                    let order = &order;
                    spec.on_step = Some(Box::new(move |_| {
                        order.lock().unwrap().push(i as u64);
                    }));
                    queue.admit(spec).expect("open queue")
                })
                .collect();
            queue.seal();
            // One worker: the dispatch order is fully deterministic.
            queue.run_worker(&engine);
            for id in ids {
                queue.wait(id).expect("job scheduled").expect("flow runs");
            }
            let statuses = queue.statuses();
            drop(queue);
            (order.into_inner().unwrap(), statuses)
        })
    }

    /// Equal weights must reproduce the historical strict round-robin
    /// rotation exactly: 0, 1, 2, 0, 1, 2, ... until jobs finish.
    #[test]
    fn equal_weights_dispatch_in_round_robin_order() {
        let (order, statuses) = dispatch_order(&[1, 1, 1]);
        // Simulate the reference rotation with the observed per-job
        // quantum counts.
        let quanta: Vec<usize> = statuses.iter().map(|s| s.completed_stages).collect();
        let mut expected = Vec::new();
        let mut left = quanta;
        while left.iter().any(|&n| n > 0) {
            for (id, n) in left.iter_mut().enumerate() {
                if *n > 0 {
                    *n -= 1;
                    expected.push(id as u64);
                }
            }
        }
        assert_eq!(order, expected, "equal weights must be exact round-robin");
        for s in &statuses {
            assert_eq!(s.lifecycle, SessionLifecycle::Complete);
        }
    }

    /// A weighted job gets consecutive quanta, but can never starve the
    /// others: every ready job is dispatched at least once per
    /// sum-of-weights quanta, so the small jobs complete within a bounded
    /// window even while a heavyweight tenant holds most of the budget.
    #[test]
    fn heavy_weight_cannot_starve_small_jobs() {
        let heavy = 5u32;
        let weights = [heavy, 1, 1, 1];
        let (order, statuses) = dispatch_order(&weights);
        for s in &statuses {
            assert_eq!(s.lifecycle, SessionLifecycle::Complete);
        }
        // The heavy job's grant is honored: its first `heavy` quanta run
        // consecutively.
        assert!(
            order[..heavy as usize].iter().all(|&id| id == 0),
            "weighted job should run its full grant first: {order:?}"
        );
        // Bounded wait: while a small job is unfinished it is dispatched
        // at least once per sum-of-weights quanta — the heavy tenant's
        // budget cannot push it out of the rotation.
        let rotation = weights.iter().sum::<u32>() as usize;
        for id in 1..weights.len() as u64 {
            let hits: Vec<usize> = order
                .iter()
                .enumerate()
                .filter(|&(_, &j)| j == id)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(hits.len(), statuses[id as usize].completed_stages);
            assert!(
                hits[0] < rotation,
                "job {id} first dispatched at {} — outside the first rotation",
                hits[0]
            );
            for w in hits.windows(2) {
                assert!(
                    w[1] - w[0] <= rotation,
                    "job {id} starved between dispatches {} and {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    /// Cancelling one mid-run job retires only that job; the other
    /// session completes normally, and lifecycles land where they should.
    #[test]
    fn cancelled_session_retires_only_its_own_slot() {
        let env = IoEnv::new();
        let cfg = FlowConfig::quick();
        pool_scope(2, |pool| {
            let engine = FlowEngine::new(&env, cfg.clone(), pool);
            // The victim's hook hands over to a canceller thread after
            // its second completed stage and waits for it to cancel.
            let handover = std::sync::Barrier::new(2);
            let fired = std::sync::atomic::AtomicBool::new(false);
            let queue = AdmissionQueue::new(Telemetry::disabled());
            let victim = {
                let cx = engine.session(TargetSpec::Family("crc_".to_owned()), 7);
                let mut spec = AdmitSpec::new(cx.detach());
                let (handover, fired) = (&handover, &fired);
                spec.on_step = Some(Box::new(move |state: &SessionState| {
                    if state.completed.len() >= 2 && !fired.swap(true, Ordering::SeqCst) {
                        handover.wait();
                        handover.wait();
                    }
                }));
                queue.admit(spec).expect("open queue")
            };
            let healthy = {
                let cx = engine.session(TargetSpec::Family("qdepth_".to_owned()), 7);
                queue.admit(AdmitSpec::new(cx.detach())).expect("open")
            };
            queue.seal();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    handover.wait();
                    assert!(queue.cancel(victim));
                    handover.wait();
                });
                queue.run_worker(&engine);
            });
            assert!(matches!(
                queue.wait(victim),
                Some(Err(FlowError::Cancelled))
            ));
            let healthy_run = queue.wait(healthy).expect("scheduled");
            assert!(healthy_run.is_ok(), "healthy session must complete");
            let statuses = queue.statuses();
            assert_eq!(statuses[0].lifecycle, SessionLifecycle::Cancelled);
            assert_eq!(statuses[1].lifecycle, SessionLifecycle::Complete);
            // The victim really stopped at a stage boundary shortly after
            // the cancel, far from a full run.
            assert!(statuses[0].completed_stages < statuses[1].completed_stages);
        });
    }

    /// The read-only introspection accessors report the same picture the
    /// depth gauges paint: per-class ready depths while jobs queue, all
    /// zero (with classes retained) after the crew drains.
    #[test]
    fn introspection_accessors_track_queue_shape() {
        let env = IoEnv::new();
        let cfg = FlowConfig::quick();
        pool_scope(2, |pool| {
            let engine = FlowEngine::new(&env, cfg.clone(), pool);
            let queue = AdmissionQueue::new(Telemetry::disabled());
            assert_eq!(queue.ready_depth(), 0);
            assert!(queue.ready_depths_by_class().is_empty());
            let mut ids = Vec::new();
            for (i, class) in ["batch", "interactive", "batch"].iter().enumerate() {
                let cx = engine.session(
                    TargetSpec::Family(["crc_", "qdepth_"][i % 2].to_owned()),
                    mix_seed(31, i as u64),
                );
                let mut spec = AdmitSpec::new(cx.detach());
                spec.class = (*class).to_owned();
                ids.push(queue.admit(spec).expect("open queue"));
            }
            assert_eq!(queue.ready_depth(), 3);
            assert_eq!(
                queue.ready_depths_by_class(),
                vec![("batch".to_owned(), 2), ("interactive".to_owned(), 1)]
            );
            assert_eq!(queue.in_flight_jobs(), 0);
            queue.seal();
            queue.run_worker(&engine);
            for id in ids {
                queue.wait(id).expect("scheduled").expect("flow runs");
            }
            assert_eq!(queue.ready_depth(), 0);
            assert_eq!(queue.in_flight_jobs(), 0);
            // Drained classes stay visible at depth 0, like the gauges.
            assert_eq!(
                queue.ready_depths_by_class(),
                vec![("batch".to_owned(), 0), ("interactive".to_owned(), 0)]
            );
        });
    }

    /// `close()` stops the crew without draining: pending jobs stay
    /// unfinished and their waiters observe `None` (the checkpoint files
    /// are the recovery path).
    #[test]
    fn close_leaves_pending_jobs_recoverable() {
        let env = IoEnv::new();
        let cfg = FlowConfig::quick();
        pool_scope(2, |pool| {
            let engine = FlowEngine::new(&env, cfg.clone(), pool);
            let queue = AdmissionQueue::new(Telemetry::disabled());
            let cx = engine.session(TargetSpec::Family("crc_".to_owned()), 3);
            let id = queue.admit(AdmitSpec::new(cx.detach())).expect("open");
            queue.close();
            // Workers started after (or during) close exit promptly.
            queue.run_worker(&engine);
            assert!(queue.wait(id).is_none());
            let late = engine.session(TargetSpec::Uncovered, 1);
            assert!(queue.admit(AdmitSpec::new(late.detach())).is_none());
        });
    }
}
