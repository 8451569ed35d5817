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
use crate::session::{DetachedSession, SessionState};
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
    /// retires at its next dispatch, the next stage boundary.
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

/// A point-in-time view of a whole queue, read under one lock, so its
/// readings agree with each other (the daemon's `/status` source).
#[derive(Debug, Clone, PartialEq)]
pub struct QueueSnapshot {
    /// Every admitted job, in admission order.
    pub jobs: Vec<JobStatus>,
    /// Jobs admitted and not yet retired (queued, running or draining).
    pub active: usize,
    /// Jobs a worker is stepping.
    pub in_flight: usize,
    /// Jobs waiting on the ready queue (not counting the ones a worker is
    /// stepping): this queue's share of `campaign.ready_queue_depth`.
    pub ready_depth: usize,
    /// `ready_depth` split per priority class, sorted by class name.
    /// Every class that ever admitted a job is present: a drained class
    /// reports 0, like its `campaign.ready_queue_depth.<class>` gauge.
    pub ready_by_class: Vec<(String, usize)>,
}

struct Job<'cb> {
    class: String,
    weight: u32,
    /// Remaining consecutive quanta in the job's current DRR grant.
    deficit: u32,
    lifecycle: SessionLifecycle,
    completed_stages: usize,
    sims: u64,
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
    /// (`campaign.ready_queue_depth`, `campaign.ready_queue_depth.<class>`,
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

    /// Admits a session; returns its job id, or `None` when the queue no
    /// longer accepts work (sealed or closed). Campaigns admit through
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
            on_step: spec.on_step,
            result: None,
        });
        inner.ready.push_back((id, spec.session));
        inner.active += 1;
        self.shift_gauges(&inner.jobs[id as usize].class, 1.0, 0.0);
        drop(inner);
        self.work_ready.notify_all();
        Some(id)
    }

    /// Requests cancellation of a job: it turns
    /// [`Draining`](SessionLifecycle::Draining) and retires with
    /// [`FlowError::Cancelled`] at its next dispatch. A stage already
    /// running finishes first, so the job stops at a stage boundary.
    /// Returns `false` for unknown or already retired jobs.
    pub fn cancel(&self, id: u64) -> bool {
        let mut inner = lock(&self.inner);
        let Some(job) = inner.jobs.get_mut(id as usize) else {
            return false;
        };
        if job.lifecycle.is_terminal() {
            return false;
        }
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

    /// Jobs admitted and not yet retired: [`QueueSnapshot::active`]
    /// without copying every job's status.
    #[must_use]
    pub fn active(&self) -> usize {
        lock(&self.inner).active
    }

    /// The whole queue at one instant: every job's status and the queue's
    /// depth readings, all taken under one lock.
    #[must_use]
    pub fn snapshot(&self) -> QueueSnapshot {
        let inner = lock(&self.inner);
        let jobs = inner
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
            .collect();
        // Every class that ever admitted a job; only the ready queue is
        // walked.
        let mut ready_by_class: Vec<(String, usize)> =
            inner.classes.iter().map(|c| (c.clone(), 0)).collect();
        for (id, _) in &inner.ready {
            let class = &inner.jobs[*id as usize].class;
            if let Some((_, depth)) = ready_by_class.iter_mut().find(|(c, _)| c == class) {
                *depth += 1;
            }
        }
        ready_by_class.sort();
        QueueSnapshot {
            jobs,
            active: inner.active,
            in_flight: inner.in_flight,
            ready_depth: inner.ready.len(),
            ready_by_class,
        }
    }

    /// Adds one job's move to the depth and in-flight gauges
    /// (`campaign.ready_queue_depth`, its `.<class>` split and
    /// `campaign.in_flight_groups`). Queues sharing one registry (the
    /// daemon's unit queues) each add only their own moves, so a gauge
    /// reads the sum over the queues.
    fn shift_gauges(&self, class: &str, ready: f64, in_flight: f64) {
        if let Some(m) = self.telemetry.metrics() {
            m.gauge("campaign.ready_queue_depth").add(ready);
            m.gauge(&format!("campaign.ready_queue_depth.{class}"))
                .add(ready);
            m.gauge("campaign.in_flight_groups").add(in_flight);
        }
    }

    /// One scheduler worker: pop a ready job (deficit round-robin), step
    /// it one stage on `engine`, requeue or retire it. Returns when the
    /// queue is sealed and drained, or closed. Any number of workers may
    /// run concurrently, on any thread that can borrow the engine.
    pub fn run_worker<E: VerifEnv>(&self, engine: &FlowEngine<'_, E>) {
        loop {
            let (id, session, on_step) = {
                let mut inner = lock(&self.inner);
                loop {
                    if inner.closed {
                        return;
                    }
                    if let Some((id, session)) = inner.ready.pop_front() {
                        let job = &mut inner.jobs[id as usize];
                        if job.lifecycle == SessionLifecycle::Draining {
                            Self::retire(
                                &mut inner,
                                id,
                                Box::new(Err(FlowError::Cancelled)),
                                SessionLifecycle::Cancelled,
                            );
                            self.shift_gauges(&inner.jobs[id as usize].class, -1.0, 0.0);
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
                        let on_step = job.on_step.take();
                        self.shift_gauges(&job.class, -1.0, 1.0);
                        inner.in_flight += 1;
                        break (id, session, on_step);
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
            let stepped = step_once(engine, session);
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
            let job = &mut inner.jobs[id as usize];
            job.on_step = on_step;
            let after = state.map_or(job.sims, |s| s.stage_sims.iter().map(|s| s.sims).sum());
            if let Some(m) = self.telemetry.metrics() {
                // Attribute the quantum's simulations to the job's class
                // (the per-tenant consumption counter).
                m.counter(&format!("serve.tenant_sims.{}", job.class))
                    .add(after.saturating_sub(job.sims));
            }
            job.sims = after;
            match stepped {
                Stepped::Pending(session) => {
                    let job = &mut inner.jobs[id as usize];
                    self.shift_gauges(&job.class, 1.0, -1.0);
                    job.completed_stages = session.state.completed.len();
                    job.deficit -= 1;
                    // A cancel that landed while the stage ran left the
                    // job draining: its next dispatch retires it.
                    if job.lifecycle != SessionLifecycle::Draining {
                        job.lifecycle = SessionLifecycle::Queued;
                    }
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
                    // A job that finished its last stage completes, even
                    // if a cancel landed while that stage ran.
                    let lifecycle = match run.as_ref() {
                        Ok(_) => SessionLifecycle::Complete,
                        Err(_) => SessionLifecycle::Failed,
                    };
                    Self::retire(&mut inner, id, run, lifecycle);
                    self.shift_gauges(&inner.jobs[id as usize].class, 0.0, -1.0);
                }
            }
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

/// Attaches a parked session, runs exactly one stage, and reports whether
/// it still has work. A job's failure retires the job, never the
/// scheduler.
fn step_once<E: VerifEnv>(engine: &FlowEngine<'_, E>, session: DetachedSession) -> Stepped {
    let mut cx = engine.attach(session);
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
    use crate::pool::tests::under_watchdog;
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
            let statuses = queue.snapshot().jobs;
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
            let statuses = queue.snapshot().jobs;
            assert_eq!(statuses[0].lifecycle, SessionLifecycle::Cancelled);
            assert_eq!(statuses[1].lifecycle, SessionLifecycle::Complete);
            // The victim really stopped at a stage boundary shortly after
            // the cancel, far from a full run.
            assert!(statuses[0].completed_stages < statuses[1].completed_stages);
        });
    }

    /// The queue snapshot reports the same picture the depth gauges
    /// paint: per-class ready depths while jobs queue, all zero (with
    /// classes retained) after the crew drains, and every job retired.
    #[test]
    fn introspection_accessors_track_queue_shape() {
        let env = IoEnv::new();
        let cfg = FlowConfig::quick();
        pool_scope(2, |pool| {
            let engine = FlowEngine::new(&env, cfg.clone(), pool);
            let queue = AdmissionQueue::new(Telemetry::disabled());
            let empty = queue.snapshot();
            assert!(empty.jobs.is_empty());
            assert_eq!(
                (empty.active, empty.in_flight, empty.ready_depth),
                (0, 0, 0)
            );
            assert!(empty.ready_by_class.is_empty());
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
            let queued = queue.snapshot();
            assert_eq!(
                (queued.active, queued.in_flight, queued.ready_depth),
                (3, 0, 3)
            );
            assert_eq!(
                queued.ready_by_class,
                vec![("batch".to_owned(), 2), ("interactive".to_owned(), 1)]
            );
            let classes: Vec<&str> = queued.jobs.iter().map(|j| j.class.as_str()).collect();
            assert_eq!(classes, ["batch", "interactive", "batch"]);
            assert!(queued
                .jobs
                .iter()
                .all(|j| j.lifecycle == SessionLifecycle::Queued && j.completed_stages == 0));
            queue.seal();
            queue.run_worker(&engine);
            for id in ids {
                queue.wait(id).expect("scheduled").expect("flow runs");
            }
            let drained = queue.snapshot();
            assert_eq!(
                (drained.active, drained.in_flight, drained.ready_depth),
                (0, 0, 0)
            );
            // Drained classes stay visible at depth 0, like the gauges.
            assert_eq!(
                drained.ready_by_class,
                vec![("batch".to_owned(), 0), ("interactive".to_owned(), 0)]
            );
            assert!(drained
                .jobs
                .iter()
                .all(|j| j.lifecycle == SessionLifecycle::Complete && j.sims > 0));
        });
    }

    /// Queues sharing one registry (the daemon's unit queues) each add
    /// only their own change to the depth and in-flight gauges, so a
    /// gauge reads the sum over the queues, not the last writer's value.
    #[test]
    fn queues_on_one_registry_sum_their_gauges() {
        let env = IoEnv::new();
        let cfg = FlowConfig::quick();
        let telemetry = Telemetry::enabled();
        let gauge = |name: &str| telemetry.metrics().unwrap().gauge(name).value();
        pool_scope(2, |pool| {
            let engine = FlowEngine::new(&env, cfg.clone(), pool);
            let queues = [
                AdmissionQueue::new(telemetry.clone()),
                AdmissionQueue::new(telemetry.clone()),
            ];
            for (i, queue) in [0, 0, 1].into_iter().enumerate() {
                let cx = engine.session(TargetSpec::Family("crc_".to_owned()), i as u64);
                queues[queue]
                    .admit(AdmitSpec::new(cx.detach()))
                    .expect("open queue");
            }
            assert_eq!(gauge("campaign.ready_queue_depth"), 3.0);
            assert_eq!(gauge("campaign.ready_queue_depth.default"), 3.0);
            // Draining the first queue takes only its own share away.
            queues[0].seal();
            queues[0].run_worker(&engine);
            assert_eq!(gauge("campaign.ready_queue_depth"), 1.0);
            assert_eq!(gauge("campaign.ready_queue_depth.default"), 1.0);
            assert_eq!(gauge("campaign.in_flight_groups"), 0.0);
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

    /// Solo `FlowEngine::run` bytes of the healthy sessions the schedule
    /// tests draw from, indexed like [`schedule_spec`]; computed once.
    fn solo_outcomes() -> &'static [String] {
        static SOLO: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        SOLO.get_or_init(|| {
            let env = IoEnv::new();
            pool_scope(2, |pool| {
                let engine = FlowEngine::new(&env, FlowConfig::quick(), pool);
                (0..4)
                    .map(|pick| {
                        let (spec, seed) = schedule_spec(pick);
                        let mut cx = engine.session(spec, seed);
                        let outcome = engine.run(&mut cx).expect("solo flow runs");
                        serde_json::to_string(&strip_timings(outcome)).unwrap()
                    })
                    .collect()
            })
        })
    }

    /// Healthy session `pick` (0..4) of the schedule tests: two quick io
    /// families at two seeds each.
    fn schedule_spec(pick: usize) -> (TargetSpec, u64) {
        let family = ["crc_", "qdepth_"][pick % 2];
        (
            TargetSpec::Family(family.to_owned()),
            mix_seed(41, (pick / 2) as u64),
        )
    }

    /// How a schedule test cancels one session: not at all, from its own
    /// step hook once it has completed `at` stages, or from another
    /// thread once it is seen to have completed `at` stages.
    #[derive(Debug, Clone, Copy)]
    enum CancelPlan {
        Never,
        FromHook { at: usize },
        FromThread { at: usize },
    }

    /// Admits one session per `(pick, cancel)` plan, plus one session
    /// that fails (`no_such_` family) at position `fail_at`, to a queue
    /// crewed by `workers` workers; checks how every job retired.
    fn run_admission_schedule(workers: usize, plans: &[(usize, CancelPlan)], fail_at: usize) {
        let solo = solo_outcomes();
        let env = IoEnv::new();
        pool_scope(2, |pool| {
            let engine = FlowEngine::new(&env, FlowConfig::quick(), pool);
            let stages = engine.stage_names().len();
            let queue = std::sync::Arc::new(AdmissionQueue::new(Telemetry::disabled()));
            let mut jobs: Vec<Option<(usize, CancelPlan)>> =
                plans.iter().copied().map(Some).collect();
            jobs.insert(fail_at.min(jobs.len()), None);
            // Whether each job's cancel was accepted (the job was live).
            let accepted: Vec<std::sync::atomic::AtomicBool> =
                jobs.iter().map(|_| Default::default()).collect();
            let accepted = std::sync::Arc::new(accepted);
            for (id, job) in jobs.iter().enumerate() {
                let (spec, seed) = match job {
                    Some((pick, _)) => schedule_spec(*pick),
                    None => (TargetSpec::Family("no_such_".to_owned()), 5),
                };
                let mut admit = AdmitSpec::new(engine.session(spec, seed).detach());
                if let Some((_, CancelPlan::FromHook { at })) = *job {
                    let (queue, accepted) = (std::sync::Arc::downgrade(&queue), accepted.clone());
                    admit.on_step = Some(Box::new(move |state: &SessionState| {
                        if state.completed.len() == at {
                            let queue = queue.upgrade().expect("queue outlives its jobs");
                            let ok = queue.cancel(id as u64);
                            accepted[id].store(ok, Ordering::SeqCst);
                        }
                    }));
                }
                assert_eq!(queue.admit(admit), Some(id as u64));
            }
            queue.seal();
            std::thread::scope(|scope| {
                for (id, job) in jobs.iter().enumerate() {
                    let Some((_, CancelPlan::FromThread { at })) = *job else {
                        continue;
                    };
                    let (queue, accepted) = (&queue, &accepted);
                    scope.spawn(move || loop {
                        let job = queue.snapshot().jobs[id].clone();
                        if job.completed_stages >= at || job.lifecycle.is_terminal() {
                            accepted[id].store(queue.cancel(id as u64), Ordering::SeqCst);
                            break;
                        }
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    });
                }
                for _ in 1..workers {
                    scope.spawn(|| queue.run_worker(&engine));
                }
                queue.run_worker(&engine);
            });
            let snapshot = queue.snapshot();
            for (id, job) in jobs.iter().enumerate() {
                let run = queue.wait(id as u64).expect("wait returns every job");
                let status = &snapshot.jobs[id];
                let accepted = accepted[id].load(Ordering::SeqCst);
                match (run, job) {
                    (Ok((outcome, _)), Some((pick, plan))) => {
                        assert_eq!(status.lifecycle, SessionLifecycle::Complete);
                        assert_eq!(
                            serde_json::to_string(&strip_timings(outcome)).unwrap(),
                            solo[*pick],
                            "job {id} diverged from its solo run"
                        );
                        // A hook cancel before the last stage always lands.
                        if let CancelPlan::FromHook { at } = plan {
                            assert!(*at >= stages, "job {id} outlived its cancel");
                        }
                    }
                    (Err(FlowError::Cancelled), _) => {
                        assert_eq!(status.lifecycle, SessionLifecycle::Cancelled);
                        assert!(accepted, "job {id} retired without a cancel");
                        match job {
                            // Retired at the very next stage boundary.
                            Some((_, CancelPlan::FromHook { at })) => {
                                assert_eq!(status.completed_stages, *at);
                            }
                            Some((_, CancelPlan::FromThread { at })) => {
                                assert!(status.completed_stages >= *at);
                            }
                            other => panic!("job {id} ({other:?}) cancelled without a plan"),
                        }
                    }
                    (Err(e), None) => assert_eq!(
                        status.lifecycle,
                        SessionLifecycle::Failed,
                        "failing job {id}: {e}"
                    ),
                    (run, job) => panic!("job {id} ({job:?}) ended {:?}", run.map(|_| ())),
                }
            }
            assert_eq!(
                (snapshot.active, snapshot.in_flight, snapshot.ready_depth),
                (0, 0, 0)
            );
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 24 })]

        /// Random admission schedules: 1–8 workers over quick io sessions,
        /// some cancelled from their step hook or from another thread at
        /// a random stage count, beside one session that fails. Every job
        /// retires `Complete`, `Cancelled` or `Failed`, every `wait`
        /// returns, every completed outcome equals its solo run, and no
        /// case hangs.
        #[test]
        fn random_admission_schedules_retire_every_job(
            workers in 1usize..9,
            plans in proptest::collection::vec((0usize..4, 0u8..3, 1usize..8), 1..4),
            fail_at in 0usize..4,
        ) {
            let plans: Vec<(usize, CancelPlan)> = plans
                .into_iter()
                .map(|(pick, how, at)| {
                    let plan = match how {
                        0 => CancelPlan::Never,
                        1 => CancelPlan::FromHook { at },
                        _ => CancelPlan::FromThread { at },
                    };
                    (pick, plan)
                })
                .collect();
            under_watchdog(move || run_admission_schedule(workers, &plans, fail_at));
        }
    }
}
