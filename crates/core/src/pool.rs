//! A persistent simulation worker pool (the paper's batch farm).
//!
//! The paper's CDG-Runner submits whole batches of test-instances to a
//! cluster batch environment that stays up for the duration of the flow.
//! This module is the in-process analogue: [`pool_scope`] spins up a fixed
//! set of worker threads **once**, every phase of a flow — the regression
//! included — dispatches its point-batches onto the same workers through
//! [`SimPool::run_ordered`], and the workers are joined when the scope
//! ends. Simulations run on no other threads: every
//! [`BatchRunner`](crate::BatchRunner) is built from a pool handle.
//!
//! # Dispatch
//!
//! The pool is a plain crew. In-flight batches wait in one
//! `Mutex<VecDeque>`, each with the index of its next unclaimed job, and
//! idle workers block on one `Condvar` until a batch is published (which
//! wakes at most one of them per job beyond the caller's own) or the
//! scope ends. A thread claims a job under the queue lock, runs it outside
//! any lock and stores the result in its batch's mutex-guarded record; the
//! job that completes a batch wakes the batch's own completion `Condvar`.
//! A batch leaves the queue with the claim of its last job.
//!
//! The submitting caller works too: it claims its own batch's jobs first,
//! then any other batch's while its own still runs, and waits only when
//! nothing is left to claim. Every job it then waits on is already running
//! on some thread, so a nested batch (a job that submits a batch) or a
//! saturated or one-thread pool can never deadlock.
//!
//! Determinism is preserved by construction: work items carry their seeds
//! and indices *before* dispatch, each job writes only its own result
//! slot, and results are read back in submission order — nothing about the
//! outcome depends on which thread executed which item or in what order.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use ascdg_telemetry::{Counter, Histogram, Telemetry};

/// Pre-resolved pool metric handles (`pool.*` names), present only when
/// the scope was opened with an enabled [`Telemetry`] via
/// [`pool_scope_with`].
struct PoolMetrics {
    /// `pool.queue_depth`: unclaimed jobs across all queued batches right
    /// after each batch is published.
    queue_depth: Histogram,
    /// `pool.jobs_dispatched`: jobs published to the queue.
    jobs: Counter,
    /// `pool.steals`: jobs the submitting caller claimed and ran itself
    /// instead of waiting (its own batch's and other batches').
    steals: Counter,
}

impl PoolMetrics {
    fn resolve(telemetry: &Telemetry) -> Option<Self> {
        telemetry.metrics().map(|m| PoolMetrics {
            queue_depth: m.histogram("pool.queue_depth"),
            jobs: m.counter("pool.jobs_dispatched"),
            steals: m.counter("pool.steals"),
        })
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A published batch, type-erased for the shared queue.
trait Batch<'env>: Send + Sync {
    /// Runs job `i`. The queue hands out each index exactly once.
    fn run(&self, i: usize, busy: &AtomicU64);
}

type BatchRef<'env> = Arc<dyn Batch<'env> + 'env>;

/// The state of one [`SimPool::run_ordered`] batch.
struct BatchState<T, R, F> {
    record: Mutex<Record<T, R>>,
    /// Signalled when the last job finishes.
    finished: Condvar,
    f: F,
}

/// A batch's tasks, results and progress.
struct Record<T, R> {
    tasks: Vec<Option<T>>,
    results: Vec<Option<R>>,
    /// Finished jobs, panicked ones included.
    done: usize,
    /// The first panicking job's payload, re-raised on the caller once
    /// the batch has drained (so no job still borrowing the environment
    /// outlives the panic).
    panic: Option<Box<dyn Any + Send>>,
}

impl<'env, T, R, F> Batch<'env> for BatchState<T, R, F>
where
    T: Send + 'env,
    R: Send + 'env,
    F: Fn(usize, T) -> R + Send + Sync + 'env,
{
    fn run(&self, i: usize, busy: &AtomicU64) {
        let task = lock(&self.record).tasks[i]
            .take()
            .expect("each job is claimed once");
        let out = catch_unwind(AssertUnwindSafe(|| run_busy(busy, || (self.f)(i, task))));
        let mut record = lock(&self.record);
        match out {
            Ok(r) => record.results[i] = Some(r),
            Err(payload) => {
                record.panic.get_or_insert(payload);
            }
        }
        record.done += 1;
        if record.done == record.results.len() {
            self.finished.notify_all();
        }
    }
}

/// A queued batch: `next` is its first unclaimed job of `len`.
struct Queued<'env> {
    batch: BatchRef<'env>,
    next: usize,
    len: usize,
}

/// The crew's shared queue (guarded by [`Shared::queue`]).
struct Queue<'env> {
    batches: VecDeque<Queued<'env>>,
    /// Workers blocked on [`Shared::work_ready`].
    idle: usize,
    shutdown: bool,
}

impl<'env> Queue<'env> {
    /// Claims the next job of the batch at `at`; the batch leaves the
    /// queue with its last claim.
    fn claim_at(&mut self, at: usize) -> Option<(BatchRef<'env>, usize)> {
        let queued = self.batches.get_mut(at)?;
        let i = queued.next;
        queued.next += 1;
        let batch = if queued.next == queued.len {
            self.batches.remove(at)?.batch
        } else {
            Arc::clone(&queued.batch)
        };
        Some((batch, i))
    }
}

/// State shared between the pool handle(s) and the worker threads.
struct Shared<'env> {
    queue: Mutex<Queue<'env>>,
    /// Idle workers wait here for a publish or the shutdown.
    work_ready: Condvar,
    jobs_dispatched: AtomicU64,
    /// Jobs currently executing (workers, helping callers and inline
    /// degenerate batches alike) — the occupancy the campaign scheduler
    /// samples into `campaign.pool_occupancy`.
    busy: AtomicU64,
    metrics: Option<PoolMetrics>,
}

/// Decrements the busy gauge even if the job panics (the panic is caught
/// and re-raised on the caller, so the pool keeps serving afterwards and
/// the gauge must stay truthful).
struct BusyGuard<'a>(&'a AtomicU64);

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs `f` with the shared busy counter held.
fn run_busy<R>(busy: &AtomicU64, f: impl FnOnce() -> R) -> R {
    busy.fetch_add(1, Ordering::Relaxed);
    let _guard = BusyGuard(busy);
    f()
}

/// Number of workers a machine-sized pool uses.
#[must_use]
pub fn machine_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A cloneable handle to a persistent worker pool.
///
/// Created by [`pool_scope`]; cloning the handle shares the same workers
/// and queue, which is how every phase of a flow (and every
/// [`BatchRunner`](crate::BatchRunner) built from the handle) submits to
/// one farm instead of spawning threads per call.
pub struct SimPool<'env> {
    shared: Arc<Shared<'env>>,
    threads: usize,
}

impl Clone for SimPool<'_> {
    fn clone(&self) -> Self {
        SimPool {
            shared: Arc::clone(&self.shared),
            threads: self.threads,
        }
    }
}

impl fmt::Debug for SimPool<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl<'env> SimPool<'env> {
    /// Number of worker threads serving the pool.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of jobs published to the queue over the pool's lifetime
    /// (observability only; inline degenerate batches never publish). All
    /// handle clones report the same counter.
    #[must_use]
    pub fn jobs_dispatched(&self) -> u64 {
        self.shared.jobs_dispatched.load(Ordering::Relaxed)
    }

    /// Number of jobs executing right now, counting workers, helping
    /// callers and inline degenerate batches (observability only — the
    /// value is racy by nature). All handle clones report the same count.
    #[must_use]
    pub fn busy_workers(&self) -> u64 {
        self.shared.busy.load(Ordering::Relaxed)
    }

    /// Runs one task per item on the pool and returns the results in item
    /// order, regardless of which worker computed what.
    ///
    /// The calling thread participates: it claims its own batch's jobs,
    /// then other in-flight batches' while its own still runs, so the pool
    /// can never deadlock on nested or saturated workloads. With one
    /// worker (or a single task) the batch degenerates to an inline serial
    /// loop with identical results.
    ///
    /// # Panics
    ///
    /// Re-raises the first panicking task's own payload (from any thread)
    /// once the whole batch has drained, so no job still borrowing the
    /// environment outlives it.
    pub fn run_ordered<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'env,
        R: Send + 'env,
        F: Fn(usize, T) -> R + Send + Sync + 'env,
    {
        let n = tasks.len();
        if n <= 1 || self.threads <= 1 {
            return run_busy(&self.shared.busy, || {
                tasks
                    .into_iter()
                    .enumerate()
                    .map(|(i, t)| f(i, t))
                    .collect()
            });
        }
        self.shared
            .jobs_dispatched
            .fetch_add(n as u64, Ordering::Relaxed);
        let batch = Arc::new(BatchState {
            record: Mutex::new(Record {
                tasks: tasks.into_iter().map(Some).collect(),
                results: (0..n).map(|_| None).collect(),
                done: 0,
                panic: None,
            }),
            finished: Condvar::new(),
            f,
        });
        let own: BatchRef<'env> = batch.clone();
        let wake = {
            let mut queue = lock(&self.shared.queue);
            queue.batches.push_back(Queued {
                batch: Arc::clone(&own),
                next: 0,
                len: n,
            });
            if let Some(m) = &self.shared.metrics {
                m.jobs.add(n as u64);
                let unclaimed = queue.batches.iter().map(|q| q.len - q.next).sum::<usize>();
                m.queue_depth.record(unclaimed as u64);
            }
            // The caller runs one job itself: wake an idle worker for
            // each of the others, and no more.
            queue.idle.min(n - 1)
        };
        for _ in 0..wake {
            self.shared.work_ready.notify_one();
        }

        loop {
            let claimed = {
                let mut queue = lock(&self.shared.queue);
                match queue
                    .batches
                    .iter()
                    .position(|q| Arc::ptr_eq(&q.batch, &own))
                {
                    Some(at) => queue.claim_at(at),
                    None if lock(&batch.record).done < n => queue.claim_at(0),
                    None => None,
                }
            };
            let Some((job, i)) = claimed else { break };
            if let Some(m) = &self.shared.metrics {
                m.steals.add(1);
            }
            job.run(i, &self.shared.busy);
        }
        let mut record = lock(&batch.record);
        while record.done < n {
            record = batch
                .finished
                .wait(record)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(payload) = record.panic.take() {
            drop(record);
            resume_unwind(payload);
        }
        record
            .results
            .iter_mut()
            .map(|r| r.take().expect("every job finished"))
            .collect()
    }
}

/// Signals the workers to exit when the scope body finishes (or panics),
/// so the enclosing `thread::scope` join always completes.
struct ShutdownGuard<'a, 'env>(&'a Shared<'env>);

impl Drop for ShutdownGuard<'_, '_> {
    fn drop(&mut self) {
        lock(&self.0.queue).shutdown = true;
        self.0.work_ready.notify_all();
    }
}

fn worker_loop(shared: &Shared<'_>) {
    loop {
        let (job, i) = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(claimed) = queue.claim_at(0) {
                    break claimed;
                }
                if queue.shutdown {
                    return;
                }
                queue.idle += 1;
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                queue.idle -= 1;
            }
        };
        job.run(i, &shared.busy);
    }
}

/// Creates a persistent pool of `threads` workers (`0` = machine-sized,
/// see [`machine_threads`]), runs `f` with a handle to it, then shuts the
/// workers down and joins them.
///
/// The pool lives exactly as long as the call; jobs may borrow anything
/// declared before it. This is the once-per-run entry point: a run wraps
/// all of its phases in one `pool_scope` and hands clones of the handle
/// to every [`BatchRunner`](crate::BatchRunner) it creates.
///
/// # Examples
///
/// ```
/// use ascdg_core::pool::pool_scope;
///
/// let data = vec![1u64, 2, 3, 4];
/// let doubled = pool_scope(2, |pool| {
///     pool.run_ordered(data.iter().collect(), |_, v| v * 2)
/// });
/// assert_eq!(doubled, vec![2, 4, 6, 8]);
/// ```
pub fn pool_scope<'env, R>(threads: usize, f: impl FnOnce(&SimPool<'env>) -> R) -> R {
    pool_scope_with(threads, &Telemetry::disabled(), f)
}

/// [`pool_scope`] with pool-level telemetry: when `telemetry` is enabled,
/// the pool records `pool.queue_depth`, `pool.jobs_dispatched` and
/// `pool.steals` into its metrics registry. Instrumentation is purely
/// observational — scheduling and results are identical either way.
pub fn pool_scope_with<'env, R>(
    threads: usize,
    telemetry: &Telemetry,
    f: impl FnOnce(&SimPool<'env>) -> R,
) -> R {
    let threads = if threads == 0 {
        machine_threads()
    } else {
        threads
    };
    std::thread::scope(|scope| {
        let pool: SimPool<'env> = SimPool {
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue {
                    batches: VecDeque::new(),
                    idle: 0,
                    shutdown: false,
                }),
                work_ready: Condvar::new(),
                jobs_dispatched: AtomicU64::new(0),
                busy: AtomicU64::new(0),
                metrics: PoolMetrics::resolve(telemetry),
            }),
            threads,
        };
        // A single worker adds nothing the helping caller does not already
        // provide, but keeping it makes `threads()` honest and exercises
        // the same code path at every size.
        for _ in 0..threads {
            let shared: Arc<Shared<'env>> = Arc::clone(&pool.shared);
            scope.spawn(move || worker_loop(&shared));
        }
        let _guard = ShutdownGuard(&pool.shared);
        f(&pool)
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_submission_order() {
        let out = pool_scope(4, |pool| {
            pool.run_ordered((0..100u64).collect(), |i, v| {
                assert_eq!(i as u64, v);
                v * v
            })
        });
        assert_eq!(out, (0..100u64).map(|v| v * v).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_batches() {
        pool_scope(2, |pool| {
            let none: Vec<u32> = pool.run_ordered(Vec::new(), |_, v: u32| v);
            assert!(none.is_empty());
            assert_eq!(pool.run_ordered(vec![7u32], |_, v| v + 1), vec![8]);
        });
    }

    #[test]
    fn jobs_can_borrow_the_environment() {
        let table: Vec<u64> = (0..64).map(|i| i * 3).collect();
        let sum: u64 = pool_scope(3, |pool| {
            pool.run_ordered((0..64usize).collect(), |_, i| table[i])
        })
        .into_iter()
        .sum();
        assert_eq!(sum, table.iter().sum::<u64>());
    }

    #[test]
    fn sequential_batches_reuse_the_same_workers() {
        pool_scope(2, |pool| {
            for round in 0..10u64 {
                let out = pool.run_ordered(vec![round; 8], |_, v| v + 1);
                assert_eq!(out, vec![round + 1; 8]);
            }
        });
    }

    #[test]
    fn zero_threads_means_machine_sized() {
        let seen = pool_scope(0, |pool| pool.threads());
        assert_eq!(seen, machine_threads());
        assert!(seen >= 1);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let out = pool_scope(1, |pool| pool.run_ordered(vec![1, 2, 3], |_, v| v * 10));
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn handles_are_cloneable_and_share_the_queue() {
        pool_scope(2, |pool| {
            let other = pool.clone();
            assert_eq!(other.threads(), pool.threads());
            let out = other.run_ordered(vec![5u8, 6], |_, v| v);
            assert_eq!(out, vec![5, 6]);
        });
    }

    #[test]
    fn dispatch_counter_tracks_enqueued_jobs() {
        pool_scope(2, |pool| {
            assert_eq!(pool.jobs_dispatched(), 0);
            let _ = pool.run_ordered((0..8u64).collect(), |_, v| v);
            assert_eq!(pool.jobs_dispatched(), 8);
            // Degenerate single-task batches run inline, never published.
            let _ = pool.run_ordered(vec![1u64], |_, v| v);
            assert_eq!(pool.jobs_dispatched(), 8);
            // Clones observe the same counter.
            assert_eq!(pool.clone().jobs_dispatched(), 8);
        });
    }

    #[test]
    fn queue_drains_between_batches() {
        pool_scope(2, |pool| {
            let _ = pool.run_ordered((0..16u64).collect(), |_, v| v);
            assert!(lock(&pool.shared.queue).batches.is_empty());
        });
    }

    #[test]
    fn pool_scope_with_records_pool_metrics() {
        // Each job takes a millisecond, so the woken workers cannot drain
        // the batch before the caller claims a job of its own.
        let slow = |_, v: u64| {
            std::thread::sleep(Duration::from_millis(1));
            v + 1
        };
        let telemetry = Telemetry::enabled();
        let out = pool_scope_with(4, &telemetry, |pool| {
            pool.run_ordered((0..32u64).collect(), slow)
        });
        assert_eq!(out.len(), 32);
        let snap = telemetry.metrics().unwrap().snapshot();
        let jobs = snap
            .iter()
            .find(|m| m.name == "pool.jobs_dispatched")
            .unwrap();
        assert_eq!(jobs.value, 32.0);
        let depth = snap.iter().find(|m| m.name == "pool.queue_depth").unwrap();
        let depth = depth.histogram.unwrap();
        assert_eq!(depth.count, 1);
        assert!(depth.max <= 32);
        // The caller ran at least one of its own jobs before waiting.
        let steals = snap.iter().find(|m| m.name == "pool.steals").unwrap();
        assert!(steals.value >= 1.0 && steals.value <= 32.0);
        // A disabled handle records nothing and changes nothing.
        let quiet = Telemetry::disabled();
        let out2 = pool_scope_with(4, &quiet, |pool| {
            pool.run_ordered((0..32u64).collect(), slow)
        });
        assert_eq!(out, out2);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let run = |threads| {
            pool_scope(threads, |pool| {
                pool.run_ordered((0..50u64).collect(), |i, v| v.wrapping_mul(i as u64 + 1))
            })
        };
        assert_eq!(run(1), run(4));
        assert_eq!(run(2), run(8));
    }

    #[test]
    fn nested_batches_make_progress() {
        // A job that itself submits a batch must not deadlock even when
        // every worker is occupied by the outer batch: the inner caller
        // claims its own jobs before it waits.
        let out = pool_scope(2, |pool| {
            let inner = pool.clone();
            pool.run_ordered((0..4u64).collect(), move |_, v| {
                inner
                    .run_ordered(vec![v, v + 1], |_, x| x * 2)
                    .into_iter()
                    .sum::<u64>()
            })
        });
        assert_eq!(out, vec![2, 6, 10, 14]);
    }

    /// The message of a caught panic payload.
    fn panic_message(payload: &(dyn Any + Send)) -> &str {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string payload>")
    }

    #[test]
    fn panicking_job_poisons_the_batch() {
        pool_scope(2, |pool| {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.run_ordered((0..8u64).collect(), |_, v| {
                    assert!(v != 5, "boom at job {v}");
                    v
                })
            }));
            let payload = caught.expect_err("job panic must surface to the caller");
            assert_eq!(panic_message(&*payload), "boom at job 5");
            // The same pool serves the next batch.
            let out = pool.run_ordered((0..8u64).collect(), |_, v| v + 1);
            assert_eq!(out, (1..9u64).collect::<Vec<_>>());
            assert_eq!(pool.busy_workers(), 0);
        });
    }

    /// Runs `f` on a fresh thread and fails the test if it has not
    /// returned within a minute, instead of hanging the suite.
    pub(crate) fn under_watchdog(f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(Ok(())) => {}
            Ok(Err(payload)) => resume_unwind(payload),
            Err(_) => panic!("schedule hung for 60 s"),
        }
    }

    /// One job of a schedule: `(kind, arg)` with kind 0 = yield, 1 =
    /// sleep `arg` µs, 2 = submit a nested batch of `arg % 4 + 1` jobs.
    type Step = (u8, u64);

    fn nested_jobs(arg: u64) -> usize {
        (arg % 4 + 1) as usize
    }

    /// What job `j` of submitter `s` returns.
    fn job_value(s: usize, j: usize, (kind, arg): Step) -> u64 {
        let nested = if kind == 2 {
            (0..nested_jobs(arg) as u64).sum()
        } else {
            0
        };
        (s * 100 + j) as u64 + nested
    }

    /// Every submitter in `plans` runs its batch concurrently on one pool
    /// of `workers`; the job `panic_at` (if any) panics — inside its
    /// nested batch when it has one, so the message must cross both.
    fn run_schedule(workers: usize, plans: &[Vec<Step>], panic_at: Option<(usize, usize)>) {
        pool_scope(workers, |pool| {
            std::thread::scope(|scope| {
                for (s, plan) in plans.iter().enumerate() {
                    let pool = pool.clone();
                    scope.spawn(move || {
                        let inner = pool.clone();
                        let got = catch_unwind(AssertUnwindSafe(|| {
                            pool.run_ordered((0..plan.len()).collect(), move |_, j| {
                                let (kind, arg) = plan[j];
                                let boom = panic_at == Some((s, j));
                                match kind {
                                    0 => std::thread::yield_now(),
                                    1 => std::thread::sleep(Duration::from_micros(arg)),
                                    _ => {
                                        let sum: u64 = inner
                                            .run_ordered(
                                                (0..nested_jobs(arg)).collect(),
                                                move |_, k| {
                                                    assert!(
                                                        !(boom && k == 0),
                                                        "job {s}/{j} exploded"
                                                    );
                                                    k as u64
                                                },
                                            )
                                            .into_iter()
                                            .sum();
                                        return (s * 100 + j) as u64 + sum;
                                    }
                                }
                                assert!(!boom, "job {s}/{j} exploded");
                                job_value(s, j, plan[j])
                            })
                        }));
                        match (got, panic_at) {
                            (Err(payload), Some((ps, pj))) if ps == s => {
                                assert_eq!(
                                    panic_message(&*payload),
                                    format!("job {s}/{pj} exploded")
                                );
                            }
                            (Err(payload), _) => {
                                panic!("submitter {s} panicked: {}", panic_message(&*payload))
                            }
                            (Ok(_), Some((ps, _))) if ps == s => {
                                panic!("submitter {s} lost its job's panic")
                            }
                            (Ok(out), _) => {
                                let expected: Vec<u64> = plan
                                    .iter()
                                    .enumerate()
                                    .map(|(j, &step)| job_value(s, j, step))
                                    .collect();
                                assert_eq!(out, expected, "submitter {s}");
                            }
                        }
                        // Whatever happened, the pool serves a further batch.
                        let again = pool.run_ordered(vec![1u64, 2, 3], |_, v| v * 2);
                        assert_eq!(again, vec![2, 4, 6]);
                    });
                }
            });
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 32 })]

        /// Random schedules over one pool: 1–8 workers (oversubscribed on
        /// small machines), 1–3 concurrent submitters, jobs that yield,
        /// sleep or nest a batch, and at most one panicking job. Results
        /// stay in order, the panic reaches its own submitter with its own
        /// message, and no case hangs.
        #[test]
        fn random_schedules_keep_order_and_never_hang(
            workers in 1usize..9,
            plans in proptest::collection::vec(
                proptest::collection::vec((0u8..3, 0u64..300), 0..10),
                1..4,
            ),
            panic_pick in 0usize..40,
        ) {
            let panic_at = plans
                .iter()
                .enumerate()
                .flat_map(|(s, plan)| (0..plan.len()).map(move |j| (s, j)))
                .nth(panic_pick);
            under_watchdog(move || run_schedule(workers, &plans, panic_at));
        }
    }
}
