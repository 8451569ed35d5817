//! The batch simulation environment (the paper's Fig. 2 "Batch" box).
//!
//! In the paper, the CDG-Runner submits test-templates to a cluster batch
//! farm and collects coverage. Here the farm is the run's one persistent
//! worker pool ([`SimPool`]), which every [`BatchRunner`] holds:
//! simulations are sharded across the pool's workers with deterministic
//! per-instance seeds assigned *before* dispatch, so results are
//! byte-identical at every pool size and do not depend on scheduling. A
//! recorded run merges into the coverage repository once, on the
//! submitting thread, after its chunks are done.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

use ascdg_coverage::{CoveragePlane, CoverageRepository, CoverageVector, TemplateId};
use ascdg_duv::{SimScratch, VerifEnv};
use ascdg_stimgen::{name_hash, SeedStream};
use ascdg_telemetry::Telemetry;
use ascdg_template::{ResolvedParams, TestTemplate};

use crate::pool::SimPool;
use crate::FlowError;

/// Accumulated per-event hit counts from a batch of simulations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchStats {
    /// Number of simulations in the batch.
    pub sims: u64,
    /// Per-event hit counts, indexed by event id.
    pub hits: Vec<u64>,
}

impl BatchStats {
    /// An empty accumulator for a model with `events` events.
    #[must_use]
    pub fn empty(events: usize) -> Self {
        BatchStats {
            sims: 0,
            hits: vec![0; events],
        }
    }

    /// Adds one simulation's coverage vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the accumulator width.
    pub fn record(&mut self, cov: &CoverageVector) {
        assert_eq!(cov.len(), self.hits.len(), "coverage width mismatch");
        self.sims += 1;
        cov.accumulate_into(&mut self.hits);
    }

    /// Folds one simulated kernel block's coverage bit-plane: `sims` grows
    /// by the block's lane count and every event gains its lane popcount —
    /// byte-identical to [`BatchStats::record`]ing each lane's vector
    /// individually, with one popcount sweep instead of per-sim vectors.
    ///
    /// # Panics
    ///
    /// Panics if the plane width differs from the accumulator width.
    pub fn fold_plane(&mut self, plane: &CoveragePlane) {
        assert_eq!(plane.events(), self.hits.len(), "coverage width mismatch");
        self.sims += plane.lanes() as u64;
        plane.fold_into(&mut self.hits);
    }

    /// Merges another batch into this one.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn merge(&mut self, other: &BatchStats) {
        assert_eq!(other.hits.len(), self.hits.len(), "batch width mismatch");
        self.sims += other.sims;
        for (a, b) in self.hits.iter_mut().zip(&other.hits) {
            *a += b;
        }
    }

    /// The empirical hit rate of event `e`.
    #[must_use]
    pub fn rate(&self, e: ascdg_coverage::EventId) -> f64 {
        if self.sims == 0 {
            0.0
        } else {
            self.hits[e.index()] as f64 / self.sims as f64
        }
    }

    /// All rates as a dense slice, indexed by event id.
    #[must_use]
    pub fn rates(&self) -> Vec<f64> {
        if self.sims == 0 {
            return vec![0.0; self.hits.len()];
        }
        self.hits
            .iter()
            .map(|&h| h as f64 / self.sims as f64)
            .collect()
    }
}

/// A template fully prepared for the simulation hot path: parameters
/// resolved against the environment's registry exactly once, template name
/// hashed exactly once.
///
/// Workers sample from the shared immutable parameter set (an
/// [`Arc<ResolvedParams>`]) and derive per-instance seeds numerically from
/// the precomputed name hash (a [`SeedStream`]), so the per-simulation cost
/// carries neither registry resolution nor string hashing. Cloning is
/// cheap; clones share the parameter set.
#[derive(Debug, Clone)]
pub struct ResolvedTemplate {
    name: String,
    name_hash: u64,
    params: Arc<ResolvedParams>,
}

impl ResolvedTemplate {
    /// Resolves `template` against `env`'s registry.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Template`] when the template does not validate.
    pub fn resolve<E: VerifEnv>(env: &E, template: &TestTemplate) -> Result<Self, FlowError> {
        let params = env
            .registry()
            .resolve(template)
            .map_err(FlowError::Template)?;
        Ok(ResolvedTemplate::from_parts(
            template.name().to_owned(),
            Arc::new(params),
        ))
    }

    /// Wraps an already-resolved parameter set under `name`.
    #[must_use]
    pub fn from_parts(name: String, params: Arc<ResolvedParams>) -> Self {
        let name_hash = name_hash(&name);
        ResolvedTemplate {
            name,
            name_hash,
            params,
        }
    }

    /// The instance-naming template name (seeds derive from its hash).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The effective parameter set workers sample from.
    #[must_use]
    pub fn params(&self) -> &ResolvedParams {
        &self.params
    }

    /// A shared handle to the parameter set (what dispatch hands workers).
    #[must_use]
    pub fn share_params(&self) -> Arc<ResolvedParams> {
        Arc::clone(&self.params)
    }

    /// The seed stream of a run over this template under `base` — instance
    /// `i` uses `stream.sampler_seed(i)`, byte-identical to the historical
    /// per-sim string-hashing derivation.
    #[must_use]
    pub fn seed_stream(&self, base: u64) -> SeedStream {
        SeedStream::with_hash(base, self.name_hash)
    }
}

/// Runs batches of simulations on a persistent [`SimPool`].
///
/// Every runner dispatches onto the pool it was built from, so one set of
/// workers serves the whole run: the regression, the sampling and
/// optimization objectives and the harvest all submit to the same farm.
/// Clones share the pool and the telemetry handle.
///
/// Results are byte-identical at every pool size: instance `i` of a run
/// always uses the seed a [`SeedStream`] derives for it, fixed before
/// dispatch, and per-event counting is commutative across chunks.
///
/// Workers touch no shared state: each chunk accumulates into its own
/// [`BatchStats`] shard, and a recorded run merges its total into the
/// repository once, on the submitting thread
/// ([`CoverageRepository::merge_counts`]), counted on the runner's
/// telemetry handle (`batch.repo_merges`, `batch.sims_recorded`).
///
/// # Examples
///
/// ```
/// use ascdg_core::{pool_scope, BatchRunner};
/// use ascdg_duv::{io_unit::IoEnv, VerifEnv};
///
/// let env = IoEnv::new();
/// let t = env.stock_library().get(0).unwrap().clone();
/// let stats = pool_scope(2, |pool| BatchRunner::new(pool).run(&env, &t, 50, 1)).unwrap();
/// assert_eq!(stats.sims, 50);
/// ```
#[derive(Debug, Clone)]
pub struct BatchRunner<'env> {
    pool: SimPool<'env>,
    /// The session scopes it per flow and stage (`SessionCx::scoped`).
    pub(crate) telemetry: Telemetry,
}

impl<'env> BatchRunner<'env> {
    /// A runner dispatching onto `pool`. Clones of the returned runner
    /// share the same workers.
    #[must_use]
    pub fn new(pool: &SimPool<'env>) -> Self {
        BatchRunner {
            pool: pool.clone(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: chunk execution records per-stage
    /// sim-latency and chunk-sims histograms and `chunk` spans into it, and
    /// recorded runs their merge latency. Telemetry is purely
    /// observational — simulation results are byte-identical with any
    /// handle, and a disabled handle (the default) costs one branch per
    /// chunk.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The runner's telemetry handle (disabled unless attached).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Simulates `sims` instances of `template` and accumulates coverage.
    ///
    /// Instance `i` uses the seed the template's [`SeedStream`] derives for
    /// it; results are identical regardless of the pool size.
    ///
    /// # Errors
    ///
    /// Propagates template validation or stimulus generation failures.
    pub fn run<E: VerifEnv>(
        &self,
        env: &'env E,
        template: &TestTemplate,
        sims: u64,
        base_seed: u64,
    ) -> Result<BatchStats, FlowError> {
        let rt = ResolvedTemplate::resolve(env, template)?;
        self.run_resolved(env, &rt, sims, base_seed)
    }

    /// Like [`BatchRunner::run`] for a pre-resolved template — the hot-path
    /// entry: no registry resolution and no string hashing happen per call,
    /// let alone per simulation.
    ///
    /// # Errors
    ///
    /// Propagates stimulus generation failures.
    pub fn run_resolved<E: VerifEnv>(
        &self,
        env: &'env E,
        template: &ResolvedTemplate,
        sims: u64,
        base_seed: u64,
    ) -> Result<BatchStats, FlowError> {
        let events = env.coverage_model().len();
        if sims == 0 {
            return Ok(BatchStats::empty(events));
        }
        let chunk = chunk_sims(sims, self.pool.threads());
        dispatch_chunks(
            &self.pool,
            env,
            &template.share_params(),
            template.seed_stream(base_seed),
            events,
            sims,
            chunk,
            &self.telemetry,
        )
    }

    /// Like [`BatchRunner::run`], additionally recording the run into a
    /// coverage repository under `template_id` — how the regression
    /// ("Before CDG") phase populates the database TAC queries.
    ///
    /// The chunks' statistics are summed in chunk order and merged into
    /// the repository **once**, on the calling thread, after the last
    /// chunk finished ([`CoverageRepository::merge_counts`]). Per-event
    /// counting is commutative, so the repository is byte-identical to
    /// recording every simulation individually, at any pool size; and the
    /// repository need not outlive the pool. Each merge adds 1 to
    /// `batch.repo_merges` and its simulations to `batch.sims_recorded` on
    /// the runner's telemetry handle.
    ///
    /// # Errors
    ///
    /// Propagates template validation or stimulus generation failures,
    /// and [`FlowError::Coverage`] when the repository's model does not
    /// match the environment's.
    pub fn run_recorded<E: VerifEnv>(
        &self,
        env: &'env E,
        template: &TestTemplate,
        sims: u64,
        base_seed: u64,
        repo: &CoverageRepository,
        template_id: TemplateId,
    ) -> Result<BatchStats, FlowError> {
        let stats = self.run(env, template, sims, base_seed)?;
        if stats.sims > 0 {
            let merge_clock = self.telemetry.timed();
            repo.merge_counts(template_id, stats.sims, &stats.hits)
                .map_err(FlowError::Coverage)?;
            if let (Some(t0), Some(stage)) = (merge_clock, self.telemetry.stage_metrics()) {
                stage.merge_ns.record(t0.elapsed().as_nanos() as u64);
            }
            if let Some(m) = self.telemetry.metrics() {
                m.counter("batch.repo_merges").add(1);
                m.counter("batch.sims_recorded").add(stats.sims);
            }
        }
        Ok(stats)
    }

    /// Simulates a whole batch of pre-resolved `(template, base_seed)`
    /// points — `sims_per_point` instances each — and returns one
    /// [`BatchStats`] per point, in point order.
    ///
    /// This is the stencil-level entry the objective calls after resolving
    /// each point exactly once: an optimizer iteration's whole stencil is
    /// fanned across the pool as one batch, with each point simulated
    /// serially inside one job. Point `k`'s result is exactly what
    /// `run_resolved(env, &points[k].0, sims_per_point, points[k].1)` would
    /// produce, at any pool size. Workers share each point's parameter set
    /// through an [`Arc`]; nothing is re-resolved, re-named or re-hashed at
    /// dispatch.
    ///
    /// # Errors
    ///
    /// Propagates stimulus generation failures.
    pub fn run_many_resolved<E: VerifEnv>(
        &self,
        env: &'env E,
        points: &[(ResolvedTemplate, u64)],
        sims_per_point: u64,
    ) -> Result<Vec<BatchStats>, FlowError> {
        let events = env.coverage_model().len();
        // Tasks own their inputs (pool jobs may not borrow this stack
        // frame); each carries a shared handle to its point's parameters.
        let tasks: Vec<(Arc<ResolvedParams>, SeedStream)> = points
            .iter()
            .map(|(rt, seed)| (rt.share_params(), rt.seed_stream(*seed)))
            .collect();
        let telemetry = self.telemetry.clone();
        self.pool
            .run_ordered(tasks, move |_, (params, stream)| {
                simulate_range(env, &params, stream, 0..sims_per_point, events, &telemetry)
            })
            .into_iter()
            .collect()
    }
}

/// Seed-block size handed to [`VerifEnv::simulate_plane`]: one full
/// coverage bit-plane, big enough that the plane kernels amortize their
/// setup over a cache-resident pass, small enough that a block's programs
/// and plane stay hot.
const KERNEL_BLOCK: u64 = 64;

/// The dispatch chunk of a `sims`-simulation run over `workers`: an even
/// split capped at one kernel block. Every chunk but the last is then
/// exactly one plane block, and small runs still spread over every worker.
/// Outcomes do not depend on it: instance `i` always uses the seed its
/// [`SeedStream`] derives, fixed before dispatch, and per-event counting
/// is commutative across chunk boundaries.
fn chunk_sims(sims: u64, workers: usize) -> u64 {
    sims.div_ceil(workers.max(1) as u64).min(KERNEL_BLOCK)
}

thread_local! {
    /// Per-worker scratch arena, reused across every chunk this thread
    /// runs. Scratch never influences results (all buffers are cleared
    /// before use), so sharing one arena per thread is invisible.
    static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::new());
}

/// Serially simulates instances `range` of one resolved parameter set,
/// instance `i` seeded with `stream.sampler_seed(i)` — the unit of work
/// every dispatch shares, so any chunking agrees bit-for-bit.
///
/// Instances flow through [`VerifEnv::simulate_plane`] in
/// `KERNEL_BLOCK` blocks with seeds assigned before dispatch: each block
/// records into the worker's recycled transposed bit-plane
/// ([`SimScratch::plane`]) and folds into the chunk shard with one
/// popcount sweep ([`BatchStats::fold_plane`]) — zero per-simulation
/// coverage allocation for the built-in kernels, byte-identical to the
/// per-sim [`VerifEnv::simulate_seeded`] loop by the trait contract.
fn simulate_range<E: VerifEnv>(
    env: &E,
    resolved: &ResolvedParams,
    stream: SeedStream,
    range: Range<u64>,
    events: usize,
    telemetry: &Telemetry,
) -> Result<BatchStats, FlowError> {
    // `timed()` is `None` when telemetry is disabled: the whole
    // instrumentation below then reduces to one `Option` branch, which
    // is the allocation-free "off the hot path" guarantee the bench
    // overhead probe asserts.
    let chunk_clock = telemetry.timed();
    let mut stats = BatchStats::empty(events);
    SCRATCH.with(|cell| -> Result<(), FlowError> {
        let scratch = &mut *cell.borrow_mut();
        let mut seeds = Vec::with_capacity(KERNEL_BLOCK.min(range.end - range.start) as usize);
        let mut lo = range.start;
        while lo < range.end {
            let hi = (lo + KERNEL_BLOCK).min(range.end);
            seeds.clear();
            seeds.extend((lo..hi).map(|i| stream.sampler_seed(i)));
            env.simulate_plane(resolved, &seeds, scratch)
                .map_err(FlowError::Env)?;
            stats.fold_plane(scratch.plane());
            lo = hi;
        }
        Ok(())
    })?;
    if let Some(t0) = chunk_clock {
        if let Some(stage) = telemetry.stage_metrics() {
            stage.chunk_sims.record(stats.sims);
            if let Some(per_sim) = (t0.elapsed().as_nanos() as u64).checked_div(stats.sims) {
                stage.sim_latency_ns.record(per_sim);
            }
        }
        telemetry.closed_span("chunk", "", chunk_clock, stats.sims);
    }
    Ok(stats)
}

/// Shards one template's `sims` instances into contiguous `chunk`-sized
/// dispatch chunks (there may be more chunks than workers) and runs them
/// on the pool, summing chunk statistics in chunk order.
#[allow(clippy::too_many_arguments)]
fn dispatch_chunks<'env, E: VerifEnv>(
    pool: &SimPool<'env>,
    env: &'env E,
    params: &Arc<ResolvedParams>,
    stream: SeedStream,
    events: usize,
    sims: u64,
    chunk: u64,
    telemetry: &Telemetry,
) -> Result<BatchStats, FlowError> {
    let chunk = chunk.max(1);
    // Chunks own their inputs (pool jobs may not borrow this stack frame);
    // the resolved parameters are shared, not cloned, per chunk.
    let mut tasks: Vec<(u64, u64, Arc<ResolvedParams>)> =
        Vec::with_capacity(sims.div_ceil(chunk) as usize);
    let mut lo = 0;
    while lo < sims {
        let hi = (lo + chunk).min(sims);
        tasks.push((lo, hi, Arc::clone(params)));
        lo = hi;
    }
    let telemetry = telemetry.clone();
    let results = pool.run_ordered(tasks, move |_, (lo, hi, params)| {
        simulate_range(env, &params, stream, lo..hi, events, &telemetry)
    });
    let mut total = BatchStats::empty(events);
    for r in results {
        total.merge(&r?);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::pool_scope;
    use ascdg_coverage::CoverageModel;
    use ascdg_duv::io_unit::IoEnv;

    /// Worker count for the parallel side of determinism tests; the CI
    /// matrix re-runs them at 1, 2 and 8 via this variable.
    fn test_threads() -> usize {
        std::env::var("ASCDG_TEST_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(4)
    }

    /// Runs `f` with a runner on a fresh pool of `threads` workers.
    fn on_pool<'env, R>(threads: usize, f: impl FnOnce(BatchRunner<'env>) -> R) -> R {
        pool_scope(threads, |pool| f(BatchRunner::new(pool)))
    }

    #[test]
    fn stats_accumulate_and_merge() {
        let mut a = BatchStats::empty(3);
        let mut v = CoverageVector::empty(3);
        v.set(ascdg_coverage::EventId(1));
        a.record(&v);
        a.record(&CoverageVector::empty(3));
        assert_eq!(a.sims, 2);
        assert_eq!(a.hits, vec![0, 1, 0]);
        assert!((a.rate(ascdg_coverage::EventId(1)) - 0.5).abs() < 1e-12);

        let mut b = BatchStats::empty(3);
        b.record(&v);
        a.merge(&b);
        assert_eq!(a.sims, 3);
        assert_eq!(a.hits[1], 2);
        assert_eq!(a.rates().len(), 3);
    }

    #[test]
    fn empty_stats_rate_is_zero() {
        let s = BatchStats::empty(2);
        assert_eq!(s.rate(ascdg_coverage::EventId(0)), 0.0);
        assert_eq!(s.rates(), vec![0.0, 0.0]);
    }

    #[test]
    fn pooled_equals_serial() {
        let env = IoEnv::new();
        let t = env.stock_library().get(11).unwrap().clone();
        let run = |threads| on_pool(threads, |runner| runner.run(&env, &t, 64, 9).unwrap());
        assert_eq!(run(1), run(test_threads()));
    }

    #[test]
    fn parallel_equals_serial() {
        let env = IoEnv::new();
        let t = env.stock_library().get(11).unwrap().clone();
        // Serial: a plain loop over the seed stream, no pool involved.
        let rt = ResolvedTemplate::resolve(&env, &t).unwrap();
        let stream = rt.seed_stream(9);
        let mut serial = BatchStats::empty(env.coverage_model().len());
        for i in 0..64 {
            serial.record(
                &env.simulate_seeded(rt.params(), stream.sampler_seed(i))
                    .unwrap(),
            );
        }
        let parallel = on_pool(test_threads(), |runner| {
            runner.run(&env, &t, 64, 9).unwrap()
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn recorded_repository_is_thread_count_independent() {
        let env = IoEnv::new();
        let t = env.stock_library().get(3).unwrap().clone();
        let run = |threads: usize| {
            let repo = CoverageRepository::new(env.coverage_model().clone());
            let stats = on_pool(threads, |runner| {
                runner.run_recorded(&env, &t, 96, 17, &repo, TemplateId(3))
            })
            .unwrap();
            (stats, repo.snapshot())
        };
        let (serial_stats, serial_snapshot) = run(1);
        let (parallel_stats, parallel_snapshot) = run(test_threads());
        assert_eq!(serial_stats, parallel_stats);
        assert_eq!(serial_snapshot, parallel_snapshot);
    }

    /// `(template, seed)` points over stock templates `picks`, resolved.
    fn resolved_points(env: &IoEnv, picks: &[(usize, u64)]) -> Vec<(ResolvedTemplate, u64)> {
        picks
            .iter()
            .map(|&(idx, seed)| {
                let t = env.stock_library().get(idx).unwrap();
                (ResolvedTemplate::resolve(env, t).unwrap(), seed)
            })
            .collect()
    }

    #[test]
    fn run_many_matches_individual_runs() {
        let env = IoEnv::new();
        let points = resolved_points(&env, &[(2, 5), (11, 6), (2, 7)]);
        let expected: Vec<BatchStats> = on_pool(1, |runner| {
            points
                .iter()
                .map(|(rt, seed)| runner.run_resolved(&env, rt, 20, *seed).unwrap())
                .collect()
        });
        for threads in [1, test_threads()] {
            let batched = on_pool(threads, |runner| {
                runner.run_many_resolved(&env, &points, 20)
            });
            assert_eq!(batched.unwrap(), expected, "pool of {threads}");
        }
    }

    /// The pre-shard protocol: `sims` instances of stock template `idx`,
    /// each simulated and recorded individually.
    fn per_sim_reference(env: &IoEnv, idx: usize, sims: u64, seed: u64) -> CoverageRepository {
        let t = env.stock_library().get(idx).unwrap();
        let rt = ResolvedTemplate::resolve(env, t).unwrap();
        let stream = rt.seed_stream(seed);
        let repo = CoverageRepository::new(env.coverage_model().clone());
        for i in 0..sims {
            let cov = env
                .simulate_seeded(rt.params(), stream.sampler_seed(i))
                .unwrap();
            repo.try_record(TemplateId(idx as u32), &cov).unwrap();
        }
        repo
    }

    #[test]
    fn sharded_merge_matches_per_sim_record() {
        let env = IoEnv::new();
        let t = env.stock_library().get(3).unwrap().clone();
        let reference = per_sim_reference(&env, 3, 96, 17);
        // Sharded: chunk-local accumulation at the CI matrix thread count,
        // then one merge of the run's total on the submitting thread,
        // counted once on the runner's telemetry handle.
        let repo = CoverageRepository::new(env.coverage_model().clone());
        let telemetry = Telemetry::enabled();
        on_pool(test_threads(), |runner| {
            runner
                .with_telemetry(telemetry.clone())
                .run_recorded(&env, &t, 96, 17, &repo, TemplateId(3))
                .unwrap();
        });
        assert_eq!(repo.snapshot(), reference.snapshot());
        let m = telemetry.metrics().unwrap();
        assert_eq!(m.counter("batch.repo_merges").value(), 1);
        assert_eq!(m.counter("batch.sims_recorded").value(), 96);
    }

    #[test]
    fn outcomes_are_chunk_size_independent() {
        let env = IoEnv::new();
        let t = env.stock_library().get(3).unwrap().clone();
        let rt = ResolvedTemplate::resolve(&env, &t).unwrap();
        let events = env.coverage_model().len();
        let reference = per_sim_reference(&env, 3, 150, 23).snapshot();
        // Tiny, kernel-block, multi-block and bigger-than-the-batch chunks
        // all reproduce the per-sim outcome bit for bit.
        for chunk in [1u64, 64, 128, 1024] {
            let stats = pool_scope(test_threads().max(2), |pool| {
                dispatch_chunks(
                    pool,
                    &env,
                    &rt.share_params(),
                    rt.seed_stream(23),
                    events,
                    150,
                    chunk,
                    &Telemetry::disabled(),
                )
            })
            .unwrap();
            let repo = CoverageRepository::new(env.coverage_model().clone());
            repo.merge_counts(TemplateId(3), stats.sims, &stats.hits)
                .unwrap();
            assert_eq!(
                repo.snapshot(),
                reference,
                "chunk size {chunk} changed outcomes"
            );
        }
    }

    #[test]
    fn chunks_are_an_even_split_capped_at_one_kernel_block() {
        assert_eq!(chunk_sims(1000, 2), KERNEL_BLOCK);
        assert_eq!(chunk_sims(40, 4), 10);
        assert_eq!(chunk_sims(100, 4), 25);
        assert_eq!(chunk_sims(256, 4), KERNEL_BLOCK);
        assert_eq!(chunk_sims(5, 8), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 12 })]

        /// Stencil-batch dispatch over a mixed-template point set, usually
        /// below one kernel block per point: each pooled point's statistics
        /// must equal the point's own run on a one-thread pool.
        #[test]
        fn pooled_point_batches_match_individual_runs(
            sims_per_point in 1u64..100,
            seeds in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..5),
            tmpl in 0usize..4,
        ) {
            let env = IoEnv::new();
            let picks: Vec<(usize, u64)> = seeds
                .iter()
                .enumerate()
                .map(|(i, &seed)| ((tmpl + i) % 4, seed))
                .collect();
            let points = resolved_points(&env, &picks);
            let expected: Vec<BatchStats> = on_pool(1, |runner| {
                points
                    .iter()
                    .map(|(rt, seed)| runner.run_resolved(&env, rt, sims_per_point, *seed).unwrap())
                    .collect()
            });
            let pooled = on_pool(test_threads().max(2), |runner| {
                runner.run_many_resolved(&env, &points, sims_per_point).unwrap()
            });
            proptest::prop_assert_eq!(pooled, expected);
        }
    }

    #[test]
    fn resolved_paths_match_resolving_wrappers() {
        let env = IoEnv::new();
        let a = env.stock_library().get(2).unwrap().clone();
        let b = env.stock_library().get(11).unwrap().clone();
        let ra = ResolvedTemplate::resolve(&env, &a).unwrap();
        let rb = ResolvedTemplate::resolve(&env, &b).unwrap();
        assert_eq!(ra.name(), a.name());
        on_pool(test_threads(), |runner| {
            assert_eq!(
                runner.run_resolved(&env, &ra, 20, 5).unwrap(),
                runner.run(&env, &a, 20, 5).unwrap()
            );
            assert_eq!(
                runner
                    .run_many_resolved(&env, &[(ra, 5), (rb, 6)], 12)
                    .unwrap(),
                vec![
                    runner.run(&env, &a, 12, 5).unwrap(),
                    runner.run(&env, &b, 12, 6).unwrap()
                ]
            );
        });
    }

    #[test]
    fn zero_sims_is_empty() {
        let env = IoEnv::new();
        let t = env.stock_library().get(0).unwrap().clone();
        let s = on_pool(2, |runner| runner.run(&env, &t, 0, 0)).unwrap();
        assert_eq!(s.sims, 0);
    }

    #[test]
    fn invalid_template_is_rejected() {
        let env = IoEnv::new();
        let bad = TestTemplate::builder("bad")
            .range("NoSuch", 0, 1)
            .unwrap()
            .build();
        assert!(matches!(
            on_pool(1, |runner| runner.run(&env, &bad, 1, 0)),
            Err(FlowError::Template(_))
        ));
        // The point-batch protocol resolves each point before dispatch.
        assert!(matches!(
            ResolvedTemplate::resolve(&env, &bad),
            Err(FlowError::Template(_))
        ));
    }

    #[test]
    fn recording_error_surfaces_from_workers() {
        let env = IoEnv::new();
        let t = env.stock_library().get(0).unwrap().clone();
        // A repository over the wrong model rejects the run's merge.
        let repo =
            CoverageRepository::new(CoverageModel::from_names("tiny", ["only_one"]).unwrap());
        assert!(matches!(
            on_pool(test_threads().max(2), |runner| {
                runner.run_recorded(&env, &t, 16, 1, &repo, TemplateId(0))
            }),
            Err(FlowError::Coverage(_))
        ));
    }
}
