//! The stencil-parallelism benchmark behind `BENCH_parallel.json`.
//!
//! Measures the paper_io implicit-filtering phase — the flow's hot loop —
//! at 1 worker thread and at a parallel worker count on the persistent
//! simulation pool, and verifies that the parallel run is *byte-identical*
//! to the serial one: same per-event phase statistics, same best settings,
//! same regression repository contents.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use std::sync::Arc;

use ascdg_core::{
    machine_threads, pool_scope_with, AdmissionQueue, AdmitSpec, ApproxTarget, BatchRunner,
    BatchStats, CdgFlow, CdgObjective, CounterSnapshot, EvalStrategy, FlowConfig, FlowEngine,
    FlowError, ResolvedTemplate, SharedEvalCache, Skeletonizer, TargetSpec, Telemetry,
};
use ascdg_coverage::{CoverageVector, EventFamily};
use ascdg_duv::{
    ifu::IfuEnv, io_unit::IoEnv, l3cache::L3Env, synthetic::SyntheticEnv, SimScratch, VerifEnv,
};
use ascdg_opt::{Bounds, IfOptions, ImplicitFiltering, Optimizer};
use ascdg_stimgen::mix_seed;
use ascdg_tac::TacQuery;
use ascdg_template::Skeleton;

/// One thread count's measurement of the implicit-filtering phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadMeasurement {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the phase, in milliseconds.
    pub wall_ms: f64,
    /// Simulations the phase ran.
    pub sims: u64,
    /// Simulation throughput (simulations per wall-clock second).
    pub sims_per_sec: f64,
    /// Hot-path counters of the phase run (resolve-cache hits/misses;
    /// the optimization phase records nothing, so merges stay zero).
    #[serde(default)]
    pub counters: CounterSnapshot,
}

/// The full report written to `BENCH_parallel.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParallelBenchReport {
    /// Budget scale relative to the paper's Fig. 3 numbers.
    pub scale: f64,
    /// Base seed of the run.
    pub seed: u64,
    /// Available cores on the machine that produced the numbers.
    pub machine_threads: usize,
    /// The implicit-filtering phase at 1 worker thread.
    pub serial: ThreadMeasurement,
    /// The same phase on the parallel worker pool.
    pub parallel: ThreadMeasurement,
    /// `serial.wall_ms / parallel.wall_ms`, or `None` when the machine has
    /// a single hardware thread — a "pool" of N workers on one core only
    /// measures oversubscription, so no speedup verdict is rendered.
    pub speedup: Option<f64>,
    /// Why `speedup` is `None`, spelled out for report readers (and for
    /// the strict gate's skip message); `None` when a verdict exists.
    #[serde(default)]
    pub skipped_reason: Option<String>,
    /// Whether the serial and parallel phase results (per-event hit
    /// counts, best value, best settings) were byte-identical.
    pub phase_identical: bool,
    /// Whether a 1-thread and an N-thread regression produced identical
    /// repository contents.
    pub repo_identical: bool,
    /// Hot-path counters of the 1-thread regression: `repo_merges` is the
    /// number of repository-lock acquisitions that recorded
    /// `sims_recorded` simulations (the sharded-accumulation win).
    #[serde(default)]
    pub regression_serial: CounterSnapshot,
    /// Hot-path counters of the pooled regression.
    #[serde(default)]
    pub regression_parallel: CounterSnapshot,
    /// Telemetry overhead probe: the serial phase re-run with a recording
    /// telemetry handle, against a fresh disabled-handle baseline.
    #[serde(default)]
    pub telemetry: Option<TelemetryProbe>,
    /// Exposition-render probe: what one `GET /metrics` scrape costs over
    /// the registry the recording run just filled.
    #[serde(default)]
    pub exposition: Option<ExpositionProbe>,
    /// Campaign-throughput probe: the whole-unit paper_io campaign at
    /// `campaign_jobs = 1` vs a concurrent jobs count.
    #[serde(default)]
    pub campaign: Option<CampaignProbe>,
    /// Evaluation-coalescing probe: the crc_ flow under the point-seeded
    /// strategy with and without duplicate coalescing.
    #[serde(default)]
    pub coalesce: Option<CoalesceProbe>,
    /// Per-DUV bit-plane probes: `simulate_plane` fold throughput against
    /// the per-sim `simulate_seeded` path, per environment (all four
    /// built-in units).
    #[serde(default)]
    pub planes: Vec<PlaneProbe>,
    /// Pure dispatch-overhead probe: ns per chunk through the pool's
    /// lock-free injector with trivial task bodies. Valid on any core
    /// count — this is the verdict that survives `speedup: null`.
    #[serde(default)]
    pub dispatch: Option<DispatchProbe>,
    /// Multi-tenant serve probe: quick-profile tenants drained through one
    /// admission queue over a shared engine, each checked against its
    /// one-shot equivalent.
    #[serde(default)]
    pub serve: Option<ServeProbe>,
}

/// Prices the pool's dispatch machinery alone: batches of trivial tasks
/// through `run_ordered` on a 2-worker pool, so injector publish, slot
/// claims, stealing and parking are all exercised while the task bodies
/// cost nothing. Unlike the phase speedup, this number is meaningful on a
/// single-hardware-thread machine — lower is better at any core count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchProbe {
    /// Worker threads of the probed pool.
    pub threads: usize,
    /// Timed `run_ordered` batches.
    pub batches: u32,
    /// Trivial tasks (chunks) per batch.
    pub chunks_per_batch: usize,
    /// Jobs the timed batches published to the injector.
    pub jobs_dispatched: u64,
    /// Mean wall-clock per dispatched chunk, nanoseconds.
    pub dispatch_ns_per_chunk: f64,
}

/// Measures the daemon's shard shape under load: N quick-profile tenants
/// on one unit, admitted onto one weighted queue and drained by a worker
/// crew sharing one engine — with every tenant's outcome
/// checked byte-for-byte against a one-shot run of the same request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeProbe {
    /// Tenants admitted.
    pub tenants: usize,
    /// Wall-clock of the multi-tenant drain, ms.
    pub wall_ms: f64,
    /// Simulations the drain executed across all tenants.
    pub sims: u64,
    /// Aggregate simulation throughput of the drain.
    pub sims_per_sec: f64,
    /// Whether every tenant's outcome matched its one-shot equivalent.
    /// Must always be `true`.
    pub identical: bool,
}

/// One environment's bit-plane measurement: the same block-dispatched
/// simulations accumulated once through the per-sim vector path
/// (`simulate_seeded` + per-vector accumulate — the pre-plane hot path)
/// and once through the transposed bit-plane (`simulate_plane` + one
/// popcount fold per block — the current hot path), with byte-identity
/// checked on both the folded counts and every extracted lane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlaneProbe {
    /// Unit name of the environment probed.
    pub unit: String,
    /// The stock template the probe simulated.
    pub template: String,
    /// Simulations per side.
    pub sims: u64,
    /// Per-sim vector path throughput, sims per second.
    pub per_sim_sims_per_sec: f64,
    /// Bit-plane path throughput, sims per second.
    pub plane_sims_per_sec: f64,
    /// `plane / per_sim`.
    pub plane_speedup: f64,
    /// Whether the plane's folded counts and every extracted lane were
    /// byte-identical to the per-sim path. Must always be `true`.
    pub identical: bool,
}

/// Measures what overlapping target-group flows on the shared pool buys —
/// and proves the `CampaignOutcome` does not depend on the jobs count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignProbe {
    /// Target groups the campaign swept.
    pub groups: usize,
    /// Concurrent jobs of the overlapped run.
    pub jobs: usize,
    /// Whole-campaign wall clock at `campaign_jobs = 1`, ms.
    pub sequential_wall_ms: f64,
    /// Whole-campaign wall clock at `campaign_jobs = jobs`, ms.
    pub concurrent_wall_ms: f64,
    /// `sequential / concurrent`, or `None` on a single-hardware-thread
    /// machine (overlap can only measure oversubscription there).
    pub speedup: Option<f64>,
    /// Whether both runs produced a byte-identical `CampaignOutcome`.
    /// Must always be `true`.
    pub identical: bool,
}

/// Measures what duplicate-evaluation coalescing saves — and proves the
/// flow outcome matches the uncoalesced point-seeded reference run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoalesceProbe {
    /// Objective evaluations the coalesced flow performed.
    pub evals: u64,
    /// Simulations the *uncoalesced* point-seeded flow executed for those
    /// evaluations (the logical demand).
    pub sims_logical: u64,
    /// Simulations the coalesced flow actually executed.
    pub sims_executed: u64,
    /// Evaluations served from the eval cache (or deduplicated within a
    /// batch) instead of simulating.
    pub coalesced_evals: u64,
    /// Whether the coalesced and uncoalesced flows produced identical
    /// outcomes (timings aside). Must always be `true`.
    pub identical: bool,
    /// Campaign-shared cache: hits served back to the group that computed
    /// the entry (revisited stencil centers within one phase).
    #[serde(default)]
    pub in_group_hits: u64,
    /// Campaign-shared cache: hits served to a *different* group — here, a
    /// second phase run with another origin retracing the first group's
    /// trajectory entirely from cache.
    #[serde(default)]
    pub cross_group_hits: u64,
    /// Simulations the shared cache saved across both groups.
    #[serde(default)]
    pub shared_sims_saved: u64,
    /// Whether the cache-served second group reproduced the first group's
    /// phase statistics and best settings byte for byte. Must always be
    /// `true`.
    #[serde(default)]
    pub shared_identical: bool,
}

/// Measures what enabling telemetry costs (and proves it changes nothing).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryProbe {
    /// Serial phase wall-clock with a disabled telemetry handle, ms.
    pub disabled_wall_ms: f64,
    /// The same phase with a recording handle, ms.
    pub enabled_wall_ms: f64,
    /// `(enabled - disabled) / disabled`, in percent (negative when the
    /// enabled run happened to be faster — the probe is timing-noisy).
    pub overhead_pct: f64,
    /// Whether the two runs produced byte-identical phase statistics and
    /// best settings. Must always be `true`.
    pub identical: bool,
}

/// Prices the HTTP plane's `/metrics` endpoint: snapshotting every
/// metric family of a phase-run-sized registry and rendering the
/// Prometheus text exposition. The render is read-only, so only cost is
/// probed, not identity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpositionProbe {
    /// Metric families in the probed registry.
    pub families: usize,
    /// Bytes of exposition text one render produces.
    pub bytes: usize,
    /// Renders timed for the mean.
    pub iterations: u32,
    /// Mean wall-clock per snapshot-and-render, microseconds.
    pub render_us: f64,
}

/// The paper_io setup the measurements share: everything up to (but not
/// including) the optimization phase, plus the serial/parallel regression
/// identity verdict. Build once, then [`PhaseHarness::run`] the phase at
/// any thread count.
pub struct PhaseHarness {
    env: IoEnv,
    config: FlowConfig,
    skeleton: Skeleton,
    approx: ApproxTarget,
    start: Vec<f64>,
    repo_identical: bool,
    regression_serial: CounterSnapshot,
    regression_parallel: CounterSnapshot,
}

impl PhaseHarness {
    /// Builds the shared setup at the given paper_io budget scale:
    /// regression (run twice — serially and on a pool of
    /// `parallel_threads` workers — to verify repository identity), target
    /// discovery, neighbor weighting, coarse TAC search, skeletonization.
    ///
    /// # Errors
    ///
    /// Propagates regression/TAC/skeletonization failures.
    pub fn new(scale: f64, seed: u64, parallel_threads: usize) -> Result<Self, FlowError> {
        let env = IoEnv::new();
        let config = FlowConfig::paper_io().scaled(scale);
        let model = env.coverage_model();

        // Regression once serially and once on the pool: the repository
        // contents must not depend on the worker count.
        let (serial_repo, regression_serial) = {
            let mut cfg = config.clone();
            cfg.threads = 1;
            CdgFlow::new(env.clone(), cfg).run_regression_counted(mix_seed(seed, 0xbef0))?
        };
        let (parallel_repo, regression_parallel) = {
            let mut cfg = config.clone();
            cfg.threads = parallel_threads;
            CdgFlow::new(env.clone(), cfg).run_regression_counted(mix_seed(seed, 0xbef0))?
        };
        let repo_identical = serial_repo.snapshot() == parallel_repo.snapshot();

        let family = EventFamily::discover(model)
            .into_iter()
            .find(|f| f.stem() == "crc_")
            .expect("io_unit declares the crc_ family");
        let targets: Vec<_> = family
            .events()
            .into_iter()
            .filter(|&e| serial_repo.global_stats(e).hits == 0)
            .collect();
        if targets.is_empty() {
            return Err(FlowError::NoTargets("crc_ family covered".to_owned()));
        }
        let approx = ApproxTarget::auto(model, &targets, config.neighbor_decay)?;
        let ranking = TacQuery::new(approx.weights().iter().copied()).top_n(&serial_repo, 1);
        let chosen = ranking.first().ok_or(FlowError::NoEvidence)?;
        let template = env
            .stock_library()
            .get(chosen.template.index())
            .expect("TAC ranks recorded templates")
            .clone();
        let skeleton = Skeletonizer::new()
            .with_subranges(config.subranges)
            .skeletonize(&template)?;
        // A fixed deterministic start point keeps every measurement on the
        // exact same optimizer trajectory.
        let start = Bounds::unit(skeleton.num_slots()).center();
        Ok(PhaseHarness {
            env,
            config,
            skeleton,
            approx,
            start,
            repo_identical,
            regression_serial,
            regression_parallel,
        })
    }

    /// Whether the serial and pooled regressions produced identical
    /// repository contents.
    #[must_use]
    pub fn repo_identical(&self) -> bool {
        self.repo_identical
    }

    /// Hot-path counters of the (serial, pooled) regression runs.
    #[must_use]
    pub fn regression_counters(&self) -> (CounterSnapshot, CounterSnapshot) {
        (self.regression_serial, self.regression_parallel)
    }

    /// Runs the implicit-filtering phase on a pool of `threads` workers
    /// and returns its measurement plus the phase statistics and best
    /// settings for identity checking.
    #[must_use]
    pub fn run(&self, threads: usize, seed: u64) -> (ThreadMeasurement, BatchStats, Vec<f64>) {
        self.run_with(threads, seed, &Telemetry::disabled())
    }

    /// [`PhaseHarness::run`] with an explicit telemetry handle — the
    /// overhead probe runs the same phase with a disabled and a recording
    /// handle and compares both outcome and wall clock.
    #[must_use]
    pub fn run_with(
        &self,
        threads: usize,
        seed: u64,
        telemetry: &Telemetry,
    ) -> (ThreadMeasurement, BatchStats, Vec<f64>) {
        let cfg = &self.config;
        telemetry.set_stage("bench-optimize");
        let out = pool_scope_with(threads, telemetry, |pool| {
            let runner = BatchRunner::with_pool(pool).with_telemetry(telemetry.clone());
            let counters = Arc::clone(runner.counters());
            let mut obj = CdgObjective::new(
                &self.env,
                &self.skeleton,
                &self.approx,
                cfg.opt_sims,
                runner,
                mix_seed(seed, 0x0b7),
            );
            let optimizer = ImplicitFiltering::new(IfOptions {
                n_directions: cfg.opt_directions,
                initial_step: cfg.opt_initial_step,
                min_step: 1e-4,
                max_iters: cfg.opt_iterations,
                resample_center: true,
                ..IfOptions::default()
            });
            let clock = Instant::now();
            let result = optimizer.maximize(
                &mut obj,
                &Bounds::unit(self.skeleton.num_slots()),
                &self.start,
                mix_seed(seed, 2),
            );
            let elapsed = clock.elapsed().as_secs_f64();
            let stats = obj.phase_stats();
            let m = ThreadMeasurement {
                threads: pool.threads(),
                wall_ms: elapsed * 1e3,
                sims: stats.sims,
                sims_per_sec: if elapsed > 0.0 {
                    stats.sims as f64 / elapsed
                } else {
                    0.0
                },
                counters: counters.snapshot(),
            };
            (m, stats, result.best_x)
        });
        telemetry.clear_stage();
        out
    }

    /// Runs the implicit-filtering phase serially with a campaign-shared
    /// eval cache attached under [`EvalStrategy::Coalesced`], as group
    /// `origin`. Because the cache's seed roots every attached objective's
    /// point-keyed derivation, re-running with a different `origin` on the
    /// same cache retraces the identical trajectory entirely from cache —
    /// the cross-group reuse the campaign scheduler gets for free.
    #[must_use]
    pub fn run_shared(
        &self,
        seed: u64,
        cache: &Arc<SharedEvalCache>,
        origin: u64,
    ) -> (ThreadMeasurement, BatchStats, Vec<f64>) {
        let cfg = &self.config;
        pool_scope_with(1, &Telemetry::disabled(), |pool| {
            let runner = BatchRunner::with_pool(pool);
            let counters = Arc::clone(runner.counters());
            let mut obj = CdgObjective::new(
                &self.env,
                &self.skeleton,
                &self.approx,
                cfg.opt_sims,
                runner,
                mix_seed(seed, 0x0b7),
            )
            .with_strategy(EvalStrategy::Coalesced)
            .with_shared_cache(Arc::clone(cache), origin);
            let optimizer = ImplicitFiltering::new(IfOptions {
                n_directions: cfg.opt_directions,
                initial_step: cfg.opt_initial_step,
                min_step: 1e-4,
                max_iters: cfg.opt_iterations,
                resample_center: true,
                ..IfOptions::default()
            });
            let clock = Instant::now();
            let result = optimizer.maximize(
                &mut obj,
                &Bounds::unit(self.skeleton.num_slots()),
                &self.start,
                mix_seed(seed, 2),
            );
            let elapsed = clock.elapsed().as_secs_f64();
            let stats = obj.phase_stats();
            let m = ThreadMeasurement {
                threads: 1,
                wall_ms: elapsed * 1e3,
                sims: stats.sims,
                sims_per_sec: if elapsed > 0.0 {
                    stats.sims as f64 / elapsed
                } else {
                    0.0
                },
                counters: counters.snapshot(),
            };
            (m, stats, result.best_x)
        })
    }
}

/// Hot-path chunk size the plane probe batches in (mirrors the runner's
/// `KERNEL_BLOCK`).
const PROBE_BLOCK: usize = 64;

/// Measures one environment's bit-plane kernel against the per-sim
/// `simulate_seeded` path on its first stock template (see
/// [`PlaneProbe`]).
///
/// # Errors
///
/// Propagates template resolution and simulation failures.
pub fn plane_probe_for<E: VerifEnv>(
    env: &E,
    sims: u64,
    seed: u64,
) -> Result<PlaneProbe, FlowError> {
    let events = env.coverage_model().len();
    let template = env
        .stock_library()
        .get(0)
        .ok_or(FlowError::EmptyLibrary)?
        .clone();
    let resolved = ResolvedTemplate::resolve(env, &template)?;
    let stream = resolved.seed_stream(seed);
    let seeds: Vec<u64> = (0..sims).map(|i| stream.sampler_seed(i)).collect();

    // Identity pass (untimed; also warms the plane arena): fold both paths
    // and compare the accumulated counts plus every extracted plane lane
    // against its per-sim vector.
    let mut plane_scratch = SimScratch::new();
    let mut vec_counts = vec![0u64; events];
    let mut plane_counts = vec![0u64; events];
    let mut identical = true;
    let mut extracted = CoverageVector::empty(events);
    for chunk in seeds.chunks(PROBE_BLOCK) {
        env.simulate_plane(resolved.params(), chunk, &mut plane_scratch)?;
        let plane = plane_scratch.plane();
        plane.fold_into(&mut plane_counts);
        for (lane, &s) in chunk.iter().enumerate() {
            let cov = env.simulate_seeded(resolved.params(), s)?;
            extracted.reset();
            plane.extract_into(lane, &mut extracted);
            identical &= extracted == cov;
            cov.accumulate_into(&mut vec_counts);
        }
    }
    identical &= vec_counts == plane_counts;

    // Per-sim throughput pass, timed: the pre-plane hot path — one
    // coverage vector per simulation, accumulated bit by bit.
    let mut counts = vec![0u64; events];
    let clock = Instant::now();
    for &s in &seeds {
        env.simulate_seeded(resolved.params(), s)?
            .accumulate_into(&mut counts);
    }
    let vec_elapsed = clock.elapsed().as_secs_f64();

    // Plane throughput pass, timed: record into the recycled plane, one
    // popcount sweep per block, zero per-sim allocation.
    let mut scratch = SimScratch::new();
    let mut folded = vec![0u64; events];
    let clock = Instant::now();
    for chunk in seeds.chunks(PROBE_BLOCK) {
        env.simulate_plane(resolved.params(), chunk, &mut scratch)?;
        scratch.plane().fold_into(&mut folded);
    }
    let plane_elapsed = clock.elapsed().as_secs_f64();
    identical &= counts == folded;

    let per_sim_sims_per_sec = if vec_elapsed > 0.0 {
        sims as f64 / vec_elapsed
    } else {
        0.0
    };
    let plane_sims_per_sec = if plane_elapsed > 0.0 {
        sims as f64 / plane_elapsed
    } else {
        0.0
    };
    Ok(PlaneProbe {
        unit: env.unit_name().to_owned(),
        template: template.name().to_owned(),
        sims,
        per_sim_sims_per_sec,
        plane_sims_per_sec,
        plane_speedup: if per_sim_sims_per_sec > 0.0 {
            plane_sims_per_sec / per_sim_sims_per_sec
        } else {
            0.0
        },
        identical,
    })
}

/// Runs [`plane_probe_for`] over all four built-in units.
///
/// # Errors
///
/// Propagates any environment's probe failure.
pub fn plane_probes(scale: f64, seed: u64) -> Result<Vec<PlaneProbe>, FlowError> {
    let sims = ((12_000.0 * scale) as u64).max(256);
    Ok(vec![
        plane_probe_for(&IfuEnv::new(), sims, mix_seed(seed, 0x91a))?,
        plane_probe_for(&L3Env::new(), sims, mix_seed(seed, 0x913))?,
        plane_probe_for(&IoEnv::new(), sims, mix_seed(seed, 0x910))?,
        plane_probe_for(&SyntheticEnv::default(), sims, mix_seed(seed, 0x915))?,
    ])
}

/// Times the whole paper_io campaign sequentially and with `jobs` group
/// flows overlapped on a pool of `threads` workers, checking that the
/// outcome stays byte-identical.
///
/// # Errors
///
/// Propagates campaign failures.
pub fn campaign_probe(
    scale: f64,
    seed: u64,
    threads: usize,
    jobs: usize,
) -> Result<CampaignProbe, FlowError> {
    let env = IoEnv::new();
    let run_at = |jobs: usize| -> Result<(f64, String, usize), FlowError> {
        let mut cfg = FlowConfig::paper_io().scaled(scale);
        cfg.threads = threads;
        cfg.campaign_jobs = jobs;
        let flow = CdgFlow::new(env.clone(), cfg);
        let clock = Instant::now();
        let outcome = flow.run_campaign(seed)?;
        let wall_ms = clock.elapsed().as_secs_f64() * 1e3;
        let json = serde_json::to_string(&outcome).expect("campaign outcome serializes");
        Ok((wall_ms, json, outcome.groups.len()))
    };
    let (sequential_wall_ms, sequential_json, groups) = run_at(1)?;
    let (concurrent_wall_ms, concurrent_json, _) = run_at(jobs)?;
    let speedup = if machine_threads() > 1 && concurrent_wall_ms > 0.0 {
        Some(sequential_wall_ms / concurrent_wall_ms)
    } else {
        None
    };
    Ok(CampaignProbe {
        groups,
        jobs,
        sequential_wall_ms,
        concurrent_wall_ms,
        speedup,
        identical: sequential_json == concurrent_json,
    })
}

/// Runs the crc_ flow once under the uncoalesced point-seeded strategy and
/// once with coalescing on, comparing outcomes and simulation demand.
///
/// # Errors
///
/// Propagates flow failures.
pub fn coalesce_probe(scale: f64, seed: u64) -> Result<CoalesceProbe, FlowError> {
    let env = IoEnv::new();
    // (outcome-sans-timings JSON, evals, sims executed, coalesced evals)
    let run = |strategy: EvalStrategy| -> Result<(String, u64, u64, u64), FlowError> {
        let mut cfg = FlowConfig::paper_io().scaled(scale);
        cfg.threads = 1;
        cfg.eval_strategy = strategy;
        let telemetry = Telemetry::enabled();
        let mut outcome = pool_scope_with(cfg.threads, &telemetry, |pool| {
            let engine = FlowEngine::new(&env, cfg.clone(), pool).with_telemetry(telemetry.clone());
            let mut cx = engine.session(TargetSpec::Family("crc_".to_owned()), seed);
            engine.run(&mut cx)
        })?;
        outcome.timings.clear();
        let m = telemetry.metrics().expect("enabled telemetry has metrics");
        Ok((
            serde_json::to_string(&outcome).expect("flow outcome serializes"),
            m.counter("objective.evals").value(),
            m.counter("objective.sims_executed").value(),
            m.counter("objective.coalesced").value(),
        ))
    };
    let (reference_json, _, sims_logical, _) = run(EvalStrategy::PointSeeded)?;
    let (coalesced_json, evals, sims_executed, coalesced_evals) = run(EvalStrategy::Coalesced)?;
    Ok(CoalesceProbe {
        evals,
        sims_logical,
        sims_executed,
        coalesced_evals,
        identical: reference_json == coalesced_json,
        // The shared-cache fields are filled by `parallel_bench`, which
        // owns the phase harness the cross-group measurement reuses.
        in_group_hits: 0,
        cross_group_hits: 0,
        shared_sims_saved: 0,
        shared_identical: false,
    })
}

/// Measures pure pool-dispatch overhead (see [`DispatchProbe`]): trivial
/// task bodies, so the wall clock is injector publish + slot claim +
/// wakeup, not work.
#[must_use]
pub fn dispatch_probe() -> DispatchProbe {
    // Two workers force the real dispatch path: `run_ordered` degenerates
    // to an inline loop on a 1-worker pool, which would measure nothing.
    let threads = 2;
    let chunks_per_batch: usize = 64;
    let batches: u32 = 400;
    pool_scope_with(threads, &Telemetry::disabled(), |pool| {
        // Warm the workers out of their initial park before timing.
        for _ in 0..8 {
            std::hint::black_box(pool.run_ordered((0..chunks_per_batch).collect(), |i, v| i + v));
        }
        let before = pool.jobs_dispatched();
        let clock = Instant::now();
        for _ in 0..batches {
            std::hint::black_box(pool.run_ordered((0..chunks_per_batch).collect(), |i, v| i + v));
        }
        let elapsed_ns = clock.elapsed().as_nanos() as f64;
        let jobs_dispatched = pool.jobs_dispatched() - before;
        DispatchProbe {
            threads,
            batches,
            chunks_per_batch,
            jobs_dispatched,
            dispatch_ns_per_chunk: elapsed_ns / f64::from(batches) / chunks_per_batch as f64,
        }
    })
}

/// Drains `tenants` quick-profile crc_ requests through one admission
/// queue over one shared engine — the daemon's shard shape —
/// and checks every tenant against its one-shot run (see [`ServeProbe`]).
///
/// # Errors
///
/// Propagates flow failures from either side.
pub fn serve_probe(seed: u64, tenants: usize) -> Result<ServeProbe, FlowError> {
    let env = IoEnv::new();
    let mut cfg = FlowConfig::quick();
    cfg.threads = 2;
    let strip = |mut outcome: ascdg_core::FlowOutcome| {
        outcome.timings.clear();
        serde_json::to_string(&outcome).expect("flow outcome serializes")
    };
    // One-shot references: each request run alone, daemon-free.
    let mut references = Vec::with_capacity(tenants);
    for i in 0..tenants {
        let outcome = pool_scope_with(cfg.threads, &Telemetry::disabled(), |pool| {
            let engine = FlowEngine::new(&env, cfg.clone(), pool);
            let mut cx = engine.session(
                TargetSpec::Family("crc_".to_owned()),
                mix_seed(seed, 0x5e0 + i as u64),
            );
            engine.run(&mut cx)
        })?;
        references.push(strip(outcome));
    }
    // The multi-tenant drain: one sealed queue, one worker crew.
    pool_scope_with(cfg.threads, &Telemetry::disabled(), |pool| {
        let engine = FlowEngine::new(&env, cfg.clone(), pool);
        let queue = AdmissionQueue::new(Telemetry::disabled());
        let ids: Vec<u64> = (0..tenants)
            .map(|i| {
                let cx = engine.session(
                    TargetSpec::Family("crc_".to_owned()),
                    mix_seed(seed, 0x5e0 + i as u64),
                );
                queue
                    .admit(AdmitSpec::new(cx.into_state()))
                    .expect("queue open")
            })
            .collect();
        queue.seal();
        let clock = Instant::now();
        queue.run_worker(&engine);
        let wall_ms = clock.elapsed().as_secs_f64() * 1e3;
        let mut sims = 0u64;
        let mut identical = true;
        for (i, id) in ids.iter().enumerate() {
            let (outcome, state) = queue.wait(*id).expect("job admitted")?;
            sims += state.stage_sims.iter().map(|s| s.sims).sum::<u64>();
            identical &= strip(outcome) == references[i];
        }
        Ok(ServeProbe {
            tenants,
            wall_ms,
            sims,
            sims_per_sec: if wall_ms > 0.0 {
                sims as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            identical,
        })
    })
}

/// Runs the whole benchmark: regression identity, then the paper_io
/// implicit-filtering phase at 1 thread and at `threads` (0 = machine
/// size), with a byte-identity check between the two runs.
///
/// # Errors
///
/// Propagates setup failures (regression, TAC, skeletonization).
pub fn parallel_bench(
    scale: f64,
    seed: u64,
    threads: usize,
) -> Result<ParallelBenchReport, FlowError> {
    let parallel_threads = if threads == 0 {
        machine_threads()
    } else {
        threads
    };
    let harness = PhaseHarness::new(scale, seed, parallel_threads)?;
    let (serial, serial_stats, serial_best) = harness.run(1, seed);
    let (parallel, parallel_stats, parallel_best) = harness.run(parallel_threads, seed);
    let phase_identical = serial_stats == parallel_stats && serial_best == parallel_best;
    // A single-core machine cannot measure parallel speedup, only
    // oversubscription overhead: skip the verdict rather than report noise.
    let speedup = if machine_threads() > 1 && parallel.wall_ms > 0.0 {
        Some(serial.wall_ms / parallel.wall_ms)
    } else {
        None
    };
    let skipped_reason = if speedup.is_some() {
        None
    } else if machine_threads() <= 1 {
        Some(format!(
            "machine has {} hardware thread(s): a worker pool on one core \
             only measures oversubscription, so no speedup verdict is rendered",
            machine_threads()
        ))
    } else {
        Some("parallel wall clock measured as zero".to_owned())
    };
    let (regression_serial, regression_parallel) = harness.regression_counters();
    // Telemetry overhead probe: a fresh serial pair so both sides pay the
    // same cache-warming costs, one with a recording handle.
    let (probe_off, off_stats, off_best) = harness.run(1, seed);
    let recording = Telemetry::enabled();
    let (probe_on, on_stats, on_best) = harness.run_with(1, seed, &recording);
    let telemetry = Some(TelemetryProbe {
        disabled_wall_ms: probe_off.wall_ms,
        enabled_wall_ms: probe_on.wall_ms,
        overhead_pct: if probe_off.wall_ms > 0.0 {
            (probe_on.wall_ms - probe_off.wall_ms) / probe_off.wall_ms * 100.0
        } else {
            0.0
        },
        identical: off_stats == on_stats && off_best == on_best,
    });
    // Exposition-render probe over the registry the recording run just
    // filled: the realistic cost of one `GET /metrics` scrape against a
    // live daemon (snapshot every family, render the text format).
    let exposition = recording.metrics().map(|m| {
        let families = m.families();
        let bytes = ascdg_telemetry::render_exposition(&families).len();
        let iterations = 100u32;
        let start = Instant::now();
        for _ in 0..iterations {
            std::hint::black_box(ascdg_telemetry::render_exposition(&m.families()));
        }
        let render_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(iterations);
        ExpositionProbe {
            families: families.len(),
            bytes,
            iterations,
            render_us,
        }
    });
    let campaign = Some(campaign_probe(
        scale,
        seed,
        parallel_threads,
        parallel_threads.max(2),
    )?);
    let mut coalesce = coalesce_probe(scale, seed)?;
    // Cross-group reuse: the same phase run twice as two different groups
    // sharing one campaign-level cache. The second group's whole
    // trajectory must come from the first group's entries, byte for byte.
    let cache = Arc::new(SharedEvalCache::new(mix_seed(seed, 0xeca)));
    let (_, first_stats, first_best) = harness.run_shared(seed, &cache, 1);
    let (_, second_stats, second_best) = harness.run_shared(seed, &cache, 2);
    coalesce.in_group_hits = cache.in_group_hits();
    coalesce.cross_group_hits = cache.cross_group_hits();
    coalesce.shared_sims_saved = cache.sims_saved();
    coalesce.shared_identical = first_stats == second_stats && first_best == second_best;
    let coalesce = Some(coalesce);
    let planes = plane_probes(scale, seed)?;
    let dispatch = Some(dispatch_probe());
    let serve = Some(serve_probe(seed, 8)?);
    Ok(ParallelBenchReport {
        scale,
        seed,
        machine_threads: machine_threads(),
        serial,
        parallel,
        speedup,
        skipped_reason,
        phase_identical,
        repo_identical: harness.repo_identical(),
        regression_serial,
        regression_parallel,
        telemetry,
        exposition,
        campaign,
        coalesce,
        planes,
        dispatch,
        serve,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_report_is_identical_and_complete() {
        let report = parallel_bench(0.02, 7, 4).expect("bench runs");
        assert!(report.phase_identical, "parallel run diverged from serial");
        assert!(report.repo_identical, "regression diverged across threads");
        assert_eq!(report.parallel.threads, 4);
        assert_eq!(report.serial.sims, report.parallel.sims);
        assert!(report.serial.sims > 0);
        assert!(report.serial.sims_per_sec > 0.0);
        // The speedup verdict exists exactly when the machine can render
        // one, and a skipped verdict always says why.
        assert_eq!(report.speedup.is_some(), report.machine_threads > 1);
        assert_eq!(report.speedup.is_none(), report.skipped_reason.is_some());
        if let Some(speedup) = report.speedup {
            assert!(speedup > 0.0);
        }
        // The telemetry probe must prove observational purity; its timing
        // numbers are noisy, so only identity is asserted here.
        let probe = report.telemetry.expect("probe always runs");
        assert!(probe.identical, "telemetry changed the phase outcome");
        assert!(probe.disabled_wall_ms > 0.0);
        assert!(probe.enabled_wall_ms > 0.0);
        // The exposition probe rides on the recording run's registry: it
        // must have found real families and produced real text.
        let exposition = report.exposition.expect("probe always runs");
        assert!(exposition.families > 0, "recording registry was empty");
        assert!(exposition.bytes > 0);
        assert!(exposition.render_us >= 0.0);
        // Overlapping group flows must never change the campaign outcome.
        let campaign = report.campaign.expect("probe always runs");
        assert!(campaign.identical, "concurrent campaign diverged");
        assert!(campaign.groups > 1, "paper_io should sweep several groups");
        assert!(campaign.jobs >= 2);
        // Coalescing must save simulations without changing the flow.
        let coalesce = report.coalesce.expect("probe always runs");
        assert!(coalesce.identical, "coalesced flow diverged from reference");
        assert!(coalesce.coalesced_evals > 0, "nothing was coalesced");
        assert!(
            coalesce.sims_executed < coalesce.sims_logical,
            "coalescing did not reduce executed simulations"
        );
        // The shared cache must serve the second group's whole trajectory
        // from the first group's entries, without changing a byte.
        assert!(
            coalesce.shared_identical,
            "cache-served group diverged from the computing group"
        );
        assert!(coalesce.cross_group_hits > 0, "no cross-group reuse");
        assert!(coalesce.in_group_hits > 0, "no in-group reuse");
        assert!(coalesce.shared_sims_saved > 0);
        // The dispatch probe must render a verdict on any machine — it is
        // the number that survives `speedup: null`.
        let dispatch = report.dispatch.as_ref().expect("probe always runs");
        assert_eq!(dispatch.threads, 2);
        assert!(dispatch.dispatch_ns_per_chunk > 0.0);
        assert_eq!(
            dispatch.jobs_dispatched,
            u64::from(dispatch.batches) * dispatch.chunks_per_batch as u64,
            "every timed chunk should go through the injector"
        );
        // Every tenant of the multi-tenant drain must match its one-shot
        // equivalent byte for byte.
        let serve = report.serve.as_ref().expect("probe always runs");
        assert!(serve.identical, "a queued tenant diverged from one-shot");
        assert_eq!(serve.tenants, 8);
        assert!(serve.sims > 0 && serve.sims_per_sec > 0.0);
        // Every built-in unit's bit-plane fold must reproduce the per-sim
        // accumulation exactly.
        assert_eq!(report.planes.len(), 4);
        for p in &report.planes {
            assert!(p.identical, "{} plane fold diverged", p.unit);
            assert!(p.sims > 0 && p.per_sim_sims_per_sec > 0.0);
            assert!(p.plane_sims_per_sec > 0.0);
        }
    }

    #[test]
    fn committed_baseline_report_still_deserializes() {
        // The strict baseline gate silently skips when the committed
        // report no longer parses — so schema evolution must stay
        // backward-compatible, and this test fails loudly if it doesn't.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
        let Ok(old) = std::fs::read_to_string(path) else {
            return;
        };
        let report: Result<ParallelBenchReport, _> = serde_json::from_str(&old);
        assert!(
            report.is_ok(),
            "committed BENCH_parallel.json no longer deserializes: {:?}",
            report.err()
        );
    }

    #[test]
    #[ignore = "manual timing probe"]
    fn phase_timing_probe() {
        let harness = PhaseHarness::new(0.3, 2021, 1).expect("harness builds");
        for _ in 0..6 {
            let (m, _, _) = harness.run(1, 2021);
            eprintln!(
                "serial phase: {:.1} ms, {:.0} sims/s",
                m.wall_ms, m.sims_per_sec
            );
        }
    }

    #[test]
    fn report_counters_reflect_the_hot_path() {
        let report = parallel_bench(0.02, 7, 2).expect("bench runs");
        // The regression records every simulation through bulk merges; the
        // lock is taken O(chunks), far below O(simulations).
        assert!(report.regression_serial.sims_recorded > 0);
        assert_eq!(
            report.regression_serial.sims_recorded,
            report.regression_parallel.sims_recorded
        );
        assert!(report.regression_serial.repo_merges < report.regression_serial.sims_recorded);
        assert!(report.regression_parallel.repo_merges < report.regression_parallel.sims_recorded);
        // The optimization phase records nothing; its counters show the
        // resolve cache working, identically at both thread counts.
        assert_eq!(report.serial.counters.repo_merges, 0);
        assert_eq!(report.serial.counters.sims_recorded, 0);
        assert!(report.serial.counters.resolve_misses > 0);
        assert!(report.serial.counters.resolve_hits > 0);
        assert_eq!(report.serial.counters, report.parallel.counters);
        // The enriched report survives a JSON round trip.
        let json = serde_json::to_string(&report).expect("serialize");
        let back: ParallelBenchReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report);
    }
}
