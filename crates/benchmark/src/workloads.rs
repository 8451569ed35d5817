//! The four workloads, each run inside its own worker process.
//!
//! Every workload has a set-up part, repeated a few times and reported as
//! its median (`setup_s`), and a timed part made of *rounds*. Round `r`
//! draws its inputs from `(--seed, r)`. The first few rounds (the
//! workload's counted rounds) always run and their outcomes make up the
//! outcome digest and `targets_covered`; further rounds run while the
//! next one still fits in `--seconds`. Times and throughputs are medians
//! over all rounds (memory over the counted rounds), so a run averages
//! over many inputs and over short bursts of machine noise.
//!
//! Load comes from this one process: the simulation pool has [`THREADS`]
//! workers and the serve workload drives [`CLIENTS`] connections.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use ascdg_core::{
    group_uncovered, pool_scope_with, ApproxTarget, CampaignOutcome, CampaignProgress, CdgFlow,
    FlowConfig, FlowEngine, FlowError, GroupProgress, Regression, RunManifest, SessionState, Stage,
    TargetSpec, Telemetry, STAGE_REGRESSION,
};
use ascdg_coverage::{CoverageRepository, EventFamily};
use ascdg_serve::{request_config, resolve_unit, Client, Response, ServeOptions, SubmitSpec};
use ascdg_stimgen::mix_seed;
use ascdg_telemetry::MetricSnapshot;

use crate::layers::{self, LayerInput};
use crate::report::{Digest, Measured, WorkerReport};
use crate::spans::Interval;
use crate::stats::{median, p95};

/// Simulation-pool workers, fixed so every machine sees the same load.
pub const THREADS: usize = 2;

/// Concurrent serve connections.
pub const CLIENTS: usize = 2;

/// Requests each serve client submits per round, back to back.
const REQUESTS_PER_CLIENT: usize = 4;

/// Units of the one-shot workloads, with the closure target of each: the
/// Fig. 3 `crc_` family, the Fig. 4 `byp_reqs` family, and every event
/// the regression left uncovered for the Fig. 5 cross-product unit.
const UNITS: [(&str, Option<&str>); 3] = [
    ("io_unit", Some("crc_")),
    ("l3cache", Some("byp_reqs")),
    ("ifu", None),
];

/// Units the serve clients rotate through.
const SERVE_UNITS: [&str; 4] = ["io_unit", "l3cache", "ifu", "synthetic"];

/// Budget scale of the stock-library regressions: ~88k simulations per
/// round, so a run takes the median of about ten rounds.
const REGRESSION_SCALE: f64 = 0.05;

/// Regression budget, as a share of the paper preset, behind the closure
/// and campaign searches.
const SEARCH_REGRESSION_SCALE: f64 = 0.05;

/// Seed of the regressions the closures and campaigns start from, built
/// during set-up. It is fixed, not drawn from `--seed`: both workloads
/// model one project state closed by many sessions, and the seed varies
/// the sessions. (The targets follow from the regression, so a per-seed
/// regression made `targets_covered` swing by a quarter from seed to
/// seed.)
const START_SEED: u64 = 2021;

/// Share of the paper's evaluation counts (sampled templates, optimizer
/// iterations, best-test simulations) a closure makes. Each evaluation
/// keeps the paper's 100–200 simulations, so the per-evaluation chunk
/// shape is the paper's; a flow makes fewer of them so that a run
/// averages over dozens of closures: one closure's cost depends on the
/// template its search tunes, and a few full-budget closures differ by
/// 15–20% from seed to seed.
const SEARCH_SHARE: f64 = 0.2;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Stock-library regressions only.
    Regression,
    /// Sequential single-target closures from pre-built regressions.
    Closure,
    /// Whole-unit campaigns with overlapping groups.
    Campaign,
    /// A closed loop of quick requests against an in-process daemon.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Regression,
        Workload::Closure,
        Workload::Campaign,
        Workload::Serve,
    ];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Regression => "regression",
            Workload::Closure => "closure",
            Workload::Campaign => "campaign",
            Workload::Serve => "serve",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-up repetitions behind the `setup_s` median.
    fn setups(self) -> usize {
        match self {
            Workload::Regression => 15,
            Workload::Closure | Workload::Campaign | Workload::Serve => 3,
        }
    }

    /// Whether a user's request is a whole round — regress, close or
    /// campaign the three units — rather than one served request. The
    /// units' operations differ several-fold in cost, so percentiles over
    /// them would jump between units with the round count.
    fn requests_are_rounds(self) -> bool {
        self != Workload::Serve
    }

    /// Rounds every run completes, whatever `--seconds` says. Their
    /// outcomes make up the digest and `targets_covered`, which therefore
    /// do not depend on machine speed.
    fn counted_rounds(self) -> u64 {
        match self {
            Workload::Regression | Workload::Campaign => 3,
            Workload::Closure | Workload::Serve => 5,
        }
    }
}

/// What a worker process runs.
#[derive(Debug, Clone)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds the timed rounds may take.
    pub seconds: f64,
    /// Multiplier on every simulation budget (1.0 is the benchmark).
    pub scale: f64,
    /// Whether to record the program's telemetry and the layer split.
    pub traced: bool,
    /// Run exactly this many rounds instead of filling `seconds` (how a
    /// traced run replays the inputs of the untraced run it is compared
    /// against).
    pub rounds: Option<u64>,
    /// Directory for the trace file and the serve state directory.
    pub out_dir: PathBuf,
}

/// A span the benchmark records around one public call it makes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSpan {
    /// `round` (one serve round), `op` (one regression, closure,
    /// campaign or request), `step` (one `FlowEngine::step`), or the
    /// `admitted` (Submit→Admitted) and `running` (Admitted→Done) parts of
    /// a served request.
    pub kind: String,
    /// Stage name for steps, unit name otherwise.
    pub name: String,
    /// Start, in seconds since the trace epoch.
    pub start_s: f64,
    /// End, in seconds since the trace epoch.
    pub end_s: f64,
}

impl BenchSpan {
    fn new(kind: &str, name: &str, at: Interval) -> Self {
        BenchSpan {
            kind: kind.to_owned(),
            name: name.to_owned(),
            start_s: at.start,
            end_s: at.end,
        }
    }

    /// The span's interval.
    #[must_use]
    pub fn interval(&self) -> Interval {
        Interval::new(self.start_s, self.end_s)
    }
}

/// The run's trace epoch, taken just before the telemetry handle is
/// created so bench spans and program spans share one time base (to
/// within the microsecond the handle takes to build).
#[derive(Debug, Clone, Copy)]
struct Clock(Instant);

impl Clock {
    fn now(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn time<T>(self, f: impl FnOnce() -> T) -> (T, Interval) {
        let start = self.now();
        let out = f();
        (out, Interval::new(start, self.now()))
    }
}

/// A fresh trace epoch and a telemetry handle (recording when `traced`).
fn telemetry(traced: bool) -> (Clock, Telemetry) {
    let clock = Clock(Instant::now());
    let tel = if traced {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    (clock, tel)
}

/// Outcome checks: each counts as attempted, and as failed with a
/// description when it does not hold.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn pass(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, what: String) {
        self.check(false, || what);
    }
}

/// Everything a workload measured.
struct Measurement {
    clock: Clock,
    /// The handle the program records into (disabled when untraced, except
    /// for the daemon, which runs with the CLI's default of telemetry on).
    tel: Telemetry,
    checks: Checks,
    setup_s: Vec<f64>,
    rounds: Vec<Round>,
    sims: u64,
    /// One latency per request a user waits for: a round of the one-shot
    /// workloads, a served request.
    latencies: Vec<f64>,
    targets_covered: u64,
    digest: Digest,
    spans: Vec<BenchSpan>,
    /// The timed part, for filtering program spans.
    window: Interval,
    before: Vec<MetricSnapshot>,
    after: Vec<MetricSnapshot>,
    checkpoint_bytes: u64,
}

/// One timed round.
struct Round {
    wall_s: f64,
    sims: u64,
    /// Requests (latency samples) the round completed.
    ops: usize,
    /// Peak resident set during the round.
    peak_rss_mb: f64,
}

impl Measurement {
    fn new(setup_s: Vec<f64>, (clock, tel): (Clock, Telemetry)) -> Self {
        Measurement {
            clock,
            tel,
            checks: Checks::default(),
            setup_s,
            rounds: Vec::new(),
            sims: 0,
            latencies: Vec::new(),
            targets_covered: 0,
            digest: Digest::default(),
            spans: Vec::new(),
            window: Interval::new(0.0, 0.0),
            before: Vec::new(),
            after: Vec::new(),
            checkpoint_bytes: 0,
        }
    }

    /// Runs the timed rounds between two registry snapshots: the counted
    /// rounds, then more until the next would overrun `seconds` (or
    /// exactly `p.rounds` of them). `round` returns the round's timed
    /// part.
    fn run_rounds(&mut self, p: &Params, mut round: impl FnMut(u64, &mut Self) -> f64) {
        self.before = snapshot(&self.tel);
        self.window.start = self.clock.now();
        let start = Instant::now();
        loop {
            let (sims, ops) = (self.sims, self.latencies.len());
            reset_peak_rss();
            let wall = round(self.rounds.len() as u64, self);
            if p.workload.requests_are_rounds() {
                self.latencies.push(wall);
            }
            self.rounds.push(Round {
                wall_s: wall,
                sims: self.sims - sims,
                ops: self.latencies.len() - ops,
                peak_rss_mb: peak_rss_mb(),
            });
            let n = self.rounds.len() as u64;
            let done = match p.rounds {
                Some(rounds) => n >= rounds,
                None => {
                    n >= p.workload.counted_rounds()
                        && seconds_since(start) + median(&self.walls()) > p.seconds
                }
            };
            if done {
                break;
            }
        }
        self.window.end = self.clock.now();
        self.after = snapshot(&self.tel);
    }

    fn walls(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.wall_s).collect()
    }

    /// The median over rounds of a per-round rate.
    fn median_rate(&self, count: impl Fn(&Round) -> f64) -> f64 {
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| {
                if r.wall_s > 0.0 {
                    count(r) / r.wall_s
                } else {
                    0.0
                }
            })
            .collect();
        median(&rates)
    }

    /// Records one operation: a unit's regression, closure or campaign,
    /// or a served request.
    fn op(&mut self, unit: &str, at: Interval) {
        self.spans.push(BenchSpan::new("op", unit, at));
    }

    /// Folds a counted round's outcome into the digest.
    fn digest_outcome(&mut self, outcome: &impl Serialize) {
        self.digest.update(
            &serde_json::to_string(outcome)
                .unwrap_or_default()
                .into_bytes(),
        );
    }
}

fn snapshot(tel: &Telemetry) -> Vec<MetricSnapshot> {
    tel.metrics()
        .map(ascdg_telemetry::MetricsRegistry::snapshot)
        .unwrap_or_default()
}

/// The seed of operation `index` in round `round`.
fn op_seed(seed: u64, round: u64, index: usize) -> u64 {
    mix_seed(mix_seed(seed, round + 1), index as u64 + 1)
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

struct Unit {
    name: &'static str,
    family: Option<&'static str>,
    env: Arc<dyn ascdg_duv::VerifEnv>,
}

fn load_units() -> Vec<Unit> {
    UNITS
        .iter()
        .map(|&(name, family)| Unit {
            name,
            family,
            env: resolve_unit(name).expect("built-in unit"),
        })
        .collect()
}

/// The paper preset of a unit scaled by `scale`, on [`THREADS`] workers.
fn paper(unit: &Unit, scale: f64) -> FlowConfig {
    let mut config = request_config(&*unit.env, "paper", scale).expect("paper profile exists");
    config.threads = THREADS;
    config
}

/// The closure and campaign search: the paper preset with its evaluation
/// counts cut to [`SEARCH_SHARE`] and its regression to
/// [`SEARCH_REGRESSION_SCALE`].
fn search(unit: &Unit, scale: f64) -> FlowConfig {
    let mut config = paper(unit, scale);
    let share = |n: f64, floor: f64| (n * SEARCH_SHARE).round().max(floor);
    config.sample_templates = share(config.sample_templates as f64, 4.0) as usize;
    config.opt_iterations = share(config.opt_iterations as f64, 3.0) as usize;
    config.best_sims = share(config.best_sims as f64, 1.0) as u64;
    config.regression_sims_per_template =
        paper(unit, SEARCH_REGRESSION_SCALE * scale).regression_sims_per_template;
    config
}

/// Times `setups` repetitions of `build` and keeps the last product.
fn repeat_setup<T>(
    setups: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups {
        let t = Instant::now();
        last = Some(build()?);
        times.push(seconds_since(t));
    }
    Ok((times, last.expect("at least one set-up")))
}

fn setups(p: &Params) -> usize {
    if p.traced {
        1
    } else {
        p.workload.setups()
    }
}

/// Runs one workload and reports what it measured.
///
/// # Errors
///
/// A set-up failure (the timed part records its failures as failed
/// checks instead).
pub fn run(p: &Params) -> Result<WorkerReport, String> {
    let m = match p.workload {
        Workload::Regression => regression(p),
        Workload::Closure => closure(p),
        Workload::Campaign => campaign(p),
        Workload::Serve => serve(p),
    }?;
    let timed: f64 = m.walls().iter().sum();
    // Memory is read over the counted rounds only: the daemon's telemetry
    // grows with every request served, so over a time-bounded run a
    // faster build would read as a bigger one.
    let counted_rss: Vec<f64> = m
        .rounds
        .iter()
        .take(p.workload.counted_rounds() as usize)
        .map(|r| r.peak_rss_mb)
        .collect();
    let end_to_end = vec![
        measured("setup_s", median(&m.setup_s)),
        measured("wall_s", median(&m.walls())),
        measured("sims_per_s", m.median_rate(|r| r.sims as f64)),
        measured("peak_rss_mb", median(&counted_rss)),
        measured("targets_covered", m.targets_covered as f64),
        measured("request_p50_s", median(&m.latencies)),
        measured("request_p95_s", p95(&m.latencies)),
        measured("requests_per_s", m.median_rate(|r| r.ops as f64)),
    ];
    let per_layer = if p.traced {
        let records = m.tel.export_trace(p.workload.name(), p.seed);
        let input = LayerInput {
            records: &records,
            bench: &m.spans,
            window: m.window,
            rounds: m.rounds.len() as u64,
            timed_s: timed,
            before: &m.before,
            after: &m.after,
            checkpoint_bytes: m.checkpoint_bytes,
        };
        let per_layer = layers::per_layer(&input);
        layers::write_trace(&p.out_dir, p.workload.name(), &input, &per_layer)
            .map_err(|e| format!("could not write the trace: {e}"))?;
        per_layer
    } else {
        Vec::new()
    };
    Ok(WorkerReport {
        rounds: m.rounds.len() as u64,
        attempted: m.checks.attempted,
        failed: m.checks.failures.len() as u64,
        failures: m.checks.failures,
        digest: m.digest.hex(),
        samples: m.latencies.len() as u64,
        end_to_end,
        per_layer,
    })
}

fn measured(name: &str, value: f64) -> Measured {
    Measured {
        name: name.to_owned(),
        value,
    }
}

/// Restarts the kernel's peak-RSS tracking for this process, so the next
/// [`peak_rss_mb`] reading covers one round. Where that is unsupported
/// the reading stays the lifetime peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `regression`: each round regresses the stock libraries of io_unit,
/// l3cache and ifu, one `Regression`-only engine per unit.
fn regression(p: &Params) -> Result<Measurement, String> {
    let (setup_s, units) = repeat_setup(setups(p), || Ok(load_units()))?;
    let mut m = Measurement::new(setup_s, telemetry(p.traced));
    let (clock, tel) = (m.clock, m.tel.clone());
    let tel = &tel;
    let configs: Vec<FlowConfig> = units
        .iter()
        .map(|u| paper(u, REGRESSION_SCALE * p.scale))
        .collect();
    // The engine wants a pool; the regression stage itself fans out over
    // a pool scope of its own, as in every one-shot flow.
    pool_scope_with(THREADS, tel, |pool| {
        m.run_rounds(p, |r, m| {
            let mut wall = 0.0;
            for (i, (unit, config)) in units.iter().zip(&configs).enumerate() {
                let stages: Vec<Box<dyn Stage<_>>> = vec![Box::new(Regression)];
                let ((stepped, repo), at) = clock.time(|| {
                    let engine = FlowEngine::with_stages(&unit.env, config.clone(), pool, stages)
                        .with_telemetry(tel.clone());
                    let mut cx = engine.session(TargetSpec::Uncovered, op_seed(p.seed, r, i));
                    let stepped = engine.step(&mut cx);
                    (stepped, cx.repo().map(|repo| repo.snapshot()))
                });
                wall += at.len();
                m.op(unit.name, at);
                m.spans.push(BenchSpan::new("step", STAGE_REGRESSION, at));
                let snap = match stepped.and(repo) {
                    Ok(snap) => snap,
                    Err(e) => {
                        m.checks.fail(format!("{} regression: {e}", unit.name));
                        continue;
                    }
                };
                let expected =
                    unit.env.stock_library().len() as u64 * config.regression_sims_per_template;
                m.checks.check(snap.global_sims == expected, || {
                    format!(
                        "{} regression recorded {} sims, expected {expected}",
                        unit.name, snap.global_sims
                    )
                });
                m.sims += snap.global_sims;
                if r < p.workload.counted_rounds() {
                    m.targets_covered += snap.global_hits.iter().filter(|&&h| h > 0).count() as u64;
                    m.digest_outcome(&snap);
                }
            }
            wall
        });
    });
    Ok(m)
}

/// The approximated target a closure chases on `unit` after `repo`.
fn closure_target(
    unit: &Unit,
    repo: &CoverageRepository,
    decay: f64,
) -> Result<ApproxTarget, FlowError> {
    let model = unit.env.coverage_model();
    let targets = match unit.family {
        Some(stem) => EventFamily::discover(model)
            .into_iter()
            .find(|f| f.stem() == stem)
            .ok_or_else(|| FlowError::UnknownFamily(stem.to_owned()))?
            .events()
            .into_iter()
            .filter(|&e| repo.global_stats(e).hits == 0)
            .collect(),
        None => repo.uncovered_events(),
    };
    ApproxTarget::auto(model, &targets, decay)
}

/// The regression a closure or campaign on `unit` starts from.
fn start_regression(
    unit: &Unit,
    index: usize,
    scale: f64,
) -> Result<CoverageRepository, FlowError> {
    CdgFlow::new(Arc::clone(&unit.env), search(unit, scale))
        .run_regression(mix_seed(START_SEED, index as u64))
}

/// Validates a finished group's run manifest.
fn check_manifest(checks: &mut Checks, what: &str, state: &SessionState, tel: &Telemetry) {
    let verdict = RunManifest::from_state(state, tel).validate();
    checks.check(verdict.is_ok(), || {
        format!("{what} manifest: {}", verdict.unwrap_err())
    });
}

/// `closure`: each round runs one closure per unit, stage by stage, from
/// a regression built during set-up.
fn closure(p: &Params) -> Result<Measurement, String> {
    let (setup_s, (units, starts)) = repeat_setup(setups(p), || {
        let units = load_units();
        let starts = units
            .iter()
            .enumerate()
            .map(|(i, unit)| {
                let repo = start_regression(unit, i, p.scale)?;
                let approx = closure_target(unit, &repo, search(unit, p.scale).neighbor_decay)?;
                Ok((repo, approx))
            })
            .collect::<Result<Vec<_>, FlowError>>()
            .map_err(|e| format!("closure set-up: {e}"))?;
        Ok((units, starts))
    })?;
    let mut m = Measurement::new(setup_s, telemetry(p.traced));
    let (clock, tel) = (m.clock, m.tel.clone());
    let tel = &tel;
    let configs: Vec<FlowConfig> = units.iter().map(|u| search(u, p.scale)).collect();
    pool_scope_with(THREADS, tel, |pool| {
        m.run_rounds(p, |r, m| {
            let mut wall = 0.0;
            for (i, unit) in units.iter().enumerate() {
                let (repo, approx) = &starts[i];
                let mut steps = Vec::new();
                let (result, at) = clock.time(|| {
                    let engine = FlowEngine::new(&unit.env, configs[i].clone(), pool)
                        .with_telemetry(tel.clone());
                    let mut cx =
                        engine.session_with_repo(repo, approx.clone(), op_seed(p.seed, r, i))?;
                    loop {
                        let start = clock.now();
                        let Some(stage) = engine.step(&mut cx)? else {
                            break;
                        };
                        steps.push(BenchSpan::new(
                            "step",
                            stage,
                            Interval::new(start, clock.now()),
                        ));
                    }
                    let outcome = engine.finish(&cx)?;
                    Ok::<_, FlowError>((outcome, cx.into_state()))
                });
                wall += at.len();
                m.op(unit.name, at);
                m.spans.append(&mut steps);
                let (mut outcome, state) = match result {
                    Ok(done) => done,
                    Err(e) => {
                        m.checks.fail(format!("{} closure: {e}", unit.name));
                        continue;
                    }
                };
                check_manifest(
                    &mut m.checks,
                    &format!("{} closure", unit.name),
                    &state,
                    tel,
                );
                m.sims += state
                    .stage_sims
                    .iter()
                    .filter(|s| s.stage != STAGE_REGRESSION)
                    .map(|s| s.sims)
                    .sum::<u64>();
                if r < p.workload.counted_rounds() {
                    if let Some(best) = outcome.phase(ascdg_core::PHASE_BEST) {
                        m.targets_covered += outcome
                            .targets
                            .iter()
                            .filter(|e| best.hits[e.index()] > 0)
                            .count() as u64;
                    }
                    // Timings are wall-clock; everything else is the
                    // deterministic outcome.
                    outcome.timings.clear();
                    m.digest_outcome(&outcome);
                }
            }
            wall
        });
    });
    Ok(m)
}

/// `campaign`: each round runs a whole-unit campaign per unit, two groups
/// in flight, from a regression built during set-up.
fn campaign(p: &Params) -> Result<Measurement, String> {
    let (setup_s, (units, starts)) = repeat_setup(setups(p), || {
        let units = load_units();
        let starts = units
            .iter()
            .enumerate()
            .map(|(i, unit)| {
                let repo = start_regression(unit, i, p.scale)?;
                let groups = group_uncovered(unit.env.coverage_model(), &repo)
                    .into_iter()
                    .map(|(name, targets)| GroupProgress {
                        name,
                        targets,
                        session: None,
                        failure: None,
                    })
                    .collect();
                Ok(CampaignProgress {
                    unit: unit.env.unit_name().to_owned(),
                    seed: 0,
                    config: None,
                    repo: Some(repo.snapshot()),
                    groups,
                })
            })
            .collect::<Result<Vec<_>, FlowError>>()
            .map_err(|e| format!("campaign set-up: {e}"))?;
        Ok((units, starts))
    })?;
    let mut m = Measurement::new(setup_s, telemetry(p.traced));
    let (clock, tel) = (m.clock, m.tel.clone());
    let tel = &tel;
    m.run_rounds(p, |r, m| {
        let mut wall = 0.0;
        for (i, unit) in units.iter().enumerate() {
            let flow = CdgFlow::new(
                Arc::clone(&unit.env),
                FlowConfig {
                    campaign_jobs: 2,
                    ..search(unit, p.scale)
                },
            );
            // A checkpoint holding only the regression and the groups is
            // how the public API runs a campaign's groups from an
            // existing regression.
            let start = CampaignProgress {
                seed: op_seed(p.seed, r, i),
                ..starts[i].clone()
            };
            let (result, at) = clock.time(|| flow.resume_campaign(&start, tel, None));
            wall += at.len();
            m.op(unit.name, at);
            let report = match result {
                Ok(report) => report,
                Err(e) => {
                    m.checks.fail(format!("{} campaign: {e}", unit.name));
                    continue;
                }
            };
            for (group, state) in report.outcome.groups.iter().zip(&report.sessions) {
                let what = format!("{} campaign group {}", unit.name, group.name);
                match state {
                    Some(state) => check_manifest(&mut m.checks, &what, state, tel),
                    None => m.checks.fail(format!(
                        "{what} failed: {}",
                        group.failure.as_deref().unwrap_or("no session")
                    )),
                }
            }
            // The regression ran during set-up; count the groups' sims.
            m.sims += report.outcome.groups.iter().map(|g| g.sims).sum::<u64>();
            if r < p.workload.counted_rounds() {
                m.targets_covered += report.outcome.total_newly_covered() as u64;
                m.digest_outcome(&report.outcome);
            }
        }
        wall
    });
    Ok(m)
}

/// A running in-process daemon.
struct Daemon {
    addr: String,
    state_dir: PathBuf,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Starts a daemon set up like `ascdg serve` with its defaults:
    /// telemetry on, HTTP plane on a free port.
    fn start(state_dir: PathBuf, tel: &Telemetry) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&state_dir);
        let opts = ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            state_dir: state_dir.clone(),
            threads: THREADS,
            telemetry: tel.clone(),
            http_addr: Some("127.0.0.1:0".to_owned()),
            sample_interval_ms: 0,
        };
        let handle = std::thread::spawn(move || ascdg_serve::serve(&opts));
        match ascdg_serve::wait_for_addr(&state_dir, Duration::from_secs(30)) {
            Ok(addr) => Ok(Daemon {
                addr,
                state_dir,
                handle,
            }),
            Err(e) => Err(format!("daemon did not bind: {e}")),
        }
    }

    /// Drains the daemon, waits for it to exit and removes its state.
    fn stop(self) -> Result<(), String> {
        let stopped = Client::connect(&self.addr).and_then(|mut c| c.shutdown());
        let exited = self.handle.join();
        let _ = std::fs::remove_dir_all(&self.state_dir);
        stopped.map_err(|e| format!("daemon shutdown: {e}"))?;
        match exited {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon exited with {e}")),
            Err(_) => Err("daemon thread panicked".to_owned()),
        }
    }
}

fn submit_spec(unit: &str, seed: u64, scale: f64) -> SubmitSpec {
    SubmitSpec {
        unit: unit.to_owned(),
        scale,
        seed,
        profile: "quick".to_owned(),
        weight: 1,
        class: String::new(),
    }
}

/// One served request as a client saw it.
struct Served {
    unit: &'static str,
    seed: u64,
    submitted: f64,
    admitted: Option<f64>,
    done: f64,
    outcome: Result<String, String>,
}

fn submit(client: &mut Client, clock: Clock, unit: &'static str, seed: u64, scale: f64) -> Served {
    let submitted = clock.now();
    let mut admitted = None;
    let outcome = client
        .submit(submit_spec(unit, seed, scale), |resp| {
            if matches!(resp, Response::Admitted { .. }) {
                admitted = Some(clock.now());
            }
        })
        .map(|(_, json)| json)
        .map_err(|e| e.to_string());
    Served {
        unit,
        seed,
        submitted,
        admitted,
        done: clock.now(),
        outcome,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|md| md.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `serve`: a closed loop of [`CLIENTS`] clients on persistent
/// connections, each submitting [`REQUESTS_PER_CLIENT`] quick requests per
/// round, rotating through the served units.
fn serve(p: &Params) -> Result<Measurement, String> {
    let scale = p.scale;
    // Set-up is daemon start plus one warm-up request per unit. Every
    // set-up but the last is drained again; the last daemon serves the
    // timed rounds.
    let mut setup_s = Vec::new();
    let mut running: Option<(Daemon, (Clock, Telemetry))> = None;
    for k in 0..setups(p) {
        if let Some((previous, _)) = running.take() {
            previous.stop()?;
        }
        let t = Instant::now();
        let (clock, tel) = telemetry(true);
        let state_dir = p
            .out_dir
            .join(format!("serve-state-{}-{k}", std::process::id()));
        let daemon = Daemon::start(state_dir, &tel)?;
        let warmed = Client::connect(&daemon.addr)
            .map_err(|e| format!("connect: {e}"))
            .and_then(|mut client| {
                SERVE_UNITS
                    .into_iter()
                    .enumerate()
                    .try_for_each(|(i, unit)| {
                        let seed = mix_seed(p.seed, 0xa11 + i as u64);
                        let warm = submit(&mut client, clock, unit, seed, scale);
                        warm.outcome
                            .map(drop)
                            .map_err(|e| format!("warm-up {unit} request: {e}"))
                    })
            });
        setup_s.push(seconds_since(t));
        if let Err(e) = warmed {
            let _ = daemon.stop();
            return Err(e);
        }
        running = Some((daemon, (clock, tel)));
    }
    let (daemon, handle) = running.expect("at least one set-up");
    let mut m = Measurement::new(setup_s, handle);
    let clock = m.clock;
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(&daemon.addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let bytes_before = dir_bytes(&daemon.state_dir);
    let mut first_done: Vec<(&'static str, u64, String)> = Vec::new();
    m.run_rounds(p, |r, m| {
        let start = clock.now();
        let served: Vec<Served> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        (0..REQUESTS_PER_CLIENT)
                            .map(|j| {
                                let unit = SERVE_UNITS[(j + 2 * c) % SERVE_UNITS.len()];
                                let seed = op_seed(p.seed, r, c * REQUESTS_PER_CLIENT + j);
                                submit(client, clock, unit, seed, scale)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = clock.now() - start;
        m.spans.push(BenchSpan::new(
            "round",
            "",
            Interval::new(start, start + wall),
        ));
        for req in served {
            m.op(req.unit, Interval::new(req.submitted, req.done));
            m.latencies.push(req.done - req.submitted);
            if let Some(admitted) = req.admitted {
                m.spans.push(BenchSpan::new(
                    "admitted",
                    req.unit,
                    Interval::new(req.submitted, admitted),
                ));
                m.spans.push(BenchSpan::new(
                    "running",
                    req.unit,
                    Interval::new(admitted, req.done),
                ));
            }
            let parsed = req.outcome.and_then(|json| {
                let outcome = serde_json::from_str::<CampaignOutcome>(&json)
                    .map_err(|e| format!("outcome does not parse: {e}"))?;
                Ok((json, outcome))
            });
            let (json, outcome) = match parsed {
                Ok(done) => done,
                Err(e) => {
                    m.checks
                        .fail(format!("{} request (seed {}): {e}", req.unit, req.seed));
                    continue;
                }
            };
            m.checks.pass();
            m.sims += outcome.total_sims;
            if r < p.workload.counted_rounds() {
                m.targets_covered += outcome.total_newly_covered() as u64;
                m.digest.update(json.as_bytes());
            }
            if !first_done.iter().any(|(unit, _, _)| *unit == req.unit) {
                first_done.push((req.unit, req.seed, json));
            }
        }
        wall
    });
    m.checkpoint_bytes = dir_bytes(&daemon.state_dir).saturating_sub(bytes_before);
    drop(clients);
    daemon.stop()?;
    // The daemon's first outcome per unit must be byte-identical to the
    // equivalent one-shot campaign.
    for (unit, seed, json) in first_done {
        let env = resolve_unit(unit).expect("built-in unit");
        let mut config = request_config(&*env, "quick", scale).expect("quick profile exists");
        config.threads = THREADS;
        let one_shot = CdgFlow::new(env, config)
            .run_campaign(seed)
            .map_err(|e| e.to_string())
            .and_then(|outcome| serde_json::to_string(&outcome).map_err(|e| e.to_string()));
        m.checks
            .check(one_shot.as_deref() == Ok(json.as_str()), || {
                format!("{unit} request (seed {seed}) differs from its one-shot campaign")
            });
    }
    Ok(m)
}
