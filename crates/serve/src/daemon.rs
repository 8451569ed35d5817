//! The `ascdg serve` daemon: a long-lived, multi-tenant closure service.
//!
//! One daemon owns one [`SimPool`] and one
//! [`AdmissionQueue`] per built-in unit. Each incoming closure request
//! runs through the same driver as a one-shot `ascdg campaign`: one
//! engine, carrying the daemon's telemetry, runs the request's regression
//! ([`FlowEngine::regression_checkpoint`], traced under a `regression`
//! stage span, on the daemon's pool) and plans it with [`CampaignPlan`],
//! which builds the per-group sessions with index-salted seeds, all
//! reading the request's one regression repository.
//! [`CampaignPlan::admit`] then admits the sessions to the unit's queue
//! with the request's weight and priority class, and
//! [`CampaignPlan::collect`] folds their runs. Sessions from different
//! tenants interleave stage by stage under deficit round-robin, all
//! funneling their simulation batches into the shared pool.
//!
//! Determinism carries over unchanged: every seed is salted before
//! admission and the plan folds the finished runs, so a request's outcome
//! is byte-identical to the equivalent one-shot campaign — no matter what
//! else the daemon is running, and no matter how often it was restarted
//! mid-request. Durability comes from the same checkpoint stream the CLI
//! logs: the plan's stream goes to a [`CheckpointWriter`] under the
//! daemon's state directory, its header the planned [`CampaignProgress`],
//! then one line per completed group stage. On startup, any progress file
//! without a matching outcome file is planned again from that checkpoint
//! (which rewrites the header, compacting the log) and runs to the same
//! final outcome. The daemon itself only adds request files, streamed
//! `Progress` lines and the outcome and manifest files, written through
//! the same writer, so every failed state-directory write is counted on
//! `checkpoint.write_failures`. A state directory lost while the daemon
//! runs is recreated, handshake files included, by the next submit.
//!
//! [`CampaignProgress`]: ascdg_core::CampaignProgress

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use ascdg_core::{
    pool_scope_with, AdmissionQueue, CampaignEntry, CampaignPlan, CampaignProgress, CampaignReport,
    CampaignSink, CheckpointWriter, FlowConfig, FlowEngine, FlowError, QueueSnapshot, SimPool,
    Telemetry,
};
use ascdg_duv::ifu::IfuEnv;
use ascdg_duv::io_unit::IoEnv;
use ascdg_duv::l3cache::L3Env;
use ascdg_duv::synthetic::{SyntheticConfig, SyntheticEnv};
use ascdg_duv::VerifEnv;

use ascdg_telemetry::{MetricKind, SnapshotRing};

use crate::http::{ClassDepth, DaemonStatus, GaugeReading, HttpPlane, RatesReport, UnitStatus};
use crate::protocol::{
    violation_code, write_line, ErrorCode, Request, RequestStatus, Response, SubmitSpec,
};

/// How many scheduler workers each unit's queue gets. Workers only
/// coordinate (the simulations inside each stage fan out over the shared
/// pool), so a small crew per unit is enough to overlap one tenant's
/// analysis stages with another tenant's simulation batches.
const WORKERS_PER_UNIT: usize = 2;

/// How the daemon is launched.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:7777` (port `0` picks a free one;
    /// the bound address is written to `<state_dir>/serve.addr`).
    pub addr: String,
    /// Where request, progress and outcome files live. Created if absent.
    pub state_dir: PathBuf,
    /// Worker-pool size (`0` means one per machine thread).
    pub threads: usize,
    /// Telemetry sink shared by every request.
    pub telemetry: Telemetry,
    /// HTTP introspection listener address (`None` disables the plane).
    /// Port `0` picks a free one; the bound address is written to
    /// `<state_dir>/serve.http.addr`. The plane is read-only: request
    /// outcomes are byte-identical with or without it.
    pub http_addr: Option<String>,
    /// Snapshot-sampler tick in milliseconds (`0` means the 500 ms
    /// default). Each tick pushes one registry snapshot into the ring
    /// and refreshes the `/rates` diff.
    pub sample_interval_ms: u64,
}

/// Snapshots the ring retains — 240 ticks, two minutes of history at the
/// default 500 ms interval.
const RING_CAPACITY: usize = 240;

/// The default sampler tick.
const DEFAULT_SAMPLE_INTERVAL_MS: u64 = 500;

/// Resolves a request's unit name to a fresh environment — the one unit
/// table, shared by the daemon and the CLI. Accepts the CLI aliases and
/// the canonical `unit_name()`s.
#[must_use]
pub fn resolve_unit(name: &str) -> Option<Arc<dyn VerifEnv>> {
    match name {
        "io" | "io_unit" => Some(Arc::new(IoEnv::new())),
        "l3" | "l3cache" => Some(Arc::new(L3Env::new())),
        "ifu" => Some(Arc::new(IfuEnv::new())),
        // A hard synthetic configuration: paper-scale budgets would
        // fully cover the library-default model.
        "synthetic" | "syn" | "synthetic_unit" => {
            Some(Arc::new(SyntheticEnv::new(SyntheticConfig {
                hardness: 60.0,
                top_threshold: 0.99,
                ..SyntheticConfig::default()
            })))
        }
        _ => None,
    }
}

/// The profile-and-scale config a request asks for — shared by the
/// daemon and the one-shot CLI so both produce the same bytes.
#[must_use]
pub fn request_config(unit: &dyn VerifEnv, profile: &str, scale: f64) -> Option<FlowConfig> {
    let base = match profile {
        "quick" => FlowConfig::quick(),
        "" | "paper" => match unit.unit_name() {
            "io_unit" => FlowConfig::paper_io(),
            "l3cache" => FlowConfig::paper_l3(),
            "ifu" => FlowConfig::paper_ifu(),
            _ => FlowConfig::paper_l3(),
        },
        _ => return None,
    };
    let scale = if scale > 0.0 { scale } else { 1.0 };
    Some(base.scaled(scale))
}

/// One unit's scheduling shard: its environment and admission queue.
struct Shard<'outer> {
    env: &'outer Arc<dyn VerifEnv>,
    queue: AdmissionQueue<'static>,
}

/// One tracked request (admission order) for `Status` answers.
struct RequestEntry {
    id: u64,
    unit: String,
    class: String,
    weight: u32,
    shard: usize,
    /// `(slot, job id)` per admitted group session.
    jobs: Vec<(usize, u64)>,
    /// Total groups (admitted + prep-failed).
    groups: usize,
    done: bool,
}

/// Daemon-wide shared state (no borrows into the pool scope).
struct Daemon {
    telemetry: Telemetry,
    state_dir: PathBuf,
    /// The handshake files (`serve.addr`, `serve.http.addr`) and the
    /// bound addresses they hold.
    handshakes: Vec<(PathBuf, String)>,
    threads: usize,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    registry: Mutex<Vec<RequestEntry>>,
}

impl Daemon {
    fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::SeqCst)
    }

    /// Recreates a lost state directory and rewrites any missing
    /// handshake file, so request `id` keeps its files and clients can
    /// still find the daemon.
    fn restore_state_dir(&self, id: u64) {
        // Should this fail, every write below fails, logged and counted.
        let _ = std::fs::create_dir_all(&self.state_dir);
        for (path, addr) in &self.handshakes {
            if !path.exists() {
                self.persist(id, path.clone(), |w| w.write_file(addr));
            }
        }
    }

    fn request_path(&self, id: u64) -> PathBuf {
        self.state_dir.join(format!("req{id}.request.json"))
    }

    fn progress_path(&self, id: u64) -> PathBuf {
        self.state_dir.join(format!("req{id}.progress.json"))
    }

    fn outcome_path(&self, id: u64) -> PathBuf {
        self.state_dir.join(format!("req{id}.outcome.json"))
    }

    fn manifest_path(&self, id: u64, slot: usize) -> PathBuf {
        self.state_dir
            .join(format!("req{id}.group{slot}.manifest.json"))
    }

    /// Writes one state-directory file through a [`CheckpointWriter`]; a
    /// failure is logged and counted on `checkpoint.write_failures`, and
    /// the request goes on without the file.
    fn persist(
        &self,
        id: u64,
        path: PathBuf,
        write: impl FnOnce(&CheckpointWriter) -> Result<(), FlowError>,
    ) {
        if let Err(e) = write(&CheckpointWriter::new(path, self.telemetry.clone())) {
            eprintln!("serve: req{id}: {e}");
        }
    }
}

/// A shared, best-effort response stream: progress callbacks fire from
/// scheduler workers, so the write half is behind a mutex. A broken pipe
/// (client went away) silently stops the streaming — the request itself
/// keeps running and its outcome still lands on disk.
type Outbox = Arc<Mutex<Option<TcpStream>>>;

fn send(out: &Outbox, resp: &Response) {
    let mut guard = out.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(stream) = guard.as_mut() {
        if write_line(stream, resp).is_err() {
            *guard = None;
        }
    }
}

/// Runs the daemon until a `Shutdown` request arrives. Blocks the
/// calling thread for the daemon's whole life.
///
/// # Errors
///
/// Socket binding and state-directory creation failures.
pub fn serve(opts: &ServeOptions) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.state_dir)?;
    let listener = TcpListener::bind(&opts.addr)?;
    listener.set_nonblocking(true)?;
    // The bound address is the daemon's handshake file: `port 0` callers
    // (tests, scripts) poll it to find the actual port.
    let mut handshakes = vec![(
        opts.state_dir.join("serve.addr"),
        listener.local_addr()?.to_string(),
    )];
    let http_listener = match &opts.http_addr {
        Some(addr) => {
            let http = TcpListener::bind(addr)?;
            http.set_nonblocking(true)?;
            // Same handshake pattern as the line protocol, second file.
            handshakes.push((
                opts.state_dir.join("serve.http.addr"),
                http.local_addr()?.to_string(),
            ));
            Some(http)
        }
        None => None,
    };
    for (path, addr) in &handshakes {
        std::fs::write(path, addr)?;
    }
    let sample_interval = Duration::from_millis(if opts.sample_interval_ms == 0 {
        DEFAULT_SAMPLE_INTERVAL_MS
    } else {
        opts.sample_interval_ms
    });
    let ring = SnapshotRing::new(RING_CAPACITY);
    let rates = Mutex::new(RatesReport::empty(
        sample_interval.as_millis() as u64,
        RING_CAPACITY,
    ));

    let units: Vec<Arc<dyn VerifEnv>> = ["io", "l3", "ifu", "synthetic"]
        .iter()
        .filter_map(|name| resolve_unit(name))
        .collect();
    let daemon = Daemon {
        telemetry: opts.telemetry.clone(),
        state_dir: opts.state_dir.clone(),
        handshakes,
        threads: opts.threads,
        next_id: AtomicU64::new(next_request_id(&opts.state_dir)),
        shutdown: AtomicBool::new(false),
        registry: Mutex::new(Vec::new()),
    };
    let orphans = scan_orphans(&opts.state_dir);

    pool_scope_with(opts.threads, &opts.telemetry, |pool| {
        let shards: Vec<Shard<'_>> = units
            .iter()
            .map(|env| Shard {
                env,
                queue: AdmissionQueue::new(opts.telemetry.clone()),
            })
            .collect();
        std::thread::scope(|scope| {
            for shard in &shards {
                for _ in 0..WORKERS_PER_UNIT {
                    let daemon = &daemon;
                    scope.spawn(move || {
                        let engine = FlowEngine::new(shard.env, FlowConfig::quick(), pool)
                            .with_telemetry(daemon.telemetry.clone());
                        shard.queue.run_worker(&engine);
                    });
                }
            }
            // The introspection plane: one accept loop for the HTTP
            // endpoints, one background sampler filling the ring and the
            // rates diff. Both are read-only and exit on shutdown.
            if let Some(http) = &http_listener {
                let daemon = &daemon;
                let shards = &shards;
                let ring = &ring;
                let rates = &rates;
                scope.spawn(move || {
                    let status = || daemon_status(daemon, shards);
                    let plane = HttpPlane {
                        telemetry: &daemon.telemetry,
                        ring,
                        rates,
                        status: &status,
                        shutdown: &daemon.shutdown,
                    };
                    crate::http::run_http(http, &plane);
                });
                scope.spawn(move || {
                    crate::http::run_sampler(
                        &daemon.telemetry,
                        ring,
                        rates,
                        sample_interval,
                        &daemon.shutdown,
                    );
                });
            }
            // Restart recovery: re-admit every checkpointed request that
            // never wrote its outcome. Each runs detached (no client);
            // its outcome file is the deliverable.
            for id in orphans {
                let daemon = &daemon;
                let shards = &shards;
                scope.spawn(move || {
                    let out: Outbox = Arc::new(Mutex::new(None));
                    recover_request(daemon, shards, pool, id, &out);
                });
            }
            loop {
                if daemon.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let daemon = &daemon;
                        let shards = &shards;
                        scope.spawn(move || handle_conn(daemon, shards, pool, stream));
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        if let Some(m) = daemon.telemetry.metrics() {
                            let active: usize = shards.iter().map(|s| s.queue.active()).sum();
                            m.gauge("serve.active_sessions").set(active as f64);
                        }
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(e) => {
                        eprintln!("serve: accept failed: {e}");
                        std::thread::sleep(Duration::from_millis(100));
                    }
                }
            }
            // Hard stop: pending sessions stay checkpointed; their
            // waiters observe `None` and answer `Failed` with the
            // recovery hint.
            for shard in &shards {
                shard.queue.close();
            }
        });
    });
    Ok(())
}

/// One request id past everything the state directory has seen, so
/// restarted daemons never reuse an id.
fn next_request_id(state_dir: &Path) -> u64 {
    scan_ids(state_dir)
        .into_iter()
        .max()
        .map_or(0, |max| max + 1)
}

/// Every request id with any file in the state directory.
fn scan_ids(state_dir: &Path) -> Vec<u64> {
    let Ok(entries) = std::fs::read_dir(state_dir) else {
        return Vec::new();
    };
    let mut ids = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("req") else {
            continue;
        };
        let Some(end) = rest.find('.') else { continue };
        if let Ok(id) = rest[..end].parse::<u64>() {
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
    }
    ids
}

/// Requests that checkpointed progress but never wrote an outcome — the
/// restart-recovery set.
fn scan_orphans(state_dir: &Path) -> Vec<u64> {
    let mut ids: Vec<u64> = scan_ids(state_dir)
        .into_iter()
        .filter(|&id| {
            state_dir.join(format!("req{id}.progress.json")).exists()
                && !state_dir.join(format!("req{id}.outcome.json")).exists()
        })
        .collect();
    ids.sort_unstable();
    ids
}

/// Serves one client connection: a request loop until the peer leaves,
/// shutdown begins, or the stream breaks.
fn handle_conn<'env>(
    daemon: &Daemon,
    shards: &[Shard<'env>],
    pool: &SimPool<'env>,
    stream: TcpStream,
) {
    tune_conn(&stream);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let out: Outbox = Arc::new(Mutex::new(Some(stream)));
    loop {
        if daemon.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let req: Request = match crate::protocol::read_line(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // A bad line gets a typed rejection, not a hangup: the
                // reader already resynchronized at the next newline, so
                // the peer's following lines still get served.
                send(
                    &out,
                    &Response::Error {
                        code: violation_code(&e),
                        error: e.to_string(),
                    },
                );
                continue;
            }
            Err(_) => return,
        };
        match req {
            Request::Submit(spec) => submit_request(daemon, shards, pool, spec, &out),
            Request::Status => send(
                &out,
                &Response::Status {
                    requests: status_snapshot(daemon, shards).0,
                },
            ),
            Request::Cancel { request } => {
                let ok = cancel_request(daemon, shards, request);
                send(&out, &Response::Cancelled { request, ok });
            }
            Request::Shutdown => {
                send(&out, &Response::ShuttingDown);
                daemon.shutdown.store(true, Ordering::SeqCst);
                for shard in shards {
                    shard.queue.close();
                }
                return;
            }
        }
    }
}

/// Readies an accepted connection: a short read timeout, so the request
/// loop notices shutdown; a write timeout, so a client that stops reading
/// fails the write (and [`send`] drops its outbox) instead of blocking a
/// queue worker or the registry lock once the socket buffer fills; and
/// `TCP_NODELAY`, so each response line leaves as soon as it is written
/// instead of waiting on the peer's delayed ACK.
fn tune_conn(stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
}

/// The line protocol's request view, and the queue snapshot of each
/// shard it was built from: one `snapshot()` per shard per answer, read
/// under the registry lock, so every registered job is in them.
fn status_snapshot(
    daemon: &Daemon,
    shards: &[Shard<'_>],
) -> (Vec<RequestStatus>, Vec<QueueSnapshot>) {
    let registry = daemon
        .registry
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let snapshots: Vec<QueueSnapshot> = shards.iter().map(|s| s.queue.snapshot()).collect();
    let requests = registry
        .iter()
        .map(|entry| {
            let statuses = &snapshots[entry.shard].jobs;
            let jobs: BTreeMap<usize, u64> = entry.jobs.iter().copied().collect();
            let groups = (0..entry.groups)
                .map(|slot| match jobs.get(&slot) {
                    Some(&job) => statuses[job as usize].lifecycle,
                    None => ascdg_core::SessionLifecycle::Failed,
                })
                .collect();
            let job_statuses = entry.jobs.iter().map(|&(_, job)| &statuses[job as usize]);
            RequestStatus {
                request: entry.id,
                unit: entry.unit.clone(),
                class: entry.class.clone(),
                weight: entry.weight,
                groups,
                completed_stages: job_statuses.clone().map(|s| s.completed_stages).sum(),
                sims: job_statuses.map(|s| s.sims).sum(),
                done: entry.done,
            }
        })
        .collect();
    (requests, snapshots)
}

/// Builds the `GET /status` answer: the line protocol's request view
/// plus per-unit shard/queue state and the serve-, campaign- and
/// pool-scoped scalar readings.
fn daemon_status(daemon: &Daemon, shards: &[Shard<'_>]) -> DaemonStatus {
    let (requests, snapshots) = status_snapshot(daemon, shards);
    let units = shards
        .iter()
        .zip(snapshots)
        .map(|(shard, queue)| UnitStatus {
            unit: shard.env.unit_name().to_owned(),
            active_jobs: queue.active,
            in_flight: queue.in_flight,
            ready_depth: queue.ready_depth,
            ready_by_class: queue
                .ready_by_class
                .into_iter()
                .map(|(class, depth)| ClassDepth { class, depth })
                .collect(),
            jobs: queue.jobs,
        })
        .collect();
    let gauges = daemon
        .telemetry
        .metrics()
        .map(ascdg_telemetry::MetricsRegistry::snapshot)
        .unwrap_or_default()
        .into_iter()
        .filter(|m| matches!(m.kind, MetricKind::Gauge | MetricKind::Counter))
        .filter(|m| {
            m.name.starts_with("serve.")
                || m.name.starts_with("campaign.")
                || m.name.starts_with("pool.")
        })
        .map(|m| GaugeReading {
            name: m.name,
            value: m.value,
        })
        .collect();
    DaemonStatus {
        requests,
        units,
        gauges,
    }
}

fn cancel_request(daemon: &Daemon, shards: &[Shard<'_>], id: u64) -> bool {
    let registry = daemon
        .registry
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let Some(entry) = registry.iter().find(|e| e.id == id) else {
        return false;
    };
    let mut any = false;
    for &(_, job) in &entry.jobs {
        any |= shards[entry.shard].queue.cancel(job);
    }
    any
}

/// A fresh request's front half: checks its unit and profile, allocates
/// its id and writes its request file, then starts it.
fn submit_request<'env>(
    daemon: &Daemon,
    shards: &[Shard<'env>],
    pool: &SimPool<'env>,
    spec: SubmitSpec,
    out: &Outbox,
) {
    let reject = |code, error| send(out, &Response::Error { code, error });
    let Some(env) = resolve_unit(&spec.unit) else {
        return reject(
            ErrorCode::UnknownUnit,
            format!("unknown unit `{}`", spec.unit),
        );
    };
    let Some(mut config) = request_config(&*env, &spec.profile, spec.scale) else {
        return reject(
            ErrorCode::UnknownProfile,
            format!(
                "unknown profile `{}` (expected paper or quick)",
                spec.profile
            ),
        );
    };
    config.threads = daemon.threads;
    let id = daemon.alloc_id();
    daemon.restore_state_dir(id);
    // The request file makes weight/class survive a restart.
    daemon.persist(id, daemon.request_path(id), |w| w.write_json(&spec, false));
    let unit = env.unit_name().to_owned();
    let start = Start {
        id,
        unit,
        spec,
        config,
        checkpoint: None,
    };
    start_request(daemon, shards, pool, start, out);
}

/// A recovered request's front half: reads its checkpoint log, the config
/// in it and its request file, then starts it from the checkpoint.
fn recover_request<'env>(
    daemon: &Daemon,
    shards: &[Shard<'env>],
    pool: &SimPool<'env>,
    id: u64,
    out: &Outbox,
) {
    let progress = match ascdg_core::read_campaign_checkpoint(daemon.progress_path(id)) {
        Ok(progress) => progress,
        Err(e) => return eprintln!("serve: req{id}: recovery failed: {e}"),
    };
    // The daemon trusts no ambient config: the plan's engine runs the
    // checkpoint's, and a checkpoint without one is rejected.
    let Some(config) = progress.config.clone() else {
        return eprintln!(
            "serve: req{id}: recovery failed: campaign checkpoint has no config; \
             it predates resumable checkpoints"
        );
    };
    // Weight and class ride in the request file; a missing one falls
    // back to the defaults (the outcome does not depend on them).
    let spec: SubmitSpec = std::fs::read_to_string(daemon.request_path(id))
        .ok()
        .and_then(|json| serde_json::from_str(&json).ok())
        .unwrap_or(SubmitSpec {
            unit: progress.unit.clone(),
            scale: 1.0,
            seed: progress.seed,
            profile: String::new(),
            weight: 1,
            class: String::new(),
        });
    eprintln!(
        "serve: req{id}: recovering {} from checkpoint",
        progress.unit
    );
    let start = Start {
        id,
        unit: progress.unit.clone(),
        spec,
        config,
        checkpoint: Some(progress),
    };
    start_request(daemon, shards, pool, start, out);
}

/// A request ready to start: a fresh submission, or one recovered from
/// its checkpoint log after a restart.
struct Start {
    id: u64,
    /// The unit's canonical name, its shard's.
    unit: String,
    spec: SubmitSpec,
    config: FlowConfig,
    /// The recovered request's campaign checkpoint; `None` for a fresh
    /// request, whose regression runs first.
    checkpoint: Option<CampaignProgress>,
}

/// The answer to a request the daemon stopped before it finished.
fn interrupted(request: u64) -> Response {
    Response::Failed {
        request,
        error: "daemon is shutting down; request checkpointed for recovery".to_owned(),
    }
}

/// The one start path of every request, fresh or recovered. It finds the
/// shard, counts the request on `serve.requests_total`, and plans it on
/// one engine with the request's config and the daemon's telemetry (a
/// fresh request's regression runs first, traced, on the daemon's pool).
/// A plan that fails is answered `Failed` and logged. Then it writes the
/// request log's header and, in one critical section of the registry,
/// answers `Admitted`, admits the plan to the unit's queue with the
/// request's weight and class (its steps going to the request's log and
/// `Progress` lines) and registers the jobs, so a `Cancel` or `Status`
/// sent after `Admitted` finds the request. Last it collects, persists
/// and answers the outcome; a refused admission answers `Failed` with
/// the recovery hint.
fn start_request<'env>(
    daemon: &Daemon,
    shards: &[Shard<'env>],
    pool: &SimPool<'env>,
    start: Start,
    out: &Outbox,
) {
    let (id, spec) = (start.id, start.spec);
    let fail = |error: String| {
        eprintln!("serve: req{id}: planning failed: {error}");
        send(out, &Response::Failed { request: id, error });
    };
    let Some(shard_idx) = shards.iter().position(|s| s.env.unit_name() == start.unit) else {
        return fail(format!("unknown unit `{}`", start.unit));
    };
    let shard = &shards[shard_idx];
    if let Some(m) = daemon.telemetry.metrics() {
        m.counter("serve.requests_total").add(1);
    }
    let engine =
        FlowEngine::new(shard.env, start.config, pool).with_telemetry(daemon.telemetry.clone());
    let plan = start
        .checkpoint
        .map_or_else(|| engine.regression_checkpoint(spec.seed), Ok)
        .and_then(|progress| CampaignPlan::new(&engine, &progress));
    let mut plan = match plan {
        Ok(plan) => plan,
        Err(e) => return fail(e.to_string()),
    };
    let class = if spec.class.is_empty() {
        "default"
    } else {
        spec.class.as_str()
    };
    let log = CheckpointWriter::new(daemon.progress_path(id), daemon.telemetry.clone());
    // The header holds the whole regression snapshot, so it is written
    // here, outside the registry lock; the sink records only the steps.
    if let Err(e) = log.record(CampaignEntry::Plan(plan.checkpoint())) {
        eprintln!("serve: req{id}: {e}");
    }
    let names: Vec<String> = plan
        .checkpoint()
        .groups
        .iter()
        .map(|g| g.name.clone())
        .collect();
    let stream = Arc::clone(out);
    let sink: Arc<CampaignSink<'static>> = Arc::new(move |entry: CampaignEntry<'_>| {
        let CampaignEntry::Step { group, state } = entry else {
            return;
        };
        if let Err(e) = log.record(entry) {
            eprintln!("serve: req{id}: {e}");
        }
        send(
            &stream,
            &Response::Progress {
                request: id,
                group: names[group].clone(),
                completed_stages: state.completed.len(),
                sims: state.stage_sims.iter().map(|s| s.sims).sum(),
            },
        );
    });
    let groups = plan
        .checkpoint()
        .groups
        .iter()
        .filter(|g| g.failure.is_none())
        .count();
    {
        let mut registry = daemon
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        send(
            out,
            &Response::Admitted {
                request: id,
                groups,
            },
        );
        let Some(jobs) = plan
            .admit(&shard.queue, spec.weight, class, Some(sink))
            .map(<[_]>::to_vec)
        else {
            drop(registry);
            return send(out, &interrupted(id));
        };
        registry.push(RequestEntry {
            id,
            unit: start.unit,
            class: class.to_owned(),
            weight: spec.weight.max(1),
            shard: shard_idx,
            jobs,
            groups: plan.checkpoint().groups.len(),
            done: false,
        });
    }
    match plan.collect(&shard.queue) {
        Some(report) => finish_request(daemon, id, &report, out),
        None => send(out, &interrupted(id)),
    }
}

/// Persists a retired request: validated per-group run manifests, the
/// outcome file (which marks the request non-recoverable), and the
/// terminal `Done` line.
fn finish_request(daemon: &Daemon, id: u64, report: &CampaignReport, out: &Outbox) {
    let fail = |error| send(out, &Response::Failed { request: id, error });
    let manifests = match report.manifests(&daemon.telemetry) {
        Ok(manifests) => manifests,
        Err(error) => return fail(error),
    };
    for (slot, manifest) in manifests {
        daemon.persist(id, daemon.manifest_path(id, slot), |w| {
            w.write_json(&manifest, true)
        });
    }
    let outcome_json = match serde_json::to_string(&report.outcome) {
        Ok(json) => json,
        Err(e) => return fail(format!("outcome did not serialize: {e}")),
    };
    // Atomic like every state file: recovery must never see half an
    // outcome file and skip a request that was not actually done.
    daemon.persist(id, daemon.outcome_path(id), |w| w.write_file(&outcome_json));
    {
        let mut registry = daemon
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = registry.iter_mut().find(|e| e.id == id) {
            entry.done = true;
        }
    }
    send(
        out,
        &Response::Done {
            request: id,
            outcome_json,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_connections_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        tune_conn(&accepted);
        assert!(accepted.nodelay().unwrap());
        // The read half the request loop clones shares the setting.
        assert!(accepted.try_clone().unwrap().nodelay().unwrap());
    }

    #[test]
    fn accepted_connections_time_out_stalled_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        tune_conn(&accepted);
        assert_eq!(
            accepted.write_timeout().unwrap(),
            Some(Duration::from_secs(5))
        );
    }
}
