//! End-to-end serve-mode tests: daemon outcomes must be byte-identical
//! to one-shot campaigns, including after restart recovery, and the
//! protocol's status/cancel paths must behave.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ascdg_core::{
    pool_scope, CampaignEntry, CampaignOutcome, CampaignProgress, CdgFlow, CheckpointWriter,
    FlowConfig, FlowEngine, RunManifest, SessionLifecycle, Telemetry, STAGE_REGRESSION,
};
use ascdg_coverage::EventId;
use ascdg_duv::io_unit::IoEnv;
use ascdg_serve::{serve, wait_for_addr, Client, Response, ServeOptions, SubmitSpec};
use ascdg_telemetry::{check_span_accounting, TraceRecord};

fn test_threads() -> usize {
    std::env::var("ASCDG_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ascdg-serve-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Starts a daemon on a free port in a background thread; returns its
/// address and a handle that joins on drop.
fn start_daemon(state_dir: &std::path::Path) -> (String, std::thread::JoinHandle<()>) {
    start_daemon_with(state_dir, Telemetry::enabled())
}

/// [`start_daemon`] recording into the given telemetry handle.
fn start_daemon_with(
    state_dir: &std::path::Path,
    telemetry: Telemetry,
) -> (String, std::thread::JoinHandle<()>) {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        state_dir: state_dir.to_path_buf(),
        threads: test_threads(),
        telemetry,
        http_addr: None,
        sample_interval_ms: 0,
    };
    let handle = std::thread::spawn(move || serve(&opts).expect("daemon runs"));
    let addr = wait_for_addr(state_dir, Duration::from_secs(10)).expect("daemon binds");
    (addr, handle)
}

/// The reference: what the in-process one-shot campaign produces for the
/// daemon's quick profile at this scale and seed.
fn one_shot_outcome_json(scale: f64, seed: u64) -> String {
    let mut config = FlowConfig::quick().scaled(scale);
    config.threads = test_threads();
    let outcome = CdgFlow::new(IoEnv::new(), config)
        .run_campaign(seed)
        .expect("one-shot campaign runs");
    serde_json::to_string(&outcome).unwrap()
}

#[test]
fn daemon_outcome_is_byte_identical_to_one_shot_campaign() {
    let dir = tmp_dir("identity");
    let (addr, handle) = start_daemon(&dir);
    let spec = SubmitSpec {
        unit: "io".to_owned(),
        scale: 1.0,
        seed: 2021,
        profile: "quick".to_owned(),
        weight: 2,
        class: "gold".to_owned(),
    };
    let mut client = Client::connect(&addr).expect("connects");
    let mut progress_lines = 0u32;
    let (request, outcome_json) = client
        .submit(spec, |resp| {
            if matches!(resp, Response::Progress { .. }) {
                progress_lines += 1;
            }
        })
        .expect("request completes");
    assert!(
        progress_lines > 0,
        "submit must stream at least one progress line"
    );
    assert_eq!(outcome_json, one_shot_outcome_json(1.0, 2021));
    // The outcome also landed on disk, byte-identically.
    let on_disk = std::fs::read_to_string(dir.join(format!("req{request}.outcome.json"))).unwrap();
    assert_eq!(on_disk, outcome_json);
    // Per-group manifests were written for the request.
    let manifests = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy().into_owned();
            name.starts_with(&format!("req{request}.group")) && name.ends_with(".manifest.json")
        })
        .count();
    assert!(manifests > 0, "request must leave validated manifests");
    client.shutdown().expect("daemon drains");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two concurrent tenants: both outcomes match their one-shots, and the
/// per-stage chunk series count exactly the simulations the group
/// manifests account. Each request's regression runs once, traced, on
/// the engine that plans it: its series and its one `regression` stage
/// span count it once, though every group's manifest repeats it.
#[test]
fn two_tenants_with_different_weights_both_match_their_one_shots() {
    let dir = tmp_dir("tenants");
    let telemetry = Telemetry::enabled();
    let (addr, handle) = start_daemon_with(&dir, telemetry.clone());
    // Two concurrent tenants on different connections, different budgets
    // and priorities, same shared pool.
    let submit = |weight: u32, class: &str, seed: u64| {
        let addr = addr.clone();
        let class = class.to_owned();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connects");
            client
                .submit(
                    SubmitSpec {
                        unit: "io".to_owned(),
                        scale: 1.0,
                        seed,
                        profile: "quick".to_owned(),
                        weight,
                        class,
                    },
                    |_| {},
                )
                .expect("request completes")
                .1
        })
    };
    let heavy = submit(5, "batch", 2021);
    let light = submit(1, "interactive", 7);
    assert_eq!(heavy.join().unwrap(), one_shot_outcome_json(1.0, 2021));
    assert_eq!(light.join().unwrap(), one_shot_outcome_json(1.0, 7));
    let mut client = Client::connect(&addr).expect("connects");
    let statuses = client.status().expect("status answers");
    assert_eq!(statuses.len(), 2);
    assert!(statuses.iter().all(|s| s.done));
    client.shutdown().expect("daemon drains");
    handle.join().expect("daemon exits");

    let mut ledger: Vec<(String, u64)> = Vec::new();
    // Each request's regression sims, keyed by its `req<id>` prefix.
    let mut regressions: BTreeMap<String, u64> = BTreeMap::new();
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.ends_with(".manifest.json") {
            continue;
        }
        let text = std::fs::read_to_string(entry.path()).unwrap();
        let manifest = RunManifest::from_json(&text).expect("manifest parses");
        for entry in manifest.stage_sims {
            if entry.stage == STAGE_REGRESSION {
                let request = name.split('.').next().unwrap().to_owned();
                regressions.insert(request, entry.sims);
                continue;
            }
            match ledger.iter_mut().find(|(stage, _)| *stage == entry.stage) {
                Some((_, sims)) => *sims += entry.sims,
                None => ledger.push((entry.stage, entry.sims)),
            }
        }
    }
    assert!(ledger.len() > 1, "the requests left group manifests");
    assert_eq!(regressions.len(), 2, "both requests left manifests");
    ledger.push((
        STAGE_REGRESSION.to_owned(),
        regressions.values().sum::<u64>(),
    ));
    let trace = telemetry.export_trace("io_unit", 0);
    let mut traced: Vec<u64> = trace
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Span(s) if s.kind == "stage" && s.name == STAGE_REGRESSION => Some(s.sims),
            _ => None,
        })
        .collect();
    traced.sort_unstable();
    let mut want: Vec<u64> = regressions.into_values().collect();
    want.sort_unstable();
    assert_eq!(traced, want, "one regression stage span per request");
    check_span_accounting(&trace).expect("span accounting");
    let metrics = telemetry.metrics().expect("telemetry is on");
    for (stage, sims) in &ledger {
        let series = metrics
            .histogram(&format!("stage.{stage}.chunk_sims"))
            .snapshot()
            .sum;
        assert_eq!(series, *sims, "stage.{stage}.chunk_sims");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crowd of tiny tenants on one unit: every Done payload must match
/// its one-shot equivalent even when the shard's worker crews interleave
/// all of them over the shared pool. This is the dispatch-wall shape:
/// many concurrent sub-block tenants, one DUV.
#[test]
fn six_tiny_tenants_all_match_their_one_shots() {
    let dir = tmp_dir("crowd");
    let (addr, handle) = start_daemon(&dir);
    let classes = ["gold", "batch", "interactive"];
    let handles: Vec<_> = (0..6u64)
        .map(|i| {
            let addr = addr.clone();
            let class = classes[i as usize % classes.len()].to_owned();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connects");
                client
                    .submit(
                        SubmitSpec {
                            unit: "io".to_owned(),
                            scale: 1.0,
                            seed: 100 + i,
                            profile: "quick".to_owned(),
                            weight: 1 + (i % 3) as u32,
                            class,
                        },
                        |_| {},
                    )
                    .expect("request completes")
                    .1
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(
            h.join().unwrap(),
            one_shot_outcome_json(1.0, 100 + i as u64),
            "tenant {i} diverged from its one-shot equivalent"
        );
    }
    let mut client = Client::connect(&addr).expect("connects");
    let statuses = client.status().expect("status answers");
    assert_eq!(statuses.len(), 6);
    assert!(statuses.iter().all(|s| s.done));
    client.shutdown().expect("daemon drains");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restart recovery: a request whose daemon died mid-run (here: a
/// checkpoint captured mid-campaign, planted as an orphan) is re-admitted
/// on startup and finishes with the same bytes the uninterrupted run
/// produces — from a single-object checkpoint written before the log
/// format, and from a log whose last append was torn.
#[test]
fn restarted_daemon_recovers_orphans_to_the_identical_outcome() {
    let dir = tmp_dir("recovery");
    let scale = 1.0;
    let seed = 2021;
    let mut config = FlowConfig::quick().scaled(scale);
    config.threads = test_threads();

    // Log the campaign, and fold its stream into the whole-progress
    // snapshots (group sessions with their own `repo`) that checkpoints
    // were before the log.
    let log_path = dir.join("campaign.log");
    let writer = CheckpointWriter::new(&log_path, Telemetry::disabled());
    // Each snapshot pairs the folded progress with the log's bytes.
    let snapshots: Mutex<Vec<(CampaignProgress, Vec<u8>)>> = Mutex::new(Vec::new());
    let flow = CdgFlow::new(IoEnv::new(), config);
    let report = flow
        .run_campaign_with(
            seed,
            &Telemetry::disabled(),
            Some(&|entry: CampaignEntry<'_>| {
                writer.record(entry).expect("log writes");
                let mut snapshots = snapshots.lock().unwrap();
                let progress = match entry {
                    CampaignEntry::Plan(p) => p.clone(),
                    CampaignEntry::Step { group, state } => {
                        let mut progress =
                            snapshots.last().expect("the plan comes first").0.clone();
                        progress.groups[group].session = Some(state.clone());
                        progress
                    }
                };
                snapshots.push((progress, std::fs::read(&log_path).unwrap()));
            }),
        )
        .expect("campaign runs");
    let reference = serde_json::to_string(&report.outcome).unwrap();
    let snapshots = snapshots.into_inner().unwrap();
    assert!(snapshots.len() > 2, "campaign must checkpoint repeatedly");
    let (midway, log) = &snapshots[snapshots.len() / 2];
    assert!(
        midway
            .groups
            .iter()
            .any(|g| g.session.as_ref().is_some_and(|s| !s.completed.is_empty())),
        "midway checkpoint should have partial group progress"
    );

    // Plant both as interrupted requests, with their request files, the
    // way a killed daemon leaves them behind.
    let last_line = log[..log.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("the log has step lines")
        + 1;
    let orphans = [
        serde_json::to_string(midway).unwrap().into_bytes(),
        log[..last_line + (log.len() - last_line) / 2].to_vec(),
    ];
    for (id, bytes) in (3..).zip(&orphans) {
        std::fs::write(dir.join(format!("req{id}.progress.json")), bytes).unwrap();
        std::fs::write(
            dir.join(format!("req{id}.request.json")),
            serde_json::to_string(&SubmitSpec {
                unit: "io".to_owned(),
                scale,
                seed,
                profile: "quick".to_owned(),
                weight: 3,
                class: "recovered".to_owned(),
            })
            .unwrap(),
        )
        .unwrap();
    }

    let telemetry = Telemetry::enabled();
    let (addr, handle) = start_daemon_with(&dir, telemetry.clone());
    // The daemon recovers the orphans in the background; wait for their
    // outcome files.
    for id in [3, 4] {
        let outcome_path = dir.join(format!("req{id}.outcome.json"));
        let deadline = Instant::now() + Duration::from_secs(120);
        while !outcome_path.exists() {
            assert!(
                Instant::now() < deadline,
                "recovery of req{id} never finished"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        let recovered = std::fs::read_to_string(&outcome_path).unwrap();
        assert_eq!(
            recovered, reference,
            "req{id}'s recovered outcome must be byte-identical to the uninterrupted run"
        );
    }
    // New ids allocated after restart never collide with recovered ones.
    let mut client = Client::connect(&addr).expect("connects");
    let (request, _) = client
        .submit(
            SubmitSpec {
                unit: "io".to_owned(),
                scale,
                seed: 5,
                profile: "quick".to_owned(),
                weight: 1,
                class: String::new(),
            },
            |_| {},
        )
        .expect("fresh request completes");
    assert!(request > 4, "restart must not reuse recovered ids");
    // Both recoveries and the fresh submission count as admitted requests.
    let requests = telemetry
        .metrics()
        .expect("telemetry is on")
        .counter("serve.requests_total")
        .value();
    assert_eq!(requests, 3, "serve.requests_total");
    client.shutdown().expect("daemon drains");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupted orphans — a group target outside the unit's model, a config
/// naming a retired evaluation seeding, a truncated file — fail their
/// recovery with a typed error logged on stderr instead of panicking a
/// daemon thread: the daemon still starts, writes no outcome for them,
/// serves a new request with its one-shot bytes, and shuts down cleanly.
#[test]
fn corrupted_orphan_fails_recovery_and_the_daemon_keeps_serving() {
    let dir = tmp_dir("bad-orphan");
    let mut config = FlowConfig::quick();
    config.threads = test_threads();
    let env = IoEnv::new();
    let mut orphan = pool_scope(config.threads, |pool| {
        FlowEngine::new(&env, config.clone(), pool).regression_checkpoint(2021)
    })
    .expect("regression runs");
    let clean = serde_json::to_string(&orphan).unwrap();
    orphan.groups[0].targets.push(EventId(99_999));
    let retired = clean.replace(
        "\"campaign_jobs\":1",
        "\"campaign_jobs\":1,\"eval_strategy\":\"Coalesced\"",
    );
    assert_ne!(retired, clean);
    let orphans = [
        serde_json::to_string(&orphan).unwrap(),
        retired,
        clean[..clean.len() / 2].to_owned(),
    ];
    for (id, json) in orphans.iter().enumerate() {
        std::fs::write(dir.join(format!("req{id}.progress.json")), json).unwrap();
    }

    let (addr, handle) = start_daemon(&dir);
    let mut client = Client::connect(&addr).expect("connects");
    let (request, outcome_json) = client
        .submit(
            SubmitSpec {
                unit: "io".to_owned(),
                scale: 1.0,
                seed: 5,
                profile: "quick".to_owned(),
                weight: 1,
                class: String::new(),
            },
            |_| {},
        )
        .expect("fresh request completes");
    assert!(request > 2, "restart must not reuse an orphan's id");
    assert_eq!(outcome_json, one_shot_outcome_json(1.0, 5));
    for id in 0..orphans.len() {
        assert!(
            !dir.join(format!("req{id}.outcome.json")).exists(),
            "corrupted orphan {id} must not produce an outcome"
        );
    }
    client.shutdown().expect("daemon drains");
    handle
        .join()
        .expect("daemon exits without a panicked thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A state directory that vanishes mid-request: every later write of
/// that request fails and is counted on `checkpoint.write_failures`, the
/// request still ends `Done` with its one-shot bytes, and the next
/// request recreates the directory: its outcome lands on disk and
/// `serve.addr` finds the daemon again.
#[test]
fn lost_state_dir_counts_write_failures_and_the_daemon_keeps_serving() {
    let dir = tmp_dir("lost-state");
    let telemetry = Telemetry::enabled();
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        state_dir: dir.clone(),
        threads: test_threads(),
        telemetry: telemetry.clone(),
        http_addr: None,
        sample_interval_ms: 0,
    };
    let handle = std::thread::spawn(move || serve(&opts).expect("daemon runs"));
    let addr = wait_for_addr(&dir, Duration::from_secs(10)).expect("daemon binds");
    let spec = |seed| SubmitSpec {
        unit: "io".to_owned(),
        scale: 1.0,
        seed,
        profile: "quick".to_owned(),
        weight: 1,
        class: String::new(),
    };
    let mut client = Client::connect(&addr).expect("connects");
    let mut removed = false;
    let (_, outcome_json) = client
        .submit(spec(2021), |resp| {
            if !removed && matches!(resp, Response::Progress { .. }) {
                // Retry: the daemon may create a file while the tree goes.
                while dir.exists() {
                    let _ = std::fs::remove_dir_all(&dir);
                }
                removed = true;
            }
        })
        .expect("request completes without its state dir");
    assert!(removed, "the request streamed no progress");
    assert_eq!(outcome_json, one_shot_outcome_json(1.0, 2021));
    let (next_id, next) = client
        .submit(spec(5), |_| {})
        .expect("the next request completes");
    assert_eq!(next, one_shot_outcome_json(1.0, 5));
    let on_disk = std::fs::read_to_string(dir.join(format!("req{next_id}.outcome.json")))
        .expect("the next request's outcome is on disk");
    assert_eq!(on_disk, next);
    assert_eq!(
        wait_for_addr(&dir, Duration::from_secs(10)).expect("serve.addr is back"),
        addr
    );
    let failures = telemetry
        .metrics()
        .expect("telemetry is on")
        .counter("checkpoint.write_failures")
        .value();
    assert!(failures > 0, "lost state-dir writes went uncounted");
    client.shutdown().expect("daemon drains");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn protocol_errors_and_cancel_of_unknown_requests_answer_cleanly() {
    let dir = tmp_dir("protocol");
    let (addr, handle) = start_daemon(&dir);
    let mut client = Client::connect(&addr).expect("connects");
    // Unknown request id: clean `ok: false`, not an error.
    assert!(!client.cancel(999).expect("cancel answers"));
    // Unknown unit: an Error response, connection stays usable.
    client
        .send(&ascdg_serve::Request::Submit(SubmitSpec {
            unit: "no_such_unit".to_owned(),
            scale: 1.0,
            seed: 1,
            profile: "quick".to_owned(),
            weight: 1,
            class: String::new(),
        }))
        .unwrap();
    match client.recv().expect("answer").expect("line") {
        Response::Error { error, .. } => assert!(error.contains("no_such_unit"), "{error}"),
        other => panic!("expected Error, got {other:?}"),
    }
    assert!(client.status().expect("status still works").is_empty());
    client.shutdown().expect("daemon drains");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A live cancel: a second client cancels a request mid-run. The request
/// still answers `Done`, its cancelled groups report the cancellation as
/// their failure and show `cancelled` in `Status`; a concurrent tenant's
/// outcome is untouched, and the daemon serves the next request.
#[test]
fn cancelling_a_running_request_retires_its_groups_and_spares_the_other_tenant() {
    let dir = tmp_dir("live-cancel");
    let (addr, handle) = start_daemon(&dir);
    let spec = |scale, seed| SubmitSpec {
        unit: "io".to_owned(),
        scale,
        seed,
        profile: "quick".to_owned(),
        weight: 1,
        class: String::new(),
    };
    let bystander = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connects");
            client
                .submit(spec(0.5, 7), |_| {})
                .expect("request completes")
                .1
        })
    };
    let mut client = Client::connect(&addr).expect("connects");
    let mut canceller = Client::connect(&addr).expect("connects");
    let mut admitted = None;
    let mut cancelled = false;
    let (request, outcome_json) = client
        .submit(spec(2.0, 2021), |resp| match resp {
            Response::Admitted { request, .. } => admitted = Some(*request),
            // Cancel at the very first group stage: `Admitted` comes
            // before any `Progress`, and a request is registered for
            // `Cancel` before its groups can stream one. The rest of the
            // request is still queued or running.
            Response::Progress { request, .. } if !cancelled => {
                assert_eq!(admitted, Some(*request), "`Admitted` comes first");
                assert!(canceller.cancel(*request).expect("cancel answers"));
                cancelled = true;
            }
            _ => {}
        })
        .expect("a cancelled request still answers Done");
    assert!(cancelled, "the request streamed no progress");
    let outcome: CampaignOutcome = serde_json::from_str(&outcome_json).unwrap();
    let groups = &outcome.groups;
    let status = client.status().expect("status answers");
    let lifecycles = &status
        .iter()
        .find(|s| s.request == request)
        .expect("the request is tracked")
        .groups;
    assert_eq!(lifecycles.len(), groups.len());
    let retired = lifecycles
        .iter()
        .filter(|&&l| l == SessionLifecycle::Cancelled)
        .count();
    assert!(retired > 0, "no group was cancelled: {lifecycles:?}");
    for (lifecycle, group) in lifecycles.iter().zip(groups) {
        assert!(lifecycle.is_terminal(), "{lifecycle}");
        if *lifecycle == SessionLifecycle::Cancelled {
            assert_eq!(
                group.failure.as_deref(),
                Some("session was cancelled and retired at a stage boundary")
            );
        }
    }
    assert_eq!(
        bystander.join().unwrap(),
        one_shot_outcome_json(0.5, 7),
        "the other tenant's outcome must not feel the cancel"
    );
    let (_, next) = client
        .submit(spec(0.5, 5), |_| {})
        .expect("the daemon serves the next request");
    assert_eq!(next, one_shot_outcome_json(0.5, 5));
    // A cancel sent the moment `Admitted` is read finds the request: it
    // is registered before `Admitted` is answered.
    let mut on_admitted = None;
    let (request, _) = client
        .submit(spec(2.0, 2022), |resp| {
            if let Response::Admitted { request, .. } = resp {
                on_admitted = Some(canceller.cancel(*request).expect("cancel answers"));
            }
        })
        .expect("a cancelled request still answers Done");
    assert_eq!(on_admitted, Some(true), "a cancel on `Admitted` must land");
    assert!(client
        .status()
        .expect("status answers")
        .iter()
        .any(|s| s.request == request));
    client.shutdown().expect("daemon drains");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Request/response round trips must not stall on delayed ACKs: with a
/// line split across two writes on a Nagle socket, each exchange waits
/// ~40 ms for the peer's ACK, so 20 of them took 800 ms or more.
#[test]
fn status_round_trips_do_not_wait_on_delayed_acks() {
    let dir = tmp_dir("latency");
    let (addr, handle) = start_daemon(&dir);
    let mut client = Client::connect(&addr).expect("connects");
    client.status().expect("warm-up status answers");
    let t0 = Instant::now();
    for _ in 0..20 {
        assert!(client.status().expect("status answers").is_empty());
    }
    let elapsed = t0.elapsed();
    client.shutdown().expect("daemon drains");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        elapsed < Duration::from_millis(400),
        "20 status round trips took {elapsed:?}"
    );
}
