//! Campaign resume identity: restarting a campaign from its checkpoint
//! log, read back after any group stage, must reproduce the uninterrupted
//! outcome byte-for-byte, regardless of the worker or job counts used on
//! either side of the interruption.

use std::sync::Mutex;

use ascdg::core::{
    pool_scope, read_campaign_checkpoint, CampaignEntry, CampaignOutcome, CampaignProgress,
    CdgFlow, CheckpointWriter, FlowConfig, FlowEngine, FlowError, GroupProgress, SessionState,
    TargetSpec, Telemetry,
};
use ascdg::coverage::EventId;
use ascdg::duv::io_unit::IoEnv;

fn test_threads() -> usize {
    std::env::var("ASCDG_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

fn quick_config() -> FlowConfig {
    let mut config = FlowConfig::quick();
    config.threads = test_threads();
    config
}

/// A fresh io_unit campaign's regression-only checkpoint.
fn regression_checkpoint(seed: u64) -> CampaignProgress {
    let env = IoEnv::new();
    let config = quick_config();
    pool_scope(config.threads, |pool| {
        FlowEngine::new(&env, config.clone(), pool).regression_checkpoint(seed)
    })
    .expect("regression runs")
}

/// Runs the reference campaign once, logging it through a
/// `CheckpointWriter` and reading the log back after every group stage.
fn reference_with_snapshots(seed: u64) -> (String, Vec<CampaignProgress>) {
    let path = std::env::temp_dir().join(format!(
        "ascdg-campaign-resume-{seed}-{}.log",
        std::process::id()
    ));
    let writer = CheckpointWriter::new(&path, Telemetry::disabled());
    let snapshots = Mutex::new(Vec::new());
    let flow = CdgFlow::new(IoEnv::new(), quick_config());
    let report = flow
        .run_campaign_with(
            seed,
            &Telemetry::disabled(),
            Some(&|entry: CampaignEntry<'_>| {
                writer.record(entry).expect("log writes");
                if let CampaignEntry::Step { .. } = entry {
                    let progress = read_campaign_checkpoint(&path).expect("log reads");
                    snapshots.lock().unwrap().push(progress);
                }
            }),
        )
        .expect("reference campaign runs");
    let _ = std::fs::remove_file(&path);
    let reference = serde_json::to_string(&report.outcome).unwrap();
    (reference, snapshots.into_inner().unwrap())
}

#[test]
fn resume_from_any_checkpoint_reproduces_the_uninterrupted_outcome() {
    let (reference, snapshots) = reference_with_snapshots(2021);
    assert!(
        snapshots.len() > 2,
        "campaign must checkpoint after every group stage"
    );
    // The regression-only checkpoint (the planner's fresh start), then
    // the first (one stage done), midway (partial groups), and last
    // (everything done) interruption points.
    let fresh = regression_checkpoint(2021);
    let picks = [0, snapshots.len() / 2, snapshots.len() - 1];
    let checkpoints = std::iter::once(("regression-only".to_owned(), &fresh))
        .chain(picks.iter().map(|&at| (at.to_string(), &snapshots[at])));
    for (at, checkpoint) in checkpoints {
        let flow = CdgFlow::new(IoEnv::new(), quick_config());
        let report = flow
            .resume_campaign(checkpoint, &Telemetry::disabled(), None)
            .expect("resume runs");
        assert_eq!(
            serde_json::to_string(&report.outcome).unwrap(),
            reference,
            "resume from checkpoint {at}/{} must match the uninterrupted run",
            snapshots.len()
        );
    }
}

/// Group step lines carry their group's targets once, as an `Explicit`
/// spec beside the resolved `approx`. A log written in the earlier format,
/// whose step lines carry the target twice as `Weighted(approx)` beside
/// `approx`, still resumes to the uninterrupted outcome bytes: the coarse
/// search keeps a resolved `approx`.
#[test]
fn weighted_step_logs_still_resume_to_the_same_outcome() {
    let seed = 13;
    let path = std::env::temp_dir().join(format!(
        "ascdg-campaign-weighted-{seed}-{}.log",
        std::process::id()
    ));
    let writer = CheckpointWriter::new(&path, Telemetry::disabled());
    let snapshots = Mutex::new(Vec::new());
    let flow = CdgFlow::new(IoEnv::new(), quick_config());
    let report = flow
        .run_campaign_with(
            seed,
            &Telemetry::disabled(),
            Some(&|entry: CampaignEntry<'_>| {
                let CampaignEntry::Step { group, state } = entry else {
                    writer.record(entry).expect("log writes");
                    return;
                };
                let line = serde_json::to_string(state).unwrap();
                assert!(line.contains(r#""target_spec":{"Explicit":["#), "{line}");
                let approx = state
                    .approx
                    .clone()
                    .expect("steps follow the coarse search");
                let earlier = SessionState {
                    target_spec: TargetSpec::Weighted(approx),
                    ..state.clone()
                };
                writer
                    .record(CampaignEntry::Step {
                        group,
                        state: &earlier,
                    })
                    .expect("log writes");
                let progress = read_campaign_checkpoint(&path).expect("log reads");
                snapshots.lock().unwrap().push(progress);
            }),
        )
        .expect("reference campaign runs");
    let _ = std::fs::remove_file(&path);
    let reference = serde_json::to_string(&report.outcome).unwrap();
    let snapshots = snapshots.into_inner().unwrap();
    for at in [snapshots.len() / 2, snapshots.len() - 1] {
        let resumed = CdgFlow::new(IoEnv::new(), quick_config())
            .resume_campaign(&snapshots[at], &Telemetry::disabled(), None)
            .expect("resume runs");
        assert_eq!(
            serde_json::to_string(&resumed.outcome).unwrap(),
            reference,
            "resume from step {at}/{}",
            snapshots.len()
        );
    }
}

#[test]
fn resume_is_identical_across_job_and_thread_counts() {
    let (reference, snapshots) = reference_with_snapshots(7);
    let midway = &snapshots[snapshots.len() / 2];
    for jobs in [1, 3] {
        // The checkpoint is self-contained: the resuming flow's own
        // config is what runs, so override its parallelism freely.
        let mut config = midway.config.clone().expect("checkpoint embeds config");
        config.campaign_jobs = jobs;
        config.threads = jobs.max(2);
        let flow = CdgFlow::new(IoEnv::new(), config);
        let report = flow
            .resume_campaign(midway, &Telemetry::disabled(), None)
            .expect("resume runs");
        assert_eq!(
            serde_json::to_string(&report.outcome).unwrap(),
            reference,
            "resume with campaign_jobs={jobs} must match the uninterrupted run"
        );
    }
}

#[test]
fn resume_rejects_checkpoints_from_other_units() {
    let (_, snapshots) = reference_with_snapshots(3);
    let mut progress = snapshots[snapshots.len() / 2].clone();
    progress.unit = "l3cache".to_owned();
    let flow = CdgFlow::new(IoEnv::new(), quick_config());
    let err = flow
        .resume_campaign(&progress, &Telemetry::disabled(), None)
        .expect_err("unit mismatch must be rejected");
    assert!(
        err.to_string().contains("l3cache"),
        "error should name the mismatched unit: {err}"
    );
}

#[test]
fn resume_rejects_group_targets_outside_the_unit_model() {
    // A corrupted checkpoint naming an event the unit does not have must
    // end in a typed error that names the group, not an index panic.
    let flow = CdgFlow::new(IoEnv::new(), quick_config());
    let mut progress = regression_checkpoint(3);
    assert!(
        !progress.groups.is_empty(),
        "io_unit leaves groups uncovered"
    );
    progress.groups[0].targets.push(EventId(99_999));
    let err = flow
        .resume_campaign(&progress, &Telemetry::disabled(), None)
        .expect_err("out-of-range target must be rejected");
    assert!(matches!(err, FlowError::Checkpoint(_)), "{err:?}");
    assert!(
        err.to_string().contains(&progress.groups[0].name),
        "error should name the group: {err}"
    );
}

/// A complete, checksummed step line whose `best_settings` does not fit
/// its skeleton fails its own group with the text `FlowEngine::resume`
/// gives such a session, without a panic; every other group finishes as
/// in the uninterrupted run.
#[test]
fn misfit_step_fails_only_its_own_group() {
    let (reference, snapshots) = reference_with_snapshots(13);
    let reference: CampaignOutcome = serde_json::from_str(&reference).unwrap();
    let done = snapshots.last().expect("the campaign checkpointed");
    let (bad, mut state) = done
        .groups
        .iter()
        .enumerate()
        .find_map(|(i, g)| {
            g.session
                .clone()
                .filter(|s| s.best_settings.is_some())
                .map(|s| (i, s))
        })
        .expect("a group optimized");
    state.best_settings.as_mut().unwrap().push(0.5);
    let header = CampaignProgress {
        groups: done
            .groups
            .iter()
            .map(|g| GroupProgress {
                session: None,
                ..g.clone()
            })
            .collect(),
        ..done.clone()
    };
    let path = std::env::temp_dir().join(format!("ascdg-misfit-step-{}.log", std::process::id()));
    let writer = CheckpointWriter::new(&path, Telemetry::disabled());
    writer
        .record(CampaignEntry::Plan(&header))
        .expect("the header writes");
    writer
        .record(CampaignEntry::Step {
            group: bad,
            state: &state,
        })
        .expect("the step appends");
    let progress = read_campaign_checkpoint(&path).expect("the log reads");
    let _ = std::fs::remove_file(&path);
    let report = CdgFlow::new(IoEnv::new(), quick_config())
        .resume_campaign(&progress, &Telemetry::disabled(), None)
        .expect("resume runs");
    let groups = &report.outcome.groups;
    assert_eq!(groups.len(), reference.groups.len());
    for (i, (group, want)) in groups.iter().zip(&reference.groups).enumerate() {
        if i == bad {
            let failure = group.failure.as_deref().expect("the misfit group fails");
            assert!(failure.contains("session checkpoint"), "{failure}");
            assert!(failure.contains("best_settings"), "{failure}");
            assert!(report.sessions[i].is_none());
        } else {
            assert_eq!(
                serde_json::to_string(group).unwrap(),
                serde_json::to_string(want).unwrap(),
                "group {i}"
            );
        }
    }
}

/// `ascdg campaign --resume` gives the uninterrupted `--json` bytes from
/// a log with its last append torn, and from the single-object
/// checkpoint format that predates the log.
#[test]
fn cli_resumes_torn_logs_and_single_object_checkpoints() {
    let dir = std::env::temp_dir().join(format!("ascdg-cli-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let campaign = |args: &[&str], json: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ascdg"))
            .arg("campaign")
            .args(args)
            .args(["--threads", "2", "--json", &path(json)])
            .output()
            .expect("the CLI starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        std::fs::read(dir.join(json)).unwrap()
    };
    let reference = campaign(
        &["--unit", "io", "--scale", "0.02", "--seed", "11"],
        "ref.json",
    );
    let log = path("log.json");
    campaign(
        &[
            "--unit",
            "io",
            "--scale",
            "0.02",
            "--seed",
            "11",
            "--checkpoint",
            &log,
        ],
        "logged.json",
    );
    let bytes = std::fs::read(&log).unwrap();
    assert!(
        bytes.iter().filter(|&&b| b == b'\n').count() > 2,
        "one line per group stage"
    );

    // Torn inside the last line: that stage runs again.
    std::fs::write(dir.join("torn.json"), &bytes[..bytes.len() - 64]).unwrap();
    assert_eq!(
        campaign(&["--resume", &path("torn.json")], "torn-out.json"),
        reference
    );

    // The progress after half the stages as one object, every session
    // with its own copy of the regression snapshot.
    let newlines: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
    let half = &bytes[..=newlines[newlines.len() / 2]];
    std::fs::write(dir.join("half.json"), half).unwrap();
    let mut legacy = read_campaign_checkpoint(dir.join("half.json")).expect("the log reads");
    for group in &mut legacy.groups {
        if let Some(session) = &mut group.session {
            session.repo = legacy.repo.clone();
        }
    }
    let legacy_json = serde_json::to_string(&legacy).unwrap();
    assert!(legacy_json.matches("\"repo\":{").count() > 2);
    std::fs::write(dir.join("legacy.json"), legacy_json).unwrap();
    assert_eq!(
        campaign(&["--resume", &path("legacy.json")], "legacy-out.json"),
        reference
    );
    let _ = std::fs::remove_dir_all(&dir);
}
