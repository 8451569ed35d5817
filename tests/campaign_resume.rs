//! Campaign resume identity: restarting a campaign from any streamed
//! checkpoint must reproduce the uninterrupted outcome byte-for-byte,
//! regardless of the worker or job counts used on either side of the
//! interruption.

use std::sync::mpsc;

use ascdg::core::{
    pool_scope, CampaignProgress, CdgFlow, FlowConfig, FlowEngine, FlowError, Telemetry,
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

/// Runs the reference campaign once, streaming every checkpoint.
fn reference_with_snapshots(seed: u64) -> (String, Vec<CampaignProgress>) {
    let (tx, rx) = mpsc::channel::<CampaignProgress>();
    let flow = CdgFlow::new(IoEnv::new(), quick_config());
    let report = flow
        .run_campaign_with(
            seed,
            &Telemetry::disabled(),
            Some(&move |progress: &CampaignProgress| {
                let _ = tx.send(progress.clone());
            }),
        )
        .expect("reference campaign runs");
    let reference = serde_json::to_string(&report.outcome).unwrap();
    (reference, rx.try_iter().collect())
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
