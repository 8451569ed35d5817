//! Concurrent-campaign determinism and evaluation coalescing, end to end.
//!
//! The campaign scheduler overlaps per-group flows on the shared worker
//! pool; its `CampaignOutcome` must be byte-identical at any
//! `campaign_jobs` value, with and without duplicate-evaluation
//! coalescing. Run under `ASCDG_TEST_THREADS={1,2,8}` in CI to pin the
//! identity across worker counts too.

use ascdg::core::{
    pool_scope, CdgFlow, EvalStrategy, FlowConfig, FlowEngine, FlowOutcome, TargetSpec, Telemetry,
};
use ascdg::duv::io_unit::IoEnv;

fn test_threads() -> usize {
    std::env::var("ASCDG_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// A campaign budget big enough to sweep several io_unit groups.
fn config() -> FlowConfig {
    let mut c = FlowConfig::quick().scaled(3.0);
    c.threads = test_threads();
    c
}

fn campaign_json(jobs: usize, strategy: EvalStrategy) -> String {
    let mut cfg = config();
    cfg.campaign_jobs = jobs;
    cfg.eval_strategy = strategy;
    let flow = CdgFlow::new(IoEnv::new(), cfg);
    let outcome = flow.run_campaign(7).expect("campaign runs");
    assert!(outcome.groups.len() > 1, "io_unit should sweep 2+ groups");
    serde_json::to_string(&outcome).expect("outcome serializes")
}

/// The tentpole identity: overlapping group flows must not change a single
/// byte of the campaign outcome, at any concurrency level.
#[test]
fn campaign_outcome_identical_across_jobs_counts() {
    let sequential = campaign_json(1, EvalStrategy::Indexed);
    assert_eq!(campaign_json(2, EvalStrategy::Indexed), sequential);
    assert_eq!(campaign_json(8, EvalStrategy::Indexed), sequential);
}

/// The same identity holds when evaluation coalescing is on: the cache
/// only replays bitwise-identical evaluations, so the jobs count still
/// cannot leak into the outcome.
#[test]
fn coalesced_campaign_identical_across_jobs_counts() {
    let sequential = campaign_json(1, EvalStrategy::Coalesced);
    assert_eq!(campaign_json(2, EvalStrategy::Coalesced), sequential);
    assert_eq!(campaign_json(8, EvalStrategy::Coalesced), sequential);
}

/// The identity across worker counts as well: threads × jobs at 1/1, 2/2
/// and N/8 must all fold to the same campaign outcome.
#[test]
fn campaign_outcome_identical_across_thread_counts() {
    let run_at = |threads: usize, jobs: usize| {
        let mut cfg = FlowConfig::quick();
        cfg.threads = threads;
        cfg.campaign_jobs = jobs;
        let outcome = CdgFlow::new(IoEnv::new(), cfg)
            .run_campaign(2021)
            .expect("campaign runs");
        serde_json::to_string(&outcome).unwrap()
    };
    let reference = run_at(1, 1);
    assert_eq!(run_at(2, 2), reference);
    assert_eq!(run_at(test_threads().max(2), 8), reference);
}

fn family_flow(strategy: EvalStrategy) -> (FlowOutcome, u64, u64) {
    let mut cfg = config();
    cfg.eval_strategy = strategy;
    let telemetry = Telemetry::enabled();
    let env = IoEnv::new();
    let mut outcome = pool_scope(cfg.threads, |pool| {
        let engine = FlowEngine::new(&env, cfg.clone(), pool).with_telemetry(telemetry.clone());
        let mut cx = engine.session(TargetSpec::Family("crc_".to_owned()), 11);
        engine.run(&mut cx).expect("flow runs")
    });
    outcome.timings.clear();
    let m = telemetry.metrics().expect("enabled telemetry has metrics");
    (
        outcome,
        m.counter("objective.sims_executed").value(),
        m.counter("objective.coalesced").value(),
    )
}

/// Coalescing duplicates must not change the flow outcome: the cached
/// replay is bitwise-identical to what re-simulating the point-seeded
/// evaluation would produce — while executing measurably fewer sims.
#[test]
fn coalescing_preserves_the_point_seeded_outcome() {
    let (reference, sims_logical, no_coalesced) = family_flow(EvalStrategy::PointSeeded);
    let (coalesced, sims_executed, coalesced_evals) = family_flow(EvalStrategy::Coalesced);
    assert_eq!(no_coalesced, 0, "uncoalesced run must simulate every eval");
    assert_eq!(
        serde_json::to_string(&coalesced).unwrap(),
        serde_json::to_string(&reference).unwrap(),
        "coalesced flow diverged from its uncoalesced reference"
    );
    assert!(
        coalesced_evals > 0,
        "implicit filtering revisits its center"
    );
    assert!(
        sims_executed < sims_logical,
        "coalescing executed {sims_executed} sims, expected fewer than {sims_logical}"
    );
}
