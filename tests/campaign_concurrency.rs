//! Concurrent-campaign determinism, end to end.
//!
//! The campaign scheduler overlaps per-group flows on the shared worker
//! pool; its `CampaignOutcome` must be byte-identical at any
//! `campaign_jobs` value. Run under `ASCDG_TEST_THREADS={1,2,8}` in CI to
//! pin the identity across worker counts too.

use ascdg::core::{CdgFlow, FlowConfig};
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

fn campaign_json(jobs: usize) -> String {
    let mut cfg = config();
    cfg.campaign_jobs = jobs;
    let flow = CdgFlow::new(IoEnv::new(), cfg);
    let outcome = flow.run_campaign(7).expect("campaign runs");
    assert!(outcome.groups.len() > 1, "io_unit should sweep 2+ groups");
    serde_json::to_string(&outcome).expect("outcome serializes")
}

/// The tentpole identity: overlapping group flows must not change a single
/// byte of the campaign outcome, at any concurrency level.
#[test]
fn campaign_outcome_identical_across_jobs_counts() {
    let sequential = campaign_json(1);
    assert_eq!(campaign_json(2), sequential);
    assert_eq!(campaign_json(8), sequential);
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
