//! Checkpoint/resume determinism of the stage engine, end to end.
//!
//! The engine snapshots the serializable [`SessionState`] after every
//! stage; resuming from any snapshot — including one that went through a
//! JSON round trip, as a checkpoint file on disk would — must reproduce
//! the byte-identical [`FlowOutcome`] (timings aside, which are
//! wall-clock). Run under `ASCDG_TEST_THREADS={1,2,8}` in CI to pin the
//! identity across worker counts.

use ascdg::core::{
    pool_scope, ApproxTarget, CdgFlow, FlowConfig, FlowEngine, FlowError, FlowEvent, FlowOutcome,
    SessionState, TargetSpec,
};
use ascdg::coverage::EventId;
use ascdg::duv::io_unit::IoEnv;

fn test_threads() -> usize {
    std::env::var("ASCDG_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// A budget that exercises every stage, refinement included.
fn config() -> FlowConfig {
    let mut c = FlowConfig {
        regression_sims_per_template: 400,
        tac_top_n: 3,
        sample_templates: 40,
        sample_sims: 25,
        opt_iterations: 8,
        opt_directions: 10,
        opt_sims: 30,
        opt_initial_step: 0.25,
        opt_target_value: None,
        refine_iterations: 4,
        best_sims: 600,
        subranges: 4,
        include_zero_weights: false,
        neighbor_decay: 0.5,
        threads: 2,
        ..FlowConfig::quick()
    };
    c.threads = test_threads();
    c
}

/// Timings are wall-clock, so they are excluded from identity checks.
fn outcome_json(mut outcome: FlowOutcome) -> String {
    outcome.timings.clear();
    serde_json::to_string(&outcome).expect("outcome serializes")
}

#[test]
fn resume_from_disk_format_checkpoints_reproduces_the_outcome() {
    let env = IoEnv::new();
    let cfg = config();

    // Baseline run, streaming every post-stage checkpoint through the
    // JSON disk format — exactly what `ascdg run --checkpoint` persists.
    let mut checkpoint_files: Vec<String> = Vec::new();
    let baseline = pool_scope(cfg.threads, |pool| {
        let engine = FlowEngine::new(&env, cfg.clone(), pool);
        let mut cx = engine.session(TargetSpec::Family("crc_".to_owned()), 11);
        cx.subscribe(|event, snap| {
            if matches!(event, FlowEvent::StageCompleted { .. }) {
                checkpoint_files.push(serde_json::to_string(snap).expect("snapshot serializes"));
            }
        });
        engine.run(&mut cx).expect("baseline flow runs")
    });
    let golden = outcome_json(baseline);
    assert_eq!(checkpoint_files.len(), 7, "one checkpoint per stage");

    // Every checkpoint — parsed back from its JSON — must resume into the
    // identical outcome, whatever the worker count.
    for (i, json) in checkpoint_files.iter().enumerate() {
        let snap: SessionState = serde_json::from_str(json).expect("snapshot parses");
        assert_eq!(snap.completed.len(), i + 1);
        let resumed = pool_scope(cfg.threads, |pool| {
            let engine = FlowEngine::new(&env, cfg.clone(), pool);
            let mut cx = engine.resume(snap).expect("snapshot resumes");
            engine.run(&mut cx).expect("resumed flow runs")
        });
        assert_eq!(
            outcome_json(resumed),
            golden,
            "resume after checkpoint {i} diverged"
        );
    }
}

#[test]
fn engine_matches_the_legacy_front_door() {
    // `CdgFlow::run_for_family` is now a thin composition over the same
    // stage list — the two entry points must agree byte for byte.
    let cfg = config();
    let legacy = CdgFlow::new(IoEnv::new(), cfg.clone())
        .run_for_family("crc_", 11)
        .expect("legacy flow runs");
    let env = IoEnv::new();
    let engine_outcome = pool_scope(cfg.threads, |pool| {
        let engine = FlowEngine::new(&env, cfg.clone(), pool);
        let mut cx = engine.session(TargetSpec::Family("crc_".to_owned()), 11);
        engine.run(&mut cx).expect("engine flow runs")
    });
    assert_eq!(outcome_json(legacy), outcome_json(engine_outcome));
}

#[test]
fn resumed_outcome_is_identical_across_thread_counts() {
    // Snapshot after the optimize stage on one pool, resume on pools of
    // different sizes: identical outcome regardless of the worker count.
    let env = IoEnv::new();
    let mut cfg = config();
    cfg.threads = 1;
    let mut snaps = Vec::new();
    pool_scope(cfg.threads, |pool| {
        let engine = FlowEngine::new(&env, cfg.clone(), pool);
        let mut cx = engine.session(TargetSpec::Family("crc_".to_owned()), 33);
        cx.subscribe(|event, snap| {
            if matches!(event, FlowEvent::StageCompleted { .. }) {
                snaps.push(snap.clone());
            }
        });
        engine.run(&mut cx).expect("flow runs");
    });
    let snap = snaps.swap_remove(4); // after "optimize"

    assert!(snap.is_completed("optimize"));
    let run_with = |threads: usize| {
        let mut c = cfg.clone();
        c.threads = threads;
        pool_scope(threads, |pool| {
            let engine = FlowEngine::new(&env, c, pool);
            let mut cx = engine.resume(snap.clone()).expect("snapshot resumes");
            engine.run(&mut cx).expect("resumed flow runs")
        })
    };
    let a = outcome_json(run_with(1));
    let b = outcome_json(run_with(test_threads().max(2)));
    assert_eq!(a, b);
}

#[test]
fn resume_rejects_misfit_session_vectors() {
    // A checkpoint whose vectors do not fit its skeleton or the unit's
    // model must end in a typed error, not a panic in a later stage.
    let env = IoEnv::new();
    let mut cfg = FlowConfig::quick();
    cfg.threads = test_threads();
    pool_scope(cfg.threads, |pool| {
        let engine = FlowEngine::new(&env, cfg.clone(), pool);
        let mut cx = engine.session(TargetSpec::Family("crc_".to_owned()), 11);
        for _ in 0..4 {
            engine.step(&mut cx).expect("stage runs");
        }
        let sampled = cx.state().clone();
        assert!(sampled.is_completed("random-sample"));
        type Corruption = (&'static str, fn(&mut SessionState));
        let misfits: [Corruption; 3] = [
            ("short start_settings", |s| {
                s.start_settings.as_mut().expect("sampled").pop();
            }),
            ("narrow phase row", |s| {
                s.phases[0].hits.pop();
            }),
            ("target outside the model", |s| {
                s.approx = Some(ApproxTarget::from_weights(
                    vec![EventId(99_999)],
                    [(EventId(99_999), 1.0)],
                ));
            }),
        ];
        for (what, corrupt) in misfits {
            let mut state = sampled.clone();
            corrupt(&mut state);
            let err = engine.resume(state).expect_err(what);
            assert!(matches!(err, FlowError::Checkpoint(_)), "{what}: {err:?}");
        }
        engine.resume(sampled).expect("the intact snapshot resumes");
    });
}
