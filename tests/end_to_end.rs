//! End-to-end integration tests: the full AS-CDG flow against each
//! simulated unit, asserting the paper's qualitative claims.

use ascdg::core::{
    CdgFlow, FlowConfig, PHASE_BEFORE, PHASE_BEST, PHASE_OPTIMIZATION, PHASE_SAMPLING,
};
use ascdg::coverage::StatusPolicy;
use ascdg::duv::{ifu::IfuEnv, io_unit::IoEnv, l3cache::L3Env, VerifEnv};

/// A budget big enough to show the phase-over-phase improvements without
/// taking minutes.
fn test_config() -> FlowConfig {
    FlowConfig {
        regression_sims_per_template: 400,
        tac_top_n: 3,
        sample_templates: 40,
        sample_sims: 25,
        opt_iterations: 8,
        opt_directions: 10,
        opt_sims: 30,
        opt_initial_step: 0.25,
        opt_target_value: None,
        refine_iterations: 0,
        best_sims: 600,
        subranges: 4,
        include_zero_weights: false,
        neighbor_decay: 0.5,
        threads: 2,
        ..FlowConfig::quick()
    }
}

#[test]
fn io_unit_flow_uncovers_deep_crc_events() {
    let flow = CdgFlow::new(IoEnv::new(), test_config());
    let out = flow.run_for_family("crc_", 11).expect("flow runs");

    // The coarse search must pick a burst-oriented template: its override
    // set has to include the packet-length weights.
    assert!(out.relevant_params.iter().any(|p| p == "PktLen"));

    let before = out.phase(PHASE_BEFORE).unwrap();
    let best = out.phase(PHASE_BEST).unwrap();
    let model = &out.model;

    // Deep family members start uncovered...
    let deep = model.id("crc_064").unwrap();
    assert_eq!(before.hits[deep.index()], 0, "crc_064 covered before CDG");
    // ...and the harvested template hits them.
    assert!(
        best.rate(deep) > 0.01,
        "best template never reaches crc_064 (rate {})",
        best.rate(deep)
    );

    // Monotone family gradient in the final phase.
    let rates: Vec<f64> = [
        "crc_004", "crc_008", "crc_016", "crc_032", "crc_064", "crc_096",
    ]
    .iter()
    .map(|n| best.rate(model.id(n).unwrap()))
    .collect();
    for w in rates.windows(2) {
        assert!(
            w[1] <= w[0] + 1e-9,
            "family gradient not monotone: {rates:?}"
        );
    }
}

#[test]
fn l3_flow_phases_each_improve() {
    let flow = CdgFlow::new(L3Env::new(), test_config());
    let out = flow.run_for_family("byp_reqs", 5).expect("flow runs");
    let model = &out.model;

    // The shallowest target should improve phase over phase (the paper:
    // "each phase improves upon its predecessor").
    let target = out.targets[0];
    let rates: Vec<f64> = [PHASE_BEFORE, PHASE_SAMPLING, PHASE_OPTIMIZATION, PHASE_BEST]
        .iter()
        .map(|p| out.phase(p).unwrap().rate(target))
        .collect();
    assert!(
        rates[1] >= rates[0] && rates[3] >= rates[1] * 0.5,
        "phases did not improve on {}: {rates:?}",
        model.name(target)
    );
    // The optimizer's trace exists for Fig. 6.
    assert_eq!(out.trace.len(), flow.config().opt_iterations);
}

#[test]
fn ifu_flow_covers_everything_but_entry7() {
    // A modest regression budget leaves plenty of the cross product
    // uncovered (beyond the 32 unhittable entry7 events).
    let mut config = test_config();
    config.regression_sims_per_template = 150;
    let flow = CdgFlow::new(IfuEnv::new(), config);
    let out = flow.run_for_uncovered(9).expect("flow runs");

    let cp = out.model.cross_product().expect("cross-product model");
    let before = out.phase(PHASE_BEFORE).unwrap();
    let best = out.phase(PHASE_BEST).unwrap();

    // entry7 is architecturally unhittable in every phase.
    for phase in &out.phases {
        for e in cp.slice(0, 7) {
            assert_eq!(phase.hits[e.index()], 0, "entry7 hit in {}", phase.name);
        }
    }

    // The flow strictly reduces the uncovered count (union across phases).
    let uncovered_before = before.status_counts(StatusPolicy::default()).never_hit;
    let covered_by_best = out
        .model
        .event_ids()
        .filter(|e| before.hits[e.index()] == 0 && best.hits[e.index()] > 0)
        .count();
    assert!(uncovered_before > 32, "nothing to do before CDG");
    assert!(
        covered_by_best > 0,
        "best template covered no previously-uncovered event"
    );

    // The per-feature breakdown must identify entry7 as the (only)
    // fully-uncovered slice.
    let breakdown = ascdg::core::render_cross_breakdown(&out, StatusPolicy::default());
    assert_eq!(
        breakdown.matches("fully uncovered").count(),
        1,
        "{breakdown}"
    );
    assert!(breakdown.contains("7      never=32"), "{breakdown}");
    // `ascdg run --unit ifu` prints it as part of the report.
    assert!(out.report().contains(&breakdown), "{}", out.report());
}

#[test]
fn flow_is_deterministic_per_seed() {
    let mut config = FlowConfig::quick();
    config.threads = 4; // determinism must hold across worker counts
    let run = |threads| {
        let mut c = config.clone();
        c.threads = threads;
        CdgFlow::new(IoEnv::new(), c)
            .run_for_family("crc_", 33)
            .expect("flow runs")
    };
    let a = run(4);
    let b = run(1);
    assert_eq!(a.best_template, b.best_template);
    assert_eq!(a.phases, b.phases);
    assert_eq!(a.chosen_template, b.chosen_template);
}

#[test]
fn outcome_report_contains_all_phases() {
    let flow = CdgFlow::new(L3Env::new(), FlowConfig::quick());
    let out = flow.run_for_family("byp_reqs", 3).expect("flow runs");
    let report = out.report();
    for phase in [PHASE_BEFORE, PHASE_SAMPLING, PHASE_OPTIMIZATION, PHASE_BEST] {
        assert!(report.contains(phase), "report missing `{phase}`");
    }
    assert!(report.contains("byp_reqs16"));
    assert!(report.contains("Optimization progress"));
}

#[test]
fn refinement_stage_runs_when_enabled_and_evidence_exists() {
    let mut config = test_config();
    config.refine_iterations = 4;
    let flow = CdgFlow::new(IoEnv::new(), config);
    let out = flow.run_for_family("crc_", 11).expect("flow runs");
    // The optimization phase produces crc_064 evidence at this budget, so
    // the refinement phase must appear between optimization and best-test.
    let names: Vec<&str> = out.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        names,
        vec![
            PHASE_BEFORE,
            PHASE_SAMPLING,
            PHASE_OPTIMIZATION,
            ascdg::core::PHASE_REFINEMENT,
            PHASE_BEST
        ]
    );
    let refine = out.phase(ascdg::core::PHASE_REFINEMENT).unwrap();
    assert!(refine.sims > 0);
    // The final template must still be competitive on the real target.
    let best = out.phase(PHASE_BEST).unwrap();
    let deep = out.model.id("crc_064").unwrap();
    assert!(best.rate(deep) > 0.005, "refined rate {}", best.rate(deep));
}

#[test]
fn refinement_stage_skipped_without_evidence_or_config() {
    // Disabled by config: exactly four phases.
    let flow = CdgFlow::new(IoEnv::new(), FlowConfig::quick());
    let out = flow.run_for_family("crc_", 3).expect("flow runs");
    assert_eq!(out.phases.len(), 4);
}

#[test]
fn harvested_template_validates_against_its_environment() {
    let flow = CdgFlow::new(L3Env::new(), FlowConfig::quick());
    let out = flow.run_for_family("byp_reqs", 17).expect("flow runs");
    flow.env()
        .registry()
        .validate(&out.best_template)
        .expect("harvested template must stay within the environment domain");
    // And it round-trips through the text format.
    let text = out.best_template.to_string();
    let parsed = ascdg::template::TestTemplate::parse(&text).expect("parses");
    assert_eq!(parsed, out.best_template);
}

#[test]
fn io_unit_second_family_uses_different_relevant_params() {
    // The response-queue family needs a different template and parameter
    // set than the CRC family — the coarse-grained search must adapt to
    // the target, which is the heart of the paper's automation claim.
    let mut config = test_config();
    config.regression_sims_per_template = 1000;
    let flow = CdgFlow::new(IoEnv::new(), config);
    let out = flow.run_for_family("qdepth_", 5).expect("flow runs");
    assert_eq!(out.chosen_template, "io_resp_stress");
    assert!(
        out.relevant_params.iter().any(|p| p == "RespDelay"),
        "relevant params {:?}",
        out.relevant_params
    );
    // The deep queue goes from uncovered to hit.
    let before = out.phase(PHASE_BEFORE).unwrap();
    let best = out.phase(PHASE_BEST).unwrap();
    let deep = out.model.id("qdepth_8").unwrap();
    assert_eq!(before.hits[deep.index()], 0);
    assert!(
        best.rate(deep) > 0.001,
        "qdepth_8 not unlocked: {}",
        best.rate(deep)
    );
}

/// `ascdg regress --save` then `ascdg run --snapshot` gives the outcome
/// of a library session started on the same repository with
/// `FlowEngine::session_with_repo`, timings aside: for a family target
/// (io's default `crc_`) and for every uncovered event (ifu).
#[test]
fn cli_run_from_a_saved_regression_matches_session_with_repo() {
    use ascdg::core::{pool_scope, ApproxTarget, FlowEngine, FlowOutcome};
    use ascdg::coverage::{CoverageRepository, EventFamily, RepoSnapshot};

    let dir = std::env::temp_dir().join(format!("ascdg-cli-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cli = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ascdg"))
            .args(args)
            .output()
            .expect("the CLI starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
    };
    let strip = |mut outcome: FlowOutcome| {
        outcome.timings.clear();
        serde_json::to_string(&outcome).unwrap()
    };
    let (scale, seed) = (0.01, 5);
    for (unit, family) in [("io", Some("crc_")), ("ifu", None)] {
        let env = ascdg::serve::resolve_unit(unit).unwrap();
        let snap_path = dir.join(format!("{unit}.snapshot.json"));
        let json_path = dir.join(format!("{unit}.outcome.json"));
        let snap = snap_path.to_str().unwrap();
        cli(&["regress", "--unit", unit, "--sims", "300", "--save", snap]);
        cli(&[
            "run",
            "--unit",
            unit,
            "--snapshot",
            snap,
            "--scale",
            &scale.to_string(),
            "--seed",
            &seed.to_string(),
            "--threads",
            "2",
            "--json",
            json_path.to_str().unwrap(),
        ]);
        let cli_outcome: FlowOutcome =
            serde_json::from_str(&std::fs::read_to_string(&json_path).unwrap()).unwrap();

        let model = env.coverage_model();
        let snapshot: RepoSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&snap_path).unwrap()).unwrap();
        let repo = CoverageRepository::from_snapshot(model.clone(), &snapshot).unwrap();
        let targets = match family {
            Some(stem) => EventFamily::discover(model)
                .into_iter()
                .find(|f| f.stem() == stem)
                .unwrap()
                .events()
                .into_iter()
                .filter(|&e| repo.global_stats(e).hits == 0)
                .collect(),
            None => repo.uncovered_events(),
        };
        let mut config = ascdg::serve::request_config(&*env, "paper", scale).unwrap();
        config.threads = 2;
        let approx = ApproxTarget::auto(model, &targets, config.neighbor_decay).unwrap();
        let library = pool_scope(config.threads, |pool| {
            let engine = FlowEngine::new(&env, config.clone(), pool);
            let mut cx = engine.session_with_repo(&repo, approx, seed)?;
            engine.run(&mut cx)
        })
        .expect("library session runs");
        assert_eq!(strip(cli_outcome), strip(library), "{unit}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `run`, `campaign` and `submit` check `--json`'s directory before any
/// simulation (or daemon lookup), as `run`/`campaign` do `--metrics-out`'s
/// and `regress` does `--save`'s: a missing one fails at once with an
/// error naming the path, and no progress line precedes it.
#[test]
fn cli_output_into_a_missing_directory_fails_up_front() {
    let missing = std::env::temp_dir().join(format!("ascdg-cli-no-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&missing);
    let out_path = missing.join("out.json");
    let out_path = out_path.to_str().unwrap();
    let state_dir = missing.to_str().unwrap();
    for args in [
        ["run", "--unit", "io", "--scale", "0.02", "--json"].as_slice(),
        &["campaign", "--unit", "io", "--scale", "0.02", "--json"],
        &["submit", "--unit", "io", "--state-dir", state_dir, "--json"],
        &["run", "--unit", "io", "--scale", "0.02", "--metrics-out"],
        &[
            "campaign",
            "--unit",
            "io",
            "--scale",
            "0.02",
            "--metrics-out",
        ],
        &["regress", "--unit", "io", "--sims", "10", "--save"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ascdg"))
            .args(args)
            .arg(out_path)
            .output()
            .expect("the CLI starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?}: {stderr}");
        assert!(stderr.contains(out_path), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    assert!(!missing.exists());
}
