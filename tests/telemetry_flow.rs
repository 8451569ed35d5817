//! Telemetry is purely observational: the flow outcome must be
//! byte-identical with telemetry on and off at every worker count, and
//! the exported spans, metrics and run manifest must account every
//! simulation exactly — flow span == Σ stage spans == the session's
//! `stage_sims` ledger == phase timings == the coverage repository —
//! also with two campaign groups in flight on one tracer. Damaged
//! manifests and traces must fail typed or be judged, never panic.
//! Run under `ASCDG_TEST_THREADS={1,8}` in CI to pin the identity
//! across worker counts.

use ascdg::core::{
    pool_scope_with, CdgFlow, FlowConfig, FlowEngine, FlowOutcome, RunManifest, SessionState,
    TargetSpec, Telemetry, STAGE_REGRESSION,
};
use ascdg::duv::io_unit::IoEnv;
use ascdg::duv::VerifEnv;
use ascdg::telemetry::{
    check_span_accounting, parse_jsonl, render_trace, write_jsonl, SpanRecord, TraceRecord,
};

fn test_threads() -> usize {
    std::env::var("ASCDG_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// A budget that exercises every stage, refinement included.
fn config(threads: usize) -> FlowConfig {
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
        refine_iterations: 4,
        best_sims: 600,
        subranges: 4,
        include_zero_weights: false,
        neighbor_decay: 0.5,
        threads,
        ..FlowConfig::quick()
    }
}

fn run(threads: usize, telemetry: &Telemetry) -> (FlowOutcome, SessionState) {
    let env = IoEnv::new();
    let cfg = config(threads);
    pool_scope_with(threads, telemetry, |pool| {
        let engine = FlowEngine::new(&env, cfg.clone(), pool).with_telemetry(telemetry.clone());
        let mut cx = engine.session(TargetSpec::Family("crc_".to_owned()), 11);
        let outcome = engine.run(&mut cx).expect("flow runs");
        (outcome, cx.state().clone())
    })
}

fn spans_of(trace: &[TraceRecord]) -> Vec<&SpanRecord> {
    trace
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Span(s) => Some(s),
            _ => None,
        })
        .collect()
}

/// Every simulating stage span holds exactly the sims of its own chunk
/// children.
fn assert_stage_spans_hold_their_chunks(spans: &[&SpanRecord]) {
    for stage in spans.iter().filter(|s| s.kind == "stage" && s.sims > 0) {
        let chunks: u64 = spans
            .iter()
            .filter(|s| s.kind == "chunk" && s.parent == Some(stage.id))
            .map(|s| s.sims)
            .sum();
        assert_eq!(
            chunks, stage.sims,
            "stage span {} (`{}`) and its chunks",
            stage.id, stage.name
        );
    }
}

/// Timings are wall-clock, so they are excluded from identity checks.
fn outcome_json(mut outcome: FlowOutcome) -> String {
    outcome.timings.clear();
    serde_json::to_string(&outcome).expect("outcome serializes")
}

#[test]
fn outcome_is_byte_identical_with_telemetry_on_and_off() {
    for threads in [1, 2, test_threads()] {
        let (off, _) = run(threads, &Telemetry::disabled());
        let (on, _) = run(threads, &Telemetry::enabled());
        assert_eq!(
            outcome_json(off),
            outcome_json(on),
            "telemetry changed the outcome at {threads} threads"
        );
    }
}

#[test]
fn spans_manifest_and_ledger_agree_on_every_simulation() {
    let telemetry = Telemetry::enabled();
    let (_outcome, state) = run(test_threads(), &telemetry);

    // The manifest's own invariants: stage_sims ⊆ completed, phase
    // timings match the ledger, coverage matches the regression stage.
    let manifest = RunManifest::from_state(&state, &telemetry);
    manifest.validate().expect("manifest accounting");
    assert!(!manifest.metrics.is_empty(), "metrics were recorded");
    let reg = state
        .stage_sims
        .iter()
        .find(|s| s.stage == STAGE_REGRESSION)
        .expect("regression ledger entry");
    let coverage = manifest.coverage.as_ref().expect("coverage summary");
    assert_eq!(coverage.total_sims, reg.sims);
    // The regression's merges are counted where they happen: one per
    // stock template, folding in every regression simulation.
    let m = telemetry.metrics().expect("recording");
    let templates = IoEnv::new().stock_library().len() as u64;
    assert_eq!(m.counter("batch.repo_merges").value(), templates);
    assert_eq!(m.counter("batch.sims_recorded").value(), reg.sims);

    // Span tree vs the ledger: every stage span carries exactly its
    // stage's simulations, parented to the flow span which carries the
    // total; every simulation went through an instrumented chunk.
    let trace = telemetry.export_trace(&state.unit, state.seed);
    let spans = spans_of(&trace);
    let total: u64 = state.stage_sims.iter().map(|s| s.sims).sum();
    let flow = spans.iter().find(|s| s.kind == "flow").expect("flow span");
    assert_eq!(flow.sims, total);
    assert_eq!(flow.parent, None);
    for entry in &state.stage_sims {
        let span = spans
            .iter()
            .find(|s| s.kind == "stage" && s.name == entry.stage)
            .unwrap_or_else(|| panic!("no span for stage `{}`", entry.stage));
        assert_eq!(span.sims, entry.sims, "stage `{}` span", entry.stage);
        assert_eq!(span.parent, Some(flow.id), "stage `{}` parent", entry.stage);
    }
    let chunk_total: u64 = spans
        .iter()
        .filter(|s| s.kind == "chunk")
        .map(|s| s.sims)
        .sum();
    assert_eq!(chunk_total, total, "chunk spans must cover every sim");
    assert_stage_spans_hold_their_chunks(&spans);
    check_span_accounting(&trace).expect("span accounting");

    // Both export formats round-trip losslessly.
    let text = write_jsonl(&trace).expect("trace serializes");
    assert_eq!(parse_jsonl(&text).expect("trace parses"), trace);
    let json = manifest.to_json().expect("manifest serializes");
    assert_eq!(
        RunManifest::from_json(&json).expect("manifest parses"),
        manifest
    );
}

/// Two groups of an io campaign run their stages at once over one
/// tracer. Each group's span tree must stay its own, and the per-stage
/// series must count every chunk of every group.
#[test]
fn concurrent_campaign_groups_keep_their_own_spans_and_series() {
    let telemetry = Telemetry::enabled();
    let mut cfg = FlowConfig::paper_io().scaled(0.2);
    cfg.threads = 2;
    cfg.campaign_jobs = 2;
    let report = CdgFlow::new(IoEnv::new(), cfg)
        .run_campaign_with(3, &telemetry, None)
        .expect("campaign runs");
    let states: Vec<&SessionState> = report
        .sessions
        .iter()
        .map(|s| s.as_ref().expect("every group finishes"))
        .collect();
    assert!(states.len() >= 2, "the campaign has concurrent groups");

    let trace = telemetry.export_trace("io_unit", 3);
    let spans = spans_of(&trace);
    let kind_of = |id: Option<u64>| {
        id.and_then(|id| spans.iter().find(|s| s.id == id))
            .map(|s| s.kind.as_str())
    };
    for span in spans
        .iter()
        .filter(|s| s.kind == "chunk" || s.kind == "objective")
    {
        assert_eq!(
            kind_of(span.parent),
            Some("stage"),
            "{} span {} parent",
            span.kind,
            span.id
        );
    }
    for stage in spans.iter().filter(|s| s.kind == "stage") {
        assert_ne!(
            kind_of(stage.parent),
            Some("stage"),
            "stage span {} nests under another stage",
            stage.id
        );
    }
    assert_stage_spans_hold_their_chunks(&spans);
    check_span_accounting(&trace).expect("span accounting");

    // The campaign's shared regression runs once, traced under one
    // `regression` stage span; every group's ledger repeats its sims, so
    // its series counts the header snapshot's sims once.
    let regression = states[0]
        .repo
        .as_ref()
        .expect("a reported group carries the regression snapshot")
        .global_sims;
    let regression_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == "stage" && s.name == STAGE_REGRESSION)
        .collect();
    assert_eq!(regression_spans.len(), 1, "one regression stage span");
    assert_eq!(regression_spans[0].sims, regression);
    let metrics = telemetry.metrics().expect("telemetry is on");
    for stage in &states[0].completed {
        let ledger: u64 = if stage == STAGE_REGRESSION {
            regression
        } else {
            states
                .iter()
                .flat_map(|s| &s.stage_sims)
                .filter(|e| e.stage == *stage)
                .map(|e| e.sims)
                .sum()
        };
        let series = metrics
            .histogram(&format!("stage.{stage}.chunk_sims"))
            .snapshot()
            .sum;
        assert_eq!(series, ledger, "stage.{stage}.chunk_sims");
    }
}

/// A real `--metrics-out` manifest and trace, cut and byte-flipped:
/// parsing returns an error or a value that `validate` or the span check
/// judges, and never panics; and the CLI reports a truncated manifest as
/// an error.
#[test]
fn damaged_manifests_and_traces_fail_typed_or_are_judged() {
    let dir = std::env::temp_dir().join(format!("ascdg-damaged-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("run").to_str().unwrap().to_owned();
    let ascdg = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_ascdg"))
            .args(args)
            .output()
            .expect("the CLI starts")
    };
    let out = ascdg(&[
        "run",
        "--unit",
        "io",
        "--scale",
        "0.02",
        "--seed",
        "7",
        "--threads",
        "2",
        "--metrics-out",
        &base,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = std::fs::read_to_string(format!("{base}.manifest.json")).unwrap();
    let trace = std::fs::read_to_string(format!("{base}.trace.jsonl")).unwrap();
    RunManifest::from_json(&manifest)
        .expect("manifest parses")
        .validate()
        .expect("manifest accounting");
    check_span_accounting(&parse_jsonl(&trace).expect("trace parses")).expect("span accounting");

    // A manifest cut anywhere short of its closing brace is no manifest.
    let whole = manifest.trim_end().len();
    for cut in (0..whole).filter(|&i| manifest.is_char_boundary(i)) {
        assert!(
            RunManifest::from_json(&manifest[..cut]).is_err(),
            "cut at byte {cut} parsed"
        );
    }
    // A flipped byte (every third one) is a parse error or a manifest
    // that `validate` judges.
    let mut judged = 0;
    for i in (0..manifest.len()).step_by(3) {
        let mut bytes = manifest.clone().into_bytes();
        bytes[i] ^= 0x01;
        let Ok(text) = String::from_utf8(bytes) else {
            continue;
        };
        if let Ok(damaged) = RunManifest::from_json(&text) {
            let _ = damaged.validate();
            judged += 1;
        }
    }
    assert!(judged > 0, "some flips must parse and reach `validate`");

    // A trace cut at a line boundary parses; the renderer and the span
    // check take whatever it holds.
    let lines: Vec<&str> = trace.lines().collect();
    for cut in 0..=lines.len() {
        let records = parse_jsonl(&lines[..cut].join("\n")).expect("whole lines parse");
        let _ = render_trace(&records);
        let _ = check_span_accounting(&records);
    }
    // Flipped bytes in one line of each record kind.
    let mut picked: Vec<usize> = Vec::new();
    for kind in [
        "Meta",
        "\"stage\"",
        "\"chunk\"",
        "Event",
        "OptIter",
        "Metric",
    ] {
        if let Some(i) = lines.iter().position(|l| l.contains(kind)) {
            picked.push(i);
        }
    }
    for line in picked {
        for i in 0..lines[line].len() {
            let mut bytes = lines[line].as_bytes().to_vec();
            bytes[i] ^= 0x01;
            let Ok(damaged) = String::from_utf8(bytes) else {
                continue;
            };
            let mut text = lines.clone();
            text[line] = &damaged;
            if let Ok(records) = parse_jsonl(&text.join("\n")) {
                let _ = render_trace(&records);
                let _ = check_span_accounting(&records);
            }
        }
    }

    // The CLI turns a truncated manifest into an error, not a panic.
    let cut = dir.join("cut.manifest.json");
    std::fs::write(&cut, &manifest[..manifest.len() / 2]).unwrap();
    let out = ascdg(&["trace", "--manifest", cut.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("error:"));
    let _ = std::fs::remove_dir_all(&dir);
}
