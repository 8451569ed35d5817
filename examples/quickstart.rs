//! Quickstart: run the whole AS-CDG flow against the simulated L3 cache.
//!
//! ```sh
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- --metrics-out target/quickstart
//! ```
//!
//! With `--metrics-out <base>`, telemetry is enabled and the run writes
//! `<base>.manifest.json` and `<base>.trace.jsonl` (render the latter
//! with `ascdg trace`).
//!
//! The flow is fully automatic: give it an environment and a family stem,
//! and it (1) runs the stock regression, (2) finds the uncovered family
//! members, (3) mines the template library for relevant parameters,
//! (4) skeletonizes the best template, (5) random-samples the settings
//! space, (6) optimizes with implicit filtering and (7) harvests the best
//! template. Each step is a named stage on the `FlowEngine`, which emits
//! structured events as it goes.

use ascdg::core::{
    pool_scope_with, FlowConfig, FlowEngine, FlowEvent, RunManifest, TargetSpec, Telemetry,
};
use ascdg::duv::l3cache::L3Env;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_out = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let telemetry = if metrics_out.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    // `quick()` uses a tiny budget (seconds); see `FlowConfig::paper_l3()`
    // for the budgets of the paper's Fig. 4.
    let env = L3Env::new();
    let config = FlowConfig::quick().scaled(4.0);

    let (outcome, state) = pool_scope_with(config.threads, &telemetry, |pool| {
        let engine = FlowEngine::new(&env, config.clone(), pool).with_telemetry(telemetry.clone());
        let mut cx = engine.session(TargetSpec::Family("byp_reqs".to_owned()), 42);
        // Structured events replace ad-hoc print statements: subscribe to
        // whatever granularity you want.
        cx.subscribe(|event, _| {
            if let FlowEvent::StageCompleted { stage, sims } = event {
                eprintln!("stage `{stage}` done ({sims} simulations)");
            }
        });
        let result = engine.run(&mut cx);
        let state = cx.state().clone();
        result.map(|outcome| (outcome, state))
    })?;

    println!("{}", outcome.report());
    println!(
        "targets ({}): {:?}",
        outcome.targets.len(),
        outcome
            .targets
            .iter()
            .map(|&e| outcome.model.name(e).to_owned())
            .collect::<Vec<_>>()
    );
    println!("relevant parameters: {:?}", outcome.relevant_params);
    println!("harvested template:\n{}", outcome.best_template);

    if let Some(base) = metrics_out {
        let manifest = RunManifest::from_state(&state, &telemetry);
        manifest.validate().map_err(|e| format!("manifest: {e}"))?;
        std::fs::write(format!("{base}.manifest.json"), manifest.to_json()?)?;
        let trace = telemetry.export_trace(&state.unit, state.seed);
        std::fs::write(
            format!("{base}.trace.jsonl"),
            ascdg::telemetry::write_jsonl(&trace)?,
        )?;
        eprintln!("wrote {base}.manifest.json and {base}.trace.jsonl");
    }
    Ok(())
}
