//! `ascdg` — command-line front end for the AS-CDG flow.
//!
//! ```text
//! ascdg units
//! ascdg run --unit l3 [--family byp_reqs] [--scale 0.1] [--seed 2021] [--json out.json]
//! ascdg skeletonize path/to/template.tpl [--subranges 4] [--include-zero-weights]
//! ascdg regress --unit io [--sims 1000]
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use ascdg::core::{
    pool_scope_with, read_campaign_checkpoint, read_session_checkpoint, CampaignEntry,
    CampaignOutcome, CampaignProgress, CdgFlow, CheckpointWriter, FlowConfig, FlowEngine,
    FlowEvent, RunManifest, SessionLifecycle, SessionState, TargetSpec, Telemetry,
};
use ascdg::coverage::{CoverageRepository, RepoSnapshot, StatusPolicy};
use ascdg::duv::VerifEnv;
use ascdg::serve::{
    http_get, request_config, resolve_unit, Client, DaemonStatus, RatesReport, Response,
    ServeOptions, SubmitSpec,
};
use ascdg::template::TestTemplate;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> CliResult {
    let Some((cmd, rest)) = args.split_first() else {
        print!("{USAGE}");
        return Ok(());
    };
    check_flags(cmd, rest)?;
    match cmd.as_str() {
        "units" => cmd_units(),
        "run" => cmd_run(rest),
        "skeletonize" => cmd_skeletonize(rest),
        "regress" => cmd_regress(rest),
        "campaign" => cmd_campaign(rest),
        "trace" => cmd_trace(rest),
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "status" => cmd_status(rest),
        "top" => cmd_top(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}").into()),
    }
}

const USAGE: &str = "\
ascdg — automatic scalable coverage-directed generation

USAGE:
  ascdg units
      List the built-in simulated units and their environments.
  ascdg run --unit <io|l3|ifu|synthetic> [--family <stem>] [--scale <f>] [--seed <n>]
            [--snapshot <path>] [--checkpoint <path>] [--resume <path>] [--json <path>]
            [--metrics-out <base>] [--threads <n>]
      Run the full AS-CDG flow. Without --family, targets every event
      still uncovered after regression (the IFU cross-product usage).
      --scale multiplies the paper's simulation budgets (default 0.1);
      --snapshot reuses a saved regression instead of re-running it.
      --checkpoint writes the session snapshot to <path> after every
      stage; --resume restarts from such a snapshot, skipping the
      completed stages and reproducing the identical outcome.
      --metrics-out enables telemetry and writes <base>.manifest.json
      (run manifest) plus <base>.trace.jsonl (span/metric trace);
      --threads overrides the configured worker-pool size.
  ascdg skeletonize <file> [--subranges <n>] [--include-zero-weights]
      Parse a test-template file and print its skeleton.
  ascdg regress --unit <io|l3|ifu|synthetic> [--sims <n>] [--save <path>]
      Run the stock regression only and print the coverage status;
      --save writes the repository snapshot for later `run --snapshot`.
  ascdg campaign --unit <io|l3|ifu|synthetic> [--scale <f>] [--seed <n>] [--json <path>]
            [--campaign-jobs <n>] [--threads <n>]
            [--metrics-out <base>] [--checkpoint <path>] [--resume <path>]
      Sweep every uncovered family of the unit with one flow run each
      (the paper's per-unit deployment) and print the closure summary.
      --campaign-jobs keeps up to <n> group flows in flight at once over
      the shared worker pool; the outcome is byte-identical at any value.
      --metrics-out writes one <base>.group<i>.manifest.json per finished
      group plus the shared <base>.trace.jsonl; --checkpoint logs the
      campaign to <path>: its plan, then one appended line per group
      stage. --resume restarts from such a log (a torn last line is
      skipped): the regression is restored, checkpointed groups continue
      mid-flight, completed groups replay for free, and the outcome is
      byte-identical to the uninterrupted campaign.
  ascdg serve [--addr <host:port>] [--state-dir <dir>] [--threads <n>]
            [--http <host:port|off>] [--sample-ms <n>]
      Run the long-lived closure daemon: accepts Submit/Status/Cancel/
      Shutdown lines (JSON, one per line) over TCP, interleaves every
      admitted request's group sessions over one shared worker pool with
      weighted fair scheduling, streams progress back, and checkpoints
      each request under --state-dir. On restart, requests that never
      produced an outcome are re-admitted from their checkpoints and
      finish with the identical bytes. Port 0 picks a free port; the
      bound address lands in <state-dir>/serve.addr. --http binds the
      read-only introspection plane (GET /metrics, /status, /rates,
      /healthz, /ring; default 127.0.0.1:0, address in
      <state-dir>/serve.http.addr; `off` disables it); --sample-ms sets
      the background snapshot sampler's tick (default 500).
  ascdg submit --unit <name> [--addr <host:port> | --state-dir <dir>]
            [--scale <f>] [--seed <n>] [--profile <paper|quick>]
            [--weight <n>] [--class <label>] [--json <path>]
      Submit one closure request to a running daemon, stream its progress
      to stderr and print the campaign summary when it retires. --weight
      grants the request that many consecutive stage quanta per scheduler
      rotation (it can never starve other tenants); --json writes the
      outcome exactly as the daemon serialized it.
  ascdg status [--addr <host:port> | --state-dir <dir>] [--cancel <id>]
            [--shutdown]
      Show every request a daemon tracks (or cancel one / stop the
      daemon). Cancelled sessions retire at their next stage boundary.
  ascdg top [--addr <host:port> | --state-dir <dir>] [--interval-ms <n>]
            [--iterations <n>] [--once]
      Live view of a daemon's introspection plane: polls GET /status and
      GET /rates and redraws a terminal table of per-series rates
      (per-tenant sims/s, evaluations/s), per-unit queue depths
      by priority class, and every tracked request. --addr is the HTTP
      address (serve.http.addr, not serve.addr); --once prints a single
      frame without clearing the screen (what scripts and CI use);
      --iterations stops after <n> frames.
  ascdg trace <file.trace.jsonl>
      Render a `--metrics-out` trace: span tree with wall-clock and
      simulation attribution, event counts and the metric table; then
      check its span accounting (parents present, chunk and objective
      spans under a stage, each stage's sims in its chunks).
  ascdg trace --manifest <file.manifest.json>
      Print a run-manifest summary and check its internal accounting.
";

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Streams flow events to stderr so long runs are not silent.
fn progress_events() -> impl FnMut(&FlowEvent, &SessionState) {
    |event, _| match event {
        FlowEvent::StageSkipped { stage } => eprintln!("stage `{stage}`: done, skipped"),
        FlowEvent::CoarseChoice {
            template,
            relevant_params,
        } => eprintln!("coarse search chose `{template}`; relevant: {relevant_params:?}"),
        FlowEvent::PhaseStarted {
            phase,
            planned_sims,
        } => eprintln!("{phase}: ~{planned_sims} simulations ..."),
        FlowEvent::PhaseFinished { stats } => {
            eprintln!("{}: done ({} simulations)", stats.name, stats.sims);
        }
        _ => {}
    }
}

/// The flags `USAGE` documents for subcommand `cmd`: every `--flag` on
/// its synopsis lines (each `ascdg <cmd>` line and the `[...]` lines
/// under it), or `None` when `USAGE` has no such subcommand.
fn documented_flags(cmd: &str) -> Option<Vec<&'static str>> {
    let mut flags = None;
    let mut in_cmd = false;
    for line in USAGE.lines().map(str::trim_start) {
        if let Some(rest) = line.strip_prefix("ascdg ") {
            in_cmd = rest.split_whitespace().next() == Some(cmd);
        } else if !line.starts_with('[') {
            in_cmd = false;
        }
        if in_cmd {
            flags.get_or_insert_with(Vec::new).extend(
                line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .filter(|word| word.starts_with("--")),
            );
        }
    }
    flags
}

/// Rejects any `--flag` in `args` that `USAGE` does not document for
/// subcommand `cmd`, so a typo or a retired flag is a usage error naming
/// it instead of a silently different run. Unknown subcommands pass
/// through to the dispatcher's own error.
fn check_flags(cmd: &str, args: &[String]) -> Result<(), String> {
    let Some(known) = documented_flags(cmd) else {
        return Ok(());
    };
    match args
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        Some(bad) => Err(format!(
            "unknown flag `{bad}` for `ascdg {cmd}` (see `ascdg help`)"
        )),
        None => Ok(()),
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The output path given with `flag` (`--json`, `--metrics-out`,
/// `--save`), checked before any simulation: a path whose parent
/// directory is missing would otherwise fail only after the whole run,
/// losing it.
fn output_flag<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let Some(path) = flag_value(args, flag) else {
        return Ok(None);
    };
    match std::path::Path::new(path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() && !dir.is_dir() => Err(format!(
            "{flag} {path}: directory `{}` does not exist",
            dir.display()
        )),
        _ => Ok(Some(path)),
    }
}

/// Resolves a unit name through the serve crate's unit table, the one
/// the daemon uses too.
fn unit_env(name: &str) -> Result<Arc<dyn VerifEnv>, String> {
    resolve_unit(name)
        .ok_or_else(|| format!("unknown unit `{name}` (expected io, l3, ifu or synthetic)"))
}

/// The family `ascdg run` targets when `--family` is absent (`None`
/// targets every uncovered event: the IFU cross-product usage).
fn default_family(env: &dyn VerifEnv) -> Option<&'static str> {
    match env.unit_name() {
        "io_unit" => Some("crc_"),
        "l3cache" => Some("byp_reqs"),
        "synthetic" => Some("fam_"),
        _ => None,
    }
}

/// `--scale` (default 0.1), rejected unless positive and finite: the
/// daemon reads a non-positive scale as 1.0, so the CLI refuses one
/// rather than give it a second meaning.
fn scale_flag(args: &[String]) -> Result<f64, Box<dyn std::error::Error>> {
    let scale: f64 = flag_value(args, "--scale").map_or(Ok(0.1), str::parse)?;
    if scale > 0.0 && scale.is_finite() {
        Ok(scale)
    } else {
        Err(format!("--scale must be a positive finite number, got {scale}").into())
    }
}

/// The paper profile's budgets for `env`, scaled.
fn paper_config(env: &dyn VerifEnv, scale: f64) -> FlowConfig {
    request_config(env, "paper", scale).expect("the paper profile exists")
}

fn cmd_units() -> CliResult {
    for name in ["io", "l3", "ifu", "synthetic"] {
        let env = unit_env(name)?;
        println!(
            "{:<4} {:<8} {:>4} events  {:>3} parameters  {:>3} stock templates{}",
            name,
            env.unit_name(),
            env.coverage_model().len(),
            env.registry().len(),
            env.stock_library().len(),
            if env.coverage_model().cross_product().is_some() {
                "  (cross-product model)"
            } else {
                ""
            }
        );
    }
    Ok(())
}

/// How `ascdg run` enters the stage engine.
enum Start {
    /// Restart from a `--checkpoint` file: skip the completed stages.
    Resume(Box<SessionState>),
    /// Reuse a saved regression repository (`--snapshot`).
    WithRepo(Box<CoverageRepository>, TargetSpec),
    /// Fresh session: every stage runs.
    Fresh(TargetSpec),
}

fn cmd_run(args: &[String]) -> CliResult {
    let json = output_flag(args, "--json")?;
    let env = unit_env(flag_value(args, "--unit").ok_or("missing --unit")?)?;
    let scale = scale_flag(args)?;
    let seed: u64 = flag_value(args, "--seed").map_or(Ok(2021), str::parse)?;
    let family = flag_value(args, "--family").or_else(|| default_family(&*env));
    let checkpoint_path = flag_value(args, "--checkpoint").map(str::to_owned);
    let metrics_out = output_flag(args, "--metrics-out")?.map(str::to_owned);
    let telemetry = if metrics_out.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    let (mut config, start) = if let Some(resume_path) = flag_value(args, "--resume") {
        let state = read_session_checkpoint(resume_path)?;
        eprintln!(
            "resuming `{}` after {:?} (seed {})",
            state.unit, state.completed, state.seed
        );
        (state.config.clone(), Start::Resume(Box::new(state)))
    } else {
        let spec = match family {
            Some(stem) => TargetSpec::Family(stem.to_owned()),
            None => TargetSpec::Uncovered,
        };
        let start = match flag_value(args, "--snapshot") {
            // Reuse a saved regression, skipping the (expensive)
            // regression stage; the coarse search resolves the spec.
            Some(snap_path) => {
                let snap: RepoSnapshot =
                    serde_json::from_str(&std::fs::read_to_string(snap_path)?)?;
                let repo = CoverageRepository::from_snapshot(env.coverage_model().clone(), &snap)?;
                Start::WithRepo(Box::new(repo), spec)
            }
            None => Start::Fresh(spec),
        };
        (paper_config(&*env, scale), start)
    };
    if let Some(n) = flag_value(args, "--threads") {
        config.threads = n.parse()?;
    }

    let (outcome, final_state) = pool_scope_with(config.threads, &telemetry, |pool| {
        let engine = FlowEngine::new(&env, config.clone(), pool).with_telemetry(telemetry.clone());
        let mut cx = match &start {
            Start::Resume(state) => engine.resume((**state).clone())?,
            Start::WithRepo(repo, spec) => engine.session_with_repo(repo, spec.clone(), seed)?,
            Start::Fresh(spec) => engine.session(spec.clone(), seed),
        };
        cx.subscribe(progress_events());
        if let Some(path) = checkpoint_path.clone() {
            let checkpoint_telemetry = telemetry.clone();
            let writer = CheckpointWriter::new(&path, telemetry.clone());
            let manifest_writer =
                CheckpointWriter::new(format!("{path}.manifest.json"), telemetry.clone());
            // Subscribed last: each completed stage's state is checkpointed
            // after every other subscriber has seen the event.
            cx.subscribe(move |event, snap| {
                if !matches!(event, FlowEvent::StageCompleted { .. }) {
                    return;
                }
                // The CLI keeps warn-and-continue semantics; the typed
                // error still bumps `checkpoint.write_failures` so a
                // silent checkpoint loss shows in the metrics.
                match writer.write_session(snap) {
                    Ok(()) => eprintln!("checkpoint -> {path}"),
                    Err(e) => eprintln!("warning: {e}"),
                }
                // With telemetry on, each checkpoint also gets a manifest
                // so interrupted runs leave a comparable artifact behind.
                if checkpoint_telemetry.is_enabled() {
                    let manifest = RunManifest::from_state(snap, &checkpoint_telemetry);
                    if let Err(e) = manifest_writer.write_json(&manifest, true) {
                        eprintln!("warning: {e}");
                    }
                }
            });
        }
        let result = engine.run(&mut cx);
        let state = cx.state().clone();
        result.map(|outcome| (outcome, state))
    })?;
    println!("{}", outcome.report());
    println!("harvested template:\n{}", outcome.best_template);

    if let Some(path) = json {
        std::fs::write(path, serde_json::to_string_pretty(&outcome)?)?;
        eprintln!("wrote {path}");
    }
    if let Some(base) = &metrics_out {
        let manifest = RunManifest::from_state(&final_state, &telemetry);
        manifest
            .validate()
            .map_err(|e| format!("run manifest failed validation: {e}"))?;
        let mpath = format!("{base}.manifest.json");
        CheckpointWriter::new(&mpath, telemetry.clone()).write_json(&manifest, true)?;
        eprintln!("wrote {mpath}");
        let trace = telemetry.export_trace(&final_state.unit, final_state.seed);
        let tpath = format!("{base}.trace.jsonl");
        std::fs::write(&tpath, ascdg::telemetry::write_jsonl(&trace)?)?;
        eprintln!("wrote {tpath}");
    }
    Ok(())
}

/// `ascdg trace`: render a JSONL trace, or summarize + validate a
/// run manifest with `--manifest`.
fn cmd_trace(args: &[String]) -> CliResult {
    if let Some(path) = flag_value(args, "--manifest") {
        let manifest = RunManifest::from_json(&std::fs::read_to_string(path)?)?;
        let commit = manifest
            .provenance
            .git_commit
            .as_deref()
            .map(|c| format!(" @ {c}"))
            .unwrap_or_default();
        println!(
            "manifest schema v{} — unit {}, seed {}, ascdg {}{}",
            manifest.schema_version,
            manifest.unit,
            manifest.seed,
            manifest.provenance.package_version,
            commit
        );
        for entry in &manifest.stage_sims {
            // Pair each ledger row with its stage's sim-latency histogram
            // (recorded under `stage.<stage>.sim_latency_ns`) when the
            // manifest carries one.
            let latency = manifest
                .metrics
                .iter()
                .find(|m| m.name == format!("stage.{}.sim_latency_ns", entry.stage))
                .and_then(|m| m.histogram);
            match latency {
                Some(h) => println!(
                    "  {:<16} {:>10} sims   p50 {} ns  p99 {} ns",
                    entry.stage, entry.sims, h.p50, h.p99
                ),
                None => println!("  {:<16} {:>10} sims", entry.stage, entry.sims),
            }
        }
        if let Some(cov) = &manifest.coverage {
            println!(
                "coverage: {}/{} events covered over {} recorded sims",
                cov.covered, cov.events, cov.total_sims
            );
        }
        println!("{} metrics recorded", manifest.metrics.len());
        manifest
            .validate()
            .map_err(|e| format!("manifest invalid: {e}"))?;
        println!("accounting OK");
        return Ok(());
    }
    let path = args
        .iter()
        .find(|a| !a.starts_with("--") && flag_is_positional(args, a))
        .ok_or("missing trace file (or --manifest <file>)")?;
    let records = ascdg::telemetry::parse_jsonl(&std::fs::read_to_string(path)?)?;
    print!("{}", ascdg::telemetry::render_trace(&records));
    ascdg::telemetry::check_span_accounting(&records)
        .map_err(|e| format!("span accounting: {e}"))?;
    println!("span accounting OK");
    Ok(())
}

fn cmd_skeletonize(args: &[String]) -> CliResult {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--") && flag_is_positional(args, a))
        .ok_or("missing template file")?;
    let subranges: usize = flag_value(args, "--subranges").map_or(Ok(4), str::parse)?;
    let src = std::fs::read_to_string(path)?;
    let template = TestTemplate::parse(&src)?;
    let skeleton = ascdg::core::Skeletonizer::new()
        .with_subranges(subranges)
        .include_zero_weights(has_flag(args, "--include-zero-weights"))
        .skeletonize(&template)?;
    print!("{skeleton}");
    eprintln!(
        "{} free slots: {:?}",
        skeleton.num_slots(),
        skeleton.slot_labels()
    );
    Ok(())
}

/// Returns `true` when `arg` is not the value of a preceding `--flag`.
fn flag_is_positional(args: &[String], arg: &str) -> bool {
    match args.iter().position(|a| a == arg) {
        Some(0) => true,
        Some(i) => !args[i - 1].starts_with("--"),
        None => false,
    }
}

fn cmd_regress(args: &[String]) -> CliResult {
    let save = output_flag(args, "--save")?;
    let env = unit_env(flag_value(args, "--unit").ok_or("missing --unit")?)?;
    let sims: u64 = flag_value(args, "--sims").map_or(Ok(1000), str::parse)?;
    let mut config = FlowConfig::quick();
    config.regression_sims_per_template = sims;
    config.threads = ascdg::core::machine_threads();
    let flow = CdgFlow::new(&env, config);
    let repo = flow.run_regression(1)?;
    let counts = repo.status_counts(StatusPolicy::default());
    println!(
        "{}: {} sims over {} templates -> {}",
        env.unit_name(),
        repo.total_simulations(),
        env.stock_library().len(),
        counts
    );
    if let Some(path) = save {
        std::fs::write(path, serde_json::to_string(&repo.snapshot())?)?;
        eprintln!("wrote snapshot to {path}");
    }
    let uncovered = repo.uncovered_events();
    println!("uncovered events ({}):", uncovered.len());
    for e in uncovered.iter().take(40) {
        println!("  {}", env.coverage_model().name(*e));
    }
    if uncovered.len() > 40 {
        println!("  ... and {} more", uncovered.len() - 40);
    }
    Ok(())
}

fn cmd_campaign(args: &[String]) -> CliResult {
    let json = output_flag(args, "--json")?;
    // `--resume` restores unit, config and seed from the self-contained
    // checkpoint; a fresh run derives them from the flags.
    let resumed: Option<CampaignProgress> = match flag_value(args, "--resume") {
        Some(path) => Some(read_campaign_checkpoint(path)?),
        None => None,
    };
    let env = match (&resumed, flag_value(args, "--unit")) {
        (_, Some(name)) => unit_env(name)?,
        (Some(progress), None) => unit_env(&progress.unit)?,
        (None, None) => return Err("missing --unit".into()),
    };
    let seed: u64 = match &resumed {
        Some(progress) => progress.seed,
        None => flag_value(args, "--seed").map_or(Ok(2021), str::parse)?,
    };
    let mut config = match &resumed {
        Some(progress) => progress
            .config
            .clone()
            .ok_or("campaign checkpoint predates resumable checkpoints (no embedded config)")?,
        None => paper_config(&*env, scale_flag(args)?),
    };
    if let Some(n) = flag_value(args, "--threads") {
        config.threads = n.parse()?;
    }
    if let Some(n) = flag_value(args, "--campaign-jobs") {
        config.campaign_jobs = n.parse()?;
    }
    let metrics_out = output_flag(args, "--metrics-out")?.map(str::to_owned);
    let telemetry = if metrics_out.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let jobs = config.campaign_jobs;
    let flow = CdgFlow::new(env, config);
    match &resumed {
        Some(progress) => eprintln!(
            "resuming campaign on `{}` (seed {}, {} group(s), {jobs} in flight) ...",
            progress.unit,
            progress.seed,
            progress.groups.len()
        ),
        None => eprintln!(
            "running campaign (regression + one flow per uncovered family, {jobs} group(s) in flight) ..."
        ),
    }
    // Log the campaign: its plan once, then one appended line per
    // completed group stage. A resumed run rewrites its own log's header
    // (compacting it) unless `--checkpoint` redirects it; failures are
    // typed and counted (`checkpoint.write_failures`) but keep
    // warn-and-continue semantics.
    let checkpoint_path = flag_value(args, "--checkpoint").or_else(|| flag_value(args, "--resume"));
    let writer = checkpoint_path.map(|path| CheckpointWriter::new(path, telemetry.clone()));
    let sink = writer.map(|writer| {
        move |entry: CampaignEntry<'_>| {
            if let Err(e) = writer.record(entry) {
                eprintln!("warning: {e}");
            }
        }
    });
    let on_progress = sink.as_ref().map(|s| s as _);
    let report = match &resumed {
        Some(progress) => flow.resume_campaign(progress, &telemetry, on_progress)?,
        None => flow.run_campaign_with(seed, &telemetry, on_progress)?,
    };
    if let Some(base) = &metrics_out {
        // One manifest per finished group (the campaign has no single
        // session of its own), plus the shared trace.
        for (i, manifest) in report.manifests(&telemetry)? {
            let mpath = format!("{base}.group{i}.manifest.json");
            CheckpointWriter::new(&mpath, telemetry.clone()).write_json(&manifest, true)?;
            eprintln!("wrote {mpath}");
        }
        let trace = telemetry.export_trace(&report.outcome.unit, seed);
        let tpath = format!("{base}.trace.jsonl");
        std::fs::write(&tpath, ascdg::telemetry::write_jsonl(&trace)?)?;
        eprintln!("wrote {tpath}");
    }
    let outcome = report.outcome;
    print!("{}", outcome.summary());
    println!("harvested templates:");
    for (_, t) in outcome.harvested.iter() {
        println!("  {}", t.name());
    }
    if let Some(path) = json {
        std::fs::write(path, serde_json::to_string_pretty(&outcome)?)?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    let opts = ServeOptions {
        addr: flag_value(args, "--addr")
            .unwrap_or("127.0.0.1:0")
            .to_owned(),
        state_dir: flag_value(args, "--state-dir")
            .unwrap_or("ascdg-serve-state")
            .into(),
        threads: flag_value(args, "--threads").map_or(Ok(0), str::parse)?,
        telemetry: Telemetry::enabled(),
        http_addr: match flag_value(args, "--http").unwrap_or("127.0.0.1:0") {
            "off" => None,
            addr => Some(addr.to_owned()),
        },
        sample_interval_ms: flag_value(args, "--sample-ms").map_or(Ok(0), str::parse)?,
    };
    eprintln!(
        "ascdg serve: state dir {}, checkpointing every request after every group stage",
        opts.state_dir.display()
    );
    if opts.http_addr.is_none() {
        eprintln!("ascdg serve: http introspection plane disabled (--http off)");
    }
    ascdg::serve::serve(&opts)?;
    eprintln!("ascdg serve: drained and stopped");
    Ok(())
}

/// Finds a daemon: `--addr` wins, else `--state-dir`'s handshake file.
fn daemon_addr(args: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    if let Some(addr) = flag_value(args, "--addr") {
        return Ok(addr.to_owned());
    }
    let dir = flag_value(args, "--state-dir").unwrap_or("ascdg-serve-state");
    Ok(ascdg::serve::wait_for_addr(
        std::path::Path::new(dir),
        std::time::Duration::from_secs(5),
    )?)
}

fn cmd_submit(args: &[String]) -> CliResult {
    let json = output_flag(args, "--json")?;
    let spec = SubmitSpec {
        unit: flag_value(args, "--unit")
            .ok_or("missing --unit")?
            .to_owned(),
        scale: scale_flag(args)?,
        seed: flag_value(args, "--seed").map_or(Ok(2021), str::parse)?,
        profile: flag_value(args, "--profile").unwrap_or("paper").to_owned(),
        weight: flag_value(args, "--weight").map_or(Ok(1), str::parse)?,
        class: flag_value(args, "--class").unwrap_or("").to_owned(),
    };
    let addr = daemon_addr(args)?;
    let mut client = Client::connect(&addr)?;
    let (request, outcome_json) = client.submit(spec, |resp| match resp {
        Response::Admitted { request, groups } => {
            eprintln!("request {request}: {groups} group session(s) admitted");
        }
        Response::Progress {
            group,
            completed_stages,
            sims,
            ..
        } => eprintln!("  {group}: {completed_stages} stage(s) done, {sims} sims"),
        _ => {}
    })?;
    let outcome: CampaignOutcome = serde_json::from_str(&outcome_json)?;
    print!("{}", outcome.summary());
    if let Some(path) = json {
        // The daemon's bytes, verbatim: what the identity guarantee is
        // stated over.
        std::fs::write(path, &outcome_json)?;
        eprintln!("wrote {path}");
    }
    eprintln!("request {request} retired");
    Ok(())
}

fn cmd_status(args: &[String]) -> CliResult {
    let addr = daemon_addr(args)?;
    let mut client = Client::connect(&addr)?;
    if has_flag(args, "--shutdown") {
        client.shutdown()?;
        eprintln!("daemon at {addr} is shutting down");
        return Ok(());
    }
    if let Some(id) = flag_value(args, "--cancel") {
        let id: u64 = id.parse()?;
        let ok = client.cancel(id)?;
        println!(
            "request {id}: {}",
            if ok {
                "cancellation requested (sessions retire at their next stage boundary)"
            } else {
                "nothing to cancel (unknown or already retired)"
            }
        );
        return Ok(());
    }
    let requests = client.status()?;
    if requests.is_empty() {
        println!("no requests");
        return Ok(());
    }
    println!(
        "{:>4}  {:<10} {:<12} {:>6}  {:>6}  {:>10}  groups",
        "id", "unit", "class", "weight", "stages", "sims"
    );
    for r in requests {
        let groups: Vec<String> = r.groups.iter().map(ToString::to_string).collect();
        println!(
            "{:>4}  {:<10} {:<12} {:>6}  {:>6}  {:>10}  [{}]{}",
            r.request,
            r.unit,
            r.class,
            r.weight,
            r.completed_stages,
            r.sims,
            groups.join(", "),
            if r.done { "  done" } else { "" }
        );
    }
    Ok(())
}

/// Finds a daemon's HTTP introspection plane: `--addr` wins (it names the
/// HTTP listener, not the line-protocol one), else `--state-dir`'s
/// `serve.http.addr` handshake file.
fn daemon_http_addr(args: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    if let Some(addr) = flag_value(args, "--addr") {
        return Ok(addr.to_owned());
    }
    let dir = flag_value(args, "--state-dir").unwrap_or("ascdg-serve-state");
    Ok(ascdg::serve::wait_for_http_addr(
        std::path::Path::new(dir),
        std::time::Duration::from_secs(5),
    )?)
}

fn cmd_top(args: &[String]) -> CliResult {
    let addr = daemon_http_addr(args)?;
    let interval_ms: u64 = flag_value(args, "--interval-ms").map_or(Ok(1000), str::parse)?;
    let iterations: u64 = if has_flag(args, "--once") {
        1
    } else {
        flag_value(args, "--iterations").map_or(Ok(0), str::parse)?
    };
    let mut tick: u64 = 0;
    loop {
        let (status_code, status_body) = http_get(&addr, "/status")?;
        let (rates_code, rates_body) = http_get(&addr, "/rates")?;
        if status_code != 200 || rates_code != 200 {
            return Err(
                format!("daemon answered /status {status_code}, /rates {rates_code}").into(),
            );
        }
        let status: DaemonStatus = serde_json::from_str(&status_body)?;
        let rates: RatesReport = serde_json::from_str(&rates_body)?;
        tick += 1;
        if iterations != 1 {
            // Full-screen redraw between polls; --once appends plainly so
            // scripts can grep the frame.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_top(&addr, tick, &status, &rates));
        if iterations > 0 && tick >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// One `ascdg top` frame over the daemon's `/status` and `/rates`
/// answers.
fn render_top(addr: &str, tick: u64, status: &DaemonStatus, rates: &RatesReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ascdg top — {addr} — frame {tick} — sampler {:.1}s up, {} sample(s), ring {}/{}",
        rates.at_ms as f64 / 1000.0,
        rates.samples,
        rates.ring_len,
        rates.ring_capacity,
    );
    if rates.rates.is_empty() {
        out.push_str("rates: (waiting for the sampler's second tick)\n");
    } else {
        let _ = writeln!(out, "rates (over the last {} ms tick):", rates.interval_ms);
        let name_w = rates.rates.iter().map(|r| r.name.len()).max().unwrap_or(0);
        for r in &rates.rates {
            let _ = writeln!(
                out,
                "  {:name_w$}  {:>12.1}/s  (+{})",
                r.name, r.per_sec, r.delta
            );
        }
    }
    out.push_str("units:\n");
    for unit in &status.units {
        let classes: Vec<String> = unit
            .ready_by_class
            .iter()
            .map(|c| format!("{}={}", c.class, c.depth))
            .collect();
        let _ = writeln!(
            out,
            "  {:<12} active {:>3}  in-flight {:>3}  ready {:>3}  [{}]",
            unit.unit,
            unit.active_jobs,
            unit.in_flight,
            unit.ready_depth,
            classes.join(" ")
        );
    }
    if status.requests.is_empty() {
        out.push_str("requests: (none)\n");
    } else {
        out.push_str("requests:\n");
        for req in &status.requests {
            let running = req
                .groups
                .iter()
                .filter(|g| matches!(g, SessionLifecycle::Running))
                .count();
            let complete = req
                .groups
                .iter()
                .filter(|g| matches!(g, SessionLifecycle::Complete))
                .count();
            let state = if req.done {
                "done"
            } else if running > 0 {
                "running"
            } else {
                "queued"
            };
            let _ = writeln!(
                out,
                "  #{:<4} {:<10} {:<8} class {:<10} weight {:>2}  groups {}/{} ({} running)  stages {:>3}  sims {:>9}",
                req.request,
                req.unit,
                state,
                req.class,
                req.weight,
                complete,
                req.groups.len(),
                running,
                req.completed_stages,
                req.sims
            );
        }
    }
    if !status.gauges.is_empty() {
        out.push_str("gauges:\n");
        let name_w = status
            .gauges
            .iter()
            .map(|g| g.name.len())
            .max()
            .unwrap_or(0);
        for g in &status.gauges {
            let _ = writeln!(out, "  {:name_w$}  {}", g.name, g.value);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn unknown_flags_are_usage_errors_naming_the_flag() {
        // The flag retired with evaluation coalescing.
        let coalesce = concat!("--", "coalesce");
        let retired = check_flags("campaign", &args(&["--unit", "io", coalesce]));
        assert!(retired.unwrap_err().contains(&format!("`{coalesce}`")));
        let typo = check_flags("run", &args(&["--unit", "io", "--thread", "2"]));
        assert!(typo.unwrap_err().contains("`--thread`"));
        // A single flow has no groups to keep in flight.
        let jobs = check_flags("run", &args(&["--unit", "io", "--campaign-jobs", "2"]));
        assert!(jobs.unwrap_err().contains("`--campaign-jobs`"));
        assert!(check_flags("run", &args(&["--unit", "io", "--threads", "2"])).is_ok());
        // Both `trace` synopsis lines count, and flag values pass.
        assert!(check_flags("trace", &args(&["--manifest", "m.json"])).is_ok());
        assert!(check_flags("units", &args(&["--unit"])).is_err());
        assert!(check_flags("no-such-command", &args(&["--x"])).is_ok());
    }
}
