//! `ascdg-benchmark`: runs the benchmark's workloads, prints every metric
//! with its unit, and compares two builds pair by pair.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use ascdg_benchmark::layers::{layer_line, trace_path};
use ascdg_benchmark::report::{lookup, result_line, Fingerprint, Measured, Record, WorkerReport};
use ascdg_benchmark::spec::{Spec, LAYER_LINKS};
use ascdg_benchmark::stats::{median, quartiles};
use ascdg_benchmark::verdict::{verdict, wins};
use ascdg_benchmark::workloads::{self, Params, Workload};

const USAGE: &str = "\
usage:
  ascdg-benchmark run [--workload W] [--seed S] [--seconds N] [--scale X] [--trace [0|1]]
      Runs each workload (all four without --workload) in its own worker
      process and prints every end-to-end metric with its unit. --trace
      adds a second, traced run per workload that replays the same inputs
      and reports the per-layer metrics (written with the program's spans
      to target/benchmark/trace-<workload>.jsonl). The last line is the
      JSON result.
  ascdg-benchmark compare <binA> <binB> [--pairs N] [--workload W] [--seed S]
                          [--seconds N] [--scale X]
      Runs N alternating pairs of two benchmark builds (A = parent, B =
      change) and prints, per metric and workload, whether B improved,
      left unchanged, regressed or left unresolved each end-to-end metric.";

/// Where results, traces and the serve state directory go.
const OUT_DIR: &str = "target/benchmark";

/// A whole `run` invocation must finish within this, worker waits
/// included.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(|f| cmd_run(&f)),
        Some("worker") => Flags::parse(&args[1..]).and_then(|f| cmd_worker(&f)),
        Some("compare") => Flags::parse(&args[1..]).and_then(|f| cmd_compare(&f)),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed command-line flags.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    scale: Option<f64>,
    trace: bool,
    traced: bool,
    rounds: Option<u64>,
    pairs: Option<usize>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
            let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("bad value `{v}` for {flag}"))
        }
        let mut f = Flags::default();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--workload" => f.workload = Some(value(arg, it.next())?),
                "--seed" => f.seed = Some(value(arg, it.next())?),
                "--seconds" => f.seconds = Some(value(arg, it.next())?),
                "--scale" => f.scale = Some(value(arg, it.next())?),
                "--rounds" => f.rounds = Some(value(arg, it.next())?),
                "--pairs" => f.pairs = Some(value(arg, it.next())?),
                "--traced" => f.traced = true,
                // `--trace` alone turns tracing on; `--trace 0|1` sets it.
                "--trace" => match it.peek().map(|s| s.as_str()) {
                    Some(v @ ("0" | "1")) => {
                        f.trace = v == "1";
                        it.next();
                    }
                    _ => f.trace = true,
                },
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag {flag}\n{USAGE}"))
                }
                _ => f.positional.push(arg.clone()),
            }
        }
        if [f.seconds, f.scale]
            .into_iter()
            .flatten()
            .any(|v| v.is_nan() || v <= 0.0)
        {
            return Err("--seconds and --scale must be positive".to_owned());
        }
        Ok(f)
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match &self.workload {
            Some(name) => Workload::parse(name)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown workload `{name}`")),
            None => Ok(Workload::ALL.to_vec()),
        }
    }

    fn seconds(&self, spec: &Spec) -> f64 {
        self.seconds.unwrap_or(spec.run_seconds as f64)
    }
}

/// `worker`: runs one workload in this process and prints its report as
/// one JSON line.
fn cmd_worker(f: &Flags) -> Result<(), String> {
    let [workload] = f.workloads()?[..] else {
        return Err("worker needs --workload".to_owned());
    };
    let params = Params {
        workload,
        seed: f.seed.unwrap_or(1),
        seconds: f.seconds(&Spec::load()),
        scale: f.scale.unwrap_or(1.0),
        traced: f.traced,
        rounds: f.rounds,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let report = workloads::run(&params)?;
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Runs `cmd` to completion or until `deadline`, killing it then; returns
/// its standard output.
fn run_to_end(mut cmd: Command, deadline: Instant) -> Result<String, String> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start {cmd:?}: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).map(|_| out)
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("{cmd:?} did not finish in time"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("waiting for {cmd:?}: {e}"));
            }
        }
    };
    let out = reader
        .join()
        .expect("stdout reader")
        .map_err(|e| e.to_string());
    let status = status?;
    if !status.success() {
        return Err(format!("{cmd:?} exited with {status}"));
    }
    out
}

fn last_line(out: &str, from_end: usize) -> Option<&str> {
    out.lines()
        .rev()
        .filter(|l| !l.trim().is_empty())
        .nth(from_end)
}

/// Runs one workload pass in a fresh worker process: untraced, or — with
/// `replay` — traced over exactly the rounds an untraced pass ran.
fn worker(
    w: Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
    replay: Option<u64>,
    deadline: Instant,
) -> Result<WorkerReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["worker", "--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", &scale.to_string()]);
    if let Some(n) = replay {
        cmd.arg("--traced").args(["--rounds", &n.to_string()]);
    }
    let out = run_to_end(cmd, deadline)?;
    let line = last_line(&out, 0).ok_or("worker printed no report")?;
    serde_json::from_str(line).map_err(|e| format!("bad worker report: {e}"))
}

fn pick<'a>(
    spec_names: impl Iterator<Item = (&'a str, &'a str)>,
    values: &[Measured],
) -> Result<Vec<(&'a str, f64, &'a str)>, String> {
    spec_names
        .map(|(name, unit)| {
            lookup(values, name)
                .map(|v| (name, v, unit))
                .ok_or_else(|| format!("workload did not measure `{name}`"))
        })
        .collect()
}

/// `run`: every requested workload, each in its own worker process.
fn cmd_run(f: &Flags) -> Result<(), String> {
    let spec = Spec::load();
    let seed = f.seed.unwrap_or(1);
    let seconds = f.seconds(&spec);
    let scale = f.scale.unwrap_or(1.0);
    let deadline = Instant::now() + RUN_DEADLINE;
    for w in f.workloads()? {
        let base = worker(w, seed, seconds, scale, None, deadline)?;
        let mut attempted = base.attempted;
        let mut failures = base.failures.clone();
        let e2e = pick(
            spec.end_to_end
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str())),
            &base.end_to_end,
        )?;
        let mut layers = Vec::new();
        if f.trace {
            let traced = worker(w, seed, seconds, scale, Some(base.rounds), deadline)?;
            attempted += traced.attempted + 1;
            failures.extend(traced.failures.iter().cloned());
            if traced.digest != base.digest {
                failures.push(format!(
                    "traced outcome digest {} differs from untraced {}",
                    traced.digest, base.digest
                ));
            }
            let wall = |r: &WorkerReport| lookup(&r.end_to_end, "wall_s").unwrap_or(0.0);
            let overhead = Measured {
                name: "trace.overhead_pct".to_owned(),
                value: (wall(&traced) / wall(&base) - 1.0) * 100.0,
            };
            append_line(
                &trace_path(Path::new(OUT_DIR), w.name()),
                &layer_line(&overhead),
            )?;
            let mut values = traced.per_layer.clone();
            values.push(overhead);
            layers = pick(
                spec.per_layer
                    .iter()
                    .map(|m| (m.name.as_str(), m.unit.as_str())),
                &values,
            )?;
        }
        let failed = failures.len() as u64;
        let fingerprint = Fingerprint::detect(w.name(), seed);
        println!(
            "== {} (seed {seed}, {} rounds, {} latency samples) ==",
            w.name(),
            base.rounds,
            base.samples
        );
        for &(name, value, unit) in &e2e {
            let samples = if name == "request_p95_s" {
                format!(" (of {} samples)", base.samples)
            } else {
                String::new()
            };
            println!("  {name:<34} {value:>14.6} {unit}{samples}");
        }
        for &(name, value, unit) in &layers {
            let link = LAYER_LINKS.iter().find(|l| l.metric == name);
            let moves = link.map_or(String::new(), |l| match l.moves {
                [] => format!("  [{}]", l.layer),
                moves => format!(
                    "  [{}; moves {} on {}]",
                    l.layer,
                    moves.join(", "),
                    l.on.join(", ")
                ),
            });
            println!("  {name:<34} {value:>14.6} {unit}{moves}");
        }
        println!(
            "  checks: {attempted} attempted, {failed} failed (failed_frac {})",
            failed as f64 / attempted.max(1) as f64
        );
        for failure in &failures {
            eprintln!("  FAILED: {failure}");
        }
        println!("  outcome digest: {}", base.digest);
        println!(
            "  fingerprint: {} threads, {}, {}, rev {}",
            fingerprint.hw_threads, fingerprint.cpu_model, fingerprint.rustc, fingerprint.git_rev
        );
        let shown = if f.trace { &layers } else { &e2e };
        let record = Record {
            fingerprint,
            digest: base.digest.clone(),
            rounds: base.rounds,
            samples: base.samples,
            attempted,
            failed,
            metrics: shown
                .iter()
                .map(|&(name, value, _)| Measured {
                    name: name.to_owned(),
                    value,
                })
                .collect(),
        };
        println!(
            "{}",
            serde_json::to_string(&record).map_err(|e| e.to_string())?
        );
        println!("{}", result_line(attempted, failed, shown));
    }
    Ok(())
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

/// `compare`: alternating pairs of two benchmark builds, one verdict per
/// (metric, workload).
fn cmd_compare(f: &Flags) -> Result<(), String> {
    let [bin_a, bin_b] = &f.positional[..] else {
        return Err(format!("compare needs two binaries\n{USAGE}"));
    };
    let spec = Spec::load();
    let pairs = f.pairs.unwrap_or(10);
    let base_seed = f.seed.unwrap_or(1);
    let seconds = f.seconds(&spec);
    let scale = f.scale.unwrap_or(1.0);
    let run = |bin: &str, w: Workload, seed: u64| -> Result<Record, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["run", "--workload", w.name(), "--trace", "0"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--scale", &scale.to_string()]);
        let out = run_to_end(cmd, Instant::now() + Duration::from_secs(180))?;
        let line = last_line(&out, 1).ok_or_else(|| format!("{bin} printed no record"))?;
        serde_json::from_str(line).map_err(|e| format!("bad record from {bin}: {e}"))
    };
    println!(
        "{:<16} {:<11} {:>28} {:>28} {:>6} verdict",
        "metric", "workload", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    let mut reference: Option<Fingerprint> = None;
    for w in f.workloads()? {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut identical = 0;
        for i in 0..pairs {
            let seed = base_seed + i as u64;
            let (ra, rb) = if i % 2 == 0 {
                let ra = run(bin_a, w, seed)?;
                (ra, run(bin_b, w, seed)?)
            } else {
                let rb = run(bin_b, w, seed)?;
                (run(bin_a, w, seed)?, rb)
            };
            for r in [&ra, &rb] {
                let reference = reference.get_or_insert_with(|| r.fingerprint.clone());
                if !r.fingerprint.same_machine(reference) {
                    return Err(format!(
                        "fingerprints differ; refusing to compare {:?} with {:?}",
                        r.fingerprint, reference
                    ));
                }
                if r.failed > 0 {
                    return Err(format!(
                        "{} failed {} checks on seed {seed}",
                        w.name(),
                        r.failed
                    ));
                }
            }
            identical += usize::from(ra.digest == rb.digest);
            a.push(ra);
            b.push(rb);
        }
        for m in &spec.end_to_end {
            let values = |rs: &[Record]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| lookup(&r.metrics, &m.name))
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            let better = m.direction();
            let show = |v: &[f64]| {
                let [q1, _, q3] = quartiles(v);
                format!("{:.6} [{q1:.6}, {q3:.6}]", median(v))
            };
            println!(
                "{:<16} {:<11} {:>28} {:>28} {:>3}/{:<2} {}",
                m.name,
                w.name(),
                show(&va),
                show(&vb),
                wins(better, &va, &vb),
                va.len(),
                verdict(better, m.bound.unwrap_or(0.0), &va, &vb)
            );
        }
        println!(
            "{:<16} {:<11} outcome bytes identical in {identical}/{pairs} pairs",
            "digest",
            w.name()
        );
    }
    Ok(())
}
