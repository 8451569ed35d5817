//! Every workload, at a tiny budget: each run prints every `BENCHMARK.json`
//! metric with its unit, no outcome check fails, and the traced run
//! reproduces the untraced run's outcome digest.

use std::path::Path;
use std::process::Command;

use ascdg_benchmark::report::{Json, Record};
use ascdg_benchmark::spec::{MetricSpec, Spec};
use serde::Content;

/// Runs the benchmark binary in `dir`, returning its record and result
/// lines.
fn run(dir: &Path, workload: &str, trace: &str) -> (Record, Content) {
    let out = Command::new(env!("CARGO_BIN_EXE_ascdg-benchmark"))
        .current_dir(dir)
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args(["--scale", "0.02", "--trace", trace])
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    let [.., record, result] = lines[..] else {
        panic!("{workload}: too little output:\n{stdout}");
    };
    let record: Record = serde_json::from_str(record).expect("record line parses");
    let Json(result) = serde_json::from_str(result).expect("result line parses");
    (record, result)
}

fn assert_metrics(workload: &str, result: &Content, expected: &[MetricSpec]) {
    let Content::Map(top) = result else {
        panic!("{workload}: result is not an object");
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Content::Bool(true)),
        "{workload}"
    );
    assert_eq!(result.get("failed"), Some(&Content::U64(0)), "{workload}");
    assert!(matches!(result.get("attempted"), Some(Content::U64(n)) if *n >= 1));
    let Some(Content::Map(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, wanted, "{workload}");
    for (m, (_, value)) in expected.iter().zip(metrics) {
        assert!(
            matches!(value.get("value"), Some(Content::F64(_))),
            "{workload} {}",
            m.name
        );
        assert_eq!(
            value.get("unit"),
            Some(&Content::Str(m.unit.clone())),
            "{workload} {}",
            m.name
        );
    }
}

#[test]
fn every_workload_reports_every_metric_and_traces_identically() {
    let spec = Spec::load();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("benchmark-smoke");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for w in &spec.workloads {
        let (plain, result) = run(&dir, &w.name, "0");
        assert_metrics(&w.name, &result, &spec.end_to_end);
        let (traced, result) = run(&dir, &w.name, "1");
        assert_metrics(&w.name, &result, &spec.per_layer);
        assert_eq!(
            plain.digest, traced.digest,
            "{}: traced outcome differs",
            w.name
        );
        assert_eq!(traced.failed, 0);
        let trace =
            std::fs::read_to_string(dir.join(format!("target/benchmark/trace-{}.jsonl", w.name)))
                .expect("traced run writes its trace");
        for m in &spec.per_layer {
            assert!(
                trace.contains(&format!("{{\"Layer\":{{\"name\":\"{}\"", m.name)),
                "{}: trace lacks {}",
                w.name,
                m.name
            );
        }
    }
}
