//! `BENCHMARK.json` stays in the format benchmark runners read, and
//! agrees with the benchmark's workloads and interaction table.

use std::collections::BTreeSet;

use ascdg_benchmark::report::Json;
use ascdg_benchmark::spec::{Spec, BENCHMARK_JSON, LAYER_LINKS};
use ascdg_benchmark::workloads::Workload;
use serde::Content;

fn map(c: &Content) -> &[(String, Content)] {
    match c {
        Content::Map(entries) => entries,
        other => panic!("expected an object, found {other:?}"),
    }
}

fn list(c: &Content) -> &[Content] {
    match c {
        Content::Seq(items) => items,
        other => panic!("expected a list, found {other:?}"),
    }
}

fn string(c: &Content) -> &str {
    match c {
        Content::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn keys(c: &Content) -> Vec<&str> {
    map(c).iter().map(|(k, _)| k.as_str()).collect()
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_keeps_the_runner_format() {
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    let Json(doc) = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let field = |name: &str| doc.get(name).expect("key present");

    let command = list(field("command"));
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in command.iter().map(string) {
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
    }

    let paths = list(field("paths"));
    assert!((1..=16).contains(&paths.len()));
    for path in paths.iter().map(string) {
        assert!(path.len() <= 200 && !path.starts_with('/') && !path.contains(".."));
        assert!(
            path.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)),
            "{path}"
        );
    }
    assert!(env!("CARGO_MANIFEST_DIR").ends_with(string(&paths[0])));

    match field("run_seconds") {
        Content::U64(s) => assert!((1..=60).contains(s)),
        other => panic!("run_seconds must be a whole number, found {other:?}"),
    }

    let mut names = BTreeSet::new();
    let workloads = list(field("workloads"));
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let (name, why) = (
            string(w.get("name").unwrap()),
            string(w.get("why").unwrap()),
        );
        assert!(is_name(name) && names.insert(name), "{name}");
        assert!(
            !why.trim().is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{name}: {why}"
        );
    }

    let e2e = list(field("end_to_end"));
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let name = string(m.get("name").unwrap());
        assert!(is_name(name) && names.insert(name), "{name}");
        assert!(is_unit(string(m.get("unit").unwrap())), "{name}");
        assert!(
            ["lower", "higher"].contains(&string(m.get("better").unwrap())),
            "{name}"
        );
        match m.get("bound").unwrap() {
            Content::F64(b) => assert!(*b > 0.0 && *b <= 0.25, "{name} bound {b}"),
            other => panic!("{name} bound must be a number, found {other:?}"),
        }
    }

    let layers = list(field("per_layer"));
    assert!((1..=128).contains(&layers.len()));
    for m in layers {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        let name = string(m.get("name").unwrap());
        assert!(is_name(name) && names.insert(name), "{name}");
        assert!(is_unit(string(m.get("unit").unwrap())), "{name}");
        assert!(
            ["lower", "higher"].contains(&string(m.get("better").unwrap())),
            "{name}"
        );
    }
}

#[test]
fn setup_time_has_the_largest_bound() {
    let spec = Spec::load();
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    let largest = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest));
}

#[test]
fn workloads_are_the_ones_the_benchmark_runs() {
    let spec = Spec::load();
    let listed: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    let runnable: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, runnable);
}

#[test]
fn every_layer_metric_names_the_end_to_end_metric_and_workload_it_moves() {
    let spec = Spec::load();
    let e2e: BTreeSet<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
    let workloads: BTreeSet<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    let layers: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
    let linked: Vec<&str> = LAYER_LINKS.iter().map(|l| l.metric).collect();
    assert_eq!(
        layers, linked,
        "the interaction table lists the per-layer metrics in order"
    );
    for link in LAYER_LINKS {
        // The tracing overhead is the one layer metric that moves nothing:
        // it measures the benchmark itself.
        if link.metric != "trace.overhead_pct" {
            assert!(
                !link.moves.is_empty(),
                "{} moves no end-to-end metric",
                link.metric
            );
        }
        assert!(!link.on.is_empty(), "{} names no workload", link.metric);
        assert!(
            link.moves.iter().all(|m| e2e.contains(m)),
            "{}: {:?}",
            link.metric,
            link.moves
        );
        assert!(
            link.on.iter().all(|w| workloads.contains(w)),
            "{}: {:?}",
            link.metric,
            link.on
        );
    }
}
