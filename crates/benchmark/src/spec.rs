//! The benchmark's definition: `BENCHMARK.json` (workloads, metric names,
//! units, directions and regression bounds) plus the interaction table
//! saying which end-to-end metric each layer metric should move, and on
//! which workload.

use serde::Deserialize;

use crate::verdict::Better;

/// `BENCHMARK.json`, compiled in so the binary and the file cannot
/// disagree about names, units or bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit the value is reported in.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    #[serde(default)]
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// The metric's improvement direction.
    ///
    /// # Panics
    ///
    /// When `better` is neither `lower` nor `higher` (the schema test
    /// rejects such a file).
    #[must_use]
    pub fn direction(&self) -> Better {
        Better::parse(&self.better).expect("BENCHMARK.json `better` is lower or higher")
    }
}

/// One workload of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name (the `--workload` argument).
    pub name: String,
    /// Why the workload is in the benchmark.
    pub why: String,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// Metrics a user of the system sees.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of single layers (traced runs).
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The compiled-in `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// When the file does not parse (the schema test guards it).
    #[must_use]
    pub fn load() -> Self {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }
}

/// Which end-to-end metric a layer metric should move, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerLink {
    /// The per-layer metric.
    pub metric: &'static str,
    /// The module it measures.
    pub layer: &'static str,
    /// End-to-end metrics a change in it should move.
    pub moves: &'static [&'static str],
    /// Workloads on which it should move them.
    pub on: &'static [&'static str],
}

const fn link(
    metric: &'static str,
    layer: &'static str,
    moves: &'static [&'static str],
    on: &'static [&'static str],
) -> LayerLink {
    LayerLink {
        metric,
        layer,
        moves,
        on,
    }
}

const WALL: &[&str] = &["wall_s"];
const THROUGHPUT: &[&str] = &["sims_per_s"];
const ENGINE: &str = "core::engine / core::stages";

/// The interaction table: every per-layer metric of `BENCHMARK.json`,
/// the layer it reads, and the end-to-end metric and workloads a change
/// to that layer should show up in. A prediction of "no change" on the
/// other workloads is part of the table.
pub const LAYER_LINKS: &[LayerLink] = &[
    link("stage.regression.wall_s", ENGINE, WALL, &["regression"]),
    link("stage.regression.host_s", ENGINE, WALL, &["regression"]),
    link("stage.coarse-search.wall_s", ENGINE, WALL, &["closure"]),
    link(
        "stage.coarse-search.host_s",
        "crates/tac",
        WALL,
        &["closure"],
    ),
    link("stage.skeletonize.wall_s", ENGINE, WALL, &["closure"]),
    link(
        "stage.skeletonize.host_s",
        "core::skeletonizer",
        WALL,
        &["closure"],
    ),
    link("stage.random-sample.wall_s", ENGINE, WALL, &["closure"]),
    link(
        "stage.random-sample.host_s",
        "core::sampling",
        WALL,
        &["closure"],
    ),
    link("stage.optimize.wall_s", ENGINE, WALL, &["closure"]),
    link("stage.optimize.host_s", "crates/opt", WALL, &["closure"]),
    link("stage.harvest.wall_s", ENGINE, WALL, &["closure"]),
    link("stage.harvest.host_s", ENGINE, WALL, &["closure"]),
    link(
        "batch.chunk_ns_per_sim",
        "crates/duv + crates/coverage",
        THROUGHPUT,
        &["regression", "closure"],
    ),
    link(
        "batch.io_unit.chunk_ns_per_sim",
        "crates/duv io_unit",
        THROUGHPUT,
        &["regression", "closure"],
    ),
    link(
        "batch.l3cache.chunk_ns_per_sim",
        "crates/duv l3cache",
        THROUGHPUT,
        &["regression", "closure"],
    ),
    link(
        "batch.ifu.chunk_ns_per_sim",
        "crates/duv ifu",
        THROUGHPUT,
        &["regression", "closure"],
    ),
    link(
        "batch.sims_per_chunk",
        "core::batch autotuner",
        THROUGHPUT,
        &["regression"],
    ),
    link(
        "pool.chunks_in_flight",
        "core::pool",
        THROUGHPUT,
        &["closure", "regression"],
    ),
    link("pool.jobs_dispatched", "core::pool", WALL, &["closure"]),
    link("pool.steals", "core::pool", WALL, &["closure"]),
    link(
        "coverage.merges",
        "crates/coverage repository",
        WALL,
        &["regression"],
    ),
    link(
        "coverage.merge_s",
        "crates/coverage repository",
        WALL,
        &["regression"],
    ),
    link("objective.evals", "core::objective", WALL, &["closure"]),
    link("objective.eval_s", "core::objective", WALL, &["closure"]),
    link("opt.host_s", "crates/opt", WALL, &["closure"]),
    link(
        "batch.fused_chunks",
        "core::batch FusionHub",
        &["wall_s", "requests_per_s"],
        &["campaign", "serve"],
    ),
    link(
        "batch.fusion_occupancy_pct",
        "core::batch FusionHub",
        &["wall_s", "requests_per_s"],
        &["campaign", "serve"],
    ),
    link("scheduler.overlap", "core::scheduler", WALL, &["campaign"]),
    link(
        "serve.admit_p50_s",
        "crates/serve protocol + planning",
        &["request_p50_s", "request_p95_s"],
        &["serve"],
    ),
    link(
        "serve.run_p50_s",
        "core::scheduler admission + stages",
        &["request_p50_s", "request_p95_s"],
        &["serve"],
    ),
    link(
        "checkpoint.bytes_per_request",
        "core::checkpoint",
        &["request_p50_s"],
        &["serve"],
    ),
    link(
        "trace.overhead_pct",
        "benchmark tracing",
        &[],
        &["regression", "closure", "campaign", "serve"],
    ),
];

/// The stages whose wall and host time the traced run splits.
pub const STAGES: &[&str] = &[
    "regression",
    "coarse-search",
    "skeletonize",
    "random-sample",
    "optimize",
    "harvest",
];
