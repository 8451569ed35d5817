//! What a run prints: the machine fingerprint, the outcome digest, the
//! per-run record line `compare` reads back, and the final result line.

use serde::{Content, DeError, Deserialize, Serialize};

/// Any JSON value, for documents whose shape the benchmark checks itself
/// (`BENCHMARK.json`, the final result line).
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Content);

impl Serialize for Json {
    fn serialize(&self) -> Content {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn deserialize(content: &Content) -> Result<Self, DeError> {
        Ok(Json(content.clone()))
    }
}

/// 64-bit FNV-1a over a run's outcome bytes: enough to tell an A/B pair,
/// or a traced and an untraced run, whether their outcomes are
/// byte-identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Identifies the machine, toolchain, source revision and inputs a result
/// came from. `compare` only sets results side by side when their machine
/// parts agree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Hardware threads available to the process.
    pub hw_threads: u64,
    /// CPU model name.
    pub cpu_model: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Git commit of the source tree (`unknown` outside a checkout).
    pub git_rev: String,
    /// The workload seed.
    pub seed: u64,
    /// The workload name.
    pub workload: String,
}

impl Fingerprint {
    /// Detects the fingerprint of this process for one workload run.
    #[must_use]
    pub fn detect(workload: &str, seed: u64) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|rest| rest.split_once(':'))
                    .map(|(_, name)| name.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Fingerprint {
            hw_threads: ascdg_core::machine_threads() as u64,
            cpu_model,
            rustc: env!("ASCDG_BENCH_RUSTC").to_owned(),
            git_rev: std::env::current_dir()
                .ok()
                .and_then(|dir| ascdg_telemetry::detect_git_commit(&dir))
                .unwrap_or_else(|| "unknown".to_owned()),
            seed,
            workload: workload.to_owned(),
        }
    }

    /// Whether two results come from the same machine and toolchain (the
    /// revision may differ: that is what an A/B compares).
    #[must_use]
    pub fn same_machine(&self, other: &Fingerprint) -> bool {
        self.hw_threads == other.hw_threads
            && self.cpu_model == other.cpu_model
            && self.rustc == other.rustc
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measured {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value, in the metric's unit.
    pub value: f64,
}

/// Looks a measurement up by name.
#[must_use]
pub fn lookup(metrics: &[Measured], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

/// What one worker process reports to the `run` command that spawned it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerReport {
    /// Timed rounds completed.
    pub rounds: u64,
    /// Outcome checks performed.
    pub attempted: u64,
    /// Outcome checks that failed.
    pub failed: u64,
    /// What each failed check found.
    pub failures: Vec<String>,
    /// Digest of the counted rounds' outcomes.
    pub digest: String,
    /// Latency samples behind the request percentiles.
    pub samples: u64,
    /// End-to-end metrics.
    pub end_to_end: Vec<Measured>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Measured>,
}

/// The line printed just before the result line: everything `compare`
/// needs to pair two runs and check they measured the same thing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Machine, toolchain, revision and inputs.
    pub fingerprint: Fingerprint,
    /// Digest of the counted rounds' outcomes.
    pub digest: String,
    /// Timed rounds completed.
    pub rounds: u64,
    /// Latency samples behind the request percentiles.
    pub samples: u64,
    /// Outcome checks performed.
    pub attempted: u64,
    /// Outcome checks that failed.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Measured>,
}

/// The final line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": .., "unit": ..}`.
#[must_use]
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_owned(),
                Content::Map(vec![
                    ("value".to_owned(), Content::F64(value)),
                    ("unit".to_owned(), Content::Str(unit.to_owned())),
                ]),
            )
        })
        .collect();
    let line = Content::Map(vec![
        ("correct".to_owned(), Content::Bool(failed == 0)),
        ("attempted".to_owned(), Content::U64(attempted)),
        ("failed".to_owned(), Content::U64(failed)),
        ("metrics".to_owned(), Content::Map(metrics)),
    ]);
    serde_json::to_string(&Json(line)).expect("metric values are finite")
}
