//! What a run reports: its metrics, the result line, the human-readable
//! table, the host fingerprint, and the metric declarations of
//! BENCHMARK.json that every emitted name must match.

use std::path::Path;

use serde_json::Value;

/// The metric declarations, compiled in so `--compare` and the tests read
/// the same bounds every run is judged by.
const DECLARATIONS: &str = include_str!("../../../../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `None` when the value is refused, e.g. a percentile with too few
    /// samples beyond it.
    pub value: Option<f64>,
    /// Samples the value summarizes, for timings.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        let value = Some(value + 0.0);
        Metric { name: name.to_string(), unit: unit.to_string(), value, samples: None }
    }

    pub fn sampled(name: &str, unit: &str, value: Option<f64>, n: usize) -> Metric {
        Metric { samples: Some(n), value, ..Metric::new(name, unit, 0.0) }
    }
}

/// Every declared per-layer metric, valued from `measured`. A layer the
/// workload does not exercise reads 0 (the in-process workloads have no
/// HTTP layer; the service workload's compiles run inside the server).
///
/// # Panics
///
/// On a measured name that BENCHMARK.json does not declare.
pub fn layers(measured: &[(&str, f64)]) -> Vec<Metric> {
    let declared: Vec<Declared> =
        declared().into_iter().filter(|d| d.kind == Kind::PerLayer).collect();
    for (name, _) in measured {
        assert!(declared.iter().any(|d| d.name == *name), "undeclared per-layer metric {name}");
    }
    declared
        .iter()
        .map(|d| {
            let value = measured.iter().find(|(n, _)| *n == d.name).map_or(0.0, |m| m.1);
            Metric::new(&d.name, &d.unit, value)
        })
        .collect()
}

/// One run's outcome.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The declared metrics: end-to-end for a timed run, per-layer for a
    /// traced one.
    pub metrics: Vec<Metric>,
    /// Reported in the table and the record only (p99 where it has enough
    /// samples, failure share, capacity quality).
    pub extra: Vec<Metric>,
    /// One line per failure kind, for the table.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn metrics_json(metrics: &[Metric], with_samples: bool) -> Value {
        Value::Map(
            metrics
                .iter()
                .map(|m| {
                    let value = m.value.map_or(Value::Null, Value::F64);
                    let mut fields = vec![
                        ("value".to_string(), value),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ];
                    if let (true, Some(n)) = (with_samples, m.samples) {
                        fields.push(("samples".to_string(), Value::U64(n as u64)));
                    }
                    (m.name.to_string(), Value::Map(fields))
                })
                .collect(),
        )
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let line = serde_json::json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Outcome::metrics_json(&self.metrics, false),
        });
        serde_json::to_string(&line).expect("result serializes")
    }

    /// The record appended to `--out`, with the host fingerprint.
    pub fn record(&self, workload: &str, seed: u64, traced: bool, seconds: f64) -> Value {
        serde_json::json!({
            "workload": workload,
            "seed": seed,
            "trace": traced,
            "seconds": seconds,
            "host": host_fingerprint(),
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Outcome::metrics_json(&self.metrics, true),
            "extra": Outcome::metrics_json(&self.extra, true),
        })
    }

    /// The human-readable table, one metric per row.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!(
            "{workload}: {} attempted, {} failed{}\n",
            self.attempted,
            self.failed,
            if self.correct() { "" } else { " — OUTPUTS ARE NOT CORRECT" }
        );
        for m in self.metrics.iter().chain(&self.extra) {
            let value = m.value.map_or_else(|| "refused".to_string(), |v| format!("{v:.4}"));
            let samples = m.samples.map_or_else(String::new, |n| format!("  (n={n})"));
            out.push_str(&format!("  {:<36} {:>14} {:<6}{samples}\n", m.name, value, m.unit));
        }
        for failure in &self.failures {
            out.push_str(&format!("  failure: {failure}\n"));
        }
        out
    }
}

/// Which metric list of BENCHMARK.json a name is declared in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    PerLayer,
}

pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Worst allowed relative change (end-to-end metrics only).
    pub bound: Option<f64>,
    pub kind: Kind,
}

fn declarations() -> Value {
    serde_json::from_str(DECLARATIONS).expect("BENCHMARK.json parses")
}

/// How long a timed run measures when `--seconds` is not given.
pub fn run_seconds() -> f64 {
    declarations()["run_seconds"].as_f64().expect("run_seconds is a number")
}

pub fn declared() -> Vec<Declared> {
    let doc = declarations();
    let mut out = Vec::new();
    for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::PerLayer)] {
        for m in doc[key].as_array().expect("metric lists are arrays") {
            out.push(Declared {
                name: m["name"].as_str().expect("named").to_string(),
                unit: m["unit"].as_str().expect("unit").to_string(),
                higher_is_better: m["better"].as_str() == Some("higher"),
                bound: m["bound"].as_f64(),
                kind,
            });
        }
    }
    out
}

/// Whether a metric measures the host (time, rate, memory) rather than the
/// program's output, so that runs on different hosts cannot be compared.
pub fn host_dependent(unit: &str) -> bool {
    matches!(unit, "ms" | "s" | "1/s" | "MB")
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// nproc, CPU model, compiler and revision: what `--compare` checks before
/// it gives a wall-clock verdict.
pub fn host_fingerprint() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    serde_json::json!({ "nproc": nproc, "cpu": cpu, "rustc": rustc, "git_rev": git_rev() })
}

/// The checked-out revision, read from `.git` above the working directory
/// ("unknown" outside a repository).
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let Some(git) = cwd.ancestors().map(|d| d.join(".git")).find(|d| d.is_dir()) else {
        return "unknown".to_string();
    };
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            None => head,
            Some(name) => read(&git.join(name))
                .or_else(|| {
                    read(&git.join("packed-refs")).and_then(|packed| {
                        packed
                            .lines()
                            .find_map(|l| l.strip_suffix(name).map(|sha| sha.trim().to_string()))
                    })
                })
                .unwrap_or_else(|| "unknown".to_string()),
        },
        None => "unknown".to_string(),
    }
}
