//! `benchmark` — the seeded end-to-end benchmark of the SERENITY compiler
//! and its compile service, with a traced per-layer replay.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
//! benchmark --compare A.jsonl B.jsonl
//! ```
//!
//! With `--workload` it runs that workload in this process and prints, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics,
//! or with `--trace 1` the per-layer ones. Without `--workload` it runs
//! every workload, each in a child process started from this binary, so
//! caches and peak RSS stay separate. The table of metrics goes to
//! standard error; `--out` appends one JSON record per run, with the host
//! fingerprint, for `--compare`. README.md in this directory describes the
//! workloads, the metrics and the A/B procedure.

mod compare;
mod compile;
mod inputs;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use inputs::Workload;
use report::Outcome;
use trace::Recorder;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE] [--smoke]\n       benchmark --compare A.jsonl B.jsonl";

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 0,
            seconds: None,
            trace: false,
            out: None,
            smoke: false,
            compare: None,
        };
        while let Some(flag) = raw.next() {
            let mut value = || raw.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    let known = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
                    args.workload = Some(known);
                }
                "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".to_string());
                    }
                    args.seconds = Some(s);
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--out" => args.out = Some(PathBuf::from(value()?)),
                "--smoke" => args.smoke = true,
                "--compare" => {
                    let a = PathBuf::from(value()?);
                    let b = PathBuf::from(value()?);
                    args.compare = Some((a, b));
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(args)
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 0.5 } else { report::run_seconds() })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}

/// Runs `make` `reps` times; returns the last result (earlier ones are
/// dropped) and the median time.
fn set_up<T>(reps: usize, make: impl Fn() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let started = Instant::now();
        let made = make();
        times.push(started.elapsed().as_secs_f64());
        last = Some(made);
    }
    (last.expect("at least one set-up"), stats::median(&times).expect("at least one set-up"))
}

/// Runs one workload in this process: the timed run, or with a recorder
/// the traced one.
fn measure(workload: Workload, args: &Args, rec: Option<&mut Recorder>) -> Outcome {
    let (seed, smoke) = (args.seed, args.smoke);
    let compile_plan = |w: Workload| match w {
        Workload::PaperSuite => inputs::paper_suite(seed, smoke),
        Workload::DpRandwire => inputs::dp_randwire(seed, smoke),
        Workload::CapacityConcat => inputs::capacity_concat(seed, smoke),
        Workload::ServeNasFamily => unreachable!("the service workload has its own plan"),
    };
    match (workload, rec) {
        (Workload::ServeNasFamily, Some(rec)) => {
            serve::trace(&inputs::serve_nas_family(seed, smoke), rec)
        }
        (Workload::ServeNasFamily, None) => {
            let (warmed, setup_s) = set_up(SETUP_REPS, || {
                let plan = inputs::serve_nas_family(seed, smoke);
                serve::Warm::start(&plan).map(|warm| (plan, warm))
            });
            match warmed {
                Ok((plan, warm)) => serve::run(&plan, warm, setup_s, args.seconds(), false),
                Err(e) => Outcome {
                    attempted: 1,
                    failed: 1,
                    metrics: Vec::new(),
                    extra: Vec::new(),
                    failures: vec![format!("set-up failed: {e}")],
                },
            }
        }
        (w, Some(rec)) => compile::trace(&compile_plan(w), rec),
        (w, None) => {
            let (plan, setup_s) = set_up(SETUP_REPS, || compile_plan(w));
            compile::run(&plan, setup_s, args.seconds())
        }
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let name = workload.name();
    let mut rec = Recorder::new();
    let outcome = measure(workload, args, args.trace.then_some(&mut rec));
    eprint!("{}", outcome.table(name));
    if args.trace {
        let path = Path::new(".bench_out").join(format!("{name}-seed{}.trace.json", args.seed));
        match rec.write(&path) {
            Ok(()) => eprintln!("  trace: {} (open in https://ui.perfetto.dev)", path.display()),
            Err(e) => eprintln!("  trace: cannot write {}: {e}", path.display()),
        }
    }
    if let Some(out) = &args.out {
        let record = outcome.record(name, args.seed, args.trace, args.seconds());
        let line = serde_json::to_string(&record).expect("record serializes");
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("benchmark: cannot append to {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", outcome.result_line());
    let refused: Vec<&str> =
        outcome.metrics.iter().filter(|m| m.value.is_none()).map(|m| m.name.as_str()).collect();
    if !refused.is_empty() && !args.smoke {
        eprintln!("benchmark: too few samples for {refused:?}; the run must be longer");
        return ExitCode::FAILURE;
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in its own child process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results = Vec::new();
    let mut correct = true;
    for workload in Workload::ALL {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds().to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(out) = &args.out {
            child.arg("--out").arg(out);
        }
        if args.smoke {
            child.arg("--smoke");
        }
        let line = child.output().ok().and_then(|output| {
            correct &= output.status.success();
            let stdout = String::from_utf8(output.stdout).ok()?;
            serde_json::from_str::<serde_json::Value>(stdout.lines().last()?).ok()
        });
        let line = line.unwrap_or_else(|| {
            correct = false;
            serde_json::json!({ "correct": false })
        });
        results.push((workload.name().to_string(), line));
    }
    let sum = |key: &str| results.iter().map(|(_, r)| r[key].as_u64().unwrap_or(0)).sum::<u64>();
    let summary = serde_json::json!({
        "correct": correct,
        "attempted": sum("attempted"),
        "failed": sum("failed"),
        "workloads": serde_json::Value::Map(results),
    });
    println!("{}", serde_json::to_string(&summary).expect("summary serializes"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{declared, Kind};

    fn smoke(seed: u64) -> Args {
        let raw = ["--smoke", "--seconds", "0.3", "--seed", &seed.to_string()];
        Args::parse(raw.iter().map(|s| s.to_string())).expect("smoke arguments parse")
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Every emitted metric is well named and declared in BENCHMARK.json,
    /// with the same unit, in the list for its kind of run — and every
    /// declared metric of that kind is emitted.
    fn assert_declared(outcome: &Outcome, kind: Kind) {
        let declared: Vec<_> = declared().into_iter().filter(|d| d.kind == kind).collect();
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        for m in &outcome.metrics {
            assert!(valid_name(&m.name), "{} is not a valid metric name", m.name);
            let d = declared.iter().find(|d| d.name == m.name);
            assert_eq!(d.map(|d| d.unit.as_str()), Some(m.unit.as_str()), "{} undeclared", m.name);
        }
        for d in &declared {
            assert!(names.contains(&d.name.as_str()), "{} is declared but not emitted", d.name);
        }
    }

    #[test]
    fn smoke_pass_covers_every_workload_and_the_traced_run() {
        let args = smoke(3);
        for workload in Workload::ALL {
            let timed = measure(workload, &args, None);
            assert!(timed.correct(), "{}: {:?}", workload.name(), timed.failures);
            assert_declared(&timed, Kind::EndToEnd);
            let mut rec = Recorder::new();
            let traced = measure(workload, &args, Some(&mut rec));
            assert!(traced.correct(), "{} traced: {:?}", workload.name(), traced.failures);
            assert_declared(&traced, Kind::PerLayer);
            assert!(!rec.chrome_json().is_empty());
        }
    }

    #[test]
    fn a_corrupted_served_result_fails_the_run() {
        let plan = inputs::serve_nas_family(0, true);
        let warm = serve::Warm::start(&plan).expect("smoke server starts");
        let outcome = serve::run(&plan, warm, 0.1, 0.3, true);
        assert!(outcome.failed > 0 && !outcome.correct());
    }

    #[test]
    fn workload_names_are_declared() {
        let doc: serde_json::Value =
            serde_json::from_str(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let names: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
        assert!(names.iter().all(|n| valid_name(n)));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |raw: &[&str]| Args::parse(raw.iter().map(|s| s.to_string()));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        let args = parse(&["--workload", "dp-randwire", "--seed", "4", "--trace", "1"]).unwrap();
        assert_eq!((args.workload, args.seed, args.trace), (Some(Workload::DpRandwire), 4, true));
    }
}
