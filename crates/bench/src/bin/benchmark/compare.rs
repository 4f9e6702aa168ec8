//! `--compare A.jsonl B.jsonl`: one row per (workload, metric) with each
//! side's median and quartiles over its runs, the ratio B/A, and a verdict
//! against the bound BENCHMARK.json declares. A is the parent, B the
//! change; each file holds the `--out` records of interleaved runs.

use std::path::Path;
use std::process::ExitCode;

use serde_json::Value;

use crate::report::{declared, host_dependent, Kind};
use crate::stats::quartiles;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The spread between runs exceeds the bound: no verdict either way.
    Unresolved,
    /// A wall-clock metric measured on different hosts.
    Refused,
    /// A per-layer metric: it has no bound, so only the ratio is shown.
    Reported,
}

fn summary(values: &[f64]) -> [f64; 3] {
    match values {
        [only] => [*only; 3],
        _ => quartiles(values).expect("two or more values"),
    }
}

/// Run pairs below which no gain is claimed.
const MIN_PAIRS: usize = 10;

/// The verdict on B against A for one metric. B is better than A only over
/// at least ten run pairs, when it wins nine tenths of them (in recorded
/// order) and its median is better by more than A's own spread; it is worse
/// when its median is worse by more than `bound`; a spread above `bound` on
/// either side leaves the metric unresolved unless every B run beats every
/// A run.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    higher_is_better: bool,
    bound: Option<f64>,
    same_host: bool,
) -> Verdict {
    let Some(bound) = bound else { return Verdict::Reported };
    if !same_host {
        return Verdict::Refused;
    }
    let ([a1, ma, a3], [b1, mb, b3]) = (summary(a), summary(b));
    if ma <= 0.0 || mb <= 0.0 {
        return Verdict::Unresolved;
    }
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let pairs = a.len().min(b.len());
    let all_better = pairs >= MIN_PAIRS && b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let (spread_a, spread_b) = ((a3 - a1) / ma, (b3 - b1) / mb);
    if spread_a > bound || spread_b > bound {
        return if all_better { Verdict::Better } else { Verdict::Unresolved };
    }
    let worse_by = if higher_is_better { ma / mb - 1.0 } else { mb / ma - 1.0 };
    if worse_by > bound {
        return Verdict::Worse;
    }
    let wins = a.iter().zip(b).filter(|(x, y)| better(**y, **x)).count();
    let gap = (mb - ma).abs() / ma;
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && better(mb, ma) && gap > spread_a {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

/// The distinct hosts of a set of records (the revision is left out: A and
/// B differ in it by design).
fn hosts(records: &[Value]) -> Vec<String> {
    let mut hosts: Vec<String> = records
        .iter()
        .map(|r| {
            let h = &r["host"];
            format!(
                "{} × {} / {}",
                h["nproc"].as_u64().unwrap_or(0),
                h["cpu"].as_str().unwrap_or("?"),
                h["rustc"].as_str().unwrap_or("?")
            )
        })
        .collect();
    hosts.sort();
    hosts.dedup();
    hosts
}

fn values(records: &[Value], workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| {
            r["workload"].as_str() == Some(workload) && r["trace"].as_bool() == Some(traced)
        })
        .filter_map(|r| r["metrics"][metric]["value"].as_f64())
        .collect()
}

pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (host_a, host_b) = (hosts(&a), hosts(&b));
    let same_host = host_a.len() == 1 && host_a == host_b;
    if !same_host {
        println!("hosts differ (A: {host_a:?}, B: {host_b:?}): no wall-clock verdicts");
    }
    let mut workloads: Vec<&str> = Vec::new();
    for name in a.iter().filter_map(|r| r["workload"].as_str()) {
        if !workloads.contains(&name) {
            workloads.push(name);
        }
    }
    println!(
        "{:<18} {:<34} {:>28} {:>28} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A"
    );
    for workload in workloads {
        for d in declared() {
            let traced = d.kind == Kind::PerLayer;
            let (va, vb) =
                (values(&a, workload, traced, &d.name), values(&b, workload, traced, &d.name));
            // Skip what a run did not measure, and layers it did not exercise.
            if va.is_empty() || vb.is_empty() || va.iter().chain(&vb).all(|v| *v == 0.0) {
                continue;
            }
            let comparable = same_host || !host_dependent(&d.unit);
            let v = verdict(&va, &vb, d.higher_is_better, d.bound, comparable);
            let side = |s: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", s[1], s[0], s[2]);
            let (sa, sb) = (summary(&va), summary(&vb));
            let ratio = if sa[1] != 0.0 { sb[1] / sa[1] } else { f64::NAN };
            println!(
                "{workload:<18} {:<34} {:>28} {:>28} {ratio:>8.4}  {v:?}",
                d.name,
                side(sa),
                side(sb)
            );
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 10] = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];

    #[test]
    fn a_clear_speedup_is_better() {
        let b: Vec<f64> = TIGHT_A.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&TIGHT_A, &b, false, Some(0.1), true), Verdict::Better);
        // The same numbers for a higher-is-better metric are a regression.
        assert_eq!(verdict(&TIGHT_A, &b, true, Some(0.1), true), Verdict::Worse);
    }

    #[test]
    fn a_change_within_the_bound_is_unchanged() {
        let b: Vec<f64> = TIGHT_A.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&TIGHT_A, &b, false, Some(0.1), true), Verdict::Unchanged);
        // A 2% gain that does not win nine pairs in ten is no gain.
        let mut b: Vec<f64> = TIGHT_A.iter().map(|v| v * 0.98).collect();
        b[0] = 11.0;
        b[1] = 11.0;
        assert_eq!(verdict(&TIGHT_A, &b, false, Some(0.1), true), Verdict::Unchanged);
    }

    #[test]
    fn fewer_than_ten_pairs_never_claim_a_gain() {
        let b: Vec<f64> = TIGHT_A.iter().map(|v| v * 0.5).collect();
        assert_eq!(verdict(&TIGHT_A[..9], &b[..9], false, Some(0.1), true), Verdict::Unchanged);
        assert_eq!(verdict(&[10.0], &[20.0], false, Some(0.1), true), Verdict::Worse);
    }

    #[test]
    fn a_regression_beyond_the_bound_is_worse() {
        let b: Vec<f64> = TIGHT_A.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&TIGHT_A, &b, false, Some(0.1), true), Verdict::Worse);
    }

    #[test]
    fn a_noisy_side_is_unresolved_unless_every_run_wins() {
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(verdict(&TIGHT_A, &noisy, false, Some(0.1), true), Verdict::Unresolved);
        let far: Vec<f64> = noisy.iter().map(|v| v / 10.0).collect();
        assert_eq!(verdict(&TIGHT_A, &far, false, Some(0.1), true), Verdict::Better);
    }

    #[test]
    fn different_hosts_get_no_wall_clock_verdict() {
        let b: Vec<f64> = TIGHT_A.iter().map(|v| v * 0.5).collect();
        assert_eq!(verdict(&TIGHT_A, &b, false, Some(0.1), false), Verdict::Refused);
        assert_eq!(verdict(&TIGHT_A, &b, false, None, true), Verdict::Reported);
    }
}
