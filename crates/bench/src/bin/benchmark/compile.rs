//! The in-process workloads (`paper-suite`, `dp-randwire`,
//! `capacity-concat`): one closed-loop caller compiling one graph at a time
//! with the default `Serenity` builder and no cache, as `serenity schedule`
//! does.

use std::time::{Duration, Instant};

use serenity_core::pipeline::{CompiledSchedule, Serenity};
use serenity_core::{verify, CapacityTarget};
use serenity_ir::fxhash::FxHasher;
use serenity_ir::NodeId;

use crate::inputs::{CompilePlan, Job};
use crate::replay;
use crate::report::{rss_peak_mb, Metric, Outcome};
use crate::stats::{blocked_percentile, geomean, least_disturbed, percentile, ratio, BLOCK};
use crate::trace::Recorder;

fn compiler(job: &Job) -> Serenity {
    let builder = Serenity::builder();
    match job.capacity {
        Some(bytes) => builder.capacity_target(CapacityTarget::min_traffic(bytes)),
        None => builder,
    }
    .build()
}

fn order_hash(order: &[NodeId]) -> u64 {
    use std::hash::Hasher;
    let mut h = FxHasher::default();
    for id in order {
        h.write_usize(id.index());
    }
    h.finish()
}

/// What a repeat compile must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Identity {
    peak: u64,
    transitions: u64,
    order: u64,
    arena: Option<u64>,
}

impl Identity {
    fn of(c: &CompiledSchedule) -> Identity {
        Identity {
            peak: c.peak_bytes,
            transitions: c.stats.transitions,
            order: order_hash(&c.schedule.order),
            arena: c.arena_bytes(),
        }
    }
}

/// Counts failures per job and keeps one line per distinct kind.
struct Failures {
    per_job: Vec<u64>,
    notes: Vec<String>,
}

impl Failures {
    fn new(jobs: usize) -> Failures {
        Failures { per_job: vec![0; jobs], notes: Vec::new() }
    }

    fn add(&mut self, job: usize, count: u64, note: String) {
        self.per_job[job] += count;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }

    fn total(&self) -> u64 {
        self.per_job.iter().sum()
    }
}

/// Quality of the first compile of every job: geomean peak and arena
/// reduction against the TFLite-style baseline (Kahn order; greedy-by-size
/// arena), computed by the benchmark, and the capacity outcome.
struct Quality {
    peak: Vec<f64>,
    arena: Vec<f64>,
    traffic_bytes: u64,
    fits: usize,
    assessed: usize,
}

impl Quality {
    fn of(plan: &CompilePlan, first: &[Result<CompiledSchedule, String>]) -> Quality {
        let mut q = Quality { peak: vec![], arena: vec![], traffic_bytes: 0, fits: 0, assessed: 0 };
        for (job, compiled) in plan.jobs.iter().zip(first) {
            let Ok(c) = compiled else { continue };
            let input = &plan.inputs[job.input];
            q.peak.push(input.kahn_peak() as f64 / c.peak_bytes as f64);
            if let Some(arena) = c.arena_bytes() {
                q.arena.push(input.kahn_arena() as f64 / arena as f64);
            }
            if let Some(report) = &c.capacity {
                q.assessed += 1;
                q.fits += usize::from(report.fits);
                q.traffic_bytes += report.traffic.map_or(0, |t| t.total_traffic());
            }
        }
        q
    }

    fn traffic_kb(&self) -> f64 {
        self.traffic_bytes as f64 / 1024.0
    }

    fn fit_frac(&self) -> f64 {
        ratio(self.fits as f64, self.assessed as f64)
    }
}

/// The timed run: a warm-up round whose compiles are the references, then
/// closed-loop rounds for `seconds`, then the correctness gate. `attempted`
/// counts both.
pub fn run(plan: &CompilePlan, setup_s: f64, seconds: f64) -> Outcome {
    let first = plan
        .jobs
        .iter()
        .map(|job| compiler(job).compile(&plan.inputs[job.input].graph).map_err(|e| e.to_string()))
        .collect();
    run_against(plan, first, setup_s, seconds)
}

/// The timed rounds and the gate, checked against the given first compiles.
fn run_against(
    plan: &CompilePlan,
    first: Vec<Result<CompiledSchedule, String>>,
    setup_s: f64,
    seconds: f64,
) -> Outcome {
    let compilers: Vec<Serenity> = plan.jobs.iter().map(compiler).collect();
    let graph = |j: usize| &plan.inputs[plan.jobs[j].input].graph;
    let reference: Vec<Option<Identity>> =
        first.iter().map(|r| r.as_ref().ok().map(Identity::of)).collect();

    let mut failures = Failures::new(plan.jobs.len());
    let mut runs = vec![0u64; plan.jobs.len()];
    let mut latencies = Vec::new();
    let mut rounds = Vec::new();
    let deadline = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    'rounds: loop {
        let round = Instant::now();
        for (j, compiler) in compilers.iter().enumerate() {
            if started.elapsed() >= deadline {
                break 'rounds;
            }
            let t = Instant::now();
            let result = compiler.compile(graph(j));
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            runs[j] += 1;
            let id = &plan.inputs[plan.jobs[j].input].id;
            match (result.map(|c| Identity::of(&c)), reference[j]) {
                (Ok(got), Some(want)) if got == want => {}
                (Ok(got), Some(want)) => failures.add(
                    j,
                    1,
                    format!("{id}: repeat compile {got:?} differs from the first {want:?}"),
                ),
                (Ok(_), None) => {} // counted with the failed first compile below
                (Err(e), _) => failures.add(j, 1, format!("{id}: compile failed: {e}")),
            }
        }
        rounds.push(round.elapsed().as_secs_f64());
    }
    let wall = started.elapsed().as_secs_f64();

    // The gate, outside the timed loop: certify every distinct schedule
    // (repeats that matched their first compile are the same schedule). A
    // first compile that fails or is rejected fails itself and every timed
    // run not counted yet, so it counts even when no timed run reached it.
    for (j, compiled) in first.iter().enumerate() {
        let id = &plan.inputs[plan.jobs[j].input].id;
        let verdict = match compiled {
            Ok(c) => verify::verify(graph(j), c).err().map(|f| format!("verify rejected: {f}")),
            Err(e) => Some(format!("first compile failed: {e}")),
        };
        if let Some(why) = verdict {
            failures.add(j, 1 + runs[j] - failures.per_job[j], format!("{id}: {why}"));
        }
    }

    // Timings are taken per block of whole rounds, so every block holds
    // the same mix of graphs, and per round.
    let jobs = plan.jobs.len();
    let block = jobs * BLOCK.div_ceil(jobs);
    let n = latencies.len();
    let rate = least_disturbed(&rounds).map_or(n as f64 / wall, |round| jobs as f64 / round);
    let quality = Quality::of(plan, &first);
    // The first compiles are attempts too: the timed runs are checked
    // against them.
    let attempted = (n + plan.jobs.len()) as u64;
    let failed = failures.total();
    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::sampled("latency_ms.p50", "ms", blocked_percentile(&latencies, block, 0.5), n),
            Metric::sampled("latency_ms.p90", "ms", blocked_percentile(&latencies, block, 0.9), n),
            Metric::sampled("ops_per_s", "1/s", Some(rate), n),
            Metric::new("rss_peak_mb", "MB", rss_peak_mb()),
            Metric::new("peak_reduction_x", "x", geomean(&quality.peak)),
            Metric::new("arena_reduction_x", "x", geomean(&quality.arena)),
        ],
        extra: vec![
            Metric::sampled("latency_ms.p99", "ms", percentile(&sorted, 0.99), n),
            Metric::new("failed_frac", "ratio", failed as f64 / attempted.max(1) as f64),
            Metric::new("traffic_kb", "KB", quality.traffic_kb()),
            Metric::new("fit_frac", "ratio", quality.fit_frac()),
        ],
        failures: failures.notes,
    }
}

/// The traced run: one round, each compile run untraced and then replayed
/// stage by stage (alternating which goes first), after an untraced
/// warm-up round.
pub fn trace(plan: &CompilePlan, rec: &mut Recorder) -> Outcome {
    let compilers: Vec<Serenity> = plan.jobs.iter().map(compiler).collect();
    let graph = |j: usize| &plan.inputs[plan.jobs[j].input].graph;
    for (j, c) in compilers.iter().enumerate() {
        let _ = c.compile(graph(j));
    }

    let mut failures = Failures::new(plan.jobs.len());
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut replays = Vec::new();
    for (j, job) in plan.jobs.iter().enumerate() {
        let id = plan.inputs[job.input].id.as_str();
        let target = job.capacity.map(CapacityTarget::min_traffic);
        let mut run_untraced = || {
            let t = Instant::now();
            let compiled = compilers[j].compile(graph(j));
            untraced += t.elapsed();
            compiled
        };
        let untraced_first = j % 2 == 0;
        let early = untraced_first.then(&mut run_untraced);
        let span = rec.open("compile", None, id);
        let replayed = replay::compile(graph(j), target, rec, span, id);
        rec.close(span);
        traced += rec.duration(span);
        let compiled = early.unwrap_or_else(run_untraced);
        match (compiled, replayed) {
            (Ok(c), Ok(r)) => {
                let want = (c.peak_bytes, &c.schedule.order, c.arena_bytes());
                if (r.peak, &r.order, Some(r.arena)) != want {
                    failures.add(j, 1, format!("{id}: replica drifted from Serenity::compile"));
                }
                replays.push(r);
            }
            (Err(e), _) => failures.add(j, 1, format!("{id}: compile failed: {e}")),
            (_, Err(e)) => failures.add(j, 1, format!("{id}: replay failed: {e}")),
        }
    }

    let sum = |f: &dyn Fn(&replay::Replayed) -> u64| replays.iter().map(f).sum::<u64>() as f64;
    let dp_s =
        (rec.total_ms("core.divide.schedule") + rec.total_ms("core.divide.reschedule")) / 1e3;
    let search_s = rec.total_ms("core.rewrite.search") / 1e3;
    let candidates = sum(&|r| r.search.candidates_scored as u64);
    let memo = sum(&|r| r.search.memo_hits + r.search.memo_misses);
    let rescheduled = sum(&|r| u64::from(r.rescheduled));
    let assessed: Vec<_> = replays.iter().filter_map(|r| r.report).collect();
    let traffic: u64 = assessed.iter().map(|r| r.traffic.map_or(0, |t| t.total_traffic())).sum();
    let fits = assessed.iter().filter(|r| r.fits).count();
    let arena_over_peak: Vec<f64> =
        replays.iter().filter(|r| r.peak > 0).map(|r| r.arena as f64 / r.peak as f64).collect();
    let untraced_ms = untraced.as_secs_f64() * 1e3;
    let peak_memo = replays.iter().map(|r| r.dp.peak_memo_bytes).max().unwrap_or(0);
    let measured = [
        ("core.baseline.kahn_ms", rec.total_ms("core.baseline.kahn")),
        ("core.divide.schedule_ms", rec.total_ms("core.divide.schedule")),
        ("core.divide.reschedule_ms", rec.total_ms("core.divide.reschedule")),
        ("core.dp.transitions", sum(&|r| r.dp.transitions)),
        ("core.dp.states", sum(&|r| r.dp.states)),
        ("core.dp.transitions_per_s", ratio(sum(&|r| r.dp.transitions), dp_s)),
        ("core.dp.peak_memo_mb", peak_memo as f64 / 1048576.0),
        ("core.dp.bound_pruned", sum(&|r| r.dp.bound_pruned)),
        ("core.budget.probes", sum(&|r| r.dp.probes)),
        (
            "core.pipeline.rewrite_kept_ratio",
            ratio(sum(&|r| u64::from(r.rewrite_kept)), rescheduled),
        ),
        ("core.rewrite.search_ms", rec.total_ms("core.rewrite.search")),
        ("core.rewrite.candidates", candidates),
        ("core.rewrite.accept_ratio", ratio(sum(&|r| r.search.iterations as u64), candidates)),
        ("core.rewrite.memo_hit_ratio", ratio(sum(&|r| r.search.memo_hits), memo)),
        ("core.rewrite.candidates_per_s", ratio(candidates, search_s)),
        ("core.capacity.assess_ms", rec.total_ms("core.capacity.assess")),
        ("core.capacity.traffic_kb", traffic as f64 / 1024.0),
        ("core.capacity.fit_frac", ratio(fits as f64, assessed.len() as f64)),
        ("core.canon.stackify_ms", rec.total_ms("core.canon.stackify")),
        ("allocator.plan_ms", rec.total_ms("allocator.plan")),
        ("allocator.arena_over_peak", geomean(&arena_over_peak)),
        ("trace.coverage", ratio(rec.children_ms("compile"), untraced_ms)),
        ("trace.overhead", ratio(traced.as_secs_f64() * 1e3, untraced_ms)),
    ];
    Outcome {
        attempted: plan.jobs.len() as u64,
        failed: failures.total(),
        metrics: crate::report::layers(&measured),
        extra: vec![Metric::new("trace.untraced_ms", "ms", untraced_ms)],
        failures: failures.notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_first_compile_counts_even_when_no_timed_run_reaches_it() {
        let mut plan = crate::inputs::dp_randwire(0, true);
        plan.jobs.truncate(1);
        let failed_first = || vec![Err("injected".to_string())];
        // A deadline of 0: no timed run, and the first compile alone fails.
        let outcome = run_against(&plan, failed_first(), 0.0, 0.0);
        assert_eq!((outcome.attempted, outcome.failed), (1, 1));
        assert!(!outcome.correct());
        // Timed runs have nothing to be checked against, so each fails too.
        let outcome = run_against(&plan, failed_first(), 0.0, 0.1);
        assert!(outcome.attempted > 1);
        assert_eq!(outcome.failed, outcome.attempted);
    }
}
