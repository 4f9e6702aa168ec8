//! A stage-by-stage replica of `Serenity::compile` (crates/core/src/
//! pipeline.rs) for the configuration the in-process workloads compile
//! with: the default builder — adaptive backend, cost-guided rewriting
//! scored by beam search, divide-and-conquer, greedy-by-size arena, no
//! cache — optionally under a `MinTraffic` capacity target.
//!
//! Every stage is one call into a public function of the program, timed as
//! one span. The program itself stays untouched. The traced run checks the
//! replica's (peak, order, arena) against the untraced compile of the same
//! graph; a mismatch fails the run, because it means this file has drifted
//! from the pipeline.

use std::cmp::Ordering;
use std::sync::Arc;

use serenity_allocator::{plan, MemoryPlan, Strategy};
use serenity_core::backend::{AdaptiveBackend, BeamBackend};
use serenity_core::divide::DivideAndConquer;
use serenity_core::rewrite::{RewriteSearchConfig, RewriteSearchSummary, Rewriter};
use serenity_core::{
    baseline, canon, capacity, BoundHandle, CapacityReport, CapacityTarget, CompileContext,
    CompileOptions, Schedule, ScheduleError, ScheduleStats,
};
use serenity_ir::{Graph, NodeId};

use crate::trace::Recorder;

pub struct Replayed {
    pub peak: u64,
    pub order: Vec<NodeId>,
    pub arena: u64,
    /// Effort of the DP schedules (the input graph and the re-schedule);
    /// the rewrite search's scoring effort is in `search`.
    pub dp: ScheduleStats,
    pub search: RewriteSearchSummary,
    /// Whether the rewritten graph was re-scheduled, and whether it won.
    pub rescheduled: bool,
    pub rewrite_kept: bool,
    pub report: Option<CapacityReport>,
}

/// Where the spans of one replayed compile go.
struct Spans<'a> {
    rec: &'a mut Recorder,
    parent: usize,
    subject: &'a str,
}

impl Spans<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.rec.time(name, Some(self.parent), self.subject, f)
    }

    fn assess(
        &mut self,
        graph: &Graph,
        schedule: &Schedule,
        target: Option<CapacityTarget>,
    ) -> Result<Option<CapacityReport>, String> {
        let Some(target) = target else { return Ok(None) };
        self.time("core.capacity.assess", || capacity::assess(graph, &schedule.order, target))
            .map(Some)
            .map_err(|e| e.to_string())
    }

    fn plan(&mut self, graph: &Graph, schedule: &Schedule) -> Result<MemoryPlan, String> {
        self.time("allocator.plan", || plan(graph, &schedule.order, Strategy::GreedyBySize))
            .map_err(|e| e.to_string())
    }
}

fn rank(report: &Option<CapacityReport>, schedule: &Schedule) -> (u64, u64, u64) {
    report.as_ref().expect("a steering target assesses every schedule").rank(schedule.peak_bytes)
}

/// Replays one compile of `graph`, recording its stage spans under
/// `parent`.
pub fn compile(
    graph: &Graph,
    target: Option<CapacityTarget>,
    rec: &mut Recorder,
    parent: usize,
    subject: &str,
) -> Result<Replayed, String> {
    let mut spans = Spans { rec, parent, subject };
    let ctx = CompileContext::new(CompileOptions { capacity: target, ..CompileOptions::default() });
    let divide = DivideAndConquer::new().backend(Arc::new(AdaptiveBackend::default()));
    let failed = |e: ScheduleError| e.to_string();

    spans.time("core.baseline.kahn", || baseline::kahn(graph)).map_err(|e| e.to_string())?;
    let original = spans
        .time("core.divide.schedule", || divide.schedule_with_ctx(graph, &ctx))
        .map_err(failed)?;
    let mut chosen_graph = graph.clone();
    let mut chosen = original.schedule;
    let mut dp = original.total_stats;
    let steers = target.is_some_and(|t| t.steers_search());
    let mut chosen_report = spans.assess(&chosen_graph, &chosen, target)?;

    let search = Rewriter::standard()
        .cost_guided()
        .config(RewriteSearchConfig::default())
        .score_backend(Arc::new(BeamBackend::default()));
    let outcome = spans.time("core.rewrite.search", || search.run(graph, &ctx)).map_err(failed)?;
    let (mut rescheduled, mut rewrite_kept) = (false, false);
    if !outcome.applied.is_empty() {
        rescheduled = true;
        // A spilling incumbent under a traffic objective must not seed the
        // bound: a higher-peak order can still move less traffic.
        let spilling = steers && chosen_report.as_ref().is_some_and(|r| !r.fits);
        let rw_ctx = if spilling {
            ctx.clone()
        } else {
            ctx.with_bound(Some(BoundHandle::seeded_incumbent(chosen.peak_bytes)))
        };
        let rw_graph = outcome.graph;
        match spans.time("core.divide.reschedule", || divide.schedule_with_ctx(&rw_graph, &rw_ctx))
        {
            Ok(rw) => {
                let rw_report = spans.assess(&rw_graph, &rw.schedule, target)?;
                let take = if steers {
                    rank(&rw_report, &rw.schedule) < rank(&chosen_report, &chosen)
                } else {
                    rw.schedule.peak_bytes < chosen.peak_bytes
                };
                dp.absorb(&rw.total_stats);
                if take {
                    chosen_graph = rw_graph;
                    chosen = rw.schedule;
                    chosen_report = rw_report;
                    rewrite_kept = true;
                }
            }
            // The rewritten graph provably cannot beat the original.
            Err(ScheduleError::BoundBeaten { .. }) => {}
            Err(other) => return Err(other.to_string()),
        }
    }

    let canonical = spans.time("core.canon.stackify", || {
        canon::stackify(&chosen_graph, chosen.peak_bytes)
            .and_then(|order| Schedule::from_order(&chosen_graph, order).ok())
    });
    let mut best = spans.plan(&chosen_graph, &chosen)?;
    if let Some(candidate) = canonical {
        let report = spans.assess(&chosen_graph, &candidate, target)?;
        let candidate_plan = spans.plan(&chosen_graph, &candidate)?;
        let smaller_arena = candidate_plan.arena_bytes < best.arena_bytes;
        let accept = if steers {
            match rank(&report, &candidate).cmp(&rank(&chosen_report, &chosen)) {
                Ordering::Less => true,
                Ordering::Equal => smaller_arena,
                Ordering::Greater => false,
            }
        } else {
            smaller_arena
        };
        if accept {
            chosen = candidate;
            chosen_report = report;
            best = candidate_plan;
        }
    }
    Ok(Replayed {
        peak: chosen.peak_bytes,
        order: chosen.order,
        arena: best.arena_bytes,
        dp,
        search: outcome.summary,
        rescheduled,
        rewrite_kept,
        report: chosen_report,
    })
}
