//! The end-to-end SERENITY pipeline (Figure 4): identity graph rewriting →
//! divide-and-conquer partitioning → pluggable backend scheduling →
//! arena memory allocation.
//!
//! Scheduling is delegated to a [`SchedulerBackend`] — adaptive soft
//! budgeting by default, or any strategy from
//! [`BackendRegistry`](crate::registry::BackendRegistry) (including the
//! multi-backend portfolio). The run is governed by [`CompileOptions`]:
//! wall-clock deadline, shared cancellation token, and a structured
//! [`CompileEvent`] sink.
//!
//! Equation (2) keeps the better of the original and the rewritten graph.
//! A compile without a deadline runs the rewrite search first. When the
//! rewritten graph's schedule peaks below
//! [`peak_lower_bound`](serenity_ir::mem::peak_lower_bound) of the original
//! (and, under a `MinTraffic` target, fits), no order of the original can
//! win, so the original is never scheduled
//! ([`CompileEvent::OriginalSkipped`]). Otherwise, and always under a
//! deadline, both graphs are scheduled and the better one is kept; a
//! deadline compile schedules the original first, so that a search stopped
//! by the deadline still has its schedule to return.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;
use serenity_allocator::{MemoryPlan, Strategy};
use serenity_ir::cuts::PartitionSummary;
use serenity_ir::Graph;

use crate::backend::{
    AdaptiveBackend, BeamBackend, BoundHandle, CancelToken, CompileContext, CompileEvent,
    CompileOptions, SchedulerBackend,
};
use crate::cache::CompileCache;
use crate::capacity::{CapacityReport, CapacityTarget};
use crate::divide::DivideAndConquer;
use crate::fault::{panic_message, FaultPlan, FaultPoint};
use crate::rewrite::{
    AppliedRewrite, RewriteSearchConfig, RewriteSearchSummary, RewriteStop, Rewriter,
};
use crate::{Schedule, ScheduleError, ScheduleStats};

/// Minimum wall-clock budget worth handing to a non-final degradation
/// rung; below this the ladder skips straight to its last (cheapest)
/// rung so a blown deadline still yields *some* valid schedule.
const MIN_RUNG_BUDGET: Duration = Duration::from_millis(5);

/// Whether graph rewriting participates in compilation.
///
/// [`RewriteMode::IfBeneficial`] (default) runs the cost-guided
/// [`RewriteSearch`](crate::rewrite::RewriteSearch): candidates are scored by
/// scheduling (see [`SerenityBuilder::rewrite_score_backend`]) and kept only
/// on strict peak reduction; the winner is then re-scheduled by the full
/// backend and still has to beat the original graph — by peaking below the
/// original's lower bound, which spares scheduling the original at all, or
/// by beating the original's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RewriteMode {
    /// Never rewrite (the paper's "Dynamic Programming + Memory Allocator"
    /// configuration).
    Off,
    /// Cost-guided search, keeping the better graph — Equation (2)'s
    /// `argmin over transformations`. The default.
    #[default]
    IfBeneficial,
}

/// Builder for [`Serenity`].
///
/// # Example: choosing a backend
///
/// Any [`SchedulerBackend`] can drive scheduling:
///
/// ```
/// use std::sync::Arc;
///
/// use serenity_core::backend::{AdaptiveBackend, DpBackend};
/// use serenity_core::budget::BudgetConfig;
/// use serenity_core::dp::DpConfig;
/// use serenity_core::pipeline::Serenity;
///
/// let dp = Serenity::builder().backend(Arc::new(DpBackend::with_config(DpConfig::default())));
/// let adaptive = Serenity::builder()
///     .backend(Arc::new(AdaptiveBackend::with_config(BudgetConfig::default())));
/// # let (_, _) = (dp.build(), adaptive.build());
/// ```
#[derive(Clone)]
pub struct SerenityBuilder {
    rewrite: RewriteMode,
    rewrite_search: RewriteSearchConfig,
    rewrite_scorer: Option<Arc<dyn SchedulerBackend>>,
    backend: Arc<dyn SchedulerBackend>,
    allocator: Option<Strategy>,
    options: CompileOptions,
    fallbacks: Vec<Arc<dyn SchedulerBackend>>,
}

impl std::fmt::Debug for SerenityBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SerenityBuilder")
            .field("rewrite", &self.rewrite)
            .field("rewrite_search", &self.rewrite_search)
            .field("rewrite_scorer", &self.rewrite_scorer.as_ref().map(|b| b.name().to_owned()))
            .field("backend", &self.backend.name())
            .field("allocator", &self.allocator)
            .field("options", &self.options)
            .field(
                "fallbacks",
                &self.fallbacks.iter().map(|b| b.name().to_owned()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Default for SerenityBuilder {
    fn default() -> Self {
        SerenityBuilder::new()
    }
}

impl SerenityBuilder {
    /// Creates the default builder: rewriting if beneficial, adaptive soft
    /// budgeting per divide-and-conquer segment, and greedy-by-size offset
    /// planning (TFLite's `ArenaPlanner` policy, which both the baseline and
    /// SERENITY numbers use in the paper's comparison).
    pub fn new() -> Self {
        SerenityBuilder {
            rewrite: RewriteMode::IfBeneficial,
            rewrite_search: RewriteSearchConfig::default(),
            rewrite_scorer: None,
            backend: Arc::new(AdaptiveBackend::default()),
            allocator: Some(Strategy::GreedyBySize),
            options: CompileOptions::default(),
            fallbacks: Vec::new(),
        }
    }

    /// Sets the rewrite mode.
    pub fn rewrite(mut self, mode: RewriteMode) -> Self {
        self.rewrite = mode;
        self
    }

    /// Tunes the cost-guided rewrite loop (iteration cap, candidate budget;
    /// only used under [`RewriteMode::IfBeneficial`]).
    pub fn rewrite_search(mut self, config: RewriteSearchConfig) -> Self {
        self.rewrite_search = config;
        self
    }

    /// Sets how many worker threads score each rewrite-loop iteration's
    /// candidate set (default 1 = serial). Parallel scoring is replayed
    /// deterministically, so any thread count compiles to a bit-identical
    /// result — this is purely a wall-clock knob.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn rewrite_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "at least one rewrite-scoring thread is required");
        self.rewrite_search.threads = threads;
        self
    }

    /// Sets the backend that *scores* rewrite candidates (default: cheap
    /// bounded-width beam search). The final winner is always re-scheduled
    /// by the full [`SerenityBuilder::backend`], so an approximate scorer
    /// can mis-rank candidates but never push the compiled result above
    /// the rewrite-off peak. The scored peak also decides the stage order:
    /// only a winner scored below the original's peak lower bound is
    /// re-scheduled before the original, and only its full-backend
    /// schedule's peak can spare the original's. A scorer that
    /// over-estimates costs that saving, never the result.
    pub fn rewrite_score_backend(mut self, backend: Arc<dyn SchedulerBackend>) -> Self {
        self.rewrite_scorer = Some(backend);
        self
    }

    /// Sets the backend that schedules each divide-and-conquer segment (an
    /// uncut graph is one segment).
    pub fn backend(mut self, backend: Arc<dyn SchedulerBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// Replaces all compile options at once.
    pub fn options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets a wall-clock deadline for each [`Serenity::compile`] call.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.options.deadline = Some(deadline);
        self
    }

    /// Shares a cancellation token with the compiler.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.options.cancel = token;
        self
    }

    /// Installs a structured event sink.
    pub fn on_event(mut self, sink: impl Fn(&CompileEvent) + Send + Sync + 'static) -> Self {
        self.options = self.options.on_event(sink);
        self
    }

    /// Shares a process-wide [`CompileCache`] with this compiler: segment
    /// schedules are replayed across [`Serenity::compile`] calls and across
    /// every compiler holding a clone of the same `Arc`. Entries are keyed
    /// by each backend's
    /// [`config_fingerprint`](SchedulerBackend::config_fingerprint), so
    /// mixing differently configured compilers on one cache is safe, and
    /// cached runs stay bit-identical to cache-free runs.
    pub fn compile_cache(mut self, cache: Arc<CompileCache>) -> Self {
        self.options.cache = Some(cache);
        self
    }

    /// Arms a fault-injection plan for every compile run (test-only
    /// surface; see [`crate::fault`]).
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.options.fault = Some(plan);
        self
    }

    /// Installs the graceful-degradation ladder consulted by
    /// [`Serenity::compile_resilient`]: when the primary backend errors,
    /// panics, or blows its deadline slice, compilation retries down this
    /// chain (e.g. `dp → beam → kahn`) instead of failing the request.
    /// Fallback rungs compile with rewriting off — their job is a cheap
    /// *valid* schedule, not an optimal one. An empty chain (the default)
    /// makes `compile_resilient` behave exactly like [`Serenity::compile`].
    pub fn fallback_backends(mut self, chain: Vec<Arc<dyn SchedulerBackend>>) -> Self {
        self.fallbacks = chain;
        self
    }

    /// Caps the search's own live memory (DP memo arenas, beam frontiers)
    /// at `bytes`; a search that crosses it fails fast with
    /// [`ScheduleError::MemoryBudgetExceeded`] — which the
    /// [fallback ladder](SerenityBuilder::fallback_backends) treats as an
    /// ordinary rung failure, degrading to a cheaper backend instead of
    /// letting the memo grow unboundedly.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.options.memory_budget = Some(bytes);
        self
    }

    /// Constrains every compile to an on-chip capacity target: the result
    /// carries a verifier-checked
    /// [`CapacityReport`], and under
    /// [`CapacityObjective::MinTraffic`](crate::capacity::CapacityObjective)
    /// the pipeline ranks candidate schedules lexicographically by
    /// `(fits, traffic, peak)` instead of peak alone (see
    /// [`crate::capacity`]).
    pub fn capacity_target(mut self, target: CapacityTarget) -> Self {
        self.options.capacity = Some(target);
        self
    }

    /// Chooses the arena allocator (`None` disables offset planning).
    pub fn allocator(mut self, strategy: Option<Strategy>) -> Self {
        self.allocator = strategy;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Serenity {
        Serenity { config: self }
    }
}

/// The SERENITY compiler.
///
/// # Example
///
/// ```
/// use serenity_core::pipeline::Serenity;
/// use serenity_ir::{DType, GraphBuilder, Padding};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new("cell");
/// let x = b.image_input("x", 8, 8, 4, DType::F32);
/// let l = b.conv1x1(x, 4)?;
/// let r = b.conv1x1(x, 4)?;
/// let cat = b.concat(&[l, r])?;
/// let y = b.conv(cat, 8, (3, 3), (1, 1), Padding::Same)?;
/// b.mark_output(y);
/// let g = b.finish();
///
/// let compiled = Serenity::builder().build().compile(&g)?;
/// assert!(compiled.peak_bytes <= compiled.baseline_peak_bytes);
/// assert!(compiled.arena.is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Serenity {
    config: SerenityBuilder,
}

/// Result of compiling a graph.
#[derive(Debug, Clone)]
pub struct CompiledSchedule {
    /// The graph that was scheduled (the rewritten one if rewriting won).
    pub graph: Graph,
    /// The chosen schedule of [`CompiledSchedule::graph`].
    pub schedule: Schedule,
    /// Peak activation footprint without the allocator, in bytes
    /// (Figure 12(b) accounting). Equal to `schedule.peak_bytes`.
    pub peak_bytes: u64,
    /// Arena layout under the configured allocator, if enabled.
    pub arena: Option<MemoryPlan>,
    /// Peak of the TensorFlow-Lite-style baseline (Kahn order) on the
    /// *original* graph, for reduction factors.
    pub baseline_peak_bytes: u64,
    /// Rewrites applied to obtain [`CompiledSchedule::graph`] (empty when the
    /// original graph was kept).
    pub rewrites: Vec<AppliedRewrite>,
    /// Report of the cost-guided rewrite loop (`None` under
    /// [`RewriteMode::Off`]). Present even when the original graph won the
    /// final comparison.
    pub rewrite_search: Option<RewriteSearchSummary>,
    /// Partition used by divide-and-conquer.
    pub partition: PartitionSummary,
    /// Aggregate search statistics (all scheduling work, including the
    /// losing rewrite candidate's — merged via [`ScheduleStats::absorb`]).
    pub stats: ScheduleStats,
    /// End-to-end compilation wall-clock time.
    pub compile_time: Duration,
    /// Capacity assessment of the chosen schedule (`None` when no
    /// [`CapacityTarget`] was configured). Recomputed independently by
    /// [`verify`](crate::verify::verify), which rejects any report that
    /// under-claims traffic or fabricates `fits`.
    pub capacity: Option<CapacityReport>,
}

impl CompiledSchedule {
    /// Peak-footprint reduction versus the TFLite-style baseline
    /// (the Figure 10 metric): `baseline / serenity`.
    pub fn reduction_factor(&self) -> f64 {
        if self.peak_bytes == 0 {
            1.0
        } else {
            self.baseline_peak_bytes as f64 / self.peak_bytes as f64
        }
    }

    /// Arena size in bytes when allocation was enabled.
    pub fn arena_bytes(&self) -> Option<u64> {
        self.arena.as_ref().map(|p| p.arena_bytes)
    }
}

/// One failed rung in the degradation ladder's provenance trail.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DegradeStep {
    /// Name of the backend that was tried.
    pub backend: String,
    /// Why it did not produce the result (error message, or
    /// `panic: ...` when the rung panicked and was contained).
    pub error: String,
}

/// Outcome of [`Serenity::compile_resilient`]: the compiled schedule
/// plus how far down the degradation ladder it came from.
#[derive(Debug)]
pub struct ResilientCompile {
    /// The compiled schedule (from the primary backend, or a fallback).
    pub compiled: CompiledSchedule,
    /// `true` when a fallback rung — not the primary backend — produced
    /// the result.
    pub degraded: bool,
    /// Name of the fallback backend that produced the result (`None`
    /// when the primary succeeded).
    pub fallback_backend: Option<String>,
    /// The rungs that failed before one succeeded (empty when the
    /// primary succeeded).
    pub attempts: Vec<DegradeStep>,
}

impl Serenity {
    /// Starts building a compiler.
    pub fn builder() -> SerenityBuilder {
        SerenityBuilder::new()
    }

    /// Compiles `graph`: rewrites (per mode), schedules, and plans memory.
    ///
    /// The deadline clock starts when this method is entered; events flow to
    /// the configured sink for the duration of the call.
    ///
    /// # Errors
    ///
    /// Propagates scheduling failures ([`ScheduleError`], including
    /// [`ScheduleError::DeadlineExceeded`] and [`ScheduleError::Cancelled`])
    /// and graph errors. A deadline compile schedules the original graph
    /// first; a deadline that passes after that — while the rewrite search
    /// scores the input graph or its candidates, or while the rewritten
    /// graph is re-scheduled — is not an error: the original's schedule is
    /// returned, with no rewrites. A search stopped while scoring the input
    /// graph reports [`RewriteStop::Deadline`] with nothing scored.
    pub fn compile(&self, graph: &Graph) -> Result<CompiledSchedule, ScheduleError> {
        let started = Instant::now();
        let ctx = CompileContext::new(self.config.options.clone());
        ctx.check()?;
        if let Some(fault) = &self.config.options.fault {
            if let Some(delay) = fault.slow_compile_delay() {
                std::thread::sleep(delay);
                // Let the deadline observe the injected slowness.
                ctx.check()?;
            }
            if fault.should_fire(FaultPoint::CompilePanic) {
                panic!("injected fault: compile panic");
            }
            if fault.should_fire(FaultPoint::BudgetExhaust) {
                // Synthesize the error the engines raise when their live
                // memo accounting crosses the budget, so the chaos suite
                // can drive the exhaustion path deterministically.
                let budget = self.config.options.memory_budget.unwrap_or(0);
                return Err(ScheduleError::MemoryBudgetExceeded {
                    used: budget.saturating_add(1),
                    budget,
                });
            }
        }
        let baseline_peak_bytes = crate::baseline::kahn(graph)?.peak_bytes;

        // Capacity mode: every candidate carries its assessment, and a
        // traffic-steering target replaces the peak-only comparisons below
        // with the lexicographic `(fits, traffic, peak)` rank.
        let steers = self.config.options.capacity.is_some_and(|t| t.steers_search());
        let mut stats = ScheduleStats::default();

        // Candidate boundaries delimit the event stream: segment/probe
        // events between two `CandidateStarted`s (or up to `CandidateKept`)
        // belong to that candidate's scheduling pass. Under a deadline the
        // original graph goes first: the rewrite search stops at the
        // deadline with its best graph so far, and the original's schedule
        // is then the answer in hand.
        let mut original = match self.config.options.deadline {
            Some(_) => Some(self.schedule_candidate(graph, false, &ctx, &mut stats)?),
            None => None,
        };

        let mut rewrite_search = None;
        let rewritten = match self.config.rewrite {
            RewriteMode::Off => None,
            RewriteMode::IfBeneficial => {
                let scorer = self
                    .config
                    .rewrite_scorer
                    .clone()
                    .unwrap_or_else(|| Arc::new(BeamBackend::default()));
                let searched_at = Instant::now();
                let search = Rewriter::standard()
                    .cost_guided()
                    .config(self.config.rewrite_search)
                    .score_backend(scorer)
                    .run(graph, &ctx);
                match search {
                    Ok(outcome) => {
                        stats.absorb(&outcome.stats);
                        let changed = outcome.changed();
                        rewrite_search = Some(outcome.summary);
                        changed.then_some((outcome.graph, outcome.applied))
                    }
                    // The deadline passed while the search scored the input
                    // graph. A deadline compile scheduled the original
                    // first, so that schedule is the answer.
                    Err(ScheduleError::DeadlineExceeded { .. }) if original.is_some() => {
                        let wall = searched_at.elapsed();
                        rewrite_search =
                            Some(RewriteSearchSummary::unscored(RewriteStop::Deadline, wall));
                        None
                    }
                    Err(other) => return Err(other),
                }
            }
        };

        // Equation (2) keeps the better of the two graphs. Every order of
        // the original peaks at or above its lower bound, so a rewritten
        // schedule below it wins outright (and, under a steering target,
        // ranks `(fits, 0, peak)` ahead of any original order once it fits):
        // then the original is never scheduled. The rewritten graph goes
        // first only when its scored peak is already below the bound.
        let mut rewritten_candidate = None;
        let mut original_skipped = false;
        if let (None, Some((rw_graph, _)), Some(summary)) = (&original, &rewritten, &rewrite_search)
        {
            let lower_bound_bytes = serenity_ir::mem::peak_lower_bound(graph);
            let beats_every_original_order = |peak: u64| peak < lower_bound_bytes;
            if beats_every_original_order(summary.final_peak_bytes) {
                let rw = self.schedule_candidate(rw_graph, true, &ctx, &mut stats)?;
                let fits = !steers || rw.report.is_some_and(|r| r.fits);
                if beats_every_original_order(rw.schedule.peak_bytes) && fits {
                    ctx.emit(CompileEvent::OriginalSkipped {
                        lower_bound_bytes,
                        rewritten_peak_bytes: rw.schedule.peak_bytes,
                    });
                    original_skipped = true;
                }
                rewritten_candidate = Some(rw);
            }
        }
        if !original_skipped && original.is_none() {
            original = Some(self.schedule_candidate(graph, false, &ctx, &mut stats)?);
        }

        if let (Some(original), Some((rw_graph, _)), None) =
            (&original, &rewritten, &rewritten_candidate)
        {
            // The rewritten candidate only wins by beating the original's
            // peak *strictly*, so seed the branch-and-bound engines with the
            // original as a tie-winning incumbent: the re-schedule prunes
            // everything that cannot beat it and exits early
            // (`BoundBeaten`) when nothing can — a cheap "keep the
            // original", not a failure. A run under a ceiling returns its
            // unbounded schedule or `BoundBeaten`, so this decides exactly
            // as an unseeded re-schedule would.
            // Under a traffic-steering target with a *spilling* incumbent
            // the peak seed would be unsound — a higher-peak order can
            // still win on traffic — so the re-schedule runs unseeded.
            // A fitting incumbent keeps the classic seed: any rival must
            // itself fit, i.e. strictly beat it on peak.
            let spilling_incumbent = steers && original.report.is_some_and(|r| !r.fits);
            let rw_ctx = if spilling_incumbent {
                ctx.clone()
            } else {
                ctx.with_bound(Some(BoundHandle::seeded_incumbent(original.schedule.peak_bytes)))
            };
            match self.schedule_candidate(rw_graph, true, &rw_ctx, &mut stats) {
                Ok(rw) => rewritten_candidate = Some(rw),
                // The rewritten graph provably cannot beat the original
                // schedule: keep the original and record the loss.
                Err(ScheduleError::BoundBeaten { .. }) => stats.bound_beaten_exits += 1,
                // The deadline passed after the search kept a rewrite: the
                // original's schedule is in hand, so it is the answer.
                Err(ScheduleError::DeadlineExceeded { .. }) => {}
                Err(other) => return Err(other),
            }
        }

        // The search already confirmed improvement under the scoring
        // backend; this final comparison under the *full* backend is what
        // guarantees compilation never regresses below rewrite-off, even
        // with an approximate scorer.
        let take_rewrite = match (&rewritten_candidate, &original) {
            // The original was skipped: it could not win.
            (Some(_), None) => true,
            (Some(rw), Some(original)) if steers => {
                rank_cmp(&rw.schedule, &rw.report, &original.schedule, &original.report)
                    == std::cmp::Ordering::Less
            }
            (Some(rw), Some(original)) => rw.schedule.peak_bytes < original.schedule.peak_bytes,
            (None, _) => false,
        };
        // Keep the summary self-consistent with the compiled artifact: a
        // winner rejected here was searched but not adopted.
        if let (Some(summary), Some(_)) = (rewrite_search.as_mut(), &rewritten) {
            summary.kept = take_rewrite;
        }
        let (chosen_graph, kept, rewrites) = match (rewritten, rewritten_candidate) {
            (Some((rw_graph, rw_applied)), Some(rw)) if take_rewrite => {
                // Narrate only the rewrites that actually end up in the
                // compiled graph; candidates losing the peak comparison are
                // not "applied" from the caller's point of view.
                for applied in &rw_applied {
                    ctx.emit(CompileEvent::RewriteApplied {
                        rule: applied.rule,
                        concat: applied.concat.clone(),
                        consumer: applied.consumer.clone(),
                        branches: applied.branches,
                    });
                }
                (rw_graph, rw, rw_applied)
            }
            _ => (graph.clone(), original.expect("scheduled unless skipped"), Vec::new()),
        };
        let (mut chosen, chosen_partition, mut chosen_report) =
            (kept.schedule, kept.partition, kept.report);
        // Among the schedules attaining the optimal peak, a run-to-completion
        // order (`canon::stackify`) often allocates more tightly — but not
        // always, so when an allocator is configured both candidates are
        // planned and the smaller arena wins at identical live peak. A
        // traffic-steering target ranks the candidates on
        // `(fits, traffic, peak)` first: the canonical order preserves the
        // peak but not necessarily the traffic, so it must not displace a
        // lower-traffic schedule, and conversely wins outright when it
        // lowers the traffic.
        let canonical = crate::canon::stackify(&chosen_graph, chosen.peak_bytes)
            .and_then(|order| Schedule::from_order(&chosen_graph, order).ok());
        let canonical = match canonical {
            Some(candidate) => {
                let report = self.assess_capacity(&chosen_graph, &candidate)?;
                Some((candidate, report))
            }
            None => None,
        };
        let mut arena = None;
        if let Some(strategy) = self.config.allocator {
            let plan_for = |schedule: &Schedule| {
                serenity_allocator::plan(&chosen_graph, &schedule.order, strategy).map_err(|e| {
                    match e {
                        serenity_allocator::AllocError::Graph(g) => ScheduleError::Graph(g),
                        other => ScheduleError::Graph(serenity_ir::GraphError::InvalidOrder {
                            detail: other.to_string(),
                        }),
                    }
                })
            };
            let mut best = plan_for(&chosen)?;
            if let Some((candidate, report)) = canonical {
                let candidate_plan = plan_for(&candidate)?;
                let accept = if steers {
                    match rank_cmp(&candidate, &report, &chosen, &chosen_report) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Equal => candidate_plan.arena_bytes < best.arena_bytes,
                        std::cmp::Ordering::Greater => false,
                    }
                } else {
                    candidate_plan.arena_bytes < best.arena_bytes
                };
                if accept {
                    chosen = candidate;
                    chosen_report = report;
                    best = candidate_plan;
                }
            }
            arena = Some(best);
        } else if let Some((candidate, report)) = canonical {
            debug_assert!(candidate.peak_bytes <= chosen.peak_bytes);
            if !steers
                || rank_cmp(&candidate, &report, &chosen, &chosen_report)
                    != std::cmp::Ordering::Greater
            {
                chosen = candidate;
                chosen_report = report;
            }
        }

        ctx.emit(CompileEvent::CandidateKept {
            rewritten: !rewrites.is_empty(),
            peak_bytes: chosen.peak_bytes,
        });
        if let Some(cache) = &self.config.options.cache {
            let snapshot = cache.stats();
            ctx.emit(CompileEvent::CacheReport {
                hits: snapshot.hits,
                misses: snapshot.misses,
                evictions: snapshot.evictions,
                entries: snapshot.entries,
                entry_bytes: snapshot.entry_bytes,
            });
        }
        let compile_time = started.elapsed();
        let compiled = CompiledSchedule {
            peak_bytes: chosen.peak_bytes,
            graph: chosen_graph,
            schedule: chosen,
            arena,
            baseline_peak_bytes,
            rewrites,
            rewrite_search,
            partition: chosen_partition,
            stats,
            compile_time,
            capacity: chosen_report,
        };
        // Debug builds certify every compile through the independent
        // checker; release builds leave verification to opt-in callers
        // (`--verify`, `?verify=1`).
        #[cfg(debug_assertions)]
        if let Err(failure) = crate::verify::verify(graph, &compiled) {
            panic!("pipeline produced an uncertifiable schedule: {failure}");
        }
        Ok(compiled)
    }

    /// Compiles `graph` with graceful degradation down the configured
    /// [`fallback chain`](SerenityBuilder::fallback_backends).
    ///
    /// With an empty chain this is exactly [`Serenity::compile`] (same
    /// behaviour, panics propagate, results bit-identical). With a chain
    /// installed, each rung — the primary backend first, then each
    /// fallback in order — is tried with a slice of the remaining
    /// wall-clock budget: non-final rungs get half of what is left (so a
    /// blown deadline cannot starve the cheaper rungs behind it), the
    /// final rung gets everything remaining, and rungs whose slice would
    /// fall below a small floor are skipped in favour of the final rung.
    /// A rung that errors, panics (contained via `catch_unwind`), or
    /// exceeds its slice is recorded in the provenance trail and the
    /// next rung runs. Fallback rungs compile with rewriting off.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Cancelled`] as soon as cancellation is observed
    /// (the ladder never retries a cancelled request); otherwise the
    /// last rung's error when every rung failed.
    pub fn compile_resilient(&self, graph: &Graph) -> Result<ResilientCompile, ScheduleError> {
        if self.config.fallbacks.is_empty() {
            return self.compile(graph).map(|compiled| ResilientCompile {
                compiled,
                degraded: false,
                fallback_backend: None,
                attempts: Vec::new(),
            });
        }
        let started = Instant::now();
        let overall_deadline = self.config.options.deadline;
        let total_rungs = 1 + self.config.fallbacks.len();
        let mut attempts = Vec::new();
        let mut last_error: Option<ScheduleError> = None;
        let rungs =
            std::iter::once(&self.config.backend).chain(self.config.fallbacks.iter()).enumerate();
        for (i, backend) in rungs {
            if self.config.options.cancel.is_cancelled() {
                return Err(ScheduleError::Cancelled);
            }
            let is_last = i + 1 == total_rungs;
            let remaining = overall_deadline.map(|d| d.saturating_sub(started.elapsed()));
            if let Some(rem) = remaining {
                if !is_last && rem < MIN_RUNG_BUDGET {
                    // Not worth burning the tail of the budget on an
                    // expensive rung: skip ahead to the cheapest one.
                    attempts.push(DegradeStep {
                        backend: backend.name().to_owned(),
                        error: format!("skipped: {rem:?} of budget left"),
                    });
                    continue;
                }
            }
            let mut rung_cfg = self.config.clone();
            rung_cfg.backend = Arc::clone(backend);
            rung_cfg.fallbacks = Vec::new();
            rung_cfg.options.deadline = match remaining {
                None => None,
                Some(rem) if is_last => Some(rem),
                Some(rem) => Some(rem / 2),
            };
            if i > 0 {
                // Fallback rungs trade optimality for certainty: no
                // rewrite search, just schedule the graph as-is.
                rung_cfg.rewrite = RewriteMode::Off;
            }
            let rung = Serenity { config: rung_cfg };
            match catch_unwind(AssertUnwindSafe(|| rung.compile(graph))) {
                Ok(Ok(compiled)) => {
                    return Ok(ResilientCompile {
                        compiled,
                        degraded: i > 0,
                        fallback_backend: (i > 0).then(|| backend.name().to_owned()),
                        attempts,
                    });
                }
                Ok(Err(ScheduleError::Cancelled)) => return Err(ScheduleError::Cancelled),
                Ok(Err(e)) => {
                    attempts.push(DegradeStep {
                        backend: backend.name().to_owned(),
                        error: e.to_string(),
                    });
                    last_error = Some(e);
                }
                Err(payload) => {
                    let detail = panic_message(payload.as_ref());
                    attempts.push(DegradeStep {
                        backend: backend.name().to_owned(),
                        error: format!("panic: {detail}"),
                    });
                    last_error = Some(ScheduleError::Panicked { detail });
                }
            }
        }
        Err(last_error.unwrap_or(ScheduleError::Cancelled))
    }

    /// Assesses `schedule` against the configured capacity target (`None`
    /// when no target is set).
    fn assess_capacity(
        &self,
        graph: &Graph,
        schedule: &Schedule,
    ) -> Result<Option<CapacityReport>, ScheduleError> {
        let Some(target) = self.config.options.capacity else {
            return Ok(None);
        };
        crate::capacity::assess_for_driver(graph, &schedule.order, target).map(Some)
    }

    /// Schedules one candidate graph (the original, or the rewritten one)
    /// through divide-and-conquer and assesses it, announcing it with
    /// [`CompileEvent::CandidateStarted`] and adding its search effort to
    /// `stats`.
    fn schedule_candidate(
        &self,
        graph: &Graph,
        rewritten: bool,
        ctx: &CompileContext,
        stats: &mut ScheduleStats,
    ) -> Result<Candidate, ScheduleError> {
        ctx.emit(CompileEvent::CandidateStarted { rewritten, nodes: graph.len() });
        let outcome = DivideAndConquer::new()
            .backend(Arc::clone(&self.config.backend))
            .schedule_with_ctx(graph, ctx)?;
        stats.absorb(&outcome.total_stats);
        let report = self.assess_capacity(graph, &outcome.schedule)?;
        Ok(Candidate { schedule: outcome.schedule, partition: outcome.partition, report })
    }
}

/// One candidate graph's schedule, as the keep-the-better comparison sees it.
struct Candidate {
    schedule: Schedule,
    partition: PartitionSummary,
    report: Option<CapacityReport>,
}

/// Orders `candidate` against `chosen` by their capacity rank
/// `(fits, traffic, peak)`; only called under a steering target, which
/// assesses every schedule.
fn rank_cmp(
    candidate: &Schedule,
    report: &Option<CapacityReport>,
    chosen: &Schedule,
    chosen_report: &Option<CapacityReport>,
) -> std::cmp::Ordering {
    report
        .as_ref()
        .expect("target set")
        .rank(candidate.peak_bytes)
        .cmp(&chosen_report.as_ref().expect("target set").rank(chosen.peak_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::BackendRegistry;
    use crate::CapacityTarget;
    use serenity_ir::{DType, GraphBuilder, Padding};

    fn concat_cell() -> Graph {
        let mut b = GraphBuilder::new("cell");
        let x = b.image_input("x", 8, 8, 8, DType::F32);
        let b1 = b.conv1x1(x, 8).unwrap();
        let b2 = b.conv1x1(x, 8).unwrap();
        let b3 = b.conv1x1(x, 8).unwrap();
        let cat = b.concat(&[b1, b2, b3]).unwrap();
        let y = b.conv(cat, 8, (3, 3), (1, 1), Padding::Same).unwrap();
        b.mark_output(y);
        b.finish()
    }

    #[test]
    fn full_pipeline_beats_baseline() {
        let g = concat_cell();
        let compiled = Serenity::builder().build().compile(&g).unwrap();
        assert!(compiled.peak_bytes <= compiled.baseline_peak_bytes);
        assert!(compiled.reduction_factor() >= 1.0);
        let arena = compiled.arena.expect("allocator enabled by default");
        arena.validate().unwrap();
        assert!(arena.arena_bytes >= compiled.peak_bytes);
    }

    #[test]
    fn rewriting_improves_this_cell() {
        let g = concat_cell();
        let without = Serenity::builder().rewrite(RewriteMode::Off).build().compile(&g).unwrap();
        let with =
            Serenity::builder().rewrite(RewriteMode::IfBeneficial).build().compile(&g).unwrap();
        assert!(with.peak_bytes < without.peak_bytes);
        assert!(!with.rewrites.is_empty());
        assert!(with.graph.len() > g.len());
    }

    #[test]
    fn if_beneficial_never_hurts() {
        // A plain chain: rewriting finds nothing, graph stays as-is.
        let mut b = GraphBuilder::new("plain");
        let x = b.image_input("x", 8, 8, 4, DType::F32);
        let y = b.conv(x, 8, (3, 3), (1, 1), Padding::Same).unwrap();
        b.mark_output(y);
        let g = b.finish();
        let compiled = Serenity::builder().build().compile(&g).unwrap();
        assert!(compiled.rewrites.is_empty());
        assert_eq!(compiled.graph, g);
    }

    #[test]
    fn allocator_can_be_disabled() {
        let g = concat_cell();
        let compiled = Serenity::builder().allocator(None).build().compile(&g).unwrap();
        assert!(compiled.arena.is_none());
    }

    #[test]
    fn schedule_covers_all_nodes() {
        let g = concat_cell();
        let compiled = Serenity::builder().build().compile(&g).unwrap();
        assert_eq!(compiled.schedule.order.len(), compiled.graph.len());
        assert!(serenity_ir::topo::is_order(&compiled.graph, &compiled.schedule.order));
    }

    #[test]
    fn every_registered_backend_compiles_the_cell() {
        let g = concat_cell();
        let registry = BackendRegistry::standard();
        for name in registry.names() {
            if name == "brute-force" {
                continue; // the rewritten cell exceeds the brute-force cap
            }
            let backend = registry.create(&name).unwrap();
            let compiled = Serenity::builder().backend(backend).build().compile(&g).unwrap();
            assert!(
                serenity_ir::topo::is_order(&compiled.graph, &compiled.schedule.order),
                "{name} produced an invalid order"
            );
            assert!(compiled.peak_bytes <= compiled.baseline_peak_bytes, "{name} lost to kahn");
        }
    }

    #[test]
    fn zero_deadline_aborts_compilation() {
        let g = concat_cell();
        let err = Serenity::builder().deadline(Duration::ZERO).build().compile(&g).unwrap_err();
        assert!(matches!(err, ScheduleError::DeadlineExceeded { .. }));
    }

    /// Compiles `g` with `builder`, collecting every event.
    fn compile_collecting(
        builder: SerenityBuilder,
        g: &Graph,
    ) -> (Result<CompiledSchedule, ScheduleError>, Vec<CompileEvent>) {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<CompileEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let compiled =
            builder.on_event(move |e| sink.lock().unwrap().push(e.clone())).build().compile(g);
        let events = seen.lock().unwrap().clone();
        (compiled, events)
    }

    /// The `rewritten` flags of the candidates in `events`, in order.
    fn candidates(events: &[CompileEvent]) -> Vec<bool> {
        events
            .iter()
            .filter_map(|e| match e {
                CompileEvent::CandidateStarted { rewritten, .. } => Some(*rewritten),
                _ => None,
            })
            .collect()
    }

    /// The `OriginalSkipped` event's `(lower bound, rewritten peak)`, if any.
    fn original_skipped(events: &[CompileEvent]) -> Option<(u64, u64)> {
        events.iter().find_map(|e| match e {
            CompileEvent::OriginalSkipped { lower_bound_bytes, rewritten_peak_bytes } => {
                Some((*lower_bound_bytes, *rewritten_peak_bytes))
            }
            _ => None,
        })
    }

    /// An 8-node concat RandWire cell at 16×16×12 with the given wiring seed.
    fn concat_n8(seed: u64) -> Graph {
        use serenity_nets::randwire::{randwire_cell, Aggregation, RandWireConfig};
        randwire_cell(&RandWireConfig {
            nodes: 8,
            seed,
            hw: 16,
            channels: 12,
            aggregation: Aggregation::Concat,
            ..Default::default()
        })
    }

    #[test]
    fn events_narrate_the_compile() {
        let g = concat_cell();
        let (compiled, events) = compile_collecting(Serenity::builder(), &g);
        let compiled = compiled.unwrap();
        let applied =
            events.iter().filter(|e| matches!(e, CompileEvent::RewriteApplied { .. })).count();
        assert_eq!(
            applied,
            compiled.rewrites.len(),
            "exactly the kept rewrites should be narrated"
        );
        assert!(applied > 0, "this cell rewrites beneficially");
        assert!(
            events.iter().any(|e| matches!(e, CompileEvent::SegmentScheduled { .. })),
            "segments should be narrated"
        );
        assert!(
            events.iter().any(|e| matches!(e, CompileEvent::BudgetProbe { .. })),
            "budget probes should be narrated"
        );
        // Without a deadline the rewrite search runs before any candidate
        // is scheduled, and candidate boundaries then attribute segment and
        // probe events to a pass. This cell's rewritten schedule peaks below
        // the original's lower bound, so the skip is narrated inside the
        // rewritten graph's pass, which is the only one.
        let position = |event: fn(&CompileEvent) -> bool| {
            events.iter().position(event).expect("the event is narrated")
        };
        let search_end = position(|e| matches!(e, CompileEvent::RewriteSearchFinished { .. }));
        let rewritten_pass =
            position(|e| matches!(e, CompileEvent::CandidateStarted { rewritten: true, .. }));
        let skip = position(|e| matches!(e, CompileEvent::OriginalSkipped { .. }));
        assert!(search_end < rewritten_pass && rewritten_pass < skip);
        assert_eq!(candidates(&events), [true], "the original is never scheduled");
        // The closing event reports the kept schedule.
        match events.last() {
            Some(CompileEvent::CandidateKept { rewritten, peak_bytes }) => {
                assert_eq!(*rewritten, !compiled.rewrites.is_empty());
                assert_eq!(*peak_bytes, compiled.peak_bytes);
            }
            other => panic!("stream must end with CandidateKept, got {other:?}"),
        }
    }

    #[test]
    fn the_original_is_not_scheduled_once_the_rewritten_peak_is_below_its_lower_bound() {
        let g = serenity_nets::suite::by_id("swiftnet-c").unwrap().graph;
        let (compiled, events) = compile_collecting(Serenity::builder(), &g);
        let compiled = compiled.unwrap();
        assert!(!compiled.rewrites.is_empty());
        assert_eq!(candidates(&events), [true], "only the rewritten graph is scheduled");
        let lower_bound = serenity_ir::mem::peak_lower_bound(&g);
        assert_eq!(original_skipped(&events), Some((lower_bound, compiled.peak_bytes)));
        assert!(compiled.peak_bytes < lower_bound);
        // The compile's effort is the search's plus the rewritten graph's
        // re-schedule, and nothing for the original.
        let search = Rewriter::standard()
            .cost_guided()
            .config(RewriteSearchConfig::default())
            .score_backend(Arc::new(BeamBackend::default()))
            .run_unconstrained(&g)
            .unwrap();
        let reschedule = DivideAndConquer::new().schedule(&search.graph).unwrap();
        assert_eq!(
            compiled.stats.transitions,
            search.stats.transitions + reschedule.total_stats.transitions
        );
    }

    #[test]
    fn the_original_is_still_scheduled_when_the_rewritten_peak_only_equals_its_lower_bound() {
        let g = concat_n8(12885793570690362751);
        let lower_bound = serenity_ir::mem::peak_lower_bound(&g);
        assert_eq!(lower_bound, 73_728);
        let unrewritten =
            Serenity::builder().rewrite(RewriteMode::Off).build().compile(&g).unwrap();
        assert_eq!(unrewritten.peak_bytes, 122_880);
        let (compiled, events) = compile_collecting(Serenity::builder(), &g);
        let compiled = compiled.unwrap();
        // The rewritten graph wins at exactly the bound, which an order of
        // the original might still reach.
        assert!(!compiled.rewrites.is_empty());
        assert_eq!(compiled.peak_bytes, lower_bound);
        assert_eq!(original_skipped(&events), None);
        assert!(candidates(&events).contains(&false), "the original is scheduled");
    }

    #[test]
    fn the_original_is_still_scheduled_when_the_rewritten_schedule_spills() {
        let g = concat_n8(6250656045483285107);
        let lower_bound = serenity_ir::mem::peak_lower_bound(&g);
        assert_eq!(lower_bound, 122_880);
        let target = CapacityTarget::min_traffic(54_067);
        let (compiled, events) =
            compile_collecting(Serenity::builder().capacity_target(target), &g);
        let compiled = compiled.unwrap();
        // The rewritten graph is kept, far below the bound, but it spills,
        // so an order of the original could still rank ahead on traffic.
        assert!(!compiled.rewrites.is_empty());
        assert_eq!(compiled.peak_bytes, 61_440);
        assert!(!compiled.capacity.expect("target set").fits);
        assert_eq!(original_skipped(&events), None);
        assert_eq!(candidates(&events), [true, false], "the original is scheduled second");
    }

    #[test]
    fn a_deadline_compile_schedules_the_original_first() {
        let g = serenity_nets::suite::by_id("swiftnet-c").unwrap().graph;
        let builder = Serenity::builder();
        let (free, _) = compile_collecting(builder.clone(), &g);
        let (bounded, events) = compile_collecting(builder.deadline(Duration::from_secs(3600)), &g);
        let (free, bounded) = (free.unwrap(), bounded.unwrap());
        assert_eq!(candidates(&events), [false, true]);
        assert_eq!(original_skipped(&events), None);
        assert_eq!(
            (bounded.peak_bytes, bounded.arena_bytes(), bounded.schedule.order),
            (free.peak_bytes, free.arena_bytes(), free.schedule.order)
        );
    }

    /// Scores its first `free_calls` calls with the beam, then stalls every
    /// later call until the compile's deadline has passed. Raising `stall`
    /// ends the free calls early.
    struct StallingScorer {
        free_calls: usize,
        calls: std::sync::atomic::AtomicUsize,
        stall: Arc<std::sync::atomic::AtomicBool>,
    }

    impl SchedulerBackend for StallingScorer {
        fn name(&self) -> &str {
            "stalling-scorer"
        }

        fn schedule(
            &self,
            graph: &Graph,
            ctx: &CompileContext,
        ) -> Result<crate::backend::BackendOutcome, ScheduleError> {
            use std::sync::atomic::Ordering::Relaxed;
            if self.calls.fetch_add(1, Relaxed) >= self.free_calls || self.stall.load(Relaxed) {
                let deadline = ctx.options().deadline.expect("compiled under a deadline");
                std::thread::sleep(
                    deadline.saturating_sub(ctx.elapsed()) + Duration::from_millis(1),
                );
                ctx.check()?;
            }
            BeamBackend::default().schedule(graph, ctx)
        }
    }

    #[test]
    fn a_deadline_while_scoring_the_input_graph_returns_the_original_schedule() {
        // The scorer stalls on its first call, while the search scores the
        // input graph: the search stops unscored, and the original's
        // schedule, already in hand, is the answer.
        let g = concat_cell();
        let scorer =
            StallingScorer { free_calls: 0, calls: Default::default(), stall: Default::default() };
        let (compiled, events) = compile_collecting(
            Serenity::builder()
                .rewrite_score_backend(Arc::new(scorer))
                .deadline(Duration::from_millis(300)),
            &g,
        );
        let compiled = compiled.expect("the original's schedule is returned");
        let summary = compiled.rewrite_search.expect("the search ran");
        assert_eq!(summary.stop, RewriteStop::Deadline);
        assert_eq!((summary.candidates_scored, summary.initial_peak_bytes), (0, 0));
        assert!(compiled.rewrites.is_empty());
        assert_eq!(candidates(&events), [false]);
        let original = Serenity::builder().rewrite(RewriteMode::Off).build().compile(&g).unwrap();
        assert_eq!(
            (compiled.peak_bytes, compiled.schedule.order),
            (original.peak_bytes, original.schedule.order)
        );
    }

    #[test]
    fn a_deadline_during_candidate_scoring_returns_the_original_schedule() {
        // The scorer scores the input graph, one call per segment, then
        // stalls on the first candidate. The search stops at the deadline
        // with the input graph, and the original's schedule, already in
        // hand, is the answer.
        let g = concat_cell();
        let scorer = StallingScorer {
            free_calls: serenity_ir::cuts::partition(&g).segments.len(),
            calls: Default::default(),
            stall: Default::default(),
        };
        let (compiled, events) = compile_collecting(
            Serenity::builder()
                .rewrite_score_backend(Arc::new(scorer))
                .deadline(Duration::from_millis(300)),
            &g,
        );
        let compiled = compiled.expect("the original's schedule is returned");
        let summary = compiled.rewrite_search.expect("the search ran");
        assert_eq!(summary.stop, crate::rewrite::RewriteStop::Deadline);
        assert!(compiled.rewrites.is_empty());
        assert_eq!(candidates(&events), [false]);
        let original = Serenity::builder().rewrite(RewriteMode::Off).build().compile(&g).unwrap();
        assert_eq!(
            (compiled.peak_bytes, compiled.schedule.order),
            (original.peak_bytes, original.schedule.order)
        );
    }

    #[test]
    fn a_deadline_after_a_kept_rewrite_returns_the_original_schedule() {
        use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
        use std::sync::Mutex;
        // The scorer stalls once the search has kept a rewrite, so the
        // search stops at the deadline with a rewritten graph whose
        // re-schedule then fails on the deadline. The original's schedule,
        // already in hand, is the answer.
        let g = serenity_nets::suite::by_id("swiftnet-c").unwrap().graph;
        let stall = Arc::new(AtomicBool::new(false));
        let scorer = StallingScorer {
            free_calls: usize::MAX,
            calls: Default::default(),
            stall: Arc::clone(&stall),
        };
        let seen: Arc<Mutex<Vec<CompileEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let compiled = Serenity::builder()
            .rewrite_score_backend(Arc::new(scorer))
            .deadline(Duration::from_secs(2))
            .on_event(move |e| {
                if matches!(e, CompileEvent::RewriteCandidateKept { .. }) {
                    stall.store(true, Relaxed);
                }
                sink.lock().unwrap().push(e.clone());
            })
            .build()
            .compile(&g)
            .expect("the original's schedule is returned");
        let summary = compiled.rewrite_search.expect("the search ran");
        assert_eq!(summary.stop, crate::rewrite::RewriteStop::Deadline);
        assert!(summary.applied > 0, "the search stops with a rewritten graph: {summary:?}");
        assert!(!summary.kept);
        assert!(compiled.rewrites.is_empty());
        assert_eq!(candidates(&seen.lock().unwrap()), [false, true]);
        let original = Serenity::builder().rewrite(RewriteMode::Off).build().compile(&g).unwrap();
        assert_eq!(
            (compiled.peak_bytes, compiled.schedule.order),
            (original.peak_bytes, original.schedule.order)
        );
    }

    #[test]
    fn losing_rewrite_candidates_are_not_narrated_as_applied() {
        use std::sync::Mutex;
        // Whether the rewritten candidate wins or loses the final
        // comparison, only the rewrites the compiled graph keeps may be
        // narrated as applied.
        let g = concat_cell();
        let seen: Arc<Mutex<Vec<CompileEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let compiled = Serenity::builder()
            .rewrite(RewriteMode::IfBeneficial)
            .on_event(move |e| sink.lock().unwrap().push(e.clone()))
            .build()
            .compile(&g)
            .unwrap();
        let narrated = seen
            .lock()
            .unwrap()
            .iter()
            .filter(|e| matches!(e, CompileEvent::RewriteApplied { .. }))
            .count();
        // Invariant under either outcome: narration matches what was kept.
        assert_eq!(narrated, compiled.rewrites.len());
    }

    #[test]
    fn portfolio_backend_narrates_its_choice_through_the_pipeline() {
        use std::sync::Mutex;
        let g = concat_cell();
        let seen: Arc<Mutex<Vec<CompileEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        Serenity::builder()
            .backend(Arc::new(crate::registry::PortfolioBackend::standard()))
            .on_event(move |e| sink.lock().unwrap().push(e.clone()))
            .build()
            .compile(&g)
            .unwrap();
        assert!(seen
            .lock()
            .unwrap()
            .iter()
            .any(|e| matches!(e, CompileEvent::BackendChosen { .. })));
    }

    #[test]
    fn portfolio_compiles_match_adaptive_with_and_without_a_cache() {
        // On the original-first path, which a deadline selects, the
        // rewritten graph's re-schedule runs every divide-and-conquer
        // segment under one seeded ceiling. A portfolio that fed one
        // segment's peak into the next segment's ceiling returned 230,400 B
        // on SwiftNet-A cache-free, where `adaptive` (its first member)
        // returns 184,320 B. Without a deadline the rewritten graph is
        // re-scheduled first, with no ceiling.
        let graphs = [
            serenity_nets::suite::by_id("swiftnet-a").unwrap().graph,
            serenity_nets::swiftnet::swiftnet(),
        ];
        for deadline in [None, Some(Duration::from_secs(3600))] {
            let compile = |backend: Arc<dyn SchedulerBackend>, cache: Option<Arc<CompileCache>>| {
                let mut builder = Serenity::builder().backend(backend);
                if let Some(cache) = cache {
                    builder = builder.compile_cache(cache);
                }
                if let Some(deadline) = deadline {
                    builder = builder.deadline(deadline);
                }
                let serenity = builder.build();
                move |g: &Graph| {
                    let compiled = serenity.compile(g).unwrap();
                    (compiled.peak_bytes, compiled.arena_bytes(), compiled.schedule.order)
                }
            };
            let adaptive = compile(Arc::new(AdaptiveBackend::default()), None);
            let portfolio = || Arc::new(crate::registry::PortfolioBackend::standard());
            let cache_free = compile(portfolio(), None);
            let cached = compile(portfolio(), Some(Arc::new(CompileCache::new())));
            for g in &graphs {
                let expected = adaptive(g);
                let label = format!("{} under deadline {deadline:?}", g.name());
                assert_eq!(cache_free(g), expected, "cache-free portfolio on {label}");
                assert_eq!(cached(g), expected, "cached portfolio on {label}");
            }
        }
    }

    /// A backend that always panics, for ladder containment tests.
    struct PanickingBackend;

    impl SchedulerBackend for PanickingBackend {
        fn name(&self) -> &str {
            "panicking-test-backend"
        }

        fn schedule(
            &self,
            _graph: &Graph,
            _ctx: &CompileContext,
        ) -> Result<crate::backend::BackendOutcome, ScheduleError> {
            panic!("deliberate test panic");
        }
    }

    #[test]
    fn resilient_with_empty_chain_matches_plain_compile() {
        let g = concat_cell();
        let plain = Serenity::builder().build().compile(&g).unwrap();
        let resilient = Serenity::builder().build().compile_resilient(&g).unwrap();
        assert!(!resilient.degraded);
        assert!(resilient.attempts.is_empty());
        assert_eq!(resilient.compiled.peak_bytes, plain.peak_bytes);
        assert_eq!(resilient.compiled.schedule.order, plain.schedule.order);
    }

    #[test]
    fn ladder_degrades_past_a_panicking_primary() {
        let g = concat_cell();
        let registry = BackendRegistry::standard();
        let resilient = Serenity::builder()
            .backend(Arc::new(PanickingBackend))
            .fallback_backends(vec![registry.create("kahn").unwrap()])
            .build()
            .compile_resilient(&g)
            .unwrap();
        assert!(resilient.degraded);
        assert_eq!(resilient.fallback_backend.as_deref(), Some("kahn"));
        assert_eq!(resilient.attempts.len(), 1);
        assert!(resilient.attempts[0].error.contains("panic"));
        assert!(serenity_ir::topo::is_order(
            &resilient.compiled.graph,
            &resilient.compiled.schedule.order
        ));
    }

    #[test]
    fn ladder_reports_every_failed_rung_when_all_fail() {
        let g = concat_cell();
        let err = Serenity::builder()
            .backend(Arc::new(PanickingBackend))
            .fallback_backends(vec![Arc::new(PanickingBackend)])
            .build()
            .compile_resilient(&g)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Panicked { .. }));
    }

    #[test]
    fn ladder_never_retries_a_cancelled_compile() {
        let g = concat_cell();
        let token = CancelToken::new();
        token.cancel();
        let registry = BackendRegistry::standard();
        let err = Serenity::builder()
            .cancel_token(token)
            .fallback_backends(vec![registry.create("kahn").unwrap()])
            .build()
            .compile_resilient(&g)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Cancelled));
    }

    #[test]
    fn ladder_recovers_from_a_blown_deadline() {
        // A zero deadline fails the primary (and every budgeted rung),
        // but the final rung still runs with whatever is left — the
        // cheap list scheduler finishes effectively instantly.
        let g = concat_cell();
        let registry = BackendRegistry::standard();
        let resilient = Serenity::builder()
            .deadline(Duration::ZERO)
            .fallback_backends(vec![registry.create("kahn").unwrap()])
            .build()
            .compile_resilient(&g);
        // The final rung gets a zero budget too, so either outcome is a
        // structured one: a degraded schedule or a typed deadline error.
        match resilient {
            Ok(r) => assert!(r.degraded),
            Err(e) => assert!(matches!(e, ScheduleError::DeadlineExceeded { .. })),
        }
    }

    #[test]
    fn injected_compile_panic_fires_then_clears() {
        let g = concat_cell();
        let plan =
            Arc::new(crate::fault::FaultPlan::parse("compile-panic=1", 0).expect("plan parses"));
        let compiler = Serenity::builder().fault_plan(Arc::clone(&plan)).build();
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| compiler.compile(&g))).is_err();
        assert!(panicked, "armed compile-panic point must fire");
        assert_eq!(plan.fired(FaultPoint::CompilePanic), 1);
        let second = compiler.compile(&g).expect("count exhausted, compile succeeds");
        let clean = Serenity::builder().build().compile(&g).expect("fault-free compile");
        assert_eq!(second.peak_bytes, clean.peak_bytes, "fault harness must not change results");
        assert_eq!(second.schedule.order, clean.schedule.order);
    }

    #[test]
    fn injected_slow_compile_trips_the_deadline() {
        let g = concat_cell();
        let plan = Arc::new(
            crate::fault::FaultPlan::parse("slow-compile=1:30ms", 0).expect("plan parses"),
        );
        let err = Serenity::builder()
            .fault_plan(plan)
            .deadline(Duration::from_millis(5))
            .build()
            .compile(&g)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::DeadlineExceeded { .. }));
    }
}
