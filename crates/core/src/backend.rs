//! The pluggable scheduling API: [`SchedulerBackend`] and the compile
//! control plane ([`CompileOptions`], [`CompileContext`], [`CompileEvent`]).
//!
//! The paper's pipeline (Figure 4) composes interchangeable search
//! strategies — exact DP (§3.1), adaptive soft budgeting (§3.2), and the
//! baselines it compares against. This module makes that composition a
//! first-class, open API: every strategy implements [`SchedulerBackend`],
//! the pipeline and divide-and-conquer drivers accept any backend, and
//! [`crate::registry::BackendRegistry`] exposes them by name (including to
//! the `serenity schedule --scheduler <name>` CLI).
//!
//! The control plane threads three concerns through every backend:
//!
//! * a **wall-clock deadline** relative to the start of the compile,
//! * a **shared cancellation flag** ([`CancelToken`]) checked inside the
//!   DP/budget inner loops, and
//! * a **structured event sink** ([`CompileEvent`]) replacing silent
//!   compilation: rewrites, segment completions, budget probes, and backend
//!   choices are reported as they happen.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//!
//! use serenity_core::backend::{
//!     CompileContext, CompileOptions, DpBackend, SchedulerBackend,
//! };
//! use serenity_core::ScheduleError;
//! use serenity_ir::random_dag::independent_branches;
//!
//! let graph = independent_branches(6, 16);
//!
//! // Unconstrained run.
//! let ctx = CompileContext::unconstrained();
//! let outcome = DpBackend::default().schedule(&graph, &ctx).unwrap();
//! assert_eq!(outcome.schedule.order.len(), graph.len());
//!
//! // A zero deadline aborts with a distinct error instead of a bogus
//! // schedule.
//! let ctx = CompileContext::new(CompileOptions::new().deadline(Duration::ZERO));
//! let err = DpBackend::default().schedule(&graph, &ctx).unwrap_err();
//! assert!(matches!(err, ScheduleError::DeadlineExceeded { .. }));
//! ```

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serenity_ir::fxhash::FxHasher;
use serenity_ir::{Graph, NodeId};

use crate::baseline;
use crate::beam::BeamScheduler;
use crate::budget::{AdaptiveSoftBudget, BudgetConfig, RoundFlag};
use crate::cache::CompileCache;
use crate::capacity::CapacityTarget;
use crate::dp::{DpConfig, DpScheduler};
use crate::fault::FaultPlan;
use crate::{Schedule, ScheduleError, ScheduleStats};

/// Canonical backend-identity hash for
/// [`SchedulerBackend::config_fingerprint`] implementations: folds the
/// backend name and its result-affecting configuration words into one
/// stable 64-bit key. Encode an `Option<T>` knob as two words
/// (`0`/`1` discriminant, then the value or `0`) so `None` can never alias
/// a legitimate value.
pub fn config_fingerprint_of(name: &str, parts: &[u64]) -> u64 {
    let mut hasher = FxHasher::default();
    name.hash(&mut hasher);
    for &part in parts {
        hasher.write_u64(part);
    }
    hasher.finish()
}

/// Encodes one optional configuration knob for [`config_fingerprint_of`].
fn opt_part(value: Option<u64>) -> [u64; 2] {
    match value {
        Some(v) => [1, v],
        None => [0, 0],
    }
}

/// Shared cancellation flag, cloneable across threads.
///
/// Cancelling is sticky: once [`CancelToken::cancel`] is called every clone
/// observes it and in-flight schedules abort with
/// [`ScheduleError::Cancelled`] at their next check point.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation of every run holding a clone of this token.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// An incumbent peak ceiling for branch-and-bound cutoffs, carried by
/// [`CompileContext::with_bound`]: a run under it may discard every state
/// whose running peak exceeds [`BoundHandle::max_viable_peak`]. Running
/// peaks are monotone along a schedule path, so such a state can never
/// complete into a schedule that beats the incumbent, and a run that
/// completes under the ceiling returns exactly its unbounded result.
///
/// The ceiling is a plain value: runs never publish into it, so one
/// divide-and-conquer segment can never constrain another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundHandle {
    /// The incumbent peak in bytes.
    peak: u64,
    /// Whether merely equalling the incumbent already loses.
    ties_lose: bool,
}

impl BoundHandle {
    /// A ceiling whose incumbent *wins ties*: the run gives up even on
    /// equalling `peak_bytes`, pruning above `peak_bytes − 1` (the
    /// pipeline's "keep the original unless strictly better" rule).
    pub fn seeded_incumbent(peak_bytes: u64) -> Self {
        BoundHandle { peak: peak_bytes, ties_lose: true }
    }

    /// A ceiling whose incumbent *loses ties*: the run prunes only states
    /// strictly above `peak_bytes` (the rewrite scorer's "a plateau tie is
    /// still acceptable" rule).
    pub fn seeded_weak(peak_bytes: u64) -> Self {
        BoundHandle { peak: peak_bytes, ties_lose: false }
    }

    /// The largest running peak that can still beat the incumbent; states
    /// strictly above it may be discarded.
    pub fn max_viable_peak(&self) -> u64 {
        if self.ties_lose {
            self.peak.saturating_sub(1)
        } else {
            self.peak
        }
    }

    /// The incumbent peak to report in
    /// [`ScheduleError::BoundBeaten`](crate::ScheduleError).
    pub fn beaten_by(&self) -> u64 {
        self.peak
    }
}

/// Structured events emitted during compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompileEvent {
    /// An identity graph rewrite was applied.
    RewriteApplied {
        /// Rule name.
        rule: &'static str,
        /// Name of the rewritten concat node.
        concat: String,
        /// Name of the rewritten consumer node.
        consumer: String,
        /// Number of branches partitioned.
        branches: usize,
    },
    /// A divide-and-conquer segment finished scheduling.
    SegmentScheduled {
        /// Segment index in series order.
        index: usize,
        /// Parent-graph nodes in the segment.
        nodes: usize,
        /// Peak footprint of the segment schedule in bytes.
        peak_bytes: u64,
    },
    /// The pipeline started scheduling one candidate graph (the original,
    /// or the rewritten one under `RewriteMode::IfBeneficial`).
    ///
    /// Delimits the event stream: every `SegmentScheduled`/`BudgetProbe`
    /// that follows belongs to this candidate, until the next
    /// `CandidateStarted` or the closing `CandidateKept`. A compile without
    /// a deadline runs the rewrite search first, so the original candidate
    /// may follow the rewritten one, or be absent when
    /// [`CompileEvent::OriginalSkipped`] says it could not win.
    CandidateStarted {
        /// Whether this candidate is the rewritten graph.
        rewritten: bool,
        /// Node count of the candidate graph.
        nodes: usize,
    },
    /// The pipeline kept the rewritten graph without scheduling the
    /// original: the rewritten schedule peaks below the original graph's
    /// peak lower bound ([`serenity_ir::mem::peak_lower_bound`]), which
    /// every order of the original reaches, so no schedule of the original
    /// could win (under a traffic-steering target, the rewritten schedule
    /// also fits).
    OriginalSkipped {
        /// The original graph's peak lower bound, in bytes.
        lower_bound_bytes: u64,
        /// Peak footprint of the rewritten graph's schedule, in bytes.
        rewritten_peak_bytes: u64,
    },
    /// The pipeline decided which candidate's schedule to keep.
    CandidateKept {
        /// Whether the kept schedule belongs to the rewritten graph.
        rewritten: bool,
        /// Peak footprint of the kept schedule in bytes.
        peak_bytes: u64,
    },
    /// A divide-and-conquer segment schedule was replayed from the
    /// request's in-memory schedule memo instead of re-searched.
    SegmentMemoHit {
        /// Segment index in series order.
        index: usize,
        /// Parent-graph nodes in the segment.
        nodes: usize,
        /// Peak footprint of the replayed segment schedule in bytes.
        peak_bytes: u64,
    },
    /// The rewrite search scored one candidate graph (the current graph with
    /// one rewrite site applied) by scheduling it with the scoring backend.
    RewriteCandidateScored {
        /// Rule that produced the candidate.
        rule: &'static str,
        /// Name of the candidate's concat node (pre-rewrite).
        concat: String,
        /// Name of the candidate's consumer node (pre-rewrite).
        consumer: String,
        /// Number of branches the site would partition.
        branches: usize,
        /// Scored peak footprint of the candidate, in bytes.
        peak_bytes: u64,
        /// Scored peak of the current (unrewritten-this-iteration) graph.
        current_peak_bytes: u64,
    },
    /// A scored candidate won its iteration: it did not worsen the scored
    /// peak (plateau steps included) and became the current graph of the
    /// rewrite search.
    RewriteCandidateKept {
        /// Rule that produced the candidate.
        rule: &'static str,
        /// Name of the rewritten concat node.
        concat: String,
        /// Name of the rewritten consumer node.
        consumer: String,
        /// Search iteration (0-based) that accepted the candidate.
        iteration: usize,
        /// Scored peak footprint after accepting, in bytes.
        peak_bytes: u64,
    },
    /// A scored candidate was discarded: it worsened the current peak, or a
    /// better candidate won the iteration.
    RewriteCandidateRejected {
        /// Rule that produced the candidate.
        rule: &'static str,
        /// Name of the candidate's concat node.
        concat: String,
        /// Name of the candidate's consumer node.
        consumer: String,
        /// Scored peak footprint of the candidate, in bytes.
        peak_bytes: u64,
    },
    /// The iterative rewrite↔schedule search finished.
    RewriteSearchFinished {
        /// Iterations that accepted a candidate.
        iterations: usize,
        /// Total candidates scored across all iterations.
        candidates: usize,
        /// Why the loop stopped.
        stop: crate::rewrite::RewriteStop,
        /// Schedule-memo hits across all scoring runs.
        memo_hits: u64,
        /// Schedule-memo misses across all scoring runs.
        memo_misses: u64,
        /// Scored peak of the input graph, in bytes.
        initial_peak_bytes: u64,
        /// Scored peak of the final graph, in bytes.
        final_peak_bytes: u64,
    },
    /// One budget-pruned DP probe of the adaptive meta-search completed.
    BudgetProbe {
        /// The soft budget τ used, in bytes.
        budget: u64,
        /// How the probe ended.
        flag: RoundFlag,
    },
    /// A portfolio member started running.
    BackendStarted {
        /// Backend name.
        name: String,
    },
    /// A backend's schedule was selected as the winner.
    BackendChosen {
        /// Backend name.
        name: String,
        /// Peak footprint of the chosen schedule in bytes.
        peak_bytes: u64,
    },
    /// A portfolio member was never started because an exact member had
    /// already completed with a provably optimal peak that no later member
    /// could beat.
    BackendSkipped {
        /// Skipped backend name.
        name: String,
    },
    /// A divide-and-conquer segment schedule was replayed from the
    /// process-wide [`CompileCache`] — a
    /// cross-request hit (contrast [`CompileEvent::SegmentMemoHit`], the
    /// in-request memo).
    SegmentCacheHit {
        /// Segment index in series order.
        index: usize,
        /// Parent-graph nodes in the segment.
        nodes: usize,
        /// Peak footprint of the replayed segment schedule in bytes.
        peak_bytes: u64,
    },
    /// End-of-compile snapshot of the process-wide
    /// [`CompileCache`] (emitted once per
    /// [`Serenity::compile`](crate::pipeline::Serenity::compile) when a
    /// cache is installed). Counters are process-wide totals, not
    /// per-request deltas — per-request hit/miss counts live in
    /// [`ScheduleStats::cache_hits`]/[`ScheduleStats::cache_misses`].
    CacheReport {
        /// Lookups served from the cache since process start.
        hits: u64,
        /// Lookups that missed since process start.
        misses: u64,
        /// Entries evicted under the byte budget since process start.
        evictions: u64,
        /// Entries currently resident.
        entries: usize,
        /// Approximate bytes currently retained.
        entry_bytes: u64,
    },
}

/// Receiver for [`CompileEvent`]s.
pub type EventSink = Arc<dyn Fn(&CompileEvent) + Send + Sync>;

/// Caller-facing knobs of a compile/schedule run.
#[derive(Clone, Default)]
pub struct CompileOptions {
    /// Wall-clock budget for the whole run, measured from
    /// [`CompileContext::new`]. `None` disables the deadline.
    pub deadline: Option<Duration>,
    /// Shared cancellation flag checked inside scheduler inner loops.
    pub cancel: CancelToken,
    /// Structured event receiver (`None` drops events).
    pub events: Option<EventSink>,
    /// Process-wide compile cache shared across requests (`None` disables
    /// cross-request reuse). Read and written only by
    /// [`DivideAndConquer`](crate::divide::DivideAndConquer) (which the
    /// pipeline and the rewrite search schedule through) — not by raw
    /// backends, so `backend.schedule(graph, &ctx)` alone never caches.
    /// For deterministic backends, cached results are bit-identical to
    /// uncached ones; see the [`crate::cache`] module docs for the caveat
    /// on timing-adaptive configurations.
    pub cache: Option<Arc<CompileCache>>,
    /// Armed fault-injection plan (`None` in production). Consulted by
    /// the compile pipeline at its named injection points; see
    /// [`crate::fault`].
    pub fault: Option<Arc<FaultPlan>>,
    /// Incumbent peak ceiling for branch-and-bound cutoffs (`None`
    /// disables pruning). Installed through [`CompileContext::with_bound`]
    /// by the portfolio (per member), the rewrite scorer, and the
    /// pipeline's seeded re-schedule; read once per run by the DP/adaptive
    /// transition loops and the beam's per-step cutoff. Like `threads`,
    /// this is a wall-clock-only knob by construction — completed runs are
    /// bit-identical with or without it — so it is excluded from every
    /// `config_fingerprint`.
    pub bound: Option<BoundHandle>,
    /// Hard cap, in bytes, on a search's *own* live memory (DP arenas,
    /// memo index and backtrack records; beam frontiers and records) — not
    /// the schedule's activation footprint.
    /// Backends compare it against the same accounting that feeds
    /// [`ScheduleStats::peak_memo_bytes`] and fail fast with
    /// [`ScheduleError::MemoryBudgetExceeded`] instead of growing without
    /// bound. Excluded from `config_fingerprint`s: a budgeted run either
    /// errors or returns a result bit-identical to the unbudgeted one, so
    /// successful compiles share cache entries.
    pub memory_budget: Option<u64>,
    /// On-chip capacity constraint (`None` compiles as today). With
    /// [`CapacityObjective::Fit`](crate::capacity::CapacityObjective) the
    /// search is unchanged and the result is annotated with a verified
    /// [`CapacityReport`](crate::capacity::CapacityReport); with
    /// [`CapacityObjective::MinTraffic`](crate::capacity::CapacityObjective)
    /// the pipeline, rewrite loop, and portfolio rank candidates
    /// lexicographically by `(fits, traffic, peak)`. Unlike the wall-clock
    /// knobs above this is result-affecting, so compile drivers salt their
    /// cache keys with [`CapacityTarget::cache_salt`].
    pub capacity: Option<CapacityTarget>,
}

impl fmt::Debug for CompileOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileOptions")
            .field("deadline", &self.deadline)
            .field("cancel", &self.cancel)
            .field("events", &self.events.as_ref().map(|_| "<sink>"))
            .field("cache", &self.cache)
            .field("fault", &self.fault)
            .field("bound", &self.bound)
            .field("memory_budget", &self.memory_budget)
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl CompileOptions {
    /// Creates default options: no deadline, fresh token, no sink.
    pub fn new() -> Self {
        CompileOptions::default()
    }

    /// Sets the wall-clock deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Uses `token` as the cancellation flag (share a clone with the code
    /// that may cancel).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Installs an event sink.
    pub fn on_event(mut self, sink: impl Fn(&CompileEvent) + Send + Sync + 'static) -> Self {
        self.events = Some(Arc::new(sink));
        self
    }

    /// Shares a process-wide compile cache with this run (clone the same
    /// `Arc` into every request that should reuse schedules).
    pub fn compile_cache(mut self, cache: Arc<CompileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Arms a fault-injection plan for this run (test-only surface; see
    /// [`crate::fault`]).
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Caps the search's own live memory (memo arenas, beam frontiers) at
    /// `bytes`; crossing it fails the run with
    /// [`ScheduleError::MemoryBudgetExceeded`].
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Constrains the compile to an on-chip capacity target (see the
    /// [`capacity`](CompileOptions::capacity) field).
    pub fn capacity_target(mut self, target: CapacityTarget) -> Self {
        self.capacity = Some(target);
        self
    }
}

/// Per-run compile state handed to every backend: options plus the run's
/// start instant, from which the deadline is measured.
#[derive(Debug, Clone)]
pub struct CompileContext {
    options: CompileOptions,
    started: Instant,
}

impl CompileContext {
    /// Starts a run governed by `options`; the deadline clock starts now.
    pub fn new(options: CompileOptions) -> Self {
        CompileContext { options, started: Instant::now() }
    }

    /// A context with no deadline, no cancellation, and no event sink.
    pub fn unconstrained() -> Self {
        CompileContext::new(CompileOptions::default())
    }

    /// The options governing this run.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Derives a context that shares this run's deadline clock and
    /// cancellation token but replaces the event sink (`None` silences
    /// events). The parallel rewrite search hands each scoring worker a
    /// buffering sink so events can be replayed deterministically in
    /// candidate order afterwards.
    pub fn with_event_sink(&self, events: Option<EventSink>) -> CompileContext {
        CompileContext {
            options: CompileOptions {
                deadline: self.options.deadline,
                cancel: self.options.cancel.clone(),
                events,
                cache: self.options.cache.clone(),
                fault: self.options.fault.clone(),
                bound: self.options.bound,
                memory_budget: self.options.memory_budget,
                capacity: self.options.capacity,
            },
            started: self.started,
        }
    }

    /// Derives a context identical to this one except for its incumbent
    /// ceiling (`None` removes any installed ceiling). The deadline clock,
    /// cancellation token, event sink, cache, and fault plan are shared.
    pub fn with_bound(&self, bound: Option<BoundHandle>) -> CompileContext {
        let mut options = self.options.clone();
        options.bound = bound;
        CompileContext { options, started: self.started }
    }

    /// Derives a context whose remaining wall-clock budget is capped at
    /// `slice` from now (never extending an existing deadline). The serial
    /// portfolio uses this to split the remaining deadline fairly across
    /// its unstarted members.
    pub fn with_deadline_slice(&self, slice: Duration) -> CompileContext {
        let sliced = self.elapsed().saturating_add(slice);
        let mut options = self.options.clone();
        options.deadline = Some(match options.deadline {
            Some(existing) => existing.min(sliced),
            None => sliced,
        });
        CompileContext { options, started: self.started }
    }

    /// The installed incumbent ceiling, if any.
    pub fn bound(&self) -> Option<BoundHandle> {
        self.options.bound
    }

    /// The search-memory budget in bytes, if one was set.
    pub fn memory_budget(&self) -> Option<u64> {
        self.options.memory_budget
    }

    /// The on-chip capacity target, if one was set.
    pub fn capacity(&self) -> Option<CapacityTarget> {
        self.options.capacity
    }

    /// Fails the run when `used` live search-memory bytes cross the
    /// configured budget (a no-op when no budget is set). Engines call
    /// this at the same accounting points that feed
    /// [`ScheduleStats::peak_memo_bytes`], so enforcement and reporting
    /// can never drift apart.
    pub fn check_memory_budget(&self, used: u64) -> Result<(), ScheduleError> {
        if let Some(budget) = self.options.memory_budget {
            if used > budget {
                return Err(ScheduleError::MemoryBudgetExceeded { used, budget });
            }
        }
        Ok(())
    }

    /// Whether an event sink is installed (when absent, callers can skip
    /// building event payloads entirely).
    pub fn has_sink(&self) -> bool {
        self.options.events.is_some()
    }

    /// Wall-clock time since the run started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Emits an event to the configured sink (drops it when none is set).
    pub fn emit(&self, event: CompileEvent) {
        if let Some(sink) = &self.options.events {
            sink(&event);
        }
    }

    /// Checks cancellation and the deadline.
    ///
    /// Called from scheduler inner loops every few hundred transitions, so
    /// aborts take effect promptly without per-transition overhead.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::Cancelled`] when the token was triggered.
    /// * [`ScheduleError::DeadlineExceeded`] when the wall-clock budget ran
    ///   out.
    pub fn check(&self) -> Result<(), ScheduleError> {
        if self.options.cancel.is_cancelled() {
            return Err(ScheduleError::Cancelled);
        }
        if let Some(deadline) = self.options.deadline {
            let elapsed = self.started.elapsed();
            if elapsed >= deadline {
                return Err(ScheduleError::DeadlineExceeded { elapsed });
            }
        }
        Ok(())
    }
}

/// What a backend returns: a valid schedule plus its search effort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendOutcome {
    /// The schedule (a topological order with its exact peak).
    pub schedule: Schedule,
    /// Search-effort counters of the run.
    pub stats: ScheduleStats,
}

/// A scheduling strategy, pluggable into the pipeline, divide-and-conquer,
/// the portfolio, and the CLI.
///
/// Implementations must return either a *valid* schedule — a topological
/// order of `graph` whose `peak_bytes` equals
/// [`serenity_ir::mem::peak_bytes`] on that order — or an error; never a
/// best-effort invalid order. They should poll [`CompileContext::check`]
/// often enough that cancellation and deadlines take effect promptly.
pub trait SchedulerBackend: Send + Sync {
    /// Stable, registry-facing name (lowercase, dash-separated).
    fn name(&self) -> &str;

    /// Canonical fingerprint of this backend's *identity*: its name plus
    /// every configuration knob that can change the schedules it returns.
    /// The process-wide [`CompileCache`] keys
    /// entries by this value, so two backends (or two configurations of
    /// one backend) that could produce different schedules for the same
    /// graph **must** fingerprint differently — `dp` can never replay
    /// `beam`, and a budgeted DP can never replay an unbudgeted one.
    ///
    /// Pure wall-clock knobs whose results are bit-identical by contract
    /// (e.g. worker-thread counts) should be *excluded*, so configurations
    /// differing only in parallelism share cache entries. The default
    /// implementation hashes the name alone via [`config_fingerprint_of`];
    /// backends with result-affecting knobs must override it.
    fn config_fingerprint(&self) -> u64 {
        config_fingerprint_of(self.name(), &[])
    }

    /// Schedules `graph` under the run context `ctx`.
    ///
    /// # Errors
    ///
    /// Backend-specific ([`ScheduleError::NoSolution`],
    /// [`ScheduleError::Timeout`], …) plus the context aborts
    /// [`ScheduleError::Cancelled`] and [`ScheduleError::DeadlineExceeded`].
    fn schedule(
        &self,
        graph: &Graph,
        ctx: &CompileContext,
    ) -> Result<BackendOutcome, ScheduleError>;

    /// Schedules `graph` with `prefix` pinned to the front, in order.
    ///
    /// Divide-and-conquer pins a segment's boundary placeholder (a
    /// predecessor-free input node) so the cut tensor's bytes are accounted
    /// from step 0. The default implementation schedules normally and hoists
    /// the prefix to the front — sound because pinned nodes have no
    /// predecessors — re-deriving the peak; backends with native prefix
    /// support (DP, adaptive budgeting) override it.
    ///
    /// # Errors
    ///
    /// As [`SchedulerBackend::schedule`]; additionally a graph error when
    /// `prefix` is not schedulable up front.
    fn schedule_with_prefix(
        &self,
        graph: &Graph,
        prefix: &[NodeId],
        ctx: &CompileContext,
    ) -> Result<BackendOutcome, ScheduleError> {
        let outcome = self.schedule(graph, ctx)?;
        if outcome.schedule.order.starts_with(prefix) {
            return Ok(outcome);
        }
        let mut order = prefix.to_vec();
        order.extend(outcome.schedule.order.iter().filter(|id| !prefix.contains(id)));
        let schedule = Schedule::from_order(graph, order)?;
        Ok(BackendOutcome { schedule, stats: outcome.stats })
    }
}

impl<B: SchedulerBackend + ?Sized> SchedulerBackend for Arc<B> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn config_fingerprint(&self) -> u64 {
        (**self).config_fingerprint()
    }

    fn schedule(
        &self,
        graph: &Graph,
        ctx: &CompileContext,
    ) -> Result<BackendOutcome, ScheduleError> {
        (**self).schedule(graph, ctx)
    }

    fn schedule_with_prefix(
        &self,
        graph: &Graph,
        prefix: &[NodeId],
        ctx: &CompileContext,
    ) -> Result<BackendOutcome, ScheduleError> {
        (**self).schedule_with_prefix(graph, prefix, ctx)
    }
}

/// The exact dynamic-programming scheduler (§3.1) as a backend.
#[derive(Debug, Clone, Default)]
pub struct DpBackend {
    config: DpConfig,
}

impl DpBackend {
    /// A DP backend with the given configuration.
    pub fn with_config(config: DpConfig) -> Self {
        DpBackend { config }
    }
}

impl SchedulerBackend for DpBackend {
    fn name(&self) -> &str {
        "dp"
    }

    /// Everything result-affecting: budget τ, per-step timeout, and the
    /// state cap (both abort behaviors are observable). `threads` is
    /// excluded — parallel expansion is bit-identical to serial by
    /// construction (PR 2), so thread counts share cache entries.
    fn config_fingerprint(&self) -> u64 {
        let mut parts = Vec::with_capacity(6);
        parts.extend(opt_part(self.config.budget));
        parts.extend(opt_part(self.config.step_timeout.map(|d| d.as_nanos() as u64)));
        parts.extend(opt_part(self.config.max_states.map(|n| n as u64)));
        config_fingerprint_of(self.name(), &parts)
    }

    fn schedule(
        &self,
        graph: &Graph,
        ctx: &CompileContext,
    ) -> Result<BackendOutcome, ScheduleError> {
        self.schedule_with_prefix(graph, &[], ctx)
    }

    fn schedule_with_prefix(
        &self,
        graph: &Graph,
        prefix: &[NodeId],
        ctx: &CompileContext,
    ) -> Result<BackendOutcome, ScheduleError> {
        let solution = DpScheduler::with_config(self.config.clone())
            .schedule_with_prefix_ctx(graph, prefix, ctx)?;
        Ok(BackendOutcome { schedule: solution.schedule, stats: solution.stats })
    }
}

/// Adaptive soft budgeting (§3.2, Algorithm 2) as a backend.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveBackend {
    config: BudgetConfig,
}

impl AdaptiveBackend {
    /// An adaptive-budget backend with the given configuration.
    pub fn with_config(config: BudgetConfig) -> Self {
        AdaptiveBackend { config }
    }
}

impl SchedulerBackend for AdaptiveBackend {
    fn name(&self) -> &str {
        "adaptive"
    }

    /// Step timeout, round cap, and state cap all shape which budget the
    /// meta-search settles on; `threads` is excluded (wall-clock only).
    fn config_fingerprint(&self) -> u64 {
        let mut parts =
            vec![self.config.step_timeout.as_nanos() as u64, self.config.max_rounds as u64];
        parts.extend(opt_part(self.config.max_states.map(|n| n as u64)));
        config_fingerprint_of(self.name(), &parts)
    }

    fn schedule(
        &self,
        graph: &Graph,
        ctx: &CompileContext,
    ) -> Result<BackendOutcome, ScheduleError> {
        self.schedule_with_prefix(graph, &[], ctx)
    }

    fn schedule_with_prefix(
        &self,
        graph: &Graph,
        prefix: &[NodeId],
        ctx: &CompileContext,
    ) -> Result<BackendOutcome, ScheduleError> {
        let outcome = AdaptiveSoftBudget::with_config(self.config.clone())
            .search_with_prefix_ctx(graph, prefix, ctx)?;
        Ok(BackendOutcome { schedule: outcome.schedule, stats: outcome.total_stats })
    }
}

/// Bounded-width beam search as a backend.
#[derive(Debug, Clone)]
pub struct BeamBackend {
    width: usize,
}

impl BeamBackend {
    /// A beam backend keeping `width` states per step.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width >= 1, "beam width must be at least 1");
        BeamBackend { width }
    }
}

impl Default for BeamBackend {
    /// Width 64: comfortably past the quality knee of the beam ablation
    /// while staying polynomial.
    fn default() -> Self {
        BeamBackend::new(64)
    }
}

impl SchedulerBackend for BeamBackend {
    fn name(&self) -> &str {
        "beam"
    }

    /// The beam width bounds which states survive each step, so different
    /// widths can return different schedules and must key distinctly.
    fn config_fingerprint(&self) -> u64 {
        config_fingerprint_of(self.name(), &[self.width as u64])
    }

    fn schedule(
        &self,
        graph: &Graph,
        ctx: &CompileContext,
    ) -> Result<BackendOutcome, ScheduleError> {
        let solution = BeamScheduler::new(self.width).schedule_ctx(graph, ctx)?;
        Ok(BackendOutcome { schedule: solution.schedule, stats: solution.stats })
    }
}

/// Wraps one of the order-producing baseline schedulers as a backend.
macro_rules! baseline_backend {
    ($(#[$doc:meta])* $backend:ident, $name:literal, $f:path) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $backend;

        impl SchedulerBackend for $backend {
            fn name(&self) -> &str {
                $name
            }

            fn schedule(
                &self,
                graph: &Graph,
                ctx: &CompileContext,
            ) -> Result<BackendOutcome, ScheduleError> {
                ctx.check()?;
                let started = Instant::now();
                let schedule = $f(graph)?;
                let stats = ScheduleStats {
                    steps: schedule.order.len(),
                    duration: started.elapsed(),
                    ..ScheduleStats::default()
                };
                Ok(BackendOutcome { schedule, stats })
            }
        }
    };
}

baseline_backend! {
    /// Kahn's-algorithm order (the TensorFlow Lite baseline) as a backend.
    KahnBackend, "kahn", baseline::kahn
}

baseline_backend! {
    /// Depth-first order as a backend.
    DfsBackend, "dfs", baseline::dfs
}

baseline_backend! {
    /// The greedy memory-aware one-step-lookahead heuristic as a backend.
    GreedyBackend, "greedy", baseline::greedy
}

/// Exhaustive branch-and-bound search as a backend.
///
/// Unlike [`baseline::brute_force`], graphs beyond the node cap return
/// [`ScheduleError::TooLarge`] instead of panicking, so the backend is safe
/// to include in registries and portfolios.
#[derive(Debug, Clone, Copy)]
pub struct BruteForceBackend {
    max_nodes: usize,
}

impl BruteForceBackend {
    /// A brute-force backend refusing graphs above `max_nodes` nodes.
    pub fn new(max_nodes: usize) -> Self {
        BruteForceBackend { max_nodes }
    }
}

impl Default for BruteForceBackend {
    fn default() -> Self {
        BruteForceBackend::new(20)
    }
}

impl SchedulerBackend for BruteForceBackend {
    fn name(&self) -> &str {
        "brute-force"
    }

    /// The node cap decides which graphs error out versus get scheduled.
    fn config_fingerprint(&self) -> u64 {
        config_fingerprint_of(self.name(), &[self.max_nodes as u64])
    }

    fn schedule(
        &self,
        graph: &Graph,
        ctx: &CompileContext,
    ) -> Result<BackendOutcome, ScheduleError> {
        ctx.check()?;
        if graph.len() > self.max_nodes {
            return Err(ScheduleError::TooLarge { nodes: graph.len(), limit: self.max_nodes });
        }
        let started = Instant::now();
        let schedule = baseline::brute_force_capped_ctx(graph, self.max_nodes, ctx)?;
        let stats = ScheduleStats {
            steps: schedule.order.len(),
            duration: started.elapsed(),
            ..ScheduleStats::default()
        };
        Ok(BackendOutcome { schedule, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenity_ir::random_dag::independent_branches;
    use serenity_ir::topo;

    #[test]
    fn cancel_token_is_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn zero_deadline_fails_before_work() {
        let graph = independent_branches(4, 8);
        let ctx = CompileContext::new(CompileOptions::new().deadline(Duration::ZERO));
        for backend in [
            Box::new(DpBackend::default()) as Box<dyn SchedulerBackend>,
            Box::new(AdaptiveBackend::default()),
            Box::new(KahnBackend),
            Box::new(BruteForceBackend::default()),
        ] {
            let err = backend.schedule(&graph, &ctx).unwrap_err();
            assert!(
                matches!(err, ScheduleError::DeadlineExceeded { .. }),
                "{} returned {err:?}",
                backend.name()
            );
        }
    }

    #[test]
    fn cancellation_aborts() {
        let graph = independent_branches(4, 8);
        let token = CancelToken::new();
        token.cancel();
        let ctx = CompileContext::new(CompileOptions::new().cancel_token(token));
        let err = DpBackend::default().schedule(&graph, &ctx).unwrap_err();
        assert!(matches!(err, ScheduleError::Cancelled));
    }

    #[test]
    fn default_prefix_hoisting_preserves_validity() {
        let mut graph = Graph::new("g");
        let a = graph.add_opaque("a", 4, &[]).unwrap();
        let b = graph.add_opaque("b", 2, &[]).unwrap();
        let c = graph.add_opaque("c", 1, &[a, b]).unwrap();
        graph.mark_output(c);
        let ctx = CompileContext::unconstrained();
        // Greedy has no native prefix support; the default hoist applies.
        let outcome = GreedyBackend.schedule_with_prefix(&graph, &[b], &ctx).unwrap();
        assert_eq!(outcome.schedule.order.first(), Some(&b));
        assert!(topo::is_order(&graph, &outcome.schedule.order));
    }

    #[test]
    fn brute_force_backend_rejects_large_graphs() {
        let graph = independent_branches(30, 1);
        let ctx = CompileContext::unconstrained();
        let err = BruteForceBackend::default().schedule(&graph, &ctx).unwrap_err();
        assert!(matches!(err, ScheduleError::TooLarge { limit: 20, .. }));
    }

    #[test]
    fn config_fingerprints_separate_backends_and_configs() {
        let backends: Vec<Box<dyn SchedulerBackend>> = vec![
            Box::new(DpBackend::default()),
            Box::new(AdaptiveBackend::default()),
            Box::new(BeamBackend::default()),
            Box::new(KahnBackend),
            Box::new(DfsBackend),
            Box::new(GreedyBackend),
            Box::new(BruteForceBackend::default()),
        ];
        for (i, a) in backends.iter().enumerate() {
            for b in &backends[i + 1..] {
                assert_ne!(
                    a.config_fingerprint(),
                    b.config_fingerprint(),
                    "{} and {} must key distinctly",
                    a.name(),
                    b.name()
                );
            }
        }
        // Result-affecting knobs split the key…
        let dp = DpBackend::default();
        let budgeted =
            DpBackend::with_config(DpConfig { budget: Some(4096), ..DpConfig::default() });
        assert_ne!(dp.config_fingerprint(), budgeted.config_fingerprint());
        assert_ne!(
            BeamBackend::default().config_fingerprint(),
            BeamBackend::new(8).config_fingerprint()
        );
        // …while pure wall-clock knobs (threads) share cache entries.
        let threaded = DpBackend::with_config(DpConfig { threads: 4, ..DpConfig::default() });
        assert_eq!(dp.config_fingerprint(), threaded.config_fingerprint());
        // A `None` budget can never alias a zero budget.
        let zero = DpBackend::with_config(DpConfig { budget: Some(0), ..DpConfig::default() });
        assert_ne!(dp.config_fingerprint(), zero.config_fingerprint());
    }

    #[test]
    fn bound_seed_tie_semantics() {
        // A tie-winning seed: equalling it is already a loss.
        let strict = BoundHandle::seeded_incumbent(4096);
        assert_eq!(strict.max_viable_peak(), 4095);
        assert_eq!(strict.beaten_by(), 4096);
        // A tie-losing seed: only strictly worse states are lost.
        let weak = BoundHandle::seeded_weak(4096);
        assert_eq!(weak.max_viable_peak(), 4096);
        assert_eq!(weak.beaten_by(), 4096);
        // A zero-byte tie-winning incumbent prunes every nonempty state.
        assert_eq!(BoundHandle::seeded_incumbent(0).max_viable_peak(), 0);
    }

    #[test]
    fn context_bound_and_deadline_slice_derivation() {
        let ctx = CompileContext::unconstrained();
        assert!(ctx.bound().is_none());
        let bounded = ctx.with_bound(Some(BoundHandle::seeded_weak(64)));
        assert_eq!(bounded.bound().unwrap().max_viable_peak(), 64);
        // The bound survives sink swaps (the buffering-replay path).
        assert!(bounded.with_event_sink(None).bound().is_some());
        // A slice caps the deadline; it never extends one.
        let sliced = bounded.with_deadline_slice(Duration::from_secs(3600));
        assert!(sliced.options().deadline.is_some());
        let tight = CompileContext::new(CompileOptions::new().deadline(Duration::from_millis(1)));
        let resliced = tight.with_deadline_slice(Duration::from_secs(3600));
        assert!(resliced.options().deadline.unwrap() <= Duration::from_millis(1));
    }

    #[test]
    fn events_reach_the_sink() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<CompileEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let ctx = CompileContext::new(
            CompileOptions::new().on_event(move |e| sink.lock().unwrap().push(e.clone())),
        );
        ctx.emit(CompileEvent::BackendStarted { name: "dp".into() });
        assert_eq!(seen.lock().unwrap().len(), 1);
    }
}
