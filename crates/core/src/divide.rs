//! Divide-and-conquer scheduling (§3.2, Figure 7).
//!
//! Irregular cells are stacked into hourglass-shaped graphs: the waist nodes
//! are single-node cuts at which only one tensor is live. The graph is split
//! there (*divide*), every segment is scheduled independently by the
//! configured [`SchedulerBackend`] (*conquer*), and the sub-schedules are
//! concatenated (*combine*). Because only the cut tensor crosses a boundary,
//! the combined peak equals the maximum of the segment peaks, and combining
//! optimal segment schedules yields an optimal whole-graph schedule.
//!
//! The win is exponential: scheduling `N` equal segments costs
//! `N · (|V|/N) · 2^{|V|/N}` instead of `|V| · 2^{|V|}` (§3.2).

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use serenity_ir::cuts::{self, PartitionSummary};
use serenity_ir::fingerprint::{fingerprint, Structure};
use serenity_ir::{Graph, NodeId};

use crate::backend::{AdaptiveBackend, CompileContext, CompileEvent, SchedulerBackend};
use crate::cache::CompileCache;
use crate::memo::ScheduleMemo;
use crate::{Schedule, ScheduleError, ScheduleStats};

/// Per-segment scheduling record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentReport {
    /// Number of parent-graph nodes in the segment.
    pub nodes: usize,
    /// Peak footprint of the segment schedule in bytes (including the
    /// boundary tensor).
    pub peak_bytes: u64,
    /// Search statistics of the segment run.
    pub stats: ScheduleStats,
}

/// Result of divide-and-conquer scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivideOutcome {
    /// The combined, whole-graph schedule.
    pub schedule: Schedule,
    /// Summary of the partition used (Table 2's `62 = {21,19,22}` form).
    pub partition: PartitionSummary,
    /// One report per segment, in series order.
    pub segments: Vec<SegmentReport>,
    /// Aggregate statistics over all segments.
    pub total_stats: ScheduleStats,
}

/// Divide-and-conquer scheduler: partitions at cut nodes and runs the
/// configured backend on each piece.
///
/// # Example
///
/// ```
/// use serenity_core::divide::DivideAndConquer;
/// use serenity_ir::random_dag::hourglass_stack;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let g = hourglass_stack(3, 4, 64, &mut rng);
/// let outcome = DivideAndConquer::new().schedule(&g)?;
/// assert_eq!(outcome.partition.segment_sizes.len(), 3);
/// assert_eq!(outcome.schedule.order.len(), g.len());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct DivideAndConquer {
    backend: Arc<dyn SchedulerBackend>,
    memo: Option<Arc<ScheduleMemo>>,
}

impl std::fmt::Debug for DivideAndConquer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DivideAndConquer")
            .field("backend", &self.backend.name())
            .field("memo", &self.memo.is_some())
            .finish()
    }
}

impl Default for DivideAndConquer {
    fn default() -> Self {
        DivideAndConquer { backend: Arc::new(AdaptiveBackend::default()), memo: None }
    }
}

impl DivideAndConquer {
    /// Creates a divide-and-conquer scheduler with adaptive soft budgeting
    /// per segment (the full SERENITY configuration).
    pub fn new() -> Self {
        DivideAndConquer::default()
    }

    /// Overrides the backend scheduling each segment.
    pub fn backend(mut self, backend: Arc<dyn SchedulerBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// Installs a schedule memo: segments whose canonical fingerprint (see
    /// [`serenity_ir::fingerprint`]) matches a previously scheduled,
    /// structurally equal segment replay the stored schedule instead of
    /// re-running the backend. Backends are deterministic, so memoized runs
    /// return bit-identical schedules to memo-free runs of the same backend;
    /// sharing one memo across *different* backend configurations is a
    /// caller bug (the memo cannot tell their schedules apart).
    ///
    /// Misses stay in the installed memo: its owner publishes it to the
    /// compile cache once ([`DivideAndConquer::publish`]).
    pub(crate) fn memo(mut self, memo: Arc<ScheduleMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The context's compile cache and the key this backend's schedules are
    /// stored under in it: the backend's
    /// [`config_fingerprint`](SchedulerBackend::config_fingerprint), salted
    /// with the capacity target ([`CapacityTarget::cache_salt`], zero unless
    /// the target steers the search — a traffic-steering backend can pick
    /// different winners at different capacities, so those schedules must
    /// never replay each other). The one place a schedule key is formed.
    ///
    /// [`CapacityTarget::cache_salt`]: crate::capacity::CapacityTarget::cache_salt
    fn cache<'c>(&self, ctx: &'c CompileContext) -> Option<(&'c CompileCache, u64)> {
        let cache = ctx.options().cache.as_deref()?;
        let salt = ctx.capacity().map_or(0, |target| target.cache_salt());
        Some((cache, self.backend.config_fingerprint() ^ salt))
    }

    /// Writes every local entry of `memo` (a rewrite search's run memo) to
    /// the context's compile cache, if it has one — the search's single
    /// publication, made after its last iteration so scoring layers never
    /// write the shared cache.
    pub(crate) fn publish(&self, memo: ScheduleMemo, ctx: &CompileContext) {
        if let Some((cache, backend_key)) = self.cache(ctx) {
            for (key, entry) in memo.into_entries() {
                cache.insert(backend_key, key, entry.structure, &entry.prefix, &entry.schedule);
            }
        }
    }

    /// Schedules `graph` by partitioning at its cut nodes.
    ///
    /// # Errors
    ///
    /// Propagates the first segment-scheduling failure
    /// ([`ScheduleError::Timeout`], [`ScheduleError::NoSolution`],
    /// [`ScheduleError::BudgetSearchExhausted`], or a graph error).
    pub fn schedule(&self, graph: &Graph) -> Result<DivideOutcome, ScheduleError> {
        self.schedule_with_ctx(graph, &CompileContext::unconstrained())
    }

    /// Like [`DivideAndConquer::schedule`], but governed by a
    /// [`CompileContext`]: the context is threaded into every segment run
    /// and a [`CompileEvent::SegmentScheduled`] is emitted per segment.
    ///
    /// When the context carries a
    /// [`compile_cache`](crate::backend::CompileOptions::compile_cache),
    /// each segment is looked up in the memo first and then in the cache; a
    /// cache hit is backfilled into the memo, so structurally repeated
    /// segments pay the shared-shard lookup once. Without an installed memo
    /// the run uses a memo of its own and writes its misses through to the
    /// cache.
    ///
    /// # Errors
    ///
    /// As [`DivideAndConquer::schedule`], plus the context aborts
    /// [`ScheduleError::Cancelled`] / [`ScheduleError::DeadlineExceeded`].
    pub fn schedule_with_ctx(
        &self,
        graph: &Graph,
        ctx: &CompileContext,
    ) -> Result<DivideOutcome, ScheduleError> {
        let started = Instant::now();
        let partition = cuts::partition(graph);
        let mut locals: Vec<Vec<NodeId>> = Vec::with_capacity(partition.segments.len());
        let mut reports = Vec::with_capacity(partition.segments.len());
        let mut total_stats = ScheduleStats::default();

        let cache = self.cache(ctx);
        // Without an installed memo, a call with a cache uses a memo of its
        // own and writes its misses through to the cache.
        let write_through = cache.filter(|_| self.memo.is_none());
        let own_memo = write_through.map(|_| ScheduleMemo::new());
        let memo = self.memo.as_deref().or(own_memo.as_ref());

        for (index, segment) in partition.segments.iter().enumerate() {
            ctx.check()?;
            let nodes = segment.graph.len() - usize::from(segment.boundary_input.is_some());
            let pinned = segment.pinned_prefix();
            // The pinned prefix is part of the memo identity: an unpinned
            // first segment can be structurally identical to a pinned later
            // one, but their schedules are not interchangeable. The key and
            // the structure are computed once and serve the memo and the
            // cache alike.
            let memo_key =
                memo.map(|m| (m, fingerprint(&segment.graph), Structure::of(&segment.graph)));
            if let Some((memo, key, structure)) = &memo_key {
                let replay = match memo.lookup(*key, structure, &pinned) {
                    Some(schedule) => Some((schedule, false)),
                    None => cache.and_then(|(cache, backend_key)| {
                        let schedule = cache.lookup(backend_key, *key, structure, &pinned)?;
                        memo.insert(*key, structure.clone(), &pinned, &schedule);
                        Some((schedule, true))
                    }),
                };
                if let Some((schedule, from_cache)) = replay {
                    // Replay: the backend is deterministic, so this is the
                    // schedule a fresh run would have produced — whether it
                    // came from this request's memo or from the process-wide
                    // compile cache (a cross-request hit).
                    let peak_bytes = schedule.peak_bytes;
                    let mut stats = ScheduleStats { steps: schedule.len(), ..Default::default() };
                    if from_cache {
                        stats.cache_hits = 1;
                        ctx.emit(CompileEvent::SegmentCacheHit { index, nodes, peak_bytes });
                    } else {
                        stats.memo_hits = 1;
                        ctx.emit(CompileEvent::SegmentMemoHit { index, nodes, peak_bytes });
                    }
                    total_stats.absorb(&stats);
                    reports.push(SegmentReport { nodes, peak_bytes, stats });
                    locals.push(schedule.order);
                    continue;
                }
            }
            let attempt = self.backend.schedule_with_prefix(&segment.graph, &pinned, ctx);
            let (schedule, mut stats) = match attempt {
                Ok(outcome) => (outcome.schedule, outcome.stats),
                // An exhausted meta-search degrades gracefully to the
                // hard-budget (Kahn) schedule for this segment: sound, and
                // never worse than the baseline. The boundary placeholder
                // has id 0, so Kahn's FIFO schedules it first, satisfying
                // the pin. The failed search's counters stay on the segment.
                Err(ScheduleError::BudgetSearchExhausted { stats, .. }) => {
                    let order = serenity_ir::topo::kahn(&segment.graph);
                    debug_assert!(
                        pinned.is_empty() || order.first() == Some(&pinned[0]),
                        "boundary placeholder must lead the fallback order"
                    );
                    let schedule = Schedule::from_order(&segment.graph, order)?;
                    (schedule, *stats)
                }
                Err(other) => return Err(other),
            };
            if let Some((memo, key, structure)) = memo_key {
                stats.memo_misses += 1;
                stats.cache_misses += u64::from(cache.is_some());
                if let Some((cache, backend_key)) = write_through {
                    cache.insert(backend_key, key, structure.clone(), &pinned, &schedule);
                }
                memo.insert(key, structure, &pinned, &schedule);
            }
            total_stats.absorb(&stats);
            ctx.emit(CompileEvent::SegmentScheduled {
                index,
                nodes,
                peak_bytes: schedule.peak_bytes,
            });
            reports.push(SegmentReport { nodes, peak_bytes: schedule.peak_bytes, stats });
            locals.push(schedule.order);
        }

        let order = partition.combine(&locals)?;
        let schedule = Schedule::from_order(graph, order)?;
        debug_assert_eq!(
            schedule.peak_bytes,
            reports.iter().map(|r| r.peak_bytes).max().unwrap_or(0),
            "combined peak must equal the maximum segment peak"
        );
        total_stats.duration = started.elapsed();
        total_stats.steps = graph.len();
        Ok(DivideOutcome {
            schedule,
            partition: partition.summary(),
            segments: reports,
            total_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{
        BeamBackend, BoundHandle, CancelToken, CompileOptions, DpBackend, GreedyBackend,
    };
    use crate::dp::DpScheduler;
    use crate::registry::PortfolioBackend;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use serenity_ir::random_dag::hourglass_stack;
    use serenity_ir::topo;

    #[test]
    fn matches_whole_graph_dp() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..5 {
            let g = hourglass_stack(3, 4, 100, &mut rng);
            let whole = DpScheduler::new().schedule(&g).unwrap();
            let divided = DivideAndConquer::new()
                .backend(Arc::new(DpBackend::default()))
                .schedule(&g)
                .unwrap();
            assert_eq!(divided.schedule.peak_bytes, whole.schedule.peak_bytes);
            assert!(topo::is_order(&g, &divided.schedule.order));
        }
    }

    #[test]
    fn adaptive_matches_whole_graph_dp() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = hourglass_stack(4, 3, 80, &mut rng);
        let whole = DpScheduler::new().schedule(&g).unwrap();
        let divided = DivideAndConquer::new().schedule(&g).unwrap();
        assert_eq!(divided.schedule.peak_bytes, whole.schedule.peak_bytes);
    }

    #[test]
    fn explores_no_more_transitions_than_whole_graph() {
        // With perfect single-node cuts the whole-graph DP's signature
        // memoization already collapses to one state at every cut, so the
        // transition counts coincide; divide-and-conquer's win is in
        // per-state constants (bitset width, hashing) and in enabling
        // per-segment budgets. The invariant worth asserting is that D&C
        // never explores MORE.
        let mut rng = StdRng::seed_from_u64(23);
        let g = hourglass_stack(3, 6, 50, &mut rng);
        let whole = DpScheduler::new().schedule(&g).unwrap();
        let divided =
            DivideAndConquer::new().backend(Arc::new(DpBackend::default())).schedule(&g).unwrap();
        assert!(divided.total_stats.transitions <= whole.stats.transitions);
        assert_eq!(divided.schedule.peak_bytes, whole.schedule.peak_bytes);
    }

    #[test]
    fn an_exhausted_search_keeps_its_counters_on_the_fallback() {
        use crate::backend::AdaptiveBackend;
        use crate::budget::BudgetConfig;
        // One round under a one-state cap: the probe trips the cap, the
        // meta-search gives up, and the segment falls back to Kahn's order.
        let g = serenity_ir::random_dag::independent_branches(6, 16);
        let config = BudgetConfig { max_rounds: 1, max_states: Some(1), ..Default::default() };
        let outcome = DivideAndConquer::new()
            .backend(Arc::new(AdaptiveBackend::with_config(config)))
            .schedule(&g)
            .unwrap();
        assert_eq!(outcome.schedule.order, topo::kahn(&g));
        assert_eq!(outcome.total_stats.probes, 1, "{:?}", outcome.total_stats);
        assert!(outcome.total_stats.transitions > 0, "{:?}", outcome.total_stats);
    }

    #[test]
    fn partition_summary_counts_parent_nodes() {
        let mut rng = StdRng::seed_from_u64(24);
        let g = hourglass_stack(3, 4, 100, &mut rng);
        let outcome = DivideAndConquer::new().schedule(&g).unwrap();
        assert_eq!(outcome.partition.total_nodes, g.len());
        assert_eq!(outcome.segments.len(), outcome.partition.segment_sizes.len());
    }

    #[test]
    fn uncut_graph_still_schedules() {
        let g = serenity_ir::random_dag::independent_branches(5, 10);
        let outcome = DivideAndConquer::new().schedule(&g).unwrap();
        assert_eq!(outcome.partition.segment_sizes.len(), 1);
        assert_eq!(outcome.schedule.order.len(), g.len());
    }

    #[test]
    fn arbitrary_backends_schedule_segments() {
        // Backends without native prefix support (beam, greedy) still
        // produce valid combined schedules through the prefix hoist.
        let mut rng = StdRng::seed_from_u64(25);
        let g = hourglass_stack(3, 4, 60, &mut rng);
        for backend in
            [Arc::new(BeamBackend::default()) as Arc<dyn SchedulerBackend>, Arc::new(GreedyBackend)]
        {
            let name = backend.name().to_string();
            let outcome = DivideAndConquer::new().backend(backend).schedule(&g).unwrap();
            assert!(topo::is_order(&g, &outcome.schedule.order), "{name} order invalid");
            assert_eq!(outcome.schedule.order.len(), g.len(), "{name} incomplete");
        }
    }

    #[test]
    fn cancellation_aborts_between_segments() {
        let mut rng = StdRng::seed_from_u64(26);
        let g = hourglass_stack(3, 4, 60, &mut rng);
        let token = CancelToken::new();
        token.cancel();
        let ctx = CompileContext::new(CompileOptions::new().cancel_token(token));
        let err = DivideAndConquer::new().schedule_with_ctx(&g, &ctx).unwrap_err();
        assert!(matches!(err, ScheduleError::Cancelled));
    }

    /// A one-node chain, then the greedy trap of
    /// `baseline::tests::greedy_is_not_optimal` behind the cut at `root`,
    /// with `y1` added before `x1` so that Kahn and DFS fall into it too:
    /// the second segment's optimum is 91 B, while greedy, Kahn and DFS
    /// peak at 92 B. The first segment peaks far below either.
    fn chain_then_trap() -> Graph {
        let mut g = Graph::new("chain-then-trap");
        let head = g.add_opaque("head", 1, &[]).unwrap();
        let root = g.add_opaque("root", 1, &[head]).unwrap();
        let y1 = g.add_opaque("y1", 40, &[root]).unwrap();
        let x1 = g.add_opaque("x1", 2, &[root]).unwrap();
        let x2 = g.add_opaque("x2", 50, &[x1]).unwrap();
        let join = g.add_opaque("join", 1, &[x2, y1]).unwrap();
        g.mark_output(join);
        g
    }

    #[test]
    fn portfolio_segments_never_constrain_each_other() {
        // Under a loose caller ceiling every segment must get its unbounded
        // schedule: an earlier segment's low peak must not become the
        // incumbent of a later one.
        let g = chain_then_trap();
        let divide = DivideAndConquer::new().backend(Arc::new(PortfolioBackend::standard()));
        let free = divide.schedule(&g).unwrap();
        let peaks: Vec<u64> = free.segments.iter().map(|s| s.peak_bytes).collect();
        assert!(peaks.len() >= 2 && peaks[0] < peaks[peaks.len() - 1], "{peaks:?}");
        assert_eq!(free.schedule.peak_bytes, 91);
        let ctx = CompileContext::unconstrained()
            .with_bound(Some(BoundHandle::seeded_weak(free.schedule.peak_bytes)));
        let bounded = divide.schedule_with_ctx(&g, &ctx).unwrap();
        assert_eq!(bounded.schedule, free.schedule);
        let bounded_peaks: Vec<u64> = bounded.segments.iter().map(|s| s.peak_bytes).collect();
        assert_eq!(bounded_peaks, peaks);
    }

    #[test]
    fn a_bounded_portfolio_never_caches_what_its_ceiling_decided() {
        // Under a tie-winning ceiling at the trap segment's optimum,
        // `adaptive` and `beam` cannot beat it, and the baseline members'
        // 92 B orders do not either: the run must report the loss rather than
        // cache a 92 B order that an unbounded compile would then replay.
        let g = chain_then_trap();
        let divide = DivideAndConquer::new().backend(Arc::new(PortfolioBackend::standard()));
        let cached =
            CompileContext::new(CompileOptions::new().compile_cache(Arc::new(CompileCache::new())));
        let bounded = cached.with_bound(Some(BoundHandle::seeded_incumbent(91)));
        let err = divide.schedule_with_ctx(&g, &bounded).unwrap_err();
        assert_eq!(err, ScheduleError::BoundBeaten { bound: 91 });
        let cold = divide.schedule(&g).unwrap();
        assert_eq!(cold.schedule.peak_bytes, 91);
        let warm = divide.schedule_with_ctx(&g, &cached).unwrap();
        assert_eq!(warm.schedule, cold.schedule);
    }

    #[test]
    fn segment_events_are_emitted() {
        use std::sync::Mutex;
        let mut rng = StdRng::seed_from_u64(28);
        let g = hourglass_stack(3, 4, 60, &mut rng);
        let seen: Arc<Mutex<Vec<CompileEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let ctx = CompileContext::new(
            CompileOptions::new().on_event(move |e| sink.lock().unwrap().push(e.clone())),
        );
        let outcome = DivideAndConquer::new().schedule_with_ctx(&g, &ctx).unwrap();
        let segments: Vec<_> = seen
            .lock()
            .unwrap()
            .iter()
            .filter(|e| matches!(e, CompileEvent::SegmentScheduled { .. }))
            .cloned()
            .collect();
        assert_eq!(segments.len(), outcome.segments.len());
    }
}
