//! Backend discovery by name ([`BackendRegistry`]) and the min-peak
//! multi-backend [`PortfolioBackend`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use serenity_ir::{Graph, NodeId};

use crate::backend::{
    AdaptiveBackend, BackendOutcome, BeamBackend, BoundHandle, BruteForceBackend, CompileContext,
    CompileEvent, DfsBackend, DpBackend, GreedyBackend, KahnBackend, SchedulerBackend,
};
use crate::capacity::CapacityTarget;
use crate::{ScheduleError, ScheduleStats};

/// Creates a fresh backend instance.
pub type BackendFactory = Arc<dyn Fn() -> Arc<dyn SchedulerBackend> + Send + Sync>;

/// Name → factory map of scheduling backends.
///
/// [`BackendRegistry::standard`] registers every built-in strategy; callers
/// extend it with [`BackendRegistry::register`] to plug in their own, which
/// the CLI then exposes as `serenity schedule --scheduler <name>`.
///
/// # Example
///
/// ```
/// use serenity_core::registry::BackendRegistry;
///
/// let registry = BackendRegistry::standard();
/// assert!(registry.names().iter().any(|n| n == "dp"));
/// let backend = registry.create("portfolio").unwrap();
/// assert_eq!(backend.name(), "portfolio");
/// ```
#[derive(Clone, Default)]
pub struct BackendRegistry {
    factories: BTreeMap<String, BackendFactory>,
}

impl std::fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendRegistry").field("names", &self.names()).finish()
    }
}

impl BackendRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        BackendRegistry::default()
    }

    /// The registry of built-in backends: `dp`, `adaptive`, `beam`, `kahn`,
    /// `dfs`, `greedy`, `brute-force`, and `portfolio`.
    pub fn standard() -> Self {
        let mut registry = BackendRegistry::empty();
        registry.register("dp", || Arc::new(DpBackend::default()));
        registry.register("adaptive", || Arc::new(AdaptiveBackend::default()));
        registry.register("beam", || Arc::new(BeamBackend::default()));
        registry.register("kahn", || Arc::new(KahnBackend));
        registry.register("dfs", || Arc::new(DfsBackend));
        registry.register("greedy", || Arc::new(GreedyBackend));
        registry.register("brute-force", || Arc::new(BruteForceBackend::default()));
        registry.register("portfolio", || Arc::new(PortfolioBackend::standard()));
        registry
    }

    /// Registers (or replaces) a backend factory under `name`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Arc<dyn SchedulerBackend> + Send + Sync + 'static,
    ) {
        self.factories.insert(name.into(), Arc::new(factory));
    }

    /// Instantiates the backend registered under `name`.
    pub fn create(&self, name: &str) -> Option<Arc<dyn SchedulerBackend>> {
        self.factories.get(name).map(|factory| factory())
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.factories.keys().cloned().collect()
    }
}

/// Runs several backends in order and keeps the minimum-peak schedule.
///
/// Member errors other than [`ScheduleError::Cancelled`] and
/// [`ScheduleError::DeadlineExceeded`] (e.g. a brute-force
/// [`ScheduleError::TooLarge`], a DP [`ScheduleError::Timeout`]) skip that
/// member; the run fails only when *every* member failed. Cancellation and
/// deadline aborts propagate immediately — a portfolio under a spent
/// deadline returns the abort, not a partial winner.
///
/// # Incumbent ceilings
///
/// Each member runs under the tighter of the caller's ceiling (if any) and
/// the best earlier member's peak as a tie-winning ceiling
/// ([`BoundHandle::seeded_incumbent`]), so cheap members sharpen the
/// expensive ones that follow. The branch-and-bound engines (`dp`,
/// `adaptive`, `beam`) prune states that provably lose to it, exiting with
/// [`ScheduleError::BoundBeaten`] — a loss to an earlier member, counted but
/// never surfaced. The incumbent is local to one run: nothing is published
/// back to the caller, so one divide-and-conquer segment never constrains
/// another. Winner selection is min-peak with the earlier member keeping
/// ties, and a member that completes under a ceiling returns its unbounded
/// schedule, so the portfolio is never worse than any of its members.
///
/// Under a caller's ceiling the portfolio keeps the engines' contract: it
/// returns either its unbounded schedule or `BoundBeaten` with the caller's
/// incumbent. The baselines (`greedy`, `kahn`, `dfs`) ignore ceilings and
/// complete, so a winner above the caller's ceiling is reported as that
/// loss, never returned — divide-and-conquer memoizes and caches whatever a
/// run returns under the backend's unbounded key. The remaining
/// deadline is split fairly across unstarted members (floor 5 ms) so one
/// slow member cannot starve the rest, and every member after the first
/// *exact* completer (`adaptive`/`dp`/`brute-force`) is skipped — no one
/// can beat a provably optimal peak.
///
/// # Capacity targets
///
/// Under a steering [`CapacityTarget`] (objective `MinTraffic`), every
/// completed member is assessed with the Belady simulator and the winner is
/// the lexicographically smallest `(fits, traffic, peak)` rank — earlier
/// member still keeping ties. A member's peak tightens the incumbent only
/// when its schedule fits: a spilling incumbent's peak must never prune,
/// because a higher-peak order can still pay less traffic. For the same
/// reason the exact-completer cutoff only fires when the exact member's
/// provably peak-optimal schedule also *fits* — if the optimal peak spills,
/// nothing fits, and a later member may still win on traffic.
///
/// Emits [`CompileEvent::BackendStarted`] per member ran,
/// [`CompileEvent::BackendSkipped`] per member cut off by an exact
/// completer, and one [`CompileEvent::BackendChosen`] for the winner.
pub struct PortfolioBackend {
    backends: Vec<Arc<dyn SchedulerBackend>>,
}

/// Per-member deadline floor, mirroring the degradation ladder's minimum
/// rung budget.
const MIN_MEMBER_SLICE: Duration = Duration::from_millis(5);

/// Backends whose successful completion is provably footprint-optimal:
/// no later member can beat it, so the portfolio skips the rest.
fn is_exact(name: &str) -> bool {
    matches!(name, "dp" | "adaptive" | "brute-force")
}

/// A member schedule's `(fits, traffic, peak)` rank under a steering
/// capacity target; smaller wins (see
/// [`CapacityReport::rank`](crate::capacity::CapacityReport::rank)).
type CapacityRank = (u64, u64, u64);

/// Whether `rank`'s schedule fits the capacity outright (the first
/// lexicographic component is the "does not fit" flag).
fn rank_fits(rank: &CapacityRank) -> bool {
    rank.0 == 0
}

impl std::fmt::Debug for PortfolioBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.backends.iter().map(|b| b.name()).collect();
        f.debug_struct("PortfolioBackend").field("backends", &names).finish()
    }
}

impl PortfolioBackend {
    /// A portfolio over the given members, tried in order (ties keep the
    /// earlier member's schedule).
    ///
    /// # Panics
    ///
    /// Panics if `backends` is empty.
    pub fn new(backends: Vec<Arc<dyn SchedulerBackend>>) -> Self {
        assert!(!backends.is_empty(), "portfolio needs at least one backend");
        PortfolioBackend { backends }
    }

    /// The standard portfolio: adaptive budgeting (optimal when it
    /// completes), beam search (polynomial fallback), greedy, Kahn, and DFS.
    pub fn standard() -> Self {
        PortfolioBackend::new(vec![
            Arc::new(AdaptiveBackend::default()),
            Arc::new(BeamBackend::default()),
            Arc::new(GreedyBackend),
            Arc::new(KahnBackend),
            Arc::new(DfsBackend),
        ])
    }

    /// The member backends.
    pub fn members(&self) -> &[Arc<dyn SchedulerBackend>] {
        &self.backends
    }

    fn run<F>(
        &self,
        graph: &Graph,
        ctx: &CompileContext,
        run_member: F,
    ) -> Result<BackendOutcome, ScheduleError>
    where
        F: Fn(&Arc<dyn SchedulerBackend>, &CompileContext) -> Result<BackendOutcome, ScheduleError>,
    {
        let target = ctx.capacity().filter(CapacityTarget::steers_search);
        let total = self.backends.len();
        let mut best: Option<(usize, BackendOutcome, Option<CapacityRank>)> = None;
        // The smallest peak of a completed (and, under a steering target,
        // fitting) member: later members must beat it strictly.
        let mut incumbent: Option<u64> = None;
        let mut first_error: Option<ScheduleError> = None;
        let mut bound_beaten: Option<ScheduleError> = None;
        let mut total_stats = ScheduleStats::default();
        for (index, backend) in self.backends.iter().enumerate() {
            ctx.check()?;
            // The tighter ceiling prunes more; on equal pruning the caller's
            // is kept, so a loss reports the caller's incumbent.
            let ceiling = ctx
                .bound()
                .into_iter()
                .chain(incumbent.map(BoundHandle::seeded_incumbent))
                .min_by_key(BoundHandle::max_viable_peak);
            let mut member_ctx = ctx.with_bound(ceiling);
            if index + 1 < total {
                if let Some(deadline) = ctx.options().deadline {
                    // Fair split: every unstarted member gets an equal share
                    // of what is left (the last one inherits the remainder
                    // whole). The floor never extends the global deadline —
                    // the slice is clamped to it.
                    let remaining = deadline.saturating_sub(ctx.elapsed());
                    let share = remaining / (total - index) as u32;
                    member_ctx = member_ctx.with_deadline_slice(share.max(MIN_MEMBER_SLICE));
                }
            }
            ctx.emit(CompileEvent::BackendStarted { name: backend.name().to_string() });
            let assessed = run_member(backend, &member_ctx).and_then(|outcome| {
                let rank = match target {
                    Some(t) => {
                        let report =
                            crate::capacity::assess_for_driver(graph, &outcome.schedule.order, t)?;
                        Some(report.rank(outcome.schedule.peak_bytes))
                    }
                    None => None,
                };
                Ok((outcome, rank))
            });
            match assessed {
                Ok((outcome, rank)) => {
                    total_stats.absorb(&outcome.stats);
                    let peak = outcome.schedule.peak_bytes;
                    let fits = rank.as_ref().is_none_or(rank_fits);
                    if fits {
                        incumbent = Some(incumbent.map_or(peak, |p| p.min(peak)));
                    }
                    let better =
                        best.as_ref().is_none_or(|(_, b, best_rank)| match (&rank, best_rank) {
                            (Some(r), Some(br)) => r < br,
                            _ => peak < b.schedule.peak_bytes,
                        });
                    if better {
                        best = Some((index, outcome, rank));
                    }
                    if is_exact(backend.name()) && fits {
                        // A completed exact member is provably optimal: no
                        // later member can beat it, only tie and lose. Under
                        // a steering target this holds only when the optimal
                        // peak *fits* (rank (0, 0, optimal)); a spilling
                        // optimum can still lose on traffic.
                        for skipped in &self.backends[index + 1..] {
                            ctx.emit(CompileEvent::BackendSkipped {
                                name: skipped.name().to_string(),
                            });
                        }
                        total_stats.race_cutoffs += (total - index - 1) as u64;
                        break;
                    }
                }
                Err(ScheduleError::Cancelled) => return Err(ScheduleError::Cancelled),
                Err(deadline @ ScheduleError::DeadlineExceeded { .. }) => {
                    // A member exhausting its *slice* is a loss; only the
                    // global deadline (re-checked here) aborts the run.
                    ctx.check()?;
                    first_error.get_or_insert(deadline);
                }
                Err(beaten @ ScheduleError::BoundBeaten { .. }) => {
                    total_stats.bound_beaten_exits += 1;
                    bound_beaten.get_or_insert(beaten);
                }
                Err(other) => {
                    first_error.get_or_insert(other);
                }
            }
        }
        // The baselines ignore ceilings, so they complete where the engines
        // exit: a winner above the caller's ceiling has lost to the caller's
        // incumbent, and returning it would hand divide-and-conquer a
        // ceiling-dependent answer to memoize under the unbounded key.
        if let (Some((_, outcome, _)), Some(ceiling)) = (&best, ctx.bound()) {
            if outcome.schedule.peak_bytes > ceiling.max_viable_peak() {
                return Err(ScheduleError::BoundBeaten { bound: ceiling.beaten_by() });
            }
        }
        match best {
            Some((index, mut outcome, _)) => {
                ctx.emit(CompileEvent::BackendChosen {
                    name: self.backends[index].name().to_string(),
                    peak_bytes: outcome.schedule.peak_bytes,
                });
                outcome.stats = total_stats;
                Ok(outcome)
            }
            // Every member lost. When losses were to an incumbent ceiling,
            // "the incumbent stands" (BoundBeaten) outranks the incidental
            // member errors — consumers treat it as keep-the-original, never
            // as a failure.
            None => Err(bound_beaten.or(first_error).expect("at least one member ran and failed")),
        }
    }
}

impl SchedulerBackend for PortfolioBackend {
    fn name(&self) -> &str {
        "portfolio"
    }

    /// Members and their order are the whole configuration: the winner is
    /// min-peak with ties kept by the *earlier* member, so both membership
    /// and sequence shape the result.
    fn config_fingerprint(&self) -> u64 {
        let parts: Vec<u64> = self.backends.iter().map(|b| b.config_fingerprint()).collect();
        crate::backend::config_fingerprint_of(self.name(), &parts)
    }

    fn schedule(
        &self,
        graph: &Graph,
        ctx: &CompileContext,
    ) -> Result<BackendOutcome, ScheduleError> {
        self.run(graph, ctx, |backend, member_ctx| backend.schedule(graph, member_ctx))
    }

    fn schedule_with_prefix(
        &self,
        graph: &Graph,
        prefix: &[NodeId],
        ctx: &CompileContext,
    ) -> Result<BackendOutcome, ScheduleError> {
        self.run(graph, ctx, |backend, member_ctx| {
            backend.schedule_with_prefix(graph, prefix, member_ctx)
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;
    use std::time::Duration;

    use super::*;
    use crate::backend::CompileOptions;
    use serenity_ir::random_dag::independent_branches;

    #[test]
    fn standard_registry_has_all_strategies() {
        let registry = BackendRegistry::standard();
        for name in ["dp", "adaptive", "beam", "kahn", "dfs", "greedy", "brute-force", "portfolio"]
        {
            assert!(registry.contains(name), "missing {name}");
            assert_eq!(registry.create(name).unwrap().name(), name);
        }
        assert!(registry.create("bogus").is_none());
    }

    #[test]
    fn custom_backends_can_be_registered() {
        let mut registry = BackendRegistry::standard();
        registry.register("my-kahn", || Arc::new(KahnBackend));
        assert!(registry.contains("my-kahn"));
        // The instance reports its own name; the registry key is the alias.
        assert_eq!(registry.create("my-kahn").unwrap().name(), "kahn");
    }

    #[test]
    fn portfolio_keeps_the_minimum_peak() {
        let graph = independent_branches(6, 24);
        let ctx = CompileContext::unconstrained();
        let portfolio = PortfolioBackend::standard();
        let outcome = portfolio.schedule(&graph, &ctx).unwrap();
        for member in portfolio.members() {
            if let Ok(single) = member.schedule(&graph, &ctx) {
                assert!(
                    outcome.schedule.peak_bytes <= single.schedule.peak_bytes,
                    "portfolio lost to {}",
                    member.name()
                );
            }
        }
    }

    #[test]
    fn portfolio_survives_failing_members() {
        // A portfolio whose first member always rejects still answers.
        let portfolio =
            PortfolioBackend::new(vec![Arc::new(BruteForceBackend::new(1)), Arc::new(KahnBackend)]);
        let graph = independent_branches(5, 8);
        let outcome = portfolio.schedule(&graph, &CompileContext::unconstrained()).unwrap();
        assert_eq!(outcome.schedule.order.len(), graph.len());
    }

    #[test]
    fn portfolio_of_only_failures_reports_the_first_error() {
        let portfolio = PortfolioBackend::new(vec![Arc::new(BruteForceBackend::new(1))]);
        let graph = independent_branches(5, 8);
        let err = portfolio.schedule(&graph, &CompileContext::unconstrained()).unwrap_err();
        assert!(matches!(err, ScheduleError::TooLarge { .. }));
    }

    #[test]
    fn portfolio_propagates_deadline() {
        let graph = independent_branches(6, 24);
        let ctx = CompileContext::new(CompileOptions::new().deadline(Duration::ZERO));
        let err = PortfolioBackend::standard().schedule(&graph, &ctx).unwrap_err();
        assert!(matches!(err, ScheduleError::DeadlineExceeded { .. }));
    }

    #[test]
    fn portfolio_emits_choice_events_and_race_cutoffs() {
        let seen: Arc<Mutex<Vec<CompileEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let ctx = CompileContext::new(
            CompileOptions::new().on_event(move |e| sink.lock().unwrap().push(e.clone())),
        );
        let graph = independent_branches(4, 8);
        let outcome = PortfolioBackend::standard().schedule(&graph, &ctx).unwrap();
        let events = seen.lock().unwrap();
        // Adaptive (member 0) is exact and completes, so the portfolio stops
        // immediately: one member started, the other four skipped.
        let started =
            events.iter().filter(|e| matches!(e, CompileEvent::BackendStarted { .. })).count();
        let skipped =
            events.iter().filter(|e| matches!(e, CompileEvent::BackendSkipped { .. })).count();
        assert_eq!(started, 1);
        assert_eq!(skipped, 4);
        assert_eq!(outcome.stats.race_cutoffs, 4);
        assert!(events
            .iter()
            .any(|e| matches!(e, CompileEvent::BackendChosen { name, .. } if name == "adaptive")));
    }

    /// A graph where order matters (the DP prunes against the ceiling) —
    /// mirrors `dp::tests::branchy`.
    fn branchy() -> Graph {
        let mut g = Graph::new("branchy");
        let a = g.add_opaque("a", 10, &[]).unwrap();
        let s1 = g.add_opaque("s1", 10, &[a]).unwrap();
        let s2 = g.add_opaque("s2", 2, &[s1]).unwrap();
        let b1 = g.add_opaque("b1", 100, &[a]).unwrap();
        let sink = g.add_opaque("sink", 2, &[s2, b1]).unwrap();
        g.mark_output(sink);
        g
    }

    /// A portfolio whose exact member runs *last*, so every member
    /// executes and the cheap ones sharpen the DP via the incumbent.
    fn exact_last_portfolio() -> PortfolioBackend {
        PortfolioBackend::new(vec![
            Arc::new(GreedyBackend),
            Arc::new(KahnBackend),
            Arc::new(BeamBackend::default()),
            Arc::new(DpBackend::default()),
        ])
    }

    fn run_collecting_with(
        portfolio: &PortfolioBackend,
        graph: &Graph,
        options: CompileOptions,
    ) -> (BackendOutcome, Vec<CompileEvent>) {
        let seen: Arc<Mutex<Vec<CompileEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let ctx =
            CompileContext::new(options.on_event(move |e| sink.lock().unwrap().push(e.clone())));
        let outcome = portfolio.schedule(graph, &ctx).unwrap();
        drop(ctx);
        let events = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
        (outcome, events)
    }

    fn run_collecting(
        portfolio: &PortfolioBackend,
        graph: &Graph,
    ) -> (BackendOutcome, Vec<CompileEvent>) {
        run_collecting_with(portfolio, graph, CompileOptions::new())
    }

    #[test]
    fn serial_portfolio_prunes_the_dp_against_earlier_members() {
        // Kahn runs first with a (suboptimal, 120-byte) peak; the DP then
        // prunes the losing branch against that incumbent and still finds
        // the true 112-byte optimum.
        let portfolio =
            PortfolioBackend::new(vec![Arc::new(KahnBackend), Arc::new(DpBackend::default())]);
        let (outcome, _) = run_collecting(&portfolio, &branchy());
        assert!(outcome.stats.bound_pruned > 0, "expected bound pruning, got {outcome:?}");
        assert_eq!(outcome.schedule.peak_bytes, 112);
    }

    /// Delegates to an inner backend under a different name after a pause —
    /// makes one member take far longer than another.
    struct SlowBackend {
        inner: Arc<dyn SchedulerBackend>,
        name: &'static str,
        pause: Duration,
    }

    impl SchedulerBackend for SlowBackend {
        fn name(&self) -> &str {
            self.name
        }

        fn schedule(
            &self,
            graph: &Graph,
            ctx: &CompileContext,
        ) -> Result<BackendOutcome, ScheduleError> {
            std::thread::sleep(self.pause);
            self.inner.schedule(graph, ctx)
        }
    }

    #[test]
    fn ties_keep_the_earlier_member_even_when_it_finishes_last() {
        // Member 0 delegates to Kahn but sleeps first, so it takes far
        // longer than member 1 (dfs). On a graph where every order has the
        // same peak they tie — and the *earlier* member must still win.
        let graph = independent_branches(5, 16);
        let portfolio = PortfolioBackend::new(vec![
            Arc::new(SlowBackend {
                inner: Arc::new(KahnBackend),
                name: "slow-kahn",
                pause: Duration::from_millis(10),
            }),
            Arc::new(DfsBackend),
        ]);
        let (outcome, events) = run_collecting(&portfolio, &graph);
        let chosen = events
            .iter()
            .find_map(|e| match e {
                CompileEvent::BackendChosen { name, .. } => Some(name.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(chosen, "slow-kahn");
        assert!(!outcome.schedule.order.is_empty());
    }

    #[test]
    fn bound_beaten_members_never_surface_when_anyone_completes() {
        // Greedy runs first and already attains branchy's optimum, so the DP
        // runs under that local incumbent, cannot beat it and exits
        // BoundBeaten. The portfolio still answers with greedy's schedule:
        // the loss shows up only in the stats.
        let graph = branchy();
        let optimal = DpBackend::default()
            .schedule(&graph, &CompileContext::unconstrained())
            .unwrap()
            .schedule
            .peak_bytes;
        let portfolio =
            PortfolioBackend::new(vec![Arc::new(GreedyBackend), Arc::new(DpBackend::default())]);
        let outcome = portfolio.schedule(&graph, &CompileContext::unconstrained()).unwrap();
        assert_eq!(outcome.stats.bound_beaten_exits, 1);
        assert_eq!(outcome.schedule.peak_bytes, optimal);
    }

    #[test]
    fn a_winner_above_the_callers_ceiling_reports_bound_beaten() {
        // A tie-winning caller ceiling at the optimum: the DP cannot beat it
        // and exits BoundBeaten, and greedy ignores the ceiling and
        // completes. Its schedule does not beat the caller's incumbent
        // either, so the portfolio reports the loss instead of returning an
        // answer that depends on the ceiling.
        let graph = branchy();
        let optimal = DpBackend::default()
            .schedule(&graph, &CompileContext::unconstrained())
            .unwrap()
            .schedule
            .peak_bytes;
        let portfolio =
            PortfolioBackend::new(vec![Arc::new(DpBackend::default()), Arc::new(GreedyBackend)]);
        let ctx = CompileContext::unconstrained()
            .with_bound(Some(BoundHandle::seeded_incumbent(optimal)));
        let err = portfolio.schedule(&graph, &ctx).unwrap_err();
        assert_eq!(err, ScheduleError::BoundBeaten { bound: optimal });
        // Under a ceiling it can beat, the same portfolio returns exactly its
        // unbounded schedule.
        let loose = CompileContext::unconstrained()
            .with_bound(Some(BoundHandle::seeded_incumbent(optimal + 1)));
        let unbounded = portfolio.schedule(&graph, &CompileContext::unconstrained()).unwrap();
        assert_eq!(portfolio.schedule(&graph, &loose).unwrap().schedule, unbounded.schedule);
    }

    #[test]
    fn seeded_portfolio_where_every_member_loses_reports_bound_beaten() {
        // All members consult the ceiling and all lose: the incumbent
        // stands, reported as BoundBeaten for the caller (the pipeline) to
        // absorb.
        let graph = branchy();
        let optimal = DpBackend::default()
            .schedule(&graph, &CompileContext::unconstrained())
            .unwrap()
            .schedule
            .peak_bytes;
        let portfolio = PortfolioBackend::new(vec![Arc::new(DpBackend::default())]);
        let ctx = CompileContext::unconstrained()
            .with_bound(Some(BoundHandle::seeded_incumbent(optimal)));
        let err = portfolio.schedule(&graph, &ctx).unwrap_err();
        assert_eq!(err, ScheduleError::BoundBeaten { bound: optimal });
    }

    /// `branchy()`'s optimal peak is 112 and its largest single working set
    /// is 110 (`a` + `b1`), so capacity 111 is feasible-but-spilling for
    /// every schedule while 112 lets the optimum fit outright.
    const BRANCHY_SPILL_CAPACITY: u64 = 111;

    #[test]
    fn spilling_exact_member_does_not_cut_off_the_race() {
        let graph = branchy();
        let portfolio =
            PortfolioBackend::new(vec![Arc::new(DpBackend::default()), Arc::new(KahnBackend)]);

        // At 111 the provably peak-optimal schedule still spills, so Kahn
        // must get its chance to win on traffic: both members run.
        let spilling = CompileOptions::new()
            .capacity_target(CapacityTarget::min_traffic(BRANCHY_SPILL_CAPACITY));
        let (_, events) = run_collecting_with(&portfolio, &graph, spilling);
        let started =
            events.iter().filter(|e| matches!(e, CompileEvent::BackendStarted { .. })).count();
        let skipped =
            events.iter().filter(|e| matches!(e, CompileEvent::BackendSkipped { .. })).count();
        assert_eq!((started, skipped), (2, 0), "spilling exact member must not stop the rest");

        // At 112 the optimum fits (zero traffic): nothing can beat it, so
        // the cutoff fires exactly as without a capacity target.
        let fitting = CompileOptions::new().capacity_target(CapacityTarget::min_traffic(112));
        let (outcome, events) = run_collecting_with(&portfolio, &graph, fitting);
        let started =
            events.iter().filter(|e| matches!(e, CompileEvent::BackendStarted { .. })).count();
        let skipped =
            events.iter().filter(|e| matches!(e, CompileEvent::BackendSkipped { .. })).count();
        assert_eq!((started, skipped), (1, 1), "fitting exact member must stop the rest");
        assert_eq!(outcome.schedule.peak_bytes, 112);
    }

    #[test]
    fn capacity_winner_has_min_rank_across_members() {
        let graph = branchy();
        let target = CapacityTarget::min_traffic(BRANCHY_SPILL_CAPACITY);
        let portfolio = exact_last_portfolio();
        let (outcome, _) =
            run_collecting_with(&portfolio, &graph, CompileOptions::new().capacity_target(target));
        let winner = crate::capacity::assess(&graph, &outcome.schedule.order, target)
            .unwrap()
            .rank(outcome.schedule.peak_bytes);
        for member in portfolio.members() {
            let single =
                member.schedule(&graph, &CompileContext::unconstrained()).unwrap().schedule;
            let rank = crate::capacity::assess(&graph, &single.order, target)
                .unwrap()
                .rank(single.peak_bytes);
            assert!(winner <= rank, "portfolio rank {winner:?} lost to {}", member.name());
        }
    }

    #[test]
    fn capacity_members_tighten_the_ceiling_only_when_fitting() {
        // Kahn (120 B) runs before the DP (optimum 112 B). Where Kahn's
        // order spills, its peak must not prune the DP, which may still win
        // on traffic; where it fits, any rival must fit and beat it on
        // peak, so the DP runs under the 119-byte ceiling.
        let graph = branchy();
        let portfolio =
            PortfolioBackend::new(vec![Arc::new(KahnBackend), Arc::new(DpBackend::default())]);
        for (capacity, prunes) in [(BRANCHY_SPILL_CAPACITY, false), (120, true)] {
            let options =
                CompileOptions::new().capacity_target(CapacityTarget::min_traffic(capacity));
            let (outcome, _) = run_collecting_with(&portfolio, &graph, options);
            assert_eq!(outcome.stats.bound_pruned > 0, prunes, "capacity {capacity}");
            assert_eq!(outcome.schedule.peak_bytes, 112, "capacity {capacity}");
        }
    }

    #[test]
    fn serial_deadline_is_split_fairly_across_members() {
        // With a generous deadline every member still completes: slicing
        // must not reject members that fit comfortably in their share.
        let graph = independent_branches(5, 16);
        let ctx = CompileContext::new(CompileOptions::new().deadline(Duration::from_secs(30)));
        let outcome = exact_last_portfolio().schedule(&graph, &ctx).unwrap();
        assert_eq!(outcome.schedule.order.len(), graph.len());
    }
}
