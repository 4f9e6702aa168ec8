//! Adaptive soft budgeting (§3.2, Algorithm 2, Figure 8).
//!
//! Budget-pruned DP (see [`crate::dp`]) is fast when the budget τ is tight
//! but fails with `'no solution'` when τ < µ*, and times out when τ is so
//! loose that pruning removes nothing. Algorithm 2 searches for a workable τ
//! by binary search:
//!
//! * the **hard budget** `τ_max` is the peak of Kahn's `O(|V|+|E|)` schedule —
//!   a schedule with that peak certainly exists;
//! * `'timeout'` ⇒ the budget is too loose: halve it
//!   (`τ_old ← τ_new, τ_new ← τ_new / 2`);
//! * `'no solution'` ⇒ the budget is too tight: move halfway back up
//!   (`τ_old ← τ_new, τ_new ← (τ_new + τ_old) / 2`, simultaneous);
//! * `'solution'` ⇒ done — and because pruning with τ ≥ µ* preserves the
//!   optimum, the returned schedule is *the* optimal schedule.
//!
//! Two deviations from Algorithm 2:
//!
//! * **A tighter start.** The first probe runs at
//!   `τ₀ = min(Kahn peak, width-16 beam peak)`, both taken with the pinned
//!   prefix hoisted to the front. On channel-partitioned concat graphs the
//!   Kahn order keeps every branch live, so its peak sits far above µ* and
//!   the first probe prunes almost nothing; the beam's peak is close to µ*.
//!   The beam runs without the incumbent ceiling (its whole-frontier cutoff
//!   would give up where the DP may still win), and its counters are part
//!   of the search's totals.
//! * **A bracketed bisection.** The search keeps a *floor*, the highest τ
//!   that returned `'no solution'` (so µ* is above it), and a *ceiling*, the
//!   lowest τ that timed out (τ₀ until one does). It never probes at or
//!   below the floor: after `'no solution'` it probes halfway to the
//!   ceiling, and a halving after `'timeout'` that would land at or below
//!   the floor bisects the bracket instead. When the bracket has collapsed
//!   the search escalates toward τ₀, as Algorithm 2 does. The literal rule
//!   (`τ_old ← τ_new`) drops back below a budget that has already failed
//!   after two `'no solution'` rounds in a row.
//!
//! Neither deviation can change a schedule. τ₀ is the peak of a valid
//! pinned order, so τ₀ ≥ µ*; every probe that returns a solution ran at
//! some τ ≥ µ*, where every state on an optimal path survives pruning, and
//! the DP's intrinsic equal-peak tie-break makes each survivor independent
//! of the pruned rivals — so every such probe returns the order of the
//! unbudgeted DP. The deviations change only how many probes it takes.
//!
//! Two safeguards beyond the paper: the search never drops τ below the
//! provable lower bound `LB = max_v(bytes(v) + Σ bytes(preds(v)))`, and a
//! round limit turns pathological cases into
//! [`ScheduleError::BudgetSearchExhausted`] with the Kahn fallback exposed.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use serenity_ir::{mem, topo, Graph};

use crate::backend::{BeamBackend, CompileContext, CompileEvent, KahnBackend, SchedulerBackend};
use crate::dp::DpScheduler;
use crate::{Schedule, ScheduleError, ScheduleStats};

/// Width of the beam run whose peak tightens the starting budget τ₀: wide
/// enough to land near µ* on the benchmark cells, cheap next to one probe.
const START_BEAM_WIDTH: usize = 16;

/// Outcome flag of one budget-pruned DP run (Algorithm 2's `flag`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoundFlag {
    /// The DP completed within budget: an optimal schedule was found.
    Solution,
    /// Every path was pruned: the budget is below µ*.
    NoSolution,
    /// A search step exceeded the per-step time limit `T`.
    Timeout,
}

/// Record of one meta-search round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BudgetRound {
    /// The soft budget τ used in this round, in bytes.
    pub budget: u64,
    /// How the DP run ended.
    pub flag: RoundFlag,
    /// Search effort of the round.
    pub stats: ScheduleStats,
}

/// Result of the adaptive-soft-budget meta-search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetSearchOutcome {
    /// The optimal schedule.
    pub schedule: Schedule,
    /// Budget of the successful round.
    pub final_budget: u64,
    /// The starting budget τ₀ = min(Kahn peak, width-16 beam peak), both
    /// with the pinned prefix hoisted. Algorithm 2's `τ_max` is the Kahn
    /// peak alone; the beam only tightens it, and since both are peaks of
    /// valid pinned orders, τ₀ ≥ µ* still holds (see the module docs).
    pub hard_budget: u64,
    /// Every round in order, including the successful one.
    pub rounds: Vec<BudgetRound>,
    /// Aggregate statistics over the beam run that found τ₀ and all rounds.
    pub total_stats: ScheduleStats,
}

/// Configuration of [`AdaptiveSoftBudget`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetConfig {
    /// Per-search-step time limit `T` handed to each DP run.
    pub step_timeout: Duration,
    /// Maximum number of meta-search rounds before giving up.
    pub max_rounds: usize,
    /// Worker threads per DP run.
    pub threads: usize,
    /// Per-step state cap handed to each DP run (`None` = unlimited).
    pub max_states: Option<usize>,
}

impl Default for BudgetConfig {
    fn default() -> Self {
        BudgetConfig {
            step_timeout: Duration::from_secs(1),
            max_rounds: 24,
            threads: 1,
            max_states: None,
        }
    }
}

/// The adaptive-soft-budget meta-search (Algorithm 2).
///
/// # Example
///
/// ```
/// use serenity_core::budget::AdaptiveSoftBudget;
/// use serenity_ir::random_dag::independent_branches;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = independent_branches(6, 16);
/// let outcome = AdaptiveSoftBudget::new().search(&g)?;
/// assert!(outcome.final_budget <= outcome.hard_budget);
/// assert_eq!(outcome.schedule.order.len(), g.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct AdaptiveSoftBudget {
    config: BudgetConfig,
}

impl AdaptiveSoftBudget {
    /// Creates a meta-search with the default configuration.
    pub fn new() -> Self {
        AdaptiveSoftBudget::default()
    }

    /// Creates a meta-search from an explicit configuration.
    pub fn with_config(config: BudgetConfig) -> Self {
        AdaptiveSoftBudget { config }
    }

    /// Sets the per-search-step time limit `T`.
    pub fn step_timeout(mut self, limit: Duration) -> Self {
        self.config.step_timeout = limit;
        self
    }

    /// Sets the round limit.
    pub fn max_rounds(mut self, rounds: usize) -> Self {
        self.config.max_rounds = rounds;
        self
    }

    /// Sets the number of worker threads per DP run.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the per-step state cap for each DP run.
    pub fn max_states(mut self, max: usize) -> Self {
        self.config.max_states = Some(max);
        self
    }

    /// The current configuration.
    pub fn config(&self) -> &BudgetConfig {
        &self.config
    }

    /// Runs the meta-search on `graph`.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::BudgetSearchExhausted`] if no round produced a
    ///   solution within the round limit (use
    ///   [`AdaptiveSoftBudget::search_or_fallback`] for the Kahn fallback).
    /// * [`ScheduleError::Graph`] if the graph is malformed.
    pub fn search(&self, graph: &Graph) -> Result<BudgetSearchOutcome, ScheduleError> {
        self.search_with_prefix(graph, &[])
    }

    /// Runs the meta-search with a pinned schedule prefix (see
    /// [`DpScheduler::schedule_with_prefix`]).
    ///
    /// # Errors
    ///
    /// As [`AdaptiveSoftBudget::search`].
    pub fn search_with_prefix(
        &self,
        graph: &Graph,
        prefix: &[serenity_ir::NodeId],
    ) -> Result<BudgetSearchOutcome, ScheduleError> {
        self.search_with_prefix_ctx(graph, prefix, &CompileContext::unconstrained())
    }

    /// Like [`AdaptiveSoftBudget::search_with_prefix`], but governed by a
    /// [`CompileContext`]: cancellation and the wall-clock deadline abort
    /// between and within probes, and every probe result is reported as a
    /// [`CompileEvent::BudgetProbe`].
    ///
    /// # Errors
    ///
    /// As [`AdaptiveSoftBudget::search_with_prefix`], plus
    /// [`ScheduleError::Cancelled`] / [`ScheduleError::DeadlineExceeded`].
    pub fn search_with_prefix_ctx(
        &self,
        graph: &Graph,
        prefix: &[serenity_ir::NodeId],
        ctx: &CompileContext,
    ) -> Result<BudgetSearchOutcome, ScheduleError> {
        let started = Instant::now();
        ctx.check()?;
        // Starting budget τ₀: the Kahn peak (Algorithm 2, line 3), tightened
        // by a beam run that ignores the incumbent ceiling.
        let kahn = KahnBackend.schedule_with_prefix(graph, prefix, ctx)?;
        let beam = BeamBackend::new(START_BEAM_WIDTH).schedule_with_prefix(
            graph,
            prefix,
            &ctx.with_bound(None),
        )?;
        let hard_budget = kahn.schedule.peak_bytes.min(beam.schedule.peak_bytes);
        let mut bracket = Bracket {
            floor: None,
            ceiling: hard_budget,
            start: hard_budget,
            lower_bound: mem::peak_lower_bound(graph),
        };

        let mut tau = hard_budget;
        let mut rounds: Vec<BudgetRound> = Vec::new();
        let mut total_stats = beam.stats;

        for _ in 0..self.config.max_rounds {
            ctx.check()?;
            let mut stats = ScheduleStats::default();
            let (flag, schedule) = match self.dp_for(tau).run(graph, prefix, ctx, &mut stats) {
                Ok(schedule) => (RoundFlag::Solution, Some(schedule)),
                Err(ScheduleError::NoSolution { .. }) => (RoundFlag::NoSolution, None),
                Err(ScheduleError::Timeout { .. }) => (RoundFlag::Timeout, None),
                Err(other) => return Err(other),
            };
            total_stats.absorb(&stats);
            total_stats.probes += 1;
            ctx.emit(CompileEvent::BudgetProbe { budget: tau, flag });
            rounds.push(BudgetRound { budget: tau, flag, stats });

            if let Some(schedule) = schedule {
                total_stats.duration = started.elapsed();
                return Ok(BudgetSearchOutcome {
                    schedule,
                    final_budget: tau,
                    hard_budget,
                    rounds,
                    total_stats,
                });
            }
            tau = bracket.next(tau, flag);
        }
        total_stats.duration = started.elapsed();
        Err(ScheduleError::BudgetSearchExhausted {
            rounds: rounds.len(),
            stats: Box::new(total_stats),
        })
    }

    /// Runs the meta-search and falls back to the Kahn schedule when the
    /// round limit is exhausted (the budget-pruned DP never did better than
    /// `τ_max`, so the Kahn schedule is a sound, if suboptimal, answer).
    ///
    /// Returns the outcome and whether the fallback was taken.
    ///
    /// # Errors
    ///
    /// Only graph errors are propagated.
    pub fn search_or_fallback(
        &self,
        graph: &Graph,
    ) -> Result<(BudgetSearchOutcome, bool), ScheduleError> {
        match self.search(graph) {
            Ok(outcome) => Ok((outcome, false)),
            Err(ScheduleError::BudgetSearchExhausted { stats, .. }) => {
                let order = topo::kahn(graph);
                let schedule = Schedule::from_order(graph, order)?;
                let hard_budget = schedule.peak_bytes;
                Ok((
                    BudgetSearchOutcome {
                        final_budget: hard_budget,
                        hard_budget,
                        schedule,
                        rounds: Vec::new(),
                        total_stats: *stats,
                    },
                    true,
                ))
            }
            Err(other) => Err(other),
        }
    }

    fn dp_for(&self, budget: u64) -> DpScheduler {
        let mut dp = DpScheduler::new()
            .budget(budget)
            .step_timeout(self.config.step_timeout)
            .threads(self.config.threads.max(1));
        if let Some(max) = self.config.max_states {
            dp = dp.max_states(max);
        }
        dp
    }
}

/// The proven bounds the probes move between (see the module docs).
#[derive(Debug)]
struct Bracket {
    /// Highest τ that returned `'no solution'`: µ* lies above it.
    floor: Option<u64>,
    /// Lowest τ that timed out, or τ₀ while none has.
    ceiling: u64,
    /// τ₀, the escalation target once the bracket has collapsed.
    start: u64,
    /// The provable lower bound LB; halving never goes below it.
    lower_bound: u64,
}

impl Bracket {
    /// The budget to probe after a round at `tau` ended with `flag`
    /// (`'timeout'` or `'no solution'`).
    fn next(&mut self, tau: u64, flag: RoundFlag) -> u64 {
        let next = match flag {
            RoundFlag::Timeout => {
                self.ceiling = self.ceiling.min(tau);
                (tau / 2).max(self.lower_bound)
            }
            RoundFlag::NoSolution => {
                self.floor = Some(tau);
                midpoint(tau, self.ceiling)
            }
            RoundFlag::Solution => unreachable!("a solution ends the search"),
        };
        let Some(floor) = self.floor else { return next };
        if next > floor {
            return next;
        }
        // Never at or below a failed budget: bisect the bracket, or, once it
        // has collapsed, escalate toward τ₀ as Algorithm 2 does.
        [midpoint(floor, self.ceiling), midpoint(floor, self.start)]
            .into_iter()
            .find(|&t| t > floor)
            .unwrap_or(self.start)
    }
}

fn midpoint(a: u64, b: u64) -> u64 {
    a / 2 + b / 2 + (a % 2 + b % 2) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenity_ir::random_dag::{independent_branches, random_dag, RandomDagConfig};

    #[test]
    fn finds_optimal_schedule() {
        let g = independent_branches(8, 32);
        let outcome = AdaptiveSoftBudget::new().search(&g).unwrap();
        let optimal = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
        assert_eq!(outcome.schedule.peak_bytes, optimal);
        assert!(outcome.final_budget >= optimal);
        assert!(outcome.hard_budget >= outcome.schedule.peak_bytes);
    }

    #[test]
    fn first_round_uses_hard_budget() {
        // τ₀ = min(Kahn peak, width-16 beam peak).
        let g = independent_branches(5, 16);
        let kahn = mem::peak_bytes(&g, &topo::kahn(&g)).unwrap();
        let beam = crate::beam::BeamScheduler::new(START_BEAM_WIDTH).schedule(&g).unwrap();
        let outcome = AdaptiveSoftBudget::new().search(&g).unwrap();
        assert_eq!(outcome.hard_budget, kahn.min(beam.schedule.peak_bytes));
        assert_eq!(outcome.rounds[0].budget, outcome.hard_budget);
    }

    #[test]
    fn rounds_record_flags() {
        let g = independent_branches(5, 16);
        let outcome = AdaptiveSoftBudget::new().search(&g).unwrap();
        assert_eq!(outcome.rounds.last().unwrap().flag, RoundFlag::Solution);
    }

    #[test]
    fn timeout_escalation_reaches_solution() {
        use rand::SeedableRng;
        // A modest random DAG with a (deliberately generous) step budget: the
        // search should converge without exhausting rounds.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = random_dag(
            &RandomDagConfig { nodes: 24, edge_prob: 0.2, ..Default::default() },
            &mut rng,
        );
        let outcome =
            AdaptiveSoftBudget::new().step_timeout(Duration::from_millis(500)).search(&g).unwrap();
        let optimal = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
        assert_eq!(outcome.schedule.peak_bytes, optimal);
    }

    #[test]
    fn state_cap_forces_fallback() {
        // With an absurdly small state cap every round times out, exhausting
        // the search; the fallback returns the Kahn schedule.
        let g = independent_branches(12, 8);
        let search = AdaptiveSoftBudget::new().max_states(2).max_rounds(4);
        assert!(matches!(search.search(&g), Err(ScheduleError::BudgetSearchExhausted { .. })));
        let (outcome, fell_back) = search.search_or_fallback(&g).unwrap();
        assert!(fell_back);
        assert_eq!(outcome.schedule.order.len(), g.len());
    }

    #[test]
    fn bound_beaten_propagates_out_of_probes() {
        use crate::backend::{BoundHandle, CompileContext};
        // A tie-winning incumbent at µ*: the first probe (τ = hard budget)
        // is cut off by the bound, and the loss must surface as BoundBeaten
        // — not be misread as NoSolution, which would tighten τ forever.
        let g = independent_branches(5, 16);
        let optimal = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
        let ctx = CompileContext::unconstrained()
            .with_bound(Some(BoundHandle::seeded_incumbent(optimal)));
        let err = AdaptiveSoftBudget::new().search_with_prefix_ctx(&g, &[], &ctx).unwrap_err();
        assert_eq!(err, ScheduleError::BoundBeaten { bound: optimal });
    }

    #[test]
    fn weak_bound_keeps_the_adaptive_search_optimal() {
        use crate::backend::{BoundHandle, CompileContext};
        let g = independent_branches(8, 32);
        let free = AdaptiveSoftBudget::new().search(&g).unwrap();
        let ctx = CompileContext::unconstrained()
            .with_bound(Some(BoundHandle::seeded_weak(free.schedule.peak_bytes)));
        let bounded = AdaptiveSoftBudget::new().search_with_prefix_ctx(&g, &[], &ctx).unwrap();
        assert_eq!(bounded.schedule, free.schedule);
    }

    #[test]
    fn incumbent_that_cuts_off_the_beam_does_not_stop_the_dp() {
        use crate::backend::BoundHandle;
        use rand::SeedableRng;
        // The width-16 beam ends above µ* here, so a tie-winning incumbent
        // just above µ* cuts it off; the τ₀ beam must run without the bound,
        // or the search would give up although the DP beats the incumbent.
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let g = random_dag(
            &RandomDagConfig { nodes: 22, edge_prob: 0.15, ..Default::default() },
            &mut rng,
        );
        let exact = DpScheduler::new().schedule(&g).unwrap().schedule;
        let ctx = CompileContext::unconstrained()
            .with_bound(Some(BoundHandle::seeded_incumbent(exact.peak_bytes + 1)));
        let beam = BeamBackend::new(START_BEAM_WIDTH).schedule(&g, &ctx);
        assert!(matches!(beam, Err(ScheduleError::BoundBeaten { .. })), "{beam:?}");
        let outcome = AdaptiveSoftBudget::new().search_with_prefix_ctx(&g, &[], &ctx).unwrap();
        assert_eq!(outcome.schedule, exact);
    }

    #[test]
    fn bracket_never_probes_at_or_below_a_failed_budget() {
        use RoundFlag::{NoSolution, Timeout};
        let mut bracket = Bracket { floor: None, ceiling: 800, start: 800, lower_bound: 100 };
        // Timeouts halve, as in Algorithm 2, down to the lower bound.
        assert_eq!(bracket.next(800, Timeout), 400);
        assert_eq!(bracket.next(400, Timeout), 200);
        assert_eq!(bracket.next(200, Timeout), 100);
        // 'no solution' bisects toward the lowest timed-out budget; after two
        // in a row the literal rule would drop back to 125, below 150.
        assert_eq!(bracket.next(100, NoSolution), 150);
        assert_eq!(bracket.next(150, NoSolution), 175);
        // A halving that would land on a failed budget bisects the bracket.
        assert_eq!(bracket.next(175, Timeout), 162);
        assert_eq!(bracket.next(162, NoSolution), 168);
        // A collapsed bracket escalates toward τ₀, and then to τ₀ itself.
        let mut collapsed = Bracket { floor: Some(173), ceiling: 175, start: 800, lower_bound: 1 };
        assert_eq!(collapsed.next(174, NoSolution), 487);
        let mut collapsed = Bracket { floor: None, ceiling: 11, start: 11, lower_bound: 1 };
        assert_eq!(collapsed.next(10, NoSolution), 11);
    }

    #[test]
    fn failed_runs_report_their_counters() {
        let g = independent_branches(12, 8);
        let ctx = CompileContext::unconstrained();
        let optimal = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
        for (dp, timed_out) in [
            (DpScheduler::new().max_states(2), true),
            (DpScheduler::new().budget(optimal - 1), false),
        ] {
            let mut stats = ScheduleStats::default();
            let err = dp.run(&g, &[], &ctx, &mut stats).unwrap_err();
            assert_eq!(matches!(err, ScheduleError::Timeout { .. }), timed_out, "{err}");
            assert!(stats.transitions > 0 && stats.states > 0, "{err}: {stats:?}");
        }
    }

    #[test]
    fn midpoint_is_overflow_safe() {
        assert_eq!(midpoint(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(midpoint(2, 4), 3);
        assert_eq!(midpoint(3, 4), 3);
    }

    #[test]
    fn explored_schedules_grow_with_budget() {
        // Figure 8(b): the number of explored schedules is monotonically
        // non-decreasing in τ.
        let g = independent_branches(9, 16);
        let optimal = DpScheduler::new().schedule(&g).unwrap();
        let peak = optimal.schedule.peak_bytes;
        let mut last = 0;
        for budget in [peak, peak * 2, peak * 4, u64::MAX / 2] {
            let run = DpScheduler::new().budget(budget).schedule(&g).unwrap();
            assert!(run.stats.transitions >= last);
            last = run.stats.transitions;
        }
    }
}
