//! Tests of Algorithm 2's transition rules as this crate runs them: where
//! the meta-search starts τ, and how it moves τ in response to `'timeout'`
//! and `'no solution'` flags, verified against the recorded round log.
//! Timeouts come from state caps, never the clock, so every trajectory is
//! the same on any host.

use rand::SeedableRng;
use serenity_core::beam::BeamScheduler;
use serenity_core::budget::{AdaptiveSoftBudget, RoundFlag};
use serenity_core::dp::DpScheduler;
use serenity_core::rewrite::Rewriter;
use serenity_ir::random_dag::{independent_branches, random_dag, RandomDagConfig};
use serenity_ir::{mem, topo, Graph, NodeId};
use serenity_nets::randwire::{randwire_cell, Aggregation, RandWireConfig};

fn kahn_peak(g: &Graph) -> u64 {
    mem::peak_bytes(g, &topo::kahn(g)).unwrap()
}

/// A concat RandWire n8 cell after channel-wise partitioning: the Kahn
/// order keeps every branch live, so its peak is far above µ*.
fn rewritten_concat_cell() -> Graph {
    let cell = randwire_cell(&RandWireConfig {
        nodes: 8,
        seed: 9,
        hw: 16,
        channels: 12,
        aggregation: Aggregation::Concat,
        ..Default::default()
    });
    Rewriter::standard().rewrite(&cell).graph
}

#[test]
fn first_round_runs_at_the_hard_budget() {
    let g = independent_branches(7, 64);
    let kahn = kahn_peak(&g);
    let beam = BeamScheduler::new(16).schedule(&g).unwrap().schedule.peak_bytes;
    let outcome = AdaptiveSoftBudget::new().search(&g).unwrap();
    assert_eq!(outcome.hard_budget, kahn.min(beam), "τ₀ = min(Kahn peak, beam peak)");
    assert_eq!(outcome.rounds[0].budget, outcome.hard_budget, "the first probe runs at τ₀");
}

#[test]
fn beam_start_probes_below_the_kahn_peak_and_keeps_the_dp_order() {
    let g = rewritten_concat_cell();
    let kahn = kahn_peak(&g);
    let exact = DpScheduler::new().schedule(&g).unwrap();
    let at_kahn = DpScheduler::new().budget(kahn).schedule(&g).unwrap();
    let outcome = AdaptiveSoftBudget::new().search(&g).unwrap();
    assert!(outcome.rounds[0].budget < kahn, "{:?} vs Kahn {kahn}", outcome.rounds);
    assert_eq!(outcome.schedule, exact.schedule, "τ₀ ≥ µ*: the DP's order is unchanged");
    assert!(
        outcome.total_stats.transitions * 2 <= at_kahn.stats.transitions,
        "beam + probes {} vs one probe at the Kahn peak {}",
        outcome.total_stats.transitions,
        at_kahn.stats.transitions
    );
}

#[test]
fn beam_start_with_a_pinned_prefix_keeps_the_dp_order() {
    // Pin the cell's input, as divide-and-conquer pins a boundary
    // placeholder; the beam's order gets the prefix hoisted.
    let g = rewritten_concat_cell();
    let prefix = [NodeId::from_index(0)];
    assert_eq!(g.indegree(prefix[0]), 0);
    let exact = DpScheduler::new().schedule_with_prefix(&g, &prefix).unwrap();
    let outcome = AdaptiveSoftBudget::new().search_with_prefix(&g, &prefix).unwrap();
    assert!(outcome.rounds[0].budget < kahn_peak(&g), "{:?}", outcome.rounds);
    assert!(outcome.schedule.order.starts_with(&prefix));
    assert_eq!(outcome.schedule, exact.schedule);
}

#[test]
fn two_no_solutions_in_a_row_never_probe_at_or_below_a_failed_budget() {
    // A state cap makes the loose first budget time out, the halved one
    // fail, and the next ones fail again. Algorithm 2's literal rule
    // (τ_old ← τ_new) then drops back below a budget that already failed
    // and keeps probing between failed budgets.
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let g =
        random_dag(&RandomDagConfig { nodes: 18, edge_prob: 0.2, ..Default::default() }, &mut rng);
    let outcome = AdaptiveSoftBudget::new().max_states(40).search(&g).unwrap();
    let trace: Vec<(u64, RoundFlag)> = outcome.rounds.iter().map(|r| (r.budget, r.flag)).collect();
    assert!(
        trace
            .windows(2)
            .any(|w| w[0].1 == RoundFlag::NoSolution && w[1].1 == RoundFlag::NoSolution),
        "the trajectory must contain two 'no solution' rounds in a row: {trace:?}"
    );
    for (i, &(budget, _)) in trace.iter().enumerate() {
        for &(failed, flag) in &trace[..i] {
            assert!(
                flag != RoundFlag::NoSolution || budget > failed,
                "probe {i} at {budget} B is at or below the failed {failed} B: {trace:?}"
            );
        }
    }
    assert_eq!(trace.last().unwrap().1, RoundFlag::Solution);
    assert_eq!(outcome.schedule, DpScheduler::new().schedule(&g).unwrap().schedule);
    // Failed rounds report the work they did.
    assert!(outcome.rounds.iter().all(|r| r.stats.transitions > 0), "{:?}", outcome.rounds);
}

#[test]
fn no_solution_rounds_move_tau_halfway_back_up() {
    // Force the paper's `'no solution'` path: a state cap small enough that
    // the loose first round "times out", driving τ below µ*, after which
    // the search must climb back with τ_new ← (τ_new + τ_old)/2.
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let g =
        random_dag(&RandomDagConfig { nodes: 24, edge_prob: 0.2, ..Default::default() }, &mut rng);
    let outcome = AdaptiveSoftBudget::new().max_states(128).search(&g).unwrap();
    let trace: Vec<(u64, RoundFlag)> = outcome.rounds.iter().map(|r| (r.budget, r.flag)).collect();
    for flag in [RoundFlag::NoSolution, RoundFlag::Timeout] {
        assert!(
            trace.windows(2).any(|w| w[0].1 == flag),
            "the trajectory must continue after a {flag:?} round: {trace:?}"
        );
    }
    for pair in trace.windows(2) {
        match pair[0].1 {
            RoundFlag::NoSolution => {
                assert!(pair[1].0 > pair[0].0, "after 'no solution' τ must increase: {trace:?}")
            }
            RoundFlag::Timeout => {
                assert!(pair[1].0 < pair[0].0, "after 'timeout' τ must decrease: {trace:?}")
            }
            RoundFlag::Solution => unreachable!("a solution ends the search"),
        }
    }
    assert_eq!(outcome.schedule, DpScheduler::new().schedule(&g).unwrap().schedule);
}

#[test]
fn solution_budget_is_sandwiched() {
    let g = independent_branches(8, 32);
    let outcome = AdaptiveSoftBudget::new().search(&g).unwrap();
    let optimal = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
    assert!(outcome.final_budget >= optimal, "τ_final must admit the optimum");
    assert!(outcome.final_budget <= outcome.hard_budget, "τ_final never exceeds τ₀");
    assert_eq!(outcome.schedule.peak_bytes, optimal, "pruned DP stays optimal");
}

#[test]
fn round_stats_accumulate_into_totals() {
    let g = independent_branches(8, 32);
    let outcome = AdaptiveSoftBudget::new().search(&g).unwrap();
    let summed: u64 = outcome.rounds.iter().map(|r| r.stats.transitions).sum();
    let beam = BeamScheduler::new(16).schedule(&g).unwrap().stats.transitions;
    assert_eq!(outcome.total_stats.transitions, beam + summed, "the τ₀ beam run counts too");
}

#[test]
fn tight_budget_prunes_more_than_loose() {
    let g = independent_branches(9, 16);
    let optimal = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
    let tight = DpScheduler::new().budget(optimal).schedule(&g).unwrap();
    let loose = DpScheduler::new().budget(optimal * 10).schedule(&g).unwrap();
    assert!(tight.stats.pruned >= loose.stats.pruned);
    assert!(tight.stats.transitions <= loose.stats.transitions);
    // Both still land on the optimum (Figure 8(a)'s guarantee for τ ≥ µ*).
    assert_eq!(tight.schedule.peak_bytes, optimal);
    assert_eq!(loose.schedule.peak_bytes, optimal);
}
