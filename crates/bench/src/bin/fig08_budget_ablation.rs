//! Figure 8(b): the number of explored schedules grows monotonically with
//! the soft budget τ — the observation that makes adaptive soft budgeting's
//! binary search sound. Measured on SwiftNet Cell A's main segment by
//! sweeping τ from the optimal peak µ* up to and beyond the hard budget
//! τ_max (the Kahn peak), plus the `'no solution'` region below µ*.
//!
//! The `adaptive` backend deviates from Algorithm 2 in two ways, and the
//! program prints where its search starts and how it moves:
//!
//! * it starts at τ₀ = min(τ_max, peak of a width-16 beam schedule) — a
//!   peak of a valid order, so τ₀ ≥ µ* and the first probe prunes more;
//! * it never probes at or below a budget that returned `'no solution'`
//!   (the literal rule can drop back below one after two in a row).
//!
//! Neither changes the schedule: every solved probe ran at τ ≥ µ*, where
//! the budget-pruned DP returns the unbudgeted DP's order.
//!
//! Run with: `cargo run --release -p serenity-bench --bin fig08_budget_ablation`

use serenity_bench::bar;
use serenity_core::budget::AdaptiveSoftBudget;
use serenity_core::dp::DpScheduler;
use serenity_ir::{mem, topo};

fn main() {
    let graph = serenity_nets::swiftnet::cell_a();
    let optimal = DpScheduler::new()
        .threads(4)
        .schedule(&graph)
        .expect("cell A schedules")
        .schedule
        .peak_bytes;
    let hard = mem::peak_bytes(&graph, &topo::kahn(&graph)).expect("kahn valid");

    println!("Figure 8(b): explored schedules vs soft budget τ (SwiftNet Cell A)");
    let adaptive = AdaptiveSoftBudget::new().threads(4).search(&graph).expect("cell A schedules");
    println!(
        "optimal budget τ* = {:.1} KB, hard budget τ_max = {:.1} KB, adaptive start τ₀ = {:.1} KB",
        optimal as f64 / 1024.0,
        hard as f64 / 1024.0,
        adaptive.hard_budget as f64 / 1024.0
    );
    let probes: Vec<String> = adaptive
        .rounds
        .iter()
        .map(|r| format!("{:.1} KB {:?}", r.budget as f64 / 1024.0, r.flag))
        .collect();
    println!("adaptive probes: {}\n", probes.join(" → "));
    println!("{:>10} {:>14} {:>9}  transitions", "τ (KB)", "flag", "explored");

    // Sample budgets from below µ* ('no solution') through τ_max and beyond.
    let mut samples: Vec<u64> = vec![optimal / 2, optimal.saturating_sub(1)];
    for i in 0..=8 {
        samples.push(optimal + (hard - optimal) * i / 8);
    }
    samples.push(hard * 2);

    let mut max_transitions = 1u64;
    let mut rows = Vec::new();
    for tau in samples {
        let result = DpScheduler::new().budget(tau).threads(4).schedule(&graph);
        let (flag, transitions) = match &result {
            Ok(solution) => ("solution", solution.stats.transitions),
            Err(serenity_core::ScheduleError::NoSolution { .. }) => ("no solution", 0),
            Err(e) => panic!("unexpected scheduler failure: {e}"),
        };
        max_transitions = max_transitions.max(transitions);
        rows.push((tau, flag, transitions));
    }
    let mut last = 0u64;
    let mut monotone = true;
    for (tau, flag, transitions) in rows {
        println!(
            "{:>10.1} {:>14} {:>9}  |{}",
            tau as f64 / 1024.0,
            flag,
            transitions,
            bar(transitions as f64, max_transitions as f64, 36)
        );
        if flag == "solution" {
            monotone &= transitions >= last;
            last = transitions;
        }
    }
    println!(
        "\nexplored schedules grow monotonically with τ: {}",
        if monotone { "yes (as Figure 8(b) requires)" } else { "no" }
    );
}
