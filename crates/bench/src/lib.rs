//! Shared plumbing for the binaries that regenerate the SERENITY paper's
//! tables and figures (each bin under `src/bin/` names the table or figure
//! it reproduces). Performance is measured by the seeded benchmark package
//! in `src/bin/benchmark/`, which has a manifest of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use serenity_allocator::Strategy;
use serenity_core::backend::AdaptiveBackend;
use serenity_core::budget::BudgetConfig;
use serenity_core::pipeline::{RewriteMode, Serenity};
use serenity_ir::{topo, Graph};

/// The harness's standard budget configuration: the default per-step state
/// cap, with four expansion threads.
pub fn budget_config() -> BudgetConfig {
    BudgetConfig { threads: 4, ..BudgetConfig::default() }
}

/// The SERENITY compiler in the paper's "DP + memory allocator" or
/// "DP + graph rewriting + memory allocator" configuration.
pub fn compiler(rewrite: bool) -> Serenity {
    let mode = if rewrite { RewriteMode::IfBeneficial } else { RewriteMode::Off };
    Serenity::builder()
        .rewrite(mode)
        .backend(Arc::new(AdaptiveBackend::with_config(budget_config())))
        .allocator(Some(Strategy::GreedyBySize))
        .build()
}

/// Arena size of the TensorFlow-Lite-style baseline: construction-order
/// (Kahn) schedule plus the greedy-by-size offset planner.
pub fn tflite_baseline_arena(graph: &Graph) -> u64 {
    let order = topo::kahn(graph);
    serenity_allocator::plan(graph, &order, Strategy::GreedyBySize)
        .expect("baseline plan succeeds on valid graphs")
        .arena_bytes
}

/// Geometric mean.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let product: f64 = values.iter().product();
    product.powf(1.0 / values.len() as f64)
}

/// Formats bytes as a KB string with one decimal.
pub fn kb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// Renders a simple horizontal bar for terminal "figures".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = ((value / max) * width as f64).round().clamp(0.0, width as f64) as usize;
    "#".repeat(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn bar_is_bounded() {
        assert_eq!(bar(1.0, 1.0, 10).len(), 10);
        assert_eq!(bar(0.0, 1.0, 10).len(), 0);
        assert_eq!(bar(5.0, 1.0, 10).len(), 10);
    }

    #[test]
    fn baseline_arena_is_positive() {
        let g = serenity_nets::swiftnet::cell_c();
        assert!(tflite_baseline_arena(&g) > 0);
    }
}
