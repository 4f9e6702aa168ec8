//! Calibration of the synthesized benchmarks against the paper's Figure 15
//! raw peak-footprint numbers, plus end-to-end feasibility of the full
//! SERENITY pipeline on every cell. The `fig10_peak_reduction` binary prints
//! the calibrated footprints in KB (Figure 15) beside the paper's reductions.

use std::time::{Duration, Instant};

use serenity_allocator::Strategy;
use serenity_core::budget::BudgetConfig;
use serenity_core::pipeline::{RewriteMode, Serenity};
use serenity_ir::topo;
use serenity_nets::{suite, Family};

fn tflite_baseline_kb(graph: &serenity_ir::Graph) -> f64 {
    let order = topo::kahn(graph);
    let plan =
        serenity_allocator::plan(graph, &order, Strategy::GreedyBySize).expect("baseline plan");
    plan.arena_bytes as f64 / 1024.0
}

fn compiler(rewrite: RewriteMode) -> Serenity {
    Serenity::builder()
        .rewrite(rewrite)
        .backend(std::sync::Arc::new(serenity_core::backend::AdaptiveBackend::with_config(
            BudgetConfig { threads: 4, ..BudgetConfig::default() },
        )))
        .allocator(Some(Strategy::GreedyBySize))
        .build()
}

#[test]
fn every_benchmark_schedules_and_beats_the_baseline() {
    for b in suite() {
        let started = Instant::now();
        let compiled = compiler(RewriteMode::Off).compile(&b.graph).expect(b.name);
        let baseline = tflite_baseline_kb(&b.graph);
        let arena_kb = compiled.arena.as_ref().expect("arena on").arena_bytes as f64 / 1024.0;
        assert!(
            arena_kb <= baseline + 1e-9,
            "{}: DP arena {arena_kb:.1} KB must not exceed TFLite baseline {baseline:.1} KB",
            b.name
        );
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "{} took too long to schedule",
            b.name
        );
    }
}

#[test]
fn rewriting_helps_exactly_the_families_the_paper_says() {
    for b in suite() {
        let plain = compiler(RewriteMode::Off).compile(&b.graph).expect(b.name);
        let rewritten = compiler(RewriteMode::IfBeneficial).compile(&b.graph).expect(b.name);
        match b.family {
            Family::RandWire => {
                assert!(
                    rewritten.rewrites.is_empty(),
                    "{}: RandWire must not rewrite (Figure 10)",
                    b.name
                );
                assert_eq!(plain.peak_bytes, rewritten.peak_bytes);
            }
            Family::Darts | Family::SwiftNet => {
                assert!(
                    rewritten.peak_bytes < plain.peak_bytes,
                    "{}: rewriting should lower the peak ({} vs {})",
                    b.name,
                    rewritten.peak_bytes,
                    plain.peak_bytes
                );
            }
        }
    }
}

#[test]
fn baseline_peaks_track_figure15_ordering() {
    // Absolute KB values are calibration-dependent; the *ordering* of the
    // baseline footprints across cells is structural and must match
    // Figure 15: DARTS > SwiftNet A > SwiftNet B > SwiftNet C, and RandWire
    // A > B within each dataset.
    let kb: std::collections::HashMap<&str, f64> =
        suite().iter().map(|b| (b.id, tflite_baseline_kb(&b.graph))).collect();
    assert!(kb["darts-normal"] > kb["swiftnet-a"]);
    assert!(kb["swiftnet-a"] > kb["swiftnet-b"]);
    assert!(kb["swiftnet-b"] > kb["swiftnet-c"]);
    assert!(kb["randwire-c10-a"] > kb["randwire-c10-b"]);
    assert!(kb["randwire-c100-a"] > kb["randwire-c100-b"]);
    assert!(kb["randwire-c100-b"] > kb["randwire-c100-c"]);
}

#[test]
fn baseline_peaks_within_2x_of_paper() {
    for b in suite() {
        let ours = tflite_baseline_kb(&b.graph);
        let paper = b.paper.tflite_peak_kb;
        let ratio = ours / paper;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "{}: baseline {ours:.1} KB vs paper {paper:.1} KB (ratio {ratio:.2})",
            b.name
        );
    }
}
