//! Acceptance tests of the cost-guided rewrite loop on benchmark-family
//! networks: the loop never increases the compiled peak versus rewrite-off,
//! strictly reduces it on a concat-aggregation RandWire instance, reports
//! memo hits on multi-iteration runs, stays bit-identical between serial
//! and parallel scheduling, and, under a `MinTraffic` capacity target (the
//! paper's Figure 11 regime), fits on-chip where rewrite-off spills.
//!
//! Most tests compile *small* instances of each family; the never-worse
//! invariant also runs on the paper's nine cells. CI runs this file in debug
//! and in release, where the pipeline's own certification is compiled out.

use std::sync::Arc;

use serenity_core::backend::DpBackend;
use serenity_core::capacity::assess;
use serenity_core::dp::DpConfig;
use serenity_core::pipeline::{CompiledSchedule, RewriteMode, Serenity};
use serenity_core::verify::verify;
use serenity_core::{CapacityReport, CapacityTarget};
use serenity_ir::Graph;
use serenity_nets::darts::{normal_cell_with, DartsConfig};
use serenity_nets::randwire::{randwire_cell, Aggregation, RandWireConfig};
use serenity_nets::suite;
use serenity_nets::swiftnet::{swiftnet_with, SwiftNetConfig};

/// A RandWire instance with DenseNet-style concat aggregation: the
/// cost-guided loop has real sites to work with (sum-aggregated RandWire has
/// none, matching the paper's identical DP/DP+GR bars).
fn randwire_concat(nodes: usize, seed: u64) -> Graph {
    randwire_cell(&RandWireConfig {
        nodes,
        seed,
        hw: 8,
        channels: 8,
        aggregation: Aggregation::Concat,
        ..Default::default()
    })
}

/// Small instances of every benchmark family, cheap enough for debug CI.
fn small_family_instances() -> Vec<Graph> {
    vec![
        normal_cell_with(&DartsConfig {
            hw: 8,
            channels: 6,
            input_channels: 12,
            preprocessing_tail: true,
        }),
        swiftnet_with(&SwiftNetConfig { hw: 16, in_channels: 3, width: 1 }),
        randwire_cell(&RandWireConfig { nodes: 8, hw: 8, channels: 8, ..Default::default() }),
        randwire_concat(8, 5),
    ]
}

fn compile(graph: &Graph, mode: RewriteMode) -> CompiledSchedule {
    Serenity::builder()
        .rewrite(mode)
        .allocator(None)
        .build()
        .compile(graph)
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", graph.name()))
}

#[test]
fn rewrite_loop_never_increases_peak_on_family_instances() {
    for graph in small_family_instances() {
        let off = compile(&graph, RewriteMode::Off);
        let on = compile(&graph, RewriteMode::IfBeneficial);
        assert!(
            on.peak_bytes <= off.peak_bytes,
            "{}: rewrite loop increased peak ({} > {})",
            graph.name(),
            on.peak_bytes,
            off.peak_bytes
        );
        assert!(on.rewrite_search.is_some(), "{}: search summary missing", graph.name());
    }
}

#[test]
fn rewrite_loop_never_increases_peak_on_the_full_suite() {
    for b in suite() {
        let off = compile(&b.graph, RewriteMode::Off);
        let on = compile(&b.graph, RewriteMode::IfBeneficial);
        assert!(
            on.peak_bytes <= off.peak_bytes,
            "{}: {} > {}",
            b.id,
            on.peak_bytes,
            off.peak_bytes
        );
    }
}

#[test]
fn rewrite_loop_strictly_reduces_peak_on_concat_randwire() {
    let g = randwire_concat(8, 5);
    let off = compile(&g, RewriteMode::Off);
    let on = compile(&g, RewriteMode::IfBeneficial);
    assert!(
        on.peak_bytes < off.peak_bytes,
        "rewrite loop must strictly reduce the peak on concat-aggregated RandWire \
         ({} vs {})",
        on.peak_bytes,
        off.peak_bytes
    );
    assert!(!on.rewrites.is_empty());
}

#[test]
fn multi_iteration_runs_hit_the_schedule_memo() {
    // The small SwiftNet stack partitions into segments; a multi-iteration
    // search must replay unchanged segments from the memo.
    let g = swiftnet_with(&SwiftNetConfig { hw: 16, in_channels: 3, width: 1 });
    let compiled = compile(&g, RewriteMode::IfBeneficial);
    let summary = compiled.rewrite_search.expect("search ran");
    assert!(summary.iterations >= 2, "the stack rewrites more than once: {summary:?}");
    assert!(summary.memo_hits > 0, "multi-iteration run reported no memo hits: {summary:?}");
}

#[test]
fn traffic_objective_fits_between_the_rewrite_on_and_off_peaks() {
    // Fitting on-chip first, then lower traffic; an infeasible schedule
    // moves `u64::MAX` bytes and so ranks last.
    let fits_then_traffic = |report: &CapacityReport| (!report.fits, report.total_traffic());
    for graph in
        [swiftnet_with(&SwiftNetConfig { hw: 16, in_channels: 3, width: 1 }), randwire_concat(8, 5)]
    {
        let name = graph.name().to_string();
        let off = compile(&graph, RewriteMode::Off);
        let (peak_on, peak_off) =
            (compile(&graph, RewriteMode::IfBeneficial).peak_bytes, off.peak_bytes);
        assert!(peak_on < peak_off, "{name}: rewriting lowers the peak ({peak_on} vs {peak_off})");
        let between = peak_on + (peak_off - peak_on) / 2;
        for capacity in [peak_on * 3 / 4 + 1, peak_on, between, peak_off] {
            let compiled = Serenity::builder()
                .allocator(None)
                .capacity_target(CapacityTarget::min_traffic(capacity))
                .build()
                .compile(&graph)
                .unwrap_or_else(|e| panic!("{name} at {capacity} B: compile failed: {e}"));
            // Release builds compile out the pipeline's own certification.
            let cert = verify(&graph, &compiled)
                .unwrap_or_else(|e| panic!("{name} at {capacity} B: not certified: {e:?}"));
            assert_eq!(cert.capacity, compiled.capacity, "{name} at {capacity} B");
            let report = compiled.capacity.expect("capacity compiles carry a report");
            let off_report =
                assess(&off.graph, &off.schedule.order, CapacityTarget::fit(capacity)).unwrap();
            assert!(
                fits_then_traffic(&report) <= fits_then_traffic(&off_report),
                "{name} at {capacity} B: the traffic objective ranks below rewrite-off \
                 ({report:?} vs {off_report:?})"
            );
            if capacity == between {
                assert!(
                    report.fits && report.total_traffic() == 0,
                    "{name} at {capacity} B: the compile must fit on-chip: {report:?}"
                );
                assert!(
                    off_report.total_traffic() > 0,
                    "{name} at {capacity} B: rewrite-off must spill: {off_report:?}"
                );
            }
        }
    }
}

#[test]
fn parallel_and_serial_compiles_are_bit_identical() {
    let g = randwire_concat(8, 3);
    let run = |threads: usize| {
        let backend = Arc::new(DpBackend::with_config(DpConfig { threads, ..Default::default() }));
        Serenity::builder()
            .backend(backend.clone())
            .rewrite_score_backend(backend)
            .allocator(None)
            .build()
            .compile(&g)
            .unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.peak_bytes, parallel.peak_bytes);
    assert_eq!(serial.schedule.order, parallel.schedule.order);
    assert_eq!(serial.rewrites, parallel.rewrites);
    assert_eq!(serial.graph, parallel.graph);
}
