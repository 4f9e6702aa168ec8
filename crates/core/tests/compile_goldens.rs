//! Golden compiles: the `(peak, arena, order hash)` that the full
//! `Serenity::compile` returns for the paper's nine suite cells and two
//! concat RandWire cells, under six pipeline configurations.
//!
//! `dp_golden_orders` pins what the DP engines return on a whole graph;
//! this pins what the pipeline makes of them: the rewrite search, the
//! choice between the original and the rewritten graph, divide-and-conquer,
//! `canon::stackify` and the arena plan. A change to the pipeline's stage
//! order or to its keep-the-better rule that alters any compiled schedule
//! fails here; a deliberate change of a compiled schedule copies the new
//! table from the failure message and says why. The deadline mode runs the
//! original-first path and must agree with the default compile.

use std::sync::Arc;
use std::time::Duration;

use serenity_core::backend::{
    AdaptiveBackend, BeamBackend, DfsBackend, DpBackend, GreedyBackend, KahnBackend,
    SchedulerBackend,
};
use serenity_core::budget::BudgetConfig;
use serenity_core::pipeline::Serenity;
use serenity_core::{CapacityTarget, PortfolioBackend};
use serenity_ir::Graph;
use serenity_nets::randwire::{randwire_cell, Aggregation, RandWireConfig};

/// FNV-1a over the order's node indices.
fn order_hash(order: &[serenity_ir::NodeId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in order.iter().map(|u| u.index() as u64) {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// An 8-node concat RandWire cell at 16×16×12 with the given wiring seed.
fn concat_n8(seed: u64) -> Graph {
    randwire_cell(&RandWireConfig {
        nodes: 8,
        seed,
        hw: 16,
        channels: 12,
        aggregation: Aggregation::Concat,
        ..Default::default()
    })
}

fn cells() -> Vec<(String, Graph)> {
    let mut cells: Vec<(String, Graph)> =
        serenity_nets::suite().into_iter().map(|b| (b.id.to_string(), b.graph)).collect();
    for seed in [15927681341512263808, 12885793570690362751] {
        cells.push((format!("concat-n8-{seed}"), concat_n8(seed)));
    }
    cells
}

/// The pipeline configurations pinned for every cell.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Default,
    Dp,
    Beam,
    Portfolio,
    /// `MinTraffic` at half the original graph's Kahn peak.
    Traffic,
    /// The default compile under a one-hour deadline.
    Deadline,
}

const MODES: [Mode; 6] =
    [Mode::Default, Mode::Dp, Mode::Beam, Mode::Portfolio, Mode::Traffic, Mode::Deadline];

/// `adaptive` with a step timeout long enough never to fire, which keeps
/// its probe sequence independent of machine speed.
fn adaptive() -> Arc<dyn SchedulerBackend> {
    let config = BudgetConfig { step_timeout: Duration::from_secs(3600), ..Default::default() };
    Arc::new(AdaptiveBackend::with_config(config))
}

/// `(peak, arena, order hash)` of the full compile of `graph` under `mode`.
fn compile(graph: &Graph, mode: Mode) -> (u64, u64, u64) {
    let builder = Serenity::builder().backend(adaptive());
    let builder = match mode {
        Mode::Default => builder,
        Mode::Dp => builder.backend(Arc::new(DpBackend::default())),
        Mode::Beam => builder.backend(Arc::new(BeamBackend::default())),
        // The standard members, with the long-timeout `adaptive`.
        Mode::Portfolio => builder.backend(Arc::new(PortfolioBackend::new(vec![
            adaptive(),
            Arc::new(BeamBackend::default()),
            Arc::new(GreedyBackend),
            Arc::new(KahnBackend),
            Arc::new(DfsBackend),
        ]))),
        Mode::Traffic => {
            let kahn = serenity_core::baseline::kahn(graph).expect("kahn schedules").peak_bytes;
            builder.capacity_target(CapacityTarget::min_traffic(kahn / 2))
        }
        Mode::Deadline => builder.deadline(Duration::from_secs(3600)),
    };
    let compiled = builder.build().compile(graph).expect("compiles");
    let arena = compiled.arena_bytes().expect("allocator enabled");
    (compiled.peak_bytes, arena, order_hash(&compiled.schedule.order))
}

/// `(cell, mode, peak, arena, order hash)`.
type Row = (String, String, u64, u64, u64);

/// The compiles of every cell in `cells` under every mode.
fn rows(cells: &[(String, Graph)]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (id, graph) in cells {
        for mode in MODES {
            let (peak, arena, hash) = compile(graph, mode);
            rows.push((id.clone(), format!("{mode:?}"), peak, arena, hash));
        }
    }
    rows
}

/// `(cell, mode, peak, arena, order hash)`, recorded from a pipeline that
/// always scheduled the original graph first; every stage order must
/// reproduce them.
const GOLDEN: &[(&str, &str, u64, u64, u64)] = &[
    ("darts-normal", "Default", 903168, 903168, 0x33082e1a1239a9c5),
    ("darts-normal", "Dp", 903168, 903168, 0x33082e1a1239a9c5),
    ("darts-normal", "Beam", 1053696, 1053696, 0xc807d09aa15cc3a5),
    ("darts-normal", "Portfolio", 903168, 903168, 0x33082e1a1239a9c5),
    ("darts-normal", "Traffic", 903168, 903168, 0x33082e1a1239a9c5),
    ("darts-normal", "Deadline", 903168, 903168, 0x33082e1a1239a9c5),
    ("swiftnet-a", "Default", 184320, 184320, 0x653155d99fa87105),
    ("swiftnet-a", "Dp", 184320, 184320, 0x653155d99fa87105),
    ("swiftnet-a", "Beam", 230400, 230400, 0xb2d3a329cbcb0005),
    ("swiftnet-a", "Portfolio", 184320, 184320, 0x653155d99fa87105),
    ("swiftnet-a", "Traffic", 184320, 184320, 0x653155d99fa87105),
    ("swiftnet-a", "Deadline", 184320, 184320, 0x653155d99fa87105),
    ("swiftnet-b", "Default", 92160, 92160, 0x11a0021be69f0064),
    ("swiftnet-b", "Dp", 92160, 92160, 0x11a0021be69f0064),
    ("swiftnet-b", "Beam", 92160, 92160, 0x2a7686e817ea0924),
    ("swiftnet-b", "Portfolio", 92160, 92160, 0x11a0021be69f0064),
    ("swiftnet-b", "Traffic", 92160, 92160, 0x11a0021be69f0064),
    ("swiftnet-b", "Deadline", 92160, 92160, 0x11a0021be69f0064),
    ("swiftnet-c", "Default", 36864, 36864, 0x6a4dc832c2851d9e),
    ("swiftnet-c", "Dp", 36864, 36864, 0x6a4dc832c2851d9e),
    ("swiftnet-c", "Beam", 36864, 36864, 0xf8c16b0ace51c33e),
    ("swiftnet-c", "Portfolio", 36864, 36864, 0x6a4dc832c2851d9e),
    ("swiftnet-c", "Traffic", 36864, 36864, 0x6a4dc832c2851d9e),
    ("swiftnet-c", "Deadline", 36864, 36864, 0x6a4dc832c2851d9e),
    ("randwire-c10-a", "Default", 518144, 518144, 0x1ae9d633faf34aed),
    ("randwire-c10-a", "Dp", 518144, 518144, 0x1ae9d633faf34aed),
    ("randwire-c10-a", "Beam", 518144, 518144, 0x6f9b5504fead93ad),
    ("randwire-c10-a", "Portfolio", 518144, 518144, 0x1ae9d633faf34aed),
    ("randwire-c10-a", "Traffic", 518144, 518144, 0x1ae9d633faf34aed),
    ("randwire-c10-a", "Deadline", 518144, 518144, 0x1ae9d633faf34aed),
    ("randwire-c10-b", "Default", 331776, 331776, 0x4113250ff5f9ac49),
    ("randwire-c10-b", "Dp", 331776, 331776, 0x4113250ff5f9ac49),
    ("randwire-c10-b", "Beam", 331776, 331776, 0xe01f6fbab611d8e9),
    ("randwire-c10-b", "Portfolio", 331776, 331776, 0x4113250ff5f9ac49),
    ("randwire-c10-b", "Traffic", 331776, 331776, 0x4113250ff5f9ac49),
    ("randwire-c10-b", "Deadline", 331776, 331776, 0x4113250ff5f9ac49),
    ("randwire-c100-a", "Default", 471040, 471040, 0x401a5e73c3f8da64),
    ("randwire-c100-a", "Dp", 471040, 471040, 0x401a5e73c3f8da64),
    ("randwire-c100-a", "Beam", 471040, 471040, 0x04075b29786d5444),
    ("randwire-c100-a", "Portfolio", 471040, 471040, 0x401a5e73c3f8da64),
    ("randwire-c100-a", "Traffic", 471040, 471040, 0x401a5e73c3f8da64),
    ("randwire-c100-a", "Deadline", 471040, 471040, 0x401a5e73c3f8da64),
    ("randwire-c100-b", "Default", 286720, 286720, 0xc73f2ec4935e8019),
    ("randwire-c100-b", "Dp", 286720, 286720, 0xc73f2ec4935e8019),
    ("randwire-c100-b", "Beam", 286720, 286720, 0x1a273b6551fa5779),
    ("randwire-c100-b", "Portfolio", 286720, 286720, 0xc73f2ec4935e8019),
    ("randwire-c100-b", "Traffic", 286720, 286720, 0xc73f2ec4935e8019),
    ("randwire-c100-b", "Deadline", 286720, 286720, 0xc73f2ec4935e8019),
    ("randwire-c100-c", "Default", 114688, 114688, 0x34d5cabab8a585a9),
    ("randwire-c100-c", "Dp", 114688, 114688, 0x34d5cabab8a585a9),
    ("randwire-c100-c", "Beam", 114688, 114688, 0x4f7646d8a3154369),
    ("randwire-c100-c", "Portfolio", 114688, 114688, 0x34d5cabab8a585a9),
    ("randwire-c100-c", "Traffic", 114688, 114688, 0x34d5cabab8a585a9),
    ("randwire-c100-c", "Deadline", 114688, 114688, 0x34d5cabab8a585a9),
    ("concat-n8-15927681341512263808", "Default", 61440, 73728, 0xa55779f823a3366a),
    ("concat-n8-15927681341512263808", "Dp", 61440, 73728, 0xa55779f823a3366a),
    ("concat-n8-15927681341512263808", "Beam", 61440, 73728, 0x9300f983356befea),
    ("concat-n8-15927681341512263808", "Portfolio", 61440, 73728, 0xa55779f823a3366a),
    ("concat-n8-15927681341512263808", "Traffic", 61440, 73728, 0xa55779f823a3366a),
    ("concat-n8-15927681341512263808", "Deadline", 61440, 73728, 0xa55779f823a3366a),
    ("concat-n8-12885793570690362751", "Default", 73728, 98304, 0xf9633e784786fe05),
    ("concat-n8-12885793570690362751", "Dp", 73728, 98304, 0xf9633e784786fe05),
    ("concat-n8-12885793570690362751", "Beam", 73728, 86016, 0x65845f545b795cc5),
    ("concat-n8-12885793570690362751", "Portfolio", 73728, 98304, 0xf9633e784786fe05),
    ("concat-n8-12885793570690362751", "Traffic", 73728, 86016, 0xd4268c8351e81ec4),
    ("concat-n8-12885793570690362751", "Deadline", 73728, 98304, 0xf9633e784786fe05),
];

#[test]
fn compiles_match_the_golden_schedules() {
    let cells = cells();
    // DARTS dominates the run time; the other cells share the second thread.
    let (first, rest) = cells.split_at(1);
    let actual = std::thread::scope(|scope| {
        let first = scope.spawn(|| rows(first));
        let rest = scope.spawn(|| rows(rest));
        let mut all = first.join().expect("first cell compiles");
        all.extend(rest.join().expect("other cells compile"));
        all
    });
    for (id, mode, peak, arena, hash) in actual.iter().filter(|row| row.1 == "Deadline") {
        let default = actual
            .iter()
            .find(|row| row.0 == *id && row.1 == "Default")
            .expect("every cell has a default row");
        assert_eq!((peak, arena, hash), (&default.2, &default.3, &default.4), "{id} {mode}");
    }
    let expected: Vec<Row> = GOLDEN
        .iter()
        .map(|&(id, mode, peak, arena, hash)| (id.into(), mode.into(), peak, arena, hash))
        .collect();
    let listing: String = actual
        .iter()
        .map(|(id, mode, peak, arena, hash)| {
            format!("    (\"{id}\", \"{mode}\", {peak}, {arena}, {hash:#018x}),\n")
        })
        .collect();
    assert_eq!(actual, expected, "compiled schedules changed; this build compiles:\n{listing}");
}

#[test]
fn darts_default_compile_keeps_its_schedule_in_at_most_1_2m_transitions() {
    // τ₀ sits 17% above µ* on DARTS's rewritten segment; a dive from a wide
    // frontier reaches µ* mid-search and prunes the rest of the probe down
    // to µ*. Without that incumbent this compile made 1,697,899 transitions.
    let darts = serenity_nets::suite()
        .into_iter()
        .find(|b| b.id == "darts-normal")
        .expect("the suite has DARTS")
        .graph;
    let compiled =
        Serenity::builder().backend(adaptive()).build().compile(&darts).expect("compiles");
    let &(_, _, peak, _, hash) = GOLDEN
        .iter()
        .find(|row| row.0 == "darts-normal" && row.1 == "Default")
        .expect("DARTS has a default row");
    assert_eq!((compiled.peak_bytes, order_hash(&compiled.schedule.order)), (peak, hash));
    assert!(compiled.stats.transitions <= 1_200_000, "{} transitions", compiled.stats.transitions);
}
