//! Golden schedules: the exact orders `dp` and `adaptive` return for the
//! paper's nine suite cells and one 32-node sum RandWire cell.
//!
//! Equal-peak schedules are not unique, so a change to how the DP breaks
//! merge ties can silently return a different (equally optimal) order and
//! invalidate every persisted cache snapshot. The hashes pin the orders of
//! the DP's intrinsic `(parent hash, parent z, node)` tie-break. A
//! deliberate change of the tie-break must update them and bump the
//! snapshot version.

use std::sync::Arc;

use serenity_core::backend::{AdaptiveBackend, CompileContext, DpBackend, SchedulerBackend};
use serenity_ir::Graph;
use serenity_nets::randwire::{randwire_cell, RandWireConfig};

/// FNV-1a over the order's node indices, then the peak.
fn order_hash(order: &[serenity_ir::NodeId], peak: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let words = order.iter().map(|u| u.index() as u64).chain(std::iter::once(peak));
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn cells() -> Vec<(String, Graph)> {
    let mut cells: Vec<(String, Graph)> =
        serenity_nets::suite().into_iter().map(|b| (b.id.to_string(), b.graph)).collect();
    let n32 = randwire_cell(&RandWireConfig {
        nodes: 32,
        seed: 7,
        hw: 8,
        channels: 8,
        ..Default::default()
    });
    cells.push(("randwire-n32".to_string(), n32));
    cells
}

/// The hash of every cell's order under `backend`, scheduled whole (no
/// divide-and-conquer, no rewriting) so every DP tie-break shows.
fn schedule_hashes(backend: Arc<dyn SchedulerBackend>) -> Vec<(String, u64)> {
    let ctx = CompileContext::unconstrained();
    cells()
        .into_iter()
        .map(|(id, graph)| {
            let outcome = backend.schedule(&graph, &ctx).expect("schedules");
            (id, order_hash(&outcome.schedule.order, outcome.schedule.peak_bytes))
        })
        .collect()
}

/// `(cell, order hash)`, shared by `dp` and `adaptive`: Algorithm 2's
/// budget only prunes states above the optimum, so it returns the same
/// equal-peak order as plain DP.
const GOLDEN: &[(&str, u64)] = &[
    ("darts-normal", 0x3d451f9d58bbc966),
    ("swiftnet-a", 0x242e44a746101590),
    ("swiftnet-b", 0x75e9ac8244e12be5),
    ("swiftnet-c", 0xcdf8e41e541969ce),
    ("randwire-c10-a", 0x9e3178aca5dd287a),
    ("randwire-c10-b", 0x57a1894916a8e5c4),
    ("randwire-c100-a", 0x55a739c0621df0db),
    ("randwire-c100-b", 0xf3c88ce6cc25a07d),
    ("randwire-c100-c", 0xf96d594b2c801c70),
    ("randwire-n32", 0xfa7395bf3b371ae4),
];

#[test]
fn dp_and_adaptive_orders_match_the_golden_hashes() {
    let (dp, adaptive) = std::thread::scope(|scope| {
        let dp = scope.spawn(|| schedule_hashes(Arc::new(DpBackend::default())));
        let adaptive = scope.spawn(|| schedule_hashes(Arc::new(AdaptiveBackend::default())));
        (dp.join().expect("dp runs"), adaptive.join().expect("adaptive runs"))
    });
    let expected: Vec<(String, u64)> =
        GOLDEN.iter().map(|&(id, hash)| (id.to_string(), hash)).collect();
    assert_eq!(dp, expected, "dp orders changed");
    assert_eq!(adaptive, expected, "adaptive orders changed");
}
