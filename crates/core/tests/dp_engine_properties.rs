//! Property tests pinning the zero-allocation DP frontier engine to a
//! straightforward reference implementation.
//!
//! The engine memoizes signatures through pre-computed Zobrist hashes and an
//! open-addressing index over pooled word slices; the reference below keys a
//! plain `FxHashMap` by owned, content-equality `NodeSet` signatures and
//! computes costs through the list-scan cost paths. Agreement on random DAGs
//! means the interning, hashing, and mask machinery changes *how* states are
//! found, never *which* states exist.

use proptest::prelude::*;
use serenity_core::dp::DpScheduler;
use serenity_ir::fxhash::FxHashMap;
use serenity_ir::mem::CostModel;
use serenity_ir::random_dag::{random_dag, RandomDagConfig};
use serenity_ir::{topo, Graph, NodeSet};

prop_compose! {
    fn arb_graph()(
        nodes in 1usize..18,
        edge_prob in 0.0f64..0.6,
        seed in any::<u64>(),
    ) -> Graph {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        random_dag(
            &RandomDagConfig {
                nodes,
                edge_prob,
                max_extra_inputs: 3,
                min_bytes: 1,
                max_bytes: 512,
            },
            &mut rng,
        )
    }
}

/// Reference state: the minimum-peak prefix per signature.
#[derive(Clone)]
struct RefState {
    scheduled: NodeSet,
    mu: u64,
    peak: u64,
}

/// Algorithm 1 with owned `NodeSet` memo keys and list-scan costs, pruning
/// transitions whose peak exceeds `budget` (§3.2): the simplest
/// implementation that could possibly be right.
fn reference_dp(graph: &Graph, budget: u64) -> (u64, u64) {
    let n = graph.len();
    let cost = CostModel::new(graph);
    let root_z: NodeSet = graph.node_ids().filter(|&u| graph.indegree(u) == 0).collect();
    let mut frontier: FxHashMap<NodeSet, RefState> = FxHashMap::default();
    frontier.insert(root_z, RefState { scheduled: NodeSet::with_capacity(n), mu: 0, peak: 0 });
    let mut states = 1u64;
    for _ in 0..n {
        let mut next: FxHashMap<NodeSet, RefState> = FxHashMap::default();
        for (z, state) in &frontier {
            for u in z.iter() {
                let mu_after = state.mu + cost.alloc_bytes_scan(&state.scheduled, u);
                let peak = state.peak.max(mu_after);
                if peak > budget {
                    continue;
                }
                let mu = mu_after - cost.free_bytes_scan(&state.scheduled, u);
                let mut scheduled = state.scheduled.clone();
                scheduled.insert(u);
                let mut z2 = z.clone();
                z2.remove(u);
                for &s in graph.succs(u) {
                    if graph.preds(s).iter().all(|p| scheduled.contains(*p)) {
                        z2.insert(s);
                    }
                }
                let candidate = RefState { scheduled, mu, peak };
                next.entry(z2)
                    .and_modify(|existing| {
                        if candidate.peak < existing.peak {
                            *existing = candidate.clone();
                        }
                    })
                    .or_insert(candidate);
            }
        }
        states += next.len() as u64;
        frontier = next;
    }
    assert_eq!(frontier.len(), 1, "final signature must be unique");
    (frontier.values().next().unwrap().peak, states)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn zobrist_memo_agrees_with_content_equality_keys(graph in arb_graph()) {
        let (ref_peak, ref_states) = reference_dp(&graph, u64::MAX);
        let dp = DpScheduler::new().schedule(&graph).unwrap();
        prop_assert_eq!(dp.schedule.peak_bytes, ref_peak);
        prop_assert!(topo::is_order(&graph, &dp.schedule.order));
        // Unbudgeted, the DP may prune above a peak its own dives found, so
        // it memoizes at most the reference's signatures.
        prop_assert!(dp.stats.states <= ref_states, "{} > {ref_states}", dp.stats.states);
        // At τ = µ* no dive can finish strictly below the limit, so both
        // prune exactly the transitions above µ*. Same number of memoized
        // signatures per run: the hashed index groups exactly the states
        // content equality groups — a collision mishandled either way would
        // change the count.
        let (_, ref_states) = reference_dp(&graph, ref_peak);
        let dp = DpScheduler::new().budget(ref_peak).schedule(&graph).unwrap();
        prop_assert_eq!(dp.schedule.peak_bytes, ref_peak);
        prop_assert_eq!(dp.stats.states, ref_states);
    }

    #[test]
    fn sharded_parallel_merge_is_serial_equal(graph in arb_graph()) {
        let serial = DpScheduler::new().schedule(&graph).unwrap();
        let parallel = DpScheduler::new().threads(3).schedule(&graph).unwrap();
        prop_assert_eq!(serial.schedule.peak_bytes, parallel.schedule.peak_bytes);
        prop_assert_eq!(serial.schedule.order, parallel.schedule.order);
        prop_assert_eq!(serial.stats.states, parallel.stats.states);
        prop_assert_eq!(serial.stats.transitions, parallel.stats.transitions);
    }
}
