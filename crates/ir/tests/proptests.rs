//! Property tests for the IR crate's invariants.

use proptest::prelude::*;
use rand::Rng;
use serenity_ir::random_dag::{random_dag, RandomDagConfig};
use serenity_ir::set::wordset;
use serenity_ir::{cuts, mem, topo, DType, Graph, NodeId, NodeSet, Op, TensorShape, ZobristTable};

prop_compose! {
    fn arb_graph()(
        nodes in 1usize..24,
        edge_prob in 0.0f64..0.7,
        seed in any::<u64>(),
    ) -> Graph {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        random_dag(
            &RandomDagConfig {
                nodes,
                edge_prob,
                max_extra_inputs: 4,
                min_bytes: 1,
                max_bytes: 1024,
            },
            &mut rng,
        )
    }
}

prop_compose! {
    /// Layered graphs stacked with slab combiners (`AccumAdd` /
    /// `SlabConcat`), occasionally with side consumers that disqualify a
    /// member — exercising every branch of the slab cost rules.
    fn arb_slab_graph()(
        groups in 1usize..5,
        per_group in 2usize..4,
        channels in 1usize..32,
        seed in any::<u64>(),
    ) -> Graph {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let mut g = Graph::new("slabby");
        let shape = TensorShape::nhwc(1, 1, 1, channels, DType::U8);
        let mut carry = g.add_input("x", shape);
        for gi in 0..groups {
            let producers: Vec<NodeId> = (0..per_group)
                .map(|pi| {
                    let op = if rng.gen_bool(0.5) { Op::Identity } else { Op::Relu };
                    g.add_named(format!("p{gi}_{pi}"), op, &[carry]).unwrap()
                })
                .collect();
            let head = if rng.gen_bool(0.5) {
                g.add_named(format!("acc{gi}"), Op::AccumAdd, &producers).unwrap()
            } else {
                g.add_named(format!("cat{gi}"), Op::SlabConcat { axis: 3 }, &producers).unwrap()
            };
            // A side consumer disqualifies its producer from slab membership
            // (two consumers) — keep some groups mixed.
            if rng.gen_bool(0.4) {
                let side = g.add_named(format!("side{gi}"), Op::Sigmoid, &[producers[0]]).unwrap();
                if rng.gen_bool(0.5) {
                    g.mark_output(side);
                }
            }
            carry = g.add_named(format!("next{gi}"), Op::Relu, &[head]).unwrap();
        }
        g.mark_output(carry);
        g
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cost_model_mask_path_matches_scan_path(graph in arb_graph(), seed in any::<u64>()) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let cost = mem::CostModel::new(&graph);
        let order = topo::random(&graph, &mut rng);
        let mut scheduled = NodeSet::with_capacity(graph.len());
        for &u in &order {
            prop_assert!(cost.ready(&scheduled, u));
            prop_assert_eq!(cost.alloc_bytes(&scheduled, u), cost.alloc_bytes_scan(&scheduled, u));
            prop_assert_eq!(cost.free_bytes(&scheduled, u), cost.free_bytes_scan(&scheduled, u));
            scheduled.insert(u);
        }
    }

    #[test]
    fn cost_model_mask_path_matches_scan_path_on_slab_graphs(
        graph in arb_slab_graph(),
        seed in any::<u64>(),
    ) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let cost = mem::CostModel::new(&graph);
        for _ in 0..4 {
            let order = topo::random(&graph, &mut rng);
            let mut scheduled = NodeSet::with_capacity(graph.len());
            let mut mu = 0u64;
            for &u in &order {
                let alloc = cost.alloc_bytes(&scheduled, u);
                let freed = cost.free_bytes(&scheduled, u);
                prop_assert_eq!(alloc, cost.alloc_bytes_scan(&scheduled, u));
                prop_assert_eq!(freed, cost.free_bytes_scan(&scheduled, u));
                mu = mu + alloc - freed;
                scheduled.insert(u);
            }
            // And the accumulated footprint agrees with the profiler.
            prop_assert_eq!(mu, mem::profile_schedule(&graph, &order).unwrap().final_bytes);
        }
    }

    #[test]
    fn transition_table_matches_scan_path(
        graph in prop_oneof![arb_graph(), arb_slab_graph()],
        seed in any::<u64>(),
    ) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let cost = mem::CostModel::new(&graph);
        let table = cost.transition_table();
        let order = topo::random(&graph, &mut rng);
        let mut scheduled = NodeSet::with_capacity(graph.len());
        let mut words = vec![0u64; table.words()];
        for &u in &order {
            prop_assert_eq!(table.alloc_bytes(&words, u), cost.alloc_bytes_scan(&scheduled, u));
            prop_assert_eq!(table.free_bytes(&words, u), cost.free_bytes_scan(&scheduled, u));
            scheduled.insert(u);
            wordset::insert(&mut words, u);
            // The auto-ready mask plus the tested edges are exactly the
            // successors that scheduling `u` makes ready.
            let mut ready = NodeSet::with_capacity(graph.len());
            let auto = table.auto_ready(u);
            if auto != u32::MAX {
                ready.extend(wordset::iter(table.mask(auto)));
            }
            for &(s, off) in table.succ_edges(u) {
                if table.mask_ready(&words, off) {
                    ready.insert(s);
                }
            }
            let expected: NodeSet = graph
                .succs(u)
                .iter()
                .copied()
                .filter(|&s| graph.preds(s).iter().all(|&p| scheduled.contains(p)))
                .collect();
            prop_assert_eq!(ready.iter().collect::<Vec<_>>(), expected.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn zobrist_incremental_hash_matches_full_rehash(
        ops in proptest::collection::vec((0usize..160, any::<bool>()), 0..60),
    ) {
        let table = ZobristTable::new(160);
        let mut set = NodeSet::with_capacity(160);
        let mut hash = 0u64;
        for (idx, insert) in ops {
            let id = NodeId::from_index(idx);
            // XOR is its own inverse, so only *effective* mutations toggle.
            if insert {
                if set.insert(id) {
                    hash ^= table.key(id);
                }
            } else if set.remove(id) {
                hash ^= table.key(id);
            }
            prop_assert_eq!(hash, table.hash_set(&set));
        }
    }

    #[test]
    fn zobrist_hash_is_content_based(graph in arb_graph(), seed in any::<u64>()) {
        // Equal sets hash equal regardless of mutation history; the hash of
        // a set reached by scheduling is the XOR of its members' keys.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let table = ZobristTable::new(graph.len());
        let order = topo::random(&graph, &mut rng);
        let mut scheduled = NodeSet::with_capacity(graph.len());
        for &u in &order {
            scheduled.insert(u);
            let rebuilt = NodeSet::from_ids(scheduled.iter());
            prop_assert_eq!(table.hash_set(&scheduled), table.hash_set(&rebuilt));
        }
    }

    #[test]
    fn kahn_and_dfs_are_valid_orders(graph in arb_graph()) {
        prop_assert!(topo::is_order(&graph, &topo::kahn(&graph)));
        prop_assert!(topo::is_order(&graph, &topo::dfs(&graph)));
    }

    #[test]
    fn random_orders_are_valid(graph in arb_graph(), seed in any::<u64>()) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        prop_assert!(topo::is_order(&graph, &topo::random(&graph, &mut rng)));
    }

    #[test]
    fn footprint_conservation(graph in arb_graph()) {
        // After a full schedule, exactly the outputs remain allocated.
        let order = topo::kahn(&graph);
        let profile = mem::profile_schedule(&graph, &order).unwrap();
        let expected: u64 = {
            let slabs = mem::SlabAnalysis::analyze(&graph);
            graph
                .outputs()
                .into_iter()
                .map(|o| slabs.owned_bytes(&graph, o))
                .sum()
        };
        prop_assert_eq!(profile.final_bytes, expected);
    }

    #[test]
    fn peak_is_invariant_of_profile_entry_point(graph in arb_graph(), seed in any::<u64>()) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let order = topo::random(&graph, &mut rng);
        prop_assert_eq!(
            mem::peak_bytes(&graph, &order).unwrap(),
            mem::profile_schedule(&graph, &order).unwrap().peak_bytes
        );
    }

    #[test]
    fn lower_bound_never_exceeds_any_schedule(graph in arb_graph(), seed in any::<u64>()) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let order = topo::random(&graph, &mut rng);
        prop_assert!(mem::peak_lower_bound(&graph) <= mem::peak_bytes(&graph, &order).unwrap());
    }

    #[test]
    fn partition_combine_round_trips(graph in arb_graph()) {
        let partition = cuts::partition(&graph);
        let locals: Vec<Vec<NodeId>> = partition
            .segments
            .iter()
            .map(|s| {
                let mut order = topo::kahn(&s.graph);
                if let Some(b) = s.boundary_input {
                    let pos = order.iter().position(|&x| x == b).unwrap();
                    order.remove(pos);
                    order.insert(0, b);
                }
                order
            })
            .collect();
        let combined = partition.combine(&locals).unwrap();
        prop_assert!(topo::is_order(&graph, &combined));
        prop_assert_eq!(combined.len(), graph.len());
    }

    #[test]
    fn cut_nodes_really_are_cuts(graph in arb_graph()) {
        // Removing a reported cut must disconnect every source from every
        // sink (checked by forward reachability skipping the cut).
        for cut in cuts::cut_nodes(&graph) {
            let mut reachable = vec![false; graph.len()];
            let mut stack: Vec<NodeId> = graph
                .sources()
                .into_iter()
                .filter(|&s| s != cut)
                .collect();
            for &s in &stack {
                reachable[s.index()] = true;
            }
            while let Some(u) = stack.pop() {
                for &s in graph.succs(u) {
                    if s != cut && !reachable[s.index()] {
                        reachable[s.index()] = true;
                        stack.push(s);
                    }
                }
            }
            for sink in graph.sinks() {
                if sink != cut {
                    prop_assert!(
                        !reachable[sink.index()],
                        "sink {sink} still reachable without {cut}"
                    );
                }
            }
        }
    }

    #[test]
    fn json_round_trip(graph in arb_graph()) {
        let json = serenity_ir::json::to_json(&graph);
        let back = serenity_ir::json::from_json(&json).unwrap();
        prop_assert_eq!(graph, back);
    }

    #[test]
    fn node_set_behaves_like_btreeset(ops in proptest::collection::vec((0usize..160, any::<bool>()), 0..60)) {
        let mut ours = NodeSet::new();
        let mut reference = std::collections::BTreeSet::new();
        for (idx, insert) in ops {
            let id = NodeId::from_index(idx);
            if insert {
                prop_assert_eq!(ours.insert(id), reference.insert(id));
            } else {
                prop_assert_eq!(ours.remove(id), reference.remove(&id));
            }
        }
        prop_assert_eq!(ours.len(), reference.len());
        let collected: Vec<NodeId> = ours.iter().collect();
        let expected: Vec<NodeId> = reference.into_iter().collect();
        prop_assert_eq!(collected, expected);
    }

    #[test]
    fn count_orders_matches_enumeration(graph in arb_graph()) {
        // Only check tiny graphs to keep the factorial in check.
        if graph.len() <= 7 {
            let mut seen = std::collections::HashSet::new();
            let mut all_valid = true;
            let counted = topo::for_each_order(&graph, |order| {
                all_valid &= topo::is_order(&graph, order);
                seen.insert(order.to_vec());
                std::ops::ControlFlow::Continue(())
            });
            prop_assert!(all_valid);
            prop_assert_eq!(counted as usize, seen.len());
        }
    }
}
