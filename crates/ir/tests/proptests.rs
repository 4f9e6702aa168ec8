//! Property tests for the IR crate's invariants.

use proptest::prelude::*;
use rand::Rng;
use serenity_ir::fingerprint::{structural_eq, Structure};
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

/// Layered graphs stacked with slab combiners (`AccumAdd` / `SlabConcat`),
/// occasionally with side consumers that disqualify a member — exercising
/// every branch of the slab cost rules.
fn slab_graph(groups: usize, per_group: usize, channels: usize, seed: u64) -> Graph {
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

prop_compose! {
    fn arb_slab_graph()(
        groups in 1usize..5,
        per_group in 2usize..4,
        channels in 1usize..32,
        seed in any::<u64>(),
    ) -> Graph {
        slab_graph(groups, per_group, channels, seed)
    }
}

prop_compose! {
    /// Graphs of up to 128 nodes, so masks span both words of a two-word
    /// bitset: sparse random DAGs and long slab stacks.
    fn arb_wide_graph()(
        nodes in 1usize..=128,
        edge_prob in 0.0f64..0.15,
        groups in 10usize..=20,
        seed in any::<u64>(),
        slabs in any::<bool>(),
    ) -> Graph {
        if slabs {
            slab_graph(groups, 3, 8, seed)
        } else {
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
}

prop_compose! {
    /// Graphs of 1–3 nodes with 1–2 byte outputs: two independent draws
    /// are structurally equal often enough to test both directions of an
    /// equivalence.
    fn arb_tiny_graph()(
        nodes in 1usize..4,
        edge_prob in 0.0f64..1.0,
        seed in any::<u64>(),
    ) -> Graph {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        random_dag(
            &RandomDagConfig { nodes, edge_prob, max_extra_inputs: 2, min_bytes: 1, max_bytes: 2 },
            &mut rng,
        )
    }
}

/// Rebuilds `graph` node by node through the public API, naming node `i`
/// `{tag}{i}` (opaque labels follow the names), after `edit` has seen each
/// node's op, shape and predecessors. Only input and opaque shapes are kept
/// as edited; other shapes are re-inferred. `None` if inference rejects an
/// edited node.
fn rebuild(
    graph: &Graph,
    tag: &str,
    mut edit: impl FnMut(usize, &mut Op, &mut TensorShape, &mut Vec<NodeId>),
) -> Option<Graph> {
    let mut out = Graph::new(format!("{tag}-{}", graph.name()));
    for node in graph.nodes() {
        let i = node.id.index();
        let (mut op, mut shape) = (node.op.clone(), node.shape.clone());
        let mut preds = graph.preds(node.id).to_vec();
        edit(i, &mut op, &mut shape, &mut preds);
        let name = format!("{tag}{i}");
        match op {
            Op::Input => out.add_input(name, shape),
            Op::Opaque { .. } => out.add_opaque(name, shape.bytes(), &preds).ok()?,
            op => out.add_named(name, op, &preds).ok()?,
        };
    }
    for &o in graph.explicit_outputs() {
        out.mark_output(o);
    }
    Some(out)
}

/// A renamed twin: every node name and opaque label differs.
fn twin(graph: &Graph) -> Graph {
    rebuild(graph, "twin", |_, _, _, _| {}).expect("an unedited rebuild infers the same shapes")
}

/// Checks that `a` and `b` encode equal exactly when they are structurally
/// equal.
fn encodes_like_structural_eq(a: &Graph, b: &Graph) -> bool {
    (Structure::of(a) == Structure::of(b)) == structural_eq(a, b)
}

/// Checks that `to_graph` rebuilds a valid graph with `graph`'s structure
/// and that it re-encodes to the same bytes.
fn round_trips(graph: &Graph) -> bool {
    let structure = Structure::of(graph);
    let Ok(back) = structure.to_graph() else { return false };
    structural_eq(&back, graph) && Structure::of(&back) == structure && back.validate().is_ok()
}

/// Decodes arbitrary bytes, which must not panic; bytes that decode must
/// be the canonical encoding of what they decode to.
fn decodes_canonically_or_fails(bytes: &[u8]) -> bool {
    match Structure::from_bytes(bytes).to_graph() {
        Ok(graph) => Structure::of(&graph).as_bytes() == bytes,
        Err(_) => true,
    }
}

/// The paper's nine cells and their rewritten forms: all rules, then each
/// of the channel-wise (sliced input weights, `AccumAdd`) and kernel-wise
/// (sliced kernels, `SlabConcat`) rules alone.
fn suite_and_rewrites() -> Vec<Graph> {
    use serenity_core::rewrite::Rewriter;
    let mut graphs = Vec::new();
    for bench in serenity_nets::suite::suite() {
        for rewriter in [Rewriter::standard(), Rewriter::channel_only(), Rewriter::kernel_only()] {
            let outcome = rewriter.rewrite(&bench.graph);
            if outcome.changed() {
                graphs.push(outcome.graph);
            }
        }
        graphs.push(bench.graph);
    }
    graphs
}

#[test]
fn suite_structures_follow_structural_eq() {
    let graphs = suite_and_rewrites();
    let ops = || graphs.iter().flat_map(|g| g.nodes().map(|n| &n.op));
    assert!(ops().any(|op| matches!(op, Op::SlabConcat { .. })), "a kernel-wise rewrite");
    assert!(ops().any(|op| matches!(op, Op::AccumAdd)), "a channel-wise rewrite");
    assert!(ops().any(|op| op.weight().is_some_and(|w| w.in_slice.is_some())));
    assert!(ops().any(|op| op.weight().is_some_and(|w| w.kernel_slice.is_some())));
    for a in &graphs {
        assert!(round_trips(a), "{} round-trips", a.name());
        let renamed = twin(a);
        assert_eq!(Structure::of(a), Structure::of(&renamed), "{} twin", a.name());
        for b in &graphs {
            assert!(encodes_like_structural_eq(a, b), "{} vs {}", a.name(), b.name());
        }
    }
}

#[test]
fn one_changed_field_changes_a_suite_structure() {
    for graph in suite_and_rewrites() {
        let base = Structure::of(&graph);
        let mut mutants = Vec::new();
        // A dtype and a dim of the input (every shape after it follows).
        mutants.push(rebuild(&graph, "m", |_, op, shape, _| {
            if matches!(op, Op::Input) {
                *shape = TensorShape::new(shape.dims().to_vec(), DType::F16);
            }
        }));
        mutants.push(rebuild(&graph, "m", |_, op, shape, _| {
            if matches!(op, Op::Input) {
                let mut dims = shape.dims().to_vec();
                dims[0] += 1;
                *shape = TensorShape::new(dims, shape.dtype());
            }
        }));
        // One op field per weighted node: the weight id, then each slice.
        for k in graph.node_ids().filter(|&k| graph.node(k).op.weight().is_some()) {
            let bump = |w: &mut serenity_ir::WeightRef| {
                w.id = serenity_ir::WeightId::from_index(w.id.index() + 1000);
            };
            mutants.push(rebuild(&graph, "m", |i, op, _, _| {
                if i == k.index() {
                    match op {
                        Op::Conv2d(c) => bump(&mut c.weight),
                        Op::DepthwiseConv2d(c) => bump(&mut c.weight),
                        Op::Dense(d) => bump(&mut d.weight),
                        _ => unreachable!("weighted ops only"),
                    }
                }
            }));
        }
        // An output mark on the first node.
        let mut marked = graph.clone();
        marked.mark_output(NodeId::from_index(0));
        if marked.explicit_outputs() != graph.explicit_outputs() {
            mutants.push(Some(marked));
        }
        let mutants: Vec<Graph> = mutants.into_iter().flatten().collect();
        assert!(mutants.len() >= 3, "{}: dtype, dim and weight mutants", graph.name());
        for mutant in mutants {
            assert!(!structural_eq(&graph, &mutant), "{}: the mutant differs", graph.name());
            assert_ne!(Structure::of(&mutant), base, "{}: one field changed", graph.name());
        }
    }
}

#[test]
fn slices_and_op_tags_change_the_structure() {
    // Two convolutions over halves of one weight, summed: the channel-wise
    // rewrite's shape. Moving a slice or swapping an activation changes the
    // encoding.
    let build = |start: u32, act: Op| {
        let mut g = Graph::new("sliced");
        let x1 = g.add_input("x1", TensorShape::nhwc(1, 4, 4, 4, DType::F32));
        let x2 = g.add_input("x2", TensorShape::nhwc(1, 4, 4, 4, DType::F32));
        let w = g.fresh_weight();
        let conv = |range: serenity_ir::ChannelRange| {
            Op::Conv2d(serenity_ir::Conv2d {
                out_channels: 4,
                kernel: (1, 1),
                stride: (1, 1),
                padding: serenity_ir::Padding::Same,
                dilation: (1, 1),
                weight: w.with_in_slice(range),
            })
        };
        let a = g.add(act.clone(), &[x1]).unwrap();
        let b = g.add(act, &[x2]).unwrap();
        let l = g.add(conv(serenity_ir::ChannelRange::new(start, start + 4)), &[a]).unwrap();
        let r = g.add(conv(serenity_ir::ChannelRange::new(4, 8)), &[b]).unwrap();
        let y = g.add(Op::AccumAdd, &[l, r]).unwrap();
        g.mark_output(y);
        g
    };
    let base = build(0, Op::Relu);
    for other in [build(1, Op::Relu), build(0, Op::Sigmoid)] {
        assert!(!structural_eq(&base, &other));
        assert_ne!(Structure::of(&base), Structure::of(&other));
    }
    assert!(round_trips(&base));
}

/// Replays `order` through the `W`-word view of the graph's transition
/// table and checks every answer against the list-scan reference.
fn check_fixed_view<const W: usize>(graph: &Graph, order: &[NodeId]) {
    let cost = mem::CostModel::new(graph);
    let table = cost.transition_table().fixed::<W>();
    let mut scheduled = NodeSet::with_capacity(graph.len());
    let mut words = [0u64; W];
    for &u in order {
        assert_eq!(table.alloc_bytes(&words, u), cost.alloc_bytes_scan(&scheduled, u));
        assert_eq!(table.free_bytes(&words, u), cost.free_bytes_scan(&scheduled, u));
        scheduled.insert(u);
        wordset::insert(&mut words, u);
        let mut ready: NodeSet = wordset::iter(table.auto_ready(u)).collect();
        for (s, mask) in table.succ_edges(u) {
            if table.mask_ready(&words, mask) {
                ready.insert(*s);
            }
        }
        let expected: NodeSet = graph
            .succs(u)
            .iter()
            .copied()
            .filter(|&s| graph.preds(s).iter().all(|&p| scheduled.contains(p)))
            .collect();
        assert_eq!(ready.iter().collect::<Vec<_>>(), expected.iter().collect::<Vec<_>>());
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
    fn fixed_table_matches_scan_path(
        graph in prop_oneof![arb_graph(), arb_slab_graph(), arb_wide_graph()],
        seed in any::<u64>(),
    ) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let order = topo::random(&graph, &mut rng);
        prop_assert!(graph.len() <= 128);
        if graph.len() <= 64 {
            check_fixed_view::<1>(&graph, &order);
        }
        // A wider view than the graph needs pads with zero words.
        check_fixed_view::<2>(&graph, &order);
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

    #[test]
    fn structures_are_equal_iff_structurally_equal(a in arb_tiny_graph(), b in arb_tiny_graph()) {
        prop_assert!(encodes_like_structural_eq(&a, &b));
    }

    #[test]
    fn renamed_and_relabeled_twins_encode_equal(graph in arb_graph()) {
        prop_assert_eq!(Structure::of(&graph), Structure::of(&twin(&graph)));
    }

    #[test]
    fn one_changed_field_changes_the_structure(graph in arb_graph(), pick in any::<usize>()) {
        let k = pick % graph.len();
        let base = Structure::of(&graph);
        // A dim (an opaque node's byte count), then the predecessor list:
        // reordered when it has two entries or more, else one more entry.
        let mut mutants = vec![rebuild(&graph, "m", |i, _, shape, _| {
            if i == k {
                *shape = TensorShape::opaque_bytes(shape.bytes() + 1);
            }
        })];
        mutants.push(rebuild(&graph, "m", |i, _, _, preds| {
            if i == k {
                if preds.len() >= 2 {
                    preds.reverse();
                } else if let Some(extra) = (0..i).map(NodeId::from_index).find(|p| !preds.contains(p)) {
                    preds.push(extra);
                }
            }
        }));
        let mut marked = graph.clone();
        marked.mark_output(NodeId::from_index(k));
        mutants.push(Some(marked));
        for mutant in mutants.into_iter().flatten() {
            prop_assert_eq!(structural_eq(&graph, &mutant), Structure::of(&mutant) == base);
            if !structural_eq(&graph, &mutant) {
                prop_assert_ne!(Structure::of(&mutant), base.clone());
            }
        }
    }

    #[test]
    fn structures_round_trip(graph in arb_graph(), slabs in arb_slab_graph()) {
        prop_assert!(round_trips(&graph));
        prop_assert!(round_trips(&slabs));
    }

    #[test]
    fn truncated_structures_are_rejected(graph in arb_graph()) {
        let bytes = Structure::of(&graph).as_bytes().to_vec();
        for cut in 0..bytes.len() {
            prop_assert!(Structure::from_bytes(&bytes[..cut]).to_graph().is_err());
        }
    }

    #[test]
    fn random_bytes_decode_canonically_or_fail(
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        prop_assert!(decodes_canonically_or_fails(&bytes));
    }

    #[test]
    fn corrupted_structures_decode_canonically_or_fail(
        graph in arb_slab_graph(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = Structure::of(&graph).as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = byte;
        prop_assert!(decodes_canonically_or_fails(&bytes));
    }
}
