//! Topological-ordering algorithms.
//!
//! These are the *baselines* and search primitives of the paper:
//!
//! * [`kahn`] is Kahn's algorithm (Kahn, 1962) with FIFO tie-breaking over
//!   node-insertion order — the `O(|V|+|E|)` "basic topological ordering" the
//!   paper attributes to TensorFlow Lite and uses to seed the hard budget
//!   `τ_max` of adaptive soft budgeting (Algorithm 2, line 3). The core
//!   crate's meta-search starts at the smaller of this peak and a beam
//!   schedule's peak (both are peaks of valid orders, so the start stays at
//!   or above the optimum), and never probes at or below a budget that
//!   already returned no solution.
//! * [`random`] samples a topological order by picking uniformly from the
//!   ready set at every step — used to draw the Figure 3(b) CDF.
//! * [`for_each_order`] enumerates the whole space `S_T` (for the brute-force
//!   optimal baseline on small graphs; `Θ(|V|!)` in the worst case).

use std::collections::VecDeque;
use std::ops::ControlFlow;

use rand::Rng;

use crate::{Graph, GraphError, NodeId};

/// Kahn's algorithm with FIFO tie-breaking: ready nodes are scheduled in the
/// order they become ready, seeded by node-insertion order. This mirrors the
/// graph-construction-order schedules produced by TensorFlow Lite's converter
/// and serves as the paper's baseline scheduler.
pub fn kahn(graph: &Graph) -> Vec<NodeId> {
    let mut indegree: Vec<usize> = graph.node_ids().map(|id| graph.indegree(id)).collect();
    let mut ready: VecDeque<NodeId> =
        graph.node_ids().filter(|&id| indegree[id.index()] == 0).collect();
    let mut order = Vec::with_capacity(graph.len());
    while let Some(u) = ready.pop_front() {
        order.push(u);
        for &s in graph.succs(u) {
            indegree[s.index()] -= 1;
            if indegree[s.index()] == 0 {
                ready.push_back(s);
            }
        }
    }
    order
}

/// Kahn's algorithm with a custom priority: among ready nodes, always pick the
/// one minimizing `key`. Ties break on node id.
///
/// This gives a family of `O(|V|·(|V|+|E|))` heuristics; e.g.
/// `kahn_by(&g, |g, id| g.out_bytes(id))` prefers scheduling small outputs
/// first.
pub fn kahn_by<K: Ord>(graph: &Graph, mut key: impl FnMut(&Graph, NodeId) -> K) -> Vec<NodeId> {
    let mut indegree: Vec<usize> = graph.node_ids().map(|id| graph.indegree(id)).collect();
    let mut ready: Vec<NodeId> = graph.node_ids().filter(|&id| indegree[id.index()] == 0).collect();
    let mut order = Vec::with_capacity(graph.len());
    while !ready.is_empty() {
        let (best_idx, _) = ready
            .iter()
            .enumerate()
            .min_by_key(|&(_, &id)| (key(graph, id), id))
            .expect("ready set is non-empty");
        let u = ready.swap_remove(best_idx);
        order.push(u);
        for &s in graph.succs(u) {
            indegree[s.index()] -= 1;
            if indegree[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    order
}

/// Depth-first topological order (reverse post-order) starting from the graph
/// sources in id order. A common alternative baseline: greedily descends one
/// branch before backtracking.
pub fn dfs(graph: &Graph) -> Vec<NodeId> {
    let n = graph.len();
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with an explicit stack of (node, next-successor-index).
    let mut stack: Vec<(NodeId, usize)> = Vec::new();
    for root in graph.sources() {
        if visited[root.index()] {
            continue;
        }
        visited[root.index()] = true;
        stack.push((root, 0));
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            let succs = graph.succs(u);
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                // Only descend once every predecessor of s was post-visited;
                // otherwise s would appear before one of its inputs.
                if !visited[s.index()]
                    && graph.preds(s).iter().all(|&p| visited[p.index()] && !on_stack(&stack, p))
                {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(u);
                stack.pop();
            }
        }
    }
    post.reverse();
    // Nodes unreachable through the "all preds visited" descent rule are
    // appended by Kahn completion to guarantee a full order.
    if post.len() < n {
        return complete_with_kahn(graph, post);
    }
    post
}

fn on_stack(stack: &[(NodeId, usize)], id: NodeId) -> bool {
    stack.iter().any(|&(u, _)| u == id)
}

fn complete_with_kahn(graph: &Graph, prefix: Vec<NodeId>) -> Vec<NodeId> {
    let mut indegree: Vec<usize> = graph.node_ids().map(|id| graph.indegree(id)).collect();
    let mut seen = vec![false; graph.len()];
    let mut order = Vec::with_capacity(graph.len());
    let push =
        |order: &mut Vec<NodeId>, indegree: &mut Vec<usize>, seen: &mut Vec<bool>, u: NodeId| {
            seen[u.index()] = true;
            order.push(u);
            for &s in graph.succs(u) {
                indegree[s.index()] = indegree[s.index()].saturating_sub(1);
            }
        };
    for u in prefix {
        if !seen[u.index()] && indegree[u.index()] == 0 {
            push(&mut order, &mut indegree, &mut seen, u);
        }
    }
    loop {
        let next = graph.node_ids().find(|&id| !seen[id.index()] && indegree[id.index()] == 0);
        match next {
            Some(u) => push(&mut order, &mut indegree, &mut seen, u),
            None => break,
        }
    }
    order
}

/// Samples a topological order by drawing uniformly from the ready set at each
/// step (the sampler behind the Figure 3(b) CDF).
///
/// Note this does **not** sample uniformly over all topological orders (that
/// problem is #P-hard); it samples uniformly over *scheduling decisions*,
/// which is what an oblivious scheduler would actually produce.
pub fn random<R: Rng + ?Sized>(graph: &Graph, rng: &mut R) -> Vec<NodeId> {
    let mut indegree: Vec<usize> = graph.node_ids().map(|id| graph.indegree(id)).collect();
    let mut ready: Vec<NodeId> = graph.node_ids().filter(|&id| indegree[id.index()] == 0).collect();
    let mut order = Vec::with_capacity(graph.len());
    while !ready.is_empty() {
        let pick = rng.gen_range(0..ready.len());
        let u = ready.swap_remove(pick);
        order.push(u);
        for &s in graph.succs(u) {
            indegree[s.index()] -= 1;
            if indegree[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    order
}

/// Checks that `order` is a permutation of the graph's nodes in which every
/// node appears after all of its predecessors.
///
/// # Errors
///
/// Returns [`GraphError::InvalidOrder`] describing the first violation.
pub fn check_order(graph: &Graph, order: &[NodeId]) -> Result<(), GraphError> {
    if order.len() != graph.len() {
        return Err(GraphError::InvalidOrder {
            detail: format!("order has {} nodes, graph has {}", order.len(), graph.len()),
        });
    }
    let mut position = vec![usize::MAX; graph.len()];
    for (i, &u) in order.iter().enumerate() {
        if u.index() >= graph.len() {
            return Err(GraphError::UnknownNode(u));
        }
        if position[u.index()] != usize::MAX {
            return Err(GraphError::InvalidOrder { detail: format!("{u} appears twice") });
        }
        position[u.index()] = i;
    }
    for u in graph.node_ids() {
        for &p in graph.preds(u) {
            if position[p.index()] > position[u.index()] {
                return Err(GraphError::InvalidOrder {
                    detail: format!("{u} scheduled before its predecessor {p}"),
                });
            }
        }
    }
    Ok(())
}

/// Whether `order` is a valid topological order (see [`check_order`]).
pub fn is_order(graph: &Graph, order: &[NodeId]) -> bool {
    check_order(graph, order).is_ok()
}

/// Enumerates every topological order of `graph`, invoking `visit` on each.
///
/// `visit` can stop the enumeration early by returning
/// [`ControlFlow::Break`]. Returns the number of complete orders visited.
/// This is the `Θ(|V|!)`-worst-case recursive enumeration of §2.3; only use
/// it on small graphs (the brute-force baseline caps at ~12 nodes).
pub fn for_each_order(graph: &Graph, mut visit: impl FnMut(&[NodeId]) -> ControlFlow<()>) -> u64 {
    let n = graph.len();
    let mut indegree: Vec<usize> = graph.node_ids().map(|id| graph.indegree(id)).collect();
    let mut ready: Vec<NodeId> = graph.node_ids().filter(|&id| indegree[id.index()] == 0).collect();
    let mut prefix = Vec::with_capacity(n);
    let mut count = 0u64;
    fn recurse(
        graph: &Graph,
        indegree: &mut Vec<usize>,
        ready: &mut Vec<NodeId>,
        prefix: &mut Vec<NodeId>,
        visit: &mut dyn FnMut(&[NodeId]) -> ControlFlow<()>,
        count: &mut u64,
    ) -> ControlFlow<()> {
        if prefix.len() == graph.len() {
            *count += 1;
            return visit(prefix);
        }
        // Iterate a snapshot: the ready set mutates during recursion.
        for i in 0..ready.len() {
            let u = ready[i];
            // Schedule u: remove from ready, push newly ready successors.
            ready.swap_remove(i);
            prefix.push(u);
            let mut added = 0;
            for &s in graph.succs(u) {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    ready.push(s);
                    added += 1;
                }
            }
            let flow = recurse(graph, indegree, ready, prefix, visit, count);
            // Undo.
            for &s in graph.succs(u) {
                indegree[s.index()] += 1;
            }
            ready.truncate(ready.len() - added);
            prefix.pop();
            ready.push(u);
            let last = ready.len() - 1;
            ready.swap(i, last);
            flow?;
        }
        ControlFlow::Continue(())
    }
    let _ = recurse(graph, &mut indegree, &mut ready, &mut prefix, &mut visit, &mut count);
    count
}

/// Counts the topological orders of `graph` by exhaustive enumeration.
///
/// Exponential; only for small graphs in tests and the App. D complexity
/// benchmark.
pub fn count_orders(graph: &Graph) -> u64 {
    for_each_order(graph, |_| ControlFlow::Continue(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, Op, TensorShape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn diamond() -> Graph {
        let mut g = Graph::new("diamond");
        let a = g.add_input("a", TensorShape::nhwc(1, 4, 4, 2, DType::F32));
        let b = g.add(Op::Relu, &[a]).unwrap();
        let c = g.add(Op::Sigmoid, &[a]).unwrap();
        let d = g.add(Op::Add, &[b, c]).unwrap();
        g.mark_output(d);
        g
    }

    fn chain(n: usize) -> Graph {
        let mut g = Graph::new("chain");
        let mut prev = g.add_opaque("n0", 8, &[]).unwrap();
        for i in 1..n {
            prev = g.add_opaque(format!("n{i}"), 8, &[prev]).unwrap();
        }
        g
    }

    /// The independent-branch graph of Appendix D (Figure 16): single entry,
    /// single exit, `k` independent middle nodes.
    fn fig16(k: usize) -> Graph {
        let mut g = Graph::new("fig16");
        let entry = g.add_opaque("entry", 8, &[]).unwrap();
        let mids: Vec<NodeId> =
            (0..k).map(|i| g.add_opaque(format!("m{i}"), 8, &[entry]).unwrap()).collect();
        g.add_opaque("exit", 8, &mids).unwrap();
        g
    }

    #[test]
    fn kahn_is_valid_and_insertion_ordered() {
        let g = diamond();
        let order = kahn(&g);
        assert!(is_order(&g, &order));
        // FIFO tie-breaking visits b before c because b was inserted first.
        let idx: Vec<usize> = order.iter().map(|n| n.index()).collect();
        assert_eq!(idx, [0, 1, 2, 3]);
    }

    #[test]
    fn kahn_by_respects_priority() {
        let mut g = Graph::new("g");
        let a = g.add_opaque("a", 8, &[]).unwrap();
        let big = g.add_opaque("big", 100, &[a]).unwrap();
        let small = g.add_opaque("small", 1, &[a]).unwrap();
        let _ = g.add_opaque("sink", 8, &[big, small]).unwrap();
        let order = kahn_by(&g, |g, id| g.out_bytes(id));
        assert!(is_order(&g, &order));
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(small) < pos(big), "small-output node should be scheduled first");
    }

    #[test]
    fn dfs_is_valid() {
        let g = diamond();
        assert!(is_order(&g, &dfs(&g)));
        let g = fig16(5);
        assert!(is_order(&g, &dfs(&g)));
    }

    #[test]
    fn random_orders_are_valid() {
        let g = fig16(4);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            assert!(is_order(&g, &random(&g, &mut rng)));
        }
    }

    #[test]
    fn random_orders_vary() {
        let g = fig16(6);
        let mut rng = StdRng::seed_from_u64(7);
        let orders: std::collections::HashSet<Vec<usize>> =
            (0..64).map(|_| random(&g, &mut rng).iter().map(|n| n.index()).collect()).collect();
        assert!(orders.len() > 1, "sampler should produce distinct orders");
    }

    #[test]
    fn check_order_detects_violations() {
        let g = diamond();
        let mut order = kahn(&g);
        order.swap(0, 3);
        assert!(check_order(&g, &order).is_err());
        let short = &order[..2];
        assert!(check_order(&g, short).is_err());
    }

    #[test]
    fn chain_has_one_order() {
        let g = chain(6);
        assert_eq!(count_orders(&g), 1);
    }

    #[test]
    fn fig16_count_is_factorial() {
        // k independent middle nodes permute freely: k! orders.
        assert_eq!(count_orders(&fig16(1)), 1);
        assert_eq!(count_orders(&fig16(3)), 6);
        assert_eq!(count_orders(&fig16(5)), 120);
    }

    #[test]
    fn diamond_count() {
        assert_eq!(count_orders(&diamond()), 2);
    }

    #[test]
    fn for_each_order_early_exit() {
        let g = fig16(5);
        let mut seen = 0;
        for_each_order(&g, |_| {
            seen += 1;
            if seen == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen, 3);
    }

    #[test]
    fn enumeration_yields_valid_unique_orders() {
        let g = diamond();
        let mut orders = Vec::new();
        for_each_order(&g, |o| {
            assert!(is_order(&g, o));
            orders.push(o.to_vec());
            ControlFlow::Continue(())
        });
        orders.sort();
        orders.dedup();
        assert_eq!(orders.len(), 2);
    }
}
