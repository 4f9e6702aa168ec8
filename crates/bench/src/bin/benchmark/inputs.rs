//! Seeded inputs for the four workloads.
//!
//! Every graph reaches the program the way a client would send it: as JSON
//! text, imported through `from_json_checked`. The same seed gives
//! byte-identical inputs; seed 0 of `paper-suite` is exactly
//! `serenity_nets::suite()`.
//!
//! Random cells are drawn, not taken as they come. A compile's cost varies
//! by orders of magnitude between random wirings of the same size (a 24-node
//! RandWire cell takes 1 ms or 1 s), so plain draws would make every seed a
//! different benchmark. Each cell is drawn until its *cost* — the number of
//! downsets of the cell as channel-wise partitioning leaves it — lies within
//! 3% of a fixed target. The cost is a property of the graph alone,
//! computed here and not by the program, so a change to the program cannot
//! change which inputs it is measured on. It tracks the compile closely:
//! for sum-aggregated cells it is the DP's state count, and for concat
//! cells it tracks the re-schedule of the rewritten graph, which takes
//! 85–99% of their compile.

use std::collections::{HashMap, HashSet};

use serenity_ir::fingerprint::fingerprint;
use serenity_ir::json::{from_json_checked, to_json, ImportLimits};
use serenity_ir::{mem, topo, Graph, NodeId};
use serenity_nets::randwire::{randwire_cell, Aggregation, RandWireConfig};
use serenity_nets::swiftnet::{swiftnet_with, SwiftNetConfig};

/// The benchmark's workloads, in the order a full set runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSuite,
    DpRandwire,
    CapacityConcat,
    ServeNasFamily,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperSuite,
        Workload::DpRandwire,
        Workload::CapacityConcat,
        Workload::ServeNasFamily,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::DpRandwire => "dp-randwire",
            Workload::CapacityConcat => "capacity-concat",
            Workload::ServeNasFamily => "serve-nas-family",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A splitmix64 stream: `(seed, stream)` pairs give independent sequences,
/// so adding a workload or a cell never shifts another's draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A DAG as predecessor lists, nodes numbered in topological order.
struct Dag(Vec<Vec<usize>>);

impl Dag {
    /// `graph` as channel-wise partitioning leaves it: every
    /// concat → relu → conv becomes one relu → conv pair per branch, summed
    /// into a single node (the shape the rewrite search gives concat
    /// RandWire cells). Other graphs are unchanged.
    fn partitioned(graph: &Graph) -> Dag {
        use serenity_ir::Op;
        let single = |v: NodeId| match graph.succs(v) {
            [only] => Some(*only),
            _ => None,
        };
        // Each split conv, keyed to its concat; the concat and relu vanish.
        let mut vanished = vec![false; graph.len()];
        let mut split: HashMap<NodeId, NodeId> = HashMap::new();
        for v in graph.node_ids().filter(|&v| matches!(graph.node(v).op, Op::Concat { .. })) {
            let relu = single(v).filter(|&r| matches!(graph.node(r).op, Op::Relu));
            let conv = relu.and_then(single).filter(|&c| matches!(graph.node(c).op, Op::Conv2d(_)));
            if let (Some(relu), Some(conv)) = (relu, conv) {
                vanished[v.index()] = true;
                vanished[relu.index()] = true;
                split.insert(conv, v);
            }
        }
        let mut preds: Vec<Vec<usize>> = Vec::new();
        let mut out = vec![usize::MAX; graph.len()];
        for v in topo::kahn(graph) {
            if vanished[v.index()] {
                continue;
            }
            let inputs = match split.get(&v) {
                Some(&concat) => graph
                    .preds(concat)
                    .iter()
                    .map(|p| {
                        preds.push(vec![out[p.index()]]);
                        preds.push(vec![preds.len() - 1]);
                        preds.len() - 1
                    })
                    .collect(),
                None => graph.preds(v).iter().map(|p| out[p.index()]).collect(),
            };
            preds.push(inputs);
            out[v.index()] = preds.len() - 1;
        }
        Dag(preds)
    }

    /// The DAG cut at its single-node cuts (nodes every other node is an
    /// ancestor or a descendant of), as divide-and-conquer schedules it:
    /// each segment ends at a cut, and its predecessors before the segment
    /// are dropped.
    fn segments(&self) -> Vec<Dag> {
        let n = self.0.len();
        let mut ancestors = vec![vec![0u64; n.div_ceil(64)]; n];
        for v in 0..n {
            for &p in &self.0[v] {
                let (done, rest) = ancestors.split_at_mut(v);
                for (word, &from) in rest[0].iter_mut().zip(&done[p]) {
                    *word |= from;
                }
                rest[0][p / 64] |= 1 << (p % 64);
            }
        }
        let mut descendants = vec![0usize; n];
        for set in &ancestors {
            for (w, &word) in set.iter().enumerate() {
                (0..64).filter(|b| word >> b & 1 == 1).for_each(|b| descendants[w * 64 + b] += 1);
            }
        }
        let is_cut = |v: usize| {
            let count = ancestors[v].iter().map(|w| w.count_ones() as usize).sum::<usize>();
            count + descendants[v] + 1 == n
        };
        let mut segments = Vec::new();
        let mut start = 0;
        for end in (0..n).filter(|&v| is_cut(v) || v + 1 == n) {
            let preds = self.0[start..=end]
                .iter()
                .map(|preds| preds.iter().filter(|&&p| p >= start).map(|p| p - start).collect())
                .collect();
            segments.push(Dag(preds));
            start = end + 1;
        }
        segments
    }

    /// Number of downsets (prefix-closed node sets): the states an
    /// exhaustive scheduler can reach. Counted on the chain-compressed DAG
    /// — a ready chain of `L` nodes contributes `L` partial states — so it
    /// costs the enumeration of chain-level downsets only. Stops once the
    /// count passes `cap`; more than 128 chains count as `u64::MAX`.
    fn downsets(&self, cap: u64) -> u64 {
        let mut succs = vec![0usize; self.0.len()];
        self.0.iter().flatten().for_each(|&p| succs[p] += 1);
        let mut chain_of = vec![usize::MAX; self.0.len()];
        let mut len: Vec<u64> = Vec::new();
        for (v, preds) in self.0.iter().enumerate() {
            match preds[..] {
                [p] if succs[p] == 1 => {
                    chain_of[v] = chain_of[p];
                    len[chain_of[p]] += 1;
                }
                _ => {
                    chain_of[v] = len.len();
                    len.push(1);
                }
            }
        }
        if len.len() > 128 {
            return u64::MAX;
        }
        let mut needs = vec![0u128; len.len()];
        for (v, preds) in self.0.iter().enumerate() {
            for &p in preds.iter().filter(|&&p| chain_of[p] != chain_of[v]) {
                needs[chain_of[v]] |= 1 << chain_of[p];
            }
        }
        let mut layer: HashSet<u128> = HashSet::from([0]);
        let mut total = 0u64;
        while !layer.is_empty() && total <= cap {
            let mut next = HashSet::with_capacity(layer.len() * 2);
            for &done in &layer {
                let mut partial = 1u64;
                for (chain, &need) in needs.iter().enumerate() {
                    if done & (1 << chain) == 0 && need & !done == 0 {
                        partial = partial.saturating_mul(len[chain]);
                        next.insert(done | (1 << chain));
                    }
                }
                total = total.saturating_add(partial);
            }
            layer = next;
        }
        total
    }
}

/// The cost cells are drawn by: the downsets of each divide-and-conquer
/// segment of the cell as channel-wise partitioning leaves it, summed. For
/// sum-aggregated cells this is the DP's state count; for concat cells it
/// tracks the re-schedule of the rewritten graph, which dominates their
/// compile. Counting stops past `cap`.
pub fn cost(graph: &Graph, cap: u64) -> u64 {
    Dag::partitioned(graph).segments().iter().fold(0u64, |total, segment| {
        total.saturating_add(segment.downsets(cap.saturating_sub(total)))
    })
}

/// Draws cells until one's cost lies within `tolerance` of `target`;
/// after `MAX_DRAWS` the closest draw is taken.
fn draw(target: u64, tolerance: f64, mut cell: impl FnMut() -> Graph) -> Graph {
    let mut best: Option<(f64, Graph)> = None;
    for _ in 0..MAX_DRAWS {
        let graph = cell();
        let distance = (cost(&graph, 2 * target) as f64 / target as f64).ln().abs();
        if best.as_ref().is_none_or(|(d, _)| distance < *d) {
            best = Some((distance, graph));
        }
        if distance <= tolerance.ln_1p() {
            break;
        }
    }
    best.expect("at least one draw").1
}

/// One generated graph as the program receives it.
pub struct Input {
    /// Stable name for reports and traces.
    pub id: String,
    /// The JSON text a client sends.
    pub json: String,
    /// The graph the program imports from `json`.
    pub graph: Graph,
}

impl Input {
    fn new(id: impl Into<String>, graph: &Graph) -> Input {
        let json = to_json(graph);
        let graph = from_json_checked(&json, &ImportLimits::default())
            .expect("generated graphs pass the import checks");
        Input { id: id.into(), json, graph }
    }

    /// Peak of the TFLite-style baseline order (Kahn), computed here and not
    /// taken from the compiler.
    pub fn kahn_peak(&self) -> u64 {
        mem::peak_bytes(&self.graph, &topo::kahn(&self.graph)).expect("kahn order is valid")
    }

    /// Arena of the TFLite baseline: Kahn order planned greedy-by-size.
    pub fn kahn_arena(&self) -> u64 {
        let order = topo::kahn(&self.graph);
        serenity_allocator::plan(&self.graph, &order, serenity_allocator::Strategy::GreedyBySize)
            .expect("kahn order plans")
            .arena_bytes
    }
}

/// One compile of an in-process workload: which input, and the on-chip
/// capacity it is compiled for (`MinTraffic`), if any.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub input: usize,
    pub capacity: Option<u64>,
}

/// Inputs of an in-process workload; one round compiles every job once.
pub struct CompilePlan {
    pub inputs: Vec<Input>,
    pub jobs: Vec<Job>,
}

/// Inputs of the service workload.
pub struct ServePlan {
    /// The initial family first, then the fresh cells in arrival order.
    pub graphs: Vec<Input>,
    /// Size of the initial family (compiled once, cold, during set-up).
    pub initial: usize,
    /// The request stream: indices into `graphs`. Clients take requests in
    /// this order until it ends.
    pub sequence: Vec<usize>,
}

/// The suite's RandWire cells: `(id, wiring seed, nodes, channels)`, all at
/// 16×16 (see `serenity_nets::suite`).
const SUITE_RANDWIRE: [(&str, u64, usize, usize); 5] = [
    ("randwire-c10-a", 44, 20, 46),
    ("randwire-c10-b", 22, 12, 36),
    ("randwire-c100-a", 47, 20, 46),
    ("randwire-c100-b", 22, 16, 35),
    ("randwire-c100-c", 28, 12, 16),
];

/// How close a drawn cell's cost must come to its target, and how many
/// cells are drawn before the closest is taken instead.
const TOLERANCE: f64 = 0.03;
const MAX_DRAWS: usize = 400;

/// `dp-randwire`: cells per round and their cost target (≈ 18 ms of DP
/// each on a 2-vCPU host).
const DP_CELLS: usize = 64;
const DP_TARGET: u64 = 55_000;
/// `capacity-concat`: cells per round (each compiled at two capacities).
const CAPACITY_CELLS: usize = 48;
const CAPACITY_TARGET: u64 = 40_000;
/// `serve-nas-family`: concat cells in the initial family, fresh cells that
/// arrive during a run, and how often one does (every tenth request). The
/// request stream ends when the fresh cells run out, so every run sees the
/// same mix. The fresh share and the Zipf exponent are assumptions: no
/// recorded NAS request trace backs them.
const FAMILY_CONCAT: usize = 10;
const SERVE_TARGET: u64 = 40_000;
/// The service's cells only need their cost tail cut, not a tight match.
const SERVE_TOLERANCE: f64 = 0.5;
const FRESH_CELLS: usize = 256;
const FRESH_EVERY: usize = 10;
const ZIPF_S: f64 = 1.1;

fn randwire(nodes: usize, seed: u64, hw: usize, channels: usize, agg: Aggregation) -> Graph {
    randwire_cell(&RandWireConfig {
        nodes,
        seed,
        hw,
        channels,
        aggregation: agg,
        ..Default::default()
    })
}

/// `paper-suite`: the paper's nine cells. Seed 0 is `serenity_nets::suite()`;
/// other seeds re-draw each RandWire cell's wiring at the original cell's
/// cost.
pub fn paper_suite(seed: u64, smoke: bool) -> CompilePlan {
    let mut inputs = Vec::new();
    for bench in serenity_nets::suite() {
        if smoke && !matches!(bench.id, "swiftnet-c" | "randwire-c100-c") {
            continue;
        }
        let graph = match SUITE_RANDWIRE.iter().position(|c| c.0 == bench.id) {
            Some(i) if seed != 0 => {
                let (_, _, nodes, channels) = SUITE_RANDWIRE[i];
                let mut rng = Rng::new(seed, i as u64);
                draw(cost(&bench.graph, u64::MAX), TOLERANCE, || {
                    randwire(nodes, rng.next_u64(), 16, channels, Aggregation::Sum)
                })
            }
            _ => bench.graph,
        };
        inputs.push(Input::new(bench.id, &graph));
    }
    let jobs = (0..inputs.len()).map(|input| Job { input, capacity: None }).collect();
    CompilePlan { inputs, jobs }
}

/// `dp-randwire`: sum-aggregated RandWire cells (WS k=4 p=0.75, 8×8×8,
/// 20–24 nodes). They have no rewrite sites, so the compile is adaptive DP.
pub fn dp_randwire(seed: u64, smoke: bool) -> CompilePlan {
    let (cells, target, nodes) =
        if smoke { (3, 300, [8, 9, 10]) } else { (DP_CELLS, DP_TARGET, [20, 22, 24]) };
    let inputs: Vec<Input> = (0..cells)
        .map(|i| {
            let mut rng = Rng::new(seed, 100 + i as u64);
            let graph = draw(target, TOLERANCE, || {
                let n = nodes[rng.below(nodes.len())];
                randwire(n, rng.next_u64(), 8, 8, Aggregation::Sum)
            });
            Input::new(graph.name().to_string(), &graph)
        })
        .collect();
    let jobs = (0..inputs.len()).map(|input| Job { input, capacity: None }).collect();
    CompilePlan { inputs, jobs }
}

/// Concat RandWire cells (16×16×12), each structurally distinct from every
/// graph in `seen` (compared by fingerprint, which ignores names): the
/// service shares one compile between structurally identical graphs, and a
/// repeated structure is no fresh cell.
fn concat_cells(
    seed: u64,
    stream: u64,
    count: usize,
    (nodes, target, tolerance): (usize, u64, f64),
    seen: &mut HashSet<u64>,
) -> Vec<Input> {
    (0..count)
        .map(|i| {
            let mut rng = Rng::new(seed, stream + i as u64);
            let graph = draw(target, tolerance, || {
                (0..MAX_DRAWS)
                    .map(|_| randwire(nodes, rng.next_u64(), 16, 12, Aggregation::Concat))
                    .find(|cell| !seen.contains(&fingerprint(cell)))
                    .expect("RandWire draws of this size keep repeating known structures")
            });
            seen.insert(fingerprint(&graph));
            Input::new(graph.name().to_string(), &graph)
        })
        .collect()
}

/// `capacity-concat`: concat-aggregated RandWire cells (16×16×12), each
/// compiled with `CapacityTarget::min_traffic` at ⌊0.4·P⌋ and ⌊0.5·P⌋,
/// where P is the cell's Kahn-order peak.
pub fn capacity_concat(seed: u64, smoke: bool) -> CompilePlan {
    let (cells, nodes, target) =
        if smoke { (2, 6, 5_000) } else { (CAPACITY_CELLS, 8, CAPACITY_TARGET) };
    let inputs = concat_cells(seed, 200, cells, (nodes, target, TOLERANCE), &mut HashSet::new());
    let jobs = inputs
        .iter()
        .enumerate()
        .flat_map(|(input, cell)| {
            let peak = cell.kahn_peak();
            [peak * 2 / 5, peak / 2].map(|c| Job { input, capacity: Some(c) })
        })
        .collect();
    CompilePlan { inputs, jobs }
}

/// `serve-nas-family`: a NAS client's request stream. The initial family is
/// concat RandWire n8 cells, ranked first, then six SwiftNet variants
/// (16/32 px × width 1–3). Every tenth request brings a fresh concat cell
/// that then joins the family at the next rank, so each block of 100
/// responses holds ten cold compiles; the others draw Zipf(1.1) over the
/// family by rank.
pub fn serve_nas_family(seed: u64, smoke: bool) -> ServePlan {
    let (variants, family_concat, fresh, every) = if smoke {
        (vec![(16, 1)], 2, 4, 5)
    } else {
        let v = [16, 32].into_iter().flat_map(|hw| (1..=3).map(move |w| (hw, w))).collect();
        (v, FAMILY_CONCAT, FRESH_CELLS, FRESH_EVERY)
    };
    let swiftnets: Vec<Input> = variants
        .iter()
        .map(|&(hw, width)| {
            let graph = swiftnet_with(&SwiftNetConfig { hw, in_channels: 3, width });
            Input::new(format!("swiftnet-hw{hw}-w{width}"), &graph)
        })
        .collect();
    let cells =
        if smoke { (6, 5_000, SERVE_TOLERANCE) } else { (8, SERVE_TARGET, SERVE_TOLERANCE) };
    let mut seen: HashSet<u64> = swiftnets.iter().map(|s| fingerprint(&s.graph)).collect();
    let mut graphs = concat_cells(seed, 300, family_concat, cells, &mut seen);
    graphs.extend(swiftnets);
    let initial = graphs.len();
    graphs.extend(concat_cells(seed, 400, fresh, cells, &mut seen));

    let mut rng = Rng::new(seed, 500);
    let weight = |rank: usize| (rank as f64 + 1.0).powf(-ZIPF_S);
    let mut cumulative: Vec<f64> = Vec::with_capacity(graphs.len());
    let mut total = 0.0;
    for rank in 0..initial {
        total += weight(rank);
        cumulative.push(total);
    }
    let mut requests = Vec::with_capacity(fresh * every);
    for i in 0..fresh * every {
        let family = cumulative.len();
        if i % every == every - 1 {
            requests.push(family);
            total += weight(family);
            cumulative.push(total);
        } else {
            let u = rng.unit() * total;
            requests.push(cumulative.partition_point(|&c| c <= u).min(family - 1));
        }
    }
    ServePlan { graphs, initial, sequence: requests }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(plan: &CompilePlan) -> Vec<String> {
        plan.inputs.iter().map(|i| i.json.clone()).collect()
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        assert_eq!(texts(&paper_suite(7, false)), texts(&paper_suite(7, false)));
        assert_eq!(texts(&dp_randwire(7, true)), texts(&dp_randwire(7, true)));
        assert_eq!(texts(&capacity_concat(7, true)), texts(&capacity_concat(7, true)));
        let (a, b) = (serve_nas_family(7, true), serve_nas_family(7, true));
        assert_eq!(a.sequence, b.sequence);
        assert!(a.graphs.iter().zip(&b.graphs).all(|(x, y)| x.json == y.json));
    }

    #[test]
    fn seed_zero_is_the_paper_suite_and_seed_one_differs() {
        let suite: Vec<Graph> = serenity_nets::suite().into_iter().map(|b| b.graph).collect();
        let zero = paper_suite(0, false);
        assert_eq!(zero.inputs.len(), suite.len());
        for (input, graph) in zero.inputs.iter().zip(&suite) {
            assert_eq!(&input.graph, graph, "{}", input.id);
            assert_eq!(input.json, to_json(graph));
        }
        for (id, wiring, nodes, channels) in SUITE_RANDWIRE {
            let original = zero.inputs.iter().find(|i| i.id == id).expect("a suite cell");
            let rebuilt = randwire(nodes, wiring, 16, channels, Aggregation::Sum);
            assert_eq!(original.graph, rebuilt, "{id}: the re-draw table matches the suite");
        }
        let one = paper_suite(1, false);
        let changed = zero.inputs.iter().zip(&one.inputs).filter(|(a, b)| a.json != b.json);
        assert_eq!(changed.count(), SUITE_RANDWIRE.len(), "seed 1 re-draws every RandWire cell");
        assert_ne!(texts(&dp_randwire(0, true)), texts(&dp_randwire(1, true)));
        assert_ne!(serve_nas_family(0, true).sequence, serve_nas_family(1, true).sequence);
    }

    #[test]
    fn fresh_cells_arrive_at_a_fixed_stride_until_the_stream_ends() {
        // The smoke plan: three family graphs, four fresh cells, one in five.
        let plan = serve_nas_family(0, true);
        assert_eq!((plan.initial, plan.graphs.len(), plan.sequence.len()), (3, 7, 20));
        let structures: HashSet<u64> = plan.graphs.iter().map(|g| fingerprint(&g.graph)).collect();
        assert_eq!(structures.len(), plan.graphs.len(), "no two graphs share a structure");
        for (arrived, requests) in plan.sequence.chunks(5).enumerate() {
            let (fresh, warm) = requests.split_last().expect("five requests");
            assert_eq!(*fresh, plan.initial + arrived, "fresh cells arrive in order");
            assert!(warm.iter().all(|&g| g < *fresh), "the rest hit the family");
        }
    }

    #[test]
    fn cost_counts_the_downsets_of_each_segment() {
        // Two chains a → b and c → d joined by e: no single-node cut but e,
        // so one segment with 3 × 3 + 1 downsets.
        let mut g = Graph::new("joined");
        let a = g.add_opaque("a", 1, &[]).unwrap();
        let b = g.add_opaque("b", 1, &[a]).unwrap();
        let c = g.add_opaque("c", 1, &[]).unwrap();
        let d = g.add_opaque("d", 1, &[c]).unwrap();
        g.add_opaque("e", 1, &[b, d]).unwrap();
        assert_eq!(cost(&g, u64::MAX), 10);
        // A common source s is a cut: segments {s} and the rest, counted
        // apart (2 + 10) as divide-and-conquer schedules them.
        let mut g = Graph::new("sourced");
        let s = g.add_opaque("s", 1, &[]).unwrap();
        let a = g.add_opaque("a", 1, &[s]).unwrap();
        let b = g.add_opaque("b", 1, &[a]).unwrap();
        let c = g.add_opaque("c", 1, &[s]).unwrap();
        let d = g.add_opaque("d", 1, &[c]).unwrap();
        g.add_opaque("e", 1, &[b, d]).unwrap();
        assert_eq!(cost(&g, u64::MAX), 12);
        assert!(cost(&g, 3) < 12, "counting stops past the cap");
    }
}
