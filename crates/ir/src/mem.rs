//! Activation-memory accounting for a schedule.
//!
//! This module implements the footprint recurrence of the paper's Algorithm 1
//! and Figure 6: when a node `u` is scheduled its output activation is
//! *allocated* (`µ ← µ + ∏(u.shape)`), the running peak is updated
//! (`µ_peak ← max(µ_peak, µ)`), and then every tensor whose *last* consumer
//! has now been scheduled is *deallocated*. Graph outputs are never freed.
//!
//! # Slab semantics
//!
//! Identity graph rewriting (§3.3) only achieves the Figure 9 memory costs —
//! `max(xᵢ + y)` rather than `Σxᵢ + y` — when partial results are written
//! **directly into the combined output buffer**: partial convolutions
//! accumulate into a pre-allocated sum ([`Op::AccumAdd`](crate::Op::AccumAdd)), partial depthwise
//! convolutions write into slices of a pre-allocated concatenation
//! ([`Op::SlabConcat`](crate::Op::SlabConcat)). [`SlabAnalysis`] identifies the inputs that qualify
//! for such in-place combination (single-consumer, non-output producers);
//! qualifying *members* occupy no storage of their own and the slab buffer is
//! charged when its **first member executes**. All schedulers, allocators,
//! and simulators in the workspace share this accounting through
//! [`CostModel`].
//!
//! The running footprint µ remains a pure function of the *set* of scheduled
//! nodes, which is what makes the zero-indegree-set signature a sound DP key
//! (§3.1, Theorem 1) — slab charging depends only on *which* members have
//! run, not in what order.

use serde::{Deserialize, Serialize};

use crate::set::wordset;
use crate::{Graph, GraphError, NodeId, NodeSet};

/// One step of a footprint trace: the memory state after scheduling a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FootprintSample {
    /// Index of the step in the schedule (0-based).
    pub step: usize,
    /// The node scheduled at this step.
    pub node: NodeId,
    /// Footprint in bytes right after allocating the node's output, before
    /// freeing dead predecessors — the instant at which peaks occur.
    pub after_alloc: u64,
    /// Footprint in bytes after freeing tensors whose last consumer ran.
    pub after_free: u64,
}

/// Complete memory profile of a schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleProfile {
    /// Peak footprint µ* over the whole schedule, in bytes.
    pub peak_bytes: u64,
    /// Step at which the peak is first reached.
    pub peak_step: usize,
    /// Footprint after the final step (graph outputs and any stragglers).
    pub final_bytes: u64,
    /// Per-step footprint samples, in schedule order.
    pub trace: Vec<FootprintSample>,
}

impl ScheduleProfile {
    /// Peak footprint in KiB (the paper reports KB values).
    pub fn peak_kib(&self) -> f64 {
        self.peak_bytes as f64 / 1024.0
    }
}

/// Storage roles assigned by [`SlabAnalysis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageRole {
    /// Owns its own buffer of `out_bytes` bytes.
    Owned,
    /// Writes directly into the given slab combiner's buffer; owns nothing.
    MemberOf(NodeId),
    /// A slab combiner whose buffer is charged at its first member.
    SlabHead,
}

/// Identifies which nodes write in place into a slab combiner's buffer.
///
/// An input `p` of a slab op `s` *qualifies* as a member iff `p`'s only
/// consumer is `s`, `p` is not itself a slab op, and `p` is not a graph
/// output — i.e. its tensor provably has no other observer, so it can live
/// inside `s`'s buffer. Non-qualifying inputs of a slab op are materialized
/// normally (the combiner then copies them, like a plain concat would).
#[derive(Debug, Clone)]
pub struct SlabAnalysis {
    member_of: Vec<Option<NodeId>>,
    members: Vec<Vec<NodeId>>,
    is_head: Vec<bool>,
}

impl SlabAnalysis {
    /// Analyzes `graph`.
    pub fn analyze(graph: &Graph) -> Self {
        let n = graph.len();
        let mut member_of = vec![None; n];
        let mut members = vec![Vec::new(); n];
        let mut is_head = vec![false; n];
        for s in graph.node_ids() {
            if !graph.node(s).op.is_slab() {
                continue;
            }
            for &p in graph.preds(s) {
                let qualifies =
                    graph.succs(p).len() == 1 && !graph.node(p).op.is_slab() && !graph.is_output(p);
                if qualifies {
                    member_of[p.index()] = Some(s);
                    members[s.index()].push(p);
                }
            }
            if !members[s.index()].is_empty() {
                is_head[s.index()] = true;
            }
        }
        SlabAnalysis { member_of, members, is_head }
    }

    /// The slab this node writes into, if it is a qualifying member.
    pub fn member_of(&self, u: NodeId) -> Option<NodeId> {
        self.member_of[u.index()]
    }

    /// Qualifying members of a slab head (empty for other nodes).
    pub fn members(&self, head: NodeId) -> &[NodeId] {
        &self.members[head.index()]
    }

    /// Whether `u` is a slab combiner with at least one qualifying member.
    pub fn is_head(&self, u: NodeId) -> bool {
        self.is_head[u.index()]
    }

    /// Bytes of dedicated storage owned by `u` (zero for members).
    pub fn owned_bytes(&self, graph: &Graph, u: NodeId) -> u64 {
        if self.member_of(u).is_some() {
            0
        } else {
            graph.out_bytes(u)
        }
    }
}

/// The shared allocate/free cost model (Figure 6 plus slab semantics).
///
/// Every scheduler in the workspace computes footprints through this type so
/// they provably agree: the DP scheduler, the brute-force oracle, the greedy
/// heuristic, and the profiling entry points below.
///
/// Construction precomputes per-node adjacency *bitmasks* — predecessor,
/// successor, and slab-member [`NodeSet`]s — so the hot-path questions
/// ("are all of `u`'s predecessors scheduled?", "did `u`'s last consumer just
/// run?", "is `u` the first member of its slab?") are answered with a few
/// word-level mask operations instead of edge-list scans. Search engines
/// that keep signatures in flat word pools use its flattened form,
/// [`TransitionTable`]; engines with inline `[u64; W]` bitsets use that
/// table's [`FixedTable`] view.
#[derive(Debug, Clone)]
pub struct CostModel<'g> {
    graph: &'g Graph,
    slabs: SlabAnalysis,
    /// Mask of each node's predecessors: `pred_masks[u] ⊆ scheduled` ⇔ `u`
    /// is ready.
    pred_masks: Vec<NodeSet>,
    /// Mask of each node's successors (consumers).
    succ_masks: Vec<NodeSet>,
    /// Mask of each slab head's qualifying members (empty for other nodes).
    member_masks: Vec<NodeSet>,
    /// Cached output bytes per node.
    out_bytes: Vec<u64>,
    /// Bytes released when a node's last consumer runs: owned storage, or 0
    /// for graph outputs (never freed) and slab members (own nothing).
    releasable: Vec<u64>,
    /// Bytes a node frees for itself at its own step (dead-end non-outputs).
    self_free: Vec<u64>,
}

impl<'g> CostModel<'g> {
    /// Builds the cost model (runs slab analysis and builds the adjacency
    /// masks once).
    pub fn new(graph: &'g Graph) -> Self {
        let n = graph.len();
        let slabs = SlabAnalysis::analyze(graph);
        let mut pred_masks = Vec::with_capacity(n);
        let mut succ_masks = Vec::with_capacity(n);
        let mut member_masks = Vec::with_capacity(n);
        let mut out_bytes = Vec::with_capacity(n);
        let mut releasable = Vec::with_capacity(n);
        let mut self_free = Vec::with_capacity(n);
        for u in graph.node_ids() {
            let mut preds = NodeSet::with_capacity(n);
            preds.extend(graph.preds(u).iter().copied());
            pred_masks.push(preds);
            let mut succs = NodeSet::with_capacity(n);
            succs.extend(graph.succs(u).iter().copied());
            succ_masks.push(succs);
            let mut members = NodeSet::new();
            if slabs.is_head(u) {
                members = NodeSet::with_capacity(n);
                members.extend(slabs.members(u).iter().copied());
            }
            member_masks.push(members);
            out_bytes.push(graph.out_bytes(u));
            let owned = slabs.owned_bytes(graph, u);
            releasable.push(if graph.is_output(u) { 0 } else { owned });
            self_free.push(if graph.outdegree(u) == 0 && !graph.is_output(u) { owned } else { 0 });
        }
        CostModel {
            graph,
            slabs,
            pred_masks,
            succ_masks,
            member_masks,
            out_bytes,
            releasable,
            self_free,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The slab analysis.
    pub fn slabs(&self) -> &SlabAnalysis {
        &self.slabs
    }

    /// Mask of `u`'s predecessors.
    pub fn pred_mask(&self, u: NodeId) -> &NodeSet {
        &self.pred_masks[u.index()]
    }

    /// Mask of `u`'s successors.
    pub fn succ_mask(&self, u: NodeId) -> &NodeSet {
        &self.succ_masks[u.index()]
    }

    /// Whether every predecessor of `u` is in `scheduled` — the
    /// zero-indegree test, as word-level subset checks against the
    /// precomputed predecessor mask.
    #[inline]
    pub fn ready(&self, scheduled: &NodeSet, u: NodeId) -> bool {
        wordset::is_subset(self.pred_masks[u.index()].as_words(), scheduled.as_words())
    }

    /// Bytes allocated when `u` is scheduled, given the set of already
    /// scheduled nodes (excluding `u`).
    ///
    /// * A slab member charges the whole slab buffer iff it is the first
    ///   member of its slab to run, and nothing for itself.
    /// * A slab head charges nothing (its buffer was charged by its first
    ///   member — heads always run after their members).
    /// * Every other node charges its own output bytes.
    #[inline]
    pub fn alloc_bytes(&self, scheduled: &NodeSet, u: NodeId) -> u64 {
        if let Some(slab) = self.slabs.member_of(u) {
            let mask = self.member_masks[slab.index()].as_words();
            let first = !wordset::intersects_excluding(mask, scheduled.as_words(), u);
            return if first { self.out_bytes[slab.index()] } else { 0 };
        }
        if self.slabs.is_head(u) {
            return 0;
        }
        self.out_bytes[u.index()]
    }

    /// Bytes freed right after `u` runs: every predecessor whose consumers
    /// have all been scheduled releases its *owned* storage (members own
    /// nothing), and a dead-end non-output node releases its own storage
    /// immediately. `scheduled` must not yet include `u`.
    #[inline]
    pub fn free_bytes(&self, scheduled: &NodeSet, u: NodeId) -> u64 {
        let mut freed = self.self_free[u.index()];
        for &p in self.graph.preds(u) {
            let bytes = self.releasable[p.index()];
            if bytes == 0 {
                // Outputs are never freed; slab members own nothing.
                continue;
            }
            let consumers = self.succ_masks[p.index()].as_words();
            if wordset::is_subset_with(consumers, scheduled.as_words(), u) {
                freed += bytes;
            }
        }
        freed
    }

    /// Reference list-scan implementation of [`CostModel::alloc_bytes`].
    ///
    /// Kept verbatim from before the bitmask rework so property tests can
    /// assert the mask path is byte-identical; not for hot paths.
    pub fn alloc_bytes_scan(&self, scheduled: &NodeSet, u: NodeId) -> u64 {
        if let Some(slab) = self.slabs.member_of(u) {
            let first = !self.slabs.members(slab).iter().any(|&m| m != u && scheduled.contains(m));
            return if first { self.graph.out_bytes(slab) } else { 0 };
        }
        if self.slabs.is_head(u) {
            return 0;
        }
        self.graph.out_bytes(u)
    }

    /// Reference list-scan implementation of [`CostModel::free_bytes`]
    /// (see [`CostModel::alloc_bytes_scan`]).
    pub fn free_bytes_scan(&self, scheduled: &NodeSet, u: NodeId) -> u64 {
        let mut freed = 0;
        for &p in self.graph.preds(u) {
            if self.graph.is_output(p) {
                continue;
            }
            let done = self.graph.succs(p).iter().all(|&s| s == u || scheduled.contains(s));
            if done {
                freed += self.slabs.owned_bytes(self.graph, p);
            }
        }
        if self.graph.outdegree(u) == 0 && !self.graph.is_output(u) {
            freed += self.slabs.owned_bytes(self.graph, u);
        }
        freed
    }

    /// A provable lower bound on the peak footprint of *any* schedule: when
    /// node `v` executes, its inputs' owned storage, its own storage (or its
    /// slab's buffer) are all live simultaneously, so
    /// `LB = max_v (live_at(v))`.
    pub fn peak_lower_bound(&self) -> u64 {
        self.graph
            .node_ids()
            .map(|v| {
                let own = if let Some(slab) = self.slabs.member_of(v) {
                    self.graph.out_bytes(slab)
                } else {
                    self.graph.out_bytes(v)
                };
                own + self
                    .graph
                    .preds(v)
                    .iter()
                    .map(|&p| self.slabs.owned_bytes(self.graph, p))
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0)
    }

    /// Flattens this model into a [`TransitionTable`] for inner-loop search
    /// engines.
    pub fn transition_table(&self) -> TransitionTable {
        TransitionTable::new(self)
    }
}

/// A cache-dense flattening of [`CostModel`] for scheduler inner loops.
///
/// [`CostModel`] keeps each adjacency mask in its own [`NodeSet`] (a
/// separate heap allocation), so a search engine's transition — one
/// alloc-cost lookup, one free-cost lookup, and a readiness test per
/// successor — chases several cold pointers. At millions of transitions per
/// search that pointer-chasing dominates. The table packs every mask the
/// transition reads into **one** word pool and pre-joins the per-edge data
/// (releasable bytes with the consumer mask, successor id with its
/// predecessor mask), so a transition touches a handful of contiguous
/// arrays.
///
/// Semantics are identical to the [`CostModel`] methods —
/// property-checked in the test suite; the table is derived data, valid as
/// long as the graph it was built from is unchanged.
#[derive(Debug, Clone)]
pub struct TransitionTable {
    words: usize,
    /// All masks, `words` u64s per entry; offsets below index this pool.
    mask_pool: Vec<u64>,
    /// Per node: `(mask offset or u32::MAX, bytes)`. With a mask (slab
    /// members): charge `bytes` iff no *other* masked node is scheduled.
    /// Without: charge `bytes` unconditionally (zero for slab heads).
    alloc: Vec<(u32, u64)>,
    /// Per node, bytes freed for itself at its own step.
    self_free: Vec<u64>,
    /// `(consumer-mask offset, releasable bytes)` per freeing predecessor,
    /// grouped by consumer; `free_ranges[u]..free_ranges[u+1]` is node `u`'s
    /// slice.
    free_edges: Vec<(u32, u64)>,
    free_ranges: Vec<u32>,
    /// `(successor, its predecessor-mask offset)` per edge, grouped by
    /// producer; `succ_ranges[u]..succ_ranges[u+1]` is node `u`'s slice.
    /// Only successors with **several** predecessors appear — single-pred
    /// successors are folded into [`TransitionTable::auto_ready`].
    succ_edges: Vec<(NodeId, u32)>,
    succ_ranges: Vec<u32>,
    /// Per node, the mask of successors whose *only* predecessor is that
    /// node: they become ready the instant it is scheduled, so engines OR
    /// this mask into `z` wholesale instead of testing each one
    /// (`u32::MAX` when the node has no such successors).
    auto_ready: Vec<u32>,
}

impl TransitionTable {
    fn new(cost: &CostModel<'_>) -> Self {
        let graph = cost.graph;
        let n = graph.len();
        let words = n.div_ceil(64);
        let mut mask_pool: Vec<u64> = Vec::new();
        let mut intern = |set: &NodeSet| -> u32 {
            let off = mask_pool.len() as u32;
            let have = set.as_words();
            mask_pool.extend_from_slice(&have[..have.len().min(words)]);
            mask_pool.resize(off as usize + words, 0);
            off
        };
        // Predecessor and successor masks are referenced once per adjacent
        // edge; intern each once, up front, so the pool stays O(V·words)
        // rather than O(E·words).
        let pred_offs: Vec<u32> = (0..n).map(|u| intern(&cost.pred_masks[u])).collect();
        let succ_offs: Vec<u32> = (0..n).map(|u| intern(&cost.succ_masks[u])).collect();
        let member_offs: Vec<u32> = (0..n).map(|u| intern(&cost.member_masks[u])).collect();

        let mut alloc = Vec::with_capacity(n);
        let mut free_edges = Vec::new();
        let mut free_ranges = Vec::with_capacity(n + 1);
        let mut succ_edges = Vec::new();
        let mut succ_ranges = Vec::with_capacity(n + 1);
        let mut auto_ready = Vec::with_capacity(n);
        free_ranges.push(0);
        succ_ranges.push(0);
        for u in graph.node_ids() {
            alloc.push(if let Some(slab) = cost.slabs.member_of(u) {
                (member_offs[slab.index()], cost.out_bytes[slab.index()])
            } else if cost.slabs.is_head(u) {
                (u32::MAX, 0)
            } else {
                (u32::MAX, cost.out_bytes[u.index()])
            });
            for &p in graph.preds(u) {
                let bytes = cost.releasable[p.index()];
                if bytes > 0 {
                    free_edges.push((succ_offs[p.index()], bytes));
                }
            }
            free_ranges.push(free_edges.len() as u32);
            let mut auto = NodeSet::with_capacity(n);
            for &s in graph.succs(u) {
                if graph.preds(s).len() == 1 {
                    auto.insert(s);
                } else {
                    succ_edges.push((s, pred_offs[s.index()]));
                }
            }
            succ_ranges.push(succ_edges.len() as u32);
            auto_ready.push(if auto.is_empty() { u32::MAX } else { intern(&auto) });
        }
        TransitionTable {
            words,
            mask_pool,
            alloc,
            self_free: cost.self_free.clone(),
            free_edges,
            free_ranges,
            succ_edges,
            succ_ranges,
            auto_ready,
        }
    }

    /// Bitset words per mask (`⌈n/64⌉`).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The mask stored at `off` (`words` u64s), for offsets handed out by
    /// [`TransitionTable::succ_edges`] and [`TransitionTable::auto_ready`].
    #[inline]
    pub fn mask(&self, off: u32) -> &[u64] {
        &self.mask_pool[off as usize..off as usize + self.words]
    }

    /// [`CostModel::alloc_bytes`] on a raw word slice, against the
    /// flattened data.
    #[inline]
    pub fn alloc_bytes(&self, scheduled: &[u64], u: NodeId) -> u64 {
        let (off, bytes) = self.alloc[u.index()];
        if off == u32::MAX {
            return bytes;
        }
        if wordset::intersects_excluding(self.mask(off), scheduled, u) {
            0
        } else {
            bytes
        }
    }

    /// [`CostModel::free_bytes`] on a raw word slice, against the flattened
    /// data (`scheduled` must not yet include `u`).
    #[inline]
    pub fn free_bytes(&self, scheduled: &[u64], u: NodeId) -> u64 {
        let mut freed = self.self_free[u.index()];
        let range = self.free_ranges[u.index()] as usize..self.free_ranges[u.index() + 1] as usize;
        for &(off, bytes) in &self.free_edges[range] {
            if wordset::is_subset_with(self.mask(off), scheduled, u) {
                freed += bytes;
            }
        }
        freed
    }

    /// Offset of `u`'s auto-ready successor mask (successors with no other
    /// predecessor), or `u32::MAX` when there are none.
    #[inline]
    pub fn auto_ready(&self, u: NodeId) -> u32 {
        self.auto_ready[u.index()]
    }

    /// `u`'s multi-predecessor successors, each paired with its
    /// predecessor-mask offset for [`TransitionTable::mask_ready`].
    #[inline]
    pub fn succ_edges(&self, u: NodeId) -> &[(NodeId, u32)] {
        &self.succ_edges
            [self.succ_ranges[u.index()] as usize..self.succ_ranges[u.index() + 1] as usize]
    }

    /// Whether the mask at `off` (from [`TransitionTable::succ_edges`]) is
    /// contained in `scheduled` — the readiness test for that successor.
    #[inline]
    pub fn mask_ready(&self, scheduled: &[u64], off: u32) -> bool {
        wordset::is_subset(self.mask(off), scheduled)
    }

    /// The fixed-width view of this table for engines whose bitsets are
    /// `[u64; W]` arrays.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `64 × W` nodes.
    pub fn fixed<const W: usize>(&self) -> FixedTable<W> {
        assert!(self.words <= W, "a {}-word table has no {W}-word view", self.words);
        let inline = |off: u32| {
            let mut mask = [0u64; W];
            if off != u32::MAX {
                mask[..self.words].copy_from_slice(self.mask(off));
            }
            mask
        };
        let without = |mut mask: [u64; W], u: NodeId| {
            wordset::remove(&mut mask, u);
            mask
        };
        let mut nodes = Vec::with_capacity(self.alloc.len());
        let mut free_edges = Vec::with_capacity(self.free_edges.len());
        let mut succ_edges = Vec::with_capacity(self.succ_edges.len());
        for (i, &(off, alloc)) in self.alloc.iter().enumerate() {
            let u = NodeId::from_index(i);
            let free_start = free_edges.len() as u32;
            let range = self.free_ranges[i] as usize..self.free_ranges[i + 1] as usize;
            free_edges.extend(
                self.free_edges[range].iter().map(|&(off, bytes)| (without(inline(off), u), bytes)),
            );
            let succ_start = succ_edges.len() as u32;
            succ_edges.extend(self.succ_edges(u).iter().map(|&(s, off)| (s, inline(off))));
            nodes.push(FixedNode {
                slab_others: without(inline(off), u),
                alloc,
                self_free: self.self_free[i],
                auto_ready: inline(self.auto_ready[i]),
                free: [free_start, free_edges.len() as u32],
                succ: [succ_start, succ_edges.len() as u32],
            });
        }
        FixedTable { nodes, free_edges, succ_edges }
    }
}

/// A fixed-width view of a [`TransitionTable`], for graphs of at most
/// `64 × W` nodes.
///
/// Search engines whose states hold their bitsets inline as `[u64; W]`
/// arrays (the DP's and the beam's fast paths) read their masks inline
/// too: each node's record carries its slab and auto-ready masks, and each
/// edge carries its consumer or predecessor mask. A transition therefore
/// looks up no offset into a shared pool, and every mask test is `W` word
/// operations the compiler unrolls. A mask the alloc and free rules test
/// "apart from the node being scheduled" is stored without that node, so
/// both rules become plain intersection and subset tests.
///
/// Semantics are identical to the table it was built from (and so to the
/// [`CostModel`] methods) — property-checked against the `*_scan`
/// reference in the test suite, like the table itself.
#[derive(Debug, Clone)]
pub struct FixedTable<const W: usize> {
    nodes: Vec<FixedNode<W>>,
    /// `(consumers other than the node, releasable bytes)` per freeing
    /// predecessor, grouped by consumer (`FixedNode::free`).
    free_edges: Vec<([u64; W], u64)>,
    /// `(successor, its predecessor mask)` per multi-predecessor successor,
    /// grouped by producer (`FixedNode::succ`).
    succ_edges: Vec<(NodeId, [u64; W])>,
}

/// One node's record in a [`FixedTable`].
#[derive(Debug, Clone, Copy)]
struct FixedNode<const W: usize> {
    /// The other members of the node's slab (empty unless it is a slab
    /// member): the node charges `alloc` iff none of them is scheduled.
    slab_others: [u64; W],
    /// Bytes charged on allocation (zero for slab heads).
    alloc: u64,
    /// Bytes the node frees for itself at its own step.
    self_free: u64,
    /// Successors whose only predecessor is this node.
    auto_ready: [u64; W],
    /// `start..end` of the node's slice of `free_edges`.
    free: [u32; 2],
    /// `start..end` of the node's slice of `succ_edges`.
    succ: [u32; 2],
}

impl<const W: usize> FixedTable<W> {
    /// [`TransitionTable::alloc_bytes`] on an inline bitset.
    #[inline]
    pub fn alloc_bytes(&self, scheduled: &[u64; W], u: NodeId) -> u64 {
        let node = &self.nodes[u.index()];
        if (0..W).any(|w| node.slab_others[w] & scheduled[w] != 0) {
            0
        } else {
            node.alloc
        }
    }

    /// [`TransitionTable::free_bytes`] on an inline bitset (`scheduled`
    /// must not yet include `u`).
    #[inline]
    pub fn free_bytes(&self, scheduled: &[u64; W], u: NodeId) -> u64 {
        let node = &self.nodes[u.index()];
        let mut freed = node.self_free;
        for (others, bytes) in &self.free_edges[node.free[0] as usize..node.free[1] as usize] {
            if self.mask_ready(scheduled, others) {
                freed += bytes;
            }
        }
        freed
    }

    /// `u`'s auto-ready successor mask (successors with no other
    /// predecessor); empty when there are none.
    #[inline]
    pub fn auto_ready(&self, u: NodeId) -> &[u64; W] {
        &self.nodes[u.index()].auto_ready
    }

    /// `u`'s multi-predecessor successors, each paired with its predecessor
    /// mask for [`FixedTable::mask_ready`].
    #[inline]
    pub fn succ_edges(&self, u: NodeId) -> &[(NodeId, [u64; W])] {
        let node = &self.nodes[u.index()];
        &self.succ_edges[node.succ[0] as usize..node.succ[1] as usize]
    }

    /// Whether `mask` is contained in `scheduled` — the readiness test for
    /// a successor from [`FixedTable::succ_edges`].
    #[inline]
    pub fn mask_ready(&self, scheduled: &[u64; W], mask: &[u64; W]) -> bool {
        (0..W).all(|w| mask[w] & !scheduled[w] == 0)
    }
}

/// Simulates `order` on `graph` and returns its memory profile.
///
/// # Errors
///
/// Returns [`GraphError::InvalidOrder`] if `order` is not a topological order
/// of `graph`.
///
/// # Example
///
/// ```
/// use serenity_ir::{Graph, Op, TensorShape, DType, mem, topo};
///
/// # fn main() -> Result<(), serenity_ir::GraphError> {
/// let mut g = Graph::new("g");
/// let a = g.add_input("a", TensorShape::vector(100, DType::U8));
/// let b = g.add(Op::Identity, &[a])?;
/// g.mark_output(b);
/// let profile = mem::profile_schedule(&g, &topo::kahn(&g))?;
/// // Peak: a (100 B) and b (100 B) live simultaneously while b executes.
/// assert_eq!(profile.peak_bytes, 200);
/// assert_eq!(profile.final_bytes, 100); // a freed, b is the graph output
/// # Ok(())
/// # }
/// ```
pub fn profile_schedule(graph: &Graph, order: &[NodeId]) -> Result<ScheduleProfile, GraphError> {
    crate::topo::check_order(graph, order)?;
    let mut tracker = FootprintTracker::new(graph);
    let mut trace = Vec::with_capacity(order.len());
    for (step, &u) in order.iter().enumerate() {
        let (after_alloc, after_free) = tracker.schedule(u);
        trace.push(FootprintSample { step, node: u, after_alloc, after_free });
    }
    Ok(ScheduleProfile {
        peak_bytes: tracker.peak_bytes(),
        peak_step: tracker.peak_step,
        final_bytes: tracker.current_bytes(),
        trace,
    })
}

/// Peak footprint of `order` in bytes (see [`profile_schedule`]).
///
/// # Errors
///
/// Returns [`GraphError::InvalidOrder`] if `order` is not a topological order.
pub fn peak_bytes(graph: &Graph, order: &[NodeId]) -> Result<u64, GraphError> {
    crate::topo::check_order(graph, order)?;
    let mut tracker = FootprintTracker::new(graph);
    for &u in order {
        tracker.schedule(u);
    }
    Ok(tracker.peak_bytes())
}

/// Incremental footprint tracker used by schedulers that explore schedules
/// node by node.
///
/// Call [`FootprintTracker::schedule`] for each node in order; the tracker
/// maintains the running footprint and peak through the shared [`CostModel`].
/// No validation is performed — callers must feed a valid order.
#[derive(Debug, Clone)]
pub struct FootprintTracker<'g> {
    cost: CostModel<'g>,
    scheduled: NodeSet,
    current: u64,
    peak: u64,
    peak_step: usize,
    steps: usize,
}

impl<'g> FootprintTracker<'g> {
    /// Creates a tracker with nothing scheduled.
    pub fn new(graph: &'g Graph) -> Self {
        FootprintTracker {
            cost: CostModel::new(graph),
            scheduled: NodeSet::with_capacity(graph.len()),
            current: 0,
            peak: 0,
            peak_step: 0,
            steps: 0,
        }
    }

    /// Schedules `u`: allocates its output, updates the peak, then frees every
    /// tensor whose last consumer has now run. Returns the footprint
    /// `(after_alloc, after_free)` pair for this step.
    pub fn schedule(&mut self, u: NodeId) -> (u64, u64) {
        self.current += self.cost.alloc_bytes(&self.scheduled, u);
        let after_alloc = self.current;
        if self.current > self.peak {
            self.peak = self.current;
            self.peak_step = self.steps;
        }
        self.current -= self.cost.free_bytes(&self.scheduled, u);
        self.scheduled.insert(u);
        self.steps += 1;
        (after_alloc, self.current)
    }

    /// Current footprint in bytes.
    pub fn current_bytes(&self) -> u64 {
        self.current
    }

    /// Peak footprint so far in bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak
    }
}

/// A provable lower bound on the peak footprint of *any* schedule (see
/// [`CostModel::peak_lower_bound`]).
pub fn peak_lower_bound(graph: &Graph) -> u64 {
    CostModel::new(graph).peak_lower_bound()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topo, DType, Op, TensorShape};

    /// Builds the Figure 6-style example: H consumes D and E, and is their
    /// last consumer, so scheduling H frees both.
    fn fig6_like() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new("fig6");
        let a = g.add_opaque("A", 10, &[]).unwrap();
        let b = g.add_opaque("B", 10, &[a]).unwrap();
        let c = g.add_opaque("C", 10, &[a]).unwrap();
        let d = g.add_opaque("D", 10, &[b]).unwrap();
        let e = g.add_opaque("E", 10, &[b, c]).unwrap();
        let f = g.add_opaque("F", 10, &[c]).unwrap();
        let i = g.add_opaque("I", 10, &[e, f]).unwrap();
        let j = g.add_opaque("J", 10, &[f]).unwrap();
        let h = g.add_opaque("H", 10, &[d, e]).unwrap();
        let k = g.add_opaque("K", 10, &[h, i, j]).unwrap();
        let l = g.add_opaque("L", 10, &[k]).unwrap();
        g.mark_output(l);
        (g, vec![a, b, c, d, e, f, i, j, h, k, l])
    }

    #[test]
    fn scheduling_h_frees_d_and_e() {
        let (g, order) = fig6_like();
        let profile = profile_schedule(&g, &order).unwrap();
        let step = &profile.trace[8];
        assert_eq!(g.node(step.node).name, "H");
        assert_eq!(step.after_alloc - step.after_free, 20);
    }

    #[test]
    fn outputs_are_never_freed() {
        let mut g = Graph::new("g");
        let a = g.add_opaque("a", 100, &[]).unwrap();
        let b = g.add_opaque("b", 50, &[a]).unwrap();
        g.mark_output(b);
        let profile = profile_schedule(&g, &topo::kahn(&g)).unwrap();
        assert_eq!(profile.final_bytes, 50);
        assert_eq!(profile.peak_bytes, 150);
    }

    #[test]
    fn dead_end_non_output_is_freed_immediately() {
        let mut g = Graph::new("g");
        let a = g.add_opaque("a", 100, &[]).unwrap();
        let _dead = g.add_opaque("dead", 40, &[a]).unwrap();
        let out = g.add_opaque("out", 10, &[a]).unwrap();
        g.mark_output(out);
        let order = topo::kahn(&g);
        let profile = profile_schedule(&g, &order).unwrap();
        let dead_step = profile.trace.iter().find(|s| g.node(s.node).name == "dead").unwrap();
        assert_eq!(dead_step.after_alloc - dead_step.after_free, 40);
    }

    #[test]
    fn schedule_order_changes_peak() {
        let mut g2 = Graph::new("g2");
        let a2 = g2.add_opaque("a", 10, &[]).unwrap();
        let s2 = g2.add_opaque("small", 10, &[a2]).unwrap();
        let t2 = g2.add_opaque("tiny", 2, &[s2]).unwrap();
        let b2 = g2.add_opaque("big", 100, &[a2]).unwrap();
        let sink2 = g2.add_opaque("sink", 10, &[t2, b2]).unwrap();
        g2.mark_output(sink2);
        let good = peak_bytes(&g2, &[a2, s2, t2, b2, sink2]).unwrap();
        let bad = peak_bytes(&g2, &[a2, b2, s2, t2, sink2]).unwrap();
        assert!(good < bad, "memory-aware order should beat the oblivious one ({good} vs {bad})");
    }

    #[test]
    fn invalid_order_is_rejected() {
        let (g, mut order) = fig6_like();
        order.reverse();
        assert!(profile_schedule(&g, &order).is_err());
    }

    #[test]
    fn lower_bound_is_sound() {
        let (g, order) = fig6_like();
        let lb = peak_lower_bound(&g);
        let peak = peak_bytes(&g, &order).unwrap();
        assert!(lb <= peak);
        assert_eq!(lb, 40); // K: 3 predecessors of 10 B plus its own 10 B
    }

    #[test]
    fn tracker_matches_profile() {
        let (g, order) = fig6_like();
        let profile = profile_schedule(&g, &order).unwrap();
        let mut tracker = FootprintTracker::new(&g);
        for &u in &order {
            tracker.schedule(u);
        }
        assert_eq!(tracker.peak_bytes(), profile.peak_bytes);
        assert_eq!(tracker.current_bytes(), profile.final_bytes);
    }

    #[test]
    fn peak_step_is_recorded() {
        let mut g = Graph::new("g");
        let a = g.add_opaque("a", 10, &[]).unwrap();
        let b = g.add_opaque("b", 200, &[a]).unwrap();
        let c = g.add_opaque("c", 5, &[b]).unwrap();
        g.mark_output(c);
        let profile = profile_schedule(&g, &topo::kahn(&g)).unwrap();
        assert_eq!(profile.peak_step, 1);
        assert_eq!(profile.peak_bytes, 210);
        assert_eq!(g.node(profile.trace[profile.peak_step].node).name, "b");
    }

    // ---- slab semantics -------------------------------------------------

    fn shape(c: usize) -> TensorShape {
        TensorShape::nhwc(1, 1, 1, c, DType::U8) // 1 byte per channel
    }

    /// Two 8-byte producers feeding an accumulating add.
    fn accum_graph() -> (Graph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Graph::new("accum");
        let x = g.add_input("x", shape(8));
        let p1 = g.add_named("p1", Op::Identity, &[x]).unwrap();
        let p2 = g.add_named("p2", Op::Relu, &[x]).unwrap();
        let y = g.add_named("y", Op::AccumAdd, &[p1, p2]).unwrap();
        g.mark_output(y);
        (g, x, p1, p2, y)
    }

    #[test]
    fn slab_analysis_identifies_members() {
        let (g, _, p1, p2, y) = accum_graph();
        let slabs = SlabAnalysis::analyze(&g);
        assert_eq!(slabs.member_of(p1), Some(y));
        assert_eq!(slabs.member_of(p2), Some(y));
        assert!(slabs.is_head(y));
        assert_eq!(slabs.members(y), &[p1, p2]);
        assert_eq!(slabs.owned_bytes(&g, p1), 0);
        assert_eq!(slabs.owned_bytes(&g, y), 8);
    }

    #[test]
    fn slab_buffer_charged_once_at_first_member() {
        let (g, x, p1, p2, y) = accum_graph();
        let profile = profile_schedule(&g, &[x, p1, p2, y]).unwrap();
        // x (8) + slab y (8) charged when p1 runs = 16; p2 charges nothing
        // but frees x (its last consumer): 16 → 8... step by step:
        //   x:  alloc 8              → 8
        //   p1: alloc slab 8         → 16 (p1 itself owns nothing)
        //   p2: alloc 0, free x (8)  → 8
        //   y:  alloc 0              → 8 (output, never freed)
        assert_eq!(profile.trace[1].after_alloc, 16);
        assert_eq!(profile.trace[2].after_free, 8);
        assert_eq!(profile.peak_bytes, 16);
        assert_eq!(profile.final_bytes, 8);
    }

    #[test]
    fn materializing_add_costs_more_than_accum_add() {
        // Same topology, plain Add: p1 and p2 each own 8 bytes and coexist
        // with y while it executes.
        let mut g = Graph::new("plain");
        let x = g.add_input("x", shape(8));
        let p1 = g.add_named("p1", Op::Identity, &[x]).unwrap();
        let p2 = g.add_named("p2", Op::Relu, &[x]).unwrap();
        let y = g.add_named("y", Op::Add, &[p1, p2]).unwrap();
        g.mark_output(y);
        let plain = peak_bytes(&g, &[x, p1, p2, y]).unwrap();
        let (ga, xa, p1a, p2a, ya) = accum_graph();
        let slab = peak_bytes(&ga, &[xa, p1a, p2a, ya]).unwrap();
        assert_eq!(plain, 8 + 8 + 8); // x + p1 + p2 at p2's step
        assert_eq!(slab, 16);
        assert!(slab < plain);
    }

    #[test]
    fn non_qualifying_input_is_materialized() {
        // p1 feeds both the slab and a side consumer: it cannot live in the
        // slab, so it owns storage and is freed normally.
        let mut g = Graph::new("mixed");
        let x = g.add_input("x", shape(8));
        let p1 = g.add_named("p1", Op::Identity, &[x]).unwrap();
        let p2 = g.add_named("p2", Op::Relu, &[x]).unwrap();
        let y = g.add_named("y", Op::AccumAdd, &[p1, p2]).unwrap();
        let side = g.add_named("side", Op::Sigmoid, &[p1]).unwrap();
        g.mark_output(y);
        g.mark_output(side);
        let slabs = SlabAnalysis::analyze(&g);
        assert_eq!(slabs.member_of(p1), None);
        assert_eq!(slabs.member_of(p2), Some(y));
        assert!(slabs.is_head(y));
        // Profile stays consistent: p1 owns storage and is freed after its
        // last consumer (side); only the outputs y and side survive.
        let profile = profile_schedule(&g, &[x, p1, p2, y, side]).unwrap();
        assert_eq!(profile.final_bytes, 8 + 8);
    }

    #[test]
    fn slab_concat_counts_like_accum_add() {
        let mut g = Graph::new("slabcat");
        let x = g.add_input("x", shape(4));
        let p1 = g.add_named("p1", Op::Identity, &[x]).unwrap();
        let p2 = g.add_named("p2", Op::Relu, &[x]).unwrap();
        let y = g.add_named("y", Op::SlabConcat { axis: 3 }, &[p1, p2]).unwrap();
        g.mark_output(y);
        let profile = profile_schedule(&g, &[x, p1, p2, y]).unwrap();
        // x(4) + slab y(8) = 12 at p1; p2 frees x → 8.
        assert_eq!(profile.peak_bytes, 12);
        assert_eq!(profile.final_bytes, 8);
    }

    #[test]
    fn slab_head_dead_end_is_freed() {
        let mut g = Graph::new("deadslab");
        let x = g.add_input("x", shape(4));
        let p1 = g.add_named("p1", Op::Identity, &[x]).unwrap();
        let p2 = g.add_named("p2", Op::Relu, &[x]).unwrap();
        let _y = g.add_named("y", Op::AccumAdd, &[p1, p2]).unwrap();
        let out = g.add_named("out", Op::Identity, &[x]).unwrap();
        g.mark_output(out);
        let order = topo::kahn(&g);
        let profile = profile_schedule(&g, &order).unwrap();
        // The dead-end slab head releases the slab buffer it was charged for.
        assert_eq!(profile.final_bytes, 4); // only `out` remains
    }

    #[test]
    fn lower_bound_accounts_for_slabs() {
        let (g, ..) = accum_graph();
        // p1 executes with x (8) live and the slab (8) charged: LB ≥ 16.
        assert_eq!(peak_lower_bound(&g), 16);
    }

    #[test]
    fn cost_model_matches_tracker_on_random_orders() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = crate::random_dag::random_dag(
            &crate::random_dag::RandomDagConfig { nodes: 15, ..Default::default() },
            &mut rng,
        );
        for _ in 0..10 {
            let order = topo::random(&g, &mut rng);
            let p1 = peak_bytes(&g, &order).unwrap();
            let p2 = profile_schedule(&g, &order).unwrap().peak_bytes;
            assert_eq!(p1, p2);
        }
    }
}
