//! The dynamic-programming scheduler of §3.1 (Algorithm 1), built on a
//! zero-allocation-per-transition frontier engine.
//!
//! # How it works
//!
//! A recursive topological ordering repeatedly picks a node from the
//! *zero-indegree set* `z` (nodes whose predecessors have all been scheduled).
//! The paper's key insight (Figure 5) is that many partial schedules share the
//! same `z`, and `z` is a *complete signature* of a partial schedule: the set
//! of unscheduled nodes is exactly the upward closure of `z`, so two prefixes
//! with equal `z` have scheduled the same nodes — and therefore hold exactly
//! the same set of live tensors, i.e. the same running footprint `µ`. Only
//! the *peak* `µ_peak` differs between them, so keeping the single
//! minimum-peak state per signature preserves optimality (Theorem 1,
//! Appendix C).
//!
//! The scheduler sweeps search steps `i = 0..|V|`; step `i` holds one state
//! per distinct signature reachable after scheduling `i` nodes. Scheduling a
//! node `u` allocates its output, raises the peak, and frees every
//! predecessor whose last consumer has now run (Figure 6). The memo-table
//! update keeps the smaller `µ_peak` per signature (Algorithm 1, line 21).
//!
//! # The frontier engine
//!
//! Frontiers reach tens of thousands of signatures per step on real
//! irregularly wired networks, so the engine is built around three ideas:
//!
//! * **Interned signatures in step arenas.** A state's `z` and scheduled
//!   bitsets live as fixed-width word slices inside a per-step
//!   `StepArena` word pool — one allocation per step, not two `Vec<u64>`s
//!   per state. Transitions build the successor signature in a reused
//!   scratch buffer; words are copied into the pool only when a signature
//!   turns out to be new. The steady-state hot loop performs no heap
//!   allocation per transition.
//! * **Incremental Zobrist hashing.** Each state carries the 64-bit XOR of
//!   its members' [`ZobristTable`] keys, updated in O(1) as nodes enter and
//!   leave `z`. The memo table (`SigIndex`) is an open-addressing index
//!   keyed by that pre-computed hash, so lookups never rehash a signature's
//!   words; hash hits are confirmed by word comparison, keeping the memo
//!   exact under (astronomically rare) Zobrist collisions.
//! * **Arena compaction.** Once a step is expanded, its full signatures are
//!   no longer needed — only the `(parent, node, peak)` backtrack records
//!   survive (16 bytes per state), and the word pool is dropped. Peak search
//!   memory is O(frontier × words) instead of O(steps × states × words);
//!   [`ScheduleStats::peak_memo_bytes`] reports the measured high-water
//!   mark.
//!
//! The allocate/free/ready queries run through the cache-dense
//! [`TransitionTable`] the beam engine shares: "all predecessors scheduled"
//! and "last consumer ran" are word-level subset tests against one mask
//! pool, and successors whose only predecessor is the scheduled node join
//! `z` as one OR-ed mask, their Zobrist keys pre-folded per node.
//!
//! # Equal-peak tie-breaks
//!
//! Several prefixes of equal peak can reach one signature, and the one kept
//! decides which of several optimal orders the search returns. The merge
//! keeps the candidate with the smallest `(parent hash, parent z, node)` —
//! a key intrinsic to the candidate, never its arrival position. The
//! survivor is therefore a function of the signature set alone: expansion
//! order, sharding, and incumbent-bound pruning of losing states cannot
//! change it.
//!
//! Two §3.2 accelerations are integrated here rather than layered on top:
//!
//! * **Soft-budget pruning** — transitions whose `µ_peak` exceeds the budget
//!   τ are discarded; with τ ≥ µ* the optimum survives (Figure 8(a)).
//! * **Per-step timeout** — if one search step exceeds `T`, the run aborts
//!   with [`ScheduleError::Timeout`], the signal Algorithm 2's meta-search
//!   reacts to.
//!
//! Frontier expansion optionally fans out across threads (`threads > 1`):
//! workers bucket candidates by signature hash into shards, shards are
//! merged in parallel (a signature lands in exactly one shard), and the
//! shard arenas are concatenated. Because tie-breaks are intrinsic, the
//! result — peaks, representatives, and the reconstructed order — is
//! identical to a serial run even though the arena order differs.

use std::time::{Duration, Instant};

use serenity_ir::mem::{CostModel, FootprintTracker, TransitionTable};
use serenity_ir::set::wordset;
use serenity_ir::{Graph, GraphError, NodeId, NodeSet, ZobristTable};

use crate::backend::{BoundHandle, CompileContext};
use crate::{Schedule, ScheduleError, ScheduleStats};

/// Why a transition was discarded rather than merged into the next arena.
#[derive(Debug, Clone, Copy)]
enum Pruned {
    /// The peak exceeded the soft budget τ (§3.2 pruning).
    Budget,
    /// The peak provably loses to the shared
    /// [`IncumbentBound`](crate::backend::IncumbentBound) — branch-and-bound.
    Bound,
}

/// Configuration of a [`DpScheduler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpConfig {
    /// Soft budget τ in bytes: states whose peak exceeds it are pruned.
    /// `None` disables pruning (pure Algorithm 1).
    pub budget: Option<u64>,
    /// Per-search-step time limit `T` (Algorithm 2's hyper-parameter).
    pub step_timeout: Option<Duration>,
    /// Worker threads for frontier expansion (1 = serial).
    pub threads: usize,
    /// Upper bound on memoized states per step; exceeding it aborts with
    /// [`ScheduleError::Timeout`]. A safety valve for exploding frontiers.
    pub max_states: Option<usize>,
}

impl Default for DpConfig {
    fn default() -> Self {
        DpConfig { budget: None, step_timeout: None, threads: 1, max_states: None }
    }
}

/// Result of a successful DP run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpSolution {
    /// The footprint-optimal schedule (within the budget, if one was set).
    pub schedule: Schedule,
    /// Search-effort counters.
    pub stats: ScheduleStats,
}

/// The dynamic-programming scheduler (Algorithm 1 with §3.2 pruning).
///
/// # Example
///
/// ```
/// use serenity_core::dp::DpScheduler;
/// use serenity_ir::{Graph, topo, mem};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::new("g");
/// let a = g.add_opaque("a", 10, &[])?;
/// let b = g.add_opaque("b", 100, &[a])?;
/// let c = g.add_opaque("c", 10, &[a])?;
/// let d = g.add_opaque("d", 1, &[c])?;
/// let e = g.add_opaque("e", 10, &[b, d])?;
/// g.mark_output(e);
///
/// let solution = DpScheduler::new().schedule(&g)?;
/// let kahn_peak = mem::peak_bytes(&g, &topo::kahn(&g))?;
/// assert!(solution.schedule.peak_bytes <= kahn_peak);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DpScheduler {
    config: DpConfig,
}

/// Fixed-size per-state metadata; the signature words live in the arena
/// pool.
#[derive(Debug, Clone, Copy)]
struct StateMeta {
    /// Zobrist hash of the `z` signature (XOR of member keys).
    hash: u64,
    /// Running footprint µ — a function of the signature alone.
    mu: u64,
    /// Peak footprint µ_peak of the best prefix reaching this signature.
    peak: u64,
    /// Index of the parent state in the previous step's arena.
    parent: u32,
    /// Node scheduled to reach this state from the parent.
    node: NodeId,
}

/// One search step's states: fixed-size metadata plus a flat word pool
/// holding each state's `z` and scheduled bitsets back to back.
#[derive(Debug)]
struct StepArena {
    /// Words per bitset (⌈|V|/64⌉).
    words: usize,
    /// `2 * words` pool words per state: `z` first, then `scheduled`.
    pool: Vec<u64>,
    meta: Vec<StateMeta>,
}

impl StepArena {
    fn new(words: usize) -> Self {
        StepArena { words, pool: Vec::new(), meta: Vec::new() }
    }

    fn len(&self) -> usize {
        self.meta.len()
    }

    fn z(&self, i: usize) -> &[u64] {
        let at = i * 2 * self.words;
        &self.pool[at..at + self.words]
    }

    /// The state's `(z, scheduled)` word slices.
    fn sets(&self, i: usize) -> (&[u64], &[u64]) {
        let at = i * 2 * self.words;
        self.pool[at..at + 2 * self.words].split_at(self.words)
    }

    fn push(&mut self, z: &[u64], scheduled: &[u64], meta: StateMeta) -> u32 {
        debug_assert_eq!(z.len(), self.words);
        debug_assert_eq!(scheduled.len(), self.words);
        let at = self.meta.len() as u32;
        self.pool.extend_from_slice(z);
        self.pool.extend_from_slice(scheduled);
        self.meta.push(meta);
        at
    }

    /// Bytes of live signature storage held by this arena.
    fn pool_bytes(&self) -> u64 {
        (self.pool.len() * std::mem::size_of::<u64>()) as u64
    }

    /// Whether candidate `a` wins an equal-peak tie against `b`, both being
    /// transitions out of this (parent) arena: the smaller parent signature
    /// in `(hash, z)` order wins, then the smaller node. Distinct parents
    /// hold distinct signatures, so this is a total order on candidates.
    fn wins_tie(&self, a: &StateMeta, b: &StateMeta) -> bool {
        let (pa, pb) = (a.parent as usize, b.parent as usize);
        if pa == pb {
            return a.node < b.node;
        }
        let by_parent =
            self.meta[pa].hash.cmp(&self.meta[pb].hash).then_with(|| self.z(pa).cmp(self.z(pb)));
        by_parent.is_lt()
    }

    /// Shrinks the arena to its backtrack records, dropping the signature
    /// pool (the compaction step: completed steps only need the parent
    /// chain). The records get an exact-size allocation of their own; an
    /// in-place collect would keep the twice-as-large metadata buffer alive
    /// for the rest of the run.
    fn into_back_records(self) -> Vec<BackRec> {
        let mut recs = Vec::with_capacity(self.meta.len());
        recs.extend(self.meta.iter().map(|m| BackRec {
            parent: m.parent,
            node: m.node,
            peak: m.peak,
        }));
        recs
    }
}

/// Compact backtrack record of a completed step's state.
#[derive(Debug, Clone, Copy)]
struct BackRec {
    parent: u32,
    node: NodeId,
    /// Peak of the best prefix reaching the state; kept for diagnostics and
    /// monotonicity asserts, not needed for reconstruction.
    #[allow(dead_code)]
    peak: u64,
}

const EMPTY_SLOT: u32 = u32::MAX;

/// Open-addressing memo index over an arena's states, keyed by the
/// pre-computed Zobrist hash — lookups never rehash signature words.
#[derive(Debug)]
struct SigIndex {
    /// Power-of-two slot array holding arena indices.
    slots: Vec<u32>,
    mask: usize,
    len: usize,
}

impl SigIndex {
    fn with_capacity(states: usize) -> Self {
        let cap = (states.max(8) * 2).next_power_of_two();
        SigIndex { slots: vec![EMPTY_SLOT; cap], mask: cap - 1, len: 0 }
    }

    /// Re-inserts every arena state into a table twice the size (hashes are
    /// carried in the metadata, so no signature is rehashed).
    fn grow(&mut self, arena: &StepArena) {
        let cap = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(cap, EMPTY_SLOT);
        self.mask = cap - 1;
        for (i, meta) in arena.meta.iter().enumerate() {
            let mut pos = (meta.hash as usize) & self.mask;
            while self.slots[pos] != EMPTY_SLOT {
                pos = (pos + 1) & self.mask;
            }
            self.slots[pos] = i as u32;
        }
    }
}

/// Inserts a candidate into the next-step arena, keeping the minimum-peak
/// state per signature (Algorithm 1, lines 21-23). Equal peaks are settled
/// by [`StepArena::wins_tie`] against `frontier`, the arena the candidate
/// was expanded from, so the survivor does not depend on arrival order.
fn merge_candidate(
    arena: &mut StepArena,
    index: &mut SigIndex,
    frontier: &StepArena,
    z: &[u64],
    scheduled: &[u64],
    meta: StateMeta,
) {
    let mut pos = (meta.hash as usize) & index.mask;
    loop {
        let slot = index.slots[pos];
        if slot == EMPTY_SLOT {
            let at = arena.push(z, scheduled, meta);
            index.slots[pos] = at;
            index.len += 1;
            if index.len * 4 >= index.slots.len() * 3 {
                index.grow(arena);
            }
            return;
        }
        let at = slot as usize;
        // Hash hit: confirm content equality so Zobrist collisions cannot
        // merge distinct signatures (exactness over probabilism).
        if arena.meta[at].hash == meta.hash && arena.z(at) == z {
            let existing = &mut arena.meta[at];
            // Same signature ⇒ same scheduled set ⇒ same live set ⇒ same µ.
            debug_assert_eq!(existing.mu, meta.mu, "µ must be a function of the signature");
            if meta.peak < existing.peak
                || (meta.peak == existing.peak && frontier.wins_tie(&meta, existing))
            {
                *existing = meta;
            }
            return;
        }
        pos = (pos + 1) & index.mask;
    }
}

/// Which shard a signature hash belongs to.
///
/// Uses high hash bits: [`SigIndex`] probes from the *low* bits, so deriving
/// the shard from them too would leave every hash within a shard aliased to
/// the same initial probe residue, clustering the linear probes.
#[inline]
fn shard_of(hash: u64, shards: usize) -> usize {
    (hash >> 48) as usize & (shards - 1)
}

/// The largest running peak that can still win against the installed
/// incumbent bound (`u64::MAX` when no bound is installed — prunes nothing).
#[inline]
fn max_viable_of(bound: Option<&BoundHandle>) -> u64 {
    bound.map_or(u64::MAX, BoundHandle::max_viable_peak)
}

/// Per-run transition data: the shared cost table plus the Zobrist keys
/// successor hashes are folded from.
struct Moves {
    table: TransitionTable,
    zobrist: ZobristTable,
    /// Per node, the XOR of its auto-ready successors' Zobrist keys.
    auto_hash: Vec<u64>,
}

impl Moves {
    fn new(cost: &CostModel<'_>) -> Self {
        let table = cost.transition_table();
        let zobrist = ZobristTable::new(cost.graph().len());
        let auto_hash = cost
            .graph()
            .node_ids()
            .map(|u| match table.auto_ready(u) {
                u32::MAX => 0,
                off => zobrist.hash_words(table.mask(off)),
            })
            .collect();
        Moves { table, zobrist, auto_hash }
    }
}

const ROOT: u32 = u32::MAX;
/// Frontier size beyond which expansion is parallelized.
const PARALLEL_THRESHOLD: usize = 192;
/// Transitions between deadline checks.
const TIMEOUT_CHECK_MASK: u64 = 0x3FF;

impl DpScheduler {
    /// Creates a scheduler with the default configuration (no budget, no
    /// timeout, serial).
    pub fn new() -> Self {
        DpScheduler::default()
    }

    /// Creates a scheduler from an explicit configuration.
    pub fn with_config(config: DpConfig) -> Self {
        DpScheduler { config }
    }

    /// Sets the soft budget τ in bytes.
    pub fn budget(mut self, budget: u64) -> Self {
        self.config.budget = Some(budget);
        self
    }

    /// Sets the per-search-step time limit `T`.
    pub fn step_timeout(mut self, limit: Duration) -> Self {
        self.config.step_timeout = Some(limit);
        self
    }

    /// Sets the number of worker threads for frontier expansion.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "at least one thread is required");
        self.config.threads = threads;
        self
    }

    /// Caps the number of memoized states per step.
    pub fn max_states(mut self, max: usize) -> Self {
        self.config.max_states = Some(max);
        self
    }

    /// The current configuration.
    pub fn config(&self) -> &DpConfig {
        &self.config
    }

    /// Finds the minimum-peak-footprint schedule of `graph`.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::NoSolution`] if a soft budget is set and every
    ///   schedule exceeds it.
    /// * [`ScheduleError::Timeout`] if a search step exceeds the configured
    ///   step timeout or state cap.
    /// * [`ScheduleError::Graph`] if the graph is malformed.
    pub fn schedule(&self, graph: &Graph) -> Result<DpSolution, ScheduleError> {
        self.schedule_with_prefix(graph, &[])
    }

    /// Like [`DpScheduler::schedule`], but with the nodes of `prefix` pinned
    /// to the front of the schedule, in the given order.
    ///
    /// Divide-and-conquer uses this to pre-allocate the boundary tensor of a
    /// segment: the cut tensor is live before the segment starts, so its
    /// placeholder input must be "scheduled" at step 0 for every explored
    /// state to account for its bytes.
    ///
    /// # Errors
    ///
    /// As [`DpScheduler::schedule`]; additionally
    /// [`ScheduleError::Graph`]`(`[`GraphError::InvalidOrder`]`)` if `prefix`
    /// is not a schedulable sequence.
    pub fn schedule_with_prefix(
        &self,
        graph: &Graph,
        prefix: &[NodeId],
    ) -> Result<DpSolution, ScheduleError> {
        self.schedule_with_prefix_ctx(graph, prefix, &CompileContext::unconstrained())
    }

    /// Like [`DpScheduler::schedule_with_prefix`], but governed by a
    /// [`CompileContext`]: the context's cancellation flag and wall-clock
    /// deadline are polled inside the frontier-expansion inner loop (every
    /// few hundred transitions), aborting with
    /// [`ScheduleError::Cancelled`] / [`ScheduleError::DeadlineExceeded`].
    ///
    /// # Errors
    ///
    /// As [`DpScheduler::schedule_with_prefix`], plus the context aborts.
    pub fn schedule_with_prefix_ctx(
        &self,
        graph: &Graph,
        prefix: &[NodeId],
        ctx: &CompileContext,
    ) -> Result<DpSolution, ScheduleError> {
        let started = Instant::now();
        ctx.check()?;
        let n = graph.len();
        if n == 0 {
            return Ok(DpSolution {
                schedule: Schedule { order: Vec::new(), peak_bytes: 0 },
                stats: ScheduleStats::default(),
            });
        }

        let cost = CostModel::new(graph);
        let moves = Moves::new(&cost);
        let words = n.div_ceil(64);
        let mut frontier = self.root_arena(graph, &cost, &moves.zobrist, words, prefix)?;
        if let Some(budget) = self.config.budget {
            if frontier.meta[0].peak > budget {
                return Err(ScheduleError::NoSolution { budget });
            }
        }
        if let Some(bound) = ctx.bound() {
            if frontier.meta[0].peak > bound.max_viable_peak() {
                return Err(ScheduleError::BoundBeaten { bound: bound.beaten_by() });
            }
        }

        let mut stats = ScheduleStats { states: 1, ..ScheduleStats::default() };
        stats.peak_memo_bytes = frontier.pool_bytes();
        // Compacted backtrack records of completed steps; index k holds the
        // arena of step k (after k transitions past the prefix).
        let mut back: Vec<Vec<BackRec>> = Vec::new();
        let remaining = n - prefix.len();

        for step in 0..remaining {
            let step_started = Instant::now();
            let next = if self.config.threads > 1 && frontier.len() >= PARALLEL_THRESHOLD {
                self.expand_parallel(&moves, &frontier, step, step_started, &mut stats, ctx)?
            } else {
                self.expand_serial(&moves, &frontier, step, step_started, &mut stats, ctx)?
            };
            if next.len() == 0 {
                let budget = self.config.budget.unwrap_or(u64::MAX);
                // Discriminate the two pruning regimes: when the incumbent
                // bound is strictly tighter than τ, every budget-pruned state
                // was also bound-prunable, so the emptiness is a race loss —
                // without the bound a τ-feasible schedule may still exist.
                // Sound under a monotonically tightening bound.
                if let Some(bound) = ctx.bound() {
                    if bound.max_viable_peak() < budget {
                        return Err(ScheduleError::BoundBeaten { bound: bound.beaten_by() });
                    }
                }
                return Err(ScheduleError::NoSolution { budget });
            }
            stats.states += next.len() as u64;
            stats.steps = step + 1;
            stats.peak_memo_bytes =
                stats.peak_memo_bytes.max(frontier.pool_bytes() + next.pool_bytes());
            ctx.check_memory_budget(stats.peak_memo_bytes)?;
            // Compaction: the expanded step only needs its parent chain.
            back.push(frontier.into_back_records());
            frontier = next;
        }

        // All nodes scheduled: the final arena holds exactly one state with
        // an empty signature (Algorithm 1, line 27).
        debug_assert_eq!(frontier.len(), 1, "final signature must be unique");
        let best = frontier.meta.iter().min_by_key(|m| m.peak).expect("final arena is non-empty");

        let mut order = Vec::with_capacity(n);
        if remaining > 0 {
            order.push(best.node);
            let mut parent = best.parent;
            // Walk levels remaining-1 .. 1; back[0] is the root (dummy node).
            for recs in back[1..].iter().rev() {
                let rec = recs[parent as usize];
                order.push(rec.node);
                parent = rec.parent;
            }
        }
        order.extend(prefix.iter().rev());
        order.reverse();

        stats.duration = started.elapsed();
        let schedule = Schedule { order, peak_bytes: best.peak };
        debug_assert_eq!(
            serenity_ir::mem::peak_bytes(graph, &schedule.order).expect("valid order"),
            schedule.peak_bytes,
            "DP peak accounting must agree with the reference profiler"
        );
        Ok(DpSolution { schedule, stats })
    }

    fn root_arena(
        &self,
        graph: &Graph,
        cost: &CostModel<'_>,
        zobrist: &ZobristTable,
        words: usize,
        prefix: &[NodeId],
    ) -> Result<StepArena, ScheduleError> {
        let mut scheduled = NodeSet::with_capacity(graph.len());
        let mut tracker = FootprintTracker::new(graph);
        for (i, &u) in prefix.iter().enumerate() {
            if graph.get(u).is_none() {
                return Err(GraphError::UnknownNode(u).into());
            }
            let ready = cost.ready(&scheduled, u);
            if scheduled.contains(u) || !ready {
                return Err(GraphError::InvalidOrder {
                    detail: format!("prefix node {u} at position {i} is not schedulable"),
                }
                .into());
            }
            scheduled.insert(u);
            tracker.schedule(u);
        }
        let mut z = NodeSet::with_capacity(graph.len());
        for u in graph.node_ids() {
            if !scheduled.contains(u) && cost.ready(&scheduled, u) {
                z.insert(u);
            }
        }
        let mut arena = StepArena::new(words);
        let mut z_words = vec![0u64; words];
        let mut s_words = vec![0u64; words];
        z_words[..z.as_words().len()].copy_from_slice(z.as_words());
        s_words[..scheduled.as_words().len()].copy_from_slice(scheduled.as_words());
        arena.push(
            &z_words,
            &s_words,
            StateMeta {
                hash: zobrist.hash_set(&z),
                mu: tracker.current_bytes(),
                peak: tracker.peak_bytes(),
                parent: ROOT,
                node: NodeId::from_index(0),
            },
        );
        Ok(arena)
    }

    /// Applies the Figure 6 step for every `(state, u ∈ z)` pair of the
    /// frontier, merging candidates into the next arena as they appear.
    fn expand_serial(
        &self,
        moves: &Moves,
        frontier: &StepArena,
        step: usize,
        step_started: Instant,
        stats: &mut ScheduleStats,
        ctx: &CompileContext,
    ) -> Result<StepArena, ScheduleError> {
        let words = frontier.words;
        let mut arena = StepArena::new(words);
        arena.pool.reserve(frontier.pool.len());
        let mut index = SigIndex::with_capacity(frontier.len());
        let mut scratch = vec![0u64; 2 * words];
        let bound = ctx.bound();
        let mut max_viable = max_viable_of(bound);
        let mut transitions = 0u64;
        let mut pruned = 0u64;
        let mut bound_pruned = 0u64;
        for si in 0..frontier.len() {
            let (z, scheduled) = frontier.sets(si);
            let meta = frontier.meta[si];
            for u in wordset::iter(z) {
                transitions += 1;
                if transitions & TIMEOUT_CHECK_MASK == 0 {
                    self.check_limits(step, step_started, arena.len(), ctx)?;
                    // The bound only tightens, so refreshing at the check
                    // cadence is sound; a stale value merely prunes less.
                    max_viable = max_viable_of(bound);
                }
                match self.transition(
                    moves,
                    z,
                    scheduled,
                    &meta,
                    si as u32,
                    u,
                    max_viable,
                    &mut scratch,
                ) {
                    Ok(candidate) => {
                        let (cz, cs) = scratch.split_at(words);
                        merge_candidate(&mut arena, &mut index, frontier, cz, cs, candidate);
                    }
                    Err(Pruned::Budget) => pruned += 1,
                    Err(Pruned::Bound) => bound_pruned += 1,
                }
            }
        }
        self.check_limits(step, step_started, arena.len(), ctx)?;
        stats.transitions += transitions;
        stats.pruned += pruned;
        stats.bound_pruned += bound_pruned;
        Ok(arena)
    }

    /// Parallel expansion with a sharded merge: workers bucket candidates by
    /// signature hash, each shard is merged independently (a signature lands
    /// in exactly one shard), and the shard arenas are concatenated. The
    /// merge keeps the same survivor per signature as a serial sweep because
    /// tie-breaks are intrinsic ([`StepArena::wins_tie`]); only the arena
    /// order differs, and no output depends on it.
    fn expand_parallel(
        &self,
        moves: &Moves,
        frontier: &StepArena,
        step: usize,
        step_started: Instant,
        stats: &mut ScheduleStats,
        ctx: &CompileContext,
    ) -> Result<StepArena, ScheduleError> {
        let words = frontier.words;
        let threads = self.config.threads.min(frontier.len());
        let shards = threads.next_power_of_two();
        let chunk_size = frontier.len().div_ceil(threads);

        // Phase 1: generate candidates, bucketed by hash shard. Blocks are
        // plain `StepArena`s holding the worker's candidates (duplicates and
        // all) in transition order; only phase 2 deduplicates.
        type ChunkResult = Result<(Vec<StepArena>, u64, u64, u64), ScheduleError>;
        let results: Vec<ChunkResult> = std::thread::scope(|scope| {
            let frontier = &frontier;
            let handles: Vec<_> = (0..threads)
                .map(|ci| {
                    let base = ci * chunk_size;
                    let end = ((ci + 1) * chunk_size).min(frontier.len());
                    scope.spawn(move || -> ChunkResult {
                        let mut blocks: Vec<StepArena> =
                            (0..shards).map(|_| StepArena::new(words)).collect();
                        let mut scratch = vec![0u64; 2 * words];
                        let bound = ctx.bound();
                        let mut max_viable = max_viable_of(bound);
                        let mut transitions = 0u64;
                        let mut pruned = 0u64;
                        let mut bound_pruned = 0u64;
                        let mut emitted = 0usize;
                        for si in base..end {
                            let (z, scheduled) = frontier.sets(si);
                            let meta = frontier.meta[si];
                            for u in wordset::iter(z) {
                                transitions += 1;
                                if transitions & TIMEOUT_CHECK_MASK == 0 {
                                    self.check_limits(step, step_started, emitted, ctx)?;
                                    max_viable = max_viable_of(bound);
                                }
                                match self.transition(
                                    moves,
                                    z,
                                    scheduled,
                                    &meta,
                                    si as u32,
                                    u,
                                    max_viable,
                                    &mut scratch,
                                ) {
                                    Ok(candidate) => {
                                        let shard = shard_of(candidate.hash, shards);
                                        let (cz, cs) = scratch.split_at(words);
                                        blocks[shard].push(cz, cs, candidate);
                                        emitted += 1;
                                    }
                                    Err(Pruned::Budget) => pruned += 1,
                                    Err(Pruned::Bound) => bound_pruned += 1,
                                }
                            }
                        }
                        Ok((blocks, transitions, pruned, bound_pruned))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker does not panic")).collect()
        });

        let mut worker_blocks: Vec<Vec<StepArena>> = Vec::with_capacity(threads);
        let mut candidate_bytes = 0u64;
        for result in results {
            let (blocks, transitions, pruned, bound_pruned) = result?;
            stats.transitions += transitions;
            stats.pruned += pruned;
            stats.bound_pruned += bound_pruned;
            candidate_bytes += blocks.iter().map(StepArena::pool_bytes).sum::<u64>();
            worker_blocks.push(blocks);
        }
        ctx.check()?;

        // Phase 2: merge each shard independently.
        let shard_arenas: Vec<StepArena> = std::thread::scope(|scope| {
            let worker_blocks = &worker_blocks;
            let handles: Vec<_> = (0..shards)
                .map(|shard| {
                    scope.spawn(move || {
                        let total: usize = worker_blocks.iter().map(|b| b[shard].meta.len()).sum();
                        let mut arena = StepArena::new(words);
                        let mut index = SigIndex::with_capacity(total / 2 + 1);
                        for blocks in worker_blocks {
                            let block = &blocks[shard];
                            for (i, &meta) in block.meta.iter().enumerate() {
                                let (z, scheduled) = block.sets(i);
                                merge_candidate(
                                    &mut arena, &mut index, frontier, z, scheduled, meta,
                                );
                            }
                        }
                        arena
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("merger does not panic")).collect()
        });

        // Phase 3: concatenate the shard arenas.
        let states: usize = shard_arenas.iter().map(StepArena::len).sum();
        let mut merged = StepArena::new(words);
        merged.pool.reserve(states * 2 * words);
        merged.meta.reserve(states);
        for arena in &shard_arenas {
            merged.pool.extend_from_slice(&arena.pool);
            merged.meta.extend_from_slice(&arena.meta);
        }
        // High-water mark of live signature storage: the concatenated arena
        // is built while the frontier, the candidate blocks, and the shard
        // arenas are all still allocated.
        let shard_bytes = shard_arenas.iter().map(StepArena::pool_bytes).sum::<u64>();
        stats.peak_memo_bytes = stats
            .peak_memo_bytes
            .max(frontier.pool_bytes() + candidate_bytes + shard_bytes + merged.pool_bytes());
        ctx.check_memory_budget(stats.peak_memo_bytes)?;
        self.check_limits(step, step_started, merged.len(), ctx)?;
        Ok(merged)
    }

    /// Applies the Figure 6 step through the shared transition table:
    /// allocate `u`, update the peak, free dead predecessors, build the
    /// successor signature in `scratch` (`z'` then `scheduled'`), and fold
    /// `u` and the newly ready successors into the Zobrist hash. Returns the
    /// prune kind when the transition is discarded: running peaks are
    /// monotone along a schedule path, so a state whose peak already exceeds
    /// the soft budget (or provably loses to the incumbent bound's
    /// `max_viable` peak) can never recover.
    #[allow(clippy::too_many_arguments)]
    fn transition(
        &self,
        moves: &Moves,
        z: &[u64],
        scheduled: &[u64],
        meta: &StateMeta,
        parent: u32,
        u: NodeId,
        max_viable: u64,
        scratch: &mut [u64],
    ) -> Result<StateMeta, Pruned> {
        let table = &moves.table;
        let mu_after_alloc = meta.mu + table.alloc_bytes(scheduled, u);
        let peak = meta.peak.max(mu_after_alloc);
        if let Some(budget) = self.config.budget {
            if peak > budget {
                return Err(Pruned::Budget);
            }
        }
        if peak > max_viable {
            return Err(Pruned::Bound);
        }
        let mu = mu_after_alloc - table.free_bytes(scheduled, u);
        let words = z.len();
        let (sz, ss) = scratch.split_at_mut(words);
        sz.copy_from_slice(z);
        ss.copy_from_slice(scheduled);
        wordset::remove(sz, u);
        wordset::insert(ss, u);
        let mut hash = meta.hash ^ moves.zobrist.key(u) ^ moves.auto_hash[u.index()];
        let auto = table.auto_ready(u);
        if auto != u32::MAX {
            wordset::union_into(sz, table.mask(auto));
        }
        for &(s, off) in table.succ_edges(u) {
            if table.mask_ready(ss, off) {
                wordset::insert(sz, s);
                hash ^= moves.zobrist.key(s);
            }
        }
        Ok(StateMeta { hash, mu, peak, parent, node: u })
    }

    fn check_limits(
        &self,
        step: usize,
        step_started: Instant,
        states: usize,
        ctx: &CompileContext,
    ) -> Result<(), ScheduleError> {
        ctx.check()?;
        if let Some(limit) = self.config.step_timeout {
            let elapsed = step_started.elapsed();
            if elapsed > limit {
                return Err(ScheduleError::Timeout { step, elapsed });
            }
        }
        if let Some(max) = self.config.max_states {
            if states > max {
                return Err(ScheduleError::Timeout { step, elapsed: step_started.elapsed() });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenity_ir::{mem, topo};

    fn branchy() -> Graph {
        // A graph where scheduling order matters: finishing the small branch
        // first retires its tensors before the big branch allocates.
        let mut g = Graph::new("branchy");
        let a = g.add_opaque("a", 10, &[]).unwrap();
        let s1 = g.add_opaque("s1", 10, &[a]).unwrap();
        let s2 = g.add_opaque("s2", 2, &[s1]).unwrap();
        let b1 = g.add_opaque("b1", 100, &[a]).unwrap();
        let sink = g.add_opaque("sink", 10, &[s2, b1]).unwrap();
        g.mark_output(sink);
        g
    }

    #[test]
    fn beats_or_matches_kahn() {
        let g = branchy();
        let dp = DpScheduler::new().schedule(&g).unwrap();
        let kahn_peak = mem::peak_bytes(&g, &topo::kahn(&g)).unwrap();
        assert!(dp.schedule.peak_bytes <= kahn_peak);
        assert!(topo::is_order(&g, &dp.schedule.order));
    }

    #[test]
    fn single_node_graph() {
        let mut g = Graph::new("one");
        g.add_opaque("only", 7, &[]).unwrap();
        let dp = DpScheduler::new().schedule(&g).unwrap();
        assert_eq!(dp.schedule.order.len(), 1);
        assert_eq!(dp.schedule.peak_bytes, 7);
    }

    #[test]
    fn empty_graph_is_trivial() {
        let g = Graph::new("empty");
        let dp = DpScheduler::new().schedule(&g).unwrap();
        assert!(dp.schedule.is_empty());
    }

    #[test]
    fn chain_is_deterministic() {
        let mut g = Graph::new("chain");
        let a = g.add_opaque("a", 1, &[]).unwrap();
        let b = g.add_opaque("b", 2, &[a]).unwrap();
        let c = g.add_opaque("c", 3, &[b]).unwrap();
        g.mark_output(c);
        let dp = DpScheduler::new().schedule(&g).unwrap();
        assert_eq!(dp.schedule.order, vec![a, b, c]);
        assert_eq!(dp.schedule.peak_bytes, 5); // b(2)+c(3), a freed when b ran... a(1)+b(2)=3, then b(2)+c(3)=5
    }

    #[test]
    fn budget_at_optimum_succeeds() {
        let g = branchy();
        let optimal = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
        let tight = DpScheduler::new().budget(optimal).schedule(&g).unwrap();
        assert_eq!(tight.schedule.peak_bytes, optimal);
    }

    #[test]
    fn budget_below_optimum_fails() {
        let g = branchy();
        let optimal = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
        let err = DpScheduler::new().budget(optimal - 1).schedule(&g).unwrap_err();
        assert!(matches!(err, ScheduleError::NoSolution { .. }));
    }

    #[test]
    fn pruning_reduces_transitions() {
        let g = serenity_ir::random_dag::independent_branches(8, 10);
        let free = DpScheduler::new().schedule(&g).unwrap();
        let tight = DpScheduler::new().budget(free.schedule.peak_bytes).schedule(&g).unwrap();
        assert!(tight.stats.transitions <= free.stats.transitions);
        assert!(tight.stats.pruned > 0 || tight.stats.transitions == free.stats.transitions);
    }

    #[test]
    fn prefix_is_respected() {
        let g = branchy();
        let b1 = g.node_ids().find(|&id| g.node(id).name == "b1").unwrap();
        let a = g.node_ids().find(|&id| g.node(id).name == "a").unwrap();
        let dp = DpScheduler::new().schedule_with_prefix(&g, &[a, b1]).unwrap();
        assert_eq!(&dp.schedule.order[..2], &[a, b1]);
        assert!(topo::is_order(&g, &dp.schedule.order));
    }

    #[test]
    fn invalid_prefix_is_rejected() {
        let g = branchy();
        let sink = *g.outputs().first().unwrap();
        let err = DpScheduler::new().schedule_with_prefix(&g, &[sink]).unwrap_err();
        assert!(matches!(err, ScheduleError::Graph(GraphError::InvalidOrder { .. })));
    }

    #[test]
    fn state_cap_triggers_timeout() {
        let g = serenity_ir::random_dag::independent_branches(16, 10);
        let err = DpScheduler::new().max_states(4).schedule(&g).unwrap_err();
        assert!(matches!(err, ScheduleError::Timeout { .. }));
    }

    #[test]
    fn parallel_matches_serial() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for _ in 0..5 {
            let config = serenity_ir::random_dag::RandomDagConfig {
                nodes: 18,
                edge_prob: 0.15,
                ..Default::default()
            };
            let g = serenity_ir::random_dag::random_dag(&config, &mut rng);
            let serial = DpScheduler::new().schedule(&g).unwrap();
            let parallel = DpScheduler::new().threads(4).schedule(&g).unwrap();
            assert_eq!(serial.schedule.peak_bytes, parallel.schedule.peak_bytes);
            // Equal-peak ties are broken by a key intrinsic to each
            // candidate, so parallel runs reconstruct the *same* order, not
            // just the same peak, whatever order the shards merge in.
            assert_eq!(serial.schedule.order, parallel.schedule.order);
        }
    }

    #[test]
    fn sharded_merge_kicks_in_and_is_serial_equal() {
        // 12 independent branches: the frontier peaks at C(12,6) = 924
        // states, well past PARALLEL_THRESHOLD, so the sharded path runs.
        let g = serenity_ir::random_dag::independent_branches(12, 10);
        let serial = DpScheduler::new().schedule(&g).unwrap();
        let parallel = DpScheduler::new().threads(4).schedule(&g).unwrap();
        assert_eq!(serial.schedule.order, parallel.schedule.order);
        assert_eq!(serial.schedule.peak_bytes, parallel.schedule.peak_bytes);
        assert_eq!(serial.stats.states, parallel.stats.states);
        assert_eq!(serial.stats.transitions, parallel.stats.transitions);
    }

    #[test]
    fn stats_are_populated() {
        let g = branchy();
        let dp = DpScheduler::new().schedule(&g).unwrap();
        assert_eq!(dp.stats.steps, g.len());
        assert!(dp.stats.transitions >= g.len() as u64);
        assert!(dp.stats.states >= g.len() as u64);
        assert!(dp.stats.peak_memo_bytes > 0);
    }

    /// `depth` stacked diamonds: a deep graph with a tiny frontier, the
    /// worst case for full-history retention.
    fn chain_of_diamonds(depth: usize) -> Graph {
        let mut g = Graph::new("diamonds");
        let mut prev = g.add_opaque("s", 8, &[]).unwrap();
        for i in 0..depth {
            let l = g.add_opaque(format!("l{i}"), 8, &[prev]).unwrap();
            let r = g.add_opaque(format!("r{i}"), 8, &[prev]).unwrap();
            prev = g.add_opaque(format!("j{i}"), 8, &[l, r]).unwrap();
        }
        g.mark_output(prev);
        g
    }

    #[test]
    fn completed_steps_do_not_retain_signatures() {
        let g = chain_of_diamonds(100);
        let dp = DpScheduler::new().schedule(&g).unwrap();
        let words = g.len().div_ceil(64) as u64;
        // Retaining every memoized state's two bitsets until reconstruction
        // would hold `states × 2 × words × 8` bytes at once; compaction keeps
        // only the live frontier's signatures (≤ 3 states per step here plus
        // the step being built), far below that.
        let full_retention = dp.stats.states * 2 * words * 8;
        assert!(
            dp.stats.peak_memo_bytes <= full_retention / 10,
            "peak memo {} vs full retention {}",
            dp.stats.peak_memo_bytes,
            full_retention
        );
        assert!(topo::is_order(&g, &dp.schedule.order));
    }

    #[test]
    fn weak_bound_seed_preserves_the_optimum() {
        use crate::backend::{BoundHandle, CompileContext};
        // A tie-losing seed at any peak ≥ µ* must leave the winning schedule
        // reachable: bound-pruned runs return the same order and peak.
        let g = branchy();
        let free = DpScheduler::new().schedule(&g).unwrap();
        let ctx = CompileContext::unconstrained()
            .with_bound(Some(BoundHandle::seeded_weak(free.schedule.peak_bytes)));
        let bounded = DpScheduler::new().schedule_with_prefix_ctx(&g, &[], &ctx).unwrap();
        assert_eq!(bounded.schedule.order, free.schedule.order);
        assert_eq!(bounded.schedule.peak_bytes, free.schedule.peak_bytes);
    }

    #[test]
    fn bound_pruning_cuts_transitions_at_identical_peaks() {
        use crate::backend::{BoundHandle, CompileContext};
        // branchy() has a losing path (big branch first) whose running peak
        // exceeds µ*, so a weak seed at µ* must prune it mid-schedule.
        let g = branchy();
        let free = DpScheduler::new().schedule(&g).unwrap();
        let ctx = CompileContext::unconstrained()
            .with_bound(Some(BoundHandle::seeded_weak(free.schedule.peak_bytes)));
        let bounded = DpScheduler::new().schedule_with_prefix_ctx(&g, &[], &ctx).unwrap();
        assert_eq!(bounded.schedule.peak_bytes, free.schedule.peak_bytes);
        assert_eq!(bounded.schedule.order, free.schedule.order);
        assert!(bounded.stats.bound_pruned > 0, "the losing branch must trip branch-and-bound");
        assert!(bounded.stats.transitions < free.stats.transitions);
        assert_eq!(bounded.stats.pruned, 0, "no τ budget was set");
    }

    #[test]
    fn bound_pruned_random_dags_keep_the_unpruned_peak() {
        use crate::backend::{BoundHandle, CompileContext};
        use rand::SeedableRng;
        // Property over random DAGs: seeding the bound with the optimal peak
        // (tie-losing) never changes the result, only the effort.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        for _ in 0..8 {
            let config = serenity_ir::random_dag::RandomDagConfig {
                nodes: 16,
                edge_prob: 0.2,
                ..Default::default()
            };
            let g = serenity_ir::random_dag::random_dag(&config, &mut rng);
            let free = DpScheduler::new().schedule(&g).unwrap();
            let ctx = CompileContext::unconstrained()
                .with_bound(Some(BoundHandle::seeded_weak(free.schedule.peak_bytes)));
            let bounded = DpScheduler::new().schedule_with_prefix_ctx(&g, &[], &ctx).unwrap();
            assert_eq!(bounded.schedule.order, free.schedule.order);
            assert_eq!(bounded.schedule.peak_bytes, free.schedule.peak_bytes);
            assert!(bounded.stats.transitions <= free.stats.transitions);
        }
    }

    #[test]
    fn bound_pruning_never_flips_equal_peak_tie_breaks() {
        use crate::backend::{BoundHandle, CompileContext};
        use rand::SeedableRng;
        // Regression: when equal-peak merge ties were broken by arrival
        // order, pruning a signature's first (high-peak) arrival shifted the
        // survivor's arena slot and flipped downstream ties, so a bounded
        // run returned a *different* equal-peak schedule than the unbounded
        // one. These exact DAGs flipped then. Ties now compare the intrinsic
        // `(parent hash, parent z, node)` key, which pruning a losing state
        // cannot change.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        for _ in 0..4 {
            let config = serenity_ir::random_dag::RandomDagConfig {
                nodes: 18,
                edge_prob: 0.2,
                ..Default::default()
            };
            let g = serenity_ir::random_dag::random_dag(&config, &mut rng);
            let free = DpScheduler::new().schedule(&g).unwrap();
            // A later-priority setter at µ* — exactly what a racing portfolio
            // member publishes — so ties survive and only worse states prune.
            let ctx = CompileContext::unconstrained()
                .with_bound(Some(BoundHandle::seeded_weak(free.schedule.peak_bytes)));
            let bounded = DpScheduler::new().schedule_with_prefix_ctx(&g, &[], &ctx).unwrap();
            assert_eq!(bounded.schedule.order, free.schedule.order);
            assert_eq!(bounded.schedule.peak_bytes, free.schedule.peak_bytes);
        }
    }

    #[test]
    fn strict_bound_at_optimum_is_beaten_not_no_solution() {
        use crate::backend::{BoundHandle, CompileContext};
        let g = branchy();
        let optimal = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
        // A tie-winning incumbent at µ*: even the optimum is a loss, and the
        // emptiness must be reported as a race loss, never NoSolution.
        let ctx = CompileContext::unconstrained()
            .with_bound(Some(BoundHandle::seeded_incumbent(optimal)));
        let err = DpScheduler::new().schedule_with_prefix_ctx(&g, &[], &ctx).unwrap_err();
        assert_eq!(err, ScheduleError::BoundBeaten { bound: optimal });
    }

    #[test]
    fn budget_tighter_than_bound_still_reports_no_solution() {
        use crate::backend::{BoundHandle, CompileContext};
        let g = branchy();
        let optimal = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
        // τ below µ* with a loose bound: the emptiness belongs to the budget.
        let ctx = CompileContext::unconstrained()
            .with_bound(Some(BoundHandle::seeded_weak(optimal + 1000)));
        let err = DpScheduler::new()
            .budget(optimal - 1)
            .schedule_with_prefix_ctx(&g, &[], &ctx)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::NoSolution { .. }));
    }

    #[test]
    fn equal_peak_survivor_is_independent_of_arrival_order() {
        // Three parents, two sharing a hash so the tie falls through to
        // their z words; every candidate reaches the same signature.
        let mut frontier = StepArena::new(1);
        for (z, hash) in [(0b0011u64, 7u64), (0b0110, 3), (0b0101, 3)] {
            let meta =
                StateMeta { hash, mu: 0, peak: 0, parent: ROOT, node: NodeId::from_index(0) };
            frontier.push(&[z], &[0], meta);
        }
        let candidate = |parent: u32, node: usize, peak: u64| StateMeta {
            hash: 99,
            mu: 5,
            peak,
            parent,
            node: NodeId::from_index(node),
        };
        let survivor = |candidates: &[StateMeta]| {
            let mut forward = StepArena::new(1);
            let mut index = SigIndex::with_capacity(1);
            for &c in candidates {
                merge_candidate(&mut forward, &mut index, &frontier, &[0b1000], &[0b0111], c);
            }
            let mut reversed = StepArena::new(1);
            let mut index = SigIndex::with_capacity(1);
            for &c in candidates.iter().rev() {
                merge_candidate(&mut reversed, &mut index, &frontier, &[0b1000], &[0b0111], c);
            }
            assert_eq!((forward.len(), reversed.len()), (1, 1));
            let (f, r) = (forward.meta[0], reversed.meta[0]);
            assert_eq!((f.parent, f.node, f.peak), (r.parent, r.node, r.peak));
            (f.parent, f.node.index(), f.peak)
        };
        let tied = [
            candidate(0, 2, 10),
            candidate(1, 2, 10),
            candidate(2, 3, 10),
            candidate(2, 0, 10),
            candidate(1, 1, 10),
        ];
        // Smallest parent (hash, z) is parent 2 (hash 3, z 0b0101); then
        // its smaller node.
        assert_eq!(survivor(&tied), (2, 0, 10));
        // A strictly lower peak beats every tie-break.
        let mut lower = tied.to_vec();
        lower.push(candidate(0, 3, 9));
        assert_eq!(survivor(&lower), (0, 3, 9));
    }

    #[test]
    fn parallel_bound_pruning_matches_serial() {
        use crate::backend::{BoundHandle, CompileContext};
        // Six two-node braids (entry → aᵢ → bᵢ → exit) with skewed sizes: the
        // frontier reaches 3⁶ = 729 states (past PARALLEL_THRESHOLD) and
        // orders that delay freeing the big aᵢ overshoot µ*, so the sharded
        // path runs with live bound pruning. A static seed makes the prune
        // decisions deterministic, so counts must match serial exactly, at
        // every thread count and with or without the bound.
        let mut g = Graph::new("braided");
        let entry = g.add_opaque("entry", 4, &[]).unwrap();
        let tails: Vec<_> = (0..6)
            .map(|i| {
                let a = g.add_opaque(format!("a{i}"), 10 + 17 * i as u64, &[entry]).unwrap();
                g.add_opaque(format!("b{i}"), 3 + 2 * i as u64, &[a]).unwrap()
            })
            .collect();
        let exit = g.add_opaque("exit", 2, &tails).unwrap();
        g.mark_output(exit);

        let free = DpScheduler::new().schedule(&g).unwrap();
        let bounded = CompileContext::unconstrained()
            .with_bound(Some(BoundHandle::seeded_weak(free.schedule.peak_bytes)));
        for ctx in [CompileContext::unconstrained(), bounded] {
            let serial = DpScheduler::new().schedule_with_prefix_ctx(&g, &[], &ctx).unwrap();
            assert_eq!(serial.schedule, free.schedule);
            assert_eq!(serial.stats.bound_pruned > 0, ctx.bound().is_some());
            for threads in [2, 4, 8] {
                let parallel =
                    DpScheduler::new().threads(threads).schedule_with_prefix_ctx(&g, &[], &ctx);
                let parallel = parallel.unwrap();
                assert_eq!(serial.schedule, parallel.schedule, "{threads} threads");
                assert_eq!(serial.stats.states, parallel.stats.states);
                assert_eq!(serial.stats.transitions, parallel.stats.transitions);
                assert_eq!(serial.stats.bound_pruned, parallel.stats.bound_pruned);
            }
        }
    }

    #[test]
    fn memo_high_water_mark_is_depth_independent() {
        // Doubling the depth multiplies the word width by ~2 (more nodes)
        // but must not multiply the high-water mark by the depth factor:
        // the frontier stays O(1) states wide.
        let shallow = DpScheduler::new().schedule(&chain_of_diamonds(60)).unwrap();
        let deep = DpScheduler::new().schedule(&chain_of_diamonds(120)).unwrap();
        assert!(
            deep.stats.peak_memo_bytes <= shallow.stats.peak_memo_bytes * 3,
            "deep {} vs shallow {}",
            deep.stats.peak_memo_bytes,
            shallow.stats.peak_memo_bytes
        );
    }
}
