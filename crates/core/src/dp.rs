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
//! irregularly wired networks, so the engine is built around four ideas:
//!
//! * **Fixed-width states.** Graphs of at most 128 nodes — every
//!   divide-and-conquer segment of the benchmark workloads — take a
//!   const-generic path (dispatch on ⌈|V|/64⌉, as in the beam): a state's
//!   `z` and scheduled sets are `[u64; W]` arrays (W = 1, 2) held inline
//!   next to its metadata, and transitions read the masks of the
//!   [`FixedTable`] view of the shared [`TransitionTable`], so the hot loop
//!   indexes no word pool and every set operation unrolls to `W` words.
//!   Larger graphs keep each step's sets in one flat word pool instead;
//!   that pooled path is also the reference the fixed path is
//!   differentially tested against. The search itself — merge rule,
//!   pruning, limits, sharding, reconstruction — is written once against
//!   the `Arena` trait both layouts implement, and both expand the same
//!   candidates in the same order, so they return bit-identical orders,
//!   peaks and counters.
//! * **No allocation per transition.** Transitions build the successor
//!   signature in a reused scratch value; it is copied into the next step's
//!   arena only when the signature turns out to be new.
//! * **Incremental Zobrist hashing.** Each state carries the 64-bit XOR of
//!   its members' [`ZobristTable`] keys, updated in O(1) as nodes enter and
//!   leave `z`. The memo table (`SigIndex`) is an open-addressing index
//!   keyed by that pre-computed hash, so lookups never rehash a signature's
//!   words; hash hits are confirmed by word comparison, keeping the memo
//!   exact under (astronomically rare) Zobrist collisions.
//! * **Arena compaction.** Once a step is expanded, its full signatures are
//!   no longer needed — only the `(parent, node)` backtrack records survive
//!   (8 bytes per state), and the arena is dropped. Peak search memory is
//!   O(frontier × words + states × 8 B) instead of O(states × words);
//!   [`ScheduleStats::peak_memo_bytes`] reports the measured high-water
//!   mark of everything the search holds — live arenas, the memo index,
//!   parallel candidate blocks, and the backtrack records — and the
//!   [`CompileContext`] memory budget is enforced against that figure.
//!
//! The allocate/free/ready queries are word-level subset tests against the
//! tables the beam engine shares: "all predecessors scheduled" and "last
//! consumer ran" test one mask each, and successors whose only predecessor
//! is the scheduled node join `z` as one OR-ed mask, their Zobrist keys
//! pre-folded per node.
//!
//! # Equal-peak tie-breaks
//!
//! Several prefixes of equal peak can reach one signature, and the one kept
//! decides which of several optimal orders the search returns. The merge
//! keeps the candidate with the smallest `(parent hash, parent z, node)` —
//! a key intrinsic to the candidate, never its arrival position. The
//! survivor is therefore a function of the signature set alone: expansion
//! order, sharding, and incumbent-ceiling pruning of losing states cannot
//! change it.
//!
//! Pruning above any bound B ≥ µ* — τ, a caller's ceiling, or a peak the
//! search found itself, even one that tightens mid-run — cannot move the
//! winning chain either. Every state on it peaks at or below µ* ≤ B, so by
//! induction over the steps each keeps its exact survivor: its winning
//! candidate's parent survives unchanged, and every candidate that remains
//! is one the unpruned merge also saw, with the same intrinsic key. A
//! signature whose best prefix peaks above B loses all its candidates
//! instead, and such a signature is on no optimal chain.
//!
//! Three accelerations are integrated here rather than layered on top (the
//! first two are §3.2's):
//!
//! * **Soft-budget pruning** — transitions whose `µ_peak` exceeds the budget
//!   τ are discarded; with τ ≥ µ* the optimum survives (Figure 8(a)).
//! * **Per-step timeout** — if one search step exceeds `T`, the run aborts
//!   with [`ScheduleError::Timeout`], the signal Algorithm 2's meta-search
//!   reacts to.
//! * **The search's own incumbent** — at a step whose frontier holds at
//!   least four times as many states as nodes left (and at least 128), the
//!   frontier's best state is completed greedily (a *dive*: each step takes the ready node
//!   with the smallest peak, then µ, then id). A dive that finishes strictly
//!   below the current limit (τ, the caller's ceiling, or an earlier dive's
//!   peak) is a complete order, so its peak is at least µ*: from then on
//!   the search prunes every transition above it and skips every frontier
//!   state above it, with τ's guarantee. On the paper's DARTS cell, τ₀ sits
//!   17% above µ*, a dive reaches µ* mid-search, and the compile's
//!   transitions halve. The incumbent is a local of one run, chosen by
//!   intrinsic keys only, so serial and parallel runs dive identically; a
//!   found incumbent also proves a solution exists, so an emptied frontier
//!   is never blamed on it.
//!
//! Frontier expansion optionally fans out across threads (`threads > 1`):
//! workers bucket candidates by signature hash into shards, shards are
//! merged in parallel (a signature lands in exactly one shard), and the
//! shard arenas are concatenated. Because tie-breaks are intrinsic, the
//! result — peaks, representatives, and the reconstructed order — is
//! identical to a serial run even though the arena order differs.

use std::time::{Duration, Instant};

use serenity_ir::mem::{CostModel, FixedTable, FootprintTracker, TransitionTable};
use serenity_ir::set::wordset;
use serenity_ir::{Graph, GraphError, NodeId, NodeSet, ZobristTable};

use crate::backend::CompileContext;
use crate::{Schedule, ScheduleError, ScheduleStats};

/// Why a transition was discarded rather than merged into the next arena.
#[derive(Debug, Clone, Copy)]
enum Pruned {
    /// The peak exceeded the soft budget τ (§3.2 pruning) or the search's
    /// own incumbent ([`Moves::incumbent`]).
    Budget,
    /// The peak provably loses to the context's incumbent ceiling
    /// ([`BoundHandle`](crate::backend::BoundHandle)) — branch-and-bound.
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

/// Fixed-size per-state metadata.
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

/// One search step's states in one of the engine's two layouts: the
/// metadata plus each state's `z` and scheduled sets. Everything the search
/// does beyond storing sets and applying the Figure 6 step to them is
/// written once against this trait.
trait Arena: Sized + Send + Sync {
    /// The transition data this layout reads.
    type Table: Sync;
    /// A successor's `(z, scheduled)` sets, built by [`Arena::successor`].
    type Sets: Send;

    /// Derives [`Arena::Table`] from the shared table.
    fn table(table: TransitionTable) -> Self::Table;
    /// An arena of `words`-word sets holding one state.
    fn root(words: usize, z: &[u64], scheduled: &[u64], meta: StateMeta) -> Self;
    /// An empty arena of the same width, with room for `states` states.
    fn sibling(&self, states: usize) -> Self;
    /// A scratch value for successor sets.
    fn scratch(&self) -> Self::Sets;
    fn len(&self) -> usize;
    fn meta(&self, i: usize) -> &StateMeta;
    fn meta_mut(&mut self, i: usize) -> &mut StateMeta;
    /// State `i`'s `z` words.
    fn z(&self, i: usize) -> &[u64];
    /// Whether state `i` has the `z` of `sets`.
    fn has_z(&self, i: usize, sets: &Self::Sets) -> bool;
    /// Appends a state, returning its index.
    fn push(&mut self, sets: &Self::Sets, meta: StateMeta) -> u32;
    /// Copies state `i`'s sets into `out`.
    fn load(&self, i: usize, out: &mut Self::Sets);
    /// Appends every state of `other`.
    fn append(&mut self, other: &Self);
    /// Removes every state, keeping the allocation.
    fn clear(&mut self);
    /// Heap bytes the arena holds (allocated capacity, not just length).
    fn bytes(&self) -> u64;
    /// Bytes allocated when state `i` schedules `u`.
    fn alloc_bytes(&self, table: &Self::Table, i: usize, u: NodeId) -> u64;
    /// Bytes freed right after state `i` schedules `u`.
    fn free_bytes(&self, table: &Self::Table, i: usize, u: NodeId) -> u64;
    /// Builds in `out` the sets of state `i` after scheduling `u`, and
    /// returns the XOR of the Zobrist keys of the multi-predecessor
    /// successors that became ready.
    fn successor(
        &self,
        table: &Self::Table,
        zobrist: &ZobristTable,
        i: usize,
        u: NodeId,
        out: &mut Self::Sets,
    ) -> u64;

    /// Shrinks the arena to its backtrack records (the compaction step:
    /// completed steps only need the parent chain), in an exact-size
    /// allocation of their own.
    fn into_back_records(self) -> Vec<BackRec> {
        let mut recs = Vec::with_capacity(self.len());
        recs.extend((0..self.len()).map(|i| {
            let meta = self.meta(i);
            BackRec { parent: meta.parent, node: meta.node }
        }));
        recs
    }
}

/// A fixed-width state: both sets inline next to the metadata, so the
/// state is `Copy` and a merge reads the hash and `z` it compares from one
/// record rather than from a metadata array and a word pool.
#[derive(Debug, Clone, Copy)]
struct FixedState<const W: usize> {
    z: [u64; W],
    scheduled: [u64; W],
    meta: StateMeta,
}

/// The layout of graphs of at most `64 × W` nodes.
#[derive(Debug)]
struct FixedArena<const W: usize> {
    states: Vec<FixedState<W>>,
}

impl<const W: usize> Arena for FixedArena<W> {
    type Table = FixedTable<W>;
    type Sets = ([u64; W], [u64; W]);

    fn table(table: TransitionTable) -> FixedTable<W> {
        table.fixed::<W>()
    }

    fn root(words: usize, z: &[u64], scheduled: &[u64], meta: StateMeta) -> Self {
        let mut state = FixedState { z: [0; W], scheduled: [0; W], meta };
        state.z[..words].copy_from_slice(z);
        state.scheduled[..words].copy_from_slice(scheduled);
        FixedArena { states: vec![state] }
    }

    fn sibling(&self, states: usize) -> Self {
        FixedArena { states: Vec::with_capacity(states) }
    }

    fn scratch(&self) -> Self::Sets {
        ([0; W], [0; W])
    }

    #[inline]
    fn len(&self) -> usize {
        self.states.len()
    }

    #[inline]
    fn meta(&self, i: usize) -> &StateMeta {
        &self.states[i].meta
    }

    #[inline]
    fn meta_mut(&mut self, i: usize) -> &mut StateMeta {
        &mut self.states[i].meta
    }

    #[inline]
    fn z(&self, i: usize) -> &[u64] {
        &self.states[i].z
    }

    #[inline]
    fn has_z(&self, i: usize, sets: &Self::Sets) -> bool {
        self.states[i].z == sets.0
    }

    #[inline]
    fn push(&mut self, &(z, scheduled): &Self::Sets, meta: StateMeta) -> u32 {
        let at = self.states.len() as u32;
        self.states.push(FixedState { z, scheduled, meta });
        at
    }

    #[inline]
    fn load(&self, i: usize, out: &mut Self::Sets) {
        *out = (self.states[i].z, self.states[i].scheduled);
    }

    fn append(&mut self, other: &Self) {
        self.states.extend_from_slice(&other.states);
    }

    fn clear(&mut self) {
        self.states.clear();
    }

    fn bytes(&self) -> u64 {
        (self.states.capacity() * std::mem::size_of::<FixedState<W>>()) as u64
    }

    #[inline]
    fn alloc_bytes(&self, table: &FixedTable<W>, i: usize, u: NodeId) -> u64 {
        table.alloc_bytes(&self.states[i].scheduled, u)
    }

    #[inline]
    fn free_bytes(&self, table: &FixedTable<W>, i: usize, u: NodeId) -> u64 {
        table.free_bytes(&self.states[i].scheduled, u)
    }

    #[inline]
    fn successor(
        &self,
        table: &FixedTable<W>,
        zobrist: &ZobristTable,
        i: usize,
        u: NodeId,
        out: &mut Self::Sets,
    ) -> u64 {
        let (mut z, mut scheduled) = (self.states[i].z, self.states[i].scheduled);
        wordset::remove(&mut z, u);
        wordset::insert(&mut scheduled, u);
        let auto = table.auto_ready(u);
        for w in 0..W {
            z[w] |= auto[w];
        }
        let mut ready = 0;
        for (s, mask) in table.succ_edges(u) {
            if table.mask_ready(&scheduled, mask) {
                wordset::insert(&mut z, *s);
                ready ^= zobrist.key(*s);
            }
        }
        *out = (z, scheduled);
        ready
    }
}

/// The layout of graphs past 128 nodes: fixed-size metadata plus one flat
/// word pool holding each state's `z` and scheduled sets back to back — one
/// allocation per step, not two `Vec<u64>`s per state.
#[derive(Debug)]
struct PooledArena {
    /// Words per set (⌈|V|/64⌉).
    words: usize,
    /// `2 * words` pool words per state: `z` first, then `scheduled`.
    pool: Vec<u64>,
    meta: Vec<StateMeta>,
}

impl PooledArena {
    fn scheduled(&self, i: usize) -> &[u64] {
        let at = (2 * i + 1) * self.words;
        &self.pool[at..at + self.words]
    }
}

impl Arena for PooledArena {
    type Table = TransitionTable;
    /// `z` words, then scheduled words.
    type Sets = Vec<u64>;

    fn table(table: TransitionTable) -> TransitionTable {
        table
    }

    fn root(words: usize, z: &[u64], scheduled: &[u64], meta: StateMeta) -> Self {
        let mut pool = z.to_vec();
        pool.extend_from_slice(scheduled);
        PooledArena { words, pool, meta: vec![meta] }
    }

    fn sibling(&self, states: usize) -> Self {
        PooledArena {
            words: self.words,
            pool: Vec::with_capacity(states * 2 * self.words),
            meta: Vec::with_capacity(states),
        }
    }

    fn scratch(&self) -> Vec<u64> {
        vec![0; 2 * self.words]
    }

    fn len(&self) -> usize {
        self.meta.len()
    }

    fn meta(&self, i: usize) -> &StateMeta {
        &self.meta[i]
    }

    fn meta_mut(&mut self, i: usize) -> &mut StateMeta {
        &mut self.meta[i]
    }

    fn z(&self, i: usize) -> &[u64] {
        let at = 2 * i * self.words;
        &self.pool[at..at + self.words]
    }

    fn has_z(&self, i: usize, sets: &Vec<u64>) -> bool {
        self.z(i) == &sets[..self.words]
    }

    fn push(&mut self, sets: &Vec<u64>, meta: StateMeta) -> u32 {
        debug_assert_eq!(sets.len(), 2 * self.words);
        let at = self.meta.len() as u32;
        self.pool.extend_from_slice(sets);
        self.meta.push(meta);
        at
    }

    fn load(&self, i: usize, out: &mut Vec<u64>) {
        let at = 2 * i * self.words;
        out.copy_from_slice(&self.pool[at..at + 2 * self.words]);
    }

    fn append(&mut self, other: &Self) {
        self.pool.extend_from_slice(&other.pool);
        self.meta.extend_from_slice(&other.meta);
    }

    fn clear(&mut self) {
        self.pool.clear();
        self.meta.clear();
    }

    fn bytes(&self) -> u64 {
        (self.pool.capacity() * std::mem::size_of::<u64>()
            + self.meta.capacity() * std::mem::size_of::<StateMeta>()) as u64
    }

    fn alloc_bytes(&self, table: &TransitionTable, i: usize, u: NodeId) -> u64 {
        table.alloc_bytes(self.scheduled(i), u)
    }

    fn free_bytes(&self, table: &TransitionTable, i: usize, u: NodeId) -> u64 {
        table.free_bytes(self.scheduled(i), u)
    }

    fn successor(
        &self,
        table: &TransitionTable,
        zobrist: &ZobristTable,
        i: usize,
        u: NodeId,
        out: &mut Vec<u64>,
    ) -> u64 {
        self.load(i, out);
        let (z, scheduled) = out.split_at_mut(self.words);
        wordset::remove(z, u);
        wordset::insert(scheduled, u);
        let auto = table.auto_ready(u);
        if auto != u32::MAX {
            wordset::union_into(z, table.mask(auto));
        }
        let mut ready = 0;
        for &(s, off) in table.succ_edges(u) {
            if table.mask_ready(scheduled, off) {
                wordset::insert(z, s);
                ready ^= zobrist.key(s);
            }
        }
        ready
    }
}

/// Whether candidate `a` wins an equal-peak tie against `b`, both being
/// transitions out of `frontier`: the smaller parent signature in
/// `(hash, z)` order wins, then the smaller node. Distinct parents hold
/// distinct signatures, so this is a total order on candidates.
fn wins_tie<A: Arena>(frontier: &A, a: &StateMeta, b: &StateMeta) -> bool {
    let (pa, pb) = (a.parent as usize, b.parent as usize);
    if pa == pb {
        return a.node < b.node;
    }
    let by_parent = frontier
        .meta(pa)
        .hash
        .cmp(&frontier.meta(pb).hash)
        .then_with(|| frontier.z(pa).cmp(frontier.z(pb)));
    by_parent.is_lt()
}

/// Compact backtrack record of a completed step's state.
#[derive(Debug, Clone, Copy)]
struct BackRec {
    parent: u32,
    node: NodeId,
}

const EMPTY_SLOT: u32 = u32::MAX;

/// Open-addressing memo index over an arena's states, keyed by the
/// pre-computed Zobrist hash — lookups never rehash signature words.
#[derive(Debug, Default)]
struct SigIndex {
    /// Power-of-two slot array holding arena indices.
    slots: Vec<u32>,
    mask: usize,
    len: usize,
}

impl SigIndex {
    fn with_capacity(states: usize) -> Self {
        let mut index = SigIndex::default();
        index.reset(states);
        index
    }

    /// Empties the index and sizes it for about `states` states, reusing
    /// its allocation.
    fn reset(&mut self, states: usize) {
        let cap = (states.max(8) * 2).next_power_of_two();
        self.slots.clear();
        self.slots.resize(cap, EMPTY_SLOT);
        self.mask = cap - 1;
        self.len = 0;
    }

    /// Heap bytes the index holds.
    fn bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<u32>()) as u64
    }

    /// Re-inserts every arena state into a table twice the size (hashes are
    /// carried in the metadata, so no signature is rehashed).
    #[cold]
    fn grow<A: Arena>(&mut self, arena: &A) {
        let cap = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(cap, EMPTY_SLOT);
        self.mask = cap - 1;
        for i in 0..arena.len() {
            let hash = arena.meta(i).hash;
            let mut pos = (hash as usize) & self.mask;
            while self.slots[pos] != EMPTY_SLOT {
                pos = (pos + 1) & self.mask;
            }
            self.slots[pos] = i as u32;
        }
    }
}

/// Inserts a candidate into the next-step arena, keeping the minimum-peak
/// state per signature (Algorithm 1, lines 21-23). Equal peaks are settled
/// by [`wins_tie`] against `frontier`, the arena the candidate was expanded
/// from, so the survivor does not depend on arrival order.
///
/// `meta.mu` is the footprint right after the allocation; `freed` yields
/// the bytes freed after it, and runs only when the signature is new — a
/// known signature already carries its µ.
#[inline]
fn merge_candidate<A: Arena>(
    arena: &mut A,
    index: &mut SigIndex,
    frontier: &A,
    sets: &A::Sets,
    mut meta: StateMeta,
    freed: impl FnOnce() -> u64,
) {
    let mut pos = (meta.hash as usize) & index.mask;
    loop {
        let slot = index.slots[pos];
        if slot == EMPTY_SLOT {
            meta.mu -= freed();
            let at = arena.push(sets, meta);
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
        if arena.meta(at).hash == meta.hash && arena.has_z(at, sets) {
            let existing = arena.meta_mut(at);
            // Same signature ⇒ same scheduled set ⇒ same live set ⇒ same µ.
            debug_assert_eq!(
                existing.mu,
                meta.mu - freed(),
                "µ must be a function of the signature"
            );
            meta.mu = existing.mu;
            if meta.peak < existing.peak
                || (meta.peak == existing.peak && wins_tie(frontier, &meta, existing))
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

/// Raises the search-memory high-water mark to `live` bytes and enforces
/// the context's memory budget against it.
fn account_memory(
    stats: &mut ScheduleStats,
    ctx: &CompileContext,
    live: u64,
) -> Result<(), ScheduleError> {
    stats.peak_memo_bytes = stats.peak_memo_bytes.max(live);
    ctx.check_memory_budget(stats.peak_memo_bytes)
}

/// Per-run transition data: the layout's cost table plus the Zobrist keys
/// successor hashes are folded from.
struct Moves<T> {
    table: T,
    zobrist: ZobristTable,
    /// Per node, the XOR of its auto-ready successors' Zobrist keys.
    auto_hash: Vec<u64>,
    /// The largest running peak that can still beat the context's incumbent
    /// ceiling (`u64::MAX` without one — prunes nothing). Read once per run.
    ceiling: u64,
    /// The peak of the best complete order a dive of this run has found
    /// (`u64::MAX` until one finishes below the limit). It only tightens,
    /// between steps, and is never published.
    incumbent: u64,
}

/// The order reaching a state of step `back.len()` whose metadata is
/// `meta`: the pinned prefix, then the nodes of its parent chain through the
/// backtrack records (`back[0]` is the root, with a dummy node).
fn backtrack(back: &[Vec<BackRec>], prefix: &[NodeId], meta: &StateMeta) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(prefix.len() + back.len());
    if !back.is_empty() {
        order.push(meta.node);
        let mut parent = meta.parent;
        for recs in back[1..].iter().rev() {
            let rec = recs[parent as usize];
            order.push(rec.node);
            parent = rec.parent;
        }
    }
    order.extend(prefix.iter().rev());
    order.reverse();
    order
}

/// Completes `frontier`'s best state greedily: each step schedules the
/// ready node with the smallest `(peak after, µ after, id)`, with the
/// arithmetic of a transition. The state is the smallest by `(peak, µ,
/// hash, z)`, keys intrinsic to the state, so a sharded frontier (whose
/// arena order differs) dives from the same one. Gives up as soon as the
/// running peak reaches `limit`; otherwise returns the state, the dive's
/// peak and the nodes it scheduled. Every evaluated node counts as a
/// transition.
fn dive<A: Arena>(
    moves: &Moves<A::Table>,
    frontier: &A,
    limit: u64,
    stats: &mut ScheduleStats,
) -> Option<(usize, u64, Vec<NodeId>)> {
    let key = |i: usize| {
        let meta = frontier.meta(i);
        (meta.peak, meta.mu, meta.hash, frontier.z(i))
    };
    let start = (0..frontier.len()).min_by(|&a, &b| key(a).cmp(&key(b)))?;
    let StateMeta { mut peak, mut mu, .. } = *frontier.meta(start);
    if peak >= limit {
        return None;
    }
    let mut sets = frontier.scratch();
    frontier.load(start, &mut sets);
    let mut state = frontier.sibling(1);
    state.push(&sets, *frontier.meta(start));
    let mut tail = Vec::new();
    let completed = loop {
        let pick = wordset::iter(state.z(0))
            .map(|u| {
                stats.transitions += 1;
                let after = mu + state.alloc_bytes(&moves.table, 0, u);
                (peak.max(after), after - state.free_bytes(&moves.table, 0, u), u)
            })
            .min();
        let Some((next_peak, next_mu, u)) = pick else {
            break true;
        };
        if next_peak >= limit {
            break false;
        }
        state.successor(&moves.table, &moves.zobrist, 0, u, &mut sets);
        let meta = *state.meta(0);
        state.clear();
        state.push(&sets, meta);
        (peak, mu) = (next_peak, next_mu);
        tail.push(u);
    };
    completed.then_some((start, peak, tail))
}

const ROOT: u32 = u32::MAX;
/// Frontier size beyond which expansion is parallelized.
const PARALLEL_THRESHOLD: usize = 192;
/// A step dives when its frontier holds at least this many states per node
/// left: a dive evaluates the ready nodes of one state per node left, so it
/// costs at most about a quarter of the step's expansion. On small
/// frontiers a dive at every step costs more than it saves.
const DIVE_FRONTIER_RATIO: usize = 4;
/// The fewest states a diving step's frontier holds: a dive from a smaller
/// frontier can save only a few hundred transitions. On the benchmark's
/// in-process workloads this floor leaves traced transitions at or below
/// the ratio rule's alone, and runs whose frontiers stay small never dive.
const DIVE_MIN_FRONTIER: usize = 128;
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
        let mut stats = ScheduleStats::default();
        let schedule = self.run(graph, prefix, ctx, &mut stats)?;
        Ok(DpSolution { schedule, stats })
    }

    /// The search behind [`DpScheduler::schedule_with_prefix_ctx`], writing
    /// its counters to `stats` whether it succeeds or not, so the adaptive
    /// meta-search can account the work of its failed probes too.
    pub(crate) fn run(
        &self,
        graph: &Graph,
        prefix: &[NodeId],
        ctx: &CompileContext,
        stats: &mut ScheduleStats,
    ) -> Result<Schedule, ScheduleError> {
        let started = Instant::now();
        let result = self.search(graph, prefix, ctx, stats);
        stats.duration = started.elapsed();
        result
    }

    /// Dispatches on set width: graphs of at most 128 nodes take the inline
    /// `[u64; W]` layout, larger ones the word pool.
    fn search(
        &self,
        graph: &Graph,
        prefix: &[NodeId],
        ctx: &CompileContext,
        stats: &mut ScheduleStats,
    ) -> Result<Schedule, ScheduleError> {
        ctx.check()?;
        match graph.len().div_ceil(64) {
            0 => Ok(Schedule { order: Vec::new(), peak_bytes: 0 }),
            1 => self.search_in::<FixedArena<1>>(graph, prefix, ctx, stats),
            2 => self.search_in::<FixedArena<2>>(graph, prefix, ctx, stats),
            _ => self.search_in::<PooledArena>(graph, prefix, ctx, stats),
        }
    }

    /// The search over states laid out as `A`.
    fn search_in<A: Arena>(
        &self,
        graph: &Graph,
        prefix: &[NodeId],
        ctx: &CompileContext,
        stats: &mut ScheduleStats,
    ) -> Result<Schedule, ScheduleError> {
        let n = graph.len();
        let cost = CostModel::new(graph);
        let table = cost.transition_table();
        let zobrist = ZobristTable::new(n);
        let auto_hash = graph
            .node_ids()
            .map(|u| match table.auto_ready(u) {
                u32::MAX => 0,
                off => zobrist.hash_words(table.mask(off)),
            })
            .collect();
        let words = table.words();
        let bound = ctx.bound();
        let ceiling = bound.map_or(u64::MAX, |b| b.max_viable_peak());
        let mut moves =
            Moves { table: A::table(table), zobrist, auto_hash, ceiling, incumbent: u64::MAX };
        let mut frontier: A = self.root_arena(graph, &cost, &moves.zobrist, words, prefix)?;
        let budget = self.config.budget.unwrap_or(u64::MAX);
        if frontier.meta(0).peak > budget {
            return Err(ScheduleError::NoSolution { budget });
        }
        if let Some(bound) = bound.filter(|_| frontier.meta(0).peak > ceiling) {
            return Err(ScheduleError::BoundBeaten { bound: bound.beaten_by() });
        }

        stats.states = 1;
        stats.peak_memo_bytes = frontier.bytes();
        // Compacted backtrack records of completed steps; index k holds the
        // arena of step k (after k transitions past the prefix).
        let mut back: Vec<Vec<BackRec>> = Vec::new();
        let mut record_bytes = 0u64;
        // The serial memo index, reused from step to step.
        let mut index = SigIndex::default();
        let remaining = n - prefix.len();

        for step in 0..remaining {
            let step_started = Instant::now();
            let left = remaining - step;
            if frontier.len() >= DIVE_MIN_FRONTIER.max(DIVE_FRONTIER_RATIO * left) {
                let limit = budget.min(ceiling).min(moves.incumbent);
                if let Some((state, peak, tail)) = dive(&moves, &frontier, limit, stats) {
                    debug_assert_eq!(
                        serenity_ir::mem::peak_bytes(
                            graph,
                            &[backtrack(&back, prefix, frontier.meta(state)), tail].concat()
                        ),
                        Ok(peak),
                        "a dive's peak must agree with the reference profiler"
                    );
                    moves.incumbent = peak;
                }
            }
            let next = if self.config.threads > 1 && frontier.len() >= PARALLEL_THRESHOLD {
                let held = record_bytes + index.bytes();
                self.expand_parallel(&moves, &frontier, held, step, step_started, stats, ctx)?
            } else {
                self.expand_serial(&moves, &frontier, &mut index, step, step_started, stats, ctx)?
            };
            if next.len() == 0 {
                // Discriminate the two pruning regimes: when the incumbent
                // ceiling is strictly tighter than τ, every budget-pruned
                // state was also ceiling-prunable, so the emptiness means the
                // incumbent stands — without the ceiling a τ-feasible
                // schedule may still exist. (A dive's incumbent never empties
                // the frontier: the order it found peaks at or above µ*.)
                if let Some(bound) = bound.filter(|_| ceiling < budget) {
                    return Err(ScheduleError::BoundBeaten { bound: bound.beaten_by() });
                }
                return Err(ScheduleError::NoSolution { budget });
            }
            stats.states += next.len() as u64;
            stats.steps = step + 1;
            let live = record_bytes + index.bytes() + frontier.bytes() + next.bytes();
            account_memory(stats, ctx, live)?;
            // Compaction: the expanded step only needs its parent chain.
            let records = frontier.into_back_records();
            record_bytes += std::mem::size_of_val(records.as_slice()) as u64;
            back.push(records);
            frontier = next;
        }

        // All nodes scheduled: the final arena holds exactly one state with
        // an empty signature (Algorithm 1, line 27).
        debug_assert_eq!(frontier.len(), 1, "final signature must be unique");
        let best = *(0..frontier.len())
            .map(|i| frontier.meta(i))
            .min_by_key(|m| m.peak)
            .expect("final arena is non-empty");

        let schedule = Schedule { order: backtrack(&back, prefix, &best), peak_bytes: best.peak };
        debug_assert_eq!(
            serenity_ir::mem::peak_bytes(graph, &schedule.order).expect("valid order"),
            schedule.peak_bytes,
            "DP peak accounting must agree with the reference profiler"
        );
        Ok(schedule)
    }

    fn root_arena<A: Arena>(
        &self,
        graph: &Graph,
        cost: &CostModel<'_>,
        zobrist: &ZobristTable,
        words: usize,
        prefix: &[NodeId],
    ) -> Result<A, ScheduleError> {
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
        let mut z_words = vec![0u64; words];
        let mut s_words = vec![0u64; words];
        z_words[..z.as_words().len()].copy_from_slice(z.as_words());
        s_words[..scheduled.as_words().len()].copy_from_slice(scheduled.as_words());
        let meta = StateMeta {
            hash: zobrist.hash_set(&z),
            mu: tracker.current_bytes(),
            peak: tracker.peak_bytes(),
            parent: ROOT,
            node: NodeId::from_index(0),
        };
        Ok(A::root(words, &z_words, &s_words, meta))
    }

    /// Applies the Figure 6 step for every `(state, u ∈ z)` pair of the
    /// frontier, merging candidates into the next arena as they appear.
    #[allow(clippy::too_many_arguments)]
    fn expand_serial<A: Arena>(
        &self,
        moves: &Moves<A::Table>,
        frontier: &A,
        index: &mut SigIndex,
        step: usize,
        step_started: Instant,
        stats: &mut ScheduleStats,
        ctx: &CompileContext,
    ) -> Result<A, ScheduleError> {
        let mut arena = frontier.sibling(frontier.len());
        index.reset(frontier.len());
        let mut sets = frontier.scratch();
        let mut transitions = 0u64;
        let mut pruned = 0u64;
        let mut bound_pruned = 0u64;
        let mut aborted = Ok(());
        'sweep: for si in 0..frontier.len() {
            let meta = *frontier.meta(si);
            if meta.peak > moves.incumbent {
                continue;
            }
            for u in wordset::iter(frontier.z(si)) {
                transitions += 1;
                if transitions & TIMEOUT_CHECK_MASK == 0 {
                    aborted = self.check_limits(step, step_started, arena.len(), ctx);
                    if aborted.is_err() {
                        break 'sweep;
                    }
                }
                match self.transition(moves, frontier, &meta, si, u, &mut sets) {
                    Ok(candidate) => {
                        let freed = || frontier.free_bytes(&moves.table, si, u);
                        merge_candidate(&mut arena, index, frontier, &sets, candidate, freed);
                    }
                    Err(Pruned::Budget) => pruned += 1,
                    Err(Pruned::Bound) => bound_pruned += 1,
                }
            }
        }
        // Counted before an abort propagates: a failed run reports its work.
        stats.transitions += transitions;
        stats.pruned += pruned;
        stats.bound_pruned += bound_pruned;
        aborted?;
        self.check_limits(step, step_started, arena.len(), ctx)?;
        Ok(arena)
    }

    /// Parallel expansion with a sharded merge: workers bucket candidates by
    /// signature hash, each shard is merged independently (a signature lands
    /// in exactly one shard), and the shard arenas are concatenated. The
    /// merge keeps the same survivor per signature as a serial sweep because
    /// tie-breaks are intrinsic ([`wins_tie`]); only the arena order
    /// differs, and no output depends on it. `held` is the search memory
    /// live outside this step (backtrack records, the serial index).
    #[allow(clippy::too_many_arguments)]
    fn expand_parallel<A: Arena>(
        &self,
        moves: &Moves<A::Table>,
        frontier: &A,
        held: u64,
        step: usize,
        step_started: Instant,
        stats: &mut ScheduleStats,
        ctx: &CompileContext,
    ) -> Result<A, ScheduleError> {
        let threads = self.config.threads.min(frontier.len());
        let shards = threads.next_power_of_two();
        let chunk_size = frontier.len().div_ceil(threads);

        // Phase 1: generate candidates, bucketed by hash shard. Blocks are
        // plain arenas holding the worker's candidates (duplicates and all)
        // in transition order; only phase 2 deduplicates. Counters come
        // back even from an aborted worker, so a failed run reports its work.
        type ChunkResult<A> = (Result<Vec<A>, ScheduleError>, u64, u64, u64);
        let results: Vec<ChunkResult<A>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|ci| {
                    let base = ci * chunk_size;
                    let end = ((ci + 1) * chunk_size).min(frontier.len());
                    scope.spawn(move || -> ChunkResult<A> {
                        let mut blocks: Vec<A> = (0..shards).map(|_| frontier.sibling(0)).collect();
                        let mut sets = frontier.scratch();
                        let mut transitions = 0u64;
                        let mut pruned = 0u64;
                        let mut bound_pruned = 0u64;
                        let mut emitted = 0usize;
                        for si in base..end {
                            let meta = *frontier.meta(si);
                            if meta.peak > moves.incumbent {
                                continue;
                            }
                            for u in wordset::iter(frontier.z(si)) {
                                transitions += 1;
                                if transitions & TIMEOUT_CHECK_MASK == 0 {
                                    if let Err(e) =
                                        self.check_limits(step, step_started, emitted, ctx)
                                    {
                                        return (Err(e), transitions, pruned, bound_pruned);
                                    }
                                }
                                match self.transition(moves, frontier, &meta, si, u, &mut sets) {
                                    Ok(mut candidate) => {
                                        candidate.mu -= frontier.free_bytes(&moves.table, si, u);
                                        let shard = shard_of(candidate.hash, shards);
                                        blocks[shard].push(&sets, candidate);
                                        emitted += 1;
                                    }
                                    Err(Pruned::Budget) => pruned += 1,
                                    Err(Pruned::Bound) => bound_pruned += 1,
                                }
                            }
                        }
                        (Ok(blocks), transitions, pruned, bound_pruned)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker does not panic")).collect()
        });

        let mut worker_blocks: Vec<Vec<A>> = Vec::with_capacity(threads);
        let mut candidate_bytes = 0u64;
        let mut aborted = Ok(());
        for (blocks, transitions, pruned, bound_pruned) in results {
            stats.transitions += transitions;
            stats.pruned += pruned;
            stats.bound_pruned += bound_pruned;
            match blocks {
                Ok(blocks) => {
                    candidate_bytes += blocks.iter().map(A::bytes).sum::<u64>();
                    worker_blocks.push(blocks);
                }
                Err(e) => aborted = aborted.and(Err(e)),
            }
        }
        aborted?;
        ctx.check()?;

        // Phase 2: merge each shard independently.
        let shard_arenas: Vec<(A, u64)> = std::thread::scope(|scope| {
            let worker_blocks = &worker_blocks;
            let handles: Vec<_> = (0..shards)
                .map(|shard| {
                    scope.spawn(move || {
                        let total: usize = worker_blocks.iter().map(|b| b[shard].len()).sum();
                        let mut arena = frontier.sibling(0);
                        let mut index = SigIndex::with_capacity(total / 2 + 1);
                        let mut sets = frontier.scratch();
                        for blocks in worker_blocks {
                            let block = &blocks[shard];
                            for i in 0..block.len() {
                                block.load(i, &mut sets);
                                let meta = *block.meta(i);
                                merge_candidate(
                                    &mut arena,
                                    &mut index,
                                    frontier,
                                    &sets,
                                    meta,
                                    || 0,
                                );
                            }
                        }
                        (arena, index.bytes())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("merger does not panic")).collect()
        });

        // Phase 3: concatenate the shard arenas.
        let states: usize = shard_arenas.iter().map(|(arena, _)| arena.len()).sum();
        let mut merged = frontier.sibling(states);
        for (arena, _) in &shard_arenas {
            merged.append(arena);
        }
        // High-water mark: the concatenated arena is built while the
        // frontier, the candidate blocks and the shard arenas are all still
        // allocated (the shard indexes were live during phase 2; counting
        // them here too keeps the figure an upper bound).
        let shard_bytes: u64 =
            shard_arenas.iter().map(|(arena, index)| arena.bytes() + index).sum();
        let live = held + frontier.bytes() + candidate_bytes + shard_bytes + merged.bytes();
        account_memory(stats, ctx, live)?;
        self.check_limits(step, step_started, merged.len(), ctx)?;
        Ok(merged)
    }

    /// Applies the Figure 6 step to state `si` of `frontier`: allocate `u`,
    /// update the peak, build the successor sets in `sets`, and fold `u` and
    /// the newly ready successors into the Zobrist hash. The returned `mu`
    /// is the footprint right after the allocation: the caller subtracts
    /// the freed bytes ([`Arena::free_bytes`]) once it needs the µ of a new
    /// signature. Returns the prune kind when the transition is discarded:
    /// running peaks are monotone along a schedule path, so a state whose
    /// peak already exceeds the soft budget (or the incumbent ceiling,
    /// [`Moves::ceiling`], or the search's own incumbent,
    /// [`Moves::incumbent`]) can never recover. The checks run in that
    /// order, so `bound_pruned` counts exactly what the caller's ceiling
    /// cut.
    #[inline]
    fn transition<A: Arena>(
        &self,
        moves: &Moves<A::Table>,
        frontier: &A,
        meta: &StateMeta,
        si: usize,
        u: NodeId,
        sets: &mut A::Sets,
    ) -> Result<StateMeta, Pruned> {
        let mu_after_alloc = meta.mu + frontier.alloc_bytes(&moves.table, si, u);
        let peak = meta.peak.max(mu_after_alloc);
        if let Some(budget) = self.config.budget {
            if peak > budget {
                return Err(Pruned::Budget);
            }
        }
        if peak > moves.ceiling {
            return Err(Pruned::Bound);
        }
        if peak > moves.incumbent {
            return Err(Pruned::Budget);
        }
        let ready = frontier.successor(&moves.table, &moves.zobrist, si, u, sets);
        let hash = meta.hash ^ moves.zobrist.key(u) ^ moves.auto_hash[u.index()] ^ ready;
        Ok(StateMeta { hash, mu: mu_after_alloc, peak, parent: si as u32, node: u })
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
            // Both fixed widths: the graph as drawn, and padded past 64 nodes.
            for g in [g.clone(), with_tail(g, 100)] {
                let serial = DpScheduler::new().schedule(&g).unwrap();
                let parallel = DpScheduler::new().threads(4).schedule(&g).unwrap();
                assert_eq!(serial.schedule.peak_bytes, parallel.schedule.peak_bytes);
                // Equal-peak ties are broken by a key intrinsic to each
                // candidate, so parallel runs reconstruct the *same* order,
                // not just the same peak, whatever order the shards merge in.
                assert_eq!(serial.schedule.order, parallel.schedule.order);
            }
        }
    }

    #[test]
    fn sharded_merge_kicks_in_and_is_serial_equal() {
        // 12 independent branches: the frontier peaks at C(12,6) = 924
        // states, well past PARALLEL_THRESHOLD, so the sharded path runs —
        // at both fixed widths.
        let g = serenity_ir::random_dag::independent_branches(12, 10);
        for g in [g.clone(), with_tail(g, 100)] {
            let serial = DpScheduler::new().schedule(&g).unwrap();
            let parallel = DpScheduler::new().threads(4).schedule(&g).unwrap();
            assert_eq!(serial.schedule.order, parallel.schedule.order);
            assert_eq!(serial.schedule.peak_bytes, parallel.schedule.peak_bytes);
            assert_eq!(serial.stats.states, parallel.stats.states);
            assert_eq!(serial.stats.transitions, parallel.stats.transitions);
        }
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

    /// Bytes of one compacted backtrack record.
    const RECORD_BYTES: u64 = std::mem::size_of::<BackRec>() as u64;

    /// A generous bound on the live frontier of `chain_of_diamonds` (at
    /// most three states per step, their arenas and the memo index).
    const DIAMOND_FRONTIER_BYTES: u64 = 4096;

    #[test]
    fn completed_steps_do_not_retain_signatures() {
        // 301 nodes: the pooled layout, 5 words per set.
        let g = chain_of_diamonds(100);
        let dp = DpScheduler::new().schedule(&g).unwrap();
        let words = g.len().div_ceil(64) as u64;
        // Retaining every memoized state's two bitsets until reconstruction
        // would hold `states × 2 × words × 8` bytes at once. Compaction keeps
        // an 8-byte backtrack record per completed state plus the live
        // frontier's signatures (≤ 3 states per step here plus the step
        // being built), far below that.
        let full_retention = dp.stats.states * 2 * words * 8;
        assert!(
            dp.stats.peak_memo_bytes <= dp.stats.states * RECORD_BYTES + DIAMOND_FRONTIER_BYTES,
            "peak memo {} for {} states",
            dp.stats.peak_memo_bytes,
            dp.stats.states
        );
        assert!(
            dp.stats.peak_memo_bytes <= full_retention / 5,
            "peak memo {} vs full retention {}",
            dp.stats.peak_memo_bytes,
            full_retention
        );
        assert!(topo::is_order(&g, &dp.schedule.order));
    }

    #[test]
    fn memory_budget_counts_everything_the_search_holds() {
        use crate::backend::{CompileContext, CompileOptions};
        // 61 nodes, the one-word layout. Its frontier never exceeds two
        // states, so its signature words alone peak at 3 states × 2 sets ×
        // 8 B = 48 B; the backtrack records of its ~80 states, the arenas
        // and the memo index hold far more. A budget between the two
        // figures must trip.
        let g = chain_of_diamonds(20);
        let signature_words = 3 * 2 * 8;
        let budget = 8 * signature_words;
        let free = DpScheduler::new().schedule(&g).unwrap();
        assert!(free.stats.peak_memo_bytes > budget, "{}", free.stats.peak_memo_bytes);
        assert!(free.stats.peak_memo_bytes >= (free.stats.states - 2) * RECORD_BYTES);
        let ctx = CompileContext::new(CompileOptions::default().memory_budget(budget));
        let err = DpScheduler::new().schedule_with_prefix_ctx(&g, &[], &ctx).unwrap_err();
        assert!(
            matches!(err, ScheduleError::MemoryBudgetExceeded { budget: b, .. } if b == budget),
            "{err:?}"
        );
        // A budget at the reported figure admits the run unchanged.
        let roomy = free.stats.peak_memo_bytes;
        let ctx = CompileContext::new(CompileOptions::default().memory_budget(roomy));
        let budgeted = DpScheduler::new().schedule_with_prefix_ctx(&g, &[], &ctx).unwrap();
        assert_eq!(budgeted.schedule, free.schedule);
        assert_eq!(budgeted.stats.peak_memo_bytes, roomy);
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
    fn greedy_peak_ceiling_prunes_a_randwire_cell_at_identical_results() {
        use crate::backend::{BoundHandle, CompileContext};
        use serenity_nets::randwire::{randwire_cell, RandWireConfig};
        // A weak ceiling at the greedy peak — the incumbent a portfolio's
        // cheap member hands the DP — keeps the unbounded schedule while
        // pruning live states and saving transitions.
        let g = randwire_cell(&RandWireConfig {
            nodes: 12,
            seed: 9,
            hw: 4,
            channels: 4,
            ..Default::default()
        });
        let greedy = crate::baseline::greedy(&g).unwrap();
        let free = DpScheduler::new().schedule(&g).unwrap();
        let ctx = CompileContext::unconstrained()
            .with_bound(Some(BoundHandle::seeded_weak(greedy.peak_bytes)));
        let bounded = DpScheduler::new().schedule_with_prefix_ctx(&g, &[], &ctx).unwrap();
        assert_eq!(bounded.schedule.peak_bytes, free.schedule.peak_bytes);
        assert_eq!(bounded.schedule.order, free.schedule.order);
        assert!(bounded.stats.bound_pruned > 0, "the greedy ceiling must prune");
        assert!(bounded.stats.transitions <= free.stats.transitions);
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
            // A tie-losing ceiling at µ*, so ties survive and only worse
            // states prune.
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
        // emptiness must be reported as BoundBeaten, never NoSolution.
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

    /// The survivor of merging `candidates` (all reaching one signature)
    /// forward and in reverse, over layout `A`; both orders must agree.
    fn survivor<A: Arena>(candidates: &[StateMeta]) -> (u32, usize, u64) {
        // Three parents, two sharing a hash so the tie falls through to
        // their z words.
        let parent = |z: u64, hash: u64| {
            let meta =
                StateMeta { hash, mu: 0, peak: 0, parent: ROOT, node: NodeId::from_index(0) };
            A::root(1, &[z], &[0], meta)
        };
        let mut frontier = parent(0b0011, 7);
        frontier.append(&parent(0b0110, 3));
        frontier.append(&parent(0b0101, 3));
        let target = parent(0b1000, 0);
        let mut sets = target.scratch();
        target.load(0, &mut sets);
        let merge = |candidates: &mut dyn Iterator<Item = &StateMeta>| {
            let mut arena = frontier.sibling(0);
            let mut index = SigIndex::with_capacity(1);
            for &c in candidates {
                merge_candidate(&mut arena, &mut index, &frontier, &sets, c, || 0);
            }
            assert_eq!(arena.len(), 1);
            *arena.meta(0)
        };
        let (f, r) = (merge(&mut candidates.iter()), merge(&mut candidates.iter().rev()));
        assert_eq!((f.parent, f.node, f.peak), (r.parent, r.node, r.peak));
        (f.parent, f.node.index(), f.peak)
    }

    #[test]
    fn equal_peak_survivor_is_independent_of_arrival_order() {
        let candidate = |parent: u32, node: usize, peak: u64| StateMeta {
            hash: 99,
            mu: 5,
            peak,
            parent,
            node: NodeId::from_index(node),
        };
        let tied = [
            candidate(0, 2, 10),
            candidate(1, 2, 10),
            candidate(2, 3, 10),
            candidate(2, 0, 10),
            candidate(1, 1, 10),
        ];
        let mut lower = tied.to_vec();
        lower.push(candidate(0, 3, 9));
        for survivor in
            [survivor::<FixedArena<1>>, survivor::<FixedArena<2>>, survivor::<PooledArena>]
        {
            // Smallest parent (hash, z) is parent 2 (hash 3, z 0b0101); then
            // its smaller node.
            assert_eq!(survivor(&tied), (2, 0, 10));
            // A strictly lower peak beats every tie-break.
            assert_eq!(survivor(&lower), (0, 3, 9));
        }
    }

    /// `braids` two-node braids (entry → aᵢ → bᵢ → exit) with skewed sizes.
    fn braided(braids: usize) -> Graph {
        let mut g = Graph::new("braided");
        let entry = g.add_opaque("entry", 4, &[]).unwrap();
        let tails: Vec<_> = (0..braids as u64)
            .map(|i| {
                let a = g.add_opaque(format!("a{i}"), 10 + 17 * i, &[entry]).unwrap();
                g.add_opaque(format!("b{i}"), 3 + 2 * i, &[a]).unwrap()
            })
            .collect();
        let exit = g.add_opaque("exit", 2, &tails).unwrap();
        g.mark_output(exit);
        g
    }

    #[test]
    fn parallel_bound_pruning_matches_serial() {
        use crate::backend::{BoundHandle, CompileContext};
        // Seven skewed braids: a step's frontier reaches 393 states (past
        // PARALLEL_THRESHOLD) and orders that delay freeing the big aᵢ
        // overshoot µ*, so the sharded path runs with live bound pruning. A
        // static seed makes the prune decisions deterministic, so counts
        // must match serial exactly, at every thread count and with or
        // without the bound.
        let g = braided(7);
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
        // Doubling the depth doubles the states, and with them the 8-byte
        // backtrack records; everything else the search holds — the live
        // frontier's signatures, the arenas and the memo index — stays O(1)
        // states wide although each signature gets twice the words.
        let shallow = DpScheduler::new().schedule(&chain_of_diamonds(60)).unwrap().stats;
        let deep = DpScheduler::new().schedule(&chain_of_diamonds(120)).unwrap().stats;
        for stats in [&shallow, &deep] {
            assert!(
                stats.peak_memo_bytes <= stats.states * RECORD_BYTES + DIAMOND_FRONTIER_BYTES,
                "peak memo {} for {} states",
                stats.peak_memo_bytes,
                stats.states
            );
        }
        assert!(
            deep.peak_memo_bytes - shallow.peak_memo_bytes
                <= (deep.states - shallow.states) * RECORD_BYTES + DIAMOND_FRONTIER_BYTES,
            "deep {} vs shallow {}",
            deep.peak_memo_bytes,
            shallow.peak_memo_bytes
        );
    }

    /// `g` with a chain appended until it has `total` nodes: the first link
    /// consumes every sink of `g`, each later link only the one before it.
    fn with_tail(mut g: Graph, total: usize) -> Graph {
        let mut last: Vec<NodeId> = g.node_ids().filter(|&u| g.outdegree(u) == 0).collect();
        for i in g.len()..total {
            let bytes = 1 + (i as u64 * 37) % 64;
            last = vec![g.add_opaque(format!("tail{i}"), bytes, &last).unwrap()];
        }
        for &u in &last {
            g.mark_output(u);
        }
        g
    }

    /// `g` behind a chain that pads it to `total` nodes: the chain's last
    /// link feeds every source of `g`, so `g`'s own nodes — its branching
    /// and multi-predecessor joins — take the highest ids.
    fn with_head(g: &Graph, total: usize) -> Graph {
        let offset = total - g.len();
        let mut padded = Graph::new(g.name());
        let mut last = Vec::new();
        for i in 0..offset {
            let bytes = 1 + (i as u64 * 37) % 64;
            last = vec![padded.add_opaque(format!("head{i}"), bytes, &last).unwrap()];
        }
        for u in g.node_ids() {
            let shift = |p: &NodeId| NodeId::from_index(p.index() + offset);
            let mut preds: Vec<NodeId> = g.preds(u).iter().map(shift).collect();
            if preds.is_empty() {
                preds.clone_from(&last);
            }
            padded.add_opaque(g.node(u).name.clone(), g.out_bytes(u), &preds).unwrap();
        }
        for u in g.outputs() {
            padded.mark_output(NodeId::from_index(u.index() + offset));
        }
        padded
    }

    /// A run's result with the wall-clock part of a state-cap abort (its
    /// elapsed time) dropped, so two runs compare exactly.
    fn outcome(result: Result<Schedule, ScheduleError>) -> Result<Schedule, String> {
        result.map_err(|e| match e {
            ScheduleError::Timeout { step, .. } => format!("timeout at step {step}"),
            e => format!("{e:?}"),
        })
    }

    /// The search over layout `A`, bypassing the width dispatch.
    fn run_as<A: Arena>(
        dp: &DpScheduler,
        g: &Graph,
        prefix: &[NodeId],
        ctx: &CompileContext,
    ) -> (Result<Schedule, String>, [u64; 5]) {
        let mut stats = ScheduleStats::default();
        let result = outcome(dp.search_in::<A>(g, prefix, ctx, &mut stats));
        let counters =
            [stats.states, stats.transitions, stats.pruned, stats.bound_pruned, stats.steps as u64];
        (result, counters)
    }

    /// Runs `dp` on `g` through the width dispatch and through the pooled
    /// layout (and, for one-word graphs, the two-word layout too), and
    /// asserts equal results and counters. Returns the result and counters.
    fn assert_layouts_agree(
        dp: &DpScheduler,
        g: &Graph,
        prefix: &[NodeId],
        ctx: &CompileContext,
    ) -> (Result<Schedule, String>, [u64; 5]) {
        let fixed = if g.len() <= 64 {
            let one = run_as::<FixedArena<1>>(dp, g, prefix, ctx);
            assert_eq!(one, run_as::<FixedArena<2>>(dp, g, prefix, ctx), "one vs two words");
            one
        } else {
            run_as::<FixedArena<2>>(dp, g, prefix, ctx)
        };
        let pooled = run_as::<PooledArena>(dp, g, prefix, ctx);
        assert_eq!(fixed, pooled, "{} nodes, prefix {prefix:?}, {:?}", g.len(), dp.config());
        let dispatched = outcome(dp.run(g, prefix, ctx, &mut ScheduleStats::default()));
        assert_eq!(dispatched, fixed.0);
        fixed
    }

    /// Every layout agrees on `g` with and without a pinned prefix, at 1, 2
    /// and 4 threads: unconstrained, with τ below, at and above µ*, under a
    /// weak and a tie-winning incumbent bound, and with a state cap that
    /// trips. Apart from the capped run (whose workers check the cap at
    /// different points), every thread count also returns the same result
    /// and counters.
    fn assert_layouts_agree_on(g: &Graph) {
        use crate::backend::{BoundHandle, CompileContext};
        let unconstrained = CompileContext::unconstrained();
        let pinned = topo::kahn(g)[..2].to_vec();
        for prefix in [&[][..], &pinned[..]] {
            let free = DpScheduler::new().schedule_with_prefix(g, prefix).unwrap();
            let optimum = free.schedule.peak_bytes;
            let mut serial = Vec::new();
            for threads in [1, 2, 4] {
                let dp = DpScheduler::new().threads(threads);
                let mut runs = vec![assert_layouts_agree(&dp, g, prefix, &unconstrained)];
                assert_eq!(runs[0].0, Ok(free.schedule.clone()));
                for tau in [optimum - 1, optimum, optimum + optimum / 2] {
                    let budgeted = dp.clone().budget(tau);
                    runs.push(assert_layouts_agree(&budgeted, g, prefix, &unconstrained));
                    assert_eq!(runs.last().unwrap().0.is_ok(), tau >= optimum);
                }
                for (bound, solves) in [
                    (BoundHandle::seeded_weak(optimum), true),
                    (BoundHandle::seeded_incumbent(optimum), false),
                ] {
                    let ctx = CompileContext::unconstrained().with_bound(Some(bound));
                    runs.push(assert_layouts_agree(&dp, g, prefix, &ctx));
                    assert_eq!(runs.last().unwrap().0.is_ok(), solves);
                }
                if threads == 1 {
                    serial = runs;
                } else {
                    assert_eq!(runs, serial, "{threads} threads, prefix {prefix:?}");
                }
                // A cap of one state trips at the first branching step.
                let capped = dp.clone().max_states(1);
                let (result, _) = assert_layouts_agree(&capped, g, prefix, &unconstrained);
                assert!(result.unwrap_err().starts_with("timeout"));
            }
        }
    }

    #[test]
    fn fixed_width_layouts_match_the_pooled_layout() {
        use rand::SeedableRng;
        // Random 12-node DAGs padded by a chain to either side of each word
        // boundary: behind a chain head their joins take the highest ids,
        // ahead of a chain tail the lowest.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1717);
        for total in [63, 64, 65, 127, 128] {
            for _ in 0..2 {
                let config = serenity_ir::random_dag::RandomDagConfig {
                    nodes: 12,
                    edge_prob: 0.25,
                    ..Default::default()
                };
                let body = serenity_ir::random_dag::random_dag(&config, &mut rng);
                assert_layouts_agree_on(&with_head(&body, total));
                assert_layouts_agree_on(&with_tail(body, total));
            }
        }
    }

    #[test]
    fn fixed_width_layouts_match_the_pooled_layout_on_sharded_frontiers() {
        use crate::backend::{BoundHandle, CompileContext};
        // Frontiers of up to 924 states, past PARALLEL_THRESHOLD, at both
        // fixed widths: the sharded merge, mid-step limit checks (a step
        // takes thousands of transitions) and bound pruning all run.
        let g = serenity_ir::random_dag::independent_branches(12, 10);
        for g in [with_tail(g.clone(), 64), with_head(&g, 128), with_tail(g, 128)] {
            let optimum = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
            for threads in [1, 2, 4] {
                let dp = DpScheduler::new().threads(threads);
                let unconstrained = CompileContext::unconstrained();
                assert!(assert_layouts_agree(&dp, &g, &[], &unconstrained).0.is_ok());
                let weak = CompileContext::unconstrained()
                    .with_bound(Some(BoundHandle::seeded_weak(optimum)));
                assert!(assert_layouts_agree(&dp, &g, &[], &weak).0.is_ok());
                let capped = dp.clone().max_states(300);
                let (result, _) = assert_layouts_agree(&capped, &g, &[], &unconstrained);
                assert!(result.unwrap_err().starts_with("timeout"));
                let tight = dp.clone().budget(optimum - 1);
                assert!(assert_layouts_agree(&tight, &g, &[], &unconstrained).0.is_err());
            }
        }
    }

    #[test]
    fn layouts_and_threads_agree_while_the_search_finds_its_own_incumbent() {
        // Seven skewed braids: a step's frontier reaches 393 states, past
        // PARALLEL_THRESHOLD and the dive rule, and orders that delay
        // freeing the big aᵢ overshoot µ*. So without τ or a ceiling the
        // search dives, prunes above its own incumbent, and shards.
        let g = braided(7);
        for g in [with_tail(g.clone(), 100), g] {
            let free = DpScheduler::new().schedule(&g).unwrap();
            assert!(free.stats.pruned > 0, "the search's own incumbent must prune");
            assert_eq!(free.stats.bound_pruned, 0);
            assert_layouts_agree_on(&g);
        }
    }
}
