//! Beam-search scheduling: a bounded-width variant of the dynamic program.
//!
//! The exact DP of §3.1 memoizes *every* distinct zero-indegree signature,
//! which is optimal but exponential in the worst case even under adaptive
//! soft budgeting. `BeamScheduler` keeps only the `width` most promising
//! states per search step (ranked by peak, then running footprint), trading
//! optimality for a hard polynomial bound `O(|V|² · width · deg)` — a
//! practical extension for graphs beyond the exact scheduler's reach, in the
//! spirit the paper sketches for scaling past its benchmarks.
//!
//! The inner loop uses the same zero-allocation discipline as the DP
//! frontier engine (PR 2): alloc/free/readiness run against the flattened
//! [`TransitionTable`] (single-predecessor successors become ready via one
//! precomputed mask OR instead of per-edge subset tests), candidates store
//! only their `z` signature (`scheduled` is a function of parent and node,
//! derived for the `width` survivors), they dedup through an open-addressing index
//! (`BeamIndex`, content-confirmed so hash collisions cannot merge
//! distinct signatures), and backtracking keeps 8-byte `(parent, node)`
//! records instead of whole states. Graphs of at most 128 nodes — every
//! divide-and-conquer segment and rewrite candidate in the benchmark suite
//! — take a const-generic fast path whose bitsets are `[u64; W]` arrays
//! held by value, so states are `Copy`, live in registers, and the loop has
//! no slice indexing at all; it reads the table's [`FixedTable`] view,
//! whose masks are inline `[u64; W]` arrays too (the DP's fixed-width
//! layout reads the same view). Larger graphs fall back to per-step word
//! pools. The beam is the default scorer of the rewrite↔schedule search —
//! it runs once per rewrite candidate — so these constants are the
//! candidate-throughput constants of the whole Figure 4 loop. Enumeration
//! order, the dedup rule (first occurrence wins, strictly lower peak
//! replaces in place), the stable `(peak, mu)` sort, and final tie-breaking
//! are unchanged in both paths, so schedules are bit-identical to the
//! pre-pooling engine.
//!
//! With `width = 1` the beam degenerates to a greedy scheduler; with
//! unbounded width it coincides with the exact DP. The `beam_ablation`
//! bench measures the quality/effort trade-off.

use std::time::Instant;

use serenity_ir::mem::{CostModel, FixedTable, TransitionTable};
use serenity_ir::set::wordset;
use serenity_ir::{Graph, NodeId};

use crate::backend::CompileContext;
use crate::{Schedule, ScheduleError, ScheduleStats};

/// The bounded-width scheduler.
///
/// # Example
///
/// ```
/// use serenity_core::beam::BeamScheduler;
/// use serenity_core::dp::DpScheduler;
/// use serenity_ir::random_dag::independent_branches;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = independent_branches(10, 32);
/// let exact = DpScheduler::new().schedule(&g)?.schedule.peak_bytes;
/// let beam = BeamScheduler::new(64).schedule(&g)?;
/// assert!(beam.schedule.peak_bytes >= exact); // never better than optimal
/// assert_eq!(beam.schedule.order.len(), g.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BeamScheduler {
    width: usize,
}

/// Result of a beam run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeamSolution {
    /// The best schedule found (valid, not necessarily optimal).
    pub schedule: Schedule,
    /// Search-effort counters.
    pub stats: ScheduleStats,
}

/// A pooled-path state, with its `z`/`scheduled` bitsets interned in the
/// step's word pool at `idx * words`.
#[derive(Debug, Clone, Copy)]
struct State {
    mu: u64,
    peak: u64,
    /// Backtrack-record index of this state.
    rec: u32,
}

/// Compact backtrack record: which record precedes this one, and which node
/// the step scheduled.
#[derive(Debug, Clone, Copy)]
struct Rec {
    parent: u32,
    node: NodeId,
}

const ROOT: u32 = u32::MAX;
const EMPTY_SLOT: u32 = u32::MAX;

/// A fast-path state: bitsets inline, so the whole state is `Copy` and the
/// transition loop never touches a pool slice.
#[derive(Debug, Clone, Copy)]
struct FState<const W: usize> {
    z: [u64; W],
    sched: [u64; W],
    mu: u64,
    peak: u64,
    rec: u32,
}

/// A staged candidate: `scheduled` is *not* stored — it is a pure function
/// of parent and node, derived only for the `width` survivors.
#[derive(Debug, Clone, Copy)]
struct CandState<const W: usize> {
    z: [u64; W],
    mu: u64,
    peak: u64,
}

/// splitmix64-style word mixer (same constant family as the DP's Zobrist
/// keys) folding a bitset into a dedup hash.
#[inline]
fn mix_words(words: &[u64]) -> u64 {
    let mut acc = 0u64;
    for &w in words {
        let mut x = acc ^ w;
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc = x ^ (x >> 31);
    }
    acc
}

/// Per-step open-addressing dedup index over candidate z signatures: slots
/// hold candidate indices, probing starts at the hash's low bits, and every
/// hit is confirmed against the candidate's actual bitset by the caller
/// (exactness over probabilism, like the DP's `SigIndex`). Reused across
/// steps; `reset` is a memset.
struct BeamIndex {
    slots: Vec<u32>,
    mask: usize,
}

impl BeamIndex {
    fn new() -> Self {
        BeamIndex { slots: vec![EMPTY_SLOT; 256], mask: 255 }
    }

    #[inline]
    fn reset(&mut self) {
        self.slots.fill(EMPTY_SLOT);
    }

    /// Doubles the table, re-probing the carried hashes.
    #[cold]
    fn grow(&mut self, hashes: &[u64]) {
        let cap = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(cap, EMPTY_SLOT);
        self.mask = cap - 1;
        for (i, &h) in hashes.iter().enumerate() {
            let mut pos = (h as usize) & self.mask;
            while self.slots[pos] != EMPTY_SLOT {
                pos = (pos + 1) & self.mask;
            }
            self.slots[pos] = i as u32;
        }
    }
}

/// Search-memory high-water mark of the pooled path: the pools and records
/// never shrink, so their final capacities are the run's peak.
fn peak_pool_bytes(frontier: &Pool, next: &Pool, cand: &Pool, records: &[Rec]) -> u64 {
    let pool = |p: &Pool| {
        ((p.z.capacity() + p.scheduled.capacity()) * std::mem::size_of::<u64>()
            + p.states.capacity() * std::mem::size_of::<State>()) as u64
    };
    pool(frontier) + pool(next) + pool(cand) + std::mem::size_of_val(records) as u64
}

/// A step's states plus the word pool interning their bitsets (`words`
/// u64s per state). Candidate pools leave `scheduled` empty — it is derived
/// for survivors only.
#[derive(Debug, Default)]
struct Pool {
    states: Vec<State>,
    z: Vec<u64>,
    scheduled: Vec<u64>,
}

impl Pool {
    fn clear(&mut self) {
        self.states.clear();
        self.z.clear();
        self.scheduled.clear();
    }

    fn z_of(&self, idx: usize, words: usize) -> &[u64] {
        &self.z[idx * words..(idx + 1) * words]
    }

    fn scheduled_of(&self, idx: usize, words: usize) -> &[u64] {
        &self.scheduled[idx * words..(idx + 1) * words]
    }
}

impl BeamScheduler {
    /// Creates a beam scheduler keeping `width` states per step.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width >= 1, "beam width must be at least 1");
        BeamScheduler { width }
    }

    /// The configured width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Schedules `graph`, returning the best schedule within the beam.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Graph`] only for malformed graphs; unlike
    /// the exact DP, the beam never times out and never reports
    /// `NoSolution`.
    pub fn schedule(&self, graph: &Graph) -> Result<BeamSolution, ScheduleError> {
        self.schedule_ctx(graph, &CompileContext::unconstrained())
    }

    /// Like [`BeamScheduler::schedule`], but governed by a
    /// [`CompileContext`]: cancellation and the deadline are polled every
    /// few hundred candidate expansions.
    ///
    /// # Errors
    ///
    /// As [`BeamScheduler::schedule`], plus [`ScheduleError::Cancelled`] /
    /// [`ScheduleError::DeadlineExceeded`].
    pub fn schedule_ctx(
        &self,
        graph: &Graph,
        ctx: &CompileContext,
    ) -> Result<BeamSolution, ScheduleError> {
        let started = Instant::now();
        ctx.check()?;
        let n = graph.len();
        if n == 0 {
            return Ok(BeamSolution {
                schedule: Schedule { order: Vec::new(), peak_bytes: 0 },
                stats: ScheduleStats::default(),
            });
        }
        let cost = CostModel::new(graph).transition_table();
        // Dispatch on bitset width: segment-sized graphs take the inline
        // `[u64; W]` engine; anything larger falls back to the word pools.
        match cost.words() {
            1 => self.run_fixed(graph, &cost.fixed::<1>(), ctx, started),
            2 => self.run_fixed(graph, &cost.fixed::<2>(), ctx, started),
            words => self.run_pooled(graph, &cost, ctx, started, words),
        }
    }

    /// The fixed-width engine: `W`-word inline bitsets, `Copy` states, and
    /// the table's matching [`FixedTable`] view.
    fn run_fixed<const W: usize>(
        &self,
        graph: &Graph,
        cost: &FixedTable<W>,
        ctx: &CompileContext,
        started: Instant,
    ) -> Result<BeamSolution, ScheduleError> {
        let n = graph.len();
        let mut root = FState::<W> { z: [0; W], sched: [0; W], mu: 0, peak: 0, rec: ROOT };
        for u in graph.node_ids() {
            if graph.indegree(u) == 0 {
                wordset::insert(&mut root.z, u);
            }
        }

        let mut stats = ScheduleStats { states: 1, ..ScheduleStats::default() };
        let mut records: Vec<Rec> = Vec::new();
        let mut frontier: Vec<FState<W>> = vec![root];
        let mut next: Vec<FState<W>> = Vec::new();
        let mut cand: Vec<CandState<W>> = Vec::new();
        let mut cand_from: Vec<(u32, NodeId)> = Vec::new();
        let mut cand_hash: Vec<u64> = Vec::new();
        let mut index = BeamIndex::new();
        let mut ranked: Vec<(u64, u64, u32)> = Vec::new();
        let bound = ctx.bound();

        for step in 0..n {
            cand.clear();
            cand_from.clear();
            cand_hash.clear();
            index.reset();
            for (si, &state) in frontier.iter().enumerate() {
                for w in 0..W {
                    let mut bits = state.z[w];
                    while bits != 0 {
                        let u = NodeId::from_index(w * 64 + bits.trailing_zeros() as usize);
                        bits &= bits - 1;
                        stats.transitions += 1;
                        if stats.transitions & 0x3FF == 0 {
                            ctx.check()?;
                        }
                        // Signature first, costs lazily: a duplicate whose
                        // parent peak already matches or exceeds the slot's
                        // cannot replace it (its peak is >= the parent's),
                        // so the alloc/free lookups are skipped entirely.
                        let mut sched = state.sched;
                        wordset::insert(&mut sched, u);
                        let mut z = state.z;
                        wordset::remove(&mut z, u);
                        let auto = cost.auto_ready(u);
                        for w in 0..W {
                            z[w] |= auto[w];
                        }
                        for (s, mask) in cost.succ_edges(u) {
                            if cost.mask_ready(&sched, mask) {
                                wordset::insert(&mut z, *s);
                            }
                        }
                        // Dedup on the z signature: first occurrence keeps
                        // its slot (and insertion position); a strictly
                        // lower peak replaces it in place.
                        let hash = mix_words(&z);
                        let mut pos = (hash as usize) & index.mask;
                        loop {
                            let slot = index.slots[pos];
                            if slot == EMPTY_SLOT {
                                let mu_after = state.mu + cost.alloc_bytes(&state.sched, u);
                                let peak = state.peak.max(mu_after);
                                let mu = mu_after - cost.free_bytes(&state.sched, u);
                                index.slots[pos] = cand.len() as u32;
                                cand.push(CandState { z, mu, peak });
                                cand_from.push((si as u32, u));
                                cand_hash.push(hash);
                                if cand.len() * 4 >= index.slots.len() * 3 {
                                    index.grow(&cand_hash);
                                }
                                break;
                            }
                            let at = slot as usize;
                            if cand_hash[at] == hash && cand[at].z == z {
                                if state.peak < cand[at].peak {
                                    let mu_after = state.mu + cost.alloc_bytes(&state.sched, u);
                                    let peak = state.peak.max(mu_after);
                                    if peak < cand[at].peak {
                                        let mu = mu_after - cost.free_bytes(&state.sched, u);
                                        cand[at] = CandState { z, mu, peak };
                                        cand_from[at] = (si as u32, u);
                                    }
                                }
                                break;
                            }
                            pos = (pos + 1) & index.mask;
                        }
                    }
                }
            }
            // Keep the `width` best states (smallest peak, then
            // footprint). The candidate index makes the key unique, so
            // `select_nth` + sort of the kept prefix is exactly the stable
            // sort + truncate it replaces, at O(cands + width log width).
            ranked.clear();
            ranked.extend(cand.iter().enumerate().map(|(i, s)| (s.peak, s.mu, i as u32)));
            if ranked.len() > self.width {
                ranked.select_nth_unstable(self.width - 1);
                ranked.truncate(self.width);
            }
            ranked.sort_unstable();
            // Whole-frontier cutoff only: pruning individual candidates
            // would free beam slots for states a serial unbounded run never
            // admits, changing the search. The step exits when *every*
            // survivor provably loses to the incumbent ceiling (peaks are
            // monotone, so no completion through this frontier can win).
            if let Some(bound) = bound {
                if ranked.first().is_some_and(|&(peak, _, _)| peak > bound.max_viable_peak()) {
                    return Err(ScheduleError::BoundBeaten { bound: bound.beaten_by() });
                }
            }
            next.clear();
            for &(_, _, ci) in &ranked {
                let ci = ci as usize;
                let (parent_si, node) = cand_from[ci];
                let parent = frontier[parent_si as usize];
                let rec = records.len() as u32;
                records.push(Rec { parent: parent.rec, node });
                // `scheduled` is the parent's plus the scheduled node —
                // derived here, for survivors only.
                let mut sched = parent.sched;
                wordset::insert(&mut sched, node);
                let CandState { z, mu, peak } = cand[ci];
                next.push(FState { z, sched, mu, peak, rec });
            }
            stats.states += next.len() as u64;
            stats.steps = step + 1;
            debug_assert!(!next.is_empty(), "acyclic graphs always progress");
            std::mem::swap(&mut frontier, &mut next);
            // Per-step budget enforcement over the same capacity
            // arithmetic the end-of-run high-water mark reports (the
            // buffers never shrink, so capacities are the live memory).
            ctx.check_memory_budget(
                ((frontier.capacity() + next.capacity()) * std::mem::size_of::<FState<W>>()
                    + cand.capacity() * std::mem::size_of::<CandState<W>>()
                    + std::mem::size_of_val(records.as_slice())) as u64,
            )?;
        }

        let best =
            frontier.iter().min_by_key(|s| s.peak).copied().expect("final frontier is non-empty");
        let mut order = Vec::with_capacity(n);
        let mut at = best.rec;
        while at != ROOT {
            let rec = records[at as usize];
            order.push(rec.node);
            at = rec.parent;
        }
        order.reverse();
        stats.peak_memo_bytes = ((frontier.capacity() + next.capacity())
            * std::mem::size_of::<FState<W>>()
            + cand.capacity() * std::mem::size_of::<CandState<W>>()
            + std::mem::size_of_val(records.as_slice())) as u64;
        stats.duration = started.elapsed();
        let schedule = Schedule { order, peak_bytes: best.peak };
        debug_assert_eq!(
            serenity_ir::mem::peak_bytes(graph, &schedule.order).expect("valid order"),
            schedule.peak_bytes
        );
        Ok(BeamSolution { schedule, stats })
    }

    /// The pooled engine for graphs past 128 nodes: bitsets in per-step
    /// word pools, scratch-buffer candidate assembly.
    fn run_pooled(
        &self,
        graph: &Graph,
        cost: &TransitionTable,
        ctx: &CompileContext,
        started: Instant,
        words: usize,
    ) -> Result<BeamSolution, ScheduleError> {
        let n = graph.len();
        let mut frontier = Pool::default();
        frontier.states.push(State { mu: 0, peak: 0, rec: ROOT });
        frontier.z.resize(words, 0);
        frontier.scheduled.resize(words, 0);
        for u in graph.node_ids() {
            if graph.indegree(u) == 0 {
                wordset::insert(&mut frontier.z, u);
            }
        }

        let mut stats = ScheduleStats { states: 1, ..ScheduleStats::default() };
        let mut records: Vec<Rec> = Vec::new();
        let mut next = Pool::default();
        let mut cand = Pool::default();
        let mut cand_from: Vec<(u32, NodeId)> = Vec::new();
        let mut cand_hash: Vec<u64> = Vec::new();
        let mut index = BeamIndex::new();
        let mut scratch_z: Vec<u64> = vec![0; words];
        let mut scratch_sched: Vec<u64> = vec![0; words];
        // Stable sort keys: insertion order among equal `(peak, mu)` keys is
        // preserved, exactly as sorting whole states did.
        let mut ranked: Vec<(u64, u64, u32)> = Vec::new();
        let bound = ctx.bound();

        for step in 0..n {
            cand.clear();
            cand_from.clear();
            cand_hash.clear();
            index.reset();
            for si in 0..frontier.states.len() {
                let state = frontier.states[si];
                let sched_words = frontier.scheduled_of(si, words);
                let z_words = frontier.z_of(si, words);
                for u in wordset::iter(z_words) {
                    stats.transitions += 1;
                    if stats.transitions & 0x3FF == 0 {
                        ctx.check()?;
                    }
                    scratch_sched.copy_from_slice(sched_words);
                    wordset::insert(&mut scratch_sched, u);
                    scratch_z.copy_from_slice(z_words);
                    wordset::remove(&mut scratch_z, u);
                    let auto = cost.auto_ready(u);
                    if auto != u32::MAX {
                        wordset::union_into(&mut scratch_z, cost.mask(auto));
                    }
                    for &(s, off) in cost.succ_edges(u) {
                        if cost.mask_ready(&scratch_sched, off) {
                            wordset::insert(&mut scratch_z, s);
                        }
                    }
                    // Dedup on the z signature: first occurrence keeps its
                    // slot (and insertion position); a strictly lower peak
                    // replaces it in place. Alloc/free costs are looked up
                    // lazily — a duplicate whose parent peak matches or
                    // exceeds the slot's cannot replace it.
                    let hash = mix_words(&scratch_z);
                    let mut pos = (hash as usize) & index.mask;
                    loop {
                        let slot = index.slots[pos];
                        if slot == EMPTY_SLOT {
                            let mu_after = state.mu + cost.alloc_bytes(sched_words, u);
                            let peak = state.peak.max(mu_after);
                            let mu = mu_after - cost.free_bytes(sched_words, u);
                            index.slots[pos] = cand.states.len() as u32;
                            cand.states.push(State { mu, peak, rec: ROOT });
                            cand_from.push((si as u32, u));
                            cand_hash.push(hash);
                            cand.z.extend_from_slice(&scratch_z);
                            if cand.states.len() * 4 >= index.slots.len() * 3 {
                                index.grow(&cand_hash);
                            }
                            break;
                        }
                        let at = slot as usize;
                        if cand_hash[at] == hash && cand.z_of(at, words) == scratch_z.as_slice() {
                            if state.peak < cand.states[at].peak {
                                let mu_after = state.mu + cost.alloc_bytes(sched_words, u);
                                let peak = state.peak.max(mu_after);
                                if peak < cand.states[at].peak {
                                    let mu = mu_after - cost.free_bytes(sched_words, u);
                                    cand.states[at] = State { mu, peak, rec: ROOT };
                                    cand_from[at] = (si as u32, u);
                                }
                            }
                            break;
                        }
                        pos = (pos + 1) & index.mask;
                    }
                }
            }
            // Keep the `width` best states (smallest peak, then
            // footprint); see the fixed engine for why this equals the
            // stable sort + truncate.
            ranked.clear();
            ranked.extend(cand.states.iter().enumerate().map(|(i, s)| (s.peak, s.mu, i as u32)));
            if ranked.len() > self.width {
                ranked.select_nth_unstable(self.width - 1);
                ranked.truncate(self.width);
            }
            ranked.sort_unstable();
            // Whole-frontier cutoff; see `run_fixed` for why per-candidate
            // pruning is off the table.
            if let Some(bound) = bound {
                if ranked.first().is_some_and(|&(peak, _, _)| peak > bound.max_viable_peak()) {
                    return Err(ScheduleError::BoundBeaten { bound: bound.beaten_by() });
                }
            }
            next.clear();
            for &(_, _, ci) in &ranked {
                let ci = ci as usize;
                let (parent_si, node) = cand_from[ci];
                let parent_rec = frontier.states[parent_si as usize].rec;
                let rec = records.len() as u32;
                records.push(Rec { parent: parent_rec, node });
                next.states.push(State { rec, ..cand.states[ci] });
                next.z.extend_from_slice(cand.z_of(ci, words));
                // `scheduled` is the parent's plus the scheduled node —
                // derived here, for survivors only.
                let at = next.scheduled.len();
                next.scheduled.extend_from_slice(frontier.scheduled_of(parent_si as usize, words));
                wordset::insert(&mut next.scheduled[at..], node);
            }
            stats.states += next.states.len() as u64;
            stats.steps = step + 1;
            debug_assert!(!next.states.is_empty(), "acyclic graphs always progress");
            std::mem::swap(&mut frontier, &mut next);
            // Per-step budget enforcement over the same accounting the
            // end-of-run high-water mark reports.
            ctx.check_memory_budget(peak_pool_bytes(&frontier, &next, &cand, &records))?;
        }

        let best = frontier
            .states
            .iter()
            .min_by_key(|s| s.peak)
            .copied()
            .expect("final frontier is non-empty");
        let mut order = Vec::with_capacity(n);
        let mut at = best.rec;
        while at != ROOT {
            let rec = records[at as usize];
            order.push(rec.node);
            at = rec.parent;
        }
        order.reverse();
        stats.peak_memo_bytes = peak_pool_bytes(&frontier, &next, &cand, &records);
        stats.duration = started.elapsed();
        let schedule = Schedule { order, peak_bytes: best.peak };
        debug_assert_eq!(
            serenity_ir::mem::peak_bytes(graph, &schedule.order).expect("valid order"),
            schedule.peak_bytes
        );
        Ok(BeamSolution { schedule, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::DpScheduler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use serenity_ir::random_dag::{random_dag, RandomDagConfig};
    use serenity_ir::topo;

    fn graphs(count: usize, nodes: usize) -> Vec<Graph> {
        let mut rng = StdRng::seed_from_u64(17);
        (0..count)
            .map(|_| {
                random_dag(
                    &RandomDagConfig { nodes, edge_prob: 0.25, ..Default::default() },
                    &mut rng,
                )
            })
            .collect()
    }

    #[test]
    fn produces_valid_orders() {
        for g in graphs(8, 14) {
            for width in [1usize, 4, 64] {
                let beam = BeamScheduler::new(width).schedule(&g).unwrap();
                assert!(topo::is_order(&g, &beam.schedule.order));
            }
        }
    }

    #[test]
    fn never_beats_the_exact_dp() {
        for g in graphs(8, 12) {
            let exact = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
            for width in [1usize, 8, 128] {
                let beam = BeamScheduler::new(width).schedule(&g).unwrap();
                assert!(beam.schedule.peak_bytes >= exact);
            }
        }
    }

    #[test]
    fn huge_width_recovers_optimality() {
        for g in graphs(8, 12) {
            let exact = DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
            let beam = BeamScheduler::new(usize::MAX).schedule(&g).unwrap();
            assert_eq!(beam.schedule.peak_bytes, exact);
        }
    }

    #[test]
    fn scales_where_exact_search_cannot() {
        // 400-node graph: far beyond exhaustive reach; the beam finishes
        // quickly and still beats the oblivious baseline here. Also the
        // coverage of the pooled (>128 node) engine.
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_dag(
            &RandomDagConfig { nodes: 400, edge_prob: 0.02, ..Default::default() },
            &mut rng,
        );
        let beam = BeamScheduler::new(32).schedule(&g).unwrap();
        assert!(topo::is_order(&g, &beam.schedule.order));
        let kahn = serenity_ir::mem::peak_bytes(&g, &topo::kahn(&g)).unwrap();
        assert!(beam.schedule.peak_bytes <= kahn);
    }

    #[test]
    fn fixed_and_pooled_engines_agree() {
        // Drive the same graphs through both engines by running the pooled
        // path directly; schedules must be bit-identical, not just peaks.
        let ctx = CompileContext::unconstrained();
        for g in graphs(6, 20) {
            for width in [1usize, 8, 64] {
                let beam = BeamScheduler::new(width);
                let cost = CostModel::new(&g).transition_table();
                let pooled = beam.run_pooled(&g, &cost, &ctx, Instant::now(), 1).unwrap();
                let one = beam.run_fixed(&g, &cost.fixed::<1>(), &ctx, Instant::now()).unwrap();
                let two = beam.run_fixed(&g, &cost.fixed::<2>(), &ctx, Instant::now()).unwrap();
                for fixed in [one, two] {
                    assert_eq!(fixed.schedule, pooled.schedule);
                    assert_eq!(fixed.stats.transitions, pooled.stats.transitions);
                    assert_eq!(fixed.stats.states, pooled.stats.states);
                }
            }
        }
    }

    #[test]
    fn weak_bound_leaves_the_beam_result_intact() {
        use crate::backend::BoundHandle;
        // A tie-losing seed at the beam's own peak: the winning path ties
        // the incumbent at worst, so the run completes bit-identically.
        for g in graphs(6, 14) {
            for width in [1usize, 8, 64] {
                let free = BeamScheduler::new(width).schedule(&g).unwrap();
                let ctx = CompileContext::unconstrained()
                    .with_bound(Some(BoundHandle::seeded_weak(free.schedule.peak_bytes)));
                let bounded = BeamScheduler::new(width).schedule_ctx(&g, &ctx).unwrap();
                assert_eq!(bounded.schedule, free.schedule);
            }
        }
    }

    #[test]
    fn strict_bound_cuts_the_beam_off() {
        use crate::backend::BoundHandle;
        // A tie-winning incumbent at the beam's own peak: somewhere along
        // the run every survivor peaks at or above it, so the search must
        // exit with BoundBeaten instead of finishing.
        let g = &graphs(1, 14)[0];
        let free = BeamScheduler::new(8).schedule(g).unwrap();
        let ctx = CompileContext::unconstrained()
            .with_bound(Some(BoundHandle::seeded_incumbent(free.schedule.peak_bytes)));
        let err = BeamScheduler::new(8).schedule_ctx(g, &ctx).unwrap_err();
        assert_eq!(err, ScheduleError::BoundBeaten { bound: free.schedule.peak_bytes });
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new("empty");
        let beam = BeamScheduler::new(4).schedule(&g).unwrap();
        assert!(beam.schedule.is_empty());
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        BeamScheduler::new(0);
    }
}
