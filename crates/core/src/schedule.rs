use std::time::Duration;

use serde::{Deserialize, Serialize};
use serenity_ir::{mem, Graph, GraphError, NodeId};

/// A schedule: a topological order of a graph's nodes together with its peak
/// activation footprint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// Execution order of the nodes.
    pub order: Vec<NodeId>,
    /// Peak activation footprint of the order, in bytes (allocator-free
    /// accounting: the sum of live tensors, as in Figure 12(b)).
    pub peak_bytes: u64,
}

impl Schedule {
    /// Builds a schedule from an order, computing and validating its peak.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidOrder`] if `order` is not a topological
    /// order of `graph`.
    pub fn from_order(graph: &Graph, order: Vec<NodeId>) -> Result<Self, GraphError> {
        let peak_bytes = mem::peak_bytes(graph, &order)?;
        Ok(Schedule { order, peak_bytes })
    }

    /// Number of scheduled nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Peak footprint in KiB.
    pub fn peak_kib(&self) -> f64 {
        self.peak_bytes as f64 / 1024.0
    }

    /// Full footprint profile of this schedule on `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidOrder`] if the schedule does not belong
    /// to `graph`.
    pub fn profile(&self, graph: &Graph) -> Result<mem::ScheduleProfile, GraphError> {
        mem::profile_schedule(graph, &self.order)
    }
}

/// Search-effort counters reported by the dynamic-programming scheduler.
///
/// `transitions` is the paper's "number of explored schedules" axis of
/// Figure 8(b): it grows monotonically with the soft budget τ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Distinct memoized signatures summed over all search steps.
    pub states: u64,
    /// State expansions (schedule-one-more-node transitions) performed.
    pub transitions: u64,
    /// Transitions discarded because their peak exceeded the soft budget.
    pub pruned: u64,
    /// Budget-pruned DP probes launched by the adaptive meta-search
    /// (Algorithm 2 rounds); zero for single-shot schedulers.
    pub probes: u64,
    /// Segment schedules replayed from the request's in-memory schedule memo
    /// instead of being re-searched (zero when neither a rewrite search nor
    /// a compile cache installed one).
    pub memo_hits: u64,
    /// Segment schedules that missed the memo and were actually searched
    /// (only counted when a memo was installed).
    pub memo_misses: u64,
    /// Schedules replayed from the process-wide
    /// [`CompileCache`](crate::cache::CompileCache) — cross-request hits
    /// (zero when no cache is installed).
    pub cache_hits: u64,
    /// Lookups that fell through to the compile cache and missed (only
    /// counted when a cache is installed).
    pub cache_misses: u64,
    /// High-water mark of the search's own live memory, in allocated bytes:
    /// for the DP its step arenas (signatures and metadata), memo index,
    /// parallel candidate blocks and the backtrack records of completed
    /// steps; for the beam its frontiers, candidates and records. The
    /// memory budget ([`CompileOptions::memory_budget`]) is checked against
    /// the same figure. Zero for schedulers that keep no search state.
    ///
    /// [`CompileOptions::memory_budget`]: crate::backend::CompileOptions::memory_budget
    pub peak_memo_bytes: u64,
    /// Transitions discarded because their running peak provably lost to a
    /// shared [`IncumbentBound`](crate::backend::IncumbentBound) — the
    /// branch-and-bound analogue of `pruned` (which counts soft-budget τ
    /// prunes). Zero when no bound is installed.
    #[serde(default)]
    pub bound_pruned: u64,
    /// Searches abandoned whole because the incumbent bound made a win
    /// impossible ([`ScheduleError::BoundBeaten`](crate::ScheduleError)
    /// returns: emptied DP frontiers, beam whole-frontier cutoffs).
    #[serde(default)]
    pub bound_beaten_exits: u64,
    /// Portfolio members skipped outright because an exact member had
    /// already completed with a provably optimal peak.
    #[serde(default)]
    pub race_cutoffs: u64,
    /// Number of search steps executed (equals `|V|` on success).
    pub steps: usize,
    /// Wall-clock scheduling time.
    #[serde(with = "duration_micros")]
    pub duration: Duration,
}

impl ScheduleStats {
    /// Folds another run's counters into this one: counts and durations
    /// add, `steps` keeps the maximum (parallel runs over the same graph
    /// share the step axis).
    ///
    /// This is the single merge point used everywhere stats are combined —
    /// the pipeline's rewrite comparison, divide-and-conquer's per-segment
    /// totals, the adaptive meta-search, and the portfolio.
    pub fn absorb(&mut self, other: &ScheduleStats) {
        self.states += other.states;
        self.transitions += other.transitions;
        self.pruned += other.pruned;
        self.probes += other.probes;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.bound_pruned += other.bound_pruned;
        self.bound_beaten_exits += other.bound_beaten_exits;
        self.race_cutoffs += other.race_cutoffs;
        // High-water marks don't add: sequential runs reuse the memory.
        self.peak_memo_bytes = self.peak_memo_bytes.max(other.peak_memo_bytes);
        self.steps = self.steps.max(other.steps);
        self.duration += other.duration;
    }
}

pub(crate) mod duration_micros {
    use super::*;
    use serde::{Deserializer, Serializer};

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_u64(d.as_micros() as u64)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        let micros = <u64 as serde::Deserialize>::deserialize(d)?;
        Ok(Duration::from_micros(micros))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenity_ir::{topo, Graph};

    fn chain() -> Graph {
        let mut g = Graph::new("chain");
        let a = g.add_opaque("a", 10, &[]).unwrap();
        let b = g.add_opaque("b", 20, &[a]).unwrap();
        g.add_opaque("c", 5, &[b]).unwrap();
        g
    }

    #[test]
    fn from_order_computes_peak() {
        let g = chain();
        let s = Schedule::from_order(&g, topo::kahn(&g)).unwrap();
        assert_eq!(s.peak_bytes, 30);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn from_order_rejects_invalid() {
        let g = chain();
        let mut order = topo::kahn(&g);
        order.reverse();
        assert!(Schedule::from_order(&g, order).is_err());
    }

    #[test]
    fn stats_serde_round_trip() {
        let stats = ScheduleStats {
            states: 5,
            transitions: 17,
            pruned: 2,
            probes: 4,
            memo_hits: 6,
            memo_misses: 9,
            cache_hits: 3,
            cache_misses: 8,
            peak_memo_bytes: 4096,
            bound_pruned: 11,
            bound_beaten_exits: 2,
            race_cutoffs: 1,
            steps: 3,
            duration: Duration::from_micros(1500),
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: ScheduleStats = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
    }

    #[test]
    fn absorb_merges_every_counter() {
        let mut total = ScheduleStats {
            states: 1,
            transitions: 2,
            pruned: 3,
            probes: 1,
            memo_hits: 1,
            memo_misses: 2,
            cache_hits: 1,
            cache_misses: 3,
            peak_memo_bytes: 100,
            bound_pruned: 5,
            bound_beaten_exits: 1,
            race_cutoffs: 2,
            steps: 5,
            duration: Duration::from_micros(10),
        };
        let other = ScheduleStats {
            states: 10,
            transitions: 20,
            pruned: 30,
            probes: 2,
            memo_hits: 4,
            memo_misses: 5,
            cache_hits: 2,
            cache_misses: 4,
            peak_memo_bytes: 64,
            bound_pruned: 7,
            bound_beaten_exits: 3,
            race_cutoffs: 4,
            steps: 4,
            duration: Duration::from_micros(7),
        };
        total.absorb(&other);
        assert_eq!(total.states, 11);
        assert_eq!(total.transitions, 22);
        assert_eq!(total.pruned, 33);
        assert_eq!(total.probes, 3);
        assert_eq!(total.memo_hits, 5);
        assert_eq!(total.memo_misses, 7);
        assert_eq!(total.cache_hits, 3);
        assert_eq!(total.cache_misses, 7);
        assert_eq!(total.bound_pruned, 12);
        assert_eq!(total.bound_beaten_exits, 4);
        assert_eq!(total.race_cutoffs, 6);
        assert_eq!(total.peak_memo_bytes, 100, "memo high-water mark keeps the maximum");
        assert_eq!(total.steps, 5, "steps keeps the maximum");
        assert_eq!(total.duration, Duration::from_micros(17));
    }

    #[test]
    fn profile_matches_peak() {
        let g = chain();
        let s = Schedule::from_order(&g, topo::kahn(&g)).unwrap();
        let p = s.profile(&g).unwrap();
        assert_eq!(p.peak_bytes, s.peak_bytes);
    }
}
