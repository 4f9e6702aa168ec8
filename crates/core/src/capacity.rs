//! Capacity-constrained compilation: off-chip traffic as a first-class
//! objective (the paper's Figure 11 regime, §4.2).
//!
//! A [`CapacityTarget`] on
//! [`CompileOptions`](crate::backend::CompileOptions) tells the pipeline the
//! device has `capacity_bytes` of on-chip scratchpad. Every produced
//! schedule is then assessed with the Belady simulator from
//! `serenity-memsim` and annotated with a [`CapacityReport`]; under
//! [`CapacityObjective::MinTraffic`] the rewrite loop, the allocator-input
//! canonicalization, and the portfolio all rank candidates
//! lexicographically by `(fits, traffic, peak)` instead of peak alone.
//!
//! The ranking leans on one structural fact of the simulator: dead tensors
//! are freed eagerly, so the resident set *is* the live set, and therefore
//! **traffic is zero exactly when the schedule peak fits the capacity**
//! (pinned by `crates/memsim/tests/properties.rs`). Two consequences:
//!
//! * `Fit` needs no ranking change — minimizing peak already maximizes the
//!   chance of fitting — so it only adds the report and its verification.
//! * Peak-based pruning ceilings stay sound under `MinTraffic` *only* below
//!   a fitting (zero-traffic) incumbent; a spilling incumbent's peak must
//!   not prune, because a higher-peak order can still pay less traffic. The
//!   pipeline's seeded re-schedule, the rewrite scorer and the portfolio
//!   all install a peak ceiling only under this rule.

use serde::{Deserialize, Serialize};
use serenity_ir::{mem, Graph, NodeId};
use serenity_memsim::{simulate, MemSimError, Policy, TrafficStats};

/// What the compiler should do with the capacity constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum CapacityObjective {
    /// Keep the peak-minimizing search as-is; report (and verify) whether
    /// the result fits and what traffic it would induce.
    #[default]
    Fit,
    /// Rank candidate schedules lexicographically by `(fits, traffic, peak)`
    /// so the compiler trades peak for lower off-chip traffic when the graph
    /// cannot fit.
    MinTraffic,
}

impl std::fmt::Display for CapacityObjective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapacityObjective::Fit => write!(f, "fit"),
            CapacityObjective::MinTraffic => write!(f, "traffic"),
        }
    }
}

/// The on-chip capacity constraint attached to a compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CapacityTarget {
    /// On-chip scratchpad capacity in bytes.
    pub capacity_bytes: u64,
    /// How the constraint steers the search.
    pub objective: CapacityObjective,
}

impl CapacityTarget {
    /// A `Fit`-objective target.
    pub fn fit(capacity_bytes: u64) -> Self {
        CapacityTarget { capacity_bytes, objective: CapacityObjective::Fit }
    }

    /// A `MinTraffic`-objective target.
    pub fn min_traffic(capacity_bytes: u64) -> Self {
        CapacityTarget { capacity_bytes, objective: CapacityObjective::MinTraffic }
    }

    /// Whether this target changes which schedule the search selects (as
    /// opposed to only annotating the result). Cache keys must be salted
    /// exactly when this is true.
    pub fn steers_search(&self) -> bool {
        self.objective == CapacityObjective::MinTraffic
    }

    /// Salt XOR-mixed into schedule-cache fingerprints and single-flight
    /// keys. Zero (a no-op) unless the target steers the search, so
    /// `Fit`-annotated compiles keep sharing cache entries with
    /// unconstrained ones; under `MinTraffic` it is a non-zero splitmix64
    /// of the capacity, so different capacities can never replay each
    /// other's schedules.
    pub fn cache_salt(&self) -> u64 {
        if !self.steers_search() {
            return 0;
        }
        let mut z = self.capacity_bytes.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) | 1
    }
}

/// The certified capacity outcome attached to a
/// [`CompiledSchedule`](crate::pipeline::CompiledSchedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapacityReport {
    /// The capacity the schedule was assessed under.
    pub capacity_bytes: u64,
    /// The objective the compile ran with.
    pub objective: CapacityObjective,
    /// Whether the schedule's peak footprint fits on-chip outright.
    pub fits: bool,
    /// Whether the schedule is executable at all on this device — `false`
    /// when a single working set exceeds the capacity.
    pub feasible: bool,
    /// `peak - capacity` when the schedule spills, zero when it fits.
    pub spill_bytes: u64,
    /// Belady-optimal off-chip traffic, `None` when infeasible.
    pub traffic: Option<TrafficStats>,
}

impl CapacityReport {
    /// Total off-chip bytes moved; `u64::MAX` for infeasible schedules so
    /// they rank strictly worse than any feasible spill.
    pub fn total_traffic(&self) -> u64 {
        self.traffic.map_or(u64::MAX, |t| t.total_traffic())
    }

    /// Lexicographic rank under [`CapacityObjective::MinTraffic`]: fitting
    /// schedules first, then lower traffic, then lower peak. Smaller wins.
    pub fn rank(&self, peak_bytes: u64) -> (u64, u64, u64) {
        (u64::from(!self.fits), self.total_traffic(), peak_bytes)
    }
}

/// Assesses `order` against `target`: peak fit plus Belady traffic.
///
/// # Errors
///
/// Returns [`MemSimError::Graph`] when `order` is not a valid schedule of
/// `graph`; an over-capacity working set is *not* an error — it yields a
/// report with `feasible: false`.
pub fn assess(
    graph: &Graph,
    order: &[NodeId],
    target: CapacityTarget,
) -> Result<CapacityReport, MemSimError> {
    let peak = mem::peak_bytes(graph, order).map_err(MemSimError::Graph)?;
    let (feasible, traffic) = match simulate(graph, order, target.capacity_bytes, Policy::Belady) {
        Ok(stats) => (true, Some(stats)),
        Err(MemSimError::WorkingSetTooLarge { .. }) => (false, None),
        Err(e) => return Err(e),
    };
    let fits = peak <= target.capacity_bytes;
    debug_assert!(
        !feasible || (fits == (traffic.map_or(1, |t| t.total_traffic()) == 0)),
        "fits must coincide with zero traffic on feasible schedules"
    );
    Ok(CapacityReport {
        capacity_bytes: target.capacity_bytes,
        objective: target.objective,
        fits,
        feasible,
        spill_bytes: peak.saturating_sub(target.capacity_bytes),
        traffic,
    })
}

/// [`assess`], with simulator errors surfaced as
/// [`ScheduleError`](crate::ScheduleError) — the mapping used by the
/// drivers (pipeline, portfolio), for whom an order the simulator rejects
/// is a contract violation by the backend that produced it.
pub(crate) fn assess_for_driver(
    graph: &Graph,
    order: &[NodeId],
    target: CapacityTarget,
) -> Result<CapacityReport, crate::ScheduleError> {
    assess(graph, order, target).map_err(|e| match e {
        MemSimError::Graph(g) => crate::ScheduleError::Graph(g),
        other => crate::ScheduleError::Graph(serenity_ir::GraphError::InvalidOrder {
            detail: other.to_string(),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenity_ir::topo;

    fn chain(sizes: &[u64]) -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new("chain");
        let mut prev: Option<NodeId> = None;
        for (i, &s) in sizes.iter().enumerate() {
            let preds: Vec<NodeId> = prev.into_iter().collect();
            prev = Some(g.add_opaque(format!("n{i}"), s, &preds).unwrap());
        }
        g.mark_output(prev.unwrap());
        let order = topo::kahn(&g);
        (g, order)
    }

    #[test]
    fn fitting_schedule_reports_zero_traffic() {
        let (g, order) = chain(&[64, 64, 64]);
        let peak = mem::peak_bytes(&g, &order).unwrap();
        let report = assess(&g, &order, CapacityTarget::min_traffic(peak)).unwrap();
        assert!(report.fits && report.feasible);
        assert_eq!(report.spill_bytes, 0);
        assert_eq!(report.total_traffic(), 0);
    }

    #[test]
    fn spilling_schedule_reports_traffic_and_spill() {
        let mut g = Graph::new("reuse");
        let a = g.add_opaque("a", 64, &[]).unwrap();
        let b = g.add_opaque("b", 256, &[a]).unwrap();
        let c = g.add_opaque("c", 256, &[b]).unwrap();
        let d = g.add_opaque("d", 64, &[c, a]).unwrap();
        g.mark_output(d);
        let order = topo::kahn(&g);
        let peak = mem::peak_bytes(&g, &order).unwrap();
        let report = assess(&g, &order, CapacityTarget::min_traffic(peak - 1)).unwrap();
        assert!(!report.fits && report.feasible);
        assert_eq!(report.spill_bytes, 1);
        assert!(report.total_traffic() > 0);
    }

    #[test]
    fn infeasible_schedule_ranks_worst() {
        let (g, order) = chain(&[512, 512]);
        let report = assess(&g, &order, CapacityTarget::min_traffic(16)).unwrap();
        assert!(!report.feasible && !report.fits);
        assert_eq!(report.total_traffic(), u64::MAX);
        // A feasible-but-spilling schedule (every working set fits, the
        // peak does not) must still rank strictly better than infeasible.
        let mut g2 = Graph::new("reuse");
        let a = g2.add_opaque("a", 64, &[]).unwrap();
        let b = g2.add_opaque("b", 256, &[a]).unwrap();
        let c = g2.add_opaque("c", 256, &[b]).unwrap();
        let d = g2.add_opaque("d", 64, &[c, a]).unwrap();
        g2.mark_output(d);
        let order2 = topo::kahn(&g2);
        let spilling = assess(&g2, &order2, CapacityTarget::min_traffic(520)).unwrap();
        assert!(spilling.feasible && !spilling.fits);
        assert!(spilling.rank(1024) < report.rank(1024));
    }

    #[test]
    fn rank_prefers_fit_then_traffic_then_peak() {
        let fit = CapacityReport {
            capacity_bytes: 100,
            objective: CapacityObjective::MinTraffic,
            fits: true,
            feasible: true,
            spill_bytes: 0,
            traffic: None,
        };
        let spill = CapacityReport { fits: false, spill_bytes: 10, ..fit };
        assert!(fit.rank(100) < spill.rank(50), "fitting beats spilling at any peak");
        assert!(fit.rank(80) < fit.rank(90), "peak breaks ties");
    }

    #[test]
    fn only_min_traffic_salts_fingerprints() {
        assert_eq!(CapacityTarget::fit(1024).cache_salt(), 0);
        assert_ne!(CapacityTarget::min_traffic(1024).cache_salt(), 0);
        assert_ne!(
            CapacityTarget::min_traffic(1024).cache_salt(),
            CapacityTarget::min_traffic(2048).cache_salt(),
            "different capacities must key distinctly"
        );
        assert!(!CapacityTarget::fit(1024).steers_search());
        assert!(CapacityTarget::min_traffic(1024).steers_search());
    }
}
