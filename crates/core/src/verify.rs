//! Independent certification of compiled schedules.
//!
//! The pipeline's whole value proposition is a *guarantee* — a schedule
//! whose peak footprint provably fits the device — yet the artifact it
//! ships flows through a DP memo, a beam dedup, a rewrite splicer, and an
//! arena planner, any one of which could silently corrupt the answer that
//! the cache, the single-flight coalescer, and warm-restart persistence
//! then multiply to every downstream caller. [`verify`] re-derives the
//! claims of a [`CompiledSchedule`] from first principles in O(V+E),
//! trusting none of the fast paths it audits:
//!
//! * **Topological validity** via [`serenity_ir::topo::check_order`] — a
//!   position-array scan over the raw edge lists, not the word-mask
//!   readiness tests the search engines use.
//! * **Peak recomputation** via the PR-2 list-scan reference paths
//!   ([`CostModel::alloc_bytes_scan`] / [`CostModel::free_bytes_scan`]),
//!   kept verbatim from before the bitmask rework precisely so an
//!   independent checker exists. The recomputed peak must equal both
//!   `schedule.peak_bytes` and the `CompiledSchedule::peak_bytes` the
//!   caller sees.
//! * **Arena soundness** via
//!   [`MemoryPlan::validate`](serenity_allocator::MemoryPlan::validate)
//!   (pairwise overlap +
//!   arena containment), an independent [`live_ranges`] recomputation
//!   that every placement's live range must match, and the containment
//!   inequality `arena_bytes >= peak_bytes` (an arena holding all
//!   simultaneously live tensors disjointly can never be smaller than
//!   their peak sum).
//! * **Rewrite equivalence** by replaying every accepted
//!   [`AppliedRewrite`](crate::rewrite::AppliedRewrite) from the
//!   *original* graph through
//!   [`rewrite::rebuild::reference_apply`](rebuild::reference_apply) —
//!   the node-by-node rebuild
//!   path, not the in-place splice the hot path uses — and requiring the
//!   result to be structurally identical
//!   ([`serenity_ir::fingerprint::structural_eq`]) to the compiled graph.
//! * **Capacity report replay**: when the compile carried a
//!   [`CapacityTarget`](crate::capacity::CapacityTarget), the claimed
//!   [`CapacityReport`] is re-derived by an independent Belady
//!   re-simulation of the access trace (ordered-map residency, not the
//!   simulator's swap-removed vector — the canonical victim rule makes
//!   eviction a pure function of the trace, so both must agree
//!   byte-for-byte). Under-claimed traffic and fabricated fits are
//!   rejected, so a served "fits within capacity / costs N spill bytes"
//!   claim is as trustworthy as the peak itself.
//!
//! What the checker *trusts*: the input graph itself (shapes, edges,
//! output markings) and the process's arithmetic. Everything the search
//! and planning layers computed — order, peak, offsets, rewrites — is
//! re-derived.
//!
//! A passing check yields a [`VerifiedCertificate`]; any discrepancy is a
//! typed [`VerifyFailure`]. The serving layer exposes this as
//! `POST /compile?verify=1` (certificate in `meta`, mismatch → structured
//! 500, never a wrong answer served), the CLI as `schedule --verify`, and
//! debug builds assert it on every pipeline compile.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};
use serenity_allocator::{live_ranges, AllocError};
use serenity_ir::mem::CostModel;
use serenity_ir::{fingerprint, topo, Graph, NodeId, NodeSet};
use serenity_memsim::{AccessTrace, TrafficStats};

use crate::capacity::CapacityReport;
use crate::pipeline::CompiledSchedule;
use crate::rewrite::{rebuild, Rewriter};

/// Proof that a [`CompiledSchedule`]'s claims were independently
/// re-derived and found consistent. Produced only by [`verify`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerifiedCertificate {
    /// Nodes in the verified graph (and steps in the verified order).
    pub nodes: usize,
    /// The re-derived peak activation footprint, in bytes (equal to the
    /// compiled schedule's claim, or verification would have failed).
    pub peak_bytes: u64,
    /// The validated arena size in bytes, when a plan was present.
    pub arena_bytes: Option<u64>,
    /// Accepted rewrites replayed through the reference rebuild path.
    pub rewrites_replayed: usize,
    /// The capacity report, re-derived by the independent traffic replay
    /// and found to match the compile's claim (absent when the compile
    /// carried no capacity target).
    pub capacity: Option<CapacityReport>,
}

/// A discrepancy between a [`CompiledSchedule`]'s claims and the
/// checker's independent re-derivation. Every variant means a bug
/// somewhere in the search/planning stack — these must never be
/// swallowed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyFailure {
    /// The schedule is not a topological order of the compiled graph.
    OrderInvalid {
        /// What the order check rejected.
        detail: String,
    },
    /// The claimed peak disagrees with the reference-path recomputation.
    PeakMismatch {
        /// The peak the compiled schedule claims.
        claimed: u64,
        /// The peak the list-scan reference paths re-derive.
        recomputed: u64,
    },
    /// The memory plan is structurally unsound (overlap, out-of-arena
    /// placement, …).
    ArenaInvalid(AllocError),
    /// The declared arena is smaller than the schedule's peak — it cannot
    /// hold all simultaneously live tensors disjointly.
    ArenaTooSmall {
        /// The declared arena size.
        arena_bytes: u64,
        /// The verified peak it would have to contain.
        peak_bytes: u64,
    },
    /// A placement's live range disagrees with the independent liveness
    /// recomputation (wrong node, size, or lifetime).
    ArenaRangeMismatch {
        /// Schedule step of the offending placement.
        step: usize,
        /// What disagreed.
        detail: String,
    },
    /// An accepted rewrite could not be replayed on the original graph
    /// (no matching site, or the reference rebuild rejected it).
    RewriteReplay {
        /// Rule of the rewrite that failed to replay.
        rule: String,
        /// Why the replay failed.
        detail: String,
    },
    /// Replaying every accepted rewrite did not reproduce the compiled
    /// graph structurally.
    GraphMismatch,
    /// The claimed capacity report disagrees with the independent traffic
    /// replay — under-claimed traffic, a fabricated fit, a wrong spill, or
    /// a feasibility lie.
    CapacityMismatch {
        /// The report the compiled schedule claims.
        claimed: CapacityReport,
        /// The report the independent replay re-derives.
        recomputed: CapacityReport,
    },
}

impl fmt::Display for VerifyFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyFailure::OrderInvalid { detail } => {
                write!(f, "schedule is not a topological order: {detail}")
            }
            VerifyFailure::PeakMismatch { claimed, recomputed } => {
                write!(
                    f,
                    "claimed peak of {claimed} bytes disagrees with the reference \
                     recomputation of {recomputed} bytes"
                )
            }
            VerifyFailure::ArenaInvalid(e) => write!(f, "memory plan is unsound: {e}"),
            VerifyFailure::ArenaTooSmall { arena_bytes, peak_bytes } => {
                write!(
                    f,
                    "arena of {arena_bytes} bytes cannot contain the verified peak of \
                     {peak_bytes} bytes"
                )
            }
            VerifyFailure::ArenaRangeMismatch { step, detail } => {
                write!(f, "placement at step {step} disagrees with recomputed liveness: {detail}")
            }
            VerifyFailure::RewriteReplay { rule, detail } => {
                write!(f, "accepted {rule} rewrite failed to replay: {detail}")
            }
            VerifyFailure::GraphMismatch => {
                write!(f, "replayed rewrites do not reproduce the compiled graph")
            }
            VerifyFailure::CapacityMismatch { claimed, recomputed } => {
                write!(
                    f,
                    "claimed capacity report (fits: {}, spill: {}, traffic: {:?}) disagrees \
                     with the independent replay (fits: {}, spill: {}, traffic: {:?})",
                    claimed.fits,
                    claimed.spill_bytes,
                    claimed.traffic.map(|t| t.total_traffic()),
                    recomputed.fits,
                    recomputed.spill_bytes,
                    recomputed.traffic.map(|t| t.total_traffic()),
                )
            }
        }
    }
}

impl Error for VerifyFailure {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VerifyFailure::ArenaInvalid(e) => Some(e),
            _ => None,
        }
    }
}

/// One resident tensor in the independent traffic replay.
#[derive(Clone, Copy)]
struct Replayed {
    size: u64,
    dirty: bool,
    last_access: usize,
}

/// The independent Belady re-simulation backing the capacity check: same
/// semantics as `serenity_memsim::simulate` with `Policy::Belady`, built on
/// an ordered-map residency instead of the simulator's swap-removed vector.
/// The canonical victim rule — furthest next use, then least-recent access,
/// then tensor id — keys every resident distinctly, so eviction is a pure
/// function of the access trace and the two implementations must agree
/// byte-for-byte. Returns `None` when some working set exceeds `capacity`
/// (the infeasible case).
//
// Verification is a cold once-per-compile path; a by-value `VerifyFailure`
// (fattened by the two `CapacityReport`s in `CapacityMismatch`) beats
// boxing every error construction site.
#[allow(clippy::result_large_err)]
fn replay_traffic(
    graph: &Graph,
    order: &[NodeId],
    capacity: u64,
) -> Result<Option<TrafficStats>, VerifyFailure> {
    let trace = AccessTrace::build(graph, order)
        .map_err(|e| VerifyFailure::OrderInvalid { detail: e.to_string() })?;
    let mut stats =
        TrafficStats { capacity, bytes_in: 0, bytes_out: 0, evictions: 0, peak_resident: 0 };
    let mut resident: std::collections::BTreeMap<NodeId, Replayed> =
        std::collections::BTreeMap::new();
    let mut used = 0u64;
    for (step, access) in trace.steps().iter().enumerate() {
        let mut working: Vec<NodeId> = access.reads.clone();
        if !working.contains(&access.write) {
            working.push(access.write);
        }
        let working_total: u64 = working.iter().map(|&t| trace.size(t)).sum();
        if working_total > capacity {
            return Ok(None);
        }
        let demand: u64 =
            working.iter().filter(|t| !resident.contains_key(t)).map(|&t| trace.size(t)).sum();
        while used + demand > capacity {
            let (&victim, &entry) = resident
                .iter()
                .filter(|(t, r)| !working.contains(t) && r.size > 0)
                .max_by_key(|(t, r)| {
                    let next = trace.next_use_after(**t, step).unwrap_or(usize::MAX);
                    (next, usize::MAX - r.last_access, t.index())
                })
                .expect("working set fits, so a victim must exist");
            resident.remove(&victim);
            used -= entry.size;
            stats.evictions += 1;
            let live = trace.next_use_after(victim, step).is_some() || trace.is_output(victim);
            if entry.dirty && live {
                stats.bytes_out += entry.size;
            }
        }
        for &t in &access.reads {
            if let std::collections::btree_map::Entry::Vacant(slot) = resident.entry(t) {
                let size = trace.size(t);
                stats.bytes_in += size;
                used += size;
                slot.insert(Replayed { size, dirty: false, last_access: step });
            }
        }
        match resident.get_mut(&access.write) {
            Some(r) => {
                r.dirty = true;
                r.last_access = step;
            }
            None => {
                let size = trace.size(access.write);
                used += size;
                resident.insert(access.write, Replayed { size, dirty: true, last_access: step });
            }
        }
        for &t in &access.reads {
            if let Some(r) = resident.get_mut(&t) {
                r.last_access = step;
            }
        }
        stats.peak_resident = stats.peak_resident.max(used);
        let dead: Vec<NodeId> =
            resident.keys().copied().filter(|&t| trace.dead_after(t, step)).collect();
        for t in dead {
            used -= resident.remove(&t).expect("dead tensor was resident").size;
        }
    }
    Ok(Some(stats))
}

/// Independently certifies `compiled` against the `original` (pre-rewrite)
/// graph it was compiled from. See the module docs for exactly what is
/// re-derived versus trusted.
///
/// # Errors
///
/// The first [`VerifyFailure`] encountered, in check order: topological
/// validity, peak recomputation, arena soundness, rewrite replay, capacity
/// report replay.
#[allow(clippy::result_large_err)]
pub fn verify(
    original: &Graph,
    compiled: &CompiledSchedule,
) -> Result<VerifiedCertificate, VerifyFailure> {
    let graph = &compiled.graph;
    let order = &compiled.schedule.order;

    // 1. Topological validity, from the raw edge lists.
    topo::check_order(graph, order)
        .map_err(|e| VerifyFailure::OrderInvalid { detail: e.to_string() })?;

    // 2. Peak recomputation through the list-scan reference paths — never
    //    the word-mask fast paths being audited. Same stepping rule as the
    //    engines: allocate u against the pre-u scheduled set, take the
    //    peak, then free what u's completion releases.
    let cost = CostModel::new(graph);
    let mut scheduled = NodeSet::with_capacity(graph.len());
    let mut mu = 0u64;
    let mut recomputed = 0u64;
    for &u in order {
        mu += cost.alloc_bytes_scan(&scheduled, u);
        recomputed = recomputed.max(mu);
        mu -= cost.free_bytes_scan(&scheduled, u);
        scheduled.insert(u);
    }
    if recomputed != compiled.schedule.peak_bytes {
        return Err(VerifyFailure::PeakMismatch {
            claimed: compiled.schedule.peak_bytes,
            recomputed,
        });
    }
    if compiled.peak_bytes != compiled.schedule.peak_bytes {
        return Err(VerifyFailure::PeakMismatch { claimed: compiled.peak_bytes, recomputed });
    }

    // 3. Arena soundness: structural validity, liveness agreement, and
    //    peak containment.
    if let Some(plan) = &compiled.arena {
        plan.validate().map_err(VerifyFailure::ArenaInvalid)?;
        let ranges = live_ranges(graph, order)
            .map_err(|e| VerifyFailure::OrderInvalid { detail: e.to_string() })?;
        if plan.allocs.len() != ranges.len() {
            return Err(VerifyFailure::ArenaRangeMismatch {
                step: plan.allocs.len().min(ranges.len()),
                detail: format!(
                    "plan has {} placements, schedule has {} tensors",
                    plan.allocs.len(),
                    ranges.len()
                ),
            });
        }
        // Placements are matched by node, not position: planners only
        // promise schedule order up to ties on `alloc_step` (greedy-by-size
        // breaks same-step ties by size, not node), so the plan is compared
        // as a permutation of the recomputed ranges.
        let mut by_node: std::collections::HashMap<_, _> =
            ranges.iter().map(|r| (r.node, r)).collect();
        for (step, alloc) in plan.allocs.iter().enumerate() {
            match by_node.remove(&alloc.range.node) {
                Some(range) if alloc.range == *range => {}
                Some(range) => {
                    return Err(VerifyFailure::ArenaRangeMismatch {
                        step,
                        detail: format!("plan has {:?}, recomputed {:?}", alloc.range, range),
                    });
                }
                None => {
                    return Err(VerifyFailure::ArenaRangeMismatch {
                        step,
                        detail: format!(
                            "plan places {} which the schedule never allocates (or places twice)",
                            alloc.range.node
                        ),
                    });
                }
            }
        }
        if plan.arena_bytes < recomputed {
            return Err(VerifyFailure::ArenaTooSmall {
                arena_bytes: plan.arena_bytes,
                peak_bytes: recomputed,
            });
        }
    }

    // 4. Rewrite equivalence: replay every accepted rewrite from the
    //    original graph through the reference rebuild, matching sites by
    //    rule and node names (ids shift across rewrites; names are the
    //    stable coordinates AppliedRewrite records).
    let mut replayed = original.clone();
    for applied in &compiled.rewrites {
        let site = Rewriter::standard()
            .find_sites(&replayed)
            .into_iter()
            .find(|s| {
                s.rule == applied.rule
                    && s.branches == applied.branches
                    && replayed.node(s.concat).name == applied.concat
                    && replayed.node(s.consumer).name == applied.consumer
            })
            .ok_or_else(|| VerifyFailure::RewriteReplay {
                rule: applied.rule.to_string(),
                detail: format!(
                    "no matching site for concat '{}' → consumer '{}'",
                    applied.concat, applied.consumer
                ),
            })?;
        let (next, _) = rebuild::reference_apply(&replayed, &site).map_err(|e| {
            VerifyFailure::RewriteReplay { rule: applied.rule.to_string(), detail: e.to_string() }
        })?;
        replayed = next;
    }
    if !fingerprint::structural_eq(&replayed, graph) {
        return Err(VerifyFailure::GraphMismatch);
    }

    // 5. Capacity report replay: re-simulate the order under the claimed
    //    capacity and require every claimed field — fits, feasibility,
    //    spill, and the full traffic stats — to match. The fit/spill
    //    checks are derived from the *recomputed* peak of check 2, never
    //    the claimed one.
    if let Some(report) = &compiled.capacity {
        let traffic = replay_traffic(graph, order, report.capacity_bytes)?;
        let rederived = CapacityReport {
            capacity_bytes: report.capacity_bytes,
            objective: report.objective,
            fits: recomputed <= report.capacity_bytes,
            feasible: traffic.is_some(),
            spill_bytes: recomputed.saturating_sub(report.capacity_bytes),
            traffic,
        };
        if *report != rederived {
            return Err(VerifyFailure::CapacityMismatch {
                claimed: *report,
                recomputed: rederived,
            });
        }
    }

    Ok(VerifiedCertificate {
        nodes: graph.len(),
        peak_bytes: recomputed,
        arena_bytes: compiled.arena.as_ref().map(|p| p.arena_bytes),
        rewrites_replayed: compiled.rewrites.len(),
        capacity: compiled.capacity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{RewriteMode, Serenity};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use serenity_allocator::Strategy;
    use serenity_ir::random_dag::{random_dag, RandomDagConfig};
    use serenity_ir::{DType, Graph, GraphBuilder, Padding};

    fn compile(graph: &Graph) -> CompiledSchedule {
        Serenity::builder().allocator(Some(Strategy::GreedyBySize)).build().compile(graph).unwrap()
    }

    fn sample_graphs(count: usize) -> Vec<Graph> {
        let mut rng = StdRng::seed_from_u64(11);
        (0..count)
            .map(|_| {
                random_dag(
                    &RandomDagConfig { nodes: 12, edge_prob: 0.3, ..Default::default() },
                    &mut rng,
                )
            })
            .collect()
    }

    /// A concat→conv cell the channel-wise rule rewrites, so the replay
    /// path is exercised end to end.
    fn rewritable_cell() -> Graph {
        let mut b = GraphBuilder::new("cell");
        let x = b.image_input("x", 8, 8, 4, DType::F32);
        let b1 = b.conv1x1(x, 8).unwrap();
        let b2 = b.conv1x1(x, 8).unwrap();
        let cat = b.concat(&[b1, b2]).unwrap();
        let y = b.conv(cat, 16, (3, 3), (1, 1), Padding::Same).unwrap();
        b.mark_output(y);
        b.finish()
    }

    #[test]
    fn clean_compiles_certify() {
        for g in sample_graphs(6) {
            let compiled = compile(&g);
            let cert = verify(&g, &compiled).expect("clean compile must certify");
            assert_eq!(cert.nodes, compiled.graph.len());
            assert_eq!(cert.peak_bytes, compiled.peak_bytes);
            assert_eq!(cert.arena_bytes, compiled.arena_bytes());
        }
    }

    #[test]
    fn rewritten_compiles_replay_and_certify() {
        let g = rewritable_cell();
        let compiled =
            Serenity::builder().rewrite(RewriteMode::IfBeneficial).build().compile(&g).unwrap();
        let cert = verify(&g, &compiled).expect("rewritten compile must certify");
        assert_eq!(cert.rewrites_replayed, compiled.rewrites.len());
    }

    #[test]
    fn reordered_nodes_are_rejected() {
        let g = sample_graphs(1).remove(0);
        let mut compiled = compile(&g);
        compiled.schedule.order.reverse();
        assert!(matches!(verify(&g, &compiled), Err(VerifyFailure::OrderInvalid { .. })));
    }

    #[test]
    fn wrong_peaks_are_rejected() {
        let g = sample_graphs(1).remove(0);
        let mut compiled = compile(&g);
        compiled.schedule.peak_bytes += 1;
        assert!(matches!(verify(&g, &compiled), Err(VerifyFailure::PeakMismatch { .. })));
        // The outer copy must agree with the schedule too.
        let mut compiled = compile(&g);
        compiled.peak_bytes = compiled.schedule.peak_bytes + 1;
        assert!(matches!(verify(&g, &compiled), Err(VerifyFailure::PeakMismatch { .. })));
    }

    #[test]
    fn corrupted_arenas_are_rejected() {
        let g = sample_graphs(1).remove(0);
        let base = compile(&g);
        let plan = base.arena.clone().expect("allocator enabled");

        // Overlapping offsets: collapse every placement onto offset 0.
        let mut compiled = base.clone();
        if let Some(p) = compiled.arena.as_mut() {
            for a in p.allocs.iter_mut() {
                a.offset = 0;
            }
        }
        assert!(matches!(verify(&g, &compiled), Err(VerifyFailure::ArenaInvalid(_))));

        // Out-of-range offset: push one placement past the declared arena.
        let mut compiled = base.clone();
        if let Some(p) = compiled.arena.as_mut() {
            if let Some(a) = p.allocs.last_mut() {
                a.offset = p.arena_bytes + 1;
            }
        }
        assert!(matches!(verify(&g, &compiled), Err(VerifyFailure::ArenaInvalid(_))));

        // Shrunken arena below the verified peak.
        let mut compiled = base.clone();
        if let Some(p) = compiled.arena.as_mut() {
            p.allocs.clear();
            p.arena_bytes = 0;
        }
        let err = verify(&g, &compiled).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyFailure::ArenaRangeMismatch { .. } | VerifyFailure::ArenaTooSmall { .. }
            ),
            "got {err:?}"
        );

        // Tampered live range.
        let mut compiled = base.clone();
        if let Some(p) = compiled.arena.as_mut() {
            if let Some(a) = p.allocs.first_mut() {
                a.range.last_use_step += 1;
            }
        }
        let err = verify(&g, &compiled).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyFailure::ArenaRangeMismatch { .. } | VerifyFailure::ArenaInvalid(_)
            ),
            "got {err:?}"
        );
        drop(plan);
    }

    #[test]
    fn fabricated_rewrites_are_rejected() {
        let g = sample_graphs(1).remove(0);
        let mut compiled = compile(&g);
        compiled.rewrites.push(crate::rewrite::AppliedRewrite {
            rule: "channel-wise",
            concat: "nope".into(),
            consumer: "nada".into(),
            branches: 2,
        });
        assert!(matches!(verify(&g, &compiled), Err(VerifyFailure::RewriteReplay { .. })));
    }

    #[test]
    fn dropped_rewrites_are_rejected() {
        let g = rewritable_cell();
        let compiled =
            Serenity::builder().rewrite(RewriteMode::IfBeneficial).build().compile(&g).unwrap();
        assert!(!compiled.rewrites.is_empty(), "the search must keep a rewrite of this cell");
        let mut tampered = compiled.clone();
        tampered.rewrites.clear();
        // Without the rewrite log, the replayed (original) graph cannot
        // match the rewritten compiled graph.
        assert!(matches!(verify(&g, &tampered), Err(VerifyFailure::GraphMismatch)));
    }

    #[test]
    fn certificate_serializes() {
        let cert = VerifiedCertificate {
            nodes: 5,
            peak_bytes: 128,
            arena_bytes: Some(160),
            rewrites_replayed: 1,
            capacity: None,
        };
        let json = serde_json::to_string(&cert).unwrap();
        let back: VerifiedCertificate = serde_json::from_str(&json).unwrap();
        assert_eq!(cert, back);
    }

    /// Only one topological order exists, the peak is 576 and the largest
    /// working set is 512, so capacity 520 is feasible-but-spilling no
    /// matter what the pipeline does.
    fn spilling_compile() -> (Graph, CompiledSchedule) {
        let mut g = Graph::new("reuse");
        let a = g.add_opaque("a", 64, &[]).unwrap();
        let b = g.add_opaque("b", 256, &[a]).unwrap();
        let c = g.add_opaque("c", 256, &[b]).unwrap();
        let d = g.add_opaque("d", 64, &[c, a]).unwrap();
        g.mark_output(d);
        let compiled = Serenity::builder()
            .capacity_target(crate::capacity::CapacityTarget::min_traffic(520))
            .build()
            .compile(&g)
            .unwrap();
        (g, compiled)
    }

    #[test]
    fn capacity_reports_certify_and_flow_into_the_certificate() {
        for objective_fit in [true, false] {
            for g in sample_graphs(3) {
                let base = compile(&g);
                let target = if objective_fit {
                    crate::capacity::CapacityTarget::fit(base.peak_bytes)
                } else {
                    crate::capacity::CapacityTarget::min_traffic(base.peak_bytes)
                };
                let compiled = Serenity::builder()
                    .allocator(Some(Strategy::GreedyBySize))
                    .capacity_target(target)
                    .build()
                    .compile(&g)
                    .unwrap();
                let report = compiled.capacity.expect("capacity target set");
                assert!(report.fits, "capacity == peak-only peak must fit");
                let cert = verify(&g, &compiled).expect("capacity compile must certify");
                assert_eq!(cert.capacity, compiled.capacity);
            }
        }
    }

    #[test]
    fn under_claimed_traffic_is_rejected() {
        let (g, compiled) = spilling_compile();
        let report = compiled.capacity.expect("capacity target set");
        assert!(!report.fits && report.total_traffic() > 0, "must actually spill: {report:?}");
        verify(&g, &compiled).expect("honest spilling report must certify");

        let mut tampered = compiled.clone();
        if let Some(t) = tampered.capacity.as_mut().and_then(|r| r.traffic.as_mut()) {
            t.bytes_in = 0; // "our schedule moves less data than it does"
        }
        assert!(matches!(verify(&g, &tampered), Err(VerifyFailure::CapacityMismatch { .. })));
    }

    #[test]
    fn fabricated_fits_are_rejected() {
        let (g, compiled) = spilling_compile();
        let mut tampered = compiled.clone();
        if let Some(r) = tampered.capacity.as_mut() {
            r.fits = true;
            r.spill_bytes = 0;
        }
        assert!(matches!(verify(&g, &tampered), Err(VerifyFailure::CapacityMismatch { .. })));
    }
}
