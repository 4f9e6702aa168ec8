//! Identity graph rewriting (§3.3, Figure 9).
//!
//! Concatenation keeps *every* incoming branch live until the consumer of the
//! concatenated tensor finishes — the dominant peak in NAS-style cells. Two
//! rewrites remove that pressure while keeping the network's arithmetic
//! output identical:
//!
//! * **Channel-wise partitioning** ([`ChannelWiseRule`]): `concat + conv`
//!   becomes per-branch *partial convolutions* over input-channel slices of
//!   the original kernel, summed by an `add` (Equations 3–6):
//!   `y = [Σᵢ w₁ᵢ*xᵢ, …, Σᵢ wₘᵢ*xᵢ] = Σᵢ (w⋆ᵢ * xᵢ)`.
//!   Each branch can now be consumed and freed as soon as it is produced.
//! * **Kernel-wise partitioning** ([`KernelWiseRule`]): `concat + depthwise
//!   conv` becomes per-branch *partial depthwise convolutions* whose results
//!   are concatenated (Equations 7–8) — depthwise kernels act per channel, so
//!   the op commutes with concatenation.
//!
//! Rewrites are found by pattern matching (as in production compilers,
//! §3.3 "Implementation") and applied as **in-place splices**
//! ([`serenity_ir::edit::GraphEdit`]): the matched pair is tombstoned, the
//! replacement nodes materialize at the consumer's position, and only one
//! compact renumbering pass touches the rest of the graph — no per-node
//! shape re-inference, no old→new hash map. The resulting
//! [`RewriteDelta::splice`] record drives incremental fingerprinting and
//! incremental site rediscovery (see the [`RewriteRule`] delta/splice
//! contract); the pre-splice node-by-node rebuild survives as the property
//! tests' reference path ([`rebuild::reference_apply`]). Weight slices stay
//! symbolic ([`serenity_ir::WeightRef`]), which lets the reference
//! interpreter in `serenity-tensor` verify output equality.
//!
//! Two drivers run the rules:
//!
//! * [`Rewriter`] — the blind fixpoint: apply every matched site once, no
//!   scheduler in the loop (kept for one-shot ablations, the paper-figure
//!   binaries and the rule tests).
//! * [`RewriteSearch`] — the cost-guided loop (Figure 4 run iteratively):
//!   per iteration every site becomes a candidate graph, each candidate is
//!   *scheduled* by a scoring backend (optionally across worker threads,
//!   with a deterministic replay that keeps any thread count bit-identical
//!   to serial), and only the best strictly-peak-reducing candidate is
//!   kept, until a fixed point, deadline, or budget. Unchanged
//!   divide-and-conquer segments are replayed from the run's schedule memo
//!   instead of re-searched.

mod channel;
mod kernel;
mod push;
pub mod rebuild;
mod search;

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use serenity_ir::edit::SpliceInfo;
use serenity_ir::{Graph, GraphError, NodeId, Op};

pub use channel::ChannelWiseRule;
pub use kernel::KernelWiseRule;
pub use push::ActivationPushdownRule;
pub use search::{
    RewriteSearch, RewriteSearchConfig, RewriteSearchOutcome, RewriteSearchSummary, RewriteStop,
};

/// A matched rewrite opportunity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RewriteSite {
    /// Name of the rule that matched.
    pub rule: &'static str,
    /// The concatenation node.
    pub concat: NodeId,
    /// The convolution (or depthwise convolution) consuming it.
    pub consumer: NodeId,
    /// Number of concatenated branches.
    pub branches: usize,
}

/// The effect of applying one rewrite rule at one site: the rewritten graph
/// plus a description of what changed, so consumers (the cost-guided search,
/// event sinks, incremental fingerprints) can reason about the *delta*
/// instead of diffing graphs.
#[derive(Debug, Clone)]
pub struct RewriteDelta {
    /// The rewritten graph.
    pub graph: Graph,
    /// Pre-rewrite ids of the nodes the rewrite removed (the matched concat
    /// and its consumer).
    pub removed: Vec<NodeId>,
    /// Post-rewrite ids of the nodes the rewrite created (partials plus the
    /// combining add/concat), in creation order.
    pub added: Vec<NodeId>,
    /// The splice record: old→new id map and the first changed position.
    /// Produced by [`serenity_ir::edit::GraphEdit::finish`]; consumers use
    /// it to remap rewrite sites across an accepted delta and to update
    /// fingerprints incrementally instead of rehashing the whole graph.
    pub splice: SpliceInfo,
}

/// A graph-rewriting rule: enumerates sites and applies the transformation
/// as a delta.
///
/// # Delta/splice contract
///
/// [`RewriteRule::apply_delta`] must build the rewritten graph through
/// [`serenity_ir::edit::GraphEdit`] (or satisfy the same numbering: live
/// nodes keep their relative order and every added node materializes at the
/// removed consumer's position), and the returned
/// [`RewriteDelta::splice`] must be faithful: every node below
/// `splice.first_changed` is bit-identical (id, op, shape, predecessor
/// list) between the input and output graphs, `splice.node_map` maps every
/// surviving pre-rewrite id to its post-rewrite id, and
/// [`RewriteDelta::added`] lists exactly the created nodes. Incremental
/// fingerprinting ([`serenity_ir::fingerprint::FingerprintCache::update`])
/// and the search's incremental site rescan are sound only under this
/// contract; the property suite `rewrite_splice_properties` checks it
/// against a node-by-node rebuild ([`rebuild::reference_apply`]).
pub trait RewriteRule {
    /// Short rule name used in reports.
    fn name(&self) -> &'static str;

    /// All sites of this rule in `graph`, in id order.
    fn find(&self, graph: &Graph) -> Vec<RewriteSite>;

    /// The site of this rule whose consumer is exactly `consumer`, if the
    /// rule matches there — an O(degree) point query, used for incremental
    /// site rescans after an accepted delta. Must agree with
    /// [`RewriteRule::find`]: `find` returns precisely the sites for which
    /// `match_at` is `Some`.
    fn match_at(&self, graph: &Graph, consumer: NodeId) -> Option<RewriteSite> {
        self.find(graph).into_iter().find(|s| s.consumer == consumer)
    }

    /// Applies the rule at `site`, returning the rewritten graph together
    /// with the removed/added node sets and the splice record (see the
    /// trait-level contract).
    ///
    /// # Errors
    ///
    /// Returns a graph error if `site` does not match this rule on `graph`
    /// (e.g. because the graph changed since [`RewriteRule::find`]).
    fn apply_delta(&self, graph: &Graph, site: &RewriteSite) -> Result<RewriteDelta, GraphError>;

    /// Applies the rule at `site`, returning only the rewritten graph.
    ///
    /// # Errors
    ///
    /// As [`RewriteRule::apply_delta`].
    fn apply(&self, graph: &Graph, site: &RewriteSite) -> Result<Graph, GraphError> {
        self.apply_delta(graph, site).map(|delta| delta.graph)
    }
}

/// Description of one applied rewrite (sites reference pre-rewrite ids, so
/// reports carry names instead).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppliedRewrite {
    /// Rule name.
    pub rule: &'static str,
    /// Name of the rewritten concat node.
    pub concat: String,
    /// Name of the rewritten consumer node.
    pub consumer: String,
    /// Number of branches partitioned.
    pub branches: usize,
}

/// Result of running the rewriter to fixpoint.
#[derive(Debug, Clone)]
pub struct RewriteOutcome {
    /// The rewritten graph (equal to the input when nothing matched).
    pub graph: Graph,
    /// Every application, in order.
    pub applied: Vec<AppliedRewrite>,
}

impl RewriteOutcome {
    /// Whether any rewrite was applied.
    pub fn changed(&self) -> bool {
        !self.applied.is_empty()
    }
}

/// A preset bundle of rewrite rules: the blind fixpoint driver
/// ([`Rewriter::rewrite`]) and the entry point to the cost-guided search
/// ([`Rewriter::cost_guided`]).
///
/// [`Rewriter::rewrite`] applies every matched site unconditionally, without
/// consulting a scheduler — the paper's "apply all identity rewrites" mode,
/// kept for one-shot ablations and as a cheap preprocessing step. The
/// recommended flow is [`Rewriter::cost_guided`], which turns the same rule
/// set into a [`RewriteSearch`] that keeps a rewrite only when scheduling
/// confirms it lowers the peak.
///
/// Each application strictly decreases the number of *unsliced* convolutions
/// adjacent to a concat, so the fixpoint always terminates; a hard
/// application cap ([`Rewriter::max_applications`]) guards against rule bugs
/// regardless.
///
/// # Example
///
/// ```
/// use serenity_core::rewrite::Rewriter;
/// use serenity_ir::{GraphBuilder, DType, Padding};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new("cell");
/// let x = b.image_input("x", 8, 8, 4, DType::F32);
/// let l = b.conv1x1(x, 4)?;
/// let r = b.conv1x1(x, 4)?;
/// let cat = b.concat(&[l, r])?;
/// let y = b.conv(cat, 8, (3, 3), (1, 1), Padding::Same)?;
/// b.mark_output(y);
/// let g = b.finish();
///
/// let outcome = Rewriter::standard().rewrite(&g);
/// assert!(outcome.changed());
/// // concat+conv (2 nodes) became 2 partial convs + add (3 nodes).
/// assert_eq!(outcome.graph.len(), g.len() + 1);
/// # Ok(())
/// # }
/// ```
///
/// # Example: opting into the cost-guided search
///
/// `Rewriter::standard().rewrite(&g)` applies blindly; chaining
/// [`Rewriter::cost_guided`] instead runs the scheduler-in-the-loop
/// [`RewriteSearch`], which only keeps rewrites that provably lower the
/// scored peak (implementors of [`RewriteRule`] provide `apply_delta`;
/// `apply` is a derived convenience):
///
/// ```
/// use serenity_core::backend::CompileContext;
/// use serenity_core::rewrite::Rewriter;
/// use serenity_ir::{GraphBuilder, DType, Padding};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new("cell");
/// let x = b.image_input("x", 8, 8, 4, DType::F32);
/// let l = b.conv1x1(x, 8)?;
/// let r = b.conv1x1(x, 8)?;
/// let cat = b.concat(&[l, r])?;
/// let y = b.conv(cat, 8, (3, 3), (1, 1), Padding::Same)?;
/// b.mark_output(y);
/// let g = b.finish();
///
/// let outcome = Rewriter::standard().cost_guided().run(&g, &CompileContext::unconstrained())?;
/// assert!(outcome.summary.final_peak_bytes <= outcome.summary.initial_peak_bytes);
/// # Ok(())
/// # }
/// ```
pub struct Rewriter {
    rules: Vec<Arc<dyn RewriteRule + Send + Sync>>,
    max_applications: usize,
}

impl std::fmt::Debug for Rewriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rewriter")
            .field("rules", &self.rules.iter().map(|r| r.name()).collect::<Vec<_>>())
            .field("max_applications", &self.max_applications)
            .finish()
    }
}

impl Default for Rewriter {
    fn default() -> Self {
        Rewriter::standard()
    }
}

impl Rewriter {
    /// Both paper rules — channel-wise and kernel-wise partitioning — plus
    /// activation pushdown, which exposes patterns hidden behind ReLUs (the
    /// DARTS cell-output situation).
    pub fn standard() -> Self {
        Rewriter {
            rules: vec![
                Arc::new(ChannelWiseRule),
                Arc::new(KernelWiseRule),
                Arc::new(ActivationPushdownRule),
            ],
            max_applications: 512,
        }
    }

    /// Only channel-wise partitioning (`concat + conv`).
    pub fn channel_only() -> Self {
        Rewriter { rules: vec![Arc::new(ChannelWiseRule)], max_applications: 512 }
    }

    /// Only kernel-wise partitioning (`concat + depthwise conv`).
    pub fn kernel_only() -> Self {
        Rewriter { rules: vec![Arc::new(KernelWiseRule)], max_applications: 512 }
    }

    /// A rewriter over a custom rule set, in priority order.
    pub fn with_rules(rules: Vec<Arc<dyn RewriteRule + Send + Sync>>) -> Self {
        Rewriter { rules, max_applications: 512 }
    }

    /// Caps the number of rule applications **per [`Rewriter::rewrite`]
    /// call, counted across all rules together** (not per rule): once the
    /// cap is reached the fixpoint loop stops, even if sites remain. A cap
    /// of `0` disables rewriting entirely — `rewrite` returns the input
    /// graph unchanged. The same cap bounds accepted applications of a
    /// search built via [`Rewriter::cost_guided`].
    pub fn max_applications(mut self, max: usize) -> Self {
        self.max_applications = max;
        self
    }

    /// The rule set, in priority order.
    pub fn rules(&self) -> &[Arc<dyn RewriteRule + Send + Sync>] {
        &self.rules
    }

    /// Turns this preset into a cost-guided [`RewriteSearch`] over the same
    /// rules (and the same application cap).
    pub fn cost_guided(&self) -> RewriteSearch {
        RewriteSearch::new(self.rules.clone()).config(RewriteSearchConfig {
            max_applications: self.max_applications,
            ..RewriteSearchConfig::default()
        })
    }

    /// All sites of all rules in `graph`.
    pub fn find_sites(&self, graph: &Graph) -> Vec<RewriteSite> {
        let mut sites: Vec<RewriteSite> = self.rules.iter().flat_map(|r| r.find(graph)).collect();
        sites.sort_by_key(|s| (s.consumer, s.concat));
        sites
    }

    /// Applies rules to fixpoint (blindly — no scheduler in the loop) and
    /// returns the rewritten graph plus the application log. At most
    /// [`Rewriter::max_applications`] applications are performed per call,
    /// counted across all rules.
    pub fn rewrite(&self, graph: &Graph) -> RewriteOutcome {
        let mut current = graph.clone();
        let mut applied = Vec::new();
        for _ in 0..self.max_applications {
            let Some((rule, site)) =
                self.rules.iter().find_map(|r| r.find(&current).into_iter().next().map(|s| (r, s)))
            else {
                break;
            };
            let record = AppliedRewrite {
                rule: site.rule,
                concat: current.node(site.concat).name.clone(),
                consumer: current.node(site.consumer).name.clone(),
                branches: site.branches,
            };
            current =
                rule.apply(&current, &site).expect("a site reported by find() must apply cleanly");
            applied.push(record);
        }
        RewriteOutcome { graph: current, applied }
    }
}

/// Shared matching precondition: `concat` (channel axis, ≥ 2 branches, not an
/// explicit output) whose *only* consumer is `consumer`. Slab concats
/// produced by earlier kernel-wise rewrites also match — cascading a
/// channel-wise rewrite over them removes the copy entirely.
pub(crate) fn concat_feeding(graph: &Graph, consumer: NodeId) -> Option<(NodeId, usize)> {
    let preds = graph.preds(consumer);
    if preds.len() != 1 {
        return None;
    }
    let concat = preds[0];
    let axis = match graph.node(concat).op {
        Op::Concat { axis } | Op::SlabConcat { axis } => axis,
        _ => return None,
    };
    if axis != 3 {
        return None;
    }
    if graph.succs(concat).len() != 1 {
        return None;
    }
    if graph.explicit_outputs().contains(&concat) {
        return None;
    }
    let branches = graph.preds(concat).len();
    if branches < 2 {
        return None;
    }
    Some((concat, branches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenity_ir::{mem, topo, DType, GraphBuilder, Padding};

    /// A cell with both rewrite patterns: concat→conv and concat→depthwise.
    /// The concatenated branches dominate the footprint (16 channels each)
    /// while the combined outputs are narrow (8 channels), mirroring the
    /// bottleneck cells of SwiftNet.
    fn dual_pattern_cell() -> Graph {
        let mut b = GraphBuilder::new("dual");
        let x = b.image_input("x", 8, 8, 8, DType::F32);
        let b1 = b.conv1x1(x, 16).unwrap();
        let b2 = b.conv1x1(x, 16).unwrap();
        let b3 = b.conv1x1(x, 16).unwrap();
        let cat1 = b.concat(&[b1, b2, b3]).unwrap();
        let conv = b.conv(cat1, 8, (3, 3), (1, 1), Padding::Same).unwrap();

        let c1 = b.conv1x1(x, 16).unwrap();
        let c2 = b.conv1x1(x, 16).unwrap();
        let cat2 = b.concat(&[c1, c2]).unwrap();
        let dw = b.depthwise(cat2, (3, 3), (1, 1), Padding::Same).unwrap();
        let dwp = b.conv1x1(dw, 8).unwrap();

        let out = b.add(&[conv, dwp]).unwrap();
        b.mark_output(out);
        b.finish()
    }

    #[test]
    fn finds_both_patterns() {
        let g = dual_pattern_cell();
        let sites = Rewriter::standard().find_sites(&g);
        assert_eq!(sites.len(), 2);
        let rules: Vec<&str> = sites.iter().map(|s| s.rule).collect();
        assert!(rules.contains(&"channel-wise"));
        assert!(rules.contains(&"kernel-wise"));
    }

    #[test]
    fn rewrite_grows_node_count_by_branches_minus_one() {
        let g = dual_pattern_cell();
        let outcome = Rewriter::standard().rewrite(&g);
        assert!(outcome.changed());
        // Site 1 has 3 branches (+2); site 2 has 2 branches (+1); the slab
        // concat produced by site 2 feeds a pointwise conv, so channel-wise
        // partitioning cascades over it (+1). Three applications, +4 nodes.
        assert_eq!(outcome.applied.len(), 3);
        assert_eq!(outcome.graph.len(), g.len() + 4);
        assert!(outcome.graph.validate().is_ok());
    }

    #[test]
    fn fixpoint_has_no_remaining_sites() {
        let g = dual_pattern_cell();
        let outcome = Rewriter::standard().rewrite(&g);
        assert!(Rewriter::standard().find_sites(&outcome.graph).is_empty());
    }

    #[test]
    fn rewrite_lowers_optimal_peak_on_concat_heavy_cell() {
        let g = dual_pattern_cell();
        let outcome = Rewriter::standard().rewrite(&g);
        let before = crate::dp::DpScheduler::new().schedule(&g).unwrap().schedule.peak_bytes;
        let after =
            crate::dp::DpScheduler::new().schedule(&outcome.graph).unwrap().schedule.peak_bytes;
        assert!(after < before, "rewriting should lower the optimal peak ({after} vs {before})");
    }

    #[test]
    fn kahn_peak_is_finite_on_rewritten_graph() {
        let g = dual_pattern_cell();
        let outcome = Rewriter::standard().rewrite(&g);
        let order = topo::kahn(&outcome.graph);
        assert!(mem::peak_bytes(&outcome.graph, &order).is_ok());
    }

    #[test]
    fn concat_with_second_consumer_is_not_matched() {
        let mut b = GraphBuilder::new("shared");
        let x = b.image_input("x", 8, 8, 4, DType::F32);
        let l = b.conv1x1(x, 4).unwrap();
        let r = b.conv1x1(x, 4).unwrap();
        let cat = b.concat(&[l, r]).unwrap();
        let conv = b.conv(cat, 8, (3, 3), (1, 1), Padding::Same).unwrap();
        let second = b.relu(cat).unwrap(); // second consumer of the concat
        let reduced = b.conv1x1(second, 8).unwrap();
        let out = b.add(&[conv, reduced]).unwrap();
        b.mark_output(out);
        let g = b.finish();
        assert!(Rewriter::standard().find_sites(&g).is_empty());
    }

    #[test]
    fn output_concat_is_not_matched() {
        let mut b = GraphBuilder::new("outcat");
        let x = b.image_input("x", 8, 8, 4, DType::F32);
        let l = b.conv1x1(x, 4).unwrap();
        let r = b.conv1x1(x, 4).unwrap();
        let cat = b.concat(&[l, r]).unwrap();
        let conv = b.conv(cat, 8, (3, 3), (1, 1), Padding::Same).unwrap();
        b.mark_output(cat); // the concat tensor itself is a network output
        b.mark_output(conv);
        let g = b.finish();
        assert!(Rewriter::standard().find_sites(&g).is_empty());
    }

    #[test]
    fn application_cap_is_respected() {
        let g = dual_pattern_cell();
        let outcome = Rewriter::standard().max_applications(1).rewrite(&g);
        assert_eq!(outcome.applied.len(), 1);
    }

    #[test]
    fn application_cap_of_zero_disables_rewriting() {
        let g = dual_pattern_cell();
        let outcome = Rewriter::standard().max_applications(0).rewrite(&g);
        assert!(!outcome.changed());
        assert_eq!(outcome.graph, g, "a zero cap must return the input unchanged");
    }

    #[test]
    fn application_cap_counts_across_all_rules() {
        // The dual-pattern cell fires both channel-wise and kernel-wise
        // rules; the cap bounds their *total*, not each rule separately.
        let g = dual_pattern_cell();
        let capped = Rewriter::standard().max_applications(2).rewrite(&g);
        assert_eq!(capped.applied.len(), 2);
        let rules: Vec<&str> = capped.applied.iter().map(|a| a.rule).collect();
        assert!(rules.contains(&"channel-wise") && rules.contains(&"kernel-wise"), "{rules:?}");
    }

    #[test]
    fn application_cap_at_the_fixpoint_boundary() {
        // The uncapped fixpoint applies exactly 3 rewrites on this cell; a
        // cap equal to that count must reproduce the fixpoint, one less must
        // stop exactly one application short, and further headroom must not
        // change the result (each `rewrite()` call enforces its own cap).
        let g = dual_pattern_cell();
        let fixpoint = Rewriter::standard().rewrite(&g);
        let n = fixpoint.applied.len();
        assert_eq!(n, 3);

        let exact = Rewriter::standard().max_applications(n).rewrite(&g);
        assert_eq!(exact.applied, fixpoint.applied);
        assert_eq!(exact.graph, fixpoint.graph);

        let short = Rewriter::standard().max_applications(n - 1).rewrite(&g);
        assert_eq!(short.applied.len(), n - 1);
        assert_eq!(short.applied[..], fixpoint.applied[..n - 1]);

        let loose = Rewriter::standard().max_applications(n + 100).rewrite(&g);
        assert_eq!(loose.graph, fixpoint.graph);
    }

    #[test]
    fn plain_graph_is_unchanged() {
        let mut b = GraphBuilder::new("plain");
        let x = b.image_input("x", 8, 8, 4, DType::F32);
        let y = b.conv(x, 8, (3, 3), (1, 1), Padding::Same).unwrap();
        b.mark_output(y);
        let g = b.finish();
        let outcome = Rewriter::standard().rewrite(&g);
        assert!(!outcome.changed());
        assert_eq!(outcome.graph, g);
    }
}
