//! The cost-guided, iterative rewrite↔schedule search.
//!
//! The paper's Figure 4 flow is *rewrite → schedule*, but §3.3's identity
//! rewrites only pay off when the scheduler confirms they lower the peak —
//! applying every matched site blindly can leave footprint on the table (or,
//! on cells whose concats are already cheap, add nodes for nothing). This
//! module closes the loop, following the iterative graph-optimization
//! formulation of Zhong et al. (2023):
//!
//! 1. Enumerate every rewrite site of every rule on the current graph. After
//!    the first iteration this is **incremental**: an accepted delta's
//!    [`SpliceInfo`](serenity_ir::edit::SpliceInfo) remaps the prior site
//!    list and only the neighborhood of the added nodes is rescanned
//!    ([`RewriteRule::match_at`]), instead of re-running every rule over
//!    every node.
//! 2. Turn each site into a **candidate** graph by splicing the delta in
//!    place (O(site), no whole-graph rebuild). Sites whose rewrite is
//!    footprint-neutral on its own but *enables* another rule (activation
//!    pushdown exposing `concat→conv`, a kernel-wise slab concat feeding a
//!    pointwise conv) are chained with the rewrites they enable, so a
//!    candidate is a maximal enabling chain, not a single blind step. Each
//!    candidate's whole-graph fingerprint is updated incrementally from the
//!    current graph's ([`FingerprintCache`]); structural twins within an
//!    iteration are detected by fingerprint (confirmed exactly) and scored
//!    once.
//! 3. **Score** each candidate by actually scheduling it (divide-and-conquer
//!    with the configured scoring backend). Segments unchanged since any
//!    previous scoring run replay from the run's [`ScheduleMemo`] instead of
//!    being re-searched. With [`RewriteSearchConfig::threads`] > 1 the
//!    iteration's candidates are scored across `std::thread::scope`
//!    workers; each worker sees the iteration-start memo through a private
//!    layer ([`ScheduleMemo::layered`]) and buffers its events, and the
//!    results are then *replayed* serially in canonical site order — budget
//!    accounting, stats, events, memo merging, and the winner are computed
//!    from the replay, so parallel runs are bit-identical to serial ones.
//!    With a compile cache in the [`CompileContext`], scoring also replays
//!    segments cached by earlier requests, but it never writes the cache:
//!    the run memo is published to it once, when the search ends.
//! 4. Accept the best candidate that does not *worsen* the scored peak;
//!    stop when every candidate worsens it (fixed point), on the iteration
//!    cap, the candidate budget, the application cap, or the
//!    [`CompileContext`] deadline. Peak-neutral acceptances traverse
//!    *plateaus*: on a cell with two symmetric concat arms, rewriting either
//!    arm alone leaves the max-peak unchanged and only the second step pays
//!    off. The search **returns the snapshot at the last strict
//!    improvement**, so trailing plateau steps that never paid off are
//!    discarded and the result never has a higher scored peak than the
//!    input. Termination is guaranteed even with neutral steps: every
//!    rewrite strictly shrinks the supply of matchable sites.
//!
//! The search is deterministic: sites are scored in a canonical order, ties
//! keep the earliest site, and all backends are deterministic, so serial and
//! parallel runs return bit-identical graphs, schedules, and summaries at
//! every thread count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use serenity_ir::fingerprint::{structural_eq, FingerprintCache};
use serenity_ir::{Graph, GraphError, NodeId};

use crate::backend::{BeamBackend, BoundHandle, CompileContext, CompileEvent, SchedulerBackend};
use crate::capacity::CapacityTarget;
use crate::divide::DivideAndConquer;
use crate::memo::ScheduleMemo;
use crate::rewrite::{AppliedRewrite, RewriteRule, RewriteSite};
use crate::{ScheduleError, ScheduleStats};

/// Why a [`RewriteSearch`] run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RewriteStop {
    /// Every candidate worsened the scored peak, or no sites remained.
    FixedPoint,
    /// [`RewriteSearchConfig::max_iterations`] accepted candidates were
    /// applied.
    IterationCap,
    /// [`RewriteSearchConfig::max_candidates`] candidates were scored.
    CandidateBudget,
    /// [`RewriteSearchConfig::max_applications`] rewrites were applied.
    ApplicationCap,
    /// The [`CompileContext`] deadline expired mid-search.
    Deadline,
}

impl std::fmt::Display for RewriteStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RewriteStop::FixedPoint => "fixed-point",
            RewriteStop::IterationCap => "iteration-cap",
            RewriteStop::CandidateBudget => "candidate-budget",
            RewriteStop::ApplicationCap => "application-cap",
            RewriteStop::Deadline => "deadline",
        };
        f.write_str(s)
    }
}

/// Knobs of the iterative search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RewriteSearchConfig {
    /// Maximum accepted candidates (one per iteration).
    pub max_iterations: usize,
    /// Total candidate-scoring budget across all iterations (each scored
    /// candidate costs one scheduling run of the scoring backend).
    pub max_candidates: usize,
    /// Maximum rewrite applications overall (chained enabling rewrites
    /// count individually), mirroring
    /// [`Rewriter::max_applications`](crate::rewrite::Rewriter::max_applications).
    pub max_applications: usize,
    /// Maximum length of one enabling chain (site + the rewrites it
    /// exposes) within a single candidate.
    pub max_chain: usize,
    /// Worker threads scoring one iteration's candidate set (1 = serial).
    /// Any thread count returns bit-identical results — parallel scoring is
    /// replayed deterministically — so this is purely a wall-clock knob.
    pub threads: usize,
}

impl Default for RewriteSearchConfig {
    fn default() -> Self {
        RewriteSearchConfig {
            max_iterations: 32,
            max_candidates: 256,
            max_applications: 512,
            max_chain: 4,
            threads: 1,
        }
    }
}

/// Aggregate report of one search run (serializable for CLI/bench output).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RewriteSearchSummary {
    /// Iterations that accepted a candidate.
    pub iterations: usize,
    /// Candidates scored across all iterations.
    pub candidates_scored: usize,
    /// Rewrites applied to produce the final graph.
    pub applied: usize,
    /// Why the loop stopped.
    pub stop: RewriteStop,
    /// Schedule-memo hits across all scoring runs.
    pub memo_hits: u64,
    /// Schedule-memo misses across all scoring runs.
    pub memo_misses: u64,
    /// Scored peak of the input graph, in bytes (zero when the graph had no
    /// rewrite sites and was never scored).
    pub initial_peak_bytes: u64,
    /// Scored peak of the final graph, in bytes (zero when never scored).
    pub final_peak_bytes: u64,
    /// Whether the search's result graph was ultimately adopted. The search
    /// itself sets this to "some rewrite was accepted"; the pipeline flips
    /// it to `false` when its final full-backend comparison rejects the
    /// winner (then `applied`/`final_peak_bytes` describe a *discarded*
    /// candidate and the compiled graph is the original).
    pub kept: bool,
    /// Wall-clock time of the whole search.
    #[serde(with = "crate::schedule::duration_micros")]
    pub wall: Duration,
    /// Wall-clock spent enumerating and rescanning rewrite sites.
    #[serde(with = "crate::schedule::duration_micros")]
    pub site_scan: Duration,
    /// Wall-clock spent building candidate graphs (splices, enabling
    /// chains, incremental fingerprints).
    #[serde(with = "crate::schedule::duration_micros")]
    pub candidate_build: Duration,
}

impl RewriteSearchSummary {
    /// The summary of a search that stopped before it scored the input
    /// graph: nothing scored or applied, both peaks zero ("never scored").
    pub(crate) fn unscored(stop: RewriteStop, wall: Duration) -> Self {
        RewriteSearchSummary {
            iterations: 0,
            candidates_scored: 0,
            applied: 0,
            stop,
            memo_hits: 0,
            memo_misses: 0,
            initial_peak_bytes: 0,
            final_peak_bytes: 0,
            kept: false,
            wall,
            site_scan: Duration::ZERO,
            candidate_build: Duration::ZERO,
        }
    }

    /// Fraction of segment-scheduling lookups served from the memo.
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }

    /// Candidate-scoring throughput of the whole search, in candidates per
    /// second of search wall time (the rewrite loop's headline metric).
    pub fn candidates_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.candidates_scored as f64 / secs
        } else {
            0.0
        }
    }
}

/// Result of a [`RewriteSearch`] run.
#[derive(Debug, Clone)]
pub struct RewriteSearchOutcome {
    /// The best graph found (the input graph when nothing improved).
    pub graph: Graph,
    /// Every accepted application, in order.
    pub applied: Vec<AppliedRewrite>,
    /// Run report (iterations, memo counters, stop reason, wall time).
    pub summary: RewriteSearchSummary,
    /// Scheduling effort spent scoring candidates (absorbable into a
    /// pipeline's total via [`ScheduleStats::absorb`]).
    pub stats: ScheduleStats,
}

impl RewriteSearchOutcome {
    /// Whether any rewrite was accepted.
    pub fn changed(&self) -> bool {
        !self.applied.is_empty()
    }
}

/// The iterative, cost-guided rewrite engine (see the module docs).
///
/// # Example
///
/// ```
/// use serenity_core::rewrite::Rewriter;
/// use serenity_core::backend::CompileContext;
/// use serenity_ir::{DType, GraphBuilder, Padding};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new("cell");
/// let x = b.image_input("x", 8, 8, 8, DType::F32);
/// let l = b.conv1x1(x, 16)?;
/// let r = b.conv1x1(x, 16)?;
/// let cat = b.concat(&[l, r])?;
/// let y = b.conv(cat, 8, (3, 3), (1, 1), Padding::Same)?;
/// b.mark_output(y);
/// let g = b.finish();
///
/// let outcome = Rewriter::standard().cost_guided().run(&g, &CompileContext::unconstrained())?;
/// assert!(outcome.changed());
/// assert!(outcome.summary.final_peak_bytes < outcome.summary.initial_peak_bytes);
/// # Ok(())
/// # }
/// ```
pub struct RewriteSearch {
    rules: Vec<Arc<dyn RewriteRule + Send + Sync>>,
    config: RewriteSearchConfig,
    scorer: Arc<dyn SchedulerBackend>,
}

impl std::fmt::Debug for RewriteSearch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RewriteSearch")
            .field("rules", &self.rules.iter().map(|r| r.name()).collect::<Vec<_>>())
            .field("config", &self.config)
            .field("scorer", &self.scorer.name())
            .finish()
    }
}

/// One candidate: a spliced graph, the chain of applications that produced
/// it, and the splice bookkeeping the search needs afterwards. Names and
/// [`AppliedRewrite`] records for the *head* application are resolved
/// lazily from the current graph — only kept or narrated candidates pay for
/// the string clones.
struct Candidate {
    graph: Graph,
    /// Whole-graph fingerprint, updated incrementally across the chain.
    fp: FingerprintCache,
    /// The head site (ids in the pre-candidate graph).
    head: RewriteSite,
    /// Chain records beyond the head, with names captured from the
    /// intermediate graphs they applied to (chains are rare).
    tail: Vec<AppliedRewrite>,
    /// Pre-candidate id → candidate id, composed across the chain.
    node_map: Vec<Option<NodeId>>,
    /// Nodes created by the chain that survive in the candidate graph.
    added: Vec<NodeId>,
}

impl Candidate {
    /// Number of rewrite applications in this candidate's chain.
    fn applications(&self) -> usize {
        1 + self.tail.len()
    }

    /// Resolves the head application's record against the graph the head
    /// site belongs to.
    fn head_record(&self, current: &Graph) -> AppliedRewrite {
        AppliedRewrite {
            rule: self.head.rule,
            concat: current.node(self.head.concat).name.clone(),
            consumer: current.node(self.head.consumer).name.clone(),
            branches: self.head.branches,
        }
    }

    /// The full application log of this candidate.
    fn records(&self, current: &Graph) -> Vec<AppliedRewrite> {
        let mut records = Vec::with_capacity(self.applications());
        records.push(self.head_record(current));
        records.extend(self.tail.iter().cloned());
        records
    }
}

/// A candidate's comparison key: `(fits, traffic, peak)` under a steering
/// [`CapacityTarget`], `(0, 0, peak)` otherwise — so lexicographic
/// comparison degenerates to the classic peak comparison when no capacity
/// steers the search. Smaller wins.
type ScoreKey = (u64, u64, u64);

/// What scoring one candidate produced (computed by a worker, consumed by
/// the deterministic replay).
//
// `Done` is the overwhelmingly common variant and every instance is
// short-lived scratch consumed by the same iteration's replay — boxing it
// would cost an allocation per scored candidate for nothing.
#[allow(clippy::large_enum_variant)]
enum Scored {
    Done {
        peak: u64,
        /// The candidate's capacity rank; `None` when no steering target is
        /// set.
        rank: Option<ScoreKey>,
        stats: ScheduleStats,
        /// Events the scoring run emitted, buffered for ordered replay.
        events: Vec<CompileEvent>,
        /// The worker's private memo layer, absorbed into the shared memo
        /// during replay (in site order).
        memo_layer: ScheduleMemo,
    },
    Failed(ScheduleError),
}

/// One site's slot in an iteration: the built candidate (if building
/// succeeded), an optional earlier structural twin, and the scoring result.
struct Slot {
    candidate: Option<Candidate>,
    dup_of: Option<usize>,
    result: Option<Scored>,
}

impl RewriteSearch {
    /// A search over `rules` (priority order) with default config and the
    /// default cheap scorer (bounded-width beam search).
    pub fn new(rules: Vec<Arc<dyn RewriteRule + Send + Sync>>) -> Self {
        RewriteSearch {
            rules,
            config: RewriteSearchConfig::default(),
            scorer: Arc::new(BeamBackend::default()),
        }
    }

    /// Replaces the search configuration.
    pub fn config(mut self, config: RewriteSearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the backend that scores candidates. Scoring cost dominates the
    /// search, so a cheap backend (`beam`, the default) is usually right;
    /// the pipeline re-schedules the final winner with its full backend
    /// regardless, so an approximate scorer can mis-rank candidates but
    /// never degrade the compiled result below rewrite-off.
    pub fn score_backend(mut self, backend: Arc<dyn SchedulerBackend>) -> Self {
        self.scorer = backend;
        self
    }

    /// All sites of all rules on `graph`, canonically ordered.
    fn sites(&self, graph: &Graph) -> Vec<(usize, RewriteSite)> {
        let mut sites: Vec<(usize, RewriteSite)> = self
            .rules
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.find(graph).into_iter().map(move |s| (i, s)))
            .collect();
        sites.sort_by_key(|(i, s)| (s.consumer, s.concat, *i));
        sites
    }

    /// Sites on `graph` after accepting `winner`, computed incrementally:
    /// the prior site list is remapped through the winner's composed node
    /// map and re-validated, and only consumers adjacent to the winner's
    /// added nodes are scanned fresh — every other node's neighborhood is
    /// untouched by the splice, so no new site can appear there. Equal to a
    /// full [`RewriteSearch::sites`] scan (debug-asserted).
    fn rescan_after(
        &self,
        graph: &Graph,
        prior: &[(usize, RewriteSite)],
        winner: &Candidate,
    ) -> Vec<(usize, RewriteSite)> {
        let mut consumers: Vec<NodeId> = Vec::with_capacity(prior.len() + winner.added.len() * 2);
        for (_, site) in prior {
            if let Some(v) = winner.node_map.get(site.consumer.index()).copied().flatten() {
                consumers.push(v);
            }
        }
        for &a in &winner.added {
            consumers.push(a);
            consumers.extend_from_slice(graph.succs(a));
        }
        consumers.sort_unstable();
        consumers.dedup();
        let mut sites: Vec<(usize, RewriteSite)> = Vec::new();
        for &v in &consumers {
            for (i, rule) in self.rules.iter().enumerate() {
                if let Some(site) = rule.match_at(graph, v) {
                    sites.push((i, site));
                }
            }
        }
        sites.sort_by_key(|(i, s)| (s.consumer, s.concat, *i));
        debug_assert_eq!(
            sites,
            self.sites(graph),
            "incremental site rescan must equal a full scan"
        );
        sites
    }

    /// The first enabling site exposed by `added` nodes: for each rule in
    /// priority order, the lowest-consumer site whose concat is one of the
    /// added nodes (the same selection a full `find` over the graph made
    /// before site discovery became incremental).
    fn enabling_site(
        &self,
        graph: &Graph,
        added: &[NodeId],
    ) -> Option<(&Arc<dyn RewriteRule + Send + Sync>, RewriteSite)> {
        for rule in &self.rules {
            let mut best: Option<RewriteSite> = None;
            for &a in added {
                for &v in graph.succs(a) {
                    if best.as_ref().is_some_and(|b| b.consumer <= v) {
                        continue;
                    }
                    if let Some(site) = rule.match_at(graph, v) {
                        if site.concat == a {
                            best = Some(site);
                        }
                    }
                }
            }
            if let Some(site) = best {
                return Some((rule, site));
            }
        }
        None
    }

    /// Builds the candidate for `site`: splices it in place, then chains any
    /// rewrite whose concat was *created* by the previous application (an
    /// enabling chain — activation pushdown exposing `concat→conv`, a slab
    /// concat cascading into channel-wise partitioning). The candidate's
    /// fingerprint and node map are maintained incrementally across the
    /// chain.
    fn build_candidate(
        &self,
        current: &Graph,
        current_fp: &FingerprintCache,
        rule: &Arc<dyn RewriteRule + Send + Sync>,
        site: &RewriteSite,
        max_len: usize,
    ) -> Result<Candidate, GraphError> {
        let mut delta = rule.apply_delta(current, site)?;
        let mut fp = current_fp.update(&delta.graph, delta.splice.first_changed);
        let mut node_map = std::mem::take(&mut delta.splice.node_map);
        let mut added = delta.added.clone();
        let mut tail: Vec<AppliedRewrite> = Vec::new();
        while 1 + tail.len() < max_len {
            let Some((next_rule, next_site)) = self.enabling_site(&delta.graph, &added) else {
                break;
            };
            tail.push(AppliedRewrite {
                rule: next_site.rule,
                concat: delta.graph.node(next_site.concat).name.clone(),
                consumer: delta.graph.node(next_site.consumer).name.clone(),
                branches: next_site.branches,
            });
            let next = next_rule.apply_delta(&delta.graph, &next_site)?;
            fp = fp.update(&next.graph, next.splice.first_changed);
            for slot in node_map.iter_mut() {
                *slot = slot.and_then(|v| next.splice.node_map[v.index()]);
            }
            added = added
                .iter()
                .filter_map(|a| next.splice.node_map[a.index()])
                .chain(next.added.iter().copied())
                .collect();
            delta = next;
        }
        Ok(Candidate { graph: delta.graph, fp, head: site.clone(), tail, node_map, added })
    }

    /// Scores one candidate: a fresh divide-and-conquer run of the scoring
    /// backend over a private memo layer, with events buffered when a sink
    /// is installed.
    fn score_candidate(
        &self,
        candidate: &Candidate,
        bound_seed: Option<u64>,
        target: Option<CapacityTarget>,
        memo: &Arc<ScheduleMemo>,
        ctx: &CompileContext,
    ) -> Scored {
        let events: Arc<Mutex<Vec<CompileEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let child_ctx = if ctx.has_sink() {
            let buffer = Arc::clone(&events);
            ctx.with_event_sink(Some(Arc::new(move |e: &CompileEvent| {
                buffer.lock().expect("event buffer").push(e.clone());
            })))
        } else {
            ctx.with_event_sink(None)
        };
        // The search only accepts candidates scoring `<=` the current key,
        // so seed the scorer with the iteration-start peak as a *tie-losing*
        // incumbent: states strictly above it are pruned (they cannot be
        // accepted), while a candidate that merely ties — a plateau step the
        // search still wants — completes untouched. A candidate cut off by
        // the bound surfaces as `Failed(BoundBeaten)` and is discarded by
        // the deterministic replay exactly like any unschedulable one.
        // Under a steering capacity target the caller passes `None` while
        // the current graph spills: a higher-peak candidate can then still
        // win on traffic, so the peak bound must not prune at all.
        let child_ctx = match bound_seed {
            Some(peak) => child_ctx.with_bound(Some(BoundHandle::seeded_weak(peak))),
            None => child_ctx.with_bound(None),
        };
        let layer = Arc::new(ScheduleMemo::layered(Arc::clone(memo)));
        // A panicking scoring backend must not take the worker (and with it
        // the whole search) down: contain the unwind and fail the candidate,
        // which the replay loop then skips deterministically.
        let outcome = {
            let scorer =
                DivideAndConquer::new().backend(Arc::clone(&self.scorer)).memo(Arc::clone(&layer));
            catch_unwind(AssertUnwindSafe(|| {
                scorer.schedule_with_ctx(&candidate.graph, &child_ctx)
            }))
        };
        match outcome {
            Ok(Ok(scored)) => {
                let rank = match target {
                    Some(t) => match crate::capacity::assess_for_driver(
                        &candidate.graph,
                        &scored.schedule.order,
                        t,
                    ) {
                        Ok(report) => Some(report.rank(scored.schedule.peak_bytes)),
                        Err(err) => return Scored::Failed(err),
                    },
                    None => None,
                };
                let memo_layer =
                    Arc::try_unwrap(layer).ok().expect("scorer dropped its memo handle");
                Scored::Done {
                    peak: scored.schedule.peak_bytes,
                    rank,
                    stats: scored.total_stats,
                    events: std::mem::take(&mut events.lock().expect("event buffer")),
                    memo_layer,
                }
            }
            Ok(Err(err)) => Scored::Failed(err),
            Err(payload) => Scored::Failed(ScheduleError::Panicked {
                detail: crate::fault::panic_message(payload.as_ref()),
            }),
        }
    }

    /// Builds and scores one iteration's candidates. Building and twin
    /// detection are serial and deterministic; scoring fans out across
    /// `threads` workers (inline when 1). Only the first
    /// `remaining_budget` successfully built sites are processed — exactly
    /// the set a serial sweep would have scored before the budget tripped.
    #[allow(clippy::too_many_arguments)]
    fn build_and_score(
        &self,
        current: &Graph,
        current_fp: &FingerprintCache,
        site_list: &[(usize, RewriteSite)],
        remaining_budget: usize,
        max_chain: usize,
        bound_seed: Option<u64>,
        target: Option<CapacityTarget>,
        memo: &Arc<ScheduleMemo>,
        ctx: &CompileContext,
        candidate_build: &mut Duration,
    ) -> Vec<Slot> {
        // Phase 1 (serial): splice the candidates and detect structural
        // twins via the incremental whole-graph fingerprint (confirmed with
        // an exact structural compare, so collisions cannot alias).
        let built_at = Instant::now();
        let mut slots: Vec<Slot> = Vec::with_capacity(site_list.len());
        let mut built_ok = 0usize;
        for (rule_idx, site) in site_list {
            if built_ok >= remaining_budget {
                break; // replay stops here too: candidate budget
            }
            let candidate = self
                .build_candidate(current, current_fp, &self.rules[*rule_idx], site, max_chain)
                .ok();
            built_ok += usize::from(candidate.is_some());
            let dup_of = candidate.as_ref().and_then(|c| {
                slots.iter().position(|other| {
                    other.candidate.as_ref().is_some_and(|o| {
                        o.fp.hash() == c.fp.hash() && structural_eq(&o.graph, &c.graph)
                    })
                })
            });
            slots.push(Slot { candidate, dup_of, result: None });
        }
        *candidate_build += built_at.elapsed();

        // Phase 2 (parallel): score each twin-free representative once.
        let reps: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.candidate.is_some() && s.dup_of.is_none())
            .map(|(i, _)| i)
            .collect();
        let threads = self.config.threads.max(1).min(reps.len().max(1));
        if threads <= 1 {
            for &i in &reps {
                let scored = self.score_candidate(
                    slots[i].candidate.as_ref().expect("rep built"),
                    bound_seed,
                    target,
                    memo,
                    ctx,
                );
                slots[i].result = Some(scored);
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let results: Vec<Mutex<Option<Scored>>> =
                reps.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        let at = cursor.fetch_add(1, Ordering::Relaxed);
                        if at >= reps.len() {
                            break;
                        }
                        let slot = &slots[reps[at]];
                        let scored = self.score_candidate(
                            slot.candidate.as_ref().expect("rep built"),
                            bound_seed,
                            target,
                            memo,
                            ctx,
                        );
                        *results[at].lock().expect("result slot") = Some(scored);
                    });
                }
            });
            for (at, &i) in reps.iter().enumerate() {
                slots[i].result = results[at].lock().expect("result slot").take();
            }
        }
        slots
    }

    /// Runs the search with no deadline, cancellation, or event sink.
    ///
    /// # Errors
    ///
    /// As [`RewriteSearch::run`].
    pub fn run_unconstrained(&self, graph: &Graph) -> Result<RewriteSearchOutcome, ScheduleError> {
        self.run(graph, &CompileContext::unconstrained())
    }

    /// Runs the iterative search on `graph` under `ctx`.
    ///
    /// A graph with no rewrite sites at all returns immediately — no
    /// scheduling happens, and the summary's peak fields are both zero
    /// ("never scored"). A deadline expiring *mid-search* is not an error:
    /// the loop stops and the best graph found so far is returned (with
    /// [`RewriteStop::Deadline`]). Cancellation propagates as
    /// [`ScheduleError::Cancelled`] — including from scoring worker threads
    /// — and scoring failures of the *input* graph propagate as-is — if the
    /// input cannot be scheduled at all the search has no cost signal to
    /// work with.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Cancelled`], or any error scoring the input graph.
    pub fn run(
        &self,
        graph: &Graph,
        ctx: &CompileContext,
    ) -> Result<RewriteSearchOutcome, ScheduleError> {
        let started = Instant::now();
        let mut site_scan = Duration::ZERO;
        let mut candidate_build = Duration::ZERO;
        // Site-free graphs (every sum-aggregation RandWire, plain CNNs)
        // short-circuit before any scheduling: pattern matching is the only
        // cost, exactly like the blind rewriter's no-match path. The
        // enumeration is reused as iteration 0's site list otherwise.
        let scan_at = Instant::now();
        let mut sites = self.sites(graph);
        site_scan += scan_at.elapsed();
        if sites.is_empty() {
            let summary = RewriteSearchSummary {
                site_scan,
                ..RewriteSearchSummary::unscored(RewriteStop::FixedPoint, started.elapsed())
            };
            ctx.emit(CompileEvent::RewriteSearchFinished {
                iterations: 0,
                candidates: 0,
                stop: RewriteStop::FixedPoint,
                memo_hits: 0,
                memo_misses: 0,
                initial_peak_bytes: 0,
                final_peak_bytes: 0,
            });
            return Ok(RewriteSearchOutcome {
                graph: graph.clone(),
                applied: Vec::new(),
                summary,
                stats: ScheduleStats::default(),
            });
        }
        let target = ctx.capacity().filter(CapacityTarget::steers_search);
        // The run's memo: every scoring pass reads it (candidates through a
        // private layer), and the context's compile cache is only written
        // once, when the run ends.
        let memo = Arc::new(ScheduleMemo::new());
        let scorer = DivideAndConquer::new().backend(Arc::clone(&self.scorer));

        let mut stats = ScheduleStats::default();
        let initial = scorer.clone().memo(Arc::clone(&memo)).schedule_with_ctx(graph, ctx)?;
        stats.absorb(&initial.total_stats);
        let initial_peak = initial.schedule.peak_bytes;
        let initial_key: ScoreKey = match target {
            Some(t) => crate::capacity::assess_for_driver(graph, &initial.schedule.order, t)?
                .rank(initial_peak),
            None => (0, 0, initial_peak),
        };

        let mut current = graph.clone();
        let mut current_fp = FingerprintCache::new(graph);
        let mut current_peak = initial_peak;
        let mut current_key = initial_key;
        let mut applied: Vec<AppliedRewrite> = Vec::new();
        let mut candidates_scored = 0usize;
        let mut iterations = 0usize;
        // Snapshot at the last *strict* improvement: what the search
        // returns. Plateau (key-neutral) steps advance `current` so later
        // wins can build on them, but are only banked once they pay off.
        let mut best_graph = graph.clone();
        let mut best_peak = initial_peak;
        let mut best_key = initial_key;
        let mut best_applied = 0usize;

        let stop = 'search: loop {
            if iterations >= self.config.max_iterations {
                break RewriteStop::IterationCap;
            }
            let remaining_applications = self.config.max_applications.saturating_sub(applied.len());
            if remaining_applications == 0 {
                break RewriteStop::ApplicationCap;
            }
            if sites.is_empty() {
                break RewriteStop::FixedPoint;
            }
            if ctx.options().cancel.is_cancelled() {
                return Err(ScheduleError::Cancelled);
            }
            if ctx.check().is_err() {
                break RewriteStop::Deadline;
            }

            let site_list = std::mem::take(&mut sites);
            let remaining_budget = self.config.max_candidates.saturating_sub(candidates_scored);
            // Seed the scorer's pruning bound only while the current graph
            // fits (or no capacity steers): against a spilling current, a
            // higher-peak candidate can still win on traffic.
            let bound_seed = (current_key.0 == 0).then_some(current_peak);
            let mut slots = self.build_and_score(
                &current,
                &current_fp,
                &site_list,
                remaining_budget,
                remaining_applications.min(self.config.max_chain),
                bound_seed,
                target,
                &memo,
                ctx,
                &mut candidate_build,
            );

            // Deterministic replay in canonical site order: budget
            // accounting, stats, events, memo merging, and winner selection
            // all happen here, so any thread count is bit-identical.
            let mut best: Option<(ScoreKey, usize)> = None;
            let mut losers: Vec<usize> = Vec::new();
            let mut budget_hit = slots.len() < site_list.len();
            for idx in 0..slots.len() {
                if candidates_scored >= self.config.max_candidates {
                    budget_hit = true;
                    break;
                }
                if slots[idx].candidate.is_none() {
                    // A site invalidated between find and apply is a rule
                    // bug upstream; here it only costs us the candidate.
                    continue;
                }
                candidates_scored += 1;
                let source = slots[idx].dup_of.unwrap_or(idx);
                let (peak, rank, scored_stats) = match slots[source].result.as_ref() {
                    Some(Scored::Done { peak, rank, stats, .. }) => (*peak, *rank, *stats),
                    Some(Scored::Failed(ScheduleError::Cancelled)) => {
                        return Err(ScheduleError::Cancelled);
                    }
                    Some(Scored::Failed(ScheduleError::DeadlineExceeded { .. })) => {
                        break 'search RewriteStop::Deadline;
                    }
                    // Cut off by the incumbent ceiling: the candidate provably
                    // scores worse than the current peak, which the search
                    // would have rejected anyway — a saved schedule, not a
                    // lost candidate.
                    Some(Scored::Failed(ScheduleError::BoundBeaten { .. })) => {
                        stats.bound_beaten_exits += 1;
                        continue;
                    }
                    // Unschedulable candidate (e.g. backend size cap):
                    // discard it, keep searching.
                    Some(Scored::Failed(_)) => continue,
                    None => unreachable!("every built slot's representative was scored"),
                };
                if source == idx {
                    // First occurrence: replay the buffered scoring events
                    // and fold the worker's memo layer into the shared memo.
                    if let Some(Scored::Done { events, memo_layer, .. }) = slots[idx].result.take()
                    {
                        for event in &events {
                            ctx.emit(event.clone());
                        }
                        memo.absorb(memo_layer);
                        slots[idx].result = Some(Scored::Done {
                            peak,
                            rank,
                            stats: scored_stats,
                            events: Vec::new(),
                            memo_layer: ScheduleMemo::new(),
                        });
                    }
                }
                stats.absorb(&scored_stats);
                if ctx.has_sink() {
                    let candidate = slots[idx].candidate.as_ref().expect("slot built");
                    ctx.emit(CompileEvent::RewriteCandidateScored {
                        rule: candidate.head.rule,
                        concat: current.node(candidate.head.concat).name.clone(),
                        consumer: current.node(candidate.head.consumer).name.clone(),
                        branches: candidate.head.branches,
                        peak_bytes: peak,
                        current_peak_bytes: current_peak,
                    });
                }
                let key = rank.unwrap_or((0, 0, peak));
                let acceptable = key <= current_key;
                let beats_best = best.as_ref().is_none_or(|(b, _)| key < *b);
                if acceptable && beats_best {
                    if let Some((_, old)) = best.replace((key, idx)) {
                        losers.push(old);
                    }
                } else {
                    losers.push(idx);
                }
            }

            if ctx.has_sink() {
                for idx in losers.drain(..) {
                    let candidate = slots[idx].candidate.as_ref().expect("loser was built");
                    let peak = match slots[slots[idx].dup_of.unwrap_or(idx)].result.as_ref() {
                        Some(Scored::Done { peak, .. }) => *peak,
                        _ => continue,
                    };
                    ctx.emit(CompileEvent::RewriteCandidateRejected {
                        rule: candidate.head.rule,
                        concat: current.node(candidate.head.concat).name.clone(),
                        consumer: current.node(candidate.head.consumer).name.clone(),
                        peak_bytes: peak,
                    });
                }
            }
            match best {
                Some((key, winner_idx)) => {
                    let winner = slots[winner_idx].candidate.take().expect("winner slot was built");
                    if ctx.has_sink() {
                        ctx.emit(CompileEvent::RewriteCandidateKept {
                            rule: winner.head.rule,
                            concat: current.node(winner.head.concat).name.clone(),
                            consumer: current.node(winner.head.consumer).name.clone(),
                            iteration: iterations,
                            peak_bytes: key.2,
                        });
                    }
                    applied.extend(winner.records(&current));
                    let scan_at = Instant::now();
                    sites = self.rescan_after(&winner.graph, &site_list, &winner);
                    site_scan += scan_at.elapsed();
                    current = winner.graph;
                    current_fp = winner.fp;
                    current_peak = key.2;
                    current_key = key;
                    iterations += 1;
                    if current_key < best_key {
                        best_graph = current.clone();
                        best_peak = current_peak;
                        best_key = current_key;
                        best_applied = applied.len();
                    }
                }
                None if budget_hit => break RewriteStop::CandidateBudget,
                None => break RewriteStop::FixedPoint,
            }
            if budget_hit {
                break RewriteStop::CandidateBudget;
            }
        };

        // Every scoring layer died with its iteration, so the run memo is
        // whole: publish it to the compile cache for later requests.
        let memo = Arc::try_unwrap(memo).ok().expect("scoring layers outlived their iteration");
        scorer.publish(memo, ctx);

        // Return the last strictly-improving snapshot, dropping trailing
        // plateau steps that never paid off.
        applied.truncate(best_applied);
        let summary = RewriteSearchSummary {
            iterations,
            candidates_scored,
            applied: applied.len(),
            stop,
            memo_hits: stats.memo_hits,
            memo_misses: stats.memo_misses,
            initial_peak_bytes: initial_peak,
            final_peak_bytes: best_peak,
            kept: !applied.is_empty(),
            wall: started.elapsed(),
            site_scan,
            candidate_build,
        };
        ctx.emit(CompileEvent::RewriteSearchFinished {
            iterations: summary.iterations,
            candidates: summary.candidates_scored,
            stop: summary.stop,
            memo_hits: summary.memo_hits,
            memo_misses: summary.memo_misses,
            initial_peak_bytes: summary.initial_peak_bytes,
            final_peak_bytes: summary.final_peak_bytes,
        });
        Ok(RewriteSearchOutcome { graph: best_graph, applied, summary, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DpBackend;
    use crate::rewrite::Rewriter;
    use serenity_ir::{DType, GraphBuilder, Padding};

    fn concat_cell(branches: usize, channels: usize) -> Graph {
        let mut b = GraphBuilder::new("cell");
        let x = b.image_input("x", 8, 8, 8, DType::F32);
        let ins: Vec<_> = (0..branches).map(|_| b.conv1x1(x, channels).unwrap()).collect();
        let cat = b.concat(&ins).unwrap();
        let y = b.conv(cat, 8, (3, 3), (1, 1), Padding::Same).unwrap();
        b.mark_output(y);
        b.finish()
    }

    #[test]
    fn accepts_only_strict_improvements() {
        let g = concat_cell(3, 16);
        let outcome = Rewriter::standard().cost_guided().run_unconstrained(&g).unwrap();
        assert!(outcome.changed());
        assert!(outcome.summary.final_peak_bytes < outcome.summary.initial_peak_bytes);
        assert_eq!(outcome.summary.stop, RewriteStop::FixedPoint);
        assert!(outcome.graph.validate().is_ok());
    }

    #[test]
    fn plain_graph_reaches_fixed_point_unchanged() {
        let mut b = GraphBuilder::new("plain");
        let x = b.image_input("x", 8, 8, 4, DType::F32);
        let y = b.conv(x, 8, (3, 3), (1, 1), Padding::Same).unwrap();
        b.mark_output(y);
        let g = b.finish();
        let outcome = Rewriter::standard().cost_guided().run_unconstrained(&g).unwrap();
        assert!(!outcome.changed());
        assert_eq!(outcome.graph, g);
        assert_eq!(outcome.summary.stop, RewriteStop::FixedPoint);
        assert_eq!(outcome.summary.candidates_scored, 0);
    }

    #[test]
    fn pushdown_chain_reaches_through_activations() {
        // relu between concat and conv: pushdown alone is footprint-neutral,
        // so only the chained candidate (pushdown + channel-wise) can win.
        let mut b = GraphBuilder::new("tail");
        let x = b.image_input("x", 8, 8, 4, DType::F32);
        let s1 = b.conv1x1(x, 12).unwrap();
        let s2 = b.conv1x1(x, 12).unwrap();
        let s3 = b.conv1x1(x, 12).unwrap();
        let cat = b.concat(&[s1, s2, s3]).unwrap();
        let r = b.relu(cat).unwrap();
        let c = b.conv1x1(r, 8).unwrap();
        b.mark_output(c);
        let g = b.finish();

        let outcome = Rewriter::standard().cost_guided().run_unconstrained(&g).unwrap();
        assert!(outcome.changed(), "the enabling chain must fire");
        assert!(outcome.applied.iter().any(|a| a.rule == "activation-pushdown"));
        assert!(outcome.applied.iter().any(|a| a.rule == "channel-wise"));
        assert!(outcome.summary.final_peak_bytes < outcome.summary.initial_peak_bytes);
    }

    /// Two independent concat→conv sites feeding one output add.
    fn two_site_cell() -> Graph {
        let mut b = GraphBuilder::new("two");
        let x = b.image_input("x", 8, 8, 8, DType::F32);
        let mut arms = Vec::new();
        for _ in 0..2 {
            let ins: Vec<_> = (0..3).map(|_| b.conv1x1(x, 16).unwrap()).collect();
            let cat = b.concat(&ins).unwrap();
            arms.push(b.conv(cat, 8, (3, 3), (1, 1), Padding::Same).unwrap());
        }
        let out = b.add(&arms).unwrap();
        b.mark_output(out);
        b.finish()
    }

    #[test]
    fn candidate_budget_stops_the_loop() {
        let g = two_site_cell();
        let outcome = Rewriter::standard()
            .cost_guided()
            .config(RewriteSearchConfig { max_candidates: 1, ..Default::default() })
            .run_unconstrained(&g)
            .unwrap();
        assert_eq!(outcome.summary.candidates_scored, 1);
        assert_eq!(outcome.summary.stop, RewriteStop::CandidateBudget);
        // One candidate is a plateau step here (the other arm's concat still
        // dominates); the budget cut the search before it paid off, so the
        // snapshot semantics return the unchanged input.
        assert!(!outcome.changed());
        assert_eq!(outcome.graph, g);
    }

    #[test]
    fn plateau_traversal_rewrites_symmetric_arms() {
        // Neither arm's rewrite improves the max-peak alone; only after both
        // are partitioned does the peak drop. Plateau-tolerant acceptance
        // must find the two-step win.
        let g = two_site_cell();
        let outcome = Rewriter::standard().cost_guided().run_unconstrained(&g).unwrap();
        assert!(outcome.changed());
        assert!(outcome.summary.final_peak_bytes < outcome.summary.initial_peak_bytes);
        assert!(
            outcome.applied.iter().filter(|a| a.rule == "channel-wise").count() >= 2,
            "both arms must be rewritten, got {:?}",
            outcome.applied
        );
    }

    #[test]
    fn application_cap_bounds_chains_too() {
        let g = concat_cell(4, 16);
        let outcome =
            Rewriter::standard().max_applications(1).cost_guided().run_unconstrained(&g).unwrap();
        assert!(outcome.applied.len() <= 1, "cap must bound total applications");
    }

    #[test]
    fn zero_iterations_is_a_no_op() {
        let g = concat_cell(3, 16);
        let outcome = Rewriter::standard()
            .cost_guided()
            .config(RewriteSearchConfig { max_iterations: 0, ..Default::default() })
            .run_unconstrained(&g)
            .unwrap();
        assert!(!outcome.changed());
        assert_eq!(outcome.graph, g);
        assert_eq!(outcome.summary.stop, RewriteStop::IterationCap);
    }

    #[test]
    fn search_matches_with_exact_scorer() {
        // With DP scoring, the search result on this cell equals the blind
        // fixpoint's (every blind application here is genuinely beneficial).
        let g = concat_cell(3, 16);
        let blind = Rewriter::standard().rewrite(&g);
        let searched = Rewriter::standard()
            .cost_guided()
            .score_backend(Arc::new(DpBackend::default()))
            .run_unconstrained(&g)
            .unwrap();
        let blind_peak =
            crate::dp::DpScheduler::new().schedule(&blind.graph).unwrap().schedule.peak_bytes;
        let searched_peak =
            crate::dp::DpScheduler::new().schedule(&searched.graph).unwrap().schedule.peak_bytes;
        assert_eq!(searched_peak, blind_peak);
    }

    #[test]
    fn runs_are_deterministic() {
        let g = concat_cell(4, 12);
        let a = Rewriter::standard().cost_guided().run_unconstrained(&g).unwrap();
        let b = Rewriter::standard().cost_guided().run_unconstrained(&g).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.applied, b.applied);
        assert_eq!(a.summary.final_peak_bytes, b.summary.final_peak_bytes);
        assert_eq!(a.summary.candidates_scored, b.summary.candidates_scored);
    }

    #[test]
    fn cancellation_propagates() {
        use crate::backend::{CancelToken, CompileOptions};
        let g = concat_cell(3, 16);
        let token = CancelToken::new();
        token.cancel();
        let ctx = CompileContext::new(CompileOptions::new().cancel_token(token));
        let err = Rewriter::standard().cost_guided().run(&g, &ctx).unwrap_err();
        assert!(matches!(err, ScheduleError::Cancelled));
    }

    /// Scores untouched graphs via beam search but panics on any graph
    /// containing a partitioned node — i.e. on every rewrite candidate.
    struct PanicOnRewritten {
        inner: BeamBackend,
    }

    impl SchedulerBackend for PanicOnRewritten {
        fn name(&self) -> &str {
            "panic-on-rewritten"
        }

        fn schedule(
            &self,
            graph: &Graph,
            ctx: &CompileContext,
        ) -> Result<crate::backend::BackendOutcome, ScheduleError> {
            if graph.nodes().any(|n| n.name.contains("_part")) {
                panic!("deliberate scorer panic");
            }
            self.inner.schedule(graph, ctx)
        }
    }

    #[test]
    fn panicking_scorer_fails_the_candidate_not_the_search() {
        // Every candidate's scoring panics; the panic is contained, the
        // candidates are all discarded, and the search converges on the
        // unchanged input instead of unwinding.
        let g = concat_cell(3, 16);
        let outcome = Rewriter::standard()
            .cost_guided()
            .score_backend(Arc::new(PanicOnRewritten { inner: BeamBackend::default() }))
            .run_unconstrained(&g)
            .unwrap();
        assert!(!outcome.changed());
        assert_eq!(outcome.graph, g);
        assert_eq!(outcome.summary.stop, RewriteStop::FixedPoint);
    }

    #[test]
    fn panicking_scorer_is_contained_on_worker_threads() {
        // Same containment under the scoped worker pool: no worker unwind
        // may poison the scope or abort the process.
        let g = two_site_cell();
        let outcome = Rewriter::standard()
            .cost_guided()
            .config(RewriteSearchConfig { threads: 4, ..Default::default() })
            .score_backend(Arc::new(PanicOnRewritten { inner: BeamBackend::default() }))
            .run_unconstrained(&g)
            .unwrap();
        assert!(!outcome.changed());
        assert_eq!(outcome.graph, g);
    }

    #[test]
    fn throughput_metrics_are_populated() {
        let g = concat_cell(3, 16);
        let outcome = Rewriter::standard().cost_guided().run_unconstrained(&g).unwrap();
        assert!(outcome.summary.candidates_per_sec() > 0.0);
        assert!(outcome.summary.candidate_build > Duration::ZERO);
        assert!(outcome.summary.site_scan > Duration::ZERO);
    }
}
