//! SERENITY: memory-aware scheduling of irregularly wired neural networks.
//!
//! This crate implements the primary contribution of *"Ordering Chaos:
//! Memory-Aware Scheduling of Irregularly Wired Neural Networks for Edge
//! Devices"* (Ahn et al., MLSys 2020), organized around an open scheduling
//! API:
//!
//! * [`backend`] — the [`SchedulerBackend`]
//!   trait every strategy implements, plus the compile control plane:
//!   [`CompileOptions`] (wall-clock deadline,
//!   shared [`CancelToken`]) and structured
//!   [`CompileEvent`]s replacing silent compilation.
//! * [`registry`] — [`BackendRegistry`], the
//!   name → factory map behind `serenity schedule --scheduler <name>`, and
//!   [`PortfolioBackend`], which runs several
//!   backends and keeps the minimum-peak schedule.
//! * [`dp::DpScheduler`] — the dynamic-programming scheduler of §3.1
//!   (Algorithm 1). Partial schedules are keyed by their *zero-indegree set
//!   signature*; one optimal-peak state is memoized per signature, yielding
//!   the provably footprint-optimal schedule in `O(|V|·2^|V|)` instead of
//!   `O(|V|!)`. Backend name: `dp`.
//! * [`budget::AdaptiveSoftBudget`] — the meta-search of §3.2 (Algorithm 2):
//!   a binary search over the pruning budget τ, driven by the
//!   `{solution, no-solution, timeout}` flags of budget-pruned DP runs. Two
//!   deviations from the paper: τ starts at the smaller of the Kahn peak and
//!   a width-16 beam's peak, and probes stay strictly above the highest
//!   budget that returned no solution. Both start and bounds are proven, so
//!   every solved probe returns the unbudgeted DP's order; only the probe
//!   count changes. Backend name: `adaptive` (the default).
//! * [`beam::BeamScheduler`] — bounded-width beam search, a polynomial
//!   fallback for graphs beyond exact reach. Backend name: `beam`.
//! * [`baseline`] — the schedulers SERENITY is compared against: Kahn
//!   (TensorFlow Lite), DFS, random orders, a greedy heuristic, and
//!   brute-force exhaustive search. Backend names: `kahn`, `dfs`, `greedy`,
//!   `brute-force`.
//! * [`divide`] — divide-and-conquer over the single-node cuts of hourglass
//!   graphs (§3.2, Figure 7); any backend schedules the segments.
//! * [`rewrite`] — identity graph rewriting (§3.3): channel-wise partitioning
//!   of `concat→conv` and kernel-wise partitioning of `concat→depthwise-conv`
//!   patterns, keeping the network's arithmetic output identical while
//!   lowering the achievable peak footprint. Rules implement the open
//!   [`RewriteRule`](rewrite::RewriteRule) trait (site enumeration +
//!   apply-as-delta) and are driven either blindly to fixpoint
//!   ([`rewrite::Rewriter`]) or by the cost-guided iterative search
//!   ([`rewrite::RewriteSearch`]), which schedules every candidate and keeps
//!   it only when the peak strictly drops. Segments that are structurally
//!   unchanged between the search's iterations replay from the run's
//!   in-request schedule memo (a crate-private overlay keyed by
//!   [`serenity_ir::fingerprint`]).
//! * [`cache`] — [`CompileCache`]: the process-wide store that amortizes
//!   segment schedules *across compile requests* and across networks
//!   sharing cells — a thread-safe, sharded, byte-budgeted LRU keyed by
//!   (backend
//!   [`config_fingerprint`](backend::SchedulerBackend::config_fingerprint),
//!   graph fingerprint, pinned prefix), with warm results bit-identical to
//!   cold ones. Divide-and-conquer is its only reader and writer: it
//!   consults the request's memo first, then the cache.
//! * [`pipeline::Serenity`] — the end-to-end flow of Figure 4, run as a
//!   feedback loop rather than one pass: *(rewrite ⇄ schedule)* until a
//!   fixed point, then partition → full-backend scheduling of the winner →
//!   memory allocation, governed by
//!   [`CompileOptions`]. The original graph is scheduled too unless the
//!   winner's schedule peaks below the original's peak lower bound, which
//!   every order of the original reaches, so compilation never regresses
//!   below rewrite-off.
//!
//! # Example
//!
//! ```
//! use serenity_core::pipeline::Serenity;
//! use serenity_ir::{Graph, TensorShape, DType, Op};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = Graph::new("cell");
//! let x = g.add_input("x", TensorShape::nhwc(1, 8, 8, 4, DType::F32));
//! let a = g.add(Op::Relu, &[x])?;
//! let b = g.add(Op::Sigmoid, &[x])?;
//! let y = g.add(Op::Add, &[a, b])?;
//! g.mark_output(y);
//!
//! let compiled = Serenity::builder().build().compile(&g)?;
//! assert!(compiled.peak_bytes <= serenity_ir::mem::peak_bytes(&g, &serenity_ir::topo::kahn(&g))?);
//! # Ok(())
//! # }
//! ```
//!
//! Selecting a strategy by name and constraining the run:
//!
//! ```
//! use std::time::Duration;
//!
//! use serenity_core::backend::CompileOptions;
//! use serenity_core::pipeline::Serenity;
//! use serenity_core::registry::BackendRegistry;
//! use serenity_ir::random_dag::independent_branches;
//!
//! let graph = independent_branches(6, 32);
//! let backend = BackendRegistry::standard().create("portfolio").unwrap();
//! let compiled = Serenity::builder()
//!     .backend(backend)
//!     .deadline(Duration::from_secs(30))
//!     .build()
//!     .compile(&graph)
//!     .unwrap();
//! assert!(compiled.peak_bytes <= compiled.baseline_peak_bytes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod baseline;
pub mod beam;
pub mod budget;
pub mod cache;
pub mod canon;
pub mod capacity;
pub mod divide;
pub mod dp;
mod error;
pub mod fault;
mod memo;
pub mod pipeline;
pub mod registry;
pub mod rewrite;
mod schedule;
pub mod verify;

pub use backend::{
    BackendOutcome, BoundHandle, CancelToken, CompileContext, CompileEvent, CompileOptions,
    SchedulerBackend,
};
pub use cache::{AdmissionPolicy, CacheStats, CompileCache, CompileCacheConfig, PersistReport};
pub use capacity::{CapacityObjective, CapacityReport, CapacityTarget};
pub use error::ScheduleError;
pub use fault::{FaultPlan, FaultPoint};
pub use registry::{BackendRegistry, PortfolioBackend};
pub use schedule::{Schedule, ScheduleStats};
pub use verify::{VerifiedCertificate, VerifyFailure};
