//! The SERENITY compile **service**: the paper's one-graph-at-a-time
//! compiler turned into a long-running process serving heavy traffic.
//!
//! The paper compiles each irregularly wired network once, offline. The
//! workloads that motivate a *service* — NAS loops emitting families of
//! near-duplicate cells, edge-deployment pipelines recompiling on every
//! model push — hammer the compiler with many small, highly repetitive
//! requests. Three mechanisms turn that repetition into throughput:
//!
//! 1. **The process-wide [`CompileCache`]**
//!    ([`serenity_core::cache`]): structurally equal graphs replay stored
//!    schedules bit-identically instead of re-running the DP/beam search.
//!    The service adds the piece batch compiles never needed: disk
//!    persistence (a restarted service reloads its shards and starts warm).
//! 2. **Single-flight coalescing** ([`singleflight`]): concurrent
//!    *identical* requests — same backend configuration, same graph
//!    structure — elect one leader to compile while the rest wait and
//!    share its result. The burst a cache can't absorb (all arrivals miss
//!    before the first insert) collapses to one compile.
//! 3. **Per-request deadlines and disconnect cancellation**
//!    ([`service`], [`server`]): every request compiles under the existing
//!    [`CompileOptions`](serenity_core::CompileOptions) plumbing — a
//!    `?deadline_ms=` query bound becomes a compile deadline, and a client
//!    that hangs up flips the request's
//!    [`CancelToken`](serenity_core::CancelToken) so abandoned work stops
//!    consuming the worker pool.
//!
//! The HTTP layer ([`http`]) is a deliberately small hand-rolled HTTP/1.1
//! implementation over `std::net` — a thread-per-connection worker pool
//! behind a bounded accept queue, no async runtime — because the vendor
//! tree is offline and the protocol surface (two routes, JSON bodies) does
//! not justify one.
//!
//! # Quick start
//!
//! ```no_run
//! use std::sync::Arc;
//!
//! use serenity_core::backend::AdaptiveBackend;
//! use serenity_core::CompileCache;
//! use serenity_serve::server::{Server, ServerConfig};
//! use serenity_serve::service::{CompileService, ServiceConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! let service = CompileService::new(
//!     Arc::new(AdaptiveBackend::default()),
//!     Arc::new(CompileCache::new()),
//!     ServiceConfig::default(),
//! );
//! let server = Server::spawn(ServerConfig::default(), Arc::new(service))?;
//! println!("serving on http://{}", server.addr());
//! server.join();
//! # Ok(())
//! # }
//! ```
//!
//! [`CompileCache`]: serenity_core::CompileCache

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod http;
pub mod server;
pub mod service;
pub mod singleflight;

pub use server::{Server, ServerConfig, ShutdownHandle};
pub use service::{CompileService, ErrorKind, RobustnessStats, ServiceConfig};
pub use singleflight::{FlightOutcome, SingleFlight};
