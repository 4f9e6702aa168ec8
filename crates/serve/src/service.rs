//! The protocol-agnostic compile service: routing, request → compile
//! translation, single-flight coalescing, and status reporting.
//!
//! [`CompileService`] owns everything above the socket: the shared
//! [`CompileCache`], the [`SingleFlight`] map, the latency histogram, and
//! a *prototype* [`SerenityBuilder`] with the backend and cache attached.
//! Each request clones the prototype and stamps its own deadline and
//! [`CancelToken`] onto the clone — per-request lifecycle without
//! rebuilding the pipeline configuration per request.
//!
//! # Response shape
//!
//! `POST /compile` responses are split in two on purpose:
//!
//! * `result` — a function of (backend configuration, graph structure,
//!   graph name) only. Deterministic backends make it **bit-identical**
//!   across cache hits, coalesced waits, and cold compiles; the benchmark
//!   harness and the CI smoke test assert exactly that.
//! * `meta` — per-request circumstance: whether this response was
//!   coalesced off another request's compile, cache hit/miss counts, and
//!   the observed compile time. Never part of the identity.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;
use serenity_core::backend::SchedulerBackend;
use serenity_core::capacity::{CapacityObjective, CapacityTarget};
use serenity_core::pipeline::{CompiledSchedule, ResilientCompile, Serenity, SerenityBuilder};
use serenity_core::{
    CacheStats, CancelToken, CompileCache, FaultPlan, PersistReport, ScheduleError,
};
use serenity_ir::json::{from_json_checked, ImportLimits};
use serenity_ir::Graph;

use crate::histogram::{LatencyHistogram, LatencySummary};
use crate::http::Request;
use crate::singleflight::{FlightOutcome, SingleFlight, SingleFlightStats, Work};

/// Every `kind` string a `{"error":{kind,detail}}` body can carry, across
/// both the service and the socket layer. Adding a response error without
/// adding its kind here fails the exhaustiveness test, so the set clients
/// can switch on is always complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorKind {
    /// The request body (or a query parameter) could not be parsed.
    Parse,
    /// An import limit or the transport body-size cap was exceeded.
    Limit,
    /// A graph node failed validation on import.
    Node,
    /// The imported graph's structure is invalid (cycle, dangling edge…).
    Structure,
    /// Method not allowed on a known path.
    Method,
    /// Unknown path.
    Route,
    /// The compile pipeline failed (any error without a dedicated kind).
    Compile,
    /// The compile deadline elapsed.
    Deadline,
    /// Cache persistence was unavailable or failed.
    Persist,
    /// `POST /shutdown` is not enabled on this service.
    Shutdown,
    /// A contained panic while handling the request.
    Panic,
    /// Load shed at the door: the accept queue is full.
    Overload,
    /// The bytes on the wire were not an acceptable HTTP request.
    Http,
    /// The search-memory budget was exhausted and no rung could answer.
    Budget,
    /// The compiled schedule failed independent verification.
    Verification,
}

impl ErrorKind {
    /// Every kind, for exhaustiveness checks.
    pub const ALL: [ErrorKind; 15] = [
        ErrorKind::Parse,
        ErrorKind::Limit,
        ErrorKind::Node,
        ErrorKind::Structure,
        ErrorKind::Method,
        ErrorKind::Route,
        ErrorKind::Compile,
        ErrorKind::Deadline,
        ErrorKind::Persist,
        ErrorKind::Shutdown,
        ErrorKind::Panic,
        ErrorKind::Overload,
        ErrorKind::Http,
        ErrorKind::Budget,
        ErrorKind::Verification,
    ];

    /// The wire string clients see under `error.kind`.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Limit => "limit",
            ErrorKind::Node => "node",
            ErrorKind::Structure => "structure",
            ErrorKind::Method => "method",
            ErrorKind::Route => "route",
            ErrorKind::Compile => "compile",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Persist => "persist",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::Panic => "panic",
            ErrorKind::Overload => "overload",
            ErrorKind::Http => "http",
            ErrorKind::Budget => "budget",
            ErrorKind::Verification => "verification",
        }
    }

    /// The kind whose wire string is `s`, if any (the inverse of
    /// [`ErrorKind::as_str`]; used to fold externally produced kind
    /// strings, like the IR importer's, into the taxonomy).
    pub fn parse(s: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Service-level configuration (everything except the socket).
#[derive(Clone, Default)]
pub struct ServiceConfig {
    /// Limits applied to every incoming graph (untrusted input).
    pub limits: ImportLimits,
    /// Deadline applied to compiles whose request carries no
    /// `?deadline_ms=` parameter. `None` means no default bound.
    pub default_deadline: Option<Duration>,
    /// Directory for cache persistence. When set, the service warm-loads
    /// the cache from it at construction and `POST /persist` saves back to
    /// it. `None` disables both.
    pub persist_dir: Option<PathBuf>,
    /// Whether `POST /shutdown` is honoured (used by the benchmark
    /// harness and tests; off by default so a stray request cannot stop a
    /// production service).
    pub allow_shutdown: bool,
    /// Test-only fault-injection plan, threaded through the pipeline, the
    /// cache's persistence paths, and the socket layer. `None` (the
    /// default) disables every injection point.
    pub fault: Option<Arc<FaultPlan>>,
    /// Graceful-degradation ladder: backends tried in order (rewrite off,
    /// halved remaining deadline) when the primary backend fails or
    /// panics. Empty (the default) keeps the exact single-backend
    /// behavior — including propagating panics to the worker layer.
    pub fallback: Vec<Arc<dyn SchedulerBackend>>,
    /// Server-wide search-memory budget in bytes, applied to every
    /// compile and acting as a hard cap on per-request `?search_budget=`
    /// values (a request can tighten the budget, never raise it past
    /// this). `None` leaves compiles unbudgeted unless a request asks.
    pub search_budget: Option<u64>,
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("limits", &self.limits)
            .field("default_deadline", &self.default_deadline)
            .field("persist_dir", &self.persist_dir)
            .field("allow_shutdown", &self.allow_shutdown)
            .field("fault", &self.fault)
            .field(
                "fallback",
                &self.fallback.iter().map(|b| b.name().to_string()).collect::<Vec<_>>(),
            )
            .field("search_budget", &self.search_budget)
            .finish()
    }
}

/// Liveness counters for the failure-containment machinery, reported
/// under `robustness` on `GET /status` and consulted by `GET /health`.
///
/// Owned by the service but incremented by both layers: the socket layer
/// records sheds, worker panics/respawns, and injected socket resets; the
/// service records degraded responses. `queue_depth`/`queue_capacity`
/// form the overload gauge behind `/health`.
#[derive(Debug, Default)]
pub struct RobustnessStats {
    /// Connections answered `503` at the door because the accept queue
    /// was full.
    pub shed: AtomicU64,
    /// Requests whose handling panicked (each one got a structured `500`
    /// and cost no worker thread).
    pub worker_panics: AtomicU64,
    /// Worker threads respawned after a contained panic (the pool never
    /// shrinks, so this tracks `worker_panics`).
    pub workers_respawned: AtomicU64,
    /// Compile responses served off a fallback backend (`degraded: true`).
    pub degraded: AtomicU64,
    /// Connections dropped by the injected socket-reset fault.
    pub socket_resets: AtomicU64,
    /// Compile rungs (primary or fallback) that tripped the search-memory
    /// budget — counted even when a later rung served a degraded answer.
    pub budget_exhausted: AtomicU64,
    /// Compiles whose schedule failed independent verification (each one
    /// answered with a structured `500`; the schedule was never served).
    pub verification_failures: AtomicU64,
    /// Connections currently queued for a worker (gauge).
    pub queue_depth: AtomicU64,
    /// The accept queue's capacity (set once by the socket layer; 0 until
    /// a server owns this service).
    pub queue_capacity: AtomicU64,
}

impl RobustnessStats {
    /// Whether the accept queue is at (or beyond) capacity — the signal
    /// `GET /health` reports as `overloaded` and answers `503` for.
    pub fn overloaded(&self) -> bool {
        let capacity = self.queue_capacity.load(Ordering::Relaxed);
        capacity > 0 && self.queue_depth.load(Ordering::Relaxed) >= capacity
    }
}

/// A response ready to be written: status code and JSON body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body text.
    pub body: String,
    /// Whether the server should begin shutting down after writing this
    /// response (only ever set by an authorised `POST /shutdown`).
    pub shutdown: bool,
    /// Whether the response should advertise `Retry-After` (the socket
    /// layer also adds it to every `503` on its own).
    pub retry_after: bool,
}

impl Response {
    fn json(status: u16, body: String) -> Self {
        Response { status, body, shutdown: false, retry_after: false }
    }

    fn error(status: u16, kind: ErrorKind, detail: &str) -> Self {
        #[derive(Serialize)]
        struct Detail {
            kind: String,
            detail: String,
        }
        #[derive(Serialize)]
        struct Body {
            error: Detail,
        }
        let body = serde_json::to_string(&Body {
            error: Detail { kind: kind.as_str().to_string(), detail: detail.to_string() },
        })
        .expect("error body serializes");
        Response::json(status, body)
    }
}

/// The deterministic half of a compile response (see the module docs).
#[derive(Debug, Clone, Serialize)]
struct CompileResult {
    graph: String,
    nodes: usize,
    peak_bytes: u64,
    baseline_peak_bytes: u64,
    reduction_factor: f64,
    arena_bytes: Option<u64>,
    rewrites_applied: usize,
    order: Vec<usize>,
}

impl CompileResult {
    fn of(compiled: &CompiledSchedule) -> Self {
        CompileResult {
            graph: compiled.graph.name().to_string(),
            nodes: compiled.graph.len(),
            peak_bytes: compiled.peak_bytes,
            baseline_peak_bytes: compiled.baseline_peak_bytes,
            reduction_factor: compiled.reduction_factor(),
            arena_bytes: compiled.arena_bytes(),
            rewrites_applied: compiled.rewrites.len(),
            order: compiled.schedule.order.iter().map(|id| id.index()).collect(),
        }
    }
}

/// What one leader's compile produced, shared across coalesced waiters.
#[derive(Debug)]
struct CompiledPayload {
    /// Serialized [`CompileResult`] — already a string so every waiter
    /// ships byte-identical text without re-serializing.
    result_json: String,
    cache_hits: u64,
    cache_misses: u64,
    compile_micros: u64,
    /// Pre-serialized degradation provenance, present only when the
    /// compile was served off a fallback backend. `None` on the healthy
    /// path keeps healthy responses byte-identical to a service with no
    /// ladder configured.
    degradation_json: Option<String>,
    /// Pre-serialized [`serenity_core::VerifiedCertificate`] from the
    /// leader's independent verification pass. Spliced into `meta` only
    /// for requests that asked (`?verify=1`), so healthy responses stay
    /// byte-identical either way.
    verification_json: String,
    /// Pre-serialized capacity summary, present only when the request
    /// carried `?capacity=`. `None` keeps unconstrained responses
    /// byte-identical to a service that never heard of capacities.
    capacity_json: Option<String>,
}

/// A deterministic compile failure, shared across coalesced waiters (all
/// of them would hit the same error if they re-ran the search).
#[derive(Debug, Clone)]
struct SharedFailure {
    status: u16,
    kind: ErrorKind,
    detail: String,
}

type FlightResult = Result<Arc<CompiledPayload>, SharedFailure>;

/// The compile service (see the module docs).
#[derive(Debug)]
pub struct CompileService {
    /// Prototype pipeline: backend + cache attached, no per-request state.
    proto: SerenityBuilder,
    cache: Arc<CompileCache>,
    backend_key: u64,
    flights: SingleFlight<FlightResult>,
    config: ServiceConfig,
    latency: LatencyHistogram,
    requests: AtomicU64,
    started: Instant,
    /// Report of the warm-start load, when persistence is configured and
    /// the directory existed.
    warm_start: Option<PersistReport>,
    robustness: RobustnessStats,
}

impl CompileService {
    /// Builds a service around `backend` and a shared `cache`.
    ///
    /// If [`ServiceConfig::persist_dir`] points at an existing directory,
    /// the cache is warm-loaded from it before the first request; a
    /// missing or unreadable directory degrades to a cold start (the
    /// report, or its absence, shows up under `persist.warm_start` on
    /// `GET /status`).
    pub fn new(
        backend: Arc<dyn SchedulerBackend>,
        cache: Arc<CompileCache>,
        config: ServiceConfig,
    ) -> Self {
        let backend_key = backend.config_fingerprint();
        if let Some(plan) = &config.fault {
            cache.install_fault_plan(Arc::clone(plan));
        }
        let warm_start = config
            .persist_dir
            .as_deref()
            .filter(|dir| dir.is_dir())
            .and_then(|dir| cache.load_from_dir(dir).ok());
        let mut proto = Serenity::builder().backend(backend).compile_cache(Arc::clone(&cache));
        if let Some(plan) = &config.fault {
            proto = proto.fault_plan(Arc::clone(plan));
        }
        if !config.fallback.is_empty() {
            proto = proto.fallback_backends(config.fallback.clone());
        }
        CompileService {
            proto,
            cache,
            backend_key,
            // One retry-as-leader after a transient (panicked) compile
            // failure: healthy waiters get a fresh attempt instead of a
            // coalesced copy of someone else's crash.
            flights: SingleFlight::new().with_failure_retries(1),
            config,
            latency: LatencyHistogram::new(),
            requests: AtomicU64::new(0),
            started: Instant::now(),
            warm_start,
            robustness: RobustnessStats::default(),
        }
    }

    /// The failure-containment counters, shared with the socket layer.
    pub fn robustness(&self) -> &RobustnessStats {
        &self.robustness
    }

    /// The installed fault-injection plan, if any (consulted by the
    /// socket layer for the socket-reset point).
    pub fn fault(&self) -> Option<&Arc<FaultPlan>> {
        self.config.fault.as_ref()
    }

    /// The shared compile cache (for tests and the CLI's shutdown save).
    pub fn cache(&self) -> &Arc<CompileCache> {
        &self.cache
    }

    /// The configured persistence directory, if any.
    pub fn persist_dir(&self) -> Option<&std::path::Path> {
        self.config.persist_dir.as_deref()
    }

    /// Handles one parsed request.
    ///
    /// `cancel` is the request's cancellation token: the server's
    /// disconnect watchdog trips it when the client hangs up, and the
    /// compile pipeline polls it. Returns `None` when the client is
    /// already gone and no response should be written.
    pub fn handle(&self, request: &Request, cancel: &CancelToken) -> Option<Response> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/compile") => self.handle_compile(request, cancel),
            ("GET", "/status") => Some(self.handle_status()),
            ("GET", "/healthz") => Some(Response::json(200, "{\"ok\":true}".to_string())),
            ("GET", "/health") => Some(self.handle_health()),
            ("POST", "/persist") => Some(self.handle_persist()),
            ("POST", "/shutdown") => Some(self.handle_shutdown()),
            (_, "/compile" | "/status" | "/healthz" | "/health" | "/persist" | "/shutdown") => {
                Some(Response::error(405, ErrorKind::Method, "method not allowed for this path"))
            }
            _ => Some(Response::error(404, ErrorKind::Route, "unknown path")),
        }
    }

    fn handle_compile(&self, request: &Request, cancel: &CancelToken) -> Option<Response> {
        let arrived = Instant::now();
        let text = match std::str::from_utf8(&request.body) {
            Ok(text) => text,
            Err(_) => {
                return Some(Response::error(
                    400,
                    ErrorKind::Parse,
                    "request body is not valid UTF-8",
                ))
            }
        };
        let graph = match from_json_checked(text, &self.config.limits) {
            Ok(graph) => graph,
            Err(e) => {
                let kind = ErrorKind::parse(e.kind()).unwrap_or(ErrorKind::Parse);
                return Some(Response::error(400, kind, &e.to_string()));
            }
        };
        let deadline = match request.query_param("deadline_ms") {
            None => self.config.default_deadline,
            Some(raw) => match raw.parse::<u64>() {
                Ok(ms) => Some(Duration::from_millis(ms)),
                Err(_) => {
                    return Some(Response::error(
                        400,
                        ErrorKind::Parse,
                        &format!("bad deadline_ms value: {raw}"),
                    ))
                }
            },
        };
        let give_up_at = deadline.map(|d| arrived + d);
        let want_verify = request.query_param("verify").is_some_and(|v| v == "1" || v == "true");
        // Effective search budget: the server-wide cap, tightened (never
        // raised) by the request's `?search_budget=`.
        let requested_budget = match request.query_param("search_budget") {
            None => None,
            Some(raw) => match raw.parse::<u64>() {
                Ok(bytes) => Some(bytes),
                Err(_) => {
                    return Some(Response::error(
                        400,
                        ErrorKind::Parse,
                        &format!("bad search_budget value: {raw}"),
                    ))
                }
            },
        };
        let budget = match (requested_budget, self.config.search_budget) {
            (Some(asked), Some(cap)) => Some(asked.min(cap)),
            (asked, cap) => asked.or(cap),
        };
        // `?capacity=N` constrains the compile to an on-chip capacity;
        // `&objective=traffic` additionally re-ranks candidate schedules by
        // (fits, off-chip traffic, peak).
        let capacity_bytes = match request.query_param("capacity") {
            None => None,
            Some(raw) => match raw.parse::<u64>() {
                Ok(bytes) if bytes > 0 => Some(bytes),
                _ => {
                    return Some(Response::error(
                        400,
                        ErrorKind::Parse,
                        &format!("bad capacity value: {raw}"),
                    ))
                }
            },
        };
        let objective = match request.query_param("objective") {
            None => CapacityObjective::Fit,
            Some("fit") => CapacityObjective::Fit,
            Some("traffic") => CapacityObjective::MinTraffic,
            Some(other) => {
                return Some(Response::error(
                    400,
                    ErrorKind::Parse,
                    &format!("bad objective value: {other} (expected fit or traffic)"),
                ))
            }
        };
        if capacity_bytes.is_none() && request.query_param("objective").is_some() {
            return Some(Response::error(
                400,
                ErrorKind::Parse,
                "objective= steers the capacity constraint and needs capacity=",
            ));
        }
        let capacity =
            capacity_bytes.map(|bytes| CapacityTarget { capacity_bytes: bytes, objective });

        // Flight identity = cache identity: backend configuration ×
        // structural fingerprint. Deadlines are deliberately *not* part of
        // the key — coalescing ignores them, and each request enforces its
        // own bound while waiting. The search budget IS mixed in: a budget
        // changes whether the search is allowed to finish, so requests
        // under different budgets must not share a failure. Capacity
        // targets are also mixed in — even a non-steering `fit` target
        // changes the response meta, so it must never coalesce with an
        // unconstrained request (the steering salt alone would miss that).
        // The graph's name is mixed in as well: the fingerprint ignores it,
        // but the shared `result` carries it, so a renamed structural twin
        // must not be handed the leader's name.
        let capacity_key = capacity.map_or(0, |t| {
            t.capacity_bytes.rotate_left(23)
                ^ t.cache_salt()
                ^ (u64::from(t.steers_search()) << 1 | 1)
        });
        let key = flight_key(
            self.backend_key
                ^ budget.map_or(0, |b| b.wrapping_add(1).rotate_left(17))
                ^ capacity_key,
            serenity_ir::fingerprint::fingerprint(&graph) ^ name_key(graph.name()),
        );

        let mut own_error: Option<ScheduleError> = None;
        let outcome = self.flights.run(
            key,
            || cancel.is_cancelled() || give_up_at.is_some_and(|t| Instant::now() >= t),
            || {
                let compile_started = Instant::now();
                let mut pipeline = self.proto.clone().cancel_token(cancel.clone());
                if let Some(remaining) =
                    give_up_at.map(|t| t.saturating_duration_since(compile_started))
                {
                    pipeline = pipeline.deadline(remaining);
                }
                if let Some(bytes) = budget {
                    pipeline = pipeline.memory_budget(bytes);
                }
                if let Some(target) = capacity {
                    pipeline = pipeline.capacity_target(target);
                }
                match pipeline.build().compile_resilient(&graph) {
                    Ok(resilient) => {
                        let ResilientCompile { compiled, degraded, fallback_backend, attempts } =
                            resilient;
                        // Budget trips absorbed by the ladder still count:
                        // the rung's error string is the stable marker
                        // (mirrors ScheduleError::MemoryBudgetExceeded's
                        // Display).
                        let budget_trips = attempts
                            .iter()
                            .filter(|a| a.error.contains("exceeded the budget"))
                            .count() as u64;
                        if budget_trips > 0 {
                            self.robustness
                                .budget_exhausted
                                .fetch_add(budget_trips, Ordering::Relaxed);
                        }
                        // Independent certification of every answer before
                        // it is shared or served: a schedule the verifier
                        // rejects becomes a structured 500, never a wrong
                        // answer.
                        let verification_json =
                            match serenity_core::verify::verify(&graph, &compiled) {
                                Ok(cert) => {
                                    serde_json::to_string(&cert).expect("certificate serializes")
                                }
                                Err(failure) => {
                                    self.robustness
                                        .verification_failures
                                        .fetch_add(1, Ordering::Relaxed);
                                    return Work::Done(Err(SharedFailure {
                                        status: 500,
                                        kind: ErrorKind::Verification,
                                        detail: failure.to_string(),
                                    }));
                                }
                            };
                        let result_json = serde_json::to_string(&CompileResult::of(&compiled))
                            .expect("compile result serializes");
                        let degradation_json = degraded.then(|| {
                            self.robustness.degraded.fetch_add(1, Ordering::Relaxed);
                            degradation_provenance(fallback_backend.as_deref(), &attempts)
                        });
                        let capacity_json = compiled.capacity.map(|r| capacity_summary(&r));
                        Work::Done(Ok(Arc::new(CompiledPayload {
                            result_json,
                            cache_hits: compiled.stats.cache_hits,
                            cache_misses: compiled.stats.cache_misses,
                            compile_micros: u64::try_from(compile_started.elapsed().as_micros())
                                .unwrap_or(u64::MAX),
                            degradation_json,
                            verification_json,
                            capacity_json,
                        })))
                    }
                    // This request's own lifecycle ended: vacate the
                    // flight so a live waiter takes over (handoff) rather
                    // than inheriting our death.
                    Err(
                        e @ (ScheduleError::Cancelled | ScheduleError::DeadlineExceeded { .. }),
                    ) => {
                        own_error = Some(e);
                        Work::Abandon
                    }
                    // A contained panic is transient (it may be an
                    // injected fault or a data race, not a property of the
                    // graph): fail this caller but let one waiter retry.
                    Err(e @ ScheduleError::Panicked { .. }) => Work::Fail(Err(SharedFailure {
                        status: 500,
                        kind: ErrorKind::Compile,
                        detail: e.to_string(),
                    })),
                    // The budget killed every rung: a 413-style structured
                    // refusal (the request was too big for the allowance),
                    // deterministic for this (backend, graph, budget) key.
                    Err(e @ ScheduleError::MemoryBudgetExceeded { .. }) => {
                        self.robustness.budget_exhausted.fetch_add(1, Ordering::Relaxed);
                        Work::Done(Err(SharedFailure {
                            status: 413,
                            kind: ErrorKind::Budget,
                            detail: e.to_string(),
                        }))
                    }
                    // Any other failure is deterministic for this (backend,
                    // graph) pair: share it, don't re-run the search N times.
                    Err(e) => Work::Done(Err(SharedFailure {
                        status: 500,
                        kind: ErrorKind::Compile,
                        detail: e.to_string(),
                    })),
                }
            },
        );

        let coalesced = matches!(outcome, FlightOutcome::Shared(_));
        let response = match outcome {
            FlightOutcome::Led(flight) | FlightOutcome::Shared(flight) => match flight {
                Ok(payload) => {
                    Some(self.compile_response(&payload, coalesced, arrived.elapsed(), want_verify))
                }
                Err(failure) => {
                    let mut response =
                        Response::error(failure.status, failure.kind, &failure.detail);
                    // With no degradation ladder configured a budget
                    // refusal is transient from the client's view (retry
                    // later, or with a bigger allowance); with a ladder, a
                    // budget 413 means even the cheapest rung failed —
                    // retrying the same request is pointless.
                    response.retry_after =
                        failure.kind == ErrorKind::Budget && self.config.fallback.is_empty();
                    Some(response)
                }
            },
            FlightOutcome::Cancelled => {
                if cancel.is_cancelled()
                    && !matches!(own_error, Some(ScheduleError::DeadlineExceeded { .. }))
                {
                    // Client disconnect: nobody is listening.
                    None
                } else {
                    Some(Response::error(504, ErrorKind::Deadline, "compile deadline exceeded"))
                }
            }
        };
        if response.is_some() {
            self.latency.record(arrived.elapsed());
        }
        response
    }

    fn compile_response(
        &self,
        payload: &CompiledPayload,
        coalesced: bool,
        request_elapsed: Duration,
        want_verify: bool,
    ) -> Response {
        #[derive(Serialize)]
        struct Meta {
            coalesced: bool,
            cache_hits: u64,
            cache_misses: u64,
            compile_micros: u64,
            request_micros: u64,
        }
        let mut meta = serde_json::to_string(&Meta {
            coalesced,
            cache_hits: payload.cache_hits,
            cache_misses: payload.cache_misses,
            compile_micros: payload.compile_micros,
            request_micros: u64::try_from(request_elapsed.as_micros()).unwrap_or(u64::MAX),
        })
        .expect("meta serializes");
        // Degradation provenance is spliced in ONLY on degraded responses:
        // the healthy path's body must stay byte-identical to a service
        // with no ladder configured.
        if let Some(degradation) = &payload.degradation_json {
            meta.truncate(meta.len() - 1);
            meta.push_str(",\"degraded\":true,\"degradation\":");
            meta.push_str(degradation);
            meta.push('}');
        }
        // The capacity summary is spliced in exactly when the compile ran
        // under `?capacity=` (the flight key guarantees constrained and
        // unconstrained requests never share a payload).
        if let Some(capacity) = &payload.capacity_json {
            meta.truncate(meta.len() - 1);
            meta.push_str(",\"capacity\":");
            meta.push_str(capacity);
            meta.push('}');
        }
        // The certificate is spliced in ONLY when this request asked for
        // it — the leader always verified; requests that didn't ask keep
        // the exact pre-verification body.
        if want_verify {
            meta.truncate(meta.len() - 1);
            meta.push_str(",\"verification\":");
            meta.push_str(&payload.verification_json);
            meta.push('}');
        }
        // `result` is spliced in as pre-serialized text so coalesced and
        // leading responses are byte-identical in that field.
        let body = format!("{{\"result\":{},\"meta\":{}}}", payload.result_json, meta);
        Response::json(200, body)
    }

    fn handle_status(&self) -> Response {
        #[derive(Serialize)]
        struct PersistStatus {
            dir: Option<String>,
            warm_start: Option<PersistReport>,
        }
        #[derive(Serialize)]
        struct RobustnessSnapshot {
            shed: u64,
            worker_panics: u64,
            workers_respawned: u64,
            degraded_responses: u64,
            socket_resets: u64,
            budget_exhausted: u64,
            verification_failures: u64,
            failure_handoffs: u64,
            queue_depth: u64,
            queue_capacity: u64,
            faults_injected: u64,
            shards_quarantined: u64,
        }
        #[derive(Serialize)]
        struct Status {
            uptime_secs: u64,
            requests: u64,
            cache: CacheStats,
            cache_hit_rate: f64,
            singleflight: SingleFlightStats,
            compile_latency: LatencySummary,
            persist: PersistStatus,
            robustness: RobustnessSnapshot,
        }
        let cache = self.cache.stats();
        let flights = self.flights.stats();
        let r = &self.robustness;
        let body = serde_json::to_string(&Status {
            uptime_secs: self.started.elapsed().as_secs(),
            requests: self.requests.load(Ordering::Relaxed),
            cache,
            cache_hit_rate: cache.hit_rate(),
            singleflight: flights,
            compile_latency: self.latency.snapshot(),
            persist: PersistStatus {
                dir: self
                    .config
                    .persist_dir
                    .as_deref()
                    .and_then(|d| d.to_str())
                    .map(str::to_string),
                warm_start: self.warm_start,
            },
            robustness: RobustnessSnapshot {
                shed: r.shed.load(Ordering::Relaxed),
                worker_panics: r.worker_panics.load(Ordering::Relaxed),
                workers_respawned: r.workers_respawned.load(Ordering::Relaxed),
                degraded_responses: r.degraded.load(Ordering::Relaxed),
                socket_resets: r.socket_resets.load(Ordering::Relaxed),
                budget_exhausted: r.budget_exhausted.load(Ordering::Relaxed),
                verification_failures: r.verification_failures.load(Ordering::Relaxed),
                failure_handoffs: flights.failure_handoffs,
                queue_depth: r.queue_depth.load(Ordering::Relaxed),
                queue_capacity: r.queue_capacity.load(Ordering::Relaxed),
                faults_injected: self.config.fault.as_ref().map_or(0, |plan| plan.fired_total()),
                shards_quarantined: self
                    .warm_start
                    .map_or(0, |report| report.shards_quarantined as u64),
            },
        })
        .expect("status serializes");
        Response::json(200, body)
    }

    /// Liveness/readiness/overload probe. Answering at all proves
    /// liveness; `ready` is true once construction (including any warm
    /// load) finished — which it has, by the time requests route here —
    /// and `overloaded` mirrors the accept-queue gauge. An overloaded
    /// service answers `503` (with `Retry-After`) so load balancers pull
    /// it from rotation until the backlog drains.
    fn handle_health(&self) -> Response {
        let overloaded = self.robustness.overloaded();
        let body = format!("{{\"live\":true,\"ready\":true,\"overloaded\":{overloaded}}}");
        Response::json(if overloaded { 503 } else { 200 }, body)
    }

    fn handle_persist(&self) -> Response {
        let Some(dir) = self.config.persist_dir.as_deref() else {
            return Response::error(
                400,
                ErrorKind::Persist,
                "no persistence directory is configured",
            );
        };
        match self.cache.save_to_dir(dir) {
            Ok(report) => Response::json(
                200,
                serde_json::to_string(&report).expect("persist report serializes"),
            ),
            Err(e) => {
                Response::error(500, ErrorKind::Persist, &format!("saving cache failed: {e}"))
            }
        }
    }

    fn handle_shutdown(&self) -> Response {
        if !self.config.allow_shutdown {
            return Response::error(
                400,
                ErrorKind::Shutdown,
                "shutdown is not enabled on this service",
            );
        }
        // Best-effort final save so a clean shutdown never loses the warm
        // cache (the benchmark's restart phase depends on it).
        if let Some(dir) = self.config.persist_dir.as_deref() {
            let _ = self.cache.save_to_dir(dir);
        }
        let mut response = Response::json(200, "{\"shutting_down\":true}".to_string());
        response.shutdown = true;
        response
    }

    /// Directly compiles `graph` the way a request for it would (no HTTP,
    /// no coalescing, no cache unless the shared cache hits). Used by
    /// tests and the benchmark for bit-identity baselines.
    pub fn compile_result_json(&self, graph: &Graph) -> Result<String, ScheduleError> {
        let compiled = self.proto.clone().build().compile(graph)?;
        Ok(serde_json::to_string(&CompileResult::of(&compiled)).expect("result serializes"))
    }
}

/// Serializes degradation provenance for a degraded response's meta:
/// which fallback backend served the result and what each earlier rung
/// failed with.
fn degradation_provenance(
    fallback_backend: Option<&str>,
    attempts: &[serenity_core::pipeline::DegradeStep],
) -> String {
    #[derive(Serialize)]
    struct Provenance {
        fallback_backend: Option<String>,
        attempts: Vec<serenity_core::pipeline::DegradeStep>,
    }
    serde_json::to_string(&Provenance {
        fallback_backend: fallback_backend.map(str::to_string),
        attempts: attempts.to_vec(),
    })
    .expect("degradation provenance serializes")
}

/// Serializes the `meta.capacity` summary from the pipeline's verified
/// [`CapacityReport`](serenity_core::capacity::CapacityReport): whether the
/// schedule fits, how far it spills, and the total off-chip traffic it
/// would pay (`null` when a single working set exceeds the capacity).
fn capacity_summary(report: &serenity_core::capacity::CapacityReport) -> String {
    #[derive(Serialize)]
    struct CapacitySummary {
        capacity_bytes: u64,
        objective: String,
        fits: bool,
        feasible: bool,
        spill_bytes: u64,
        traffic: Option<u64>,
    }
    serde_json::to_string(&CapacitySummary {
        capacity_bytes: report.capacity_bytes,
        objective: report.objective.to_string(),
        fits: report.fits,
        feasible: report.feasible,
        spill_bytes: report.spill_bytes,
        traffic: report.traffic.map(|t| t.total_traffic()),
    })
    .expect("capacity summary serializes")
}

/// Mixes the backend identity with the graph fingerprint (splitmix64
/// finalizer, mirroring the cache's own key mixing).
fn flight_key(backend_key: u64, graph_key: u64) -> u64 {
    let mut z = backend_key ^ graph_key.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash of a graph name, for the flight key.
fn name_key(name: &str) -> u64 {
    use std::hash::Hasher;
    let mut hasher = serenity_ir::fxhash::FxHasher::default();
    hasher.write(name.as_bytes());
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenity_core::backend::AdaptiveBackend;
    use serenity_ir::json::to_json;
    use serenity_ir::{DType, GraphBuilder, Padding};

    fn demo_graph(channels: usize) -> Graph {
        let mut b = GraphBuilder::new("svc-demo");
        let x = b.image_input("x", 8, 8, 4, DType::F32);
        let l = b.conv1x1(x, channels).unwrap();
        let r = b.conv1x1(x, channels).unwrap();
        let cat = b.concat(&[l, r]).unwrap();
        let y = b.conv(cat, 8, (3, 3), (1, 1), Padding::Same).unwrap();
        b.mark_output(y);
        b.finish()
    }

    fn service() -> CompileService {
        CompileService::new(
            Arc::new(AdaptiveBackend::default()),
            Arc::new(CompileCache::new()),
            ServiceConfig { allow_shutdown: true, ..ServiceConfig::default() },
        )
    }

    fn post_compile(body: &str, query: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: "/compile".to_string(),
            query: query.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: String::new(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn compile_round_trip_matches_direct_compile() {
        let svc = service();
        let graph = demo_graph(4);
        let request = post_compile(&to_json(&graph), "");
        let response = svc.handle(&request, &CancelToken::new()).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let body: serde_json::Value = serde_json::from_str(&response.body).unwrap();
        let direct: serde_json::Value =
            serde_json::from_str(&svc.compile_result_json(&graph).unwrap()).unwrap();
        assert_eq!(body["result"], direct, "served result must be bit-identical to direct");
        assert_eq!(body["meta"]["coalesced"].as_bool(), Some(false));
    }

    #[test]
    fn malformed_body_is_a_structured_400() {
        let svc = service();
        for (body, kind) in
            [("{definitely not json", "parse"), ("{\"name\":\"x\",\"nodes\":\"nope\"}", "parse")]
        {
            let response = svc.handle(&post_compile(body, ""), &CancelToken::new()).unwrap();
            assert_eq!(response.status, 400, "{}", response.body);
            let parsed: serde_json::Value = serde_json::from_str(&response.body).unwrap();
            assert_eq!(parsed["error"]["kind"].as_str(), Some(kind), "{}", response.body);
        }
    }

    #[test]
    fn bad_deadline_param_is_rejected() {
        let svc = service();
        let graph = demo_graph(4);
        let request = post_compile(&to_json(&graph), "deadline_ms=soon");
        let response = svc.handle(&request, &CancelToken::new()).unwrap();
        assert_eq!(response.status, 400);
    }

    #[test]
    fn already_cancelled_request_writes_nothing() {
        let svc = service();
        let token = CancelToken::new();
        token.cancel();
        let response = svc.handle(&post_compile(&to_json(&demo_graph(4)), ""), &token);
        assert!(response.is_none(), "disconnected client must get no response");
    }

    #[test]
    fn status_reports_cache_and_flight_counters() {
        let svc = service();
        let graph = demo_graph(4);
        for _ in 0..2 {
            let r = svc.handle(&post_compile(&to_json(&graph), ""), &CancelToken::new()).unwrap();
            assert_eq!(r.status, 200);
        }
        let status = svc.handle(&get("/status"), &CancelToken::new()).unwrap();
        assert_eq!(status.status, 200);
        let parsed: serde_json::Value = serde_json::from_str(&status.body).unwrap();
        assert!(parsed["requests"].as_u64().unwrap() >= 3);
        assert!(parsed["cache"]["hits"].as_u64().unwrap() >= 1, "second compile hits the cache");
        assert_eq!(parsed["singleflight"]["leads"].as_u64(), Some(2));
        assert!(parsed["compile_latency"]["count"].as_u64().unwrap() >= 2);
    }

    #[test]
    fn unknown_routes_and_methods_are_clean_errors() {
        let svc = service();
        let token = CancelToken::new();
        assert_eq!(svc.handle(&get("/nope"), &token).unwrap().status, 404);
        assert_eq!(svc.handle(&get("/compile"), &token).unwrap().status, 405);
        let health = svc.handle(&get("/healthz"), &token).unwrap();
        assert_eq!(health.status, 200);
    }

    #[test]
    fn concurrent_identical_requests_coalesce_to_one_compile() {
        const N: usize = 6;
        // A backend whose first compile blocks until the test opens the
        // gate. This makes the schedule deterministic on any machine: the
        // leader is parked inside its compile while the other N-1 requests
        // pile up as flight waiters, and only then does the gate open.
        struct GatedBackend {
            inner: AdaptiveBackend,
            gate: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
        }
        impl GatedBackend {
            fn wait_for_gate(&self) {
                let (open, bell) = &*self.gate;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = bell.wait(open).unwrap();
                }
            }
        }
        impl SchedulerBackend for GatedBackend {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn config_fingerprint(&self) -> u64 {
                self.inner.config_fingerprint()
            }
            fn schedule(
                &self,
                graph: &Graph,
                ctx: &serenity_core::CompileContext,
            ) -> Result<serenity_core::backend::BackendOutcome, ScheduleError> {
                self.wait_for_gate();
                self.inner.schedule(graph, ctx)
            }
        }

        let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let svc = Arc::new(CompileService::new(
            Arc::new(GatedBackend { inner: AdaptiveBackend::default(), gate: Arc::clone(&gate) }),
            Arc::new(CompileCache::new()),
            ServiceConfig::default(),
        ));
        let graph = demo_graph(6);
        let body = to_json(&graph);
        let mut handles = Vec::new();
        for _ in 0..N {
            let (svc, body) = (Arc::clone(&svc), body.clone());
            handles.push(std::thread::spawn(move || {
                svc.handle(&post_compile(&body, ""), &CancelToken::new()).unwrap()
            }));
        }
        // Wait until every non-leader request is blocked on the leader's
        // flight, then let the leader's compile proceed.
        let deadline = Instant::now() + Duration::from_secs(30);
        while svc.flights.stats().waiting < (N - 1) as u64 {
            assert!(Instant::now() < deadline, "waiters never joined the flight");
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            let (open, bell) = &*gate;
            *open.lock().unwrap() = true;
            bell.notify_all();
        }
        let responses: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let results: Vec<serde_json::Value> = responses
            .iter()
            .map(|r| {
                assert_eq!(r.status, 200, "{}", r.body);
                let v: serde_json::Value = serde_json::from_str(&r.body).unwrap();
                v["result"].clone()
            })
            .collect();
        for r in &results[1..] {
            assert_eq!(*r, results[0], "coalesced results must be bit-identical");
        }
        let status = svc.handle(&get("/status"), &CancelToken::new()).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&status.body).unwrap();
        let leads = parsed["singleflight"]["leads"].as_u64().unwrap();
        let coalesced = parsed["singleflight"]["coalesced"].as_u64().unwrap();
        assert_eq!(leads, 1, "exactly one request ran the compile");
        assert_eq!(coalesced, (N - 1) as u64, "every other request shared the result");
    }

    #[test]
    fn renamed_structural_twins_are_not_coalesced_onto_another_name() {
        use serenity_core::FaultPoint;
        // A one-shot slow-compile fault holds the first compile (the leader
        // for "twin-a") while two renamed structural twins and two more
        // "twin-a" requests arrive at once.
        let plan = Arc::new(FaultPlan::parse("slow-compile=1:2000ms", 0).unwrap());
        let svc = Arc::new(CompileService::new(
            Arc::new(AdaptiveBackend::default()),
            Arc::new(CompileCache::new()),
            ServiceConfig { fault: Some(Arc::clone(&plan)), ..ServiceConfig::default() },
        ));
        let send = |name: &'static str| {
            let mut graph = demo_graph(6);
            graph.set_name(name);
            let (svc, body) = (Arc::clone(&svc), to_json(&graph));
            let handle = std::thread::spawn(move || {
                svc.handle(&post_compile(&body, ""), &CancelToken::new()).unwrap()
            });
            (name, handle)
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut requests = vec![send("twin-a")];
        while plan.fired(FaultPoint::SlowCompile) == 0 {
            assert!(Instant::now() < deadline, "the leader never reached its compile");
            std::thread::sleep(Duration::from_millis(1));
        }
        requests.extend(["twin-b", "twin-c", "twin-a", "twin-a"].map(send));
        while svc.flights.stats().waiting < 2 {
            assert!(Instant::now() < deadline, "the same-name burst never joined the flight");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut coalesced = Vec::new();
        for (name, handle) in requests {
            let response = handle.join().unwrap();
            assert_eq!(response.status, 200, "{}", response.body);
            let body: serde_json::Value = serde_json::from_str(&response.body).unwrap();
            assert_eq!(body["result"]["graph"].as_str(), Some(name), "{}", response.body);
            if body["meta"]["coalesced"].as_bool() == Some(true) {
                coalesced.push(name);
            }
        }
        assert_eq!(coalesced, ["twin-a", "twin-a"], "the identical-name burst still coalesces");
        assert_eq!(svc.flights.stats().leads, 3, "one flight per name");
    }

    #[test]
    fn health_route_reports_liveness_and_overload() {
        let svc = service();
        let health = svc.handle(&get("/health"), &CancelToken::new()).unwrap();
        assert_eq!(health.status, 200, "{}", health.body);
        let parsed: serde_json::Value = serde_json::from_str(&health.body).unwrap();
        assert_eq!(parsed["live"].as_bool(), Some(true));
        assert_eq!(parsed["ready"].as_bool(), Some(true));
        assert_eq!(parsed["overloaded"].as_bool(), Some(false));

        // Saturate the gauge the way a full accept queue would.
        svc.robustness().queue_capacity.store(2, Ordering::Relaxed);
        svc.robustness().queue_depth.store(2, Ordering::Relaxed);
        let health = svc.handle(&get("/health"), &CancelToken::new()).unwrap();
        assert_eq!(health.status, 503);
        let parsed: serde_json::Value = serde_json::from_str(&health.body).unwrap();
        assert_eq!(parsed["overloaded"].as_bool(), Some(true));
    }

    #[test]
    fn injected_panic_degrades_onto_the_fallback_ladder() {
        use serenity_core::BackendRegistry;
        let plan = Arc::new(FaultPlan::parse("compile-panic=1", 7).unwrap());
        let svc = CompileService::new(
            Arc::new(AdaptiveBackend::default()),
            Arc::new(CompileCache::new()),
            ServiceConfig {
                fault: Some(Arc::clone(&plan)),
                fallback: vec![BackendRegistry::standard().create("kahn").unwrap()],
                ..ServiceConfig::default()
            },
        );
        let graph = demo_graph(4);
        let response =
            svc.handle(&post_compile(&to_json(&graph), ""), &CancelToken::new()).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let parsed: serde_json::Value = serde_json::from_str(&response.body).unwrap();
        assert_eq!(parsed["meta"]["degraded"].as_bool(), Some(true), "{}", response.body);
        assert_eq!(
            parsed["meta"]["degradation"]["fallback_backend"].as_str(),
            Some("kahn"),
            "{}",
            response.body
        );
        let attempts = parsed["meta"]["degradation"]["attempts"].as_array().unwrap();
        assert!(
            attempts[0]["error"].as_str().unwrap().contains("panic"),
            "provenance must record the panicked rung: {}",
            response.body
        );
        assert!(parsed["result"]["peak_bytes"].as_u64().unwrap() > 0);

        // The injected charge is burnt: the next compile is healthy, and
        // its meta must NOT carry the degraded markers.
        let graph2 = demo_graph(6);
        let response =
            svc.handle(&post_compile(&to_json(&graph2), ""), &CancelToken::new()).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let parsed: serde_json::Value = serde_json::from_str(&response.body).unwrap();
        assert!(parsed["meta"].get("degraded").is_none(), "{}", response.body);

        let status = svc.handle(&get("/status"), &CancelToken::new()).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&status.body).unwrap();
        assert_eq!(parsed["robustness"]["degraded_responses"].as_u64(), Some(1));
        assert_eq!(parsed["robustness"]["faults_injected"].as_u64(), Some(1));
    }

    #[test]
    fn error_kinds_are_exhaustive_and_round_trip() {
        let mut seen = std::collections::HashSet::new();
        for kind in ErrorKind::ALL {
            assert!(seen.insert(kind.as_str()), "duplicate kind string: {kind}");
            assert_eq!(ErrorKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(seen.len(), ErrorKind::ALL.len());
        assert_eq!(ErrorKind::parse("no-such-kind"), None);
        // Every kind string the IR importer can produce folds into the
        // taxonomy (so `handle_compile` never falls back to Parse for a
        // kind we actually know).
        for import_kind in ["parse", "limit", "node", "structure"] {
            assert!(
                ErrorKind::parse(import_kind).is_some(),
                "importer kind {import_kind:?} missing from ErrorKind"
            );
        }
    }

    #[test]
    fn verify_param_attaches_a_certificate() {
        let svc = service();
        let graph = demo_graph(4);
        let response =
            svc.handle(&post_compile(&to_json(&graph), "verify=1"), &CancelToken::new()).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let parsed: serde_json::Value = serde_json::from_str(&response.body).unwrap();
        let cert = &parsed["meta"]["verification"];
        assert_eq!(cert["nodes"].as_u64(), Some(graph.len() as u64), "{}", response.body);
        assert_eq!(
            cert["peak_bytes"].as_u64(),
            parsed["result"]["peak_bytes"].as_u64(),
            "certificate peak must match the served peak: {}",
            response.body
        );

        // Without the flag the response carries no verification field —
        // and is byte-identical in `result` to the verified one.
        let response =
            svc.handle(&post_compile(&to_json(&graph), ""), &CancelToken::new()).unwrap();
        let unverified: serde_json::Value = serde_json::from_str(&response.body).unwrap();
        assert!(unverified["meta"].get("verification").is_none(), "{}", response.body);
        assert_eq!(unverified["result"], parsed["result"]);
    }

    #[test]
    fn capacity_param_attaches_capacity_meta() {
        let svc = service();
        let graph = demo_graph(4);

        // A 1-byte capacity: nothing fits, and traffic is null because
        // even a single working set overflows.
        let response =
            svc.handle(&post_compile(&to_json(&graph), "capacity=1"), &CancelToken::new()).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let parsed: serde_json::Value = serde_json::from_str(&response.body).unwrap();
        let capacity = &parsed["meta"]["capacity"];
        assert_eq!(capacity["capacity_bytes"].as_u64(), Some(1), "{}", response.body);
        assert_eq!(capacity["fits"].as_bool(), Some(false));
        assert_eq!(capacity["feasible"].as_bool(), Some(false));
        assert!(capacity["traffic"].is_null());
        assert!(capacity["spill_bytes"].as_u64().unwrap() > 0);

        // A generous capacity under the traffic objective: fits, zero
        // traffic, and the report names the objective.
        let peak = parsed["result"]["peak_bytes"].as_u64().unwrap();
        let query = format!("capacity={}&objective=traffic", peak * 2);
        let response =
            svc.handle(&post_compile(&to_json(&graph), &query), &CancelToken::new()).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let parsed: serde_json::Value = serde_json::from_str(&response.body).unwrap();
        let capacity = &parsed["meta"]["capacity"];
        assert_eq!(capacity["objective"].as_str(), Some("traffic"));
        assert_eq!(capacity["fits"].as_bool(), Some(true));
        assert_eq!(capacity["traffic"].as_u64(), Some(0));

        // Unconstrained responses carry no capacity key at all.
        let response =
            svc.handle(&post_compile(&to_json(&graph), ""), &CancelToken::new()).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&response.body).unwrap();
        assert!(parsed["meta"].get("capacity").is_none(), "{}", response.body);

        // Bad values are structured 400s.
        for query in
            ["capacity=0", "capacity=lots", "objective=traffic", "capacity=64&objective=maximal"]
        {
            let response =
                svc.handle(&post_compile(&to_json(&graph), query), &CancelToken::new()).unwrap();
            assert_eq!(response.status, 400, "query {query}: {}", response.body);
        }
    }

    #[test]
    fn search_budget_param_is_a_structured_budget_413_without_a_ladder() {
        let svc = service();
        let graph = demo_graph(4);
        let response = svc
            .handle(&post_compile(&to_json(&graph), "search_budget=1"), &CancelToken::new())
            .unwrap();
        assert_eq!(response.status, 413, "{}", response.body);
        let parsed: serde_json::Value = serde_json::from_str(&response.body).unwrap();
        assert_eq!(parsed["error"]["kind"].as_str(), Some("budget"), "{}", response.body);
        assert!(response.retry_after, "budget refusal with no ladder should advertise a retry");
        assert_eq!(svc.robustness().budget_exhausted.load(Ordering::Relaxed), 1);

        // A nonsense budget value is a parse error, not a refusal.
        let response = svc
            .handle(&post_compile(&to_json(&graph), "search_budget=lots"), &CancelToken::new())
            .unwrap();
        assert_eq!(response.status, 400);
    }

    #[test]
    fn server_wide_budget_caps_the_request_budget() {
        let svc = CompileService::new(
            Arc::new(AdaptiveBackend::default()),
            Arc::new(CompileCache::new()),
            ServiceConfig { search_budget: Some(1), ..ServiceConfig::default() },
        );
        let graph = demo_graph(4);
        // The request asks for a huge budget, but the server caps it at 1
        // byte: the compile must still be refused.
        let response = svc
            .handle(&post_compile(&to_json(&graph), "search_budget=999999999"), &CancelToken::new())
            .unwrap();
        assert_eq!(response.status, 413, "{}", response.body);
    }

    #[test]
    fn budget_exhaustion_degrades_onto_the_ladder_with_a_passing_certificate() {
        use serenity_core::BackendRegistry;
        let svc = CompileService::new(
            Arc::new(AdaptiveBackend::default()),
            Arc::new(CompileCache::new()),
            ServiceConfig {
                search_budget: Some(1),
                fallback: vec![BackendRegistry::standard().create("kahn").unwrap()],
                ..ServiceConfig::default()
            },
        );
        let graph = demo_graph(4);
        let response =
            svc.handle(&post_compile(&to_json(&graph), "verify=1"), &CancelToken::new()).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let parsed: serde_json::Value = serde_json::from_str(&response.body).unwrap();
        assert_eq!(parsed["meta"]["degraded"].as_bool(), Some(true), "{}", response.body);
        assert!(
            parsed["meta"]["degradation"]["attempts"][0]["error"]
                .as_str()
                .unwrap_or("")
                .contains("exceeded the budget"),
            "first rung should record the budget trip: {}",
            response.body
        );
        assert!(
            parsed["meta"]["verification"]["peak_bytes"].as_u64().is_some(),
            "degraded answer must still carry a passing certificate: {}",
            response.body
        );
        assert!(svc.robustness().budget_exhausted.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn shutdown_route_is_gated() {
        let open = service();
        let response = open
            .handle(
                &Request {
                    method: "POST".to_string(),
                    path: "/shutdown".to_string(),
                    query: String::new(),
                    headers: Vec::new(),
                    body: Vec::new(),
                },
                &CancelToken::new(),
            )
            .unwrap();
        assert_eq!(response.status, 200);
        assert!(response.shutdown);

        let locked = CompileService::new(
            Arc::new(AdaptiveBackend::default()),
            Arc::new(CompileCache::new()),
            ServiceConfig::default(),
        );
        let response = locked
            .handle(
                &Request {
                    method: "POST".to_string(),
                    path: "/shutdown".to_string(),
                    query: String::new(),
                    headers: Vec::new(),
                    body: Vec::new(),
                },
                &CancelToken::new(),
            )
            .unwrap();
        assert_eq!(response.status, 400);
        assert!(!response.shutdown);
    }
}
