//! Command implementations.

use std::sync::Arc;
use std::time::Duration;

use serenity_core::backend::{AdaptiveBackend, CompileEvent, DpBackend, SchedulerBackend};
use serenity_core::budget::BudgetConfig;
use serenity_core::cache::{CompileCache, CompileCacheConfig};
use serenity_core::dp::DpConfig;
use serenity_core::pipeline::{RewriteMode, Serenity};
use serenity_core::registry::BackendRegistry;
use serenity_core::rewrite::RewriteSearchConfig;
use serenity_ir::{dot, json, Graph};
use serenity_memsim::Policy;
use serenity_nets::{suite, swiftnet};

use crate::args::Command;

/// Executes a parsed command.
pub fn run(command: Command) -> Result<(), String> {
    match command {
        Command::List => list(),
        Command::Backends => backends(),
        Command::Suite => run_suite(),
        Command::Generate { id, output } => generate(&id, output.as_deref()),
        Command::Schedule {
            paths,
            scheduler,
            no_rewrite,
            rewrite_iters,
            rewrite_score_backend,
            rewrite_threads,
            allocator,
            budget_kb,
            capacity,
            threads,
            deadline_ms,
            cache_bytes,
            verify,
            verbose,
            json,
            map,
        } => {
            let options = ScheduleOptions {
                scheduler,
                no_rewrite,
                rewrite_iters,
                rewrite_score_backend,
                rewrite_threads,
                allocator,
                budget_kb,
                capacity,
                threads,
                deadline_ms,
                cache_bytes,
                verify,
                verbose,
                json,
                map,
            };
            schedule(&paths, options)
        }
        Command::Serve {
            addr,
            threads,
            queue,
            scheduler,
            cache_bytes,
            persist,
            deadline_ms,
            max_body_bytes,
            allow_shutdown,
            fault_plan,
            degrade,
            search_budget_bytes,
        } => serve(ServeOptions {
            addr,
            threads,
            queue,
            scheduler,
            cache_bytes,
            persist,
            deadline_ms,
            max_body_bytes,
            allow_shutdown,
            fault_plan,
            degrade,
            search_budget_bytes,
        }),
        Command::Dot { path } => {
            let graph = load(&path)?;
            print!("{}", dot::to_dot(&graph));
            Ok(())
        }
        Command::Info { path } => {
            let graph = load(&path)?;
            info(&graph);
            Ok(())
        }
        Command::Traffic { path, capacity_kb, policy } => traffic(&path, capacity_kb, policy),
    }
}

fn info(graph: &Graph) {
    let a = serenity_ir::analysis::GraphAnalysis::of(graph);
    println!("graph            : {}", graph.name());
    println!("nodes / edges    : {} / {}", a.nodes, a.edges);
    println!("depth            : {}", a.depth);
    println!("max frontier     : {}", a.max_frontier);
    println!("interior cuts    : {}", a.cut_count);
    println!(
        "activations      : {:.1} KiB total, {:.1} KiB largest",
        a.total_activation_bytes as f64 / 1024.0,
        a.max_activation_bytes as f64 / 1024.0
    );
    println!("peak lower bound : {:.1} KiB", a.peak_lower_bound as f64 / 1024.0);
    println!("kahn peak        : {:.1} KiB", a.kahn_peak_bytes as f64 / 1024.0);
    println!("headroom         : {:.2}x", a.headroom());
    let path = serenity_ir::analysis::critical_path(graph);
    println!(
        "critical path    : {} nodes ({} .. {})",
        path.len(),
        path.first().map(|&n| graph.node(n).name.as_str()).unwrap_or("-"),
        path.last().map(|&n| graph.node(n).name.as_str()).unwrap_or("-")
    );
}

fn list() -> Result<(), String> {
    for b in suite() {
        println!("{:<18} {:<26} {} nodes", b.id, b.name, b.graph.len());
    }
    println!("{:<18} {:<26} {} nodes", "swiftnet-full", "SwiftNet (3 cells)", 62);
    Ok(())
}

fn backends() -> Result<(), String> {
    for name in BackendRegistry::standard().names() {
        println!("{name}");
    }
    Ok(())
}

fn generate(id: &str, output: Option<&str>) -> Result<(), String> {
    let graph = graph_by_id(id)?;
    let rendered = json::to_json(&graph);
    match output {
        Some(path) => {
            std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?
        }
        None => println!("{rendered}"),
    }
    Ok(())
}

fn graph_by_id(id: &str) -> Result<Graph, String> {
    if id == "swiftnet-full" {
        return Ok(swiftnet::swiftnet());
    }
    serenity_nets::suite::by_id(id)
        .map(|b| b.graph)
        .ok_or_else(|| format!("unknown benchmark id {id} (try `serenity list`)"))
}

fn load(path: &str) -> Result<Graph, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::from_json(&raw).map_err(|e| format!("invalid graph in {path}: {e}"))
}

/// Parsed `serenity schedule` flags, bundled.
struct ScheduleOptions {
    scheduler: Option<String>,
    no_rewrite: bool,
    rewrite_iters: Option<usize>,
    rewrite_score_backend: Option<String>,
    rewrite_threads: usize,
    allocator: Option<serenity_allocator::Strategy>,
    budget_kb: Option<u64>,
    capacity: Option<serenity_core::capacity::CapacityTarget>,
    threads: usize,
    deadline_ms: Option<u64>,
    cache_bytes: Option<u64>,
    verify: bool,
    verbose: bool,
    json: bool,
    map: bool,
}

fn pick_backend(options: &ScheduleOptions) -> Result<Arc<dyn SchedulerBackend>, String> {
    if let Some(name) = &options.scheduler {
        // `--threads` configures the DP inner loop; honor it for the
        // backends that have one and reject it elsewhere rather than
        // silently running single-threaded.
        match (name.as_str(), options.threads) {
            ("dp", threads) => {
                return Ok(Arc::new(DpBackend::with_config(DpConfig {
                    threads,
                    ..DpConfig::default()
                })));
            }
            ("adaptive", threads) => {
                return Ok(Arc::new(AdaptiveBackend::with_config(BudgetConfig {
                    threads,
                    ..BudgetConfig::default()
                })));
            }
            (_, 1) => {}
            (other, _) => {
                return Err(format!(
                    "--threads only applies to the dp and adaptive backends, not `{other}`"
                ));
            }
        }
        return BackendRegistry::standard().create(name).ok_or_else(|| {
            format!(
                "unknown scheduler `{name}` (available: {})",
                BackendRegistry::standard().names().join(", ")
            )
        });
    }
    Ok(match options.budget_kb {
        Some(kb) => Arc::new(DpBackend::with_config(DpConfig {
            budget: Some(kb * 1024),
            threads: options.threads,
            ..DpConfig::default()
        })),
        None => Arc::new(AdaptiveBackend::with_config(BudgetConfig {
            threads: options.threads,
            ..BudgetConfig::default()
        })),
    })
}

fn compiler(
    options: &ScheduleOptions,
    cache: Option<&Arc<CompileCache>>,
) -> Result<Serenity, String> {
    // `--rewrite-iters 0` means "off", like --no-rewrite.
    let rewrite = if options.no_rewrite || options.rewrite_iters == Some(0) {
        RewriteMode::Off
    } else {
        RewriteMode::IfBeneficial
    };
    let mut builder = Serenity::builder()
        .rewrite(rewrite)
        .backend(pick_backend(options)?)
        .allocator(options.allocator);
    if let Some(cache) = cache {
        builder = builder.compile_cache(Arc::clone(cache));
    }
    let mut search = RewriteSearchConfig { threads: options.rewrite_threads, ..Default::default() };
    if let Some(iters) = options.rewrite_iters.filter(|&n| n > 0) {
        search.max_iterations = iters;
    }
    builder = builder.rewrite_search(search);
    if let Some(name) = &options.rewrite_score_backend {
        let scorer = BackendRegistry::standard().create(name).ok_or_else(|| {
            format!(
                "unknown rewrite score backend `{name}` (available: {})",
                BackendRegistry::standard().names().join(", ")
            )
        })?;
        builder = builder.rewrite_score_backend(scorer);
    }
    if let Some(ms) = options.deadline_ms {
        builder = builder.deadline(Duration::from_millis(ms));
    }
    if let Some(target) = options.capacity {
        builder = builder.capacity_target(target);
    }
    if options.verbose {
        builder = builder.on_event(|event| eprintln!("{}", render_event(event)));
    }
    Ok(builder.build())
}

fn render_event(event: &CompileEvent) -> String {
    match event {
        CompileEvent::RewriteApplied { rule, concat, consumer, branches } => {
            format!("rewrite  : {rule} at {concat}->{consumer} ({branches} branches)")
        }
        CompileEvent::CandidateStarted { rewritten, nodes } => {
            let which = if *rewritten { "rewritten" } else { "original" };
            format!("candidate: scheduling the {which} graph ({nodes} nodes)")
        }
        CompileEvent::OriginalSkipped { lower_bound_bytes, rewritten_peak_bytes } => format!(
            "candidate: skipped the original graph: every order of it peaks at >= {:.1} KiB, \
             the rewritten graph at {:.1} KiB",
            *lower_bound_bytes as f64 / 1024.0,
            *rewritten_peak_bytes as f64 / 1024.0
        ),
        CompileEvent::CandidateKept { rewritten, peak_bytes } => {
            let which = if *rewritten { "rewritten" } else { "original" };
            format!("candidate: kept the {which} graph at {:.1} KiB", *peak_bytes as f64 / 1024.0)
        }
        CompileEvent::SegmentScheduled { index, nodes, peak_bytes } => format!(
            "segment  : #{index} ({nodes} nodes) peak {:.1} KiB",
            *peak_bytes as f64 / 1024.0
        ),
        CompileEvent::SegmentMemoHit { index, nodes, peak_bytes } => format!(
            "memo hit : segment #{index} ({nodes} nodes) replayed at {:.1} KiB",
            *peak_bytes as f64 / 1024.0
        ),
        CompileEvent::SegmentCacheHit { index, nodes, peak_bytes } => format!(
            "cache hit: segment #{index} ({nodes} nodes) replayed at {:.1} KiB",
            *peak_bytes as f64 / 1024.0
        ),
        CompileEvent::CacheReport { hits, misses, evictions, entries, entry_bytes } => format!(
            "cache    : {hits} hits / {} lookups, {evictions} evictions, \
             {entries} entries ({:.1} KiB resident)",
            hits + misses,
            *entry_bytes as f64 / 1024.0
        ),
        CompileEvent::RewriteCandidateScored { rule, concat, consumer, peak_bytes, .. } => {
            format!(
                "scored   : {rule} at {concat}->{consumer} -> {:.1} KiB",
                *peak_bytes as f64 / 1024.0
            )
        }
        CompileEvent::RewriteCandidateKept { rule, concat, consumer, iteration, peak_bytes } => {
            format!(
                "kept     : iter {iteration}: {rule} at {concat}->{consumer} ({:.1} KiB)",
                *peak_bytes as f64 / 1024.0
            )
        }
        CompileEvent::RewriteCandidateRejected { rule, concat, consumer, .. } => {
            format!("rejected : {rule} at {concat}->{consumer}")
        }
        CompileEvent::RewriteSearchFinished {
            iterations,
            candidates,
            stop,
            memo_hits,
            memo_misses,
            initial_peak_bytes,
            final_peak_bytes,
        } => format!(
            "search   : {iterations} iters, {candidates} candidates, stop {stop}, \
             memo {memo_hits}/{} hits, peak {:.1} -> {:.1} KiB",
            memo_hits + memo_misses,
            *initial_peak_bytes as f64 / 1024.0,
            *final_peak_bytes as f64 / 1024.0
        ),
        CompileEvent::BudgetProbe { budget, flag } => {
            format!("probe    : tau {:.1} KiB -> {flag:?}", *budget as f64 / 1024.0)
        }
        CompileEvent::BackendStarted { name } => format!("backend  : {name} started"),
        CompileEvent::BackendSkipped { name } => {
            format!("skipped  : {name} (an exact member already found the optimum)")
        }
        CompileEvent::BackendChosen { name, peak_bytes } => {
            format!("chosen   : {name} at peak {:.1} KiB", *peak_bytes as f64 / 1024.0)
        }
        other => format!("event    : {other:?}"),
    }
}

fn schedule(paths: &[String], options: ScheduleOptions) -> Result<(), String> {
    // One process-wide cache shared by every graph of the invocation
    // (`--cache-bytes 0` disables it): later graphs replay segments the
    // earlier ones already scheduled.
    let cache = match options.cache_bytes {
        Some(0) => None,
        Some(bytes) => Some(Arc::new(CompileCache::with_budget(bytes))),
        None => Some(Arc::new(CompileCache::new())),
    };
    let compiler = compiler(&options, cache.as_ref())?;
    let mut compiled_all = Vec::with_capacity(paths.len());
    for (index, path) in paths.iter().enumerate() {
        let graph = load(path)?;
        let compiled = compiler.compile(&graph).map_err(|e| format!("{path}: {e}"))?;
        // `--verify` re-derives the result through the independent checker;
        // a mismatch fails the whole invocation rather than printing a
        // schedule the checker would not certify.
        let certificate = if options.verify {
            Some(
                serenity_core::verify::verify(&graph, &compiled)
                    .map_err(|e| format!("{path}: verification failed: {e}"))?,
            )
        } else {
            None
        };
        if !options.json {
            if index > 0 {
                println!();
            }
            print_compiled(&compiled, options.map);
            if let Some(cert) = &certificate {
                println!(
                    "verified      : {} nodes, peak {:.1} KiB, {} rewrite(s) replayed",
                    cert.nodes,
                    cert.peak_bytes as f64 / 1024.0,
                    cert.rewrites_replayed
                );
            }
        }
        compiled_all.push((compiled, certificate));
    }
    let cache_stats = cache.as_ref().map(|c| c.stats());
    if options.json {
        let cache_json = cache_stats
            .map(|s| {
                serde_json::json!({
                    "hits": s.hits,
                    "misses": s.misses,
                    "hit_rate": s.hit_rate(),
                    "insertions": s.insertions,
                    "evictions": s.evictions,
                    "entries": s.entries,
                    "entry_bytes": s.entry_bytes,
                    "budget_bytes": s.budget_bytes,
                })
            })
            .unwrap_or(serde_json::Value::Null);
        // Single-graph invocations keep the original flat report shape;
        // batch invocations wrap the per-graph reports.
        let report = if let [(only, cert)] = &compiled_all[..] {
            report_json(only, cert.as_ref(), &cache_json)
        } else {
            let reports: Vec<serde_json::Value> = compiled_all
                .iter()
                .map(|(c, cert)| report_json(c, cert.as_ref(), &serde_json::Value::Null))
                .collect();
            serde_json::json!({ "graphs": reports, "cache": cache_json })
        };
        println!("{}", serde_json::to_string_pretty(&report).expect("report serializes"));
    } else if let Some(stats) = cache_stats {
        println!(
            "\ncompile cache : {} hits / {} lookups ({:.0}% hit rate), {} insertions, \
             {} evictions, {:.1} KiB resident",
            stats.hits,
            stats.hits + stats.misses,
            stats.hit_rate() * 100.0,
            stats.insertions,
            stats.evictions,
            stats.entry_bytes as f64 / 1024.0
        );
    }
    Ok(())
}

fn report_json(
    compiled: &serenity_core::pipeline::CompiledSchedule,
    certificate: Option<&serenity_core::VerifiedCertificate>,
    cache: &serde_json::Value,
) -> serde_json::Value {
    let verification = certificate
        .map(|c| serde_json::to_value(c).expect("certificate serializes"))
        .unwrap_or(serde_json::Value::Null);
    serde_json::json!({
        "cache": cache.clone(),
        "verification": verification,
        "graph": compiled.graph.name(),
        "nodes": compiled.graph.len(),
        "peak_bytes": compiled.peak_bytes,
        "baseline_peak_bytes": compiled.baseline_peak_bytes,
        "reduction": compiled.reduction_factor(),
        "arena_bytes": compiled.arena_bytes(),
        "rewrites": compiled.rewrites,
        "rewrite_search": compiled.rewrite_search,
        "partition": compiled.partition,
        "cache_hits": compiled.stats.cache_hits,
        "cache_misses": compiled.stats.cache_misses,
        "bound_pruned": compiled.stats.bound_pruned,
        "bound_beaten_exits": compiled.stats.bound_beaten_exits,
        "race_cutoffs": compiled.stats.race_cutoffs,
        "compile_time_us": compiled.compile_time.as_micros() as u64,
        "capacity": compiled.capacity,
        "order": compiled.schedule.order,
    })
}

fn print_compiled(compiled: &serenity_core::pipeline::CompiledSchedule, map: bool) {
    println!("graph         : {}", compiled.graph.name());
    println!("nodes         : {}", compiled.graph.len());
    println!("baseline peak : {:.1} KiB", compiled.baseline_peak_bytes as f64 / 1024.0);
    println!("serenity peak : {:.1} KiB", compiled.peak_bytes as f64 / 1024.0);
    println!("reduction     : {:.2}x", compiled.reduction_factor());
    if let Some(arena) = compiled.arena_bytes() {
        println!("arena size    : {:.1} KiB", arena as f64 / 1024.0);
    }
    if let Some(report) = &compiled.capacity {
        let fits = if report.fits {
            "yes".to_owned()
        } else {
            format!("no (spill {:.1} KiB)", report.spill_bytes as f64 / 1024.0)
        };
        let traffic = match &report.traffic {
            Some(t) => format!("{:.1} KiB", t.traffic_kib()),
            None => "infeasible".to_owned(),
        };
        println!(
            "capacity      : {:.1} KiB (objective {})",
            report.capacity_bytes as f64 / 1024.0,
            report.objective
        );
        println!("fits / traffic: {fits} / {traffic}");
    }
    println!("rewrites      : {}", compiled.rewrites.len());
    if let Some(search) = &compiled.rewrite_search {
        println!(
            "rewrite loop  : {} iters, {} candidates, stop {}, memo {}/{} hits{}",
            search.iterations,
            search.candidates_scored,
            search.stop,
            search.memo_hits,
            search.memo_hits + search.memo_misses,
            if search.kept || search.applied == 0 {
                ""
            } else {
                " (winner discarded by final comparison)"
            }
        );
    }
    if compiled.stats.cache_hits + compiled.stats.cache_misses > 0 {
        println!(
            "cache         : {} hits / {} lookups",
            compiled.stats.cache_hits,
            compiled.stats.cache_hits + compiled.stats.cache_misses
        );
    }
    let stats = &compiled.stats;
    if stats.bound_pruned + stats.bound_beaten_exits + stats.race_cutoffs > 0 {
        println!(
            "ceiling       : {} states pruned, {} searches cut off, {} members skipped",
            stats.bound_pruned, stats.bound_beaten_exits, stats.race_cutoffs
        );
    }
    println!("segments      : {:?}", compiled.partition.segment_sizes);
    println!("compile time  : {:.1?}", compiled.compile_time);
    if map {
        match compiled.arena.as_ref() {
            Some(plan) => {
                println!("\narena memory map:");
                print!("{}", plan.render_ascii(64));
            }
            None => println!("(no arena: allocator disabled)"),
        }
    }
}

/// Parsed `serenity serve` flags, bundled.
struct ServeOptions {
    addr: String,
    threads: usize,
    queue: usize,
    scheduler: Option<String>,
    cache_bytes: Option<u64>,
    persist: Option<String>,
    deadline_ms: Option<u64>,
    max_body_bytes: Option<u64>,
    allow_shutdown: bool,
    fault_plan: Option<String>,
    degrade: Option<String>,
    search_budget_bytes: Option<u64>,
}

/// Resolves `--degrade` into a fallback ladder. `None` means the default
/// `beam,kahn` chain; `none` disables degradation entirely.
fn degradation_ladder(spec: Option<&str>) -> Result<Vec<Arc<dyn SchedulerBackend>>, String> {
    let spec = spec.unwrap_or("beam,kahn");
    if spec == "none" {
        return Ok(Vec::new());
    }
    let registry = BackendRegistry::standard();
    spec.split(',')
        .map(str::trim)
        .filter(|name| !name.is_empty())
        .map(|name| {
            registry.create(name).ok_or_else(|| {
                format!(
                    "unknown fallback scheduler `{name}` in --degrade (available: {})",
                    registry.names().join(", ")
                )
            })
        })
        .collect()
}

fn serve(options: ServeOptions) -> Result<(), String> {
    use serenity_core::fault::FaultPlan;
    use serenity_serve::server::{Server, ServerConfig};
    use serenity_serve::service::{CompileService, ServiceConfig};

    let backend: Arc<dyn SchedulerBackend> = match options.scheduler.as_deref() {
        None => Arc::new(AdaptiveBackend::default()),
        Some(name) => BackendRegistry::standard().create(name).ok_or_else(|| {
            format!(
                "unknown scheduler `{name}` (available: {})",
                BackendRegistry::standard().names().join(", ")
            )
        })?,
    };
    let fault = match &options.fault_plan {
        None => None,
        Some(spec) => {
            let seed = std::env::var("SERENITY_FAULT_SEED")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            let plan = FaultPlan::parse(spec, seed)
                .map_err(|e| format!("invalid --fault-plan `{spec}`: {e}"))?;
            eprintln!("fault injection active: {spec} (seed {seed})");
            Some(Arc::new(plan))
        }
    };
    let fallback = degradation_ladder(options.degrade.as_deref())?;
    let cache_config = CompileCacheConfig {
        max_bytes: options.cache_bytes.unwrap_or(CompileCacheConfig::default().max_bytes),
        ..CompileCacheConfig::default()
    };
    let cache = Arc::new(CompileCache::with_config(cache_config));
    if let Some(dir) = &options.persist {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create persistence directory {dir}: {e}"))?;
    }
    let service = Arc::new(CompileService::new(
        backend,
        cache,
        ServiceConfig {
            default_deadline: options.deadline_ms.map(Duration::from_millis),
            persist_dir: options.persist.clone().map(std::path::PathBuf::from),
            allow_shutdown: options.allow_shutdown,
            fault,
            fallback,
            search_budget: options.search_budget_bytes,
            ..ServiceConfig::default()
        },
    ));
    let stats = service.cache().stats();
    if options.persist.is_some() && stats.entries > 0 {
        eprintln!(
            "warm start: {} cached schedules ({:.1} KiB) loaded from disk",
            stats.entries,
            stats.entry_bytes as f64 / 1024.0
        );
    }
    let server_config = ServerConfig {
        addr: options.addr.clone(),
        threads: options.threads,
        queue_capacity: options.queue,
        max_body_bytes: options.max_body_bytes.unwrap_or(ServerConfig::default().max_body_bytes),
        ..ServerConfig::default()
    };
    let server = Server::spawn(server_config, Arc::clone(&service))
        .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
    eprintln!("serving on http://{}", server.addr());
    if crate::signals::install() {
        let handle = server.shutdown_handle();
        std::thread::spawn(move || {
            while !crate::signals::triggered() {
                std::thread::sleep(Duration::from_millis(100));
            }
            eprintln!("shutdown signal received: draining in-flight requests");
            handle.shutdown();
        });
    }
    server.join();
    if let Some(dir) = &options.persist {
        match service.cache().save_to_dir(std::path::Path::new(dir)) {
            Ok(report) => {
                eprintln!("cache persisted: {} shard(s) written to {dir}", report.shards_ok)
            }
            Err(e) => eprintln!("warning: cache persistence to {dir} failed: {e}"),
        }
    }
    Ok(())
}

fn run_suite() -> Result<(), String> {
    println!(
        "{:<26} {:>6} {:>11} {:>11} {:>8}",
        "benchmark", "nodes", "baseline", "serenity", "gain"
    );
    for b in suite() {
        let compiled = Serenity::builder()
            .build()
            .compile(&b.graph)
            .map_err(|e| format!("{}: {e}", b.name))?;
        println!(
            "{:<26} {:>6} {:>9.1}KB {:>9.1}KB {:>7.2}x",
            b.name,
            b.graph.len(),
            compiled.baseline_peak_bytes as f64 / 1024.0,
            compiled.peak_bytes as f64 / 1024.0,
            compiled.reduction_factor(),
        );
    }
    Ok(())
}

fn traffic(path: &str, capacity_kb: u64, policy: Policy) -> Result<(), String> {
    let graph = load(path)?;
    let compiled =
        Serenity::builder().allocator(None).build().compile(&graph).map_err(|e| e.to_string())?;
    let stats = serenity_memsim::simulate(
        &compiled.graph,
        &compiled.schedule.order,
        capacity_kb * 1024,
        policy,
    )
    .map_err(|e| e.to_string())?;
    println!("capacity      : {capacity_kb} KiB ({policy})");
    println!("bytes in      : {:.1} KiB", stats.bytes_in as f64 / 1024.0);
    println!("bytes out     : {:.1} KiB", stats.bytes_out as f64 / 1024.0);
    println!("total traffic : {:.1} KiB", stats.traffic_kib());
    println!("evictions     : {}", stats.evictions);
    println!("peak resident : {:.1} KiB", stats.peak_resident as f64 / 1024.0);
    Ok(())
}
