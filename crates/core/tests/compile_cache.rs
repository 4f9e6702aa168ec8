//! End-to-end behavior of the process-wide [`CompileCache`] through the
//! full pipeline: cross-request reuse, backend keying, and the cold ≡ warm
//! and serial ≡ concurrent determinism invariants (see ARCHITECTURE.md).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serenity_core::backend::{BeamBackend, CompileContext, CompileOptions, DpBackend};
use serenity_core::cache::{CompileCache, CompileCacheConfig};
use serenity_core::divide::DivideAndConquer;
use serenity_core::pipeline::{CompiledSchedule, RewriteMode, Serenity};
use serenity_core::{CapacityTarget, PortfolioBackend};
use serenity_ir::random_dag::{independent_branches, random_dag, RandomDagConfig};
use serenity_ir::Graph;
use serenity_nets::randwire::{randwire_cell, Aggregation, RandWireConfig};
use serenity_nets::swiftnet::{swiftnet_with, SwiftNetConfig};

fn small_swiftnet() -> Graph {
    swiftnet_with(&SwiftNetConfig { hw: 16, in_channels: 3, width: 1 })
}

fn concat_randwire(seed: u64) -> Graph {
    randwire_cell(&RandWireConfig {
        nodes: 8,
        seed,
        hw: 8,
        channels: 8,
        aggregation: Aggregation::Concat,
        ..Default::default()
    })
}

/// The request mix of a batch compile: two distinct networks plus a
/// structural twin of the first (same cells, different instance).
fn workloads() -> Vec<Graph> {
    vec![small_swiftnet(), concat_randwire(5), small_swiftnet()]
}

fn assert_same_compile(a: &CompiledSchedule, b: &CompiledSchedule, what: &str) {
    assert_eq!(a.schedule, b.schedule, "{what}: schedule differs");
    assert_eq!(a.peak_bytes, b.peak_bytes, "{what}: peak differs");
    assert_eq!(a.graph, b.graph, "{what}: compiled graph differs");
    assert_eq!(a.rewrites, b.rewrites, "{what}: applied rewrites differ");
}

#[test]
fn warm_compiles_hit_and_stay_bit_identical_to_cold() {
    let cache = Arc::new(CompileCache::new());
    let compiler = Serenity::builder().compile_cache(Arc::clone(&cache)).build();
    let reference = Serenity::builder().build();

    let graphs = workloads();
    let mut cold = Vec::new();
    for graph in &graphs {
        let compiled = compiler.compile(graph).unwrap();
        // Cache-on must equal cache-off…
        assert_same_compile(&compiled, &reference.compile(graph).unwrap(), "cold vs uncached");
        cold.push(compiled);
    }
    // …the structural twin's first compile already reuses the original's
    // work (a genuine cross-request, cross-instance hit)…
    assert!(cold[2].stats.cache_hits > 0, "twin request must hit: {:?}", cold[2].stats);

    // …and warm requests hit while returning bit-identical results.
    for (graph, cold) in graphs.iter().zip(&cold) {
        let warm = compiler.compile(graph).unwrap();
        assert_same_compile(&warm, cold, "warm vs cold");
        assert!(warm.stats.cache_hits > 0, "warm request must hit: {:?}", warm.stats);
    }
    let stats = cache.stats();
    assert!(stats.hits >= 4, "expected cross-request hits, got {stats:?}");
    assert!(stats.insertions > 0 && stats.entry_bytes > 0);
}

#[test]
fn concurrent_compiles_are_bit_identical_to_serial() {
    let graphs = workloads();
    let serial: Vec<CompiledSchedule> = {
        let compiler = Serenity::builder().build();
        graphs.iter().map(|g| compiler.compile(g).unwrap()).collect()
    };

    // Many workers share one cache and compile every graph repeatedly; all
    // interleavings must reproduce the serial results exactly.
    let cache = Arc::new(CompileCache::new());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let graphs = &graphs;
            let serial = &serial;
            scope.spawn(move || {
                let compiler = Serenity::builder().compile_cache(cache).build();
                for round in 0..2 {
                    for (graph, expected) in graphs.iter().zip(serial) {
                        let compiled = compiler.compile(graph).unwrap();
                        assert_same_compile(
                            &compiled,
                            expected,
                            &format!("concurrent round {round}"),
                        );
                    }
                }
            });
        }
    });
    let stats = cache.stats();
    assert!(stats.hits > 0, "concurrent workers must share work: {stats:?}");
}

#[test]
fn different_backends_never_cross_hit_through_the_pipeline() {
    // dp and beam share one cache but key distinctly: compiling with one
    // must not replay entries of the other. The graph is branch-heavy
    // enough that the cache would be consulted on every segment.
    let cache = Arc::new(CompileCache::new());
    let graph = concat_randwire(7);

    let dp = Serenity::builder()
        .rewrite(RewriteMode::Off)
        .backend(Arc::new(DpBackend::default()))
        .compile_cache(Arc::clone(&cache))
        .build()
        .compile(&graph)
        .unwrap();
    assert_eq!(dp.stats.cache_hits, 0);
    assert!(dp.stats.cache_misses > 0, "dp must consult the cache: {:?}", dp.stats);

    let beam = Serenity::builder()
        .rewrite(RewriteMode::Off)
        .backend(Arc::new(BeamBackend::default()))
        .compile_cache(Arc::clone(&cache))
        .build()
        .compile(&graph)
        .unwrap();
    assert_eq!(beam.stats.cache_hits, 0, "beam must not replay dp's schedules");

    // Same backend, same config: the second dp compile replays.
    let dp_warm = Serenity::builder()
        .rewrite(RewriteMode::Off)
        .backend(Arc::new(DpBackend::default()))
        .compile_cache(Arc::clone(&cache))
        .build()
        .compile(&graph)
        .unwrap();
    assert!(dp_warm.stats.cache_hits > 0);
    assert_same_compile(&dp_warm, &dp, "dp warm vs cold");
}

#[test]
fn divide_and_conquer_consults_the_context_cache() {
    // CompileOptions::compile_cache must work for direct divide-and-conquer
    // calls, not only through the Serenity pipeline: divide-and-conquer is
    // the one reader and writer of the context's cache.
    let cache = Arc::new(CompileCache::new());
    let graph = small_swiftnet();
    let scheduler = DivideAndConquer::new();

    let ctx = CompileContext::new(CompileOptions::new().compile_cache(Arc::clone(&cache)));
    let cold = scheduler.schedule_with_ctx(&graph, &ctx).unwrap();
    assert!(cold.total_stats.cache_misses > 0, "cold run must consult the context cache");

    let ctx = CompileContext::new(CompileOptions::new().compile_cache(Arc::clone(&cache)));
    let warm = scheduler.schedule_with_ctx(&graph, &ctx).unwrap();
    assert!(warm.total_stats.cache_hits > 0, "warm run must replay: {:?}", warm.total_stats);
    assert_eq!(warm.schedule, cold.schedule);

    // Without a cache in the context, nothing is consulted.
    let bare = scheduler.schedule_with_ctx(&graph, &CompileContext::unconstrained()).unwrap();
    assert_eq!(bare.total_stats.cache_hits + bare.total_stats.cache_misses, 0);
    assert_eq!(bare.schedule, cold.schedule);
}

#[test]
fn divide_and_conquer_keys_the_cache_by_capacity() {
    // A traffic-steering portfolio picks different winners at different
    // `MinTraffic` capacities, so a compile warmed at one capacity must
    // return exactly what a cache-free compile at another returns. Each
    // (seed, warm capacity, compile capacity) below is a 10-node random DAG
    // where a key without the capacity salt replays the wrong winner; at
    // seed 174 the replayed schedule spills where the right one fits.
    let ctx = |capacity: u64, cache: Option<&Arc<CompileCache>>| {
        CompileContext::new(CompileOptions {
            capacity: Some(CapacityTarget::min_traffic(capacity)),
            cache: cache.cloned(),
            ..CompileOptions::default()
        })
    };
    let scheduler = DivideAndConquer::new().backend(Arc::new(PortfolioBackend::standard()));
    for (seed, warm_at, compile_at) in [(174u64, 357, 476), (186, 195, 260), (193, 283, 377)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_dag(&RandomDagConfig { nodes: 10, ..Default::default() }, &mut rng);
        let cache = Arc::new(CompileCache::new());
        scheduler.schedule_with_ctx(&graph, &ctx(warm_at, Some(&cache))).unwrap();
        let warmed = scheduler.schedule_with_ctx(&graph, &ctx(compile_at, Some(&cache))).unwrap();
        let cache_free = scheduler.schedule_with_ctx(&graph, &ctx(compile_at, None)).unwrap();
        assert_eq!(warmed.schedule, cache_free.schedule, "seed {seed}: {warm_at} -> {compile_at}");
        assert_eq!(warmed.total_stats.cache_hits, 0, "seed {seed}: crossed capacities");

        let rewarmed = scheduler.schedule_with_ctx(&graph, &ctx(compile_at, Some(&cache))).unwrap();
        assert!(rewarmed.total_stats.cache_hits > 0, "seed {seed}: same capacity must replay");
        assert_eq!(rewarmed.schedule, cache_free.schedule);
    }
}

#[test]
fn uncut_graph_is_cached_as_one_segment() {
    // A graph without cut nodes is a single divide-and-conquer segment, so
    // the whole graph is the unit of reuse.
    let cache = Arc::new(CompileCache::new());
    let compiler = Serenity::builder().compile_cache(Arc::clone(&cache)).build();
    let graph = independent_branches(5, 10);
    let cold = compiler.compile(&graph).unwrap();
    assert_eq!(cold.partition.segment_sizes, vec![graph.len()]);
    assert_eq!((cold.stats.cache_hits, cold.stats.cache_misses), (0, 1));
    let warm = compiler.compile(&graph).unwrap();
    assert_eq!((warm.stats.cache_hits, warm.stats.cache_misses), (1, 0));
    assert_same_compile(&warm, &cold, "uncut warm vs cold");
}

#[test]
fn tiny_budget_evicts_but_never_corrupts_results() {
    // A cache far too small for the workload must keep evicting (or
    // refusing admission) while every compile stays correct.
    let cache = Arc::new(CompileCache::with_config(CompileCacheConfig {
        max_bytes: 4 * 1024,
        shards: 1,
        ..Default::default()
    }));
    let compiler = Serenity::builder().compile_cache(Arc::clone(&cache)).build();
    let reference = Serenity::builder().build();
    for graph in workloads() {
        let squeezed = compiler.compile(&graph).unwrap();
        assert_same_compile(&squeezed, &reference.compile(&graph).unwrap(), "tiny budget");
    }
    assert!(cache.entry_bytes() <= 4 * 1024, "budget must hold: {:?}", cache.stats());
}

#[test]
fn the_nine_suite_cells_fit_in_a_small_cache() {
    // A host-independent memory gate: an entry holds its segment's
    // structure encoding, prefix and order (a few bytes per node) and is
    // charged exactly that plus a fixed overhead. Entries that kept a
    // `Graph` clone were charged 146,948 B for these 66 and held more.
    let cache = Arc::new(CompileCache::new());
    let compiler = Serenity::builder().compile_cache(Arc::clone(&cache)).build();
    for bench in serenity_nets::suite::suite() {
        compiler.compile(&bench.graph).unwrap();
    }
    let stats = cache.stats();
    assert_eq!(stats.entries, 66, "{stats:?}");
    assert!(stats.entry_bytes <= 32 * 1024, "{stats:?}");
}
