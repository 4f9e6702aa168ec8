//! Parallel rewrite-search determinism: scoring an iteration's candidates
//! across worker threads must be bit-identical to the serial sweep — same
//! summary (modulo wall-clock durations), same accepted-rewrite sequence,
//! same final graph and schedule — with or without a compile cache, and
//! cancellation/deadlines must still propagate out of worker threads.

use std::sync::Arc;
use std::time::Duration;

use serenity_core::backend::{CancelToken, CompileContext, CompileOptions};
use serenity_core::cache::CompileCache;
use serenity_core::pipeline::Serenity;
use serenity_core::rewrite::{
    RewriteSearchConfig, RewriteSearchOutcome, RewriteSearchSummary, Rewriter,
};
use serenity_core::{ScheduleError, ScheduleStats};
use serenity_ir::{DType, Graph, GraphBuilder, NodeId, Op, Padding};
use serenity_nets::randwire::{randwire_cell, Aggregation, RandWireConfig};
use serenity_nets::swiftnet::{swiftnet_with, SwiftNetConfig};

fn workloads() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "randwire-concat-n12",
            randwire_cell(&RandWireConfig {
                nodes: 12,
                seed: 1,
                hw: 8,
                channels: 8,
                aggregation: Aggregation::Concat,
                ..Default::default()
            }),
        ),
        ("swiftnet-w1", swiftnet_with(&SwiftNetConfig { hw: 16, in_channels: 3, width: 1 })),
        ("tied-cells", tied_cells()),
    ]
}

/// Three weight-tied concat cells in series, as in an unrolled recurrent
/// cell. The second and third cells are structurally equal pinned
/// segments, so the candidates rewriting them in one iteration create the
/// same new segment: a scoring layer that wrote the shared cache would
/// hand it from one candidate to the other.
fn tied_cells() -> Graph {
    let mut b = GraphBuilder::new("tied-cells");
    let x = b.image_input("x", 8, 8, 8, DType::F32);
    let arms: Vec<NodeId> = (0..3).map(|_| b.conv1x1(x, 8).unwrap()).collect();
    let cat = b.concat(&arms).unwrap();
    let mut out = b.conv(cat, 8, (3, 3), (1, 1), Padding::Same).unwrap();
    let mut g = b.finish();
    let ops = |ids: &[NodeId], g: &Graph| -> Vec<Op> {
        ids.iter().map(|&v| g.node(v).op.clone()).collect()
    };
    let (arm_ops, cell_ops) = (ops(&arms, &g), ops(&[cat, out], &g));
    for _ in 0..2 {
        let arms: Vec<NodeId> =
            arm_ops.iter().map(|op| g.add(op.clone(), &[out]).unwrap()).collect();
        let cat = g.add(cell_ops[0].clone(), &arms).unwrap();
        out = g.add(cell_ops[1].clone(), &[cat]).unwrap();
    }
    g.mark_output(out);
    g
}

/// Durations are wall-clock and never bit-identical; zero them before
/// comparing summaries.
fn timeless(summary: &RewriteSearchSummary) -> RewriteSearchSummary {
    RewriteSearchSummary {
        wall: Duration::ZERO,
        site_scan: Duration::ZERO,
        candidate_build: Duration::ZERO,
        ..summary.clone()
    }
}

/// The scoring effort of a run, durations zeroed.
fn effort(outcome: &RewriteSearchOutcome) -> ScheduleStats {
    ScheduleStats { duration: Duration::ZERO, ..outcome.stats }
}

#[test]
fn thread_counts_are_bit_identical() {
    // The cached variant gives every run a fresh compile cache. Scoring
    // layers may read it but must never write it mid-iteration: a layer's
    // write could hand a segment to a concurrently scored candidate, so
    // hit counts would follow the worker schedule. The search publishes
    // only when it ends, so a run on a fresh cache never hits it and does
    // exactly the serial cache-free run's work, every lookup a cache miss.
    for (id, graph) in workloads() {
        let run = |threads: usize, cached: bool| {
            let mut options = CompileOptions::new();
            if cached {
                options = options.compile_cache(Arc::new(CompileCache::new()));
            }
            Rewriter::standard()
                .cost_guided()
                .config(RewriteSearchConfig { threads, ..Default::default() })
                .run(&graph, &CompileContext::new(options))
                .unwrap()
        };
        let serial = run(1, false);
        for cached in [false, true] {
            let expected = ScheduleStats {
                cache_misses: if cached { serial.stats.memo_misses } else { 0 },
                ..effort(&serial)
            };
            for threads in [1usize, 2, 8] {
                let outcome = run(threads, cached);
                let what = format!("{id} (cached: {cached}) at {threads} threads");
                assert_eq!(serial.graph, outcome.graph, "{what}: graph diverged");
                assert_eq!(serial.applied, outcome.applied, "{what}: applied sequence diverged");
                assert_eq!(
                    timeless(&serial.summary),
                    timeless(&outcome.summary),
                    "{what}: summary diverged"
                );
                assert_eq!(effort(&outcome), expected, "{what}: scoring effort diverged");
            }
        }
    }
}

#[test]
fn second_run_on_a_shared_cache_replays_the_first() {
    // The search publishes its run memo to the context's cache when it
    // ends, so a second run of the same search replays the first one's
    // segment schedules and reaches the identical outcome.
    for (id, graph) in workloads() {
        let ctx =
            CompileContext::new(CompileOptions::new().compile_cache(Arc::new(CompileCache::new())));
        let search = Rewriter::standard().cost_guided();
        let first = search.run(&graph, &ctx).unwrap();
        let second = search.run(&graph, &ctx).unwrap();
        assert_eq!(first.stats.cache_hits, 0, "{id}: the first run starts cold");
        assert!(second.stats.cache_hits > 0, "{id}: second run must replay: {:?}", second.stats);
        assert_eq!(first.graph, second.graph, "{id}: graph diverged");
        assert_eq!(first.applied, second.applied, "{id}: applied sequence diverged");
        // Replayed segments count as cache hits instead of memo misses;
        // everything else in the summary is identical.
        let outcome = |s: &RewriteSearchSummary| RewriteSearchSummary {
            memo_hits: 0,
            memo_misses: 0,
            ..timeless(s)
        };
        assert_eq!(outcome(&first.summary), outcome(&second.summary), "{id}: summary diverged");
    }
}

#[test]
fn pipeline_compiles_identically_at_any_thread_count() {
    for (id, graph) in workloads() {
        let compile = |threads: usize| {
            Serenity::builder()
                .rewrite_threads(threads)
                .allocator(None)
                .build()
                .compile(&graph)
                .unwrap()
        };
        let serial = compile(1);
        for threads in [2usize, 8] {
            let parallel = compile(threads);
            assert_eq!(serial.peak_bytes, parallel.peak_bytes, "{id}: peak diverged");
            assert_eq!(serial.schedule, parallel.schedule, "{id}: schedule diverged");
            assert_eq!(serial.graph, parallel.graph, "{id}: compiled graph diverged");
            assert_eq!(serial.rewrites, parallel.rewrites, "{id}: kept rewrites diverged");
        }
    }
}

#[test]
fn events_are_replayed_in_serial_order() {
    use serenity_core::backend::CompileEvent;
    use std::sync::Mutex;
    let (_, graph) = workloads().remove(0);
    let collect = |threads: usize| {
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let ctx = CompileContext::new(CompileOptions::new().on_event(move |e: &CompileEvent| {
            sink.lock().unwrap().push(format!("{e:?}"));
        }));
        Rewriter::standard()
            .cost_guided()
            .config(RewriteSearchConfig { threads, ..Default::default() })
            .run(&graph, &ctx)
            .unwrap();
        let events = seen.lock().unwrap().clone();
        events
    };
    let serial = collect(1);
    let parallel = collect(8);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "event streams must be identical");
}

#[test]
fn cancellation_propagates_from_worker_threads() {
    let (_, graph) = workloads().remove(0);
    // Cancel shortly after the search starts: workers observe the token
    // inside their scoring runs and the replay surfaces the cancellation.
    let token = CancelToken::new();
    let canceller = token.clone();
    let handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(3));
        canceller.cancel();
    });
    let ctx = CompileContext::new(CompileOptions::new().cancel_token(token));
    let result = Rewriter::standard()
        .cost_guided()
        .config(RewriteSearchConfig { threads: 8, ..Default::default() })
        .run(&graph, &ctx);
    handle.join().unwrap();
    assert!(matches!(result, Err(ScheduleError::Cancelled)), "expected Cancelled, got {result:?}");
}

#[test]
fn pre_cancelled_token_aborts_at_any_thread_count() {
    let (_, graph) = workloads().remove(0);
    for threads in [1usize, 2, 8] {
        let token = CancelToken::new();
        token.cancel();
        let ctx = CompileContext::new(CompileOptions::new().cancel_token(token));
        let err = Rewriter::standard()
            .cost_guided()
            .config(RewriteSearchConfig { threads, ..Default::default() })
            .run(&graph, &ctx)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Cancelled));
    }
}

#[test]
fn deadlines_propagate_from_worker_threads() {
    let (_, graph) = workloads().remove(0);
    for threads in [1usize, 8] {
        // A zero deadline trips while scoring the input graph and
        // propagates as an error; a mid-search deadline instead stops the
        // loop with the best graph so far. Both are exercised — the zero
        // case deterministically, the short case opportunistically.
        let ctx = CompileContext::new(CompileOptions::new().deadline(Duration::ZERO));
        let err = Rewriter::standard()
            .cost_guided()
            .config(RewriteSearchConfig { threads, ..Default::default() })
            .run(&graph, &ctx)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::DeadlineExceeded { .. }));

        let ctx = CompileContext::new(CompileOptions::new().deadline(Duration::from_millis(8)));
        match Rewriter::standard()
            .cost_guided()
            .config(RewriteSearchConfig { threads, ..Default::default() })
            .run(&graph, &ctx)
        {
            // Deadline hit mid-search: best-so-far with the Deadline stop.
            Ok(outcome) => {
                use serenity_core::rewrite::RewriteStop;
                if outcome.summary.stop == RewriteStop::Deadline {
                    assert!(outcome.summary.final_peak_bytes <= outcome.summary.initial_peak_bytes);
                }
            }
            // Deadline hit while scoring the input graph.
            Err(ScheduleError::DeadlineExceeded { .. }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
}
