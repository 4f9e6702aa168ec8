//! Conformance suite run against every backend in the standard registry.
//!
//! Every registered strategy — whatever its search style — must satisfy the
//! same contract: valid topological orders, peak accounting that agrees
//! with the reference profiler, run-to-run determinism, and prompt,
//! *distinct* errors under cancellation and spent deadlines (never a bogus
//! schedule).

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serenity_core::backend::{CancelToken, CompileContext, CompileOptions, SchedulerBackend};
use serenity_core::capacity::CapacityTarget;
use serenity_core::pipeline::Serenity;
use serenity_core::registry::BackendRegistry;
use serenity_core::ScheduleError;
use serenity_ir::random_dag::{hourglass_stack, independent_branches, random_dag, RandomDagConfig};
use serenity_ir::{mem, topo, Graph};

/// Graphs small enough for every backend, including brute force.
fn conformance_graphs() -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(404);
    let mut graphs = vec![independent_branches(5, 16), hourglass_stack(2, 3, 40, &mut rng)];
    for seed in [1u64, 2, 3] {
        let mut rng = StdRng::seed_from_u64(seed);
        graphs.push(random_dag(
            &RandomDagConfig { nodes: 12, edge_prob: 0.25, ..Default::default() },
            &mut rng,
        ));
    }
    graphs
}

fn each_backend() -> Vec<(String, Arc<dyn SchedulerBackend>)> {
    let registry = BackendRegistry::standard();
    registry
        .names()
        .into_iter()
        .map(|name| {
            let backend = registry.create(&name).expect("registered name instantiates");
            (name, backend)
        })
        .collect()
}

#[test]
fn orders_are_valid_and_complete() {
    let ctx = CompileContext::unconstrained();
    for graph in conformance_graphs() {
        for (name, backend) in each_backend() {
            let outcome = backend
                .schedule(&graph, &ctx)
                .unwrap_or_else(|e| panic!("{name} failed on {graph}: {e}"));
            assert_eq!(outcome.schedule.order.len(), graph.len(), "{name} dropped nodes");
            assert!(
                topo::is_order(&graph, &outcome.schedule.order),
                "{name} returned a non-topological order"
            );
        }
    }
}

#[test]
fn peaks_agree_with_the_reference_profiler() {
    let ctx = CompileContext::unconstrained();
    for graph in conformance_graphs() {
        for (name, backend) in each_backend() {
            let outcome = backend.schedule(&graph, &ctx).expect(&name);
            let reference = mem::peak_bytes(&graph, &outcome.schedule.order)
                .expect("valid orders profile cleanly");
            assert_eq!(outcome.schedule.peak_bytes, reference, "{name} misreported its peak");
        }
    }
}

#[test]
fn results_are_deterministic() {
    let ctx = CompileContext::unconstrained();
    for graph in conformance_graphs() {
        for (name, backend) in each_backend() {
            let first = backend.schedule(&graph, &ctx).expect(&name);
            let second = backend.schedule(&graph, &ctx).expect(&name);
            assert_eq!(first.schedule.order, second.schedule.order, "{name} is nondeterministic");
            assert_eq!(first.schedule.peak_bytes, second.schedule.peak_bytes);
        }
    }
}

#[test]
fn zero_deadline_yields_a_distinct_error_not_a_schedule() {
    let graph = independent_branches(6, 16);
    for (name, backend) in each_backend() {
        let ctx = CompileContext::new(CompileOptions::new().deadline(Duration::ZERO));
        let err = backend
            .schedule(&graph, &ctx)
            .err()
            .unwrap_or_else(|| panic!("{name} returned a schedule under a spent deadline"));
        assert!(
            matches!(err, ScheduleError::DeadlineExceeded { .. }),
            "{name} returned {err:?} instead of DeadlineExceeded"
        );
    }
}

#[test]
fn cancellation_yields_a_distinct_error() {
    let graph = independent_branches(6, 16);
    for (name, backend) in each_backend() {
        let token = CancelToken::new();
        token.cancel();
        let ctx = CompileContext::new(CompileOptions::new().cancel_token(token));
        let err = backend
            .schedule(&graph, &ctx)
            .err()
            .unwrap_or_else(|| panic!("{name} returned a schedule after cancellation"));
        assert!(
            matches!(err, ScheduleError::Cancelled),
            "{name} returned {err:?} instead of Cancelled"
        );
    }
}

#[test]
fn zero_deadline_cancels_a_dp_run_with_a_timeout_error() {
    // The acceptance criterion spelled out: a Duration::ZERO deadline on
    // the DP backend aborts with the deadline error instead of hanging or
    // returning an invalid schedule — checked end to end through the
    // pipeline as well.
    let graph = independent_branches(10, 64);
    let backend = BackendRegistry::standard().create("dp").unwrap();
    let ctx = CompileContext::new(CompileOptions::new().deadline(Duration::ZERO));
    assert!(matches!(backend.schedule(&graph, &ctx), Err(ScheduleError::DeadlineExceeded { .. })));

    let err = Serenity::builder()
        .backend(backend)
        .deadline(Duration::ZERO)
        .build()
        .compile(&graph)
        .unwrap_err();
    assert!(matches!(err, ScheduleError::DeadlineExceeded { .. }));
}

#[test]
fn mid_flight_cancellation_interrupts_the_dp_inner_loop() {
    // Cancel from another thread while the DP grinds a wide graph: the run
    // must abort with Cancelled (via the inner-loop poll), not run to
    // completion.
    let graph = independent_branches(22, 64);
    let token = CancelToken::new();
    let ctx = CompileContext::new(CompileOptions::new().cancel_token(token.clone()));
    let backend = BackendRegistry::standard().create("dp").unwrap();
    let result = std::thread::scope(|scope| {
        let handle = scope.spawn(|| backend.schedule(&graph, &ctx));
        std::thread::sleep(Duration::from_millis(30));
        token.cancel();
        handle.join().expect("scheduling thread does not panic")
    });
    match result {
        Err(ScheduleError::Cancelled) => {}
        Ok(outcome) => {
            // Legal on fast machines: the run may finish before the cancel
            // lands. The schedule must then be fully valid.
            assert!(topo::is_order(&graph, &outcome.schedule.order));
        }
        Err(other) => panic!("expected Cancelled or success, got {other:?}"),
    }
}

#[test]
fn capacity_targets_preserve_validity_and_determinism() {
    // A CapacityTarget on the compile context must not change the backend
    // contract: complete topological orders, and the same bits on every
    // run. Both objectives are exercised — `fit` annotates only, while
    // `min_traffic` below the baseline peak actively steers the portfolio.
    for graph in conformance_graphs() {
        let baseline =
            mem::peak_bytes(&graph, &topo::kahn(&graph)).expect("conformance graphs profile");
        for target in
            [CapacityTarget::fit(baseline), CapacityTarget::min_traffic(baseline * 3 / 4 + 1)]
        {
            let ctx = CompileContext::new(CompileOptions::new().capacity_target(target));
            for (name, backend) in each_backend() {
                let first = backend
                    .schedule(&graph, &ctx)
                    .unwrap_or_else(|e| panic!("{name} failed on {graph} under {target:?}: {e}"));
                assert_eq!(
                    first.schedule.order.len(),
                    graph.len(),
                    "{name} dropped nodes under {target:?}"
                );
                assert!(
                    topo::is_order(&graph, &first.schedule.order),
                    "{name} returned a non-topological order under {target:?}"
                );
                let second = backend.schedule(&graph, &ctx).expect(&name);
                assert_eq!(
                    first.schedule, second.schedule,
                    "{name} is nondeterministic under {target:?}"
                );
            }
        }
    }
}

#[test]
fn portfolio_is_no_worse_than_any_single_backend() {
    // The multi-backend acceptance criterion, on graphs every backend can
    // handle plus a bundled-benchmark-shaped hourglass stack.
    let ctx = CompileContext::unconstrained();
    let portfolio = BackendRegistry::standard().create("portfolio").unwrap();
    for graph in conformance_graphs() {
        let best = portfolio.schedule(&graph, &ctx).expect("portfolio schedules").schedule;
        for (name, backend) in each_backend() {
            if let Ok(single) = backend.schedule(&graph, &ctx) {
                assert!(
                    best.peak_bytes <= single.schedule.peak_bytes,
                    "portfolio ({} B) lost to {name} ({} B) on {graph}",
                    best.peak_bytes,
                    single.schedule.peak_bytes,
                );
            }
        }
    }
}
