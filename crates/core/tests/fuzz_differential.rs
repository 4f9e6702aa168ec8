//! Seeded differential fuzzing of the scheduling stack against the
//! independent verifier.
//!
//! Three oracles are cross-checked on randomly generated DAGs:
//!
//! 1. **Backend conformance**: every registered backend returns a valid
//!    topological order whose peak matches the reference profiler; the
//!    exact engines (dp, adaptive, brute-force) agree on the optimal peak
//!    and no heuristic ever beats it.
//! 2. **Pipeline certification**: full pipeline compiles — across
//!    cached/uncached and 1-/2-thread axes — all pass
//!    [`serenity_core::verify::verify`] and replay bit-identically.
//! 3. **Capacity differential**: compiles under random
//!    [`CapacityTarget`]s carry a [`CapacityReport`] that must equal both
//!    a direct `serenity_memsim` simulation of the compiled order and the
//!    verifier's own independent trace replay.
//! 4. **Mutation rejection**: every seeded corruption of a certified
//!    result (reordered schedule, wrong peak, overlapping / out-of-arena
//!    offsets, tampered live ranges or arena size, fabricated or dropped
//!    rewrites, under-claimed traffic, fabricated capacity fits) is
//!    rejected by the verifier. A single surviving mutant fails the run.
//!
//! The corpus is reproducible: `SERENITY_FUZZ_SEED` picks the seed
//! (default 42) and `SERENITY_FUZZ_CASES` bounds the number of generated
//! graphs (default 12, capped at 256 so CI stays bounded). Failures print
//! the seed so any case can be replayed locally.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serenity_allocator::Strategy;
use serenity_core::backend::{CompileContext, SchedulerBackend};
use serenity_core::cache::CompileCache;
use serenity_core::capacity::CapacityTarget;
use serenity_core::dp::DpConfig;
use serenity_core::pipeline::{CompiledSchedule, RewriteMode, Serenity};
use serenity_core::registry::BackendRegistry;
use serenity_core::verify::{verify, VerifyFailure};
use serenity_ir::random_dag::{random_dag, RandomDagConfig};
use serenity_ir::{mem, topo, DType, Graph, GraphBuilder, Padding};
use serenity_memsim::{simulate, MemSimError, Policy};

/// Backends whose schedules are provably optimal: their peaks must agree.
const EXACT: &[&str] = &["dp", "adaptive", "brute-force"];

/// Brute force enumerates orders; beyond this node count its factorial
/// blow-up dominates the whole run, so larger graphs skip it.
const BRUTE_FORCE_MAX_NODES: usize = 10;

fn seed() -> u64 {
    std::env::var("SERENITY_FUZZ_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42)
}

fn cases() -> usize {
    std::env::var("SERENITY_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
        .clamp(1, 256)
}

/// The seeded corpus: connected DAGs spanning narrow chains to wide,
/// heavily cross-wired cells.
fn corpus() -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed());
    (0..cases())
        .map(|i| {
            let config = RandomDagConfig {
                nodes: rng.gen_range(4..=16),
                edge_prob: rng.gen_range(0.1..0.5),
                max_extra_inputs: rng.gen_range(1..=4),
                min_bytes: 1,
                max_bytes: 4096,
            };
            let mut g = random_dag(&config, &mut rng);
            g.set_name(format!("fuzz_{i}"));
            g
        })
        .collect()
}

/// A concat→conv cell the channel-wise rule fires on, so the rewrite
/// replay leg of the verifier is part of the differential surface.
fn rewritable_cell() -> Graph {
    let mut b = GraphBuilder::new("fuzz_rewrite_cell");
    let x = b.image_input("x", 8, 8, 4, DType::F32);
    let l = b.conv1x1(x, 8).unwrap();
    let r = b.conv1x1(x, 8).unwrap();
    let cat = b.concat(&[l, r]).unwrap();
    let y = b.conv(cat, 16, (3, 3), (1, 1), Padding::Same).unwrap();
    b.mark_output(y);
    b.finish()
}

fn compile_with_arena(graph: &Graph) -> CompiledSchedule {
    // Capacity at ~¾ of the Kahn baseline peak: usually feasible but
    // spilling, so the capacity mutation classes (10, 11) apply to most of
    // the corpus.
    let baseline = mem::peak_bytes(graph, &topo::kahn(graph)).expect("corpus graphs profile");
    Serenity::builder()
        .allocator(Some(Strategy::GreedyBySize))
        .capacity_target(CapacityTarget::min_traffic(baseline * 3 / 4 + 1))
        .build()
        .compile(graph)
        .unwrap_or_else(|e| panic!("seed {}: {} failed to compile: {e}", seed(), graph.name()))
}

#[test]
fn backends_agree_and_heuristics_never_beat_exact() {
    let ctx = CompileContext::unconstrained();
    let registry = BackendRegistry::standard();
    for graph in corpus() {
        let mut exact_peak: Option<(String, u64)> = None;
        let mut peaks = Vec::new();
        for name in registry.names() {
            if name == "brute-force" && graph.len() > BRUTE_FORCE_MAX_NODES {
                continue;
            }
            let backend = registry.create(&name).expect("registered name instantiates");
            let outcome = backend
                .schedule(&graph, &ctx)
                .unwrap_or_else(|e| panic!("seed {}: {name} failed on {graph}: {e}", seed()));
            assert_eq!(
                outcome.schedule.order.len(),
                graph.len(),
                "seed {}: {name} dropped nodes on {graph}",
                seed()
            );
            assert!(
                topo::is_order(&graph, &outcome.schedule.order),
                "seed {}: {name} returned a non-topological order on {graph}",
                seed()
            );
            let reference = mem::peak_bytes(&graph, &outcome.schedule.order)
                .expect("valid orders profile cleanly");
            assert_eq!(
                outcome.schedule.peak_bytes,
                reference,
                "seed {}: {name} misreported its peak on {graph}",
                seed()
            );
            if EXACT.contains(&name.as_str()) {
                match &exact_peak {
                    None => exact_peak = Some((name.clone(), reference)),
                    Some((first, peak)) => assert_eq!(
                        *peak,
                        reference,
                        "seed {}: exact engines disagree on {graph}: {first}={peak}, \
                         {name}={reference}",
                        seed()
                    ),
                }
            }
            peaks.push((name, reference));
        }
        let (_, optimal) = exact_peak.expect("dp and adaptive always run");
        for (name, peak) in peaks {
            assert!(
                peak >= optimal,
                "seed {}: {name} reported {peak} B below the proven optimum {optimal} B \
                 on {graph} — its peak accounting is broken",
                seed()
            );
        }
    }
}

#[test]
fn dp_thread_counts_are_bit_identical() {
    let ctx = CompileContext::unconstrained();
    for graph in corpus() {
        let serial = serenity_core::backend::DpBackend::with_config(DpConfig {
            threads: 1,
            ..DpConfig::default()
        })
        .schedule(&graph, &ctx)
        .expect("serial dp schedules");
        let pooled = serenity_core::backend::DpBackend::with_config(DpConfig {
            threads: 2,
            ..DpConfig::default()
        })
        .schedule(&graph, &ctx)
        .expect("pooled dp schedules");
        assert_eq!(
            serial.schedule,
            pooled.schedule,
            "seed {}: dp thread counts diverged on {graph}",
            seed()
        );
    }
}

#[test]
fn pipeline_compiles_certify_across_cache_and_thread_axes() {
    let mut graphs = corpus();
    graphs.push(rewritable_cell());
    let cache = Arc::new(CompileCache::new());
    for graph in &graphs {
        let mut reference: Option<CompiledSchedule> = None;
        for threads in [1usize, 2] {
            for cached in [false, true] {
                let backend = Arc::new(serenity_core::backend::DpBackend::with_config(DpConfig {
                    threads,
                    ..DpConfig::default()
                }));
                let mut builder = Serenity::builder()
                    .rewrite(RewriteMode::IfBeneficial)
                    .allocator(Some(Strategy::GreedyBySize))
                    .backend(backend as Arc<dyn SchedulerBackend>);
                if cached {
                    builder = builder.compile_cache(Arc::clone(&cache));
                }
                let compiled = builder
                    .build()
                    .compile(graph)
                    .unwrap_or_else(|e| panic!("seed {}: {graph} failed: {e}", seed()));
                let cert = verify(graph, &compiled).unwrap_or_else(|e| {
                    panic!(
                        "seed {}: {graph} (threads={threads}, cached={cached}) \
                         failed certification: {e}",
                        seed()
                    )
                });
                assert_eq!(cert.peak_bytes, compiled.peak_bytes);
                match &reference {
                    None => reference = Some(compiled),
                    Some(first) => {
                        assert_eq!(
                            first.schedule,
                            compiled.schedule,
                            "seed {}: {graph} diverged across axes (threads={threads}, \
                             cached={cached})",
                            seed()
                        );
                        assert_eq!(first.peak_bytes, compiled.peak_bytes);
                        assert_eq!(first.arena_bytes(), compiled.arena_bytes());
                    }
                }
            }
        }
    }
}

#[test]
fn capacity_reports_match_independent_simulation() {
    let mut rng = StdRng::seed_from_u64(seed() ^ 0x6361_7061_6369_7479);
    for graph in corpus() {
        let baseline = mem::peak_bytes(&graph, &topo::kahn(&graph)).expect("corpus graphs profile");
        for _ in 0..2 {
            // Capacities span deeply infeasible through comfortably fitting.
            let capacity = rng.gen_range(1..=baseline.saturating_mul(2));
            let target = if rng.gen_bool(0.5) {
                CapacityTarget::fit(capacity)
            } else {
                CapacityTarget::min_traffic(capacity)
            };
            let compiled = Serenity::builder()
                .allocator(Some(Strategy::GreedyBySize))
                .capacity_target(target)
                .build()
                .compile(&graph)
                .unwrap_or_else(|e| panic!("seed {}: {graph} at capacity {capacity}: {e}", seed()));
            let report = compiled.capacity.unwrap_or_else(|| {
                panic!("seed {}: {graph} compiled without a capacity report", seed())
            });
            assert_eq!(report.capacity_bytes, capacity);
            assert_eq!(report.objective, target.objective);

            // Oracle 1: the claimed report must equal a direct memsim run
            // over the compiled order.
            let peak = mem::peak_bytes(&compiled.graph, &compiled.schedule.order)
                .expect("compiled orders profile");
            assert_eq!(report.fits, peak <= capacity, "seed {}: {graph} fits bit", seed());
            assert_eq!(report.spill_bytes, peak.saturating_sub(capacity));
            match simulate(&compiled.graph, &compiled.schedule.order, capacity, Policy::Belady) {
                Ok(stats) => {
                    assert!(report.feasible);
                    assert_eq!(
                        report.traffic,
                        Some(stats),
                        "seed {}: {graph} traffic diverged from direct simulation",
                        seed()
                    );
                }
                Err(MemSimError::WorkingSetTooLarge { .. }) => {
                    assert!(
                        !report.feasible && report.traffic.is_none(),
                        "seed {}: {graph} claimed feasible but a working set overflows",
                        seed()
                    );
                }
                Err(e) => panic!("seed {}: {graph} simulation failed: {e}", seed()),
            }

            // Oracle 2: the verifier's own trace replay agrees, and the
            // report flows into the certificate.
            let cert = verify(&graph, &compiled).unwrap_or_else(|e| {
                panic!("seed {}: {graph} at capacity {capacity} failed certification: {e}", seed())
            });
            assert_eq!(cert.capacity, compiled.capacity);
        }
    }
}

/// One seeded corruption of a certified compile. Returns the mutant and a
/// label for failure messages.
fn mutate(
    base: &CompiledSchedule,
    class: usize,
    rng: &mut StdRng,
) -> Option<(CompiledSchedule, &'static str)> {
    let mut m = base.clone();
    match class {
        // Schedule corruption: swap two distinct steps.
        0 => {
            let n = m.schedule.order.len();
            if n < 2 {
                return None;
            }
            let i = rng.gen_range(0..n - 1);
            let j = rng.gen_range(i + 1..n);
            m.schedule.order.swap(i, j);
            Some((m, "swapped schedule steps"))
        }
        // Schedule corruption: duplicate a step over another.
        1 => {
            let n = m.schedule.order.len();
            if n < 2 {
                return None;
            }
            let i = rng.gen_range(0..n);
            let j = (i + 1) % n;
            m.schedule.order[j] = m.schedule.order[i];
            Some((m, "duplicated schedule step"))
        }
        // Peak corruption: off-by-one under-claim (both copies kept
        // consistent so only the recomputation can catch it).
        2 => {
            m.schedule.peak_bytes = m.schedule.peak_bytes.saturating_sub(1);
            m.peak_bytes = m.schedule.peak_bytes;
            Some((m, "under-claimed peak"))
        }
        // Peak corruption: the outer copy disagrees with the schedule.
        3 => {
            m.peak_bytes += 1;
            Some((m, "inconsistent peak copies"))
        }
        // Plan corruption: collapse two placements onto one offset.
        4 => {
            let plan = m.arena.as_mut()?;
            let sized: Vec<usize> = plan
                .allocs
                .iter()
                .enumerate()
                .filter(|(_, a)| a.range.size > 0)
                .map(|(i, _)| i)
                .collect();
            if sized.len() < 2 {
                return None;
            }
            let from = sized[rng.gen_range(0..sized.len())];
            let offset = plan.allocs[from].offset;
            for &i in &sized {
                if i != from {
                    plan.allocs[i].offset = offset;
                }
            }
            Some((m, "collapsed plan offsets"))
        }
        // Plan corruption: push a placement past the arena end.
        5 => {
            let plan = m.arena.as_mut()?;
            let alloc = plan.allocs.iter_mut().find(|a| a.range.size > 0)?;
            alloc.offset = plan.arena_bytes;
            Some((m, "out-of-arena offset"))
        }
        // Plan corruption: shrink the declared arena below the peak.
        6 => {
            let plan = m.arena.as_mut()?;
            if base.peak_bytes == 0 {
                return None;
            }
            plan.arena_bytes = base.peak_bytes - 1;
            Some((m, "shrunken arena"))
        }
        // Plan corruption: stretch a live range past its real last use.
        7 => {
            let plan = m.arena.as_mut()?;
            let alloc = plan.allocs.iter_mut().next()?;
            alloc.range.last_use_step += 1;
            Some((m, "stretched live range"))
        }
        // Rewrite corruption: fabricate an accepted rewrite.
        8 => {
            m.rewrites.push(serenity_core::rewrite::AppliedRewrite {
                rule: "channel-wise",
                concat: "fuzz_no_such_concat".into(),
                consumer: "fuzz_no_such_consumer".into(),
                branches: 2,
            });
            Some((m, "fabricated rewrite"))
        }
        // Rewrite corruption: drop the accepted rewrite log.
        9 => {
            if m.rewrites.is_empty() {
                return None;
            }
            m.rewrites.clear();
            Some((m, "dropped rewrite log"))
        }
        // Capacity corruption: under-claim the traffic the schedule pays.
        10 => {
            let traffic = m.capacity.as_mut()?.traffic.as_mut()?;
            if traffic.total_traffic() == 0 {
                return None;
            }
            traffic.bytes_in = 0;
            traffic.bytes_out = 0;
            Some((m, "under-claimed traffic"))
        }
        // Capacity corruption: claim a spilling schedule fits on-chip.
        11 => {
            let report = m.capacity.as_mut()?;
            if report.fits {
                return None;
            }
            report.fits = true;
            report.spill_bytes = 0;
            Some((m, "fabricated fits"))
        }
        _ => unreachable!("unknown mutation class"),
    }
}

#[test]
fn every_seeded_mutant_is_rejected() {
    let mut rng = StdRng::seed_from_u64(seed() ^ 0x6d75_7461_6e74);
    let mut graphs = corpus();
    graphs.push(rewritable_cell());
    let mut tried = 0usize;
    let mut skipped = 0usize;
    let mut capacity_tried = 0usize;
    for graph in &graphs {
        let base = if graph.name().contains("rewrite") {
            // The cost-guided search keeps a rewrite of this cell, so
            // mutation class 9 has a log to drop.
            let compiled = Serenity::builder()
                .rewrite(RewriteMode::IfBeneficial)
                .allocator(Some(Strategy::GreedyBySize))
                .build()
                .compile(graph)
                .expect("rewritable cell compiles");
            assert!(!compiled.rewrites.is_empty(), "the search must keep a rewrite of {graph}");
            compiled
        } else {
            compile_with_arena(graph)
        };
        verify(graph, &base).expect("the uncorrupted compile must certify");
        for class in 0..12 {
            let Some((mutant, label)) = mutate(&base, class, &mut rng) else {
                skipped += 1;
                continue;
            };
            tried += 1;
            if class >= 10 {
                capacity_tried += 1;
            }
            match verify(graph, &mutant) {
                Err(_) => {}
                Ok(cert) => panic!(
                    "seed {}: mutant `{label}` of {graph} survived verification \
                     with certificate {cert:?}",
                    seed()
                ),
            }
        }
    }
    // The corpus must actually exercise the verifier: most classes apply
    // to most graphs, and at least one graph covers every class.
    assert!(
        tried >= graphs.len() * 6,
        "only {tried} mutants generated across {} graphs ({skipped} skipped) — \
         the corpus is too degenerate to mean anything",
        graphs.len()
    );
    assert!(
        capacity_tried >= 2,
        "only {capacity_tried} capacity mutants generated — no corpus graph spills \
         at ¾ of its baseline peak, so classes 10/11 went untested"
    );
}

#[test]
fn rejection_reasons_are_the_expected_classes() {
    // Spot-check that each corruption class maps to the failure family the
    // verifier documents — not just "some error".
    let mut rng = StdRng::seed_from_u64(seed());
    let graph = corpus().remove(0);
    let base = compile_with_arena(&graph);

    let (reordered, _) = mutate(&base, 0, &mut rng).expect("graphs have >= 2 nodes");
    assert!(matches!(verify(&graph, &reordered), Err(VerifyFailure::OrderInvalid { .. })));

    let (wrong_peak, _) = mutate(&base, 2, &mut rng).expect("peak mutation always applies");
    assert!(matches!(verify(&graph, &wrong_peak), Err(VerifyFailure::PeakMismatch { .. })));

    if let Some((overlap, _)) = mutate(&base, 4, &mut rng) {
        assert!(matches!(verify(&graph, &overlap), Err(VerifyFailure::ArenaInvalid(_))));
    }

    if let Some((shrunk, _)) = mutate(&base, 6, &mut rng) {
        assert!(matches!(
            verify(&graph, &shrunk),
            Err(VerifyFailure::ArenaInvalid(_) | VerifyFailure::ArenaTooSmall { .. })
        ));
    }

    let (fabricated, _) = mutate(&base, 8, &mut rng).expect("rewrite fabrication always applies");
    assert!(matches!(verify(&graph, &fabricated), Err(VerifyFailure::RewriteReplay { .. })));

    if let Some((under_claimed, _)) = mutate(&base, 10, &mut rng) {
        assert!(matches!(
            verify(&graph, &under_claimed),
            Err(VerifyFailure::CapacityMismatch { .. })
        ));
    }

    if let Some((fake_fit, _)) = mutate(&base, 11, &mut rng) {
        assert!(matches!(verify(&graph, &fake_fit), Err(VerifyFailure::CapacityMismatch { .. })));
    }
}
