//! Differential suite for the columnar instance substrate.
//!
//! The contract under test: the store-backed [`MaterializedOracle`] — and
//! the bucket-queue peel it drives through its `InstancePeeler` — is
//! **bit-identical** to the streaming oracles it replaced, for every Ψ
//! shape (edge / clique / star / diamond / general), on degrees,
//! decrements, core numbers, peel order, and the PeelApp / IncApp /
//! CoreApp results built on top. A second group regression-tests the
//! engine integration: byte-budget fallbacks change nothing but speed,
//! and graph updates never serve a stale store.
//!
//! Iteration counts honour the `DSD_PROP_ITERS` env knob (the nightly CI
//! job runs the suites with elevated counts).

use std::sync::Arc;

use dsd::core::oracle::{
    CliqueOracle, DiamondOracle, GenericPatternOracle, StarOracle, DIAMOND_ROW_COST,
};
use dsd::core::{
    decompose, DensityOracle, DsdEngine, MaterializedOracle, Method, Objective, Parallelism,
    StoreFallback, Substrates,
};
use dsd::graph::testing::with_pendant_star;
use dsd::graph::{Graph, GraphBuilder, GraphUpdate, VertexId, VertexSet};
use dsd::motif::{count_instances, Pattern, PatternKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Iteration knob: `DSD_PROP_ITERS` overrides, `default` otherwise.
fn prop_iters(default: usize) -> usize {
    std::env::var("DSD_PROP_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn random_graph(rng: &mut StdRng, n_lo: usize, n_hi: usize) -> Graph {
    let n = rng.gen_range(n_lo..=n_hi);
    let p = rng.gen_range(0.08f64..0.35);
    let mut b = GraphBuilder::new(n);
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            if rng.gen_bool(p) {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// The graph a Ψ runs on: `g` itself, except that diamonds get a pendant
/// star whose hub's squared degree alone pays [`DIAMOND_ROW_COST`] for
/// every 4-cycle of `g`. The cost rule then keeps the diamond store, so
/// the diamond rows compare the store with the closed form, not the
/// closed form with itself.
fn graph_for(psi: &Pattern, g: &Graph) -> Graph {
    if psi.kind() != PatternKind::Diamond {
        return g.clone();
    }
    let cycles = count_instances(g, psi, &VertexSet::full(g.num_vertices()));
    let leaves = ((DIAMOND_ROW_COST * cycles) as f64).sqrt().ceil() as usize;
    with_pendant_star(g, leaves)
}

/// The Ψ menu with each pattern's pre-substrate streaming oracle.
fn oracle_pairs() -> Vec<(Pattern, Box<dyn DensityOracle>)> {
    vec![
        (Pattern::edge(), Box::new(CliqueOracle::new(2))),
        (Pattern::triangle(), Box::new(CliqueOracle::new(3))),
        (Pattern::clique(4), Box::new(CliqueOracle::new(4))),
        (Pattern::two_star(), Box::new(StarOracle::new(2))),
        (Pattern::diamond(), Box::new(DiamondOracle)),
        (
            Pattern::two_triangle(),
            Box::new(GenericPatternOracle::new(&Pattern::two_triangle())),
        ),
        (
            Pattern::c3_star(),
            Box::new(GenericPatternOracle::new(&Pattern::c3_star())),
        ),
    ]
}

/// Degrees, counts, and decrement streams agree between the materialized
/// oracle and each pattern's streaming implementation, on full and
/// partially peeled alive sets.
#[test]
fn materialized_matches_streaming_degrees_and_decrements() {
    let iters = prop_iters(25);
    for seed in 0..iters as u64 {
        let mut rng = StdRng::seed_from_u64(0xD5D0 + seed);
        let base = random_graph(&mut rng, 12, 28);
        for (psi, streaming) in oracle_pairs() {
            let g = graph_for(&psi, &base);
            // Exercise both serial and sharded clique store builds.
            let threads = if seed % 2 == 0 { 1 } else { 3 };
            let mat = MaterializedOracle::with_policy(&psi, Parallelism::new(threads), None);
            let mut alive = VertexSet::full(g.num_vertices());
            assert!(
                mat.store(&g).is_some(),
                "seed {seed} psi {}: the store materializes",
                psi.name()
            );
            loop {
                assert_eq!(
                    mat.degrees(&g, &alive),
                    streaming.degrees(&g, &alive),
                    "degrees: seed {seed} psi {}",
                    psi.name()
                );
                assert_eq!(
                    mat.count(&g, &alive),
                    streaming.count(&g, &alive),
                    "count: seed {seed} psi {}",
                    psi.name()
                );
                if alive.len() <= g.num_vertices() / 2 {
                    break;
                }
                let members = alive.to_vec();
                let victim = members[rng.gen_range(0..members.len())];
                assert_eq!(
                    mat.removal_decrements(&g, &alive, victim),
                    streaming.removal_decrements(&g, &alive, victim),
                    "decrements: seed {seed} psi {} victim {victim}",
                    psi.name()
                );
                alive.remove(victim);
            }
        }
    }
}

/// Full decompositions — core numbers, kmax, peel order, μ, the residual μ
/// profile, ρ′ — and the approximation results derived from them are
/// bit-identical across the store-backed peeler and the streaming
/// decrement path.
#[test]
fn materialized_matches_streaming_decomposition_and_apps() {
    let iters = prop_iters(20);
    for seed in 0..iters as u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE + seed);
        let base = random_graph(&mut rng, 14, 30);
        for (psi, streaming) in oracle_pairs() {
            let g = graph_for(&psi, &base);
            let mat = Arc::new(MaterializedOracle::with_policy(
                &psi,
                Parallelism::serial(),
                None,
            ));
            assert!(
                mat.store(&g).is_some(),
                "seed {seed} psi {}: the store materializes",
                psi.name()
            );
            let sa = Substrates::cold(&g, &psi).with_oracle(mat);
            let sb = Substrates::cold(&g, &psi).with_oracle(Arc::from(streaming));
            let (a, b) = (sa.decomposition(), sb.decomposition());
            let label = format!("seed {seed} psi {}", psi.name());
            assert_eq!(a.core, b.core, "core numbers: {label}");
            assert_eq!(a.kmax, b.kmax, "kmax: {label}");
            assert_eq!(a.peel_order, b.peel_order, "peel order: {label}");
            assert_eq!(a.residual_mu, b.residual_mu, "residual mu profile: {label}");
            assert_eq!(a.mu, b.mu, "mu: {label}");
            assert_eq!(
                a.best_density.to_bits(),
                b.best_density.to_bits(),
                "rho': {label}"
            );

            // PeelApp is a projection of the decomposition.
            let pa = sa.peel_app();
            let pb = sb.peel_app();
            assert_eq!(pa.vertices, pb.vertices, "PeelApp: {label}");
            assert_eq!(
                pa.density.to_bits(),
                pb.density.to_bits(),
                "PeelApp: {label}"
            );

            // IncApp reads the max core and re-measures density.
            let ia = sa.inc_app();
            let ib = sb.inc_app();
            assert_eq!(ia.result.vertices, ib.result.vertices, "IncApp: {label}");
            assert_eq!(
                ia.result.density.to_bits(),
                ib.result.density.to_bits(),
                "IncApp: {label}"
            );

            // CoreApp's top-down scan issues masked degree queries.
            let ca = sa.core_app();
            let cb = sb.core_app();
            assert_eq!(ca.result.vertices, cb.result.vertices, "CoreApp: {label}");
            assert_eq!(
                ca.result.density.to_bits(),
                cb.result.density.to_bits(),
                "CoreApp: {label}"
            );
        }
    }
}

/// A zero byte budget forces every request onto the streaming fallback;
/// answers must not change — only the `store` stats do.
#[test]
fn budget_fallback_changes_no_engine_answer() {
    let iters = prop_iters(10);
    for seed in 0..iters as u64 {
        let mut rng = StdRng::seed_from_u64(0xB4D6 + seed);
        let g = random_graph(&mut rng, 14, 24);
        let materialized = DsdEngine::over(&g);
        let capped = DsdEngine::over(&g).with_substrate_budget(Some(0));
        for psi in [Pattern::triangle(), Pattern::two_triangle()] {
            for objective in [
                Objective::Densest,
                Objective::TopK(2),
                Objective::AtLeastK(4),
                Objective::AtMostK(6),
            ] {
                for method in [Method::CoreExact, Method::PeelApp, Method::IncApp] {
                    let a = materialized
                        .request(&psi)
                        .objective(objective.clone())
                        .method(method)
                        .solve();
                    let b = capped
                        .request(&psi)
                        .objective(objective.clone())
                        .method(method)
                        .solve();
                    let label = format!("seed {seed} psi {} {objective:?} {method:?}", psi.name());
                    assert_eq!(a.vertices, b.vertices, "{label}");
                    assert_eq!(a.density.to_bits(), b.density.to_bits(), "{label}");
                    assert_eq!(a.outcome, b.outcome, "{label}");
                }
            }
        }
        // The capped engine reports its fallback.
        let s = capped
            .request(&Pattern::triangle())
            .method(Method::PeelApp)
            .solve();
        let store = s.stats.store.expect("store-capable oracle");
        assert!(!store.materialized);
        assert_eq!(store.fallback, Some(StoreFallback::Budget));
        let s = materialized
            .request(&Pattern::triangle())
            .method(Method::PeelApp)
            .solve();
        assert!(s.stats.store.expect("store-capable oracle").materialized);
    }
}

/// Satellite regression: `DsdEngine::apply` must never serve a stale
/// store. The epoch bump *repairs* the warm Ψ-substrates in place (no
/// wholesale drop), and the repaired stores answer exactly like a cold
/// engine over the updated graph.
#[test]
fn updates_never_serve_a_stale_store() {
    let iters = prop_iters(15);
    for seed in 0..iters as u64 {
        let mut rng = StdRng::seed_from_u64(0x57A1E + seed);
        let g = random_graph(&mut rng, 14, 24);
        let engine = DsdEngine::new(g.clone());
        let patterns = [Pattern::triangle(), Pattern::two_triangle()];

        // Warm materialized substrates at epoch 0.
        for psi in &patterns {
            let s = engine.request(psi).method(Method::PeelApp).solve();
            assert!(s.stats.store.expect("store-capable").materialized);
        }
        let resident = engine.substrate_bytes();
        assert!(resident > 0, "warm stores must be accounted");

        // Apply a random effective batch (keep drawing until one sticks).
        let mut updates;
        loop {
            let n = g.num_vertices() as u32;
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            updates = vec![
                if rng.gen_bool(0.5) {
                    GraphUpdate::Insert(u, v)
                } else {
                    GraphUpdate::Delete(u, v)
                },
                GraphUpdate::Insert(0, 1),
            ];
            let stats = engine.apply(&updates);
            if stats.inserted + stats.deleted > 0 {
                assert_eq!(
                    stats.substrates_repaired,
                    patterns.len(),
                    "seed {seed}: both warm stores must be repaired in place"
                );
                assert_eq!(stats.substrates_rebuilt, 0, "seed {seed}");
                break;
            }
        }
        assert!(
            engine.substrate_bytes() > 0,
            "repaired stores stay resident across the epoch bump"
        );

        // Post-update answers match a cold engine over the updated graph.
        let updated = engine.graph();
        let cold = DsdEngine::new(Graph::from_edges(
            updated.num_vertices(),
            &updated.edges().collect::<Vec<_>>(),
        ));
        for psi in &patterns {
            for method in [Method::PeelApp, Method::CoreExact] {
                let warm = engine.request(psi).method(method).solve();
                let expect = cold.request(psi).method(method).solve();
                let label = format!("seed {seed} psi {} {method:?}", psi.name());
                assert_eq!(warm.vertices, expect.vertices, "{label}");
                assert_eq!(warm.density.to_bits(), expect.density.to_bits(), "{label}");
            }
        }
        assert!(
            engine.substrate_bytes() > 0,
            "repaired stores keep serving at the new epoch"
        );
    }
}

/// The sharded clique store build is worker-count invariant at the answer
/// level: every thread count yields the same degrees and decompositions.
#[test]
fn sharded_store_build_is_thread_invariant() {
    let mut rng = StdRng::seed_from_u64(0x5AAD);
    let g = random_graph(&mut rng, 40, 60);
    let psi = Pattern::triangle();
    let reference = MaterializedOracle::with_policy(&psi, Parallelism::serial(), None);
    let alive = VertexSet::full(g.num_vertices());
    let ref_deg = reference.degrees(&g, &alive);
    let ref_dec = decompose(&g, &reference);
    for threads in [2usize, 3, 8] {
        let sharded = MaterializedOracle::with_policy(&psi, Parallelism::new(threads), None);
        assert_eq!(sharded.degrees(&g, &alive), ref_deg, "threads {threads}");
        let dec = decompose(&g, &sharded);
        assert_eq!(dec.core, ref_dec.core, "threads {threads}");
        assert_eq!(dec.peel_order, ref_dec.peel_order, "threads {threads}");
        assert_eq!(
            dec.best_density.to_bits(),
            ref_dec.best_density.to_bits(),
            "threads {threads}"
        );
    }
}
