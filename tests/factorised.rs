//! Differential suite for factorised flow construction (ISSUE 10).
//!
//! The factorised path builds `construct+`-shaped density networks
//! straight from `InstanceStore` columns ([`build_store_network`]) and
//! caches them on the engine keyed by (canonical Ψ, member set, epoch).
//! This suite pins the contract that none of it is observable in
//! answers:
//!
//! * a store-built network is **structurally identical**
//!   ([`DensityNetwork::structure_fingerprint`]) to the grouped
//!   enumeration build over the same subgraph, and double builds of
//!   either are deterministic;
//! * identically-shaped networks agree **bit for bit** on every probe:
//!   same min-cut side, same cut value;
//! * engine solves through store-built networks match streaming
//!   (enumeration-built) solves — decision, witness, density bits —
//!   across edge/clique/star/diamond/general Ψ and the
//!   exact / core-exact / top-k / query paths;
//! * repeat solves are served from the **network cache** (hits counted,
//!   zero store rebuilds) and stay bit-identical;
//! * an effective update **invalidates** cached networks (epoch bump):
//!   the next solve rebuilds cold and matches a fresh engine.
//!
//! Iteration counts honour `DSD_PROP_ITERS` like `tests/dynamic.rs`;
//! nightly CI runs this suite at 5000 iterations.

use dsd::core::flownet::{build_pattern_network, build_store_network, DensityNetwork};
use dsd::core::oracle::DIAMOND_ROW_COST;
use dsd::core::{DsdEngine, Method, Objective, Solution};
use dsd::graph::testing::with_pendant_star;
use dsd::graph::{Graph, GraphUpdate, VertexId, VertexSet};
use dsd::motif::store::InstanceStore;
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

fn random_graph(rng: &mut StdRng, n_lo: usize, n_hi: usize, p_lo: f64, p_hi: f64) -> Graph {
    let n = rng.gen_range(n_lo..=n_hi);
    let p = rng.gen_range(p_lo..p_hi);
    let mut edges = Vec::new();
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// The Ψ sweep the ISSUE asks for: edge, cliques, star, diamond, general.
fn patterns() -> Vec<Pattern> {
    vec![
        Pattern::edge(),
        Pattern::triangle(),
        Pattern::clique(4),
        Pattern::two_star(),
        Pattern::diamond(),
        Pattern::c3_star(), // general Ψ (the paw)
    ]
}

/// Builds the Ψ-instance store of `g` the way the engine does (diamonds
/// through the 4-cycle walk), skipping pattern/graph pairs the store
/// cannot hold (never happens at these sizes, but keep it total).
fn store_for(g: &Graph, psi: &Pattern) -> Option<InstanceStore> {
    let alive = VertexSet::full(g.num_vertices());
    let built = match psi.kind() {
        PatternKind::Clique(h) => InstanceStore::cliques(g, h, &alive, 1, None),
        PatternKind::Diamond => InstanceStore::four_cycles(g, &alive, 2, None),
        _ => InstanceStore::pattern(g, psi, &alive, 1, None),
    };
    built.ok().map(|(store, _)| store)
}

/// The graph a Ψ's engine runs on: `g` itself, except that diamonds get a
/// pendant star whose hub's squared degree alone pays
/// [`DIAMOND_ROW_COST`] for every 4-cycle of `g`. The cost rule then
/// keeps the diamond store, so the diamond rows compare store-built
/// networks with enumeration-built ones.
fn graph_for(psi: &Pattern, g: &Graph) -> Graph {
    if psi.kind() != PatternKind::Diamond {
        return g.clone();
    }
    let cycles = count_instances(g, psi, &VertexSet::full(g.num_vertices()));
    let leaves = ((DIAMOND_ROW_COST * cycles) as f64).sqrt().ceil() as usize;
    with_pendant_star(g, leaves)
}

fn assert_solutions_identical(ctx: &str, a: &Solution, b: &Solution) {
    assert_eq!(a.vertices, b.vertices, "vertices: {ctx}");
    assert_eq!(
        a.density.to_bits(),
        b.density.to_bits(),
        "density bits: {ctx}"
    );
    for (i, (sa, sb)) in a.subgraphs.iter().zip(&b.subgraphs).enumerate() {
        assert_eq!(sa.vertices, sb.vertices, "subgraph #{i} vertices: {ctx}");
        assert_eq!(
            sa.density.to_bits(),
            sb.density.to_bits(),
            "subgraph #{i} density bits: {ctx}"
        );
    }
    assert_eq!(
        a.subgraphs.len(),
        b.subgraphs.len(),
        "subgraph count: {ctx}"
    );
}

/// Store-built networks are structurally identical to the grouped
/// enumeration build, and both builds are deterministic (double-build
/// fingerprints equal) — the node-id/order canonicalization contract.
#[test]
fn store_network_matches_grouped_enumeration_structure() {
    let iters = prop_iters(4);
    let mut rng = StdRng::seed_from_u64(0xFAC7_0001);
    for iter in 0..iters {
        let g = random_graph(&mut rng, 8, 14, 0.3, 0.6);
        let all: Vec<VertexId> = g.vertices().collect();
        for psi in patterns() {
            let Some(store) = store_for(&g, &psi) else {
                continue;
            };
            let from_store = build_store_network(&g, &all, &store);
            let from_enum = build_pattern_network(&g, &all, &psi, true);
            assert_eq!(
                from_store.structure_fingerprint(),
                from_enum.structure_fingerprint(),
                "iter {iter}, psi {}: store build must mirror grouped enumeration",
                psi.name()
            );
            let again = build_store_network(&g, &all, &store);
            assert_eq!(
                from_store.structure_fingerprint(),
                again.structure_fingerprint(),
                "iter {iter}, psi {}: store build must be deterministic",
                psi.name()
            );
            let enum_again = build_pattern_network(&g, &all, &psi, true);
            assert_eq!(
                from_enum.structure_fingerprint(),
                enum_again.structure_fingerprint(),
                "iter {iter}, psi {}: grouped enumeration must be deterministic",
                psi.name()
            );
        }
    }
}

/// Identically-shaped networks answer every probe bit-for-bit: the same
/// ascending α ladder yields the same cut side and the same cut value.
#[test]
fn store_and_enumeration_networks_agree_on_cuts() {
    let iters = prop_iters(4);
    let mut rng = StdRng::seed_from_u64(0xFAC7_0002);
    for iter in 0..iters {
        let g = random_graph(&mut rng, 8, 14, 0.3, 0.6);
        let all: Vec<VertexId> = g.vertices().collect();
        for psi in patterns() {
            let Some(store) = store_for(&g, &psi) else {
                continue;
            };
            let mut a: DensityNetwork = build_store_network(&g, &all, &store);
            let mut b = build_pattern_network(&g, &all, &psi, true);
            for alpha in [0.0, 0.25, 0.5, 1.0, 2.0] {
                let sa = a.min_cut_side(alpha);
                let va = a.cut_value();
                let sb = b.min_cut_side(alpha);
                let vb = b.cut_value();
                assert_eq!(
                    sa,
                    sb,
                    "iter {iter}, psi {}, alpha {alpha}: cut side",
                    psi.name()
                );
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "iter {iter}, psi {}, alpha {alpha}: cut value",
                    psi.name()
                );
            }
        }
    }
}

/// Engine solves through the factorised path (store-backed oracle →
/// store-built networks) match a streaming engine (substrate budget 0 →
/// enumeration-built networks) bit for bit, across Ψ × method.
#[test]
fn store_backed_solves_match_streaming_enumeration() {
    let iters = prop_iters(3);
    let mut rng = StdRng::seed_from_u64(0xFAC7_0003);
    for iter in 0..iters {
        let base = random_graph(&mut rng, 9, 14, 0.3, 0.55);
        for psi in patterns() {
            let g = graph_for(&psi, &base);
            let factorised = DsdEngine::new(g.clone());
            let streaming = DsdEngine::new(g).with_substrate_budget(Some(0));
            // Edges and stars never materialize; every other Ψ must, or
            // both sides would run the same enumeration path.
            let stored = !matches!(psi.kind(), PatternKind::Clique(2) | PatternKind::Star(_));
            for method in [Method::Exact, Method::CoreExact] {
                let ctx = format!("iter {iter}, psi {}, {method:?}", psi.name());
                let warm = factorised.request(&psi).method(method).solve();
                let cold = streaming.request(&psi).method(method).solve();
                assert_solutions_identical(&ctx, &warm, &cold);
                assert_eq!(
                    warm.stats.store.is_some_and(|s| s.materialized),
                    stored,
                    "{ctx}: store"
                );
            }
            let ctx = format!("iter {iter}, psi {}, top-k", psi.name());
            let warm = factorised
                .request(&psi)
                .objective(Objective::TopK(2))
                .method(Method::CoreExact)
                .solve();
            let cold = streaming
                .request(&psi)
                .objective(Objective::TopK(2))
                .method(Method::CoreExact)
                .solve();
            assert_solutions_identical(&ctx, &warm, &cold);
        }
    }
}

/// Repeat solves warm-resolve through the engine's network cache: hits
/// are counted, the store is never rebuilt, answers stay bit-identical.
/// Covers the exact, top-k, and pinned-query paths.
#[test]
fn warm_network_cache_serves_repeat_solves() {
    let iters = prop_iters(3);
    let mut rng = StdRng::seed_from_u64(0xFAC7_0004);
    for iter in 0..iters {
        let g = random_graph(&mut rng, 9, 14, 0.3, 0.55);
        let psi = Pattern::triangle();
        let engine = DsdEngine::new(g.clone());

        let first = engine.request(&psi).method(Method::Exact).solve();
        if first.vertices.is_empty() {
            // Triangle-free draw: no Ψ instance, no network to cache.
            continue;
        }
        let after_first = engine.cache_stats();
        assert!(
            after_first.network_misses >= 1,
            "iter {iter}: cold solve builds its network"
        );
        assert!(
            engine.network_bytes() > 0,
            "iter {iter}: solved network must be cached"
        );

        let second = engine.request(&psi).method(Method::Exact).solve();
        let after_second = engine.cache_stats();
        assert_solutions_identical(&format!("iter {iter}, repeat exact"), &first, &second);
        assert!(
            after_second.network_hits > after_first.network_hits,
            "iter {iter}: repeat solve must take the cached network"
        );
        assert_eq!(
            after_second.oracle_builds, 1,
            "iter {iter}: repeat solve must not re-enumerate instances"
        );

        // The pinned-query network caches under its own (members, Q) key.
        let q = vec![0 as VertexId];
        let qa = engine
            .request(&psi)
            .objective(Objective::WithQuery(q.clone()))
            .solve();
        let before_repeat = engine.cache_stats();
        let qb = engine
            .request(&psi)
            .objective(Objective::WithQuery(q))
            .solve();
        assert_solutions_identical(&format!("iter {iter}, repeat query"), &qa, &qb);
        assert!(
            engine.cache_stats().network_hits > before_repeat.network_hits,
            "iter {iter}: repeat query must take the cached pinned network"
        );
    }
}

/// An effective update drops every cached network whose member set holds
/// a changed edge. The `Exact` network spans every vertex, so it always
/// holds the changed edge: post-update solves rebuild cold — no stale
/// hit — and match a fresh engine over the updated graph bit for bit.
#[test]
fn epoch_bump_invalidates_cached_networks() {
    let iters = prop_iters(3);
    let mut rng = StdRng::seed_from_u64(0xFAC7_0005);
    for iter in 0..iters {
        let g = random_graph(&mut rng, 9, 13, 0.3, 0.5);
        let n = g.num_vertices() as VertexId;
        let psi = Pattern::triangle();
        let engine = DsdEngine::new(g.clone());
        if engine
            .request(&psi)
            .method(Method::Exact)
            .solve()
            .vertices
            .is_empty()
        {
            // Triangle-free draw: nothing cached, nothing to invalidate.
            continue;
        }
        assert!(engine.network_bytes() > 0);

        // One effective toggle: insert a missing edge (or delete if full).
        let (u, v) = {
            let mut pick = (0, 1);
            'outer: for u in 0..n {
                for v in (u + 1)..n {
                    if !g.has_edge(u, v) {
                        pick = (u, v);
                        break 'outer;
                    }
                }
            }
            pick
        };
        let update = if g.has_edge(u, v) {
            GraphUpdate::Delete(u, v)
        } else {
            GraphUpdate::Insert(u, v)
        };
        let st = engine.apply(&[update]);
        assert_eq!(st.inserted + st.deleted, 1, "iter {iter}: effective batch");
        assert_eq!(
            engine.network_bytes(),
            0,
            "iter {iter}: apply must clear cached networks"
        );

        let before = engine.cache_stats();
        let after_update = engine.request(&psi).method(Method::Exact).solve();
        let stats = engine.cache_stats();
        assert_eq!(
            stats.network_hits, before.network_hits,
            "iter {iter}: post-update solve must not hit a stale network"
        );
        assert!(
            stats.network_misses > before.network_misses,
            "iter {iter}: post-update solve rebuilds its network"
        );

        let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        match update {
            GraphUpdate::Insert(u, v) => edges.push((u, v)),
            GraphUpdate::Delete(u, v) => {
                edges.retain(|&(a, b)| (a.min(b), a.max(b)) != (u.min(v), u.max(v)))
            }
        }
        let cold = DsdEngine::new(Graph::from_edges(g.num_vertices(), &edges));
        let expect = cold.request(&psi).method(Method::Exact).solve();
        assert_solutions_identical(&format!("iter {iter}, post-update"), &after_update, &expect);
    }
}
