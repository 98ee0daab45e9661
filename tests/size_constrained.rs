//! Differential suite for the size-constrained greedy fallbacks.
//!
//! DalkS's greedy answer is the densest residual graph of the (k, Ψ)-core
//! peel with at least k vertices. The decomposition records the instance
//! count of every residual graph (`residual_mu`) and the running maxima of
//! its densities, and the fallback looks the answer up in them. DamkS
//! trims PeelApp's densest residual graph with a lazy heap peel. This
//! suite pins both against the straightforward
//! implementations they replaced, kept here as references:
//!
//! * the profile lookup equals a replay of the peel order through the
//!   stateless `removal_decrements`, in vertices and density bits, for
//!   every k — on whole graphs, on TopK-style residual vertex sets, on
//!   graphs without a single instance (μ = 0), and on repaired stores
//!   carrying tombstoned rows — with k on both sides of the Ψ-isolated
//!   prefix boundary;
//! * the recorded profile equals the replayed one, starts at μ and ends
//!   at 0, and ρ′ / `best_residual()` equal the replay's in-loop tracking;
//! * the heap trim equals a linear minimum-degree scan, for every k;
//! * the engine's `densest_at_least_k` / `densest_at_most_k` fallbacks
//!   return exactly the reference answers.
//!
//! Graphs are seeded Erdős–Rényi and Chung–Lu graphs; Ψ covers the edge,
//! triangle, 4-clique, 2-star, diamond and a general pattern (the
//! 2-triangle), for which the greedy fallback is the only path. The
//! references stream decrements from each pattern's streaming oracle,
//! while the engine side runs its default (store-backed where it applies)
//! oracle.
//!
//! Iteration counts honour `DSD_PROP_ITERS` like `tests/enumeration.rs`;
//! nightly CI runs this suite with elevated iterations.

use std::sync::Arc;

use dsd::core::clique_core::decompose_within;
use dsd::core::oracle::{
    oracle_for, CliqueOracle, DiamondOracle, GenericPatternOracle, StarOracle, SubstrateRepair,
    DIAMOND_ROW_COST,
};
use dsd::core::size_constrained::greedy_trim;
use dsd::core::{CliqueCoreDecomposition, CoreExactConfig, DensityOracle, Substrates};
use dsd::datasets::{chung_lu::chung_lu, er::er};
use dsd::graph::testing::with_pendant_star;
use dsd::graph::{Graph, VertexId, VertexSet};
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

/// The Ψ menu with each pattern's streaming oracle.
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
    ]
}

/// Alternates a dense-ish G(n, p) and a heavy-tailed Chung–Lu graph.
fn random_graph(rng: &mut StdRng, iteration: usize) -> (Graph, String) {
    let n = rng.gen_range(6..=24);
    let seed = rng.gen::<u64>();
    if iteration.is_multiple_of(2) {
        let p = rng.gen_range(0.15f64..0.5);
        (er(n, p, seed), format!("ER(n={n}, p={p:.2}, seed={seed})"))
    } else {
        let m = rng.gen_range(n..=4 * n);
        (
            chung_lu(n, m, 2.5, seed),
            format!("Chung-Lu(n={n}, m~{m}, seed={seed})"),
        )
    }
}

/// The graph a Ψ runs on: `g` itself, except that on the heavy-tailed
/// iterations (`pad`) diamonds get a pendant star whose hub's squared
/// degree alone pays [`DIAMOND_ROW_COST`] for every 4-cycle of `g`. The
/// cost rule then keeps the engine's diamond store, so those rows check
/// the store's peel against the closed form's replay; the dense G(n, p)
/// iterations mostly check the closed form the rule falls back to,
/// seeded with the walk's degrees. (Padding those too would make the
/// every-k replays an order of magnitude slower.)
fn graph_for(psi: &Pattern, g: &Graph, pad: bool) -> Graph {
    if psi.kind() != PatternKind::Diamond || !pad {
        return g.clone();
    }
    let cycles = count_instances(g, psi, &VertexSet::full(g.num_vertices()));
    let leaves = ((DIAMOND_ROW_COST * cycles) as f64).sqrt().ceil() as usize;
    with_pendant_star(g, leaves)
}

/// Tallies which side of the cost rule a diamond oracle took on `g`,
/// requiring the store where `g` was padded for it.
fn tally_diamond(
    psi: &Pattern,
    g: &Graph,
    oracle: &dyn DensityOracle,
    padded: bool,
    sides: &mut [usize; 2],
    ctx: &str,
) {
    if psi.kind() == PatternKind::Diamond {
        let stored = oracle.store(g).is_some();
        assert!(stored || !padded, "{ctx}: the padded graph keeps the store");
        sides[usize::from(stored)] += 1;
    }
}

/// The peel order's residual μ profile over `g[alive]`, replayed through
/// `removal_decrements` from the initial degrees: entry `i` is the
/// instance count after `i` removals.
fn replayed_profile(
    g: &Graph,
    oracle: &dyn DensityOracle,
    alive: &VertexSet,
    order: &[VertexId],
) -> Vec<u64> {
    let mut alive = alive.clone();
    let mut deg = oracle.degrees(g, &alive);
    let mut mu = deg.iter().sum::<u64>() / oracle.psi_size() as u64;
    let mut profile = vec![mu];
    for &v in order {
        for (u, amount) in oracle.removal_decrements(g, &alive, v) {
            deg[u as usize] -= amount.min(deg[u as usize]);
        }
        mu -= deg[v as usize].min(mu);
        alive.remove(v);
        profile.push(mu);
    }
    profile
}

/// ρ′ as the peel used to track it in-loop: the first strict maximum over
/// the non-empty residual graphs, as `(suffix, density)`.
fn in_loop_best(profile: &[u64]) -> (usize, f64) {
    let n = profile.len() - 1;
    let mut best_suffix = 0;
    let mut best_density = if n == 0 {
        0.0
    } else {
        profile[0] as f64 / n as f64
    };
    for (i, &mu) in profile.iter().enumerate().skip(1) {
        let live = n - i;
        if live > 0 {
            let density = mu as f64 / live as f64;
            if density > best_density {
                best_density = density;
                best_suffix = i;
            }
        }
    }
    (best_suffix, best_density)
}

/// The DalkS fallback as a replay of the peel order of `g[alive]`:
/// recompute μ along the peel with `removal_decrements` and keep the first
/// strict maximum among the residual graphs with at least `k` vertices.
fn replayed_at_least_k(
    g: &Graph,
    oracle: &dyn DensityOracle,
    alive: &VertexSet,
    order: &[VertexId],
    k: usize,
) -> Option<(Vec<VertexId>, f64)> {
    let n = alive.len();
    if k > n || k == 0 {
        return None;
    }
    let mut best: Option<(f64, usize)> = None;
    let mut alive = alive.clone();
    let mut deg = oracle.degrees(g, &alive);
    let mut mu = deg.iter().sum::<u64>() / oracle.psi_size() as u64;
    for (i, &v) in order.iter().enumerate().take(n - k + 1) {
        let rho = mu as f64 / (n - i) as f64;
        if best.is_none_or(|(b, _)| rho > b) {
            best = Some((rho, i));
        }
        for (u, amount) in oracle.removal_decrements(g, &alive, v) {
            deg[u as usize] -= amount.min(deg[u as usize]);
        }
        mu -= deg[v as usize].min(mu);
        alive.remove(v);
    }
    let (rho, suffix) = best?;
    let mut vertices = order[suffix..].to_vec();
    vertices.sort_unstable();
    Some((vertices, rho))
}

/// The DamkS trim as a linear scan: remove the first minimum-degree vertex
/// in ascending id order until one vertex is left, keeping the first
/// strict maximum among the sets with at most `k` vertices.
fn linear_trim(
    g: &Graph,
    oracle: &dyn DensityOracle,
    start: &[VertexId],
    k: usize,
) -> Option<(Vec<VertexId>, f64)> {
    let mut alive = VertexSet::from_members(g.num_vertices(), start);
    let mut deg = oracle.degrees(g, &alive);
    let mut mu = deg.iter().sum::<u64>() / oracle.psi_size() as u64;
    let mut best: Option<(f64, Vec<VertexId>)> = None;
    loop {
        if alive.len() <= k && !alive.is_empty() {
            let rho = mu as f64 / alive.len() as f64;
            if best.as_ref().is_none_or(|(b, _)| rho > *b) {
                best = Some((rho, alive.to_vec()));
            }
        }
        if alive.len() <= 1 {
            break;
        }
        let v = alive
            .iter()
            .min_by_key(|&v| deg[v as usize])
            .expect("non-empty");
        for (u, amount) in oracle.removal_decrements(g, &alive, v) {
            deg[u as usize] -= amount.min(deg[u as usize]);
        }
        mu -= deg[v as usize].min(mu);
        alive.remove(v);
    }
    best.map(|(rho, vertices)| (vertices, rho))
}

fn assert_same(got: Option<(Vec<VertexId>, f64)>, want: Option<(Vec<VertexId>, f64)>, what: &str) {
    match (got, want) {
        (Some((gv, gr)), Some((wv, wr))) => {
            assert_eq!(gv, wv, "{what}: vertices");
            assert_eq!(gr.to_bits(), wr.to_bits(), "{what}: density bits");
        }
        (got, want) => assert_eq!(got.is_some(), want.is_some(), "{what}: presence"),
    }
}

/// The recorded profile, ρ′ and every DalkS scan equal the replay.
#[test]
fn profile_scan_matches_replayed_peel() {
    let iters = prop_iters(12);
    let mut rng = StdRng::seed_from_u64(0x5E1F_DA1C);
    // The repairs draw from their own stream, so the graphs stay put.
    let mut repair_rng = StdRng::seed_from_u64(0x7E9A_12ED);
    let mut tally = Coverage::default();
    for it in 0..iters {
        let (base, label) = random_graph(&mut rng, it);
        let pad = it % 2 == 1;
        for (psi, streaming) in oracle_pairs() {
            let g = graph_for(&psi, &base, pad);
            let n = g.num_vertices();
            let ctx = format!("{label} psi {}", psi.name());
            let engine_oracle: Arc<dyn DensityOracle> = Arc::from(oracle_for(&psi));
            tally_diamond(
                &psi,
                &g,
                engine_oracle.as_ref(),
                pad,
                &mut tally.diamond,
                &ctx,
            );
            let s = Substrates::cold(&g, &psi).with_oracle(engine_oracle);
            let dec = s.decomposition();
            assert_eq!(dec.peel_order.len(), n, "{ctx}: whole-graph peel");

            let full = VertexSet::full(n);
            let profile = replayed_profile(&g, streaming.as_ref(), &full, &dec.peel_order);
            assert_eq!(dec.residual_mu, profile, "{ctx}: residual mu profile");
            assert_eq!(dec.residual_mu[0], dec.mu, "{ctx}: profile starts at mu");
            assert_eq!(dec.residual_mu[n], 0, "{ctx}: profile ends at 0");

            let (suffix, best) = in_loop_best(&profile);
            assert_eq!(
                dec.best_density.to_bits(),
                best.to_bits(),
                "{ctx}: rho' bits"
            );
            assert_eq!(
                dec.best_residual(),
                dec.peel_order[suffix..].to_vec(),
                "{ctx}: best residual"
            );

            for k in 1..=n {
                let scan = dec.densest_suffix(k).map(|(i, rho)| {
                    let mut vs = dec.peel_order[i..].to_vec();
                    vs.sort_unstable();
                    (vs, rho)
                });
                let want = replayed_at_least_k(&g, streaming.as_ref(), &full, &dec.peel_order, k);
                assert_same(scan, want.clone(), &format!("{ctx} scan k={k}"));

                let o = s
                    .densest_at_least_k(k, CoreExactConfig::default())
                    .expect("1 <= k <= n");
                if !o.exact {
                    let got = Some((o.result.vertices, o.result.density));
                    assert_same(got, want, &format!("{ctx} DalkS fallback k={k}"));
                }
            }
            assert!(dec.densest_suffix(0).is_none(), "{ctx}: k = 0");
            assert!(dec.densest_suffix(n + 1).is_none(), "{ctx}: k > n");

            // TopK's residual rounds peel the graph minus the answers so
            // far; PeelApp's S* stands in for the first answer.
            let mut residual = full.clone();
            for v in dec.best_residual() {
                residual.remove(v);
            }
            let engine_oracle = oracle_for(&psi);
            let within = decompose_within(&g, engine_oracle.as_ref(), &residual);
            let residual_ctx = format!("{ctx} residual");
            let straddled =
                check_lookups(&g, streaming.as_ref(), &residual, &within, &residual_ctx);
            tally.straddled += usize::from(straddled);

            // A repaired store: one edge out, one in, re-peeled through the
            // repaired oracle (clique and general-pattern stores).
            if let Some((g_new, repaired)) = repaired_oracle(&g, &psi, &mut repair_rng) {
                let s = Substrates::cold(&g_new, &psi).with_oracle(Arc::clone(&repaired));
                let store = repaired.store(&g_new).expect("repaired store");
                tally.tombstoned += usize::from(store.tombstoned_rows() > 0);
                let ctx = format!("{ctx} repaired");
                let straddled =
                    check_lookups(&g_new, streaming.as_ref(), &full, s.decomposition(), &ctx);
                tally.straddled += usize::from(straddled);
                check_fallbacks(&g_new, streaming.as_ref(), &s, &ctx);
            }
        }
    }
    // μ = 0: a forest has no triangle, 4-clique, diamond or 2-triangle,
    // and an edgeless graph no instance at all.
    let forest = Graph::from_edges(9, &[(0, 1), (1, 2), (1, 3), (4, 5), (5, 6)]);
    for g in [forest, Graph::empty(5)] {
        let full = VertexSet::full(g.num_vertices());
        for (psi, streaming) in oracle_pairs() {
            let s = Substrates::cold(&g, &psi);
            if s.decomposition().mu > 0 {
                continue;
            }
            tally.mu_zero += 1;
            let ctx = format!("mu = 0 psi {}", psi.name());
            check_lookups(&g, streaming.as_ref(), &full, s.decomposition(), &ctx);
            check_fallbacks(&g, streaming.as_ref(), &s, &ctx);
        }
    }
    assert!(
        tally.straddled >= iters
            && tally.tombstoned >= iters / 2
            && tally.mu_zero >= 6
            && tally.diamond[1] >= iters / 2
            && tally.diamond[0] >= 1,
        "coverage: {tally:?}"
    );
}

/// How often the extended profile checks met each case they cover.
#[derive(Debug, Default)]
struct Coverage {
    /// Decompositions with μ > 0 and a Ψ-isolated prefix, whose every-k
    /// check puts k on both sides of the prefix boundary.
    straddled: usize,
    /// Repaired stores carrying tombstoned rows.
    tombstoned: usize,
    /// Instance-free graphs.
    mu_zero: usize,
    /// Diamond engine oracles that fell back to the closed form, and that
    /// kept their store.
    diamond: [usize; 2],
}

/// Requires `dec`, a decomposition of `g[alive]`, to match the replay of
/// its peel order: the profile, ρ′ and S*, and the lookup for every k
/// (and none for k = 0 or k > |alive|). Returns whether the peel had a
/// Ψ-isolated prefix and μ > 0, so that the k loop crossed the prefix
/// boundary.
fn check_lookups(
    g: &Graph,
    streaming: &dyn DensityOracle,
    alive: &VertexSet,
    dec: &CliqueCoreDecomposition,
    ctx: &str,
) -> bool {
    let n = alive.len();
    assert_eq!(dec.peel_order.len(), n, "{ctx}: every alive vertex peeled");
    let profile = replayed_profile(g, streaming, alive, &dec.peel_order);
    assert_eq!(dec.residual_mu, profile, "{ctx}: residual mu profile");
    let (suffix, best) = in_loop_best(&profile);
    assert_eq!(
        dec.best_density.to_bits(),
        best.to_bits(),
        "{ctx}: rho' bits"
    );
    assert_eq!(
        dec.best_residual(),
        dec.peel_order[suffix..].to_vec(),
        "{ctx}: best residual"
    );
    for k in 0..=n + 1 {
        let lookup = dec.densest_suffix(k).map(|(i, rho)| {
            let mut vs = dec.peel_order[i..].to_vec();
            vs.sort_unstable();
            (vs, rho)
        });
        let want = replayed_at_least_k(g, streaming, alive, &dec.peel_order, k);
        assert_same(lookup, want, &format!("{ctx} lookup k={k}"));
    }
    let deg = streaming.degrees(g, alive);
    let prefix = alive.iter().filter(|&v| deg[v as usize] == 0).count();
    dec.mu > 0 && prefix > 0
}

/// The engine's DalkS fallback on `s` answers the replay for every k.
fn check_fallbacks(g: &Graph, streaming: &dyn DensityOracle, s: &Substrates<'_>, ctx: &str) {
    let n = g.num_vertices();
    let (full, order) = (VertexSet::full(n), &s.decomposition().peel_order);
    for k in 1..=n {
        let o = s
            .densest_at_least_k(k, CoreExactConfig::default())
            .expect("1 <= k <= n");
        if !o.exact {
            let want = replayed_at_least_k(g, streaming, &full, order, k);
            let got = Some((o.result.vertices, o.result.density));
            assert_same(got, want, &format!("{ctx} DalkS fallback k={k}"));
        }
    }
}

/// `g` with one random edge removed and one absent edge inserted, and
/// `psi`'s store-backed oracle repaired in place across that batch —
/// `None` when `psi` keeps no store or the graph has no edge to remove.
fn repaired_oracle(
    g: &Graph,
    psi: &Pattern,
    rng: &mut StdRng,
) -> Option<(Graph, Arc<dyn DensityOracle>)> {
    let n = g.num_vertices() as VertexId;
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    if edges.is_empty() {
        return None;
    }
    let removed = [edges[rng.gen_range(0..edges.len())]];
    let absent = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .find(|&(u, v)| !g.has_edge(u, v));
    let inserted: Vec<_> = absent.into_iter().collect();
    let kept: Vec<_> = edges.iter().copied().filter(|e| *e != removed[0]).collect();
    let g_mid = Graph::from_edges(n as usize, &kept);
    let g_new = Graph::from_edges(n as usize, &[kept, inserted.clone()].concat());
    let oracle = oracle_for(psi);
    oracle.store(g)?;
    match oracle.repair_for_update(&g_new, &g_mid, &inserted, &removed) {
        SubstrateRepair::Repaired(repaired, _) => Some((g_new, repaired)),
        _ => None,
    }
}

/// The heap trim equals the linear scan from PeelApp's S* and from the
/// whole vertex set (more degree ties), for every k.
#[test]
fn heap_trim_matches_linear_trim() {
    let iters = prop_iters(12);
    let mut rng = StdRng::seed_from_u64(0x7819_DA3C);
    // Diamond engine oracles that fell back, and that kept their store.
    let mut sides = [0usize; 2];
    for it in 0..iters {
        let (base, label) = random_graph(&mut rng, it);
        let pad = it % 2 == 1;
        for (psi, streaming) in oracle_pairs() {
            let g = graph_for(&psi, &base, pad);
            let n = g.num_vertices();
            let all: Vec<VertexId> = g.vertices().collect();
            let ctx = format!("{label} psi {}", psi.name());
            let s = Substrates::cold(&g, &psi);
            let start = s.decomposition().best_residual();
            let engine_oracle = oracle_for(&psi);
            tally_diamond(&psi, &g, engine_oracle.as_ref(), pad, &mut sides, &ctx);
            for k in 1..=n {
                for (from, set) in [("S*", &start), ("V", &all)] {
                    let want = linear_trim(&g, streaming.as_ref(), set, k);
                    for (side, oracle) in [
                        ("streaming", streaming.as_ref()),
                        ("engine", engine_oracle.as_ref()),
                    ] {
                        let got = greedy_trim(&g, oracle, set, k).map(|r| (r.vertices, r.density));
                        assert_same(
                            got,
                            want.clone(),
                            &format!("{ctx} {side} trim from {from} k={k}"),
                        );
                    }
                }
                let o = s
                    .densest_at_most_k(k, CoreExactConfig::default())
                    .expect("k >= 1");
                if !o.exact {
                    let got = Some((o.result.vertices, o.result.density));
                    let want = linear_trim(&g, streaming.as_ref(), &start, k);
                    assert_same(got, want, &format!("{ctx} DamkS fallback k={k}"));
                }
            }
            assert!(
                greedy_trim(&g, streaming.as_ref(), &start, 0).is_none(),
                "{ctx}: k = 0"
            );
        }
    }
    assert!(
        sides[1] >= iters / 2 && sides[0] >= 1,
        "diamond sides {sides:?}"
    );
}
