//! Parametric-resolve differential suite (ISSUE-4 satellite): after any
//! α-bump, a warm `DensityNetwork` probe — served by `resolve` from the
//! previous flow or by a checkpoint restore — must be **bit-identical**
//! to a from-scratch solve at the same α: same feasibility decision, same
//! witness set, and the same cut value (the capacity sum over the
//! residual-reachable cut, which is determined by the cut alone and so
//! must not depend on how the flow state was reached).
//!
//! Sweeps seeded random graphs × all three network
//! constructions (edge / clique / pattern, the pattern one in both its
//! grouped and ungrouped forms), driving each pair of networks through a
//! bisection-shaped α schedule (ups after feasible probes, downs after
//! infeasible ones — the downs are what exercise the checkpoint-restore
//! path). The last test checks the witness-jump α-search end to end:
//! engine answers for Exact, CoreExact, top-3 and the query variant must
//! match a bisection-driven reference bit for bit, with fewer probes.
//! Honours `DSD_PROP_ITERS` for the nightly deep run.

use dsd::core::flownet::{
    build_clique_network, build_edge_network, build_pattern_network, build_query_network,
    DensityNetwork,
};
use dsd::core::{
    decompose, density, density_gap, k_core_decomposition, oracle_for, DecisionProbe, DsdResult,
};
use dsd::graph::testing::XorShift;
use dsd::graph::{connected_components_within, Graph, InducedSubgraph, VertexSet};
use dsd::motif::pattern::PatternKind;
use dsd::motif::Pattern;

fn iters() -> usize {
    std::env::var("DSD_PROP_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .map(|n: usize| (n / 10).max(8))
        .unwrap_or(24)
}

fn all(g: &Graph) -> Vec<u32> {
    g.vertices().collect()
}

/// Builds every (construction, instance) pair under test for `g`.
fn networks(g: &Graph) -> Vec<(String, DensityNetwork, DensityNetwork)> {
    let members = all(g);
    let mut out = Vec::new();
    let mut push = |name: &str, a: DensityNetwork, b: DensityNetwork| {
        out.push((name.to_string(), a, b));
    };
    push(
        "edge",
        build_edge_network(g, &members),
        build_edge_network(g, &members),
    );
    push(
        "clique3",
        build_clique_network(g, &members, 3),
        build_clique_network(g, &members, 3),
    );
    let diamond = Pattern::diamond();
    push(
        "pattern",
        build_pattern_network(g, &members, &diamond, false),
        build_pattern_network(g, &members, &diamond, false),
    );
    push(
        "pattern-grouped",
        build_pattern_network(g, &members, &diamond, true),
        build_pattern_network(g, &members, &diamond, true),
    );
    out
}

/// One differential probe: warm (parametric) vs cold (from-scratch).
fn check(label: &str, alpha: f64, warm: &mut DensityNetwork, cold: &mut DensityNetwork) -> bool {
    let w = warm.solve(alpha);
    let c = cold.solve(alpha);
    assert_eq!(
        w.is_some(),
        c.is_some(),
        "{label} α={alpha}: feasibility decision diverged"
    );
    if let (Some(mut wv), Some(mut cv)) = (w.clone(), c) {
        wv.sort_unstable();
        cv.sort_unstable();
        assert_eq!(wv, cv, "{label} α={alpha}: witness sets diverged");
    }
    let (wcut, ccut) = (warm.cut_value(), cold.cut_value());
    assert_eq!(
        wcut.to_bits(),
        ccut.to_bits(),
        "{label} α={alpha}: cut value diverged ({wcut} vs {ccut})"
    );
    w.is_some()
}

/// The seeded sweep: a bisection α schedule (the real workload shape)
/// against a from-scratch network re-solved at every α.
#[test]
fn resolve_after_alpha_bump_is_bit_identical_to_scratch() {
    for seed in 0..iters() as u64 {
        let mut rng = XorShift::new(0xA55E ^ (seed * 7919));
        let g = rng.random_graph(6, 14, 35 + (seed % 30));
        for (name, mut warm, mut cold) in networks(&g) {
            cold.set_warm_start(false);
            let label = format!("seed {seed} {name}");
            let (mut l, mut u) = (0.0f64, 1.0 + g.num_vertices() as f64);
            for _ in 0..18 {
                if u - l < 1e-7 {
                    break;
                }
                let alpha = (l + u) / 2.0;
                if check(&label, alpha, &mut warm, &mut cold) {
                    l = alpha;
                } else {
                    u = alpha;
                }
            }
        }
    }
}

/// An adversarial non-monotone α schedule: repeated descents below the
/// previous probe (but above the checkpointed lower bound) force the
/// restore path; jumps back up force direct resolves.
#[test]
fn non_monotone_schedules_hit_restore_and_resolve_paths() {
    for seed in 0..iters() as u64 {
        let mut rng = XorShift::new(0xBEE5 ^ (seed * 104_729));
        let g = rng.random_graph(6, 12, 45);
        let schedule = [0.25, 1.5, 0.9, 2.5, 0.6, 3.5, 0.3, 1.1, 4.0, 0.8];
        for (name, mut warm, mut cold) in networks(&g) {
            cold.set_warm_start(false);
            let label = format!("seed {seed} {name} (non-monotone)");
            for &alpha in &schedule {
                check(&label, alpha, &mut warm, &mut cold);
            }
            let stats = warm.probe_stats();
            assert_eq!(stats.probes, schedule.len(), "{label}: probe count");
            assert!(
                stats.resolve_hits > 0,
                "{label}: schedule never reused flow state"
            );
        }
    }
}

/// `exact` (which rides the shared α-search with parametric reuse)
/// returns the same answer as a reuse-disabled run of the same search —
/// the end-to-end closure of the per-probe checks above.
#[test]
fn exact_results_match_between_parametric_and_scratch_probes() {
    use dsd::core::{alpha_search, exact, FirstProbe, NetworkProbe};

    let mut reuse_checked = 0;
    for seed in 0..iters() as u64 {
        let mut rng = XorShift::new(0xD1FF ^ (seed * 271));
        let g = rng.random_graph(6, 14, 40);
        for psi in [Pattern::edge(), Pattern::triangle()] {
            let (reference, ref_stats) = exact(&g, &psi);
            if reference.is_empty() {
                continue;
            }
            // Re-run the identical search with reuse disabled.
            let members = all(&g);
            let mut net = match psi.vertex_count() {
                2 => build_edge_network(&g, &members),
                _ => build_clique_network(&g, &members, psi.vertex_count()),
            };
            net.set_warm_start(false);
            let oracle = oracle_for(&psi);
            let mut probe = Recorder {
                inner: NetworkProbe::new(&mut net, &g, oracle.as_ref()),
                feasible: Vec::new(),
            };
            let mut stats = dsd::core::exact::ExactStats::default();
            let outcome = alpha_search(
                &mut probe,
                ref_stats.initial_bounds,
                FirstProbe::Midpoint,
                density_gap(g.num_vertices()),
                usize::MAX,
                &mut stats,
            );
            let mut scratch = outcome.witness.unwrap_or_default();
            scratch.sort_unstable();
            assert_eq!(
                scratch,
                reference.vertices,
                "seed {seed} {}: parametric vs scratch exact diverged",
                psi.name()
            );
            assert_eq!(outcome.lower.to_bits(), reference.density.to_bits());
            assert_eq!(stats.iterations, ref_stats.iterations, "same probe count");
            assert_eq!(stats.resolve_hits, 0, "scratch run must not reuse");
            // Only a probe after a feasible one has checkpointed flow to
            // resolve from; a search that certifies its first witness
            // right away may have none.
            let probes_after_feasible = match probe.feasible.iter().position(|&f| f) {
                Some(i) => probe.feasible.len() - i - 1,
                None => 0,
            };
            if probes_after_feasible > 0 {
                reuse_checked += 1;
                assert!(
                    ref_stats.resolve_hits > 0,
                    "seed {seed} {}: parametric run never reused flow state",
                    psi.name()
                );
            }
        }
    }
    assert!(reuse_checked > 0, "no search probed after a feasible probe");
}

/// Wraps a probe and records each probe's feasibility.
struct Recorder<P> {
    inner: P,
    feasible: Vec<bool>,
}

impl<P: DecisionProbe> DecisionProbe for Recorder<P> {
    type Witness = P::Witness;

    fn probe(&mut self, alpha: f64) -> Option<(P::Witness, f64)> {
        let out = self.inner.probe(alpha);
        self.feasible.push(out.is_some());
        out
    }

    fn network_nodes(&self) -> usize {
        self.inner.network_nodes()
    }
}

// ── Witness-jump vs bisection differential ───────────────────────────
//
// The α-search jumps its lower bound to each feasible witness's density
// and certifies with a probe there, instead of bisecting down to Lemma
// 12's gap. The reference below is the bisection loop it replaced, driving
// test-local re-implementations of Exact, CoreExact (all prunings; its
// Pruning3 network shrinks change no feasibility decision, so they are
// left out), the top-k scan and the query variant over the same public
// network constructions. Every engine answer must match the reference's
// vertices and density bits.

/// The bisection α loop: probe the midpoint of `[lower, upper]` until the
/// bracket is narrower than `gap`, raising `lower` on feasible probes and
/// lowering `upper` otherwise. Returns the final lower bound and the last
/// feasible probe's witness; counts probes into `probes`.
fn bisect<W>(
    bounds: (f64, f64),
    gap: f64,
    probes: &mut usize,
    mut probe: impl FnMut(f64) -> Option<W>,
) -> (f64, Option<W>) {
    let (mut lower, mut upper) = bounds;
    let mut witness = None;
    while upper - lower >= gap {
        *probes += 1;
        let alpha = (lower + upper) / 2.0;
        match probe(alpha) {
            Some(w) => {
                lower = alpha;
                witness = Some(w);
            }
            None => upper = alpha,
        }
    }
    (lower, witness)
}

/// The enumeration-built density network for Ψ over `g[members]`.
fn density_network(g: &Graph, members: &[u32], psi: &Pattern, grouped: bool) -> DensityNetwork {
    match psi.kind() {
        PatternKind::Clique(2) => build_edge_network(g, members),
        PatternKind::Clique(h) => build_clique_network(g, members, h),
        _ => build_pattern_network(g, members, psi, grouped),
    }
}

fn psi_density(g: &Graph, psi: &Pattern, vs: &[u32]) -> f64 {
    let oracle = oracle_for(psi);
    density(
        oracle.as_ref(),
        g,
        &VertexSet::from_members(g.num_vertices(), vs),
    )
}

fn sorted_result(mut vertices: Vec<u32>, density: f64) -> DsdResult {
    vertices.sort_unstable();
    DsdResult { vertices, density }
}

/// Algorithm 1/8 over the whole graph with bisection.
fn ref_exact(g: &Graph, psi: &Pattern, probes: &mut usize) -> DsdResult {
    let oracle = oracle_for(psi);
    let full = VertexSet::full(g.num_vertices());
    let max_deg = oracle.degrees(g, &full).into_iter().max().unwrap_or(0);
    if max_deg == 0 {
        return DsdResult::empty();
    }
    let mut net = density_network(g, &all(g), psi, false);
    let gap = density_gap(g.num_vertices());
    let (_, w) = bisect((0.0, max_deg as f64), gap, probes, |a| net.solve(a));
    let w = w.expect("μ > 0 makes some probe feasible");
    let rho = psi_density(g, psi, &w);
    sorted_result(w, rho)
}

/// Algorithm 4 (all prunings) with a seed probe at `l` and bisection.
fn ref_core_exact(g: &Graph, psi: &Pattern, probes: &mut usize) -> DsdResult {
    let oracle = oracle_for(psi);
    let dec = decompose(g, oracle.as_ref());
    if dec.kmax == 0 {
        return DsdResult::empty();
    }
    let ceil_k = |x: f64| if x <= 0.0 { 0 } else { x.ceil() as u64 };
    let core_vs = dec.max_core().to_vec();
    let core_rho = psi_density(g, psi, &core_vs);
    let (mut best_vs, mut best_rho) = if dec.best_density > core_rho {
        (dec.best_residual(), dec.best_density)
    } else {
        (core_vs, core_rho)
    };
    let mut l = dec
        .best_density
        .max(dec.kmax as f64 / psi.vertex_count() as f64);
    let mut k_loc = ceil_k(l).max(1);
    let (mut rho2, mut rho2_vs) = (0.0f64, Vec::new());
    for members in connected_components_within(g, &dec.core_set(k_loc)).all_members() {
        let rho = psi_density(g, psi, &members);
        if rho > rho2 {
            (rho2, rho2_vs) = (rho, members);
        }
    }
    if rho2 > best_rho {
        (best_rho, best_vs) = (rho2, rho2_vs);
    }
    l = l.max(rho2);
    k_loc = k_loc.max(ceil_k(rho2));
    for comp in connected_components_within(g, &dec.core_set(k_loc)).all_members() {
        let lk = ceil_k(l);
        let comp: Vec<u32> = comp
            .into_iter()
            .filter(|&v| lk <= k_loc || dec.core[v as usize] >= lk)
            .collect();
        if comp.len() < psi.vertex_count() {
            continue;
        }
        let mut net = density_network(g, &comp, psi, true);
        let mut record = |w: Vec<u32>| {
            let rho = psi_density(g, psi, &w);
            if rho > best_rho {
                (best_rho, best_vs) = (rho, w);
            }
        };
        *probes += 1;
        if let Some(w) = net.solve(l) {
            record(w);
            let gap = density_gap(comp.len());
            let bounds = (l, dec.kmax as f64);
            (l, _) = bisect(bounds, gap, probes, |a| net.solve(a).map(&mut record));
        }
    }
    sorted_result(best_vs, best_rho)
}

/// The disjoint top-k scan over [`ref_core_exact`].
fn ref_top_k(g: &Graph, psi: &Pattern, k: usize, probes: &mut usize) -> Vec<DsdResult> {
    let mut alive = VertexSet::full(g.num_vertices());
    let mut out = Vec::new();
    while out.len() < k && alive.len() >= psi.vertex_count() {
        let sub = InducedSubgraph::from_set(g, &alive);
        let local = ref_core_exact(&sub.graph, psi, probes);
        if local.is_empty() {
            break;
        }
        let vertices = sub.to_parent_vec(&local.vertices);
        for &v in &vertices {
            alive.remove(v);
        }
        out.push(DsdResult {
            vertices,
            density: local.density,
        });
    }
    out
}

fn edge_density(g: &Graph, side: &[u32]) -> f64 {
    psi_density(g, &Pattern::edge(), side)
}

/// Section 6.3: the Q-anchored ⌈x/2⌉-core, a seed probe at x/2 on the
/// pinned network, then bisection on `[x/2, kmax]`.
fn ref_query(g: &Graph, query: &[u32], probes: &mut usize) -> DsdResult {
    let cores = k_core_decomposition(g);
    let x = query.iter().map(|&q| cores.core[q as usize]).min().unwrap();
    let k = x.div_ceil(2) as usize;
    let mut alive = VertexSet::full(g.num_vertices());
    let mut deg = g.degrees();
    let mut stack: Vec<u32> = g
        .vertices()
        .filter(|&v| !query.contains(&v) && deg[v as usize] < k)
        .collect();
    while let Some(v) = stack.pop() {
        if !alive.contains(v) {
            continue;
        }
        alive.remove(v);
        for &u in g.neighbors(v) {
            if alive.contains(u) {
                deg[u as usize] -= 1;
                if !query.contains(&u) && deg[u as usize] < k {
                    stack.push(u);
                }
            }
        }
    }
    let sub = InducedSubgraph::from_set(g, &alive);
    let local_query: Vec<u32> = (0..sub.orig.len() as u32)
        .filter(|&i| query.contains(&sub.to_parent(i)))
        .collect();
    let l = x as f64 / 2.0;
    let mut net = build_query_network(&sub.graph, &local_query);
    *probes += 1;
    let seed = net.min_cut_side(l);
    net.checkpoint();
    let gap = density_gap(sub.graph.num_vertices());
    let (_, w) = bisect((l, cores.kmax as f64), gap, probes, |a| {
        let side = net.min_cut_side(a);
        let feasible = !side.is_empty() && edge_density(&sub.graph, &side) > a;
        feasible.then(|| {
            net.checkpoint();
            side
        })
    });
    let side = w.unwrap_or(seed);
    let rho = edge_density(&sub.graph, &side);
    sorted_result(sub.to_parent_vec(&side), rho)
}

/// Graphs with several tied densest subgraphs: disjoint equal cliques,
/// alone and beside sparser parts.
fn tied_graphs() -> Vec<Graph> {
    let cliques = |sizes: &[u32], extra: &[(u32, u32)]| {
        let mut edges = Vec::new();
        let mut base = 0;
        for &h in sizes {
            for u in base..base + h {
                for v in (u + 1)..base + h {
                    edges.push((u, v));
                }
            }
            base += h;
        }
        edges.extend_from_slice(extra);
        let n = base.max(extra.iter().map(|&(u, v)| u.max(v) + 1).max().unwrap_or(0));
        Graph::from_edges(n as usize, &edges)
    };
    vec![
        cliques(&[4, 4], &[]),
        cliques(&[5, 5, 5], &[]),
        cliques(&[5, 5, 4], &[(13, 14), (14, 15)]),
        cliques(&[4, 4, 4], &[(3, 12), (12, 13), (13, 14), (14, 12)]),
    ]
}

/// Size of the clique [`planted_graphs`] plants on vertices `0..h`.
const PLANTED_H: u32 = 10;

/// A K_h on vertices `0..h` planted in a sparse random graph, with query
/// sets at the two highest-degree vertices outside the clique, inside the
/// clique, and at the vertex farthest from it. Queries outside the clique
/// have ρ_Q well above x/2, so the pinned peel's bound locates them.
fn planted_graphs() -> Vec<(Graph, Vec<Vec<u32>>)> {
    (0..4u64)
        .map(|seed| {
            let mut rng = XorShift::new(0x91A7 ^ (seed * 4099));
            let sparse = rng.random_graph(60, 80, 5);
            let h = PLANTED_H;
            let mut edges: Vec<(u32, u32)> = sparse.edges().collect();
            for u in 0..h {
                edges.extend(((u + 1)..h).map(|v| (u, v)));
            }
            let g = Graph::from_edges(sparse.num_vertices(), &edges);
            let mut hubs: Vec<u32> = (h..g.num_vertices() as u32).collect();
            hubs.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
            // Breadth-first distance from the clique; unreachable counts
            // as farthest.
            let mut dist = vec![usize::MAX; g.num_vertices()];
            let mut frontier: Vec<u32> = (0..h).collect();
            for &v in &frontier {
                dist[v as usize] = 0;
            }
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for v in frontier {
                    for &u in g.neighbors(v) {
                        if dist[u as usize] == usize::MAX {
                            dist[u as usize] = dist[v as usize] + 1;
                            next.push(u);
                        }
                    }
                }
                frontier = next;
            }
            let far = g.vertices().max_by_key(|&v| dist[v as usize]).unwrap();
            let queries = vec![
                vec![hubs[0]],
                vec![hubs[0], hubs[1]],
                vec![1],
                vec![1, far],
                vec![far],
            ];
            (g, queries)
        })
        .collect()
}

/// Size of the Q-anchored k-core: vertices outside Q are peeled while
/// their degree is below k.
fn anchored_core_len(g: &Graph, query: &[u32], k: usize) -> usize {
    let mut alive = VertexSet::full(g.num_vertices());
    let mut deg = g.degrees();
    let mut stack: Vec<u32> = g.vertices().collect();
    while let Some(v) = stack.pop() {
        if !alive.contains(v) || query.contains(&v) || deg[v as usize] >= k {
            continue;
        }
        alive.remove(v);
        for &u in g.neighbors(v) {
            if alive.contains(u) {
                deg[u as usize] -= 1;
                stack.push(u);
            }
        }
    }
    alive.len()
}

fn assert_same(label: &str, got: &DsdResult, want: &DsdResult) {
    assert_eq!(got.vertices, want.vertices, "{label}: vertices diverged");
    assert_eq!(
        got.density.to_bits(),
        want.density.to_bits(),
        "{label}: density diverged ({} vs {})",
        got.density,
        want.density
    );
}

#[test]
fn witness_jump_search_matches_bisection_reference() {
    use dsd::core::{DsdEngine, Method, Objective};

    // Each graph with the query sets asked of it beyond the two below.
    let mut graphs: Vec<(Graph, Vec<Vec<u32>>)> =
        tied_graphs().into_iter().map(|g| (g, Vec::new())).collect();
    for seed in 0..iters() as u64 {
        let mut rng = XorShift::new(0x1A3B ^ (seed * 6151));
        graphs.push((rng.random_graph(8, 18, 25 + (seed % 40)), Vec::new()));
    }
    graphs.extend(planted_graphs());
    let patterns = [
        Pattern::edge(),
        Pattern::triangle(),
        Pattern::clique(4),
        Pattern::diamond(),
    ];
    // (reference, witness-jump) probe totals.
    let (mut ref_probes, mut jump_probes) = (0usize, 0usize);
    let mut narrowed = 0;
    for (i, (g, planted_queries)) in graphs.iter().enumerate() {
        let engine = DsdEngine::over(g);
        for psi in &patterns {
            let label = format!("graph {i} {}", psi.name());
            for method in [Method::Exact, Method::CoreExact] {
                let got = engine.request(psi).method(method).solve();
                let want = match method {
                    Method::Exact => ref_exact(g, psi, &mut ref_probes),
                    _ => ref_core_exact(g, psi, &mut ref_probes),
                };
                assert_same(&format!("{label} {method:?}"), &got.to_result(), &want);
                jump_probes += got.stats.flow_iterations;
            }
            let got = engine.request(psi).objective(Objective::TopK(3)).solve();
            let want = ref_top_k(g, psi, 3, &mut ref_probes);
            assert_eq!(got.subgraphs.len(), want.len(), "{label} top-3: rounds");
            for (round, (a, b)) in got.subgraphs.iter().zip(&want).enumerate() {
                assert_same(&format!("{label} top-3 round {round}"), a, b);
            }
            jump_probes += got.stats.flow_iterations;
        }
        let n = g.num_vertices() as u32;
        let cores = k_core_decomposition(g);
        let mut queries = vec![vec![i as u32 % n], vec![0, n - 1]];
        queries.extend(planted_queries.iter().cloned());
        for query in queries {
            let got = engine
                .request(&Pattern::edge())
                .objective(Objective::WithQuery(query.clone()))
                .solve();
            let want = ref_query(g, &query, &mut ref_probes);
            assert_same(
                &format!("graph {i} query {query:?}"),
                &got.to_result(),
                &want,
            );
            jump_probes += got.stats.flow_iterations;
            // A planted query outside the clique is located by the pinned
            // peel's bound: its network is smaller than the Q-anchored
            // ⌈x/2⌉-core the x/2 bound would keep.
            if planted_queries.contains(&query) && query.iter().all(|&q| q >= PLANTED_H) {
                let x = query.iter().map(|&q| cores.core[q as usize]).min().unwrap();
                let half_core = anchored_core_len(g, &query, x.div_ceil(2) as usize);
                let nodes = got.stats.network_nodes.iter().max().unwrap();
                assert!(
                    *nodes < half_core,
                    "graph {i} query {query:?}: {nodes} network nodes vs a {half_core}-vertex ⌈x/2⌉-core"
                );
                narrowed += 1;
            }
        }
    }
    assert_eq!(narrowed, 4 * 3, "planted queries outside the clique");
    println!("probes: bisection {ref_probes}, witness-jump {jump_probes}");
    assert!(
        jump_probes < ref_probes,
        "witness jumps used {jump_probes} probes vs bisection's {ref_probes}"
    );
}

/// Residual top-k rounds run on the parent graph's substrates, so their
/// component networks are cached like round 0's and keep the witnesses
/// they certified. A repeat TopK(3) on one engine must return the same
/// answers — both equal to the bisection reference — while its flow
/// probes resolve from those witnesses at a tenth of the first request's
/// augmenting work or less.
#[test]
fn repeat_top_k_resolves_from_cached_witnesses() {
    use dsd::core::{DsdEngine, Objective};

    let mut graphs: Vec<Graph> = planted_graphs().into_iter().map(|(g, _)| g).collect();
    for seed in 0..4u64 {
        let mut rng = XorShift::new(0x7F3D ^ (seed * 2741));
        graphs.push(rng.random_graph(50, 70, 20));
    }
    let patterns = [
        Pattern::edge(),
        Pattern::triangle(),
        Pattern::clique(4),
        Pattern::diamond(),
    ];
    for (i, g) in graphs.iter().enumerate() {
        let engine = DsdEngine::over(g);
        for psi in &patterns {
            let label = format!("graph {i} {} top-3", psi.name());
            let want = ref_top_k(g, psi, 3, &mut 0);
            let first = engine.request(psi).objective(Objective::TopK(3)).solve();
            let repeat = engine.request(psi).objective(Objective::TopK(3)).solve();
            for (name, got) in [("first", &first), ("repeat", &repeat)] {
                assert_eq!(got.subgraphs.len(), want.len(), "{label} {name}: rounds");
                for (round, (a, b)) in got.subgraphs.iter().zip(&want).enumerate() {
                    assert_same(&format!("{label} {name} round {round}"), a, b);
                }
            }
            let (cold, warm) = (
                first.stats.flow_augment_work,
                repeat.stats.flow_augment_work,
            );
            println!("{label}: augment work {cold} -> {warm}");
            assert!(cold > 0, "{label}: the first request ran no flow");
            assert!(
                warm * 10 < cold,
                "{label}: repeat augment work {warm} vs first {cold}"
            );
        }
    }
}
