//! Differential suite for enumeration invariance (ISSUE 9).
//!
//! Sharding and symmetry breaking run underneath every Ψ-instance pass;
//! this suite pins the contract that none of it is observable:
//!
//! * the kClist lister emits, root by root in ascending order, exactly
//!   the h-cliques of a plain backtracking reference, on sparse graphs and
//!   on dense ones whose roots have out-lists of 64 vertices and more;
//! * **symmetry-broken** pattern enumeration reaches each instance
//!   exactly once: instances, anchored instances, counts and degrees
//!   equal a plain backtracking reference that deduplicates every
//!   embedding through a hash set of canonical edge sets;
//! * **sharded** general-pattern enumeration produces a store that is
//!   bit-identical to the serial build — same rows in the same order,
//!   same weights, same incidence CSR — for any worker count;
//! * end-to-end decompositions (core numbers, kmax, peel order, ρ′
//!   bits) agree across shard counts and the streaming path;
//! * the engine's one `apply` repair path (every cached Ψ-store repaired
//!   on the merged post-batch CSR, whatever the batch size) answers
//!   bit-identically to a cold rebuild.
//!
//! Shard counts are the `threads` argument of [`InstanceStore::pattern`].
//!
//! Iteration counts honour `DSD_PROP_ITERS` like `tests/dynamic.rs`;
//! nightly CI runs this suite at 5000 iterations.

use std::collections::{BTreeSet, HashSet};

use dsd::core::oracle::{CliqueOracle, GenericPatternOracle};
use dsd::core::{
    decompose, k_core_decomposition, CliqueCoreDecomposition, DensityOracle, DsdEngine, DsdRequest,
    MaterializedOracle, Method, Objective, Parallelism, Solution,
};
use dsd::graph::{degeneracy_order, Graph, GraphUpdate, VertexId, VertexSet};
use dsd::motif::kclist::{CliqueLister, CliqueScratch};
use dsd::motif::store::InstanceStore;
use dsd::motif::{
    count_instances, instances, instances_containing, pattern_degrees, Pattern, PatternInstance,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Iteration knob: `DSD_PROP_ITERS` overrides, `default` otherwise.
fn prop_iters(default: usize) -> usize {
    std::env::var("DSD_PROP_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// G(n, p) with the given bounds.
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

/// Row-order fingerprint of a store: members per row, weights, the
/// incidence CSR, and the total instance count.
type StoreFingerprint = (Vec<Vec<VertexId>>, Vec<u64>, Vec<Vec<u32>>, u64);

/// Everything the peel loop reads from a store, in row order.
fn store_fingerprint(s: &InstanceStore) -> StoreFingerprint {
    let rows: Vec<Vec<VertexId>> = (0..s.rows()).map(|r| s.members(r).to_vec()).collect();
    let weights: Vec<u64> = (0..s.rows()).map(|r| s.weight(r)).collect();
    let n = rows
        .iter()
        .flatten()
        .copied()
        .max()
        .map_or(0, |v| v as usize + 1);
    let incidence: Vec<Vec<u32>> = (0..n as VertexId)
        .map(|v| s.incidence(v).to_vec())
        .collect();
    (rows, weights, incidence, s.total_instances())
}

fn assert_decompositions_identical(
    ctx: &str,
    a: &CliqueCoreDecomposition,
    b: &CliqueCoreDecomposition,
) {
    assert_eq!(a.core, b.core, "core numbers: {ctx}");
    assert_eq!(a.kmax, b.kmax, "kmax: {ctx}");
    assert_eq!(a.peel_order, b.peel_order, "peel order: {ctx}");
    assert_eq!(
        a.best_density.to_bits(),
        b.best_density.to_bits(),
        "rho' bits: {ctx}"
    );
}

fn assert_solutions_identical(ctx: &str, warm: &Solution, cold: &Solution) {
    assert_eq!(warm.vertices, cold.vertices, "vertices: {ctx}");
    assert_eq!(
        warm.density.to_bits(),
        cold.density.to_bits(),
        "density bits: {ctx}"
    );
}

/// Test-only reference enumerator: every injective embedding by plain
/// backtracking over pattern vertices `0..k` (no symmetry breaking),
/// deduplicated through a hash set of canonical edge sets. With `anchor`,
/// keeps the instances containing it, the anchor exempt from `alive`.
/// Sorted by edge set, like the library's materializers.
fn reference_instances(
    g: &Graph,
    psi: &Pattern,
    alive: &VertexSet,
    anchor: Option<VertexId>,
) -> Vec<PatternInstance> {
    struct Ref<'a> {
        g: &'a Graph,
        psi: &'a Pattern,
        alive: &'a VertexSet,
        anchor: Option<VertexId>,
        image: Vec<VertexId>,
        seen: HashSet<Vec<(VertexId, VertexId)>>,
        out: Vec<PatternInstance>,
    }
    impl Ref<'_> {
        fn extend(&mut self) {
            let pos = self.image.len();
            if pos == self.psi.vertex_count() {
                if self.anchor.is_some_and(|v| !self.image.contains(&v)) {
                    return;
                }
                let mut edges: Vec<(VertexId, VertexId)> = self
                    .psi
                    .edges()
                    .iter()
                    .map(|&(a, b)| {
                        let (u, v) = (self.image[a as usize], self.image[b as usize]);
                        (u.min(v), u.max(v))
                    })
                    .collect();
                edges.sort_unstable();
                if self.seen.insert(edges.clone()) {
                    let mut vertices = self.image.clone();
                    vertices.sort_unstable();
                    self.out.push(PatternInstance { vertices, edges });
                }
                return;
            }
            for cand in self.g.vertices() {
                if (self.alive.contains(cand) || self.anchor == Some(cand))
                    && !self.image.contains(&cand)
                    && (0..pos)
                        .all(|q| !self.psi.has_edge(pos, q) || self.g.has_edge(cand, self.image[q]))
                {
                    self.image.push(cand);
                    self.extend();
                    self.image.pop();
                }
            }
        }
    }
    let mut r = Ref {
        g,
        psi,
        alive,
        anchor,
        image: Vec::new(),
        seen: HashSet::new(),
        out: Vec::new(),
    };
    r.extend();
    r.out.sort_unstable_by(|a, b| a.edges.cmp(&b.edges));
    r.out
}

/// Symmetry-broken enumeration must equal the hash-set-dedup reference:
/// instances, anchored instances at every vertex (dead anchors included),
/// counts and degrees, over the menu and beyond.
#[test]
fn symmetry_broken_enumeration_matches_dedup_reference() {
    let iters = prop_iters(3);
    let mut rng = StdRng::seed_from_u64(0x15E9_0005);
    let mut menu = Pattern::figure7();
    menu.extend([
        Pattern::triangle(),
        Pattern::clique(4),
        Pattern::cycle(5),
        Pattern::path(4),
        Pattern::complete_bipartite(2, 3),
    ]);
    for iter in 0..iters {
        let g = random_graph(&mut rng, 10, 15, 0.25, 0.5);
        let n = g.num_vertices();
        let mut alive = VertexSet::full(n);
        for _ in 0..2 {
            alive.remove(rng.gen_range(0..n as VertexId));
        }
        for psi in &menu {
            let ctx = format!("iter {iter}, psi = {}", psi.name());
            let reference = reference_instances(&g, psi, &alive, None);
            assert_eq!(instances(&g, psi, &alive), reference, "instances: {ctx}");
            assert_eq!(
                count_instances(&g, psi, &alive),
                reference.len() as u64,
                "count: {ctx}"
            );
            let mut degrees = vec![0u64; n];
            for inst in &reference {
                for &v in &inst.vertices {
                    degrees[v as usize] += 1;
                }
            }
            assert_eq!(pattern_degrees(&g, psi, &alive), degrees, "degrees: {ctx}");
            for v in 0..n as VertexId {
                assert_eq!(
                    instances_containing(&g, psi, v, &alive),
                    reference_instances(&g, psi, &alive, Some(v)),
                    "anchored at {v}: {ctx}"
                );
            }
        }
    }
}

/// Test-only clique reference: plain backtracking over ascending ids,
/// each clique grown by every later neighbour of its last member that is
/// adjacent to all the others. Sorted member lists, in lexicographic order.
/// `reference_instances` finds each h-clique h! times and hashes every
/// embedding, which took 7–22 s per dense graph at h = 4 in a release
/// build on a 2-vCPU machine, so it referees the sparse graphs only.
fn reference_cliques(g: &Graph, h: usize) -> Vec<Vec<VertexId>> {
    fn extend(g: &Graph, h: usize, clique: &mut Vec<VertexId>, out: &mut Vec<Vec<VertexId>>) {
        if clique.len() == h {
            out.push(clique.clone());
            return;
        }
        let last = *clique.last().expect("a root is placed first");
        for &cand in g.neighbors(last).iter().filter(|&&u| u > last) {
            if clique.iter().all(|&u| g.has_edge(u, cand)) {
                clique.push(cand);
                extend(g, h, clique, out);
                clique.pop();
            }
        }
    }
    let mut out = Vec::new();
    for root in g.vertices() {
        extend(g, h, &mut vec![root], &mut out);
    }
    out
}

/// The kClist lister must emit exactly the h-cliques of the plain
/// backtracking references, each from one root and the roots in ascending
/// order, on sparse graphs and on dense ones whose degeneracy-DAG
/// out-lists reach 64 vertices.
#[test]
fn clique_lister_matches_reference_on_sparse_and_dense_roots() {
    let iters = prop_iters(8);
    let mut rng = StdRng::seed_from_u64(0x15E9_0001);
    let mut deepest = 0;
    for iter in 0..iters {
        let sparse = iter % 2 == 0;
        let g = if sparse {
            random_graph(&mut rng, 30, 60, 0.05, 0.2)
        } else {
            random_graph(&mut rng, 130, 170, 0.45, 0.6)
        };
        let n = g.num_vertices();
        deepest = deepest.max(degeneracy_order(&g).degeneracy);
        let alive = VertexSet::full(n);
        for h in [3usize, 4] {
            let lister = CliqueLister::new(&g, h, &alive);
            let mut scratch = CliqueScratch::default();
            let mut listed = Vec::new();
            // Ascending roots, each clique led by the root that emits it.
            for v in 0..n as VertexId {
                lister.for_each_rooted_until(v, &mut scratch, &mut |c| {
                    assert_eq!(c[0], v, "iter {iter}, h = {h}: clique led by another root");
                    let mut clique = c.to_vec();
                    clique.sort_unstable();
                    listed.push(clique);
                    true
                });
            }
            listed.sort_unstable();
            assert_eq!(
                listed,
                reference_cliques(&g, h),
                "iter {iter}, h = {h} (n = {n})"
            );
            if sparse {
                let embedded: Vec<Vec<VertexId>> =
                    reference_instances(&g, &Pattern::clique(h), &alive, None)
                        .into_iter()
                        .map(|inst| inst.vertices)
                        .collect();
                assert_eq!(listed, embedded, "iter {iter}, h = {h}: embeddings");
            }
        }
    }
    // The maximum DAG out-degree is the degeneracy.
    assert!(
        iters < 2 || deepest >= 64,
        "no dense graph reached out-lists of 64 (degeneracy {deepest})"
    );
}

/// Sharded general-pattern stores must be bit-identical to the serial
/// build for every worker count — rows, order, weights, incidence.
#[test]
fn sharded_pattern_store_matches_serial_bitwise() {
    let iters = prop_iters(6);
    let mut rng = StdRng::seed_from_u64(0x15E9_0002);
    for iter in 0..iters {
        let g = random_graph(&mut rng, 14, 24, 0.25, 0.45);
        let alive = VertexSet::full(g.num_vertices());
        for psi in [
            Pattern::c3_star(),
            Pattern::diamond(),
            Pattern::two_triangle(),
        ] {
            let (serial, _) = InstanceStore::pattern(&g, &psi, &alive, 1, None)
                .expect("serial pattern build fits the default budget");
            let reference = store_fingerprint(&serial);
            for threads in [2usize, 3, 8] {
                let (sharded, stats) = InstanceStore::pattern(&g, &psi, &alive, threads, None)
                    .expect("sharded pattern build fits the default budget");
                assert_eq!(
                    store_fingerprint(&sharded),
                    reference,
                    "iter {iter}, psi = {}, threads = {threads}: store diverged",
                    psi.name()
                );
                assert!(
                    stats.shards >= 1,
                    "build reports its shard count (got {})",
                    stats.shards
                );
            }
        }
    }
}

/// Full decompositions agree across kernels, shard counts, and the
/// streaming reference, for clique and general Ψ alike.
#[test]
fn decompositions_invariant_across_enumeration_paths() {
    let iters = prop_iters(4);
    let mut rng = StdRng::seed_from_u64(0x15E9_0003);
    for iter in 0..iters {
        let g = random_graph(&mut rng, 20, 40, 0.2, 0.4);
        for h in [3usize, 4] {
            let psi = Pattern::clique(h);
            let streaming = decompose(&g, &CliqueOracle::new(h));
            for threads in [1usize, 4] {
                let oracle = MaterializedOracle::with_policy(&psi, Parallelism::new(threads), None);
                let dec = decompose(&g, &oracle);
                assert_decompositions_identical(
                    &format!("iter {iter}, h = {h}, threads = {threads}"),
                    &dec,
                    &streaming,
                );
                assert!(
                    oracle.store_stats().expect("store consulted").materialized,
                    "clique store materializes at this scale"
                );
            }
        }
        let psi = Pattern::c3_star();
        let streaming = decompose(&g, &GenericPatternOracle::new(&psi));
        for threads in [1usize, 4] {
            let oracle = MaterializedOracle::with_policy(&psi, Parallelism::new(threads), None);
            let dec = decompose(&g, &oracle);
            assert_decompositions_identical(
                &format!("iter {iter}, c3-star, threads = {threads}"),
                &dec,
                &streaming,
            );
        }
    }
}

/// Draws a batch of `size` distinct net edge changes against `edges` and
/// applies it to the mirror: alternately a delete (when an edge is left)
/// and an insert, so batches of two or more mix both directions.
fn mixed_batch(
    rng: &mut StdRng,
    n: usize,
    edges: &mut BTreeSet<(VertexId, VertexId)>,
    size: usize,
    delete_first: bool,
) -> Vec<GraphUpdate> {
    let mut batch = Vec::with_capacity(size);
    let mut touched: HashSet<(VertexId, VertexId)> = HashSet::new();
    while batch.len() < size {
        let delete = (batch.len() % 2 == 0) == delete_first && !edges.is_empty();
        let key = if delete {
            *edges.iter().nth(rng.gen_range(0..edges.len())).unwrap()
        } else {
            let u = rng.gen_range(0..n as VertexId);
            let v = rng.gen_range(0..n as VertexId);
            if u == v {
                continue;
            }
            (u.min(v), u.max(v))
        };
        if !touched.insert(key) {
            continue;
        }
        if delete {
            edges.remove(&key);
            batch.push(GraphUpdate::Delete(key.0, key.1));
        } else if edges.insert(key) {
            batch.push(GraphUpdate::Insert(key.0, key.1));
        }
    }
    batch
}

/// The engine's one store repair, run when the pending overlay merges:
/// one engine caching a triangle, a 4-clique and a c3-star store repairs
/// all three inside `apply` for every batch that follows a read — chained
/// mixed batches of 1, 4 and 32 edges — and answers bit-identically to a
/// cold engine after each. A second engine with the same stores takes
/// each batch one edge at a time with no read in between: only the first
/// edge repairs inside `apply`, the rest stay pending, and the next read
/// repairs once for their net change. The merge always stays pending on
/// engines with no Ψ-store cached: one holding just the edge key, whose
/// decomposition (the classical core numbers) every batch drops and the
/// next read rebuilds from the merged snapshot, and one holding streaming
/// oracles (edge, two-star), which carry over every batch.
#[test]
fn every_batch_repairs_every_cached_store_on_the_merged_csr() {
    let iters = prop_iters(4);
    let mut rng = StdRng::seed_from_u64(0x15E9_0004);
    let patterns = [Pattern::triangle(), Pattern::clique(4), Pattern::c3_star()];
    let requests: Vec<DsdRequest> = patterns
        .iter()
        .map(|psi| DsdRequest::new(psi).method(Method::CoreExact))
        .collect();
    let streaming_requests = [Pattern::edge(), Pattern::two_star()]
        .map(|psi| DsdRequest::new(&psi).method(Method::CoreExact));
    for iter in 0..iters {
        let n = rng.gen_range(20usize..=26);
        let mut edges: BTreeSet<(VertexId, VertexId)> = BTreeSet::new();
        for u in 0..n as VertexId {
            for v in (u + 1)..n as VertexId {
                if rng.gen_bool(0.35) {
                    edges.insert((u, v));
                }
            }
        }
        let base: Vec<_> = edges.iter().copied().collect();
        let engine = DsdEngine::new(Graph::from_edges(n, &base));
        let edge_only = DsdEngine::new(Graph::from_edges(n, &base));
        let streaming = DsdEngine::new(Graph::from_edges(n, &base));
        let burst = DsdEngine::new(Graph::from_edges(n, &base));
        for req in &requests {
            engine.solve(req); // cache the three Ψ-stores
            burst.solve(req);
        }
        edge_only.warm(&Pattern::edge());
        for req in &streaming_requests {
            streaming.solve(req);
        }

        for (round, &size) in [1usize, 4, 32, 1, 32, 4].iter().enumerate() {
            let ctx = format!("iter {iter}, round {round}, batch of {size}");
            let batch = mixed_batch(&mut rng, n, &mut edges, size, round % 2 == 0);
            let stats = engine.apply(&batch);
            assert_eq!(stats.inserted + stats.deleted, size, "{ctx}: effective");
            assert_eq!(
                stats.substrates_repaired,
                patterns.len(),
                "{ctx}: every cached store repairs in place"
            );
            assert_eq!(stats.substrates_rebuilt, 0, "{ctx}: no rebuild");
            assert!(!stats.csr_deferred, "{ctx}: a repair merges the CSR");

            let applied = edge_only.apply(&batch);
            assert!(
                applied.csr_deferred,
                "{ctx}: the edge key alone defers the merge"
            );

            for (i, update) in batch.iter().enumerate() {
                let applied = burst.apply(std::slice::from_ref(update));
                let repaired = if i == 0 { patterns.len() } else { 0 };
                assert_eq!(applied.substrates_repaired, repaired, "{ctx}, edge {i}");
                assert_eq!(applied.substrates_rebuilt, 0, "{ctx}, edge {i}");
                assert_eq!(applied.csr_deferred, i > 0, "{ctx}, edge {i}");
            }
            burst.graph(); // merges the pending edges, repairing the stores

            // Split in two, so the second half lands on pending updates.
            for half in batch.chunks(size.div_ceil(2)) {
                let applied = streaming.apply(half);
                assert!(applied.csr_deferred, "{ctx}: streaming defers the merge");
                assert_eq!(applied.substrates_repaired, 0, "{ctx}: no store");
                assert_eq!(applied.substrates_rebuilt, 0, "{ctx}: oracles kept");
            }

            let now: Vec<_> = edges.iter().copied().collect();
            let cold_graph = Graph::from_edges(n, &now);
            assert_eq!(*edge_only.graph(), cold_graph, "{ctx}: deferred merge");
            let scratch = k_core_decomposition(&cold_graph);
            let cold = DsdEngine::new(cold_graph);
            let query = (round % n) as VertexId;
            for req in [
                DsdRequest::new(&Pattern::edge()).objective(Objective::WithQuery(vec![query])),
                DsdRequest::new(&Pattern::edge()).method(Method::CoreApp),
            ] {
                let label = format!("{ctx}, {:?}", req.objective_ref());
                let warm = edge_only.solve(&req);
                assert_solutions_identical(&label, &warm, &cold.solve(&req));
                assert_eq!(
                    warm.stats.kmax,
                    Some(scratch.kmax as u64),
                    "{label}: kmax rebuilt"
                );
                if req.method_choice() == Method::CoreApp {
                    let max_core = scratch.max_core().to_vec();
                    assert_eq!(warm.vertices, max_core, "{label}: k-core rebuilt");
                }
            }
            for req in &streaming_requests {
                let warm = streaming.solve(req);
                assert!(
                    warm.stats.substrate.oracle_cache_hit,
                    "{ctx}, {}: streaming oracle carried over",
                    req.psi().name()
                );
                assert_solutions_identical(
                    &format!("{ctx}, {}", req.psi().name()),
                    &warm,
                    &cold.solve(req),
                );
            }
            for (psi, req) in patterns.iter().zip(&requests) {
                let expect = cold.solve(req);
                for (name, warm) in [("per batch", &engine), ("burst", &burst)] {
                    let warm = warm.solve(req);
                    assert!(
                        warm.stats.substrate.oracle_cache_hit,
                        "{ctx}, {}, {name}: served from the repaired store",
                        psi.name()
                    );
                    assert_solutions_identical(
                        &format!("{ctx}, {}, {name}", psi.name()),
                        &warm,
                        &expect,
                    );
                }
            }
        }
    }
}
