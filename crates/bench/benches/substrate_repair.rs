//! Bench: incremental Ψ-substrate repair vs invalidate-and-rebuild — the
//! ISSUE-8 acceptance benchmark.
//!
//! A 64-update stream (alternating inserts of fresh edges and deletes of
//! existing ones) hits an engine holding a **warm triangle substrate**:
//!
//! * **repair** — the engine repairs the store in place on the merged
//!   CSR: rows incident to a removed edge are tombstoned through the
//!   incidence CSR, and new triangles are enumerated from the inserted
//!   edges' common neighborhoods and appended. The stream is one burst with no read in between, so the first
//!   `DsdEngine::apply` merges and repairs, the other 63 updates stay
//!   pending, and the snapshot the next query takes merges and repairs
//!   once for their net change;
//! * **invalidate-and-rebuild** — the pre-repair status quo: every
//!   update re-materializes the graph and rebuilds the full triangle
//!   `InstanceStore` from scratch.
//!
//! Both arms pay every CSR merge and store repair inside their timed
//! region (the repair arm's timing ends after the snapshot), so the ratio
//! compares everything the stream costs before the next query.
//!
//! Asserted: the first update repairs in place inside `apply` and the
//! others stay pending (never the rebuild fallback), the final query runs
//! on the repaired store, the warm engine's final answer is bit-identical
//! to a cold engine over the final graph, and repair is **≥ 10× faster**
//! end to end.
//!
//! Run with: `cargo bench -p dsd-bench --bench substrate_repair`

use std::collections::HashSet;
use std::time::{Duration, Instant};

use dsd_core::{DsdEngine, DsdRequest, Method};
use dsd_datasets::registry;
use dsd_graph::{DeltaGraph, EdgeOverlay, Graph, GraphUpdate, VertexSet};
use dsd_motif::store::InstanceStore;
use dsd_motif::Pattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const UPDATES: usize = 64;
const SPEEDUP_FLOOR: f64 = 10.0;

/// Alternating effective inserts (fresh edges) and deletes (existing
/// edges), all distinct, so the whole stream does real work in both arms.
fn update_stream(g: &Graph, seed: u64) -> Vec<GraphUpdate> {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let n = g.num_vertices() as u32;
    let mut used: HashSet<(u32, u32)> = HashSet::new();
    let mut stream = Vec::with_capacity(UPDATES);
    while stream.len() < UPDATES {
        if stream.len() % 2 == 0 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            let key = (u.min(v), u.max(v));
            if u != v && !g.has_edge(u, v) && used.insert(key) {
                stream.push(GraphUpdate::Insert(u, v));
            }
        } else {
            let (u, v) = edges[rng.gen_range(0..edges.len())];
            if used.insert((u, v)) {
                stream.push(GraphUpdate::Delete(u, v));
            }
        }
    }
    stream
}

fn main() {
    let dataset = registry::dataset("As-Caida").expect("registry graph");
    let g = dataset.generate();
    let updates = update_stream(&g, 0x2E9A12);
    println!(
        "substrate-repair workload: {} single-edge updates on {} \
         (n={}, m={}), warm triangle substrate",
        updates.len(),
        dataset.name,
        g.num_vertices(),
        g.num_edges()
    );

    // -- Repair arm: warm substrate, in-place repair per update ----------
    let engine = DsdEngine::new(g.clone());
    let psi = Pattern::triangle();
    let req = DsdRequest::new(&psi).method(Method::CoreExact);
    let warm_solution = engine.solve(&req); // builds the substrate once

    let mut repair_time = Duration::ZERO;
    for (i, update) in updates.iter().enumerate() {
        let t = Instant::now();
        let stats = engine.apply(std::slice::from_ref(update));
        repair_time += t.elapsed();
        assert_eq!(
            stats.inserted + stats.deleted,
            1,
            "stream must be effective"
        );
        let first = i == 0;
        assert_eq!(
            (stats.substrates_repaired, stats.csr_deferred),
            (usize::from(first), !first),
            "the first update repairs in place, the rest stay pending"
        );
        assert_eq!(stats.substrates_rebuilt, 0, "no rebuild fallback");
    }
    // The snapshot merges the pending updates and repairs the store once.
    let t = Instant::now();
    let merged = engine.graph();
    repair_time += t.elapsed();
    drop(merged);
    // Untimed: the maintenance comparison is store-repair vs store-rebuild;
    // the query itself costs the same on either arm.
    let repaired_solution = engine.solve(&req);
    assert!(
        repaired_solution.stats.substrate.oracle_cache_hit,
        "the final solve must run on the repaired substrate"
    );

    // -- Invalidate-and-rebuild arm: from-scratch store per update ------
    let n = g.num_vertices();
    let alive = VertexSet::full(n);
    let mut current = g.clone();
    let mut rebuild_time = Duration::ZERO;
    let mut rebuilt_store = None;
    for update in &updates {
        let mut overlay = EdgeOverlay::default();
        assert!(overlay.apply(&current, update));
        let t = Instant::now();
        current = DeltaGraph::new(&current, &overlay).materialize();
        let (store, _) =
            InstanceStore::cliques(&current, 3, &alive, 1, None).expect("unbudgeted build");
        rebuild_time += t.elapsed();
        rebuilt_store = Some(store);
    }
    let rebuilt_store = rebuilt_store.expect("at least one update");

    // -- Correctness: repaired == rebuilt, bit for bit -------------------
    let cold = DsdEngine::new(current);
    let cold_solution = cold.solve(&req);
    assert_eq!(repaired_solution.vertices, cold_solution.vertices);
    assert_eq!(
        repaired_solution.density.to_bits(),
        cold_solution.density.to_bits(),
        "repaired substrate diverged from a cold rebuild"
    );
    assert_eq!(repaired_solution.stats.kmax, cold_solution.stats.kmax);
    assert!(warm_solution.density.is_finite());

    let speedup = rebuild_time.as_secs_f64() / repair_time.as_secs_f64();
    println!(
        "invalidate-and-rebuild: {:>9.3} ms ({} from-scratch triangle stores, \
         {} final rows)",
        rebuild_time.as_secs_f64() * 1e3,
        updates.len(),
        rebuilt_store.rows()
    );
    println!(
        "repair:                 {:>9.3} ms ({} updates, 2 in-place repairs: \
         the first update, then the other {} together)",
        repair_time.as_secs_f64() * 1e3,
        updates.len(),
        updates.len() - 1
    );
    println!("speedup: {speedup:.2}x (acceptance floor: {SPEEDUP_FLOOR}x)");
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "substrate repair must beat invalidate-and-rebuild by ≥ {SPEEDUP_FLOOR}x, got {speedup:.2}x"
    );
}
