//! Bench: incremental k-core maintenance vs evict-and-rebuild — the
//! ISSUE-3 acceptance benchmark.
//!
//! A 64-update stream (alternating inserts of fresh edges and deletes of
//! existing ones) hits a registry graph that must keep an up-to-date
//! classical k-core order after **every** update — the serving contract
//! for an evolving graph:
//!
//! * **incremental** — one long-lived engine absorbs each update through
//!   `DsdEngine::apply`: it repairs the k-core order in place with the
//!   subcore traversal, accumulates the edges in an overlay, and
//!   materializes the CSR once at the end of the stream (lazy
//!   rebuild-or-patch);
//! * **evict-and-rebuild** — the pre-dynamic status quo: every update
//!   builds a fresh engine over the materialized graph and re-peels the
//!   k-core from scratch.
//!
//! Asserted: the final graph and k-core numbers are identical between the
//! two arms (and to a from-scratch decomposition), the incremental engine
//! paid exactly one k-core build for the whole stream, and the
//! incremental arm is **≥ 5× faster** end to end.
//!
//! Run with: `cargo bench -p dsd-bench --bench incremental_maintenance`

use std::collections::HashSet;
use std::time::Instant;

use dsd_core::{k_core_decomposition, DsdEngine};
use dsd_datasets::registry;
use dsd_graph::{DeltaGraph, EdgeOverlay, Graph, GraphUpdate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const UPDATES: usize = 64;
const SPEEDUP_FLOOR: f64 = 5.0;

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
    let updates = update_stream(&g, 0xD15C);
    println!(
        "incremental-maintenance workload: {} single-edge updates on {} \
         (n={}, m={})",
        updates.len(),
        dataset.name,
        g.num_vertices(),
        g.num_edges()
    );

    // -- Incremental arm: one live graph, per-edge k-core repair ---------
    let engine = DsdEngine::new(g.clone());
    engine.kcore_order(); // the serving steady state: substrate is warm
    let t = Instant::now();
    for update in &updates {
        let stats = engine.apply(&[*update]);
        assert_eq!(
            stats.inserted + stats.deleted,
            1,
            "stream must be effective"
        );
        assert!(stats.kcore_patched, "every update must repair, not rebuild");
    }
    let final_snapshot = engine.graph(); // one lazy CSR materialization
    let incremental_kcore = engine.kcore_order();
    let incremental = t.elapsed();
    assert_eq!(
        engine.cache_stats().kcore_builds,
        1,
        "the whole stream must reuse the single warm k-core build"
    );

    // -- Evict-and-rebuild arm: fresh engine + re-peel per update --------
    let t = Instant::now();
    let mut current = g.clone();
    let mut rebuilt_kcore = None;
    for update in &updates {
        let mut overlay = EdgeOverlay::default();
        assert!(overlay.apply(&current, update));
        current = DeltaGraph::new(&current, &overlay).materialize();
        let engine = DsdEngine::new(current.clone());
        rebuilt_kcore = Some(engine.kcore_order());
    }
    let rebuild = t.elapsed();
    let rebuilt_kcore = rebuilt_kcore.expect("at least one update");

    // -- Correctness: both arms agree with each other and with scratch --
    assert_eq!(*final_snapshot, current, "final graphs diverged");
    assert_eq!(
        incremental_kcore.core, rebuilt_kcore.core,
        "incremental k-core numbers diverged from evict-and-rebuild"
    );
    let scratch = k_core_decomposition(&final_snapshot);
    assert_eq!(incremental_kcore.core, scratch.core);
    assert_eq!(incremental_kcore.kmax, scratch.kmax);

    let speedup = rebuild.as_secs_f64() / incremental.as_secs_f64();
    println!(
        "evict-and-rebuild: {:>9.3} ms ({} CSR rebuilds + full re-peels)",
        rebuild.as_secs_f64() * 1e3,
        updates.len()
    );
    println!(
        "incremental:       {:>9.3} ms ({} subcore repairs + 1 lazy materialization)",
        incremental.as_secs_f64() * 1e3,
        updates.len()
    );
    println!("speedup: {speedup:.2}x (acceptance floor: {SPEEDUP_FLOOR}x)");
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "incremental maintenance must beat evict-and-rebuild by ≥ {SPEEDUP_FLOOR}x, got {speedup:.2}x"
    );
}
