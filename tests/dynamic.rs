//! Differential harness for the dynamic-graph subsystem.
//!
//! The contract under test: a long-lived engine that absorbs edge updates
//! through `DsdEngine::apply` / `DsdServer::submit_update` (in-place
//! Ψ-store repair, lazy rebuilds of the decompositions and the flow
//! networks, lazy CSR materialization) answers **every** query
//! bit-identically to a fresh engine built from scratch over the
//! materialized graph. The harness drives seeded random update/query
//! interleavings and cross-checks each query, CoreApp and the query
//! variant among them — the two readers of the classical core numbers,
//! which the edge key's decomposition rebuilds.
//!
//! Iteration counts honour the `DSD_PROP_ITERS` env knob (the nightly CI
//! job runs the suites with elevated counts); the defaults keep the
//! acceptance floor of ≥ 200 interleavings.

use std::collections::BTreeSet;

use dsd::core::{
    DsdEngine, DsdRequest, DsdServer, Method, Objective, Outcome, ServeConfig, ServeOutcome,
    Solution, Ticket,
};
use dsd::graph::{Graph, GraphUpdate, VertexId};
use dsd::motif::Pattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Iteration knob: `DSD_PROP_ITERS` overrides, `default` otherwise.
fn prop_iters(default: usize) -> usize {
    std::env::var("DSD_PROP_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A random base graph as (n, edge set).
fn random_base(rng: &mut StdRng) -> (usize, BTreeSet<(VertexId, VertexId)>) {
    let n = rng.gen_range(10usize..=20);
    let p = rng.gen_range(0.12f64..0.3);
    let mut edges = BTreeSet::new();
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            if rng.gen_bool(p) {
                edges.insert((u, v));
            }
        }
    }
    (n, edges)
}

/// Draws one random update; endpoints occasionally collide or run out of
/// range so the no-op accounting is exercised too.
fn random_update(rng: &mut StdRng, n: usize) -> GraphUpdate {
    let hi = n as u32 + 1; // one past the end → rare out-of-range no-ops
    let u = rng.gen_range(0u32..hi);
    let v = rng.gen_range(0u32..hi);
    if rng.gen_bool(0.5) {
        GraphUpdate::Insert(u, v)
    } else {
        GraphUpdate::Delete(u, v)
    }
}

/// Mirrors one update onto the reference edge set, with the same no-op
/// semantics as `EdgeOverlay::apply`. Returns whether it was effective.
fn mirror_update(
    edges: &mut BTreeSet<(VertexId, VertexId)>,
    n: usize,
    update: &GraphUpdate,
) -> bool {
    let (u, v) = update.endpoints();
    if u == v || u as usize >= n || v as usize >= n {
        return false;
    }
    let key = (u.min(v), u.max(v));
    match update {
        GraphUpdate::Insert(..) => edges.insert(key),
        GraphUpdate::Delete(..) => edges.remove(&key),
    }
}

/// A random query over the current graph: every objective, pinned methods
/// only (determinism), patterns cheap enough for hundreds of from-scratch
/// cross-checks.
fn random_request(rng: &mut StdRng, n: usize) -> DsdRequest {
    let psi = match rng.gen_range(0u32..3) {
        0 => Pattern::edge(),
        1 => Pattern::triangle(),
        _ => Pattern::two_star(),
    };
    let req = DsdRequest::new(&psi);
    match rng.gen_range(0u32..7) {
        0 => req.method(Method::CoreExact),
        1 => req.method(Method::PeelApp),
        2 => req.method(Method::IncApp),
        3 => req.method(Method::CoreApp),
        4 => req.objective(Objective::TopK(rng.gen_range(1usize..=3))),
        5 => req.objective(Objective::AtLeastK(rng.gen_range(1usize..=n))),
        _ => {
            let q = rng.gen_range(0u32..n as u32);
            req.objective(Objective::WithQuery(vec![q]))
        }
    }
}

/// Bit-identity between the incremental and from-scratch solutions.
fn assert_bit_identical(seed: u64, step: usize, incremental: &Solution, fresh: &Solution) {
    let ctx = || format!("seed {seed}, step {step}, {:?}", incremental.objective);
    assert_eq!(incremental.vertices, fresh.vertices, "vertices: {}", ctx());
    assert_eq!(
        incremental.density.to_bits(),
        fresh.density.to_bits(),
        "density bits: {}",
        ctx()
    );
    assert_eq!(incremental.method, fresh.method, "method: {}", ctx());
    assert_eq!(incremental.outcome, fresh.outcome, "outcome: {}", ctx());
    assert_eq!(
        incremental.guarantee,
        fresh.guarantee,
        "guarantee: {}",
        ctx()
    );
    assert_eq!(
        incremental.subgraphs.len(),
        fresh.subgraphs.len(),
        "subgraph count: {}",
        ctx()
    );
    for (a, b) in incremental.subgraphs.iter().zip(&fresh.subgraphs) {
        assert_eq!(a.vertices, b.vertices, "subgraph members: {}", ctx());
        assert_eq!(
            a.density.to_bits(),
            b.density.to_bits(),
            "subgraph density bits: {}",
            ctx()
        );
    }
}

/// Runs the one queued job on the calling thread and redeems its ticket.
fn step_one(server: &DsdServer, ticket: Ticket) -> ServeOutcome {
    assert!(server.step(), "the submitted job is dispatchable");
    ticket.wait().expect("registered")
}

/// One seeded interleaving: a server-registered graph absorbs update
/// batches and answers queries; every query is cross-checked bit-for-bit
/// against a fresh engine over the materialized reference graph.
fn run_interleaving(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (n, mut edges) = random_base(&mut rng);
    let edge_list: Vec<_> = edges.iter().copied().collect();
    let server = DsdServer::new(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    });
    server.register("dyn", Graph::from_edges(n, &edge_list));

    let mut expected_epoch = 0u64;
    let steps = rng.gen_range(8usize..=14);
    for step in 0..=steps {
        // Updates between queries; the final step is always a query so
        // every interleaving ends with a cross-check.
        if step < steps && rng.gen_bool(0.55) {
            let batch: Vec<GraphUpdate> = (0..rng.gen_range(1usize..=3))
                .map(|_| random_update(&mut rng, n))
                .collect();
            // Batch normalization cancels opposing updates, so the stats
            // describe the *net* edge-set change, not per-update effects.
            let before = edges.clone();
            for update in &batch {
                mirror_update(&mut edges, n, update);
            }
            let net_ins = edges.difference(&before).count();
            let net_del = before.difference(&edges).count();
            let ticket = server
                .submit_update("dyn", batch.clone())
                .expect("admitted");
            let ServeOutcome::Updated(stats) = step_one(&server, ticket) else {
                panic!("an update ticket returned a solution");
            };
            assert_eq!(
                stats.inserted, net_ins,
                "seed {seed}, step {step}: net inserts diverged from mirror"
            );
            assert_eq!(
                stats.deleted, net_del,
                "seed {seed}, step {step}: net deletes diverged from mirror"
            );
            assert_eq!(stats.ignored, batch.len() - net_ins - net_del);
            if net_ins + net_del > 0 {
                expected_epoch += 1;
            }
            assert_eq!(stats.epoch, expected_epoch, "seed {seed}, step {step}");
            continue;
        }
        let req = random_request(&mut rng, n);
        let ticket = server.submit(req.clone().on("dyn")).expect("admitted");
        let incremental = step_one(&server, ticket)
            .solution()
            .expect("a query ticket");
        assert_eq!(
            incremental.stats.epoch, expected_epoch,
            "seed {seed}, step {step}: query answered on a stale epoch"
        );
        let edge_list: Vec<_> = edges.iter().copied().collect();
        let fresh_engine = DsdEngine::new(Graph::from_edges(n, &edge_list));
        let fresh = fresh_engine.solve(&req);
        assert_bit_identical(seed, step, &incremental, &fresh);
    }
}

/// The core differential acceptance test: ≥ 200 seeded update/query
/// interleavings, incremental vs from-scratch bit-identical throughout.
#[test]
fn differential_updates_vs_fresh_engine_bit_identical() {
    let iters = prop_iters(200);
    for seed in 0..iters as u64 {
        run_interleaving(seed);
    }
}

/// Epoch bookkeeping across a long applied stream: snapshots taken before
/// an update keep answering on their graph version, and `SolveStats::epoch`
/// counts exactly the effective batches.
#[test]
fn epochs_count_effective_batches_only() {
    let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2)]);
    let engine = DsdEngine::new(g);
    assert_eq!(engine.epoch(), 0);
    // Ineffective batch: no epoch.
    engine.apply(&[GraphUpdate::Delete(3, 4)]);
    assert_eq!(engine.epoch(), 0);
    // Three effective batches.
    engine.apply(&[GraphUpdate::Insert(2, 3)]);
    engine.apply(&[GraphUpdate::Insert(3, 4)]);
    engine.apply(&[GraphUpdate::Delete(0, 1)]);
    assert_eq!(engine.epoch(), 3);
    let s = engine
        .request(&Pattern::edge())
        .method(Method::PeelApp)
        .solve();
    assert_eq!(s.stats.epoch, 3);
    assert_eq!(s.outcome, Outcome::Found);
}

/// Regression: a batch that nets to nothing (e.g. `[+{u,v}, -{u,v}]`)
/// must take the `ignored` fast path. Opposing updates cancel during
/// batch normalization — no epoch bump, no substrate invalidation, and
/// the warm Ψ-substrate answers the next query as a cache hit.
#[test]
fn net_noop_batches_take_the_ignored_fast_path() {
    let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
    let engine = DsdEngine::new(g);
    // Warm a triangle substrate.
    let warm = engine
        .request(&Pattern::triangle())
        .method(Method::CoreExact)
        .solve();
    assert_eq!(warm.stats.epoch, 0);

    // Insert-then-delete of an absent edge cancels to nothing.
    let stats = engine.apply(&[GraphUpdate::Insert(1, 3), GraphUpdate::Delete(1, 3)]);
    assert_eq!(stats.inserted, 0);
    assert_eq!(stats.deleted, 0);
    assert_eq!(stats.ignored, 2, "opposing updates must cancel");
    assert_eq!(stats.epoch, 0, "net-noop batch must not bump the epoch");
    assert_eq!(stats.substrates_dropped, 0);
    assert_eq!(stats.substrates_repaired, 0);

    // Delete-then-insert of a present edge cancels too.
    let stats = engine.apply(&[GraphUpdate::Delete(0, 1), GraphUpdate::Insert(0, 1)]);
    assert_eq!(stats.ignored, 2);
    assert_eq!(stats.epoch, 0);

    // The warm substrate survived: same epoch, oracle cache hit.
    let again = engine
        .request(&Pattern::triangle())
        .method(Method::CoreExact)
        .solve();
    assert_eq!(again.stats.epoch, 0);
    assert!(
        again.stats.substrate.oracle_cache_hit,
        "warm substrate must survive a net-noop batch"
    );
    assert_eq!(again.density.to_bits(), warm.density.to_bits());
}
