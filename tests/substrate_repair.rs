//! Differential suite for incremental Ψ-substrate repair.
//!
//! The contract: after `DsdEngine::apply`, a warm engine whose
//! Ψ-substrates were *repaired in place* (rows incident to removed edges
//! tombstoned through the incidence CSR, new instances enumerated from
//! inserted edges and appended) answers every query **bit-identically**
//! to a cold engine rebuilt from scratch over the materialized graph —
//! across edge, clique, star, diamond, and general Ψ. Companion tests
//! pin the typed fallback (repair growth past the store budget rebuilds
//! instead) and a served graph repaired in place under the governor,
//! with and without a budget that evicts its store after every job.
//!
//! Iteration counts honour `DSD_PROP_ITERS` like `tests/dynamic.rs`.

use std::collections::BTreeSet;

use dsd::core::oracle::DIAMOND_ROW_COST;
use dsd::core::{
    DsdEngine, DsdRequest, DsdServer, Method, ServeConfig, ServeError, ServeOutcome, Solution,
    Ticket,
};
use dsd::graph::testing::with_pendant_star;
use dsd::graph::{Graph, GraphUpdate, VertexId, VertexSet};
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

/// A random base graph as (n, edge set).
fn random_base(rng: &mut StdRng) -> (usize, BTreeSet<(VertexId, VertexId)>) {
    let n = rng.gen_range(12usize..=18);
    let p = rng.gen_range(0.2f64..0.4);
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

/// The base graph with a pendant star whose hub's squared degree alone
/// pays [`DIAMOND_ROW_COST`] for every 4-cycle, so the cost rule keeps the
/// diamond store and `apply` has a diamond store to repair.
fn pad_for_diamond_store(
    n: usize,
    edges: &BTreeSet<(VertexId, VertexId)>,
) -> (usize, BTreeSet<(VertexId, VertexId)>) {
    let g = Graph::from_edges(n, &edges.iter().copied().collect::<Vec<_>>());
    let cycles = count_instances(&g, &Pattern::diamond(), &VertexSet::full(n));
    let leaves = ((DIAMOND_ROW_COST * cycles) as f64).sqrt().ceil() as usize;
    let padded = with_pendant_star(&g, leaves);
    (padded.num_vertices(), padded.edges().collect())
}

/// A mixed batch: deletes some present edges, inserts some absent ones,
/// and mirrors the net effect onto `edges`.
fn mixed_batch(
    rng: &mut StdRng,
    n: usize,
    edges: &mut BTreeSet<(VertexId, VertexId)>,
) -> Vec<GraphUpdate> {
    let mut batch = Vec::new();
    let present: Vec<_> = edges.iter().copied().collect();
    for &(u, v) in &present {
        if rng.gen_bool(0.15) {
            batch.push(GraphUpdate::Delete(u, v));
            edges.remove(&(u, v));
        }
    }
    for _ in 0..rng.gen_range(1usize..=6) {
        let u = rng.gen_range(0u32..n as u32);
        let v = rng.gen_range(0u32..n as u32);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if edges.insert(key) {
            batch.push(GraphUpdate::Insert(key.0, key.1));
        }
    }
    batch
}

fn assert_bit_identical(ctx: &str, warm: &Solution, cold: &Solution) {
    assert_eq!(warm.vertices, cold.vertices, "vertices: {ctx}");
    assert_eq!(
        warm.density.to_bits(),
        cold.density.to_bits(),
        "density bits: {ctx}"
    );
    assert_eq!(warm.stats.kmax, cold.stats.kmax, "kmax: {ctx}");
    assert_eq!(warm.guarantee, cold.guarantee, "guarantee: {ctx}");
}

/// The acceptance differential: repaired substrates answer-identical to
/// rebuilt ones across every Ψ shape the store can repair — edge and
/// larger cliques (kClist-rooted re-enumeration), the two-star, the
/// diamond, and a general pattern (instance re-enumeration + recount).
#[test]
fn repaired_substrates_answer_identical_to_rebuilt() {
    let psis = [
        Pattern::edge(),
        Pattern::triangle(),
        Pattern::clique(4),
        Pattern::two_star(),
        Pattern::diamond(),
        Pattern::c3_star(),
    ];
    let iters = prop_iters(6);
    let mut repaired_total = 0usize;
    let mut diamonds_repaired = 0usize;
    for seed in 0..iters as u64 {
        for psi in &psis {
            let mut rng = StdRng::seed_from_u64(0x5EED_2E9A ^ (seed << 8));
            let (mut n, mut edges) = random_base(&mut rng);
            let diamond = psi.kind() == PatternKind::Diamond;
            if diamond {
                (n, edges) = pad_for_diamond_store(n, &edges);
            }
            let edge_list: Vec<_> = edges.iter().copied().collect();
            let warm = DsdEngine::new(Graph::from_edges(n, &edge_list));
            // Warm the Ψ-substrate so apply() has something to repair.
            let first = warm.request(psi).method(Method::CoreExact).solve();
            if diamond {
                assert!(
                    first.stats.store.is_some_and(|s| s.materialized),
                    "seed {seed}: the diamond store materializes"
                );
            }

            for round in 0..3 {
                let batch = mixed_batch(&mut rng, n, &mut edges);
                if batch.is_empty() {
                    continue;
                }
                let stats = warm.apply(&batch);
                repaired_total += stats.substrates_repaired;
                if diamond {
                    diamonds_repaired += stats.substrates_repaired;
                }
                let edge_list: Vec<_> = edges.iter().copied().collect();
                let cold = DsdEngine::new(Graph::from_edges(n, &edge_list));
                for method in [Method::CoreExact, Method::PeelApp] {
                    let req = DsdRequest::new(psi).method(method);
                    let ctx = format!("seed {seed}, {}, round {round}, {method:?}", psi.name());
                    assert_bit_identical(&ctx, &warm.solve(&req), &cold.solve(&req));
                }
            }
        }
    }
    assert!(
        repaired_total > 0 && diamonds_repaired > 0,
        "the sweep never exercised the repair path ({repaired_total} repairs, \
         {diamonds_repaired} of diamond stores)"
    );
}

/// Satellite: repair that would grow the store past its byte budget is a
/// *typed* fallback — the oracle is invalidated (counted in
/// `substrates_rebuilt`), never silently truncated, and the next solve
/// still matches a cold engine.
#[test]
fn repair_growth_past_budget_falls_back_to_rebuild() {
    // A sparse graph with one triangle; K9 edges inserted among the
    // remaining vertices explode the triangle count far past any budget
    // sized for the warm store.
    let n = 16usize;
    let base = vec![(0u32, 1u32), (1, 2), (0, 2), (2, 3), (3, 4)];
    let warm = DsdEngine::new(Graph::from_edges(n, &base));
    warm.request(&Pattern::triangle())
        .method(Method::CoreExact)
        .solve();
    let warm_bytes = warm.substrate_bytes();
    assert!(warm_bytes > 0, "warm substrate occupies bytes");

    // Rebuild the engine with a budget that admits the warm store but
    // not the post-insert one (K9 alone holds 84 triangles).
    let warm = DsdEngine::new(Graph::from_edges(n, &base)).with_substrate_budget(Some(warm_bytes));
    warm.request(&Pattern::triangle())
        .method(Method::CoreExact)
        .solve();
    let mut batch = Vec::new();
    let mut edges: BTreeSet<_> = base.iter().copied().collect();
    for u in 6..15u32 {
        for v in (u + 1)..15 {
            batch.push(GraphUpdate::Insert(u, v));
            edges.insert((u, v));
        }
    }
    let stats = warm.apply(&batch);
    assert_eq!(
        stats.substrates_rebuilt, 1,
        "budget-exceeding growth must fall back to rebuild"
    );
    assert_eq!(stats.substrates_repaired, 0);

    let edge_list: Vec<_> = edges.iter().copied().collect();
    let cold =
        DsdEngine::new(Graph::from_edges(n, &edge_list)).with_substrate_budget(Some(warm_bytes));
    let req = DsdRequest::new(&Pattern::triangle()).method(Method::CoreExact);
    assert_bit_identical("post-fallback", &warm.solve(&req), &cold.solve(&req));
}

/// Satellite: a served graph whose triangle store is repaired in place
/// answers bit-identically to a cold engine after every repairing batch,
/// with an unlimited budget and with a 1-byte budget whose settlement
/// evicts the store the moment each job lands. After every job the
/// governor's resident bytes are the engine's own.
#[test]
fn governor_ledger_reconciles_after_in_place_repair() {
    for budget in [None, Some(1u64)] {
        let mut rng = StdRng::seed_from_u64(0x60_7E4A);
        let (n, mut edges) = random_base(&mut rng);
        let edge_list: Vec<_> = edges.iter().copied().collect();
        let server = DsdServer::new(ServeConfig {
            workers: 0,
            substrate_budget: budget,
            ..ServeConfig::default()
        });
        let engine = server.register("g", Graph::from_edges(n, &edge_list));
        let req = DsdRequest::new(&Pattern::triangle())
            .on("g")
            .method(Method::CoreExact);
        let run = |ticket: Result<Ticket, ServeError>, ctx: &str| {
            let ticket = ticket.expect("admitted");
            assert!(server.step(), "{ctx}: the job is dispatchable");
            let outcome = ticket.wait().expect("served");
            let governor = server.stats().governor;
            assert_eq!(governor.resident_bytes, engine.substrate_bytes(), "{ctx}");
            assert!(
                budget.is_none_or(|b| governor.resident_bytes <= b || governor.violations > 0),
                "{ctx}: settled over budget without a counted violation"
            );
            outcome
        };

        run(server.submit(req.clone()), "warm-up");
        let mut repaired = 0usize;
        for round in 0..4 {
            let batch = mixed_batch(&mut rng, n, &mut edges);
            if batch.is_empty() {
                continue;
            }
            let ctx = format!("budget {budget:?}, round {round}");
            match run(server.submit_update("g", batch), &ctx) {
                ServeOutcome::Updated(stats) => repaired += stats.substrates_repaired,
                ServeOutcome::Solved(_) => unreachable!("an update answers with its stats"),
            }
            // Keeps the substrate warm for the next round's repair.
            let warm = run(server.submit(req.clone()), &ctx)
                .solution()
                .expect("a query");
            let edge_list: Vec<_> = edges.iter().copied().collect();
            let cold = DsdEngine::new(Graph::from_edges(n, &edge_list)).solve(&req);
            assert_bit_identical(&ctx, &warm, &cold);
        }
        if budget.is_none() {
            assert!(repaired > 0, "unbudgeted runs must exercise repair");
        }
    }
}
