//! Serving-layer tests: concurrent solves are bit-identical to serial,
//! racing warmers pay one substrate build, and the server's catalog stays
//! consistent under register/evict contention.

use std::sync::{Arc, Barrier};

use dsd::core::{
    DsdEngine, DsdRequest, DsdServer, Method, Objective, ServeConfig, ServeError, Solution, Ticket,
};
use dsd::graph::Graph;
use dsd::motif::Pattern;

/// A graph with enough structure that every objective has a non-trivial
/// answer: K6 + triangle fringe + chain (the `tests/engine.rs` fixture).
fn structured() -> Graph {
    let mut edges = Vec::new();
    for u in 0..6u32 {
        for v in (u + 1)..6 {
            edges.push((u, v));
        }
    }
    edges.extend_from_slice(&[(6, 7), (7, 8), (6, 8), (8, 0), (9, 10), (10, 11), (11, 9)]);
    edges.extend_from_slice(&[(11, 12), (12, 13)]);
    Graph::from_edges(14, &edges)
}

/// One request per objective, methods pinned so resolution cannot depend
/// on cache warmth (`Method::Auto` resolves against observed cache state,
/// which concurrency would make nondeterministic).
fn pinned_workload(psi: &Pattern) -> Vec<DsdRequest> {
    vec![
        DsdRequest::new(psi).method(Method::CoreExact),
        DsdRequest::new(psi).method(Method::PeelApp),
        DsdRequest::new(psi).objective(Objective::TopK(3)),
        DsdRequest::new(psi).objective(Objective::AtLeastK(8)),
        DsdRequest::new(psi).objective(Objective::AtMostK(4)),
        DsdRequest::new(psi).objective(Objective::WithQuery(vec![9])),
    ]
}

fn assert_identical(a: &Solution, b: &Solution, label: &str) {
    assert_eq!(a.vertices, b.vertices, "{label}: vertices differ");
    assert_eq!(
        a.density.to_bits(),
        b.density.to_bits(),
        "{label}: density not bit-identical"
    );
    assert_eq!(
        a.subgraphs.len(),
        b.subgraphs.len(),
        "{label}: subgraph count"
    );
    for (x, y) in a.subgraphs.iter().zip(&b.subgraphs) {
        assert_eq!(x.vertices, y.vertices, "{label}: subgraph vertices");
        assert_eq!(
            x.density.to_bits(),
            y.density.to_bits(),
            "{label}: subgraph density"
        );
    }
    assert_eq!(a.method, b.method, "{label}: resolved method");
    assert_eq!(a.outcome, b.outcome, "{label}: outcome");
}

fn solved(ticket: Ticket) -> Solution {
    ticket
        .wait()
        .expect("job ran")
        .solution()
        .expect("a query ticket")
}

/// (a) Concurrent solves through the server's worker pool over one
/// shared engine return bit-identical solutions to a serial reference,
/// for every objective.
#[test]
fn concurrent_solves_are_bit_identical_to_serial() {
    const THREADS: usize = 4;
    let psi = Pattern::triangle();
    let workload = pinned_workload(&psi);

    // Serial reference on its own engine.
    let serial = DsdEngine::new(structured());
    let reference: Vec<Solution> = workload.iter().map(|r| serial.solve(r)).collect();

    // THREADS clients race the full workload onto THREADS workers.
    let server = DsdServer::new(ServeConfig {
        workers: THREADS,
        ..ServeConfig::default()
    });
    server.register("g", structured());
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let server = &server;
            let workload = &workload;
            let reference = &reference;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let tickets: Vec<Ticket> = workload
                    .iter()
                    .map(|req| server.submit(req.clone().on("g")).expect("admitted"))
                    .collect();
                for (ticket, expect) in tickets.into_iter().zip(reference) {
                    let got = solved(ticket);
                    assert_identical(&got, expect, &format!("{:?}", expect.objective));
                }
            });
        }
    });
    server.drain();
}

/// (b) Two threads warming the same Ψ through the same engine pay exactly
/// one decomposition build — the double-checked build-once locking.
#[test]
fn racing_warmers_pay_one_build() {
    const WARMERS: usize = 8;
    let engine = Arc::new(DsdEngine::new(structured()));
    let psi = Pattern::triangle();
    let barrier = Barrier::new(WARMERS);
    std::thread::scope(|scope| {
        for _ in 0..WARMERS {
            let engine = Arc::clone(&engine);
            let psi = &psi;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                engine.warm(psi);
            });
        }
    });
    let stats = engine.cache_stats();
    assert_eq!(
        stats.decomposition_builds, 1,
        "N racing warmers must pay one build"
    );
    assert_eq!(stats.decomposition_hits, WARMERS - 1);
    assert_eq!(stats.oracle_builds, 1);
}

/// The same build-once guarantee holds when the warmers are full solves
/// (not just `warm`), across an isomorphic relabeling of Ψ.
#[test]
fn racing_solves_share_one_canonical_substrate() {
    const SOLVERS: usize = 6;
    let engine = Arc::new(DsdEngine::new(structured()));
    // The paw, two labelings — canonicalization must key them together.
    let labelings = [
        Pattern::c3_star(),
        Pattern::new("paw-b", 4, &[(1, 2), (2, 3), (1, 3), (2, 0)]),
    ];
    let barrier = Barrier::new(SOLVERS);
    std::thread::scope(|scope| {
        for i in 0..SOLVERS {
            let engine = Arc::clone(&engine);
            let psi = &labelings[i % 2];
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                engine.solve(&DsdRequest::new(psi).method(Method::PeelApp));
            });
        }
    });
    let stats = engine.cache_stats();
    assert_eq!(stats.decomposition_builds, 1);
    assert_eq!(stats.decomposition_hits, SOLVERS - 1);
}

/// (c) Catalog register/evict under contention is linearization-safe:
/// disjoint names all land, every evict of a present name succeeds
/// exactly once, and the final catalog is exactly the survivors.
#[test]
fn catalog_register_evict_under_contention() {
    const THREADS: usize = 8;
    let server = DsdServer::new(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    });
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for i in 0..THREADS {
            let server = &server;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let name = format!("g{i}");
                server.register(&name, structured());
                // A register is immediately visible to its own thread.
                assert!(server.engine(&name).is_some(), "{name} must be visible");
                // Everyone hammers list() while the catalog churns.
                let _ = server.list();
                if i % 2 == 1 {
                    assert!(server.evict(&name), "own registration must evict");
                    assert!(server.engine(&name).is_none());
                    assert!(!server.evict(&name), "a second evict finds nothing");
                }
            });
        }
    });
    let expect: Vec<String> = (0..THREADS).step_by(2).map(|i| format!("g{i}")).collect();
    assert_eq!(server.list(), expect);
    assert!(server.engine("missing").is_none());
}

/// Concurrent register/evict races on ONE name always leave the catalog
/// in a legal state: either absent, or serving a fully-functional engine.
/// Queries run on the server's worker while registrations and evictions
/// replace the engine under them.
#[test]
fn same_name_register_evict_race_stays_consistent() {
    const ROUNDS: usize = 25;
    let server = DsdServer::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let psi = Pattern::triangle();
    let expected = DsdEngine::new(structured())
        .request(&psi)
        .method(Method::PeelApp)
        .solve();
    let barrier = Barrier::new(3);
    std::thread::scope(|scope| {
        // Two registrars and one evictor fight over one name...
        for _ in 0..2 {
            let server = &server;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..ROUNDS {
                    server.register("shared", structured());
                }
            });
        }
        let server = &server;
        let barrier = &barrier;
        let psi = &psi;
        let expected = &expected;
        scope.spawn(move || {
            barrier.wait();
            for _ in 0..ROUNDS {
                // ...while reads observe only legal states.
                let req = DsdRequest::new(psi).on("shared").method(Method::PeelApp);
                match server.submit(req).and_then(Ticket::wait) {
                    Ok(outcome) => {
                        let s = outcome.solution().expect("a query ticket");
                        assert_identical(&s, expected, "racing solve");
                    }
                    Err(e) => assert_eq!(e, ServeError::UnknownGraph("shared".into())),
                }
                server.evict("shared");
            }
        });
    });
    // The final state is one of the two legal outcomes, and the pipeline
    // settled every job it dispatched.
    let end = server.list();
    assert!(end.is_empty() || end == vec!["shared".to_string()]);
    server.drain();
    let stats = server.stats();
    assert_eq!((stats.queued, stats.in_flight), (0, 0));
}

/// A mixed two-graph workload through an 8-worker server returns the same
/// solutions as through a 1-worker server, and each pays one
/// decomposition build per distinct (graph, Ψ).
#[test]
fn batch_matches_serial_and_dedupes_substrates() {
    let patterns = [Pattern::triangle(), Pattern::edge()];
    let build_batch = || {
        let mut reqs = Vec::new();
        for graph in ["a", "b"] {
            for psi in &patterns {
                reqs.push(DsdRequest::new(psi).on(graph).method(Method::CoreExact));
                reqs.push(DsdRequest::new(psi).on(graph).method(Method::PeelApp));
                reqs.push(DsdRequest::new(psi).on(graph).objective(Objective::TopK(2)));
                reqs.push(
                    DsdRequest::new(psi)
                        .on(graph)
                        .objective(Objective::AtLeastK(6)),
                );
            }
        }
        reqs
    };

    let run = |workers: usize| {
        let server = DsdServer::new(ServeConfig {
            workers,
            ..ServeConfig::default()
        });
        let a = server.register("a", structured());
        // Graph b: two K4s sharing a vertex plus a tail.
        let mut edges = Vec::new();
        for block in [[0u32, 1, 2, 3], [3, 4, 5, 6]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((block[i], block[j]));
                }
            }
        }
        edges.push((6, 7));
        let b = server.register("b", Graph::from_edges(8, &edges));
        let tickets: Vec<Ticket> = build_batch()
            .into_iter()
            .map(|req| server.submit(req).expect("admitted"))
            .collect();
        let solutions: Vec<Solution> = tickets.into_iter().map(solved).collect();
        server.drain();
        assert_eq!(server.stats().completed, 16);
        let (sa, sb) = (a.cache_stats(), b.cache_stats());
        let builds = sa.decomposition_builds + sb.decomposition_builds;
        let hits = sa.decomposition_hits + sb.decomposition_hits;
        (solutions, builds, hits)
    };

    let serial = run(1);
    let batched = run(8);

    assert_eq!(serial.0.len(), batched.0.len());
    for (s, b) in serial.0.iter().zip(&batched.0) {
        assert_identical(b, s, &format!("{:?}", s.objective));
    }
    for (_, builds, hits) in [&serial, &batched] {
        assert_eq!(*builds, 4, "one build per (graph, Ψ)");
        assert_eq!(*hits, 12, "three warm requests per group");
    }
}
