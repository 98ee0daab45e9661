//! Serving-runtime tests: the admission-controlled pipeline is
//! bit-identical to a synchronous replay, forced substrate evictions
//! never corrupt in-flight requests, the governor settles every job on
//! the engines' own byte counts, and the shed paths (overload, deadline)
//! are deterministic.
//!
//! Iteration counts honour the `DSD_PROP_ITERS` env knob (the nightly CI
//! job runs the suites with elevated counts).

use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use dsd::core::{
    DsdEngine, DsdRequest, DsdServer, GovernorStats, Method, Objective, ServeConfig, ServeError,
    ServeOutcome, Solution, Ticket,
};
use dsd::graph::{Graph, GraphBuilder, GraphUpdate, VertexId};
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

fn random_graph(rng: &mut StdRng, n_lo: usize, n_hi: usize) -> Graph {
    let n = rng.gen_range(n_lo..=n_hi);
    let p = rng.gen_range(0.10f64..0.30);
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

/// The governor's stats after a job, checked against the engines: its
/// resident bytes are the registered engines' summed `substrate_bytes()`,
/// and under a `budget` they fit it unless a violation was counted.
fn assert_settled(server: &DsdServer, budget: Option<u64>, ctx: &str) -> GovernorStats {
    let governor = server.stats().governor;
    let held: u64 = server
        .list()
        .iter()
        .filter_map(|name| server.engine(name))
        .map(|engine| engine.substrate_bytes())
        .sum();
    assert_eq!(governor.resident_bytes, held, "{ctx}: resident bytes");
    if let Some(budget) = budget {
        assert!(
            governor.resident_bytes <= budget || governor.violations > 0,
            "{ctx}: settled total over budget without a counted violation"
        );
    }
    governor
}

/// One op of a mixed workload script, replayable both through the
/// pipeline and through a serial reference.
enum Op {
    Query {
        graph: usize,
        req: DsdRequest,
    },
    Update {
        graph: usize,
        edges: Vec<GraphUpdate>,
    },
}

/// A random mixed query/update script over `graphs.len()` graphs, with
/// methods pinned (Auto's cache-sensitivity would break bit-identity).
fn random_script(rng: &mut StdRng, graphs: &[Graph], names: &[&str], ops: usize) -> Vec<Op> {
    let patterns = [Pattern::edge(), Pattern::triangle(), Pattern::two_star()];
    let methods = [Method::CoreExact, Method::PeelApp, Method::IncApp];
    (0..ops)
        .map(|_| {
            let graph = rng.gen_range(0..graphs.len());
            if rng.gen_bool(0.25) {
                let n = graphs[graph].num_vertices() as VertexId;
                let edges = (0..rng.gen_range(1usize..=4))
                    .map(|_| {
                        let u = rng.gen_range(0..n);
                        let v = rng.gen_range(0..n);
                        if rng.gen_bool(0.5) {
                            GraphUpdate::Insert(u, v)
                        } else {
                            GraphUpdate::Delete(u, v)
                        }
                    })
                    .collect();
                Op::Update { graph, edges }
            } else {
                let psi = &patterns[rng.gen_range(0..patterns.len())];
                let method = methods[rng.gen_range(0..methods.len())];
                let req = DsdRequest::new(psi).on(names[graph]).method(method);
                Op::Query { graph, req }
            }
        })
        .collect()
}

/// Serial ground truth: replay the script in order on fresh engines.
/// Returns one `Option<Solution>` per op (None for updates).
fn reference_replay(graphs: &[Graph], script: &[Op]) -> Vec<Option<Solution>> {
    let engines: Vec<DsdEngine<'static>> =
        graphs.iter().map(|g| DsdEngine::new(g.clone())).collect();
    script
        .iter()
        .map(|op| match op {
            Op::Query { graph, req } => Some(engines[*graph].solve(req)),
            Op::Update { graph, edges } => {
                engines[*graph].apply(edges);
                None
            }
        })
        .collect()
}

/// Replays the script through a `DsdServer`, waiting every ticket, and
/// asserts each query's answer (vertices, density bits, epoch) matches
/// the serial reference. Returns the server for stats assertions.
fn pipeline_replay_matches(
    graphs: &[Graph],
    names: &[&str],
    script: &[Op],
    expected: &[Option<Solution>],
    config: ServeConfig,
) -> DsdServer {
    let server = DsdServer::new(config);
    for (name, g) in names.iter().zip(graphs) {
        server.register(*name, g.clone());
    }
    let mut tickets: Vec<(usize, Ticket)> = Vec::new();
    for (i, op) in script.iter().enumerate() {
        let ticket = match op {
            Op::Query { req, .. } => server.submit(req.clone()),
            Op::Update { graph, edges } => server.submit_update(names[*graph], edges.clone()),
        };
        tickets.push((i, ticket.expect("queue deep enough for the whole script")));
    }
    for (i, ticket) in tickets {
        let outcome = ticket.wait().expect("no sheds in this configuration");
        match (&script[i], outcome) {
            (Op::Query { .. }, ServeOutcome::Solved(got)) => {
                let want = expected[i].as_ref().expect("reference solved this op");
                assert_eq!(got.vertices, want.vertices, "op {i}: vertices differ");
                assert_eq!(
                    got.density.to_bits(),
                    want.density.to_bits(),
                    "op {i}: density not bit-identical"
                );
                assert_eq!(
                    got.stats.epoch, want.stats.epoch,
                    "op {i}: FIFO/barrier order broken — query ran at the wrong epoch"
                );
            }
            (Op::Update { .. }, ServeOutcome::Updated(_)) => {}
            _ => panic!("op {i}: outcome kind does not match the submitted job"),
        }
    }
    server.drain();
    server
}

/// The tentpole contract: mixed query/update traffic through the
/// pipeline is bit-identical (answers and epochs) to a serial replay —
/// per-graph FIFO plus the update barrier is exactly serial order, while
/// cross-graph traffic interleaves freely.
#[test]
fn pipeline_is_bit_identical_to_serial_replay() {
    // One iteration is a full 40-op pipeline run plus its serial
    // reference; cap the nightly elevation accordingly.
    let iters = prop_iters(4).min(100);
    for seed in 0..iters as u64 {
        let mut rng = StdRng::seed_from_u64(0x5E27E + seed);
        let graphs: Vec<Graph> = (0..3).map(|_| random_graph(&mut rng, 16, 30)).collect();
        let names = ["alpha", "beta", "gamma"];
        let script = random_script(&mut rng, &graphs, &names, 40);
        let expected = reference_replay(&graphs, &script);
        let server = pipeline_replay_matches(
            &graphs,
            &names,
            &script,
            &expected,
            ServeConfig {
                workers: 4,
                queue_depth: 64,
                substrate_budget: None,
                ..ServeConfig::default()
            },
        );
        let stats = server.stats();
        assert_eq!(stats.shed_overload, 0);
        assert_eq!(stats.shed_deadline, 0);
        assert_eq!(stats.completed as usize, script.len());
    }
}

/// Chaos variant: a byte budget tight enough to force constant LRU
/// eviction changes *nothing* about the answers — in-flight snapshots
/// hold their own `Arc`s, so a dropped store is rebuilt, never observed
/// mid-request. The governor must report the eviction/rebuild churn.
#[test]
fn forced_evictions_never_change_answers() {
    // Same cap as the replay test: each iteration is a whole script.
    let iters = prop_iters(4).min(100);
    for seed in 0..iters as u64 {
        let mut rng = StdRng::seed_from_u64(0xE71C + seed);
        let graphs: Vec<Graph> = (0..3).map(|_| random_graph(&mut rng, 16, 30)).collect();
        let names = ["alpha", "beta", "gamma"];
        let script = random_script(&mut rng, &graphs, &names, 40);
        let expected = reference_replay(&graphs, &script);
        // A budget of one byte: every entry is over budget the moment it
        // lands, so each unpinned substrate is evicted at settlement.
        let server = pipeline_replay_matches(
            &graphs,
            &names,
            &script,
            &expected,
            ServeConfig {
                workers: 4,
                queue_depth: 64,
                substrate_budget: Some(1),
                ..ServeConfig::default()
            },
        );
        let gov = server.stats().governor;
        assert!(gov.evictions > 0, "a 1-byte budget must evict");
        assert!(
            gov.resident_bytes <= 1 || gov.violations > 0,
            "settled total over budget without a counted violation"
        );
    }
}

/// Direct assault on the store handles: one thread hammers
/// `evict_substrate` while query threads solve — every answer matches
/// the warm single-threaded one bit for bit.
#[test]
fn concurrent_evict_substrate_never_corrupts_in_flight_solves() {
    let mut rng = StdRng::seed_from_u64(0xAB5E);
    let g = random_graph(&mut rng, 24, 24);
    let psi = Pattern::triangle();
    let key = dsd::core::pattern_key(&psi);
    let engine = Arc::new(DsdEngine::new(g));
    let want = engine.request(&psi).method(Method::CoreExact).solve();

    let iters = prop_iters(200);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let evictor = {
            let engine = Arc::clone(&engine);
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    engine.evict_substrate(&key);
                }
            })
        };
        let solvers: Vec<_> = (0..3)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let want = &want;
                let psi = &psi;
                scope.spawn(move || {
                    for i in 0..iters {
                        let got = engine.request(psi).method(Method::CoreExact).solve();
                        assert_eq!(got.vertices, want.vertices, "solve {i} diverged");
                        assert_eq!(got.density.to_bits(), want.density.to_bits());
                    }
                })
            })
            .collect();
        // Keep the evictor hammering until every solver finished, so
        // evictions genuinely overlap in-flight solves end to end.
        for s in solvers {
            s.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        evictor.join().unwrap();
    });
}

/// The governor's footprint follows updates, `DsdServer::evict` and
/// engine drop: after every job, and after the evict, it equals the
/// registered engines' summed `substrate_bytes()`.
#[test]
fn governor_ledger_tracks_updates_evict_and_engine_drop() {
    let mut rng = StdRng::seed_from_u64(0x1ED6E2);
    let server = DsdServer::new(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    });
    server.register("a", random_graph(&mut rng, 20, 30));
    server.register("b", random_graph(&mut rng, 20, 30));
    let run = |ticket: Result<Ticket, ServeError>| {
        let ticket = ticket.expect("admitted");
        assert!(server.step(), "the submitted job is dispatchable");
        ticket.wait().expect("registered")
    };

    let psi = Pattern::triangle();
    for name in ["a", "b"] {
        run(server.submit(DsdRequest::new(&psi).on(name).method(Method::CoreExact)));
    }
    let warm = assert_settled(&server, None, "after warmup");
    assert!(warm.resident_bytes > 0, "triangle substrates occupy bytes");
    assert!(
        warm.peak_bytes >= warm.resident_bytes,
        "peak tracks the settled total without a budget"
    );

    // An update invalidates a's substrates; the next fold sees it.
    run(server.submit_update("a", vec![GraphUpdate::Insert(0, 1)]));
    assert_settled(&server, None, "after update");

    // Re-warm a, then evict it: the server held the only strong
    // reference, so the engine drops here and its bytes leave the fold.
    run(server.submit(DsdRequest::new(&psi).on("a").method(Method::CoreExact)));
    let pre_evict = assert_settled(&server, None, "after re-warming a").resident_bytes;
    assert!(server.evict("a"));
    let evicted = assert_settled(&server, None, "after evict + engine drop");
    assert!(
        evicted.peak_bytes >= pre_evict,
        "evicting never lowers the peak"
    );
}

/// Located-region records are counted and evicted with their Ψ key:
/// after every warm TopK and WithQuery job the governor's footprint
/// matches the engines' summed bytes, and it still does when a one-byte
/// budget makes the governor evict each key (networks, records and all)
/// as soon as its job settles.
#[test]
fn governor_ledgers_and_evicts_located_records() {
    let mut rng = StdRng::seed_from_u64(0x10CA7E);
    let graphs = [
        random_graph(&mut rng, 40, 50),
        random_graph(&mut rng, 40, 50),
    ];
    let traffic = |name: &str| {
        [
            DsdRequest::new(&Pattern::triangle())
                .on(name)
                .objective(Objective::TopK(2)),
            DsdRequest::new(&Pattern::edge())
                .on(name)
                .objective(Objective::TopK(2)),
            DsdRequest::new(&Pattern::edge())
                .on(name)
                .objective(Objective::WithQuery(vec![0, 7])),
        ]
    };
    for budget in [None, Some(1)] {
        let server = DsdServer::new(ServeConfig {
            workers: 0,
            substrate_budget: budget,
            ..ServeConfig::default()
        });
        let engines: Vec<_> = ["a", "b"]
            .iter()
            .zip(&graphs)
            .map(|(name, g)| server.register(*name, g.clone()))
            .collect();
        for round in 0..3 {
            for name in ["a", "b"] {
                for req in traffic(name) {
                    let ticket = server
                        .submit(req.method(Method::CoreExact))
                        .expect("admitted");
                    assert!(server.step(), "the submitted job is dispatchable");
                    ticket.wait().expect("registered");
                    assert_settled(&server, budget, &format!("round {round} on {name}"));
                }
            }
        }
        let hits: usize = engines.iter().map(|e| e.cache_stats().located_hits).sum();
        match budget {
            None => {
                assert!(hits > 0, "warm repeats find their records");
                assert!(engines.iter().all(|e| e.network_bytes() > 0));
            }
            Some(_) => assert!(
                server.stats().governor.evictions > 0,
                "a 1-byte budget must evict"
            ),
        }
    }
}

/// An update that misses every cached region carries the networks into
/// the next epoch, and the governor's footprint stays exact through it:
/// the warm CoreExact and WithQuery traffic on graph a leaves networks and
/// records behind, an edge between two isolated vertices changes none of
/// them, and after the update — and again after the governor evicts a's
/// keys with `evict_substrate` to make room for graph b — the footprint
/// equals the engines' summed bytes. `ApplyStats::bytes_freed` is exactly
/// what a's entries shrank by: the decompositions, the records and the
/// carried networks' flow state (the stores neither grow nor shrink).
#[test]
fn governor_ledger_holds_across_a_carrying_update() {
    let planted = dsd::datasets::chung_lu::chung_lu_with_clique(300, 1_200, 2.5, 10, 41);
    let n = planted.num_vertices() as VertexId;
    let edges: Vec<(VertexId, VertexId)> = planted.edges().collect();
    let graph_a = Graph::from_edges(n as usize + 2, &edges);
    let graph_b = Graph::from_edges(n as usize, &edges);
    let traffic = |name: &str| {
        [
            DsdRequest::new(&Pattern::triangle()).on(name),
            DsdRequest::new(&Pattern::edge()).on(name),
            DsdRequest::new(&Pattern::edge())
                .on(name)
                .objective(Objective::WithQuery(vec![0, 1])),
        ]
        .map(|req| req.method(Method::CoreExact))
    };
    // The first pass is unbudgeted and measures what a and b hold; the
    // second's budget leaves room for a and for b, but not for both.
    let mut budget = None;
    for pass in 0..2 {
        let server = DsdServer::new(ServeConfig {
            workers: 0,
            substrate_budget: budget,
            ..ServeConfig::default()
        });
        let run = |ticket: Result<Ticket, ServeError>| {
            let ticket = ticket.expect("admitted");
            assert!(server.step(), "the submitted job is dispatchable");
            ticket.wait().expect("registered")
        };
        let a = server.register("a", graph_a.clone());
        for req in traffic("a") {
            run(server.submit(req));
        }
        let (held, networks) = (a.substrate_bytes(), a.network_bytes());
        assert!(networks > 0, "pass {pass}: a's traffic caches networks");

        let update = vec![GraphUpdate::Insert(n, n + 1)];
        let stats = match run(server.submit_update("a", update)) {
            ServeOutcome::Updated(stats) => stats,
            ServeOutcome::Solved(_) => unreachable!("an update answers with its stats"),
        };
        assert_eq!(stats.epoch, 1);
        let carried = a.network_bytes();
        assert!(carried > 0, "pass {pass}: the networks were carried");
        assert_eq!(stats.bytes_freed, held - a.substrate_bytes(), "pass {pass}");
        assert_settled(&server, budget, &format!("pass {pass}: after the update"));

        let hits = a.cache_stats().network_hits;
        for req in traffic("a") {
            run(server.submit(req));
        }
        assert!(
            a.cache_stats().network_hits >= hits + 3,
            "pass {pass}: warm after update"
        );
        assert_settled(&server, budget, &format!("pass {pass}: after re-warming a"));
        let a_bytes = a.substrate_bytes();

        let b = server.register("b", graph_b.clone());
        for req in traffic("b") {
            run(server.submit(req));
        }
        let settled = assert_settled(&server, budget, &format!("pass {pass}: after b's traffic"));
        match budget {
            None => budget = Some(a_bytes.max(b.substrate_bytes()) + 1),
            Some(_) => {
                assert!(settled.evictions > 0, "a and b overflow the budget");
                assert!(
                    a.substrate_bytes() < a_bytes,
                    "the governor evicted a's entries"
                );
            }
        }
    }
}

/// `drain` on a server with no worker pool runs the queued jobs on the
/// calling thread instead of waiting for workers that do not exist.
#[test]
fn poolless_drain_runs_queued_jobs() {
    let server = Arc::new(DsdServer::new(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    }));
    server.register("toy", Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]));
    let psi = Pattern::triangle();
    let q = || DsdRequest::new(&psi).on("toy").method(Method::PeelApp);
    let before = server.submit(q()).unwrap();
    let update = server
        .submit_update("toy", vec![GraphUpdate::Delete(0, 1)])
        .unwrap();
    let after = server.submit(q()).unwrap();

    let (done_tx, done) = mpsc::channel();
    let drainer = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            server.drain();
            let _ = done_tx.send(());
        })
    };
    done.recv_timeout(Duration::from_secs(10))
        .expect("drain with no workers must run the queued jobs, not block");
    drainer.join().unwrap();

    assert_eq!(
        before.wait().unwrap().solution().unwrap().vertices,
        vec![0, 1, 2]
    );
    assert!(matches!(update.wait(), Ok(ServeOutcome::Updated(_))));
    let after = after.wait().unwrap().solution().unwrap();
    assert_eq!(after.stats.epoch, 1);
    assert!(after.vertices.is_empty(), "no triangle is left");
    let stats = server.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!((stats.queued, stats.in_flight), (0, 0));
}

/// Admission control with `workers: 0` is fully deterministic: the
/// queue fills to exactly `queue_depth`, the next submit sheds typed,
/// and `step()` makes room again.
#[test]
fn overload_sheds_typed_and_recovers() {
    let server = DsdServer::new(ServeConfig {
        workers: 0,
        queue_depth: 2,
        ..ServeConfig::default()
    });
    server.register("toy", Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]));
    let psi = Pattern::triangle();
    let req = || DsdRequest::new(&psi).on("toy").method(Method::PeelApp);

    let t1 = server.submit(req()).unwrap();
    let _t2 = server.submit(req()).unwrap();
    match server.submit(req()) {
        Err(ServeError::Overloaded { graph, depth }) => {
            assert_eq!(graph, "toy");
            assert_eq!(depth, 2);
        }
        Err(other) => panic!("expected Overloaded, got {other:?}"),
        Ok(_) => panic!("expected Overloaded, got an admitted job"),
    }
    assert_eq!(server.stats().shed_overload, 1);

    assert!(server.step(), "one job dispatchable");
    let solved = t1.wait().unwrap().solution().unwrap();
    assert_eq!(solved.vertices, vec![0, 1, 2]);
    server.submit(req()).unwrap();

    // Routing failures are typed too, and never consume queue slots.
    assert!(matches!(
        server.submit(DsdRequest::new(&psi)),
        Err(ServeError::Unrouted)
    ));
    assert!(matches!(
        server.submit(DsdRequest::new(&psi).on("gone")),
        Err(ServeError::UnknownGraph(_))
    ));
}

/// A zero deadline expires every job while queued; dispatch sheds it
/// with `DeadlineExceeded` without running the solve.
#[test]
fn expired_deadlines_shed_at_dispatch() {
    let server = DsdServer::new(ServeConfig {
        workers: 0,
        queue_depth: 8,
        deadline: Some(Duration::ZERO),
        ..ServeConfig::default()
    });
    server.register("toy", Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]));
    let psi = Pattern::triangle();
    let ticket = server
        .submit(DsdRequest::new(&psi).on("toy").method(Method::PeelApp))
        .unwrap();
    std::thread::sleep(Duration::from_millis(2));
    assert!(server.step());
    assert!(matches!(ticket.wait(), Err(ServeError::DeadlineExceeded)));
    let stats = server.stats();
    assert_eq!(stats.shed_deadline, 1);
    assert_eq!(stats.completed, 0);
}

/// The per-graph barrier, observed through epochs: a query queued after
/// an update on the same graph must see the bumped epoch; a query queued
/// before it must see the old one. FIFO makes this deterministic even
/// with a full worker pool.
#[test]
fn updates_barrier_their_own_graph_queue() {
    let server = DsdServer::new(ServeConfig {
        workers: 4,
        queue_depth: 64,
        ..ServeConfig::default()
    });
    let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
    server.register("hot", g.clone());
    server.register("cold", g);
    let psi = Pattern::triangle();
    let q = |name: &str| DsdRequest::new(&psi).on(name).method(Method::CoreExact);

    let mut tickets: VecDeque<(u64, Ticket)> = VecDeque::new();
    for round in 0..4u64 {
        tickets.push_back((round, server.submit(q("hot")).unwrap()));
        server
            .submit_update("hot", vec![GraphUpdate::Insert(round as u32, 5)])
            .unwrap();
        // Cross-traffic on the other graph, never barriered.
        tickets.push_back((0, server.submit(q("cold")).unwrap()));
    }
    let before = tickets.len();
    for (expected_epoch, ticket) in tickets {
        let s = ticket.wait().unwrap().solution().unwrap();
        assert_eq!(
            s.stats.epoch, expected_epoch,
            "query observed the wrong epoch through the barrier"
        );
    }
    server.drain();
    assert!(before > 0);
}
