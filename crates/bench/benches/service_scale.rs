//! Bench: serving at scale under a byte budget — the ISSUE-6 acceptance
//! benchmark for the `dsd_core::serve` runtime.
//!
//! Synthetic traffic over ten generated graphs (five R-MAT, five
//! Chung-Lu power-law) and three patterns (edge, triangle, 2-star):
//!
//! 1. **Footprint measurement** — every `(graph, Ψ, method)` triple the
//!    mixed phase can issue is solved on plain, *ungoverned* engines;
//!    the summed `substrate_bytes()` (stores, decompositions and cached
//!    flow networks) is the full footprint `F`, and per-`(graph, Ψ)`
//!    deltas over all methods give the entry-size distribution.
//! 2. **Governed warm sweep** — the same query set replayed through a
//!    `DsdServer` whose governor budget is `F / 3`; every answer must be
//!    bit-identical to the ungoverned engines' reference.
//! 3. **Mixed load** — a seeded query/update script (updates barrier
//!    only their own graph) pushed through the server with submit-side
//!    backpressure; answers must be bit-identical (vertices, density
//!    bits, observed epoch) to a serial fresh-engine replay.
//!
//! Asserted: the budget binds (`evictions > 0`), settled residency never
//! exceeds it (`peak_bytes <= F/3`, `violations == 0`), and mixed-load
//! throughput clears a conservative CI floor. The worker count is chosen
//! from the measured entry sizes so the pinned in-flight working set
//! always fits the budget — the run demonstrates a *feasible* budget, not
//! a thrash spiral.
//!
//! By default this runs a CI-sized smoke configuration; `DSD_SCALE_FULL=1`
//! switches to the nightly full-size sweep.
//!
//! Run with: `cargo bench -p dsd-bench --bench service_scale`

use std::collections::VecDeque;
use std::time::Instant;

use dsd_core::{
    DsdEngine, DsdRequest, DsdServer, Method, ServeConfig, ServeError, ServeOutcome, Solution,
    Ticket,
};
use dsd_datasets::{chung_lu, rmat, rmat::RmatParams};
use dsd_graph::{Graph, GraphUpdate, VertexId};
use dsd_motif::Pattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NAMES: [&str; 10] = [
    "rmat-a", "rmat-b", "rmat-c", "rmat-d", "rmat-e", "cl-a", "cl-b", "cl-c", "cl-d", "cl-e",
];

/// One op of the mixed phase, replayable through the pipeline and
/// through a serial reference.
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

struct Config {
    /// R-MAT scale (graph size 2^scale) and edge factor.
    rmat_scale: u32,
    edge_factor: usize,
    /// Chung-Lu vertex count.
    cl_n: usize,
    /// Mixed-phase ops.
    ops: usize,
    /// Conservative CI throughput floor, jobs/s.
    floor: f64,
}

fn config(full: bool) -> Config {
    if full {
        Config {
            rmat_scale: 10,
            edge_factor: 8,
            cl_n: 1_500,
            ops: 500,
            floor: 1.0,
        }
    } else {
        Config {
            rmat_scale: 8,
            edge_factor: 6,
            cl_n: 400,
            ops: 180,
            floor: 5.0,
        }
    }
}

fn graphs(cfg: &Config) -> Vec<Graph> {
    let mut out = Vec::new();
    for seed in 0..5u64 {
        let n = 1usize << cfg.rmat_scale;
        out.push(rmat::rmat(
            cfg.rmat_scale,
            n * cfg.edge_factor,
            RmatParams::default(),
            41 + seed,
        ));
    }
    for seed in 0..5u64 {
        out.push(chung_lu::chung_lu(cfg.cl_n, cfg.cl_n * 5, 2.4, 97 + seed));
    }
    out
}

fn patterns() -> Vec<Pattern> {
    vec![Pattern::edge(), Pattern::triangle(), Pattern::two_star()]
}

/// The methods the mixed phase draws from.
const METHODS: [Method; 3] = [Method::CoreExact, Method::PeelApp, Method::IncApp];

/// The warm sweep: every (graph, Ψ, method) triple the mixed phase can
/// issue, so warming them all leaves resident everything the governor
/// will ever have to hold, exact-solve flow networks included. Methods
/// are pinned so each answer is deterministic regardless of cache
/// temperature.
fn warm_queries() -> Vec<DsdRequest> {
    let mut reqs = Vec::new();
    for name in NAMES {
        for psi in &patterns() {
            for method in METHODS {
                reqs.push(DsdRequest::new(psi).on(name).method(method));
            }
        }
    }
    reqs
}

/// A seeded mixed script: 20% updates, queries drawn over every
/// (graph, Ψ, method) combination.
fn mixed_script(rng: &mut StdRng, graphs: &[Graph], ops: usize) -> Vec<Op> {
    let psis = patterns();
    (0..ops)
        .map(|_| {
            let graph = rng.gen_range(0..graphs.len());
            if rng.gen_bool(0.2) {
                let n = graphs[graph].num_vertices() as VertexId;
                let edges = (0..rng.gen_range(1usize..=3))
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
                let psi = &psis[rng.gen_range(0..psis.len())];
                let method = METHODS[rng.gen_range(0..METHODS.len())];
                Op::Query {
                    graph,
                    req: DsdRequest::new(psi).on(NAMES[graph]).method(method),
                }
            }
        })
        .collect()
}

/// Serial ground truth for the mixed phase: fresh engines, in-order.
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

/// Waits the oldest pending ticket, asserting a query's answer against
/// the reference when one is attached.
fn settle_front(pending: &mut VecDeque<(Option<usize>, Ticket)>, expected: &[Option<Solution>]) {
    let Some((slot, ticket)) = pending.pop_front() else {
        return;
    };
    let outcome = ticket.wait().expect("no sheds under backpressure");
    if let (Some(i), ServeOutcome::Solved(got)) = (slot, outcome) {
        let want = expected[i].as_ref().expect("reference solved this op");
        assert_eq!(got.vertices, want.vertices, "op {i}: vertices diverged");
        assert_eq!(
            got.density.to_bits(),
            want.density.to_bits(),
            "op {i}: density not bit-identical"
        );
        assert_eq!(got.stats.epoch, want.stats.epoch, "op {i}: wrong epoch");
    }
}

/// Submits with backpressure: on `Overloaded`, settle the oldest pending
/// ticket (freeing a queue slot) and retry.
fn submit_backpressured(
    server: &DsdServer,
    graphs: &[Graph],
    op: &Op,
    slot: Option<usize>,
    pending: &mut VecDeque<(Option<usize>, Ticket)>,
    expected: &[Option<Solution>],
) {
    loop {
        let attempt = match op {
            Op::Query { req, .. } => server.submit(req.clone()),
            Op::Update { graph, edges } => {
                let _ = graphs;
                server.submit_update(NAMES[*graph], edges.clone())
            }
        };
        match attempt {
            Ok(ticket) => {
                pending.push_back((slot, ticket));
                return;
            }
            Err(ServeError::Overloaded { .. }) => settle_front(pending, expected),
            Err(e) => panic!("unexpected shed during backpressured submit: {e}"),
        }
    }
}

fn main() {
    let full = std::env::var_os("DSD_SCALE_FULL").is_some();
    let cfg = config(full);
    let graphs = graphs(&cfg);
    let mode = if full { "full" } else { "smoke" };
    println!(
        "service_scale [{mode}]: {} graphs, {} patterns, {} mixed ops",
        graphs.len(),
        patterns().len(),
        cfg.ops
    );

    // Phase 1: footprint measurement on ungoverned engines over every
    // (graph, Ψ, method) the mixed phase issues, which is also the
    // reference for the warm sweep.
    let engines: Vec<DsdEngine<'static>> =
        graphs.iter().map(|g| DsdEngine::new(g.clone())).collect();
    let warm = warm_queries();
    let reference: Vec<Solution> = warm
        .iter()
        .map(|req| {
            let graph = NAMES
                .iter()
                .position(|name| Some(*name) == req.graph_name())
                .expect("warm sweep names a known graph");
            engines[graph].solve(req)
        })
        .collect();
    let footprint: u64 = engines.iter().map(|e| e.substrate_bytes()).sum();
    assert!(footprint > 0, "warm substrates must occupy bytes");
    // The full footprint holds every exact-solve network; free it before
    // the governed phases build their own.
    drop(engines);

    // Per-entry sizes: a governor entry is one (graph, Ψ) key, holding
    // its store, decomposition and flow networks. Warm one pattern at a
    // time under every method on fresh engines and take substrate_bytes
    // deltas. The worker count is then the largest w <= 8 whose w
    // biggest entries still fit the budget — that bounds the pinned
    // in-flight working set below the budget by construction.
    let mut entry_sizes: Vec<u64> = Vec::new();
    for g in &graphs {
        let engine = DsdEngine::new(g.clone());
        let mut prev = 0;
        for psi in &patterns() {
            for method in METHODS {
                engine.request(psi).method(method).solve();
            }
            let now = engine.substrate_bytes();
            entry_sizes.push(now - prev);
            prev = now;
        }
    }
    entry_sizes.sort_unstable_by(|a, b| b.cmp(a));
    let budget = footprint / 3;
    let mut workers = 0;
    let mut pinned = 0u64;
    // 10% headroom: updates mutate the graphs mid-run, so rebuilt entries
    // can come back slightly larger than measured here.
    for size in &entry_sizes {
        if workers >= 8 || (pinned + size) * 10 >= budget * 9 {
            break;
        }
        pinned += size;
        workers += 1;
    }
    let workers = workers.max(1);
    println!(
        "footprint F = {:.1} KiB over {} entries (largest {:.1} KiB); budget F/3 = {:.1} KiB, {workers} workers",
        footprint as f64 / 1024.0,
        entry_sizes.len(),
        entry_sizes[0] as f64 / 1024.0,
        budget as f64 / 1024.0
    );

    // Phase 2: governed warm sweep — bit-identical to the reference.
    let server = DsdServer::new(ServeConfig {
        workers,
        queue_depth: 32,
        substrate_budget: Some(budget),
        ..ServeConfig::default()
    });
    for (name, g) in NAMES.iter().zip(&graphs) {
        server.register(*name, g.clone());
    }
    let tickets: Vec<Ticket> = warm
        .iter()
        .map(|req| {
            server
                .submit(req.clone())
                .expect("warm sweep fits the queue")
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket
            .wait()
            .expect("no sheds in the warm sweep")
            .solution()
            .expect("warm sweep is queries only");
        let want = &reference[i];
        assert_eq!(got.vertices, want.vertices, "warm {i}: vertices diverged");
        assert_eq!(
            got.density.to_bits(),
            want.density.to_bits(),
            "warm {i}: not bit-identical to the ungoverned reference"
        );
    }
    server.drain();

    // Phase 3: mixed query/update load under the budget, backpressured.
    let mut rng = StdRng::seed_from_u64(0x5CA1E);
    let script = mixed_script(&mut rng, &graphs, cfg.ops);
    let expected = reference_replay(&graphs, &script);
    let mut pending: VecDeque<(Option<usize>, Ticket)> = VecDeque::new();
    let t = Instant::now();
    for (i, op) in script.iter().enumerate() {
        let slot = matches!(op, Op::Query { .. }).then_some(i);
        submit_backpressured(&server, &graphs, op, slot, &mut pending, &expected);
    }
    while !pending.is_empty() {
        settle_front(&mut pending, &expected);
    }
    let elapsed = t.elapsed();
    server.drain();

    let stats = server.stats();
    let gov = stats.governor;
    let throughput = script.len() as f64 / elapsed.as_secs_f64();
    println!(
        "mixed load: {} ops in {:.1} ms -> {:.0} jobs/s ({} queries bit-identical to serial replay)",
        script.len(),
        elapsed.as_secs_f64() * 1e3,
        throughput,
        expected.iter().flatten().count()
    );
    println!(
        "governor: {} hits / {} misses, {} evictions ({} rebuilds), peak {:.1} KiB / budget {:.1} KiB, {} violations",
        gov.hits,
        gov.misses,
        gov.evictions,
        gov.rebuilds,
        gov.peak_bytes as f64 / 1024.0,
        budget as f64 / 1024.0,
        gov.violations
    );

    // Overload sheds are expected — they are exactly what the submit
    // loop retries on — but every job must eventually complete.
    println!(
        "admission: {} overload sheds absorbed by submit-side retries",
        stats.shed_overload
    );
    assert_eq!(
        stats.completed as usize,
        warm.len() + script.len(),
        "every admitted job completes"
    );
    assert_eq!(stats.shed_deadline, 0, "no deadlines configured");
    assert!(
        gov.evictions > 0,
        "a budget of F/3 must force evictions over the full sweep"
    );
    assert_eq!(gov.violations, 0, "the budget must be feasible end to end");
    assert!(
        gov.peak_bytes <= budget,
        "settled residency {} exceeded the budget {}",
        gov.peak_bytes,
        budget
    );
    assert!(
        throughput >= cfg.floor,
        "mixed-load throughput {throughput:.0} jobs/s under the CI floor {:.0}",
        cfg.floor
    );
    println!(
        "throughput {throughput:.0} jobs/s clears the CI floor {:.0}",
        cfg.floor
    );
}
