//! `warm-serve`: a `DsdServer` answering a steady mix over four warm graphs.
//! One client keeps a fixed number of tickets in flight, so the α-search,
//! the parametric resolve, the network cache and the pipeline do the work
//! while enumeration and decomposition stay cached.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use dsd_core::{
    DsdEngine, DsdRequest, DsdServer, Method, Objective, ServeConfig, ServeError, ServeOutcome,
    Solution, Ticket,
};
use dsd_datasets::chung_lu::chung_lu_with_clique;
use dsd_graph::VertexId;
use dsd_motif::Pattern;
use perfbench::stats::percentile;
use rand::Rng;

use super::{
    graph_seed, median_or_zero, mib, ms, repeated_setup, rng, shuffle, FlowLayer, Outcome, Run,
};

const GRAPHS: usize = 4;
/// Chung–Lu parameters of each served graph: n, m, α, planted clique.
const GRAPH: (usize, usize, f64, usize) = (8_000, 32_000, 2.79, 16);
const WORKERS: usize = 2;
const IN_FLIGHT: usize = 4;
const QUEUE_DEPTH: usize = 64;
/// Query anchors per graph: vertex pairs for `WithQuery`.
const ANCHORS: usize = 8;
/// Anchors are drawn from the `1/ANCHOR_SHARE` highest-degree vertices.
const ANCHOR_SHARE: usize = 50;
const AT_LEAST: usize = 32;
const TOP_K: usize = 2;

fn patterns() -> [Pattern; 3] {
    [Pattern::edge(), Pattern::triangle(), Pattern::clique(4)]
}

/// The distinct requests of one graph: Densest, AtLeastK and TopK for each
/// Ψ, then one `WithQuery` per anchor pair.
fn pool(name: &str, anchors: &[[VertexId; 2]]) -> Vec<DsdRequest> {
    let mut reqs = Vec::new();
    for objective in [
        Objective::Densest,
        Objective::AtLeastK(AT_LEAST),
        Objective::TopK(TOP_K),
    ] {
        for psi in patterns() {
            reqs.push(request(name, &psi, objective.clone()));
        }
    }
    for pair in anchors {
        reqs.push(request(
            name,
            &Pattern::edge(),
            Objective::WithQuery(pair.to_vec()),
        ));
    }
    reqs
}

/// Pool index of a `WithQuery` request for anchor `a`.
fn query_index(a: usize) -> usize {
    9 + a
}

/// Methods are pinned so no answer depends on what the caches hold.
fn request(name: &str, psi: &Pattern, objective: Objective) -> DsdRequest {
    DsdRequest::new(psi)
        .on(name)
        .objective(objective)
        .method(Method::CoreExact)
}

/// One cycle of the mix, as (graph, pool index): per graph four Densest and
/// four AtLeastK per Ψ, one TopK per Ψ and three WithQuery, the anchors
/// rotating from cycle to cycle. Each cycle is the same mix, reordered.
fn cycle(c: usize) -> Vec<(usize, usize)> {
    let mut mix = Vec::new();
    for graph in 0..GRAPHS {
        for psi in 0..3 {
            mix.extend([(graph, psi); 4]);
            mix.extend([(graph, 3 + psi); 4]);
            mix.push((graph, 6 + psi));
        }
        for j in 0..3 {
            mix.push((graph, query_index((3 * c + j) % ANCHORS)));
        }
    }
    mix
}

struct Setup {
    server: DsdServer,
    engines: Vec<Arc<DsdEngine<'static>>>,
    requests: Vec<Vec<DsdRequest>>,
    references: Vec<Vec<Solution>>,
    sizes: String,
}

/// Starts the server, registers and warms the graphs, and solves every
/// distinct request synchronously on its engine: that is both the
/// reference answer and the warm-up of the engine's network cache.
fn setup(seed: u64) -> Setup {
    let server = DsdServer::new(ServeConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        ..ServeConfig::default()
    });
    let mut anchor_rng = rng(seed, 4);
    let (n, m, alpha, overlay) = GRAPH;
    let mut engines = Vec::new();
    let mut requests = Vec::new();
    let mut sizes = Vec::new();
    for gi in 0..GRAPHS {
        let g = chung_lu_with_clique(n, m, alpha, overlay, graph_seed(seed, 1 + gi as u64));
        sizes.push(format!("n={} m={}", g.num_vertices(), g.num_edges()));
        let mut hubs: Vec<VertexId> = g.vertices().collect();
        hubs.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
        hubs.truncate(n / ANCHOR_SHARE);
        let anchors: Vec<[VertexId; 2]> = (0..ANCHORS)
            .map(|_| {
                let pick = |r: &mut rand::rngs::StdRng| hubs[r.gen_range(0..hubs.len())];
                [pick(&mut anchor_rng), pick(&mut anchor_rng)]
            })
            .collect();
        let name = format!("g{gi}");
        let engine = server.register(name.clone(), g);
        for psi in patterns() {
            engine.warm(&psi);
        }
        requests.push(pool(&name, &anchors));
        engines.push(engine);
    }
    let references = thread::scope(|s| {
        let workers: Vec<_> = engines
            .iter()
            .zip(&requests)
            .map(|(engine, reqs)| s.spawn(move || reqs.iter().map(|r| engine.solve(r)).collect()))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("reference solve panicked"))
            .collect()
    });
    Setup {
        server,
        engines,
        requests,
        references,
        sizes: sizes.join(", "),
    }
}

/// What a waiter thread reports back for one ticket.
type Done = (usize, Instant, Result<ServeOutcome, ServeError>);

pub fn run(run: &mut Run) -> Outcome {
    let (setup, setup_s) = repeated_setup(|| setup(run.seed));
    let Setup {
        server,
        engines,
        requests,
        references,
        sizes,
    } = setup;
    let mut out = Outcome {
        setup_s,
        inputs: format!(
            "closed loop, 1 client, {IN_FLIGHT} tickets in flight; {WORKERS} server workers; \
             {GRAPHS} graphs ({sizes}); Ψ {{edge, triangle, 4-clique}}; per cycle of {} \
             requests: 40% Densest, 40% AtLeastK({AT_LEAST}), 10% TopK({TOP_K}), 10% \
             WithQuery over {ANCHORS} anchor pairs per graph",
            cycle(0).len()
        ),
        ..Outcome::default()
    };
    let tracer = &mut run.tracer;
    let before: Vec<_> = engines.iter().map(|e| e.cache_stats()).collect();
    let serve_before = server.stats();
    let mut queue_wait_ms = Vec::new();
    let mut service_ms = Vec::new();
    let mut flow = FlowLayer::default();
    let mut rng = rng(run.seed, 5);

    // Waiter threads block on tickets and stamp their completion, so the
    // client sees each answer when it lands, not when an older one does.
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let start = Instant::now();
    let mut last_done = start;
    thread::scope(|s| {
        let slots: Vec<mpsc::Sender<Ticket>> = (0..IN_FLIGHT)
            .map(|slot| {
                let (tx, rx) = mpsc::channel::<Ticket>();
                let done_tx = done_tx.clone();
                s.spawn(move || {
                    for ticket in rx {
                        let result = ticket.wait();
                        if done_tx.send((slot, Instant::now(), result)).is_err() {
                            break;
                        }
                    }
                });
                tx
            })
            .collect();
        drop(done_tx);

        // (graph, pool index, submit time, op id) per busy slot.
        let mut busy: Vec<Option<(usize, usize, Instant, u64)>> = vec![None; IN_FLIGHT];
        let mut c = 0usize;
        let mut pending: Vec<(usize, usize)> = Vec::new();
        loop {
            // Refill every idle slot; start a new cycle only while time
            // remains, so each run serves whole cycles.
            for slot in 0..IN_FLIGHT {
                if busy[slot].is_some() {
                    continue;
                }
                if pending.is_empty() && start.elapsed().as_secs_f64() < run.seconds {
                    pending = cycle(c);
                    shuffle(&mut pending, &mut rng);
                    c += 1;
                }
                let Some((gi, ri)) = pending.pop() else {
                    break;
                };
                out.attempted += 1;
                let op = tracer.reserve();
                let t0 = Instant::now();
                match server.submit(requests[gi][ri].clone()) {
                    Ok(ticket) => {
                        slots[slot].send(ticket).expect("waiter thread alive");
                        busy[slot] = Some((gi, ri, t0, op));
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.errors.push(format!("submit refused: {e}"));
                    }
                }
            }
            if busy.iter().all(Option::is_none) {
                break;
            }
            let (slot, t1, result) = done_rx.recv().expect("waiter threads alive");
            let (gi, ri, t0, op) = busy[slot].take().expect("slot was busy");
            last_done = t1;
            out.latencies_ms.push(ms(t1 - t0));
            match result.map(ServeOutcome::solution) {
                Ok(Some(sol)) => {
                    let service = sol.stats.total_nanos as f64 / 1e6;
                    let wait = (ms(t1 - t0) - service).max(0.0);
                    if tracer.enabled() {
                        let served =
                            t1 - std::time::Duration::from_nanos(sol.stats.total_nanos as u64);
                        let served = served.max(t0);
                        tracer.record(0, op, op, "serve.pipeline.queue_wait", t0, served);
                        tracer.record(0, op, op, "serve.pipeline.service", served, t1);
                        tracer.record(op, 0, op, "op", t0, t1);
                        queue_wait_ms.push(wait);
                        service_ms.push(service);
                        flow.solved(&sol.stats, service);
                    }
                    out.check(&sol, &references[gi][ri], || {
                        format!(
                            "graph g{gi}, request {:?}",
                            requests[gi][ri].objective_ref()
                        )
                    });
                }
                Ok(None) => {
                    out.failed += 1;
                    out.errors
                        .push("a query ticket returned an update outcome".into());
                }
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(format!("request failed: {e}"));
                }
            }
        }
        drop(slots);
    });
    out.elapsed_s = (last_done - start).as_secs_f64();

    if tracer.enabled() {
        let ops = out.attempted as f64;
        for (engine, before) in engines.iter().zip(before) {
            flow.cache(before, engine.cache_stats());
        }
        flow.report(&mut out);
        let net_bytes: u64 = engines.iter().map(|e| e.network_bytes()).sum();
        out.layer("core.flownet.mib", mib(net_bytes));
        let serve = server.stats();
        if !queue_wait_ms.is_empty() {
            out.layer(
                "serve.pipeline.queue_wait_ms.p50",
                percentile(&queue_wait_ms, 50.0),
            );
            out.layer(
                "serve.pipeline.queue_wait_ms.p90",
                percentile(&queue_wait_ms, 90.0),
            );
        }
        out.layer("serve.pipeline.service_ms.p50", median_or_zero(&service_ms));
        let shed = (serve.shed_overload - serve_before.shed_overload)
            + (serve.shed_deadline - serve_before.shed_deadline);
        out.layer("serve.pipeline.shed", shed as f64);
        let gov = (serve.governor, serve_before.governor);
        out.layer(
            "serve.governor.hits",
            (gov.0.hits - gov.1.hits) as f64 / ops,
        );
        out.layer(
            "serve.governor.misses",
            (gov.0.misses - gov.1.misses) as f64 / ops,
        );
        out.layer("serve.governor.resident_mib", mib(gov.0.resident_bytes));
    }
    server.shutdown();
    out
}
