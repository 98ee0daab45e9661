//! `cold-solve`: an analyst's one-shot queries. Every operation builds a
//! fresh engine over an As-Caida-scale graph and asks for one densest
//! subgraph, so enumeration and the (k, Ψ)-core peel do nearly all the work.

use std::time::Instant;

use dsd_core::{density, oracle_for, DsdEngine, DsdRequest, Method, Parallelism, Solution};
use dsd_datasets::chung_lu::chung_lu_with_clique;
use dsd_graph::{Graph, VertexSet};
use dsd_motif::Pattern;

use super::{
    graph_seed, median_or_zero, mib, ms, repeated_setup, rng, shuffle, FlowLayer, Outcome, Run,
};

/// The As-Caida stand-in's statistics (Appendix A of the paper).
pub const AS_CAIDA: (usize, usize, f64, usize) = (26_475, 106_762, 2.7898, 24);

pub fn patterns() -> [Pattern; 6] {
    [
        Pattern::edge(),
        Pattern::triangle(),
        Pattern::clique(4),
        Pattern::clique(5),
        Pattern::diamond(),
        Pattern::two_triangle(),
    ]
}

const METHODS: [Method; 2] = [Method::CoreExact, Method::PeelApp];

pub fn as_caida(seed: u64) -> Graph {
    let (n, m, alpha, overlay) = AS_CAIDA;
    chung_lu_with_clique(n, m, alpha, overlay, graph_seed(seed, 0))
}

struct Setup {
    g: Graph,
    requests: Vec<DsdRequest>,
    references: Vec<Solution>,
    errors: Vec<String>,
}

/// Generates the graph and solves every request once on a serial engine,
/// checking each reference against the density oracle and PeelApp's
/// `1/|VΨ|` guarantee.
fn setup(seed: u64) -> Setup {
    let g = as_caida(seed);
    let mut requests = Vec::new();
    let mut references: Vec<Solution> = Vec::new();
    let mut errors = Vec::new();
    for psi in patterns() {
        for method in METHODS {
            let req = DsdRequest::new(&psi).method(method);
            let sol = DsdEngine::over(&g).solve(&req);
            let alive = VertexSet::from_members(g.num_vertices(), &sol.vertices);
            let recomputed = density(oracle_for(&psi).as_ref(), &g, &alive);
            if recomputed.to_bits() != sol.density.to_bits() {
                errors.push(format!(
                    "{} {method:?}: reported density {} but the oracle counts {recomputed}",
                    psi.name(),
                    sol.density
                ));
            }
            requests.push(req);
            references.push(sol);
        }
        let [exact, peel] = &references[references.len() - 2..] else {
            unreachable!("two methods per pattern")
        };
        if peel.density < exact.density / psi.vertex_count() as f64 {
            errors.push(format!(
                "{}: PeelApp density {} is below CoreExact {} / {}",
                psi.name(),
                peel.density,
                exact.density,
                psi.vertex_count()
            ));
        }
    }
    Setup {
        g,
        requests,
        references,
        errors,
    }
}

/// Per-call samples of the traced run.
#[derive(Default)]
struct Layers {
    store_build_ms: Vec<f64>,
    store_enumerate_ms: Vec<f64>,
    store_csr_ms: Vec<f64>,
    store_assemble_ms: Vec<f64>,
    store_rows: Vec<f64>,
    store_mib: Vec<f64>,
    decompose_ms: Vec<f64>,
    network_mib: Vec<f64>,
    flow: FlowLayer,
}

pub fn run(run: &mut Run) -> Outcome {
    let parallelism = Parallelism::available();
    let (setup, setup_s) = repeated_setup(|| setup(run.seed));
    let Setup {
        g,
        requests,
        references,
        errors,
    } = setup;
    let mut out = Outcome {
        setup_s,
        errors,
        inputs: format!(
            "closed loop, 1 client; engine threads {}; n={} m={}; Ψ {{edge, triangle, \
             4-clique, 5-clique, diamond, 2-triangle}} × {{CoreExact, PeelApp}}",
            parallelism.threads(),
            g.num_vertices(),
            g.num_edges()
        ),
        ..Outcome::default()
    };
    let tracer = &mut run.tracer;
    let mut layers = Layers::default();
    let mut order: Vec<usize> = (0..requests.len()).collect();
    let mut rng = rng(run.seed, 1);

    // Whole cycles of every request, in a seeded order, until time is up:
    // each run measures the same mix.
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < run.seconds {
        shuffle(&mut order, &mut rng);
        for &i in &order {
            let req = &requests[i];
            let op = tracer.reserve();
            let t0 = Instant::now();
            let engine = DsdEngine::over(&g).with_parallelism(parallelism);
            let sol = if tracer.enabled() {
                // Split the request at the engine's public seams: `warm`
                // enumerates and peels, the `solve` after it runs the flow.
                let w0 = Instant::now();
                let decompose_ns = engine.warm(req.psi());
                let w1 = Instant::now();
                let sol = engine.solve(req);
                let s1 = Instant::now();
                tracer.record(0, op, op, "core.engine.warm", w0, w1);
                tracer.record(0, op, op, "core.engine.solve", w1, s1);
                layers.decompose_ms.push(decompose_ns as f64 / 1e6);
                layers.flow.solved(&sol.stats, ms(s1 - w1));
                layers.flow.cache(Default::default(), engine.cache_stats());
                if !sol.stats.network_nodes.is_empty() {
                    layers.network_mib.push(mib(engine.network_bytes()));
                }
                if let Some(store) = sol.stats.store.filter(|s| s.materialized) {
                    let b = store.build;
                    layers.store_build_ms.push(b.build_nanos as f64 / 1e6);
                    layers
                        .store_enumerate_ms
                        .push(b.enumerate_nanos as f64 / 1e6);
                    layers.store_csr_ms.push(b.csr_build_nanos as f64 / 1e6);
                    layers.store_assemble_ms.push(b.assemble_nanos as f64 / 1e6);
                    layers.store_rows.push(b.rows as f64);
                    layers.store_mib.push(mib(b.bytes as u64));
                }
                sol
            } else {
                engine.solve(req)
            };
            drop(engine);
            let t1 = Instant::now();
            tracer.record(op, 0, op, "op", t0, t1);
            out.attempted += 1;
            out.latencies_ms.push(ms(t1 - t0));
            out.check(&sol, &references[i], || {
                format!("{} {:?}", req.psi().name(), req.method_choice())
            });
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();

    if tracer.enabled() {
        let l = &layers;
        out.layer("motif.store.build_ms", median_or_zero(&l.store_build_ms));
        out.layer(
            "motif.store.enumerate_ms",
            median_or_zero(&l.store_enumerate_ms),
        );
        out.layer("motif.store.csr_ms", median_or_zero(&l.store_csr_ms));
        out.layer(
            "motif.store.assemble_ms",
            median_or_zero(&l.store_assemble_ms),
        );
        out.layer("motif.store.rows", median_or_zero(&l.store_rows));
        out.layer("motif.store.mib", median_or_zero(&l.store_mib));
        out.layer("core.clique_core.ms", median_or_zero(&l.decompose_ms));
        out.layer("core.flownet.mib", median_or_zero(&l.network_mib));
        l.flow.report(&mut out);
    }
    out
}
