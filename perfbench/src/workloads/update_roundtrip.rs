//! `update-roundtrip`: writes beside reads. Every operation applies one
//! update batch to a warm serial engine and then asks the next CoreExact
//! question, so the CSR merge, store repair, decomposition re-peel and
//! network rebuild that an update defers are all paid inside the operation.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dsd_core::{DsdEngine, DsdRequest, GraphUpdate, Method, Solution};
use dsd_graph::{Graph, VertexId};
use dsd_motif::Pattern;
use rand::rngs::StdRng;
use rand::Rng;

use super::cold_solve::as_caida;
use super::{median_or_zero, mib, ms, repeated_setup, rng, shuffle, FlowLayer, Outcome, Run};

/// Batch sizes of one cycle of operations: single edges (the overlay fast
/// path) for three quarters, one 4-edge batch (multi-edge replay) and one
/// 32-edge batch (mid-graph batch repair).
const BATCH_SIZES: [usize; 8] = [1, 1, 1, 1, 1, 1, 4, 32];

/// Which Ψ (0 = triangle, 1 = 4-clique) each operation of a cycle asks
/// about, while batches alternate insert, delete; each Ψ follows both kinds
/// of batch. The two Ψ give two latency modes, the 4-clique's about twice
/// as slow and much wider. With an even split the median would sit in the
/// gap between them and swing from run to run, so the triangle takes five of
/// eight operations: the median falls in the narrow triangle mode and the
/// 90th percentile inside the 4-clique mode.
const PSI_CYCLE: [usize; 8] = [0, 1, 0, 0, 1, 0, 0, 1];

/// Every this many operations, and after the last, the answer is compared
/// with a cold engine over the current graph, outside the timed region.
const CHECK_STRIDE: usize = 128;

/// The live edge set, for drawing fresh inserts and existing deletes.
struct EdgePool {
    n: VertexId,
    edges: Vec<(VertexId, VertexId)>,
    index: HashMap<(VertexId, VertexId), usize>,
}

impl EdgePool {
    fn new(g: &Graph) -> Self {
        let edges: Vec<_> = g.edges().collect();
        let index = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        EdgePool {
            n: g.num_vertices() as VertexId,
            edges,
            index,
        }
    }

    /// `size` inserts of absent edges, or `size` deletes of present ones.
    fn batch(&mut self, size: usize, insert: bool, rng: &mut StdRng) -> Vec<GraphUpdate> {
        let mut batch = Vec::with_capacity(size);
        while batch.len() < size {
            if insert {
                let (u, v) = (rng.gen_range(0..self.n), rng.gen_range(0..self.n));
                let key = (u.min(v), u.max(v));
                if u != v && !self.index.contains_key(&key) {
                    self.index.insert(key, self.edges.len());
                    self.edges.push(key);
                    batch.push(GraphUpdate::Insert(u, v));
                }
            } else {
                let i = rng.gen_range(0..self.edges.len());
                let (u, v) = self.edges.swap_remove(i);
                self.index.remove(&(u, v));
                if let Some(&moved) = self.edges.get(i) {
                    self.index.insert(moved, i);
                }
                batch.push(GraphUpdate::Delete(u, v));
            }
        }
        batch
    }
}

struct Setup {
    engine: DsdEngine<'static>,
    pool: EdgePool,
}

fn patterns() -> [Pattern; 2] {
    [Pattern::triangle(), Pattern::clique(4)]
}

fn setup(seed: u64) -> Setup {
    let g = as_caida(seed);
    let pool = EdgePool::new(&g);
    let engine = DsdEngine::new(g);
    for psi in patterns() {
        engine.warm(&psi);
    }
    Setup { engine, pool }
}

#[derive(Default)]
struct Layers {
    apply_ms: Vec<f64>,
    merge_ms: Vec<f64>,
    decompose_ms: Vec<f64>,
    network_mib: Vec<f64>,
    repaired: usize,
    rebuilt: usize,
    rows_tombstoned: usize,
    deferred: usize,
    flow: FlowLayer,
}

pub fn run(run: &mut Run) -> Outcome {
    let (Setup { engine, mut pool }, setup_s) = repeated_setup(|| setup(run.seed));
    let g0 = engine.graph();
    let mut out = Outcome {
        setup_s,
        inputs: format!(
            "closed loop, 1 client; 1 serial engine; n={} m={}; Ψ triangle / 4-clique as \
             {PSI_CYCLE:?} per 8-op cycle, both warm at start; batch sizes {BATCH_SIZES:?} \
             per cycle, inserts and deletes alternating",
            g0.num_vertices(),
            g0.num_edges()
        ),
        ..Outcome::default()
    };
    drop(g0);
    let tracer = &mut run.tracer;
    let requests: Vec<DsdRequest> = patterns()
        .iter()
        .map(|psi| DsdRequest::new(psi).method(Method::CoreExact))
        .collect();
    let before = engine.cache_stats();
    let mut layers = Layers::default();
    let mut rng = rng(run.seed, 3);
    let mut sizes = BATCH_SIZES;
    let mut timed = Duration::ZERO;
    let mut i = 0usize;

    loop {
        shuffle(&mut sizes, &mut rng);
        let mut last: Option<(usize, Solution)> = None;
        for &size in &sizes {
            let batch = pool.batch(size, i.is_multiple_of(2), &mut rng);
            let which = PSI_CYCLE[i % PSI_CYCLE.len()];
            let req = &requests[which];
            let op = tracer.reserve();
            let t0 = Instant::now();
            let applied = engine.apply(&batch);
            let sol = if tracer.enabled() {
                // The first snapshot after `apply` pays any deferred CSR
                // merge; `warm` then re-peels, and `solve` runs the flow.
                let a1 = Instant::now();
                let snapshot = engine.graph();
                let m1 = Instant::now();
                drop(snapshot);
                let decompose_ns = engine.warm(req.psi());
                let w1 = Instant::now();
                let sol = engine.solve(req);
                let s1 = Instant::now();
                tracer.record(0, op, op, "core.engine.apply", t0, a1);
                tracer.record(0, op, op, "graph.delta.merge", a1, m1);
                tracer.record(0, op, op, "core.engine.warm", m1, w1);
                tracer.record(0, op, op, "core.engine.solve", w1, s1);
                layers.apply_ms.push(ms(a1 - t0));
                if applied.csr_deferred {
                    layers.deferred += 1;
                    layers.merge_ms.push(ms(m1 - a1));
                }
                if decompose_ns > 0 {
                    layers.decompose_ms.push(decompose_ns as f64 / 1e6);
                }
                layers.flow.solved(&sol.stats, ms(s1 - w1));
                layers.network_mib.push(mib(engine.network_bytes()));
                layers.repaired += applied.substrates_repaired;
                layers.rebuilt += applied.substrates_rebuilt;
                layers.rows_tombstoned += applied.rows_tombstoned;
                sol
            } else {
                engine.solve(req)
            };
            let t1 = Instant::now();
            tracer.record(op, 0, op, "op", t0, t1);
            timed += t1 - t0;
            out.attempted += 1;
            out.latencies_ms.push(ms(t1 - t0));
            if applied.inserted + applied.deleted != batch.len() {
                out.failed += 1;
                out.errors
                    .push(format!("op {i}: a generated update had no effect"));
            }
            i += 1;
            if i.is_multiple_of(CHECK_STRIDE) {
                check_cold(&engine, req, &sol, i, &mut out);
            }
            last = Some((which, sol));
        }
        if timed.as_secs_f64() >= run.seconds {
            let (which, sol) = last.expect("a cycle has operations");
            if !i.is_multiple_of(CHECK_STRIDE) {
                check_cold(&engine, &requests[which], &sol, i, &mut out);
            }
            break;
        }
    }
    out.elapsed_s = timed.as_secs_f64();

    if tracer.enabled() {
        let ops = out.attempted as f64;
        let l = &mut layers;
        l.flow.cache(before, engine.cache_stats());
        l.flow.report(&mut out);
        out.layer("core.clique_core.ms", median_or_zero(&l.decompose_ms));
        out.layer("core.engine.apply_ms", median_or_zero(&l.apply_ms));
        out.layer("core.engine.repaired", l.repaired as f64 / ops);
        out.layer("core.engine.rebuilt", l.rebuilt as f64 / ops);
        out.layer(
            "core.engine.rows_tombstoned",
            l.rows_tombstoned as f64 / ops,
        );
        out.layer("core.engine.csr_deferred_ratio", l.deferred as f64 / ops);
        out.layer("graph.delta.merge_ms", median_or_zero(&l.merge_ms));
        out.layer("graph.delta.merges", l.deferred as f64 / ops);
        out.layer("core.flownet.mib", median_or_zero(&l.network_mib));
    }
    out
}

/// Solves `req` on a cold engine over the engine's current graph and
/// counts a difference from `got` as a failed operation.
fn check_cold(
    engine: &DsdEngine<'_>,
    req: &DsdRequest,
    got: &Solution,
    i: usize,
    out: &mut Outcome,
) {
    let current: Graph = (*engine.graph()).clone();
    let want = DsdEngine::new(current).solve(req);
    out.check(got, &want, || format!("op {i}, {}", req.psi().name()));
}
