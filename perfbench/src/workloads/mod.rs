//! The three workloads and what they share: the per-layer metric catalogue,
//! repeated set-up, seeded shuffles and answer comparison.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dsd_core::{EngineCacheStats, Solution, SolveStats};
use perfbench::stats;
use perfbench::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod cold_solve;
pub mod update_roundtrip;
pub mod warm_serve;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["cold-solve", "warm-serve", "update-roundtrip"];

/// Each workload builds its inputs at least `SETUP_REPS.0` times and until
/// `SETUP_MIN_S` have passed, at most `SETUP_REPS.1` times; `setup_s` is the
/// median, so a cheap set-up gets enough repetitions to be steady.
const SETUP_REPS: (usize, usize) = (3, 25);
const SETUP_MIN_S: f64 = 1.0;

/// Every per-layer metric with its unit. A traced run reports all of them;
/// a layer that does no work on a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("motif.store.build_ms", "ms"),
    ("motif.store.enumerate_ms", "ms"),
    ("motif.store.csr_ms", "ms"),
    ("motif.store.assemble_ms", "ms"),
    ("motif.store.rows", "count"),
    ("motif.store.mib", "MiB"),
    ("core.oracle.builds", "1/op"),
    ("core.oracle.hits", "1/op"),
    ("core.clique_core.ms", "ms"),
    ("core.clique_core.builds", "1/op"),
    ("core.engine.apply_ms", "ms"),
    ("core.engine.repaired", "1/op"),
    ("core.engine.rebuilt", "1/op"),
    ("core.engine.rows_tombstoned", "1/op"),
    ("core.engine.csr_deferred_ratio", "ratio"),
    ("graph.delta.merge_ms", "ms"),
    ("graph.delta.merges", "1/op"),
    ("core.flownet.hits", "1/op"),
    ("core.flownet.misses", "1/op"),
    ("core.flownet.hit_ratio", "ratio"),
    ("core.flownet.nodes", "count"),
    ("core.flownet.mib", "MiB"),
    ("flow.solve_ms", "ms"),
    ("flow.probes", "1/op"),
    ("flow.resolve_ratio", "ratio"),
    ("flow.augment_work", "1/op"),
    ("serve.pipeline.queue_wait_ms.p50", "ms"),
    ("serve.pipeline.queue_wait_ms.p90", "ms"),
    ("serve.pipeline.service_ms.p50", "ms"),
    ("serve.pipeline.shed", "count"),
    ("serve.governor.hits", "1/op"),
    ("serve.governor.misses", "1/op"),
    ("serve.governor.resident_mib", "MiB"),
];

/// What `main` hands a workload.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Latency of every completed operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Length of the timed phase, in seconds.
    pub elapsed_s: f64,
    /// Per-layer metrics by catalogue name; filled only by a traced run.
    pub layers: BTreeMap<&'static str, f64>,
    /// Checks that failed outside any one operation (set-up references).
    pub errors: Vec<String>,
    /// Input sizes and settings, echoed to stderr.
    pub inputs: String,
}

impl Outcome {
    /// Records a per-layer metric.
    ///
    /// # Panics
    /// When `name` is not in [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a catalogued per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// Compares a served answer with its reference, counting a mismatch as
    /// a failed operation.
    pub fn check(&mut self, got: &Solution, want: &Solution, what: impl FnOnce() -> String) {
        if !same_answer(got, want) {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors
                    .push(format!("answer differs from reference: {}", what()));
            }
        }
    }
}

/// Flow-layer and engine-cache counters of a traced run, which every
/// workload reads from the same `SolveStats` and `EngineCacheStats` fields.
#[derive(Default)]
pub struct FlowLayer {
    solve_ms: Vec<f64>,
    network_nodes: Vec<f64>,
    probes: usize,
    resolves: usize,
    augment_work: u64,
    cache: EngineCacheStats,
}

impl FlowLayer {
    /// Records one solve that took `solve_ms` of flow work.
    pub fn solved(&mut self, stats: &SolveStats, solve_ms: f64) {
        self.solve_ms.push(solve_ms);
        if let Some(&nodes) = stats.network_nodes.iter().max() {
            self.network_nodes.push(nodes as f64);
        }
        self.probes += stats.flow_iterations;
        self.resolves += stats.flow_resolve_hits;
        self.augment_work += stats.flow_augment_work;
    }

    /// Adds what an engine's cache counters gained from `before` to `after`.
    pub fn cache(&mut self, before: EngineCacheStats, after: EngineCacheStats) {
        let c = &mut self.cache;
        c.oracle_builds += after.oracle_builds - before.oracle_builds;
        c.oracle_hits += after.oracle_hits - before.oracle_hits;
        c.decomposition_builds += after.decomposition_builds - before.decomposition_builds;
        c.network_hits += after.network_hits - before.network_hits;
        c.network_misses += after.network_misses - before.network_misses;
    }

    /// Reports the oracle, decomposition-count, flow-network and flow
    /// metrics, counts per attempted operation.
    pub fn report(&self, out: &mut Outcome) {
        let ops = out.attempted as f64;
        let c = &self.cache;
        let (hits, misses) = (c.network_hits as f64, c.network_misses as f64);
        out.layer("core.oracle.builds", c.oracle_builds as f64 / ops);
        out.layer("core.oracle.hits", c.oracle_hits as f64 / ops);
        out.layer(
            "core.clique_core.builds",
            c.decomposition_builds as f64 / ops,
        );
        out.layer("core.flownet.hits", hits / ops);
        out.layer("core.flownet.misses", misses / ops);
        out.layer("core.flownet.hit_ratio", ratio(hits, hits + misses));
        out.layer("core.flownet.nodes", median_or_zero(&self.network_nodes));
        out.layer("flow.solve_ms", median_or_zero(&self.solve_ms));
        out.layer("flow.probes", self.probes as f64 / ops);
        out.layer(
            "flow.resolve_ratio",
            ratio(self.resolves as f64, self.probes as f64),
        );
        out.layer("flow.augment_work", self.augment_work as f64 / ops);
    }
}

/// Runs `setup` as [`SETUP_REPS`] and [`SETUP_MIN_S`] ask, dropping each
/// result before building the next, and returns the last one with every
/// repetition's wall time.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let (min_reps, max_reps) = SETUP_REPS;
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < min_reps
        || (times.len() < max_reps && times.iter().sum::<f64>() < SETUP_MIN_S)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Whether two solutions report the same subgraphs, bit for bit.
pub fn same_answer(a: &Solution, b: &Solution) -> bool {
    a.outcome == b.outcome
        && a.vertices == b.vertices
        && a.density.to_bits() == b.density.to_bits()
        && a.subgraphs.len() == b.subgraphs.len()
        && a.subgraphs
            .iter()
            .zip(&b.subgraphs)
            .all(|(x, y)| x.vertices == y.vertices && x.density.to_bits() == y.density.to_bits())
}

/// An independent stream for one purpose of one workload seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// Seed for a generated graph, distinct per workload seed and graph index.
pub fn graph_seed(seed: u64, index: u64) -> u64 {
    rng(seed, 0x6EA9_0000 + index).next_u64()
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Median of `xs`, or 0 when the layer never ran.
pub fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        stats::median(xs)
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
