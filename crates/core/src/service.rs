//! `DsdService`: a thread-safe, multi-graph catalog with batched request
//! execution — the synchronous substrate of the serving stack.
//!
//! Historically this *was* the serving layer: a synchronous catalog whose
//! `solve_batch` ran one batch to completion on scoped workers, with
//! grow-only per-engine substrate caches. That shape survives here as
//! the execution core, but production serving now goes through
//! [`crate::serve`]: [`crate::serve::DsdServer`] layers per-graph
//! admission queues, worker pooling, deadlines, and a global substrate
//! byte budget (the [`crate::serve::SubstrateGovernor`]) on top of this
//! catalog. Use `DsdService` directly for offline batch workloads where
//! "run everything, then return" is the right contract; use the serve
//! pipeline when traffic is continuous and memory must stay bounded.
//!
//! One process, many datasets, many clients: the service keeps a catalog
//! of named graphs, each behind its own [`DsdEngine`] (so each dataset's
//! substrates warm independently), and executes request batches across a
//! pool of scoped worker threads. The throughput levers, in order:
//!
//! 1. **Substrate reuse** — engines live as long as their catalog entry,
//!    so every request after the first per (graph, Ψ) is served warm;
//! 2. **Batch deduplication** — [`DsdService::solve_batch`] groups
//!    requests by (graph, Ψ) and interleaves the groups across workers,
//!    so a mixed batch pays one decomposition build per distinct group
//!    (the engine's build-once locking makes racing warmers safe);
//! 3. **Parallel execution** — requests run on `Parallelism::threads()`
//!    scoped workers pulling from a shared queue.
//!
//! Registered graphs are **live**: [`DsdService::update`] applies edge
//! insert/delete batches to a named graph in place (incremental k-core
//! repair + conservative Ψ-substrate invalidation, see
//! [`DsdEngine::apply`]), so update and query traffic interleave without
//! evicting and re-registering.
//!
//! ```
//! use dsd_core::service::DsdService;
//! use dsd_core::{DsdRequest, Objective, Parallelism};
//! use dsd_graph::Graph;
//! use dsd_motif::Pattern;
//!
//! let service = DsdService::with_parallelism(Parallelism::new(4));
//! let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
//! service.register("toy", g);
//!
//! let psi = Pattern::triangle();
//! let batch = vec![
//!     DsdRequest::new(&psi).on("toy"),
//!     DsdRequest::new(&psi).on("toy").objective(Objective::TopK(2)),
//! ];
//! let outcome = service.solve_batch(batch);
//! assert_eq!(outcome.solutions.len(), 2);
//! assert_eq!(outcome.stats.groups, 1, "same (graph, Ψ) → one group");
//! let cds = outcome.solutions[0].as_ref().unwrap();
//! assert_eq!(cds.vertices, vec![0, 1, 2, 3]);
//! ```
//!
//! **Determinism note:** answers are bit-identical to serial execution for
//! every pinned method. [`crate::Method::Auto`] resolves against the cache
//! state it happens to observe, which under concurrency depends on which
//! request warmed the substrate first — pin a method per request when
//! bit-for-bit reproducibility across *runs* matters.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use dsd_graph::{Graph, GraphUpdate};

use crate::engine::{pattern_key, ApplyStats, DsdEngine, DsdRequest, PatternKey, Solution};
use crate::parallelism::Parallelism;
use crate::serve::SubstrateGovernor;

/// Why the service could not serve a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The request names a graph the catalog does not hold.
    UnknownGraph(String),
    /// The request was never routed ([`DsdRequest::on`] was not called).
    Unrouted,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownGraph(name) => {
                write!(f, "no graph named {name:?} in the catalog")
            }
            ServiceError::Unrouted => {
                write!(f, "request names no graph (build it with .on(name))")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Batch-level instrumentation returned by [`DsdService::solve_batch`].
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// End-to-end wall time of the batch.
    pub wall_nanos: u128,
    /// Number of requests in the batch (including failed routings).
    pub requests: usize,
    /// Distinct (graph, Ψ) groups among the routable requests.
    pub groups: usize,
    /// (k, Ψ)-core decomposition builds paid by this batch, summed over
    /// the engines it touched. Equals `groups` when every group issued at
    /// least one decomposition-backed request against a cold engine; lower
    /// when engines were already warm or a group was all query-variant
    /// requests (those use the classical k-core order instead).
    pub substrate_builds: usize,
    /// Decomposition cache hits during the batch (the dedup win).
    pub substrate_hits: usize,
    /// Min-cut probes run by the batch's α-searches (summed over the
    /// successfully solved requests).
    pub flow_probes: usize,
    /// Of those, probes served warm by parametric resolve (flow-state
    /// reuse) instead of a from-scratch max-flow.
    pub flow_resolve_hits: usize,
    /// Instance-store columns materialized by this batch's requests
    /// (bytes, summed over solutions that paid a cold oracle build).
    pub store_bytes_built: u64,
    /// Instance-store enumeration time paid by this batch (nanoseconds,
    /// same summation rule as [`BatchStats::store_bytes_built`]).
    pub store_build_nanos: u128,
    /// Flow-network cache hits during the batch: solves whose
    /// [`DensityNetwork`](crate::flownet::DensityNetwork) was taken warm
    /// from an engine's epoch-keyed network cache instead of being
    /// rebuilt from the instance store (summed over touched engines).
    pub network_hits: usize,
    /// Flow-network cache misses during the batch (cold network builds).
    pub network_misses: usize,
    /// Resident substrate-cache bytes across the engines this batch
    /// touched, measured after the batch (stores + decompositions).
    pub substrate_bytes: u64,
    /// Of [`BatchStats::substrate_bytes`], the portion held by cached
    /// flow networks (already included in the total).
    pub network_bytes: u64,
    /// Per-worker busy time (solving requests, not queue waits).
    pub worker_busy_nanos: Vec<u128>,
}

impl BatchStats {
    /// Mean fraction of the batch wall time each worker spent solving.
    pub fn utilization(&self) -> f64 {
        if self.wall_nanos == 0 || self.worker_busy_nanos.is_empty() {
            return 0.0;
        }
        let busy: u128 = self.worker_busy_nanos.iter().sum();
        busy as f64 / (self.wall_nanos as f64 * self.worker_busy_nanos.len() as f64)
    }
}

/// Result of a batch: per-request solutions (in request order) plus
/// batch-level stats.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// One slot per submitted request, order-preserving.
    pub solutions: Vec<Result<Solution, ServiceError>>,
    /// Batch-level instrumentation.
    pub stats: BatchStats,
}

/// A thread-safe catalog of named graphs, each served by its own
/// cache-reusing [`DsdEngine`], plus a batched executor over them.
///
/// All methods take `&self`; the service is `Send + Sync` and is meant to
/// sit in an `Arc` at the top of a server.
pub struct DsdService {
    catalog: RwLock<HashMap<String, Arc<DsdEngine<'static>>>>,
    parallelism: Parallelism,
    substrate_budget: Option<u64>,
    governor: Option<Arc<SubstrateGovernor>>,
}

impl Default for DsdService {
    fn default() -> Self {
        Self::with_parallelism(Parallelism::serial())
    }
}

impl DsdService {
    /// An empty serving catalog executing batches serially.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty serving catalog with the given worker configuration for
    /// batch execution. Registered engines keep *serial* substrate passes:
    /// the batch workers are the parallelism, and nesting a
    /// `ParallelCliqueOracle` inside each worker would oversubscribe the
    /// machine (workers × oracle threads). Configure an engine's own
    /// parallelism via [`DsdEngine::with_parallelism`] when it serves
    /// single requests outside a batch.
    pub fn with_parallelism(parallelism: Parallelism) -> Self {
        DsdService {
            catalog: RwLock::new(HashMap::new()),
            parallelism,
            substrate_budget: Some(crate::oracle::DEFAULT_STORE_BUDGET),
            governor: None,
        }
    }

    /// Puts the catalog under a [`SubstrateGovernor`]: every engine
    /// registered *after* this call is attached, so its substrate bytes
    /// are ledgered against the governor's global budget and its entries
    /// become eviction candidates. [`Self::evict`] and engine drop report
    /// released bytes back through the same ledger.
    pub fn with_governor(mut self, governor: Arc<SubstrateGovernor>) -> Self {
        self.governor = Some(governor);
        self
    }

    /// The service's worker-count configuration.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Sets the per-engine instance-store byte budget applied to graphs
    /// registered *after* this call (`None` = unlimited, `Some(0)` =
    /// never materialize; see [`DsdEngine::with_substrate_budget`]).
    pub fn with_substrate_budget(mut self, budget: Option<u64>) -> Self {
        self.substrate_budget = budget;
        self
    }

    /// Resident substrate-cache bytes summed over every registered engine.
    pub fn substrate_bytes(&self) -> u64 {
        let catalog = self.catalog.read().unwrap();
        catalog.values().map(|e| e.substrate_bytes()).sum()
    }

    /// Registers (or replaces) a graph under `name` and returns its
    /// engine. Replacing drops the old engine's substrates once the last
    /// in-flight request holding its `Arc` finishes — requests already
    /// routed keep their consistent view.
    pub fn register(&self, name: impl Into<String>, graph: Graph) -> Arc<DsdEngine<'static>> {
        let engine = Arc::new(DsdEngine::new(graph).with_substrate_budget(self.substrate_budget));
        if let Some(governor) = &self.governor {
            governor.attach(&engine);
        }
        let replaced = self
            .catalog
            .write()
            .unwrap()
            .insert(name.into(), Arc::clone(&engine));
        // Dropped outside the catalog lock: a replaced engine's Drop
        // reports its bytes to the governor, which may call back into
        // engine locks.
        drop(replaced);
        engine
    }

    /// Removes `name` from the catalog; returns whether it was present.
    /// In-flight requests on the evicted engine run to completion; under
    /// a governor, the engine's drop then reports its released bytes so
    /// the global ledger never drifts from reality.
    pub fn evict(&self, name: &str) -> bool {
        let removed = self.catalog.write().unwrap().remove(name);
        removed.is_some()
    }

    /// The engine serving `name`, if registered.
    pub fn engine(&self, name: &str) -> Option<Arc<DsdEngine<'static>>> {
        self.catalog.read().unwrap().get(name).cloned()
    }

    /// Sorted names of all registered graphs.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.catalog.read().unwrap().keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.catalog.read().unwrap().len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.catalog.read().unwrap().is_empty()
    }

    /// Serves one routed request (built with [`DsdRequest::on`]).
    pub fn solve(&self, req: &DsdRequest) -> Result<Solution, ServiceError> {
        Ok(self.route(req)?.solve(req))
    }

    /// Applies a batch of edge updates to the named graph **in place** —
    /// no re-registration, no substrate cold start beyond what the batch
    /// invalidates (see [`DsdEngine::apply`]). Requests already in flight
    /// against the graph finish on their pre-update snapshot; later
    /// requests see the new epoch.
    pub fn update(&self, name: &str, updates: &[GraphUpdate]) -> Result<ApplyStats, ServiceError> {
        let engine = self
            .engine(name)
            .ok_or_else(|| ServiceError::UnknownGraph(name.to_string()))?;
        Ok(engine.apply(updates))
    }

    fn route(&self, req: &DsdRequest) -> Result<Arc<DsdEngine<'static>>, ServiceError> {
        let name = req.graph_name().ok_or(ServiceError::Unrouted)?;
        self.engine(name)
            .ok_or_else(|| ServiceError::UnknownGraph(name.to_string()))
    }

    /// Executes a batch of routed requests across the service's worker
    /// pool and returns per-request solutions in request order.
    ///
    /// Requests are grouped by (graph, canonical Ψ) and the groups are
    /// interleaved round-robin onto the work queue, so workers start on
    /// distinct groups and same-group stragglers land as cache hits — a
    /// mixed batch pays each distinct substrate exactly once (see
    /// [`BatchStats`]). Builds on *different* engines proceed
    /// concurrently; builds of different Ψ on the *same* engine serialize
    /// behind that engine's build-once write lock, so per-graph cold-start
    /// wall time is the sum of that graph's distinct substrate builds.
    pub fn solve_batch(&self, requests: Vec<DsdRequest>) -> BatchOutcome {
        // Empty batch: nothing to route, group, or solve — return zeroed
        // stats without spawning workers.
        if requests.is_empty() {
            return BatchOutcome {
                solutions: Vec::new(),
                stats: BatchStats::default(),
            };
        }
        let t0 = Instant::now();
        let n = requests.len();

        // Route every request up front; failures keep their slot.
        let mut solutions: Vec<Option<Result<Solution, ServiceError>>> = Vec::with_capacity(n);
        let mut runnable: Vec<(usize, Arc<DsdEngine<'static>>, DsdRequest)> = Vec::new();
        for (i, req) in requests.into_iter().enumerate() {
            match self.route(&req) {
                Ok(engine) => {
                    solutions.push(None);
                    runnable.push((i, engine, req));
                }
                Err(e) => solutions.push(Some(Err(e))),
            }
        }

        // Group by (graph, canonical Ψ); remember each touched engine once
        // for before/after cache accounting.
        let mut groups: HashMap<(String, PatternKey), Vec<usize>> = HashMap::new();
        let mut engines: HashMap<String, Arc<DsdEngine<'static>>> = HashMap::new();
        for (slot, (_, engine, req)) in runnable.iter().enumerate() {
            let name = req.graph_name().unwrap_or_default().to_string();
            engines
                .entry(name.clone())
                .or_insert_with(|| Arc::clone(engine));
            groups
                .entry((name, pattern_key(req.psi())))
                .or_default()
                .push(slot);
        }
        let before: Vec<_> = engines.values().map(|e| e.cache_stats()).collect();

        // Round-robin across groups: the first `workers` queue entries are
        // from distinct groups whenever possible, so workers warm distinct
        // substrates concurrently instead of piling onto one build.
        let mut group_lists: Vec<&Vec<usize>> = groups.values().collect();
        group_lists.sort_unstable_by_key(|slots| slots[0]);
        let mut queue: Vec<usize> = Vec::with_capacity(runnable.len());
        let mut depth = 0;
        loop {
            let mut any = false;
            for slots in &group_lists {
                if let Some(&slot) = slots.get(depth) {
                    queue.push(slot);
                    any = true;
                }
            }
            if !any {
                break;
            }
            depth += 1;
        }

        let workers = self.parallelism.threads().min(queue.len().max(1));
        let cursor = AtomicUsize::new(0);
        let solved: Vec<Mutex<Option<Solution>>> =
            runnable.iter().map(|_| Mutex::new(None)).collect();
        let mut worker_busy_nanos = vec![0u128; workers];

        if workers <= 1 {
            for &slot in &queue {
                let (_, engine, req) = &runnable[slot];
                let t = Instant::now();
                let solution = engine.solve(req);
                worker_busy_nanos[0] += t.elapsed().as_nanos();
                *solved[slot].lock().unwrap() = Some(solution);
            }
        } else {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for _ in 0..workers {
                    let queue = &queue;
                    let runnable = &runnable;
                    let solved = &solved;
                    let cursor = &cursor;
                    handles.push(scope.spawn(move || {
                        let mut busy = 0u128;
                        loop {
                            let at = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&slot) = queue.get(at) else {
                                return busy;
                            };
                            let (_, engine, req) = &runnable[slot];
                            let t = Instant::now();
                            let solution = engine.solve(req);
                            busy += t.elapsed().as_nanos();
                            *solved[slot].lock().unwrap() = Some(solution);
                        }
                    }));
                }
                for (i, handle) in handles.into_iter().enumerate() {
                    worker_busy_nanos[i] = handle.join().expect("batch worker panicked");
                }
            });
        }

        for (slot, cell) in solved.into_iter().enumerate() {
            let index = runnable[slot].0;
            let solution = cell
                .into_inner()
                .unwrap()
                .expect("every queued request was solved");
            solutions[index] = Some(Ok(solution));
        }

        let after: Vec<_> = engines.values().map(|e| e.cache_stats()).collect();
        let mut substrate_builds = 0;
        let mut substrate_hits = 0;
        let mut network_hits = 0;
        let mut network_misses = 0;
        for (b, a) in before.iter().zip(&after) {
            substrate_builds += a.decomposition_builds - b.decomposition_builds;
            substrate_hits += a.decomposition_hits - b.decomposition_hits;
            network_hits += a.network_hits - b.network_hits;
            network_misses += a.network_misses - b.network_misses;
        }

        let solutions: Vec<Result<Solution, ServiceError>> = solutions
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect();
        let mut flow_probes = 0;
        let mut flow_resolve_hits = 0;
        let mut store_bytes_built = 0u64;
        let mut store_build_nanos = 0u128;
        for s in solutions.iter().flatten() {
            flow_probes += s.stats.flow_iterations;
            flow_resolve_hits += s.stats.flow_resolve_hits;
            // Attribute each store to the request that paid the cold
            // oracle build (cache hits reuse the same columns).
            if !s.stats.substrate.oracle_cache_hit {
                if let Some(store) = &s.stats.store {
                    store_bytes_built += store.build.bytes as u64;
                    store_build_nanos += store.build.build_nanos;
                }
            }
        }
        let substrate_bytes: u64 = engines.values().map(|e| e.substrate_bytes()).sum();
        let network_bytes: u64 = engines.values().map(|e| e.network_bytes()).sum();

        BatchOutcome {
            solutions,
            stats: BatchStats {
                wall_nanos: t0.elapsed().as_nanos(),
                requests: n,
                groups: groups.len(),
                substrate_builds,
                substrate_hits,
                flow_probes,
                flow_resolve_hits,
                store_bytes_built,
                store_build_nanos,
                network_hits,
                network_misses,
                substrate_bytes,
                network_bytes,
                worker_busy_nanos,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Objective, Outcome};
    use crate::Method;
    use dsd_motif::Pattern;

    fn toy() -> Graph {
        Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)])
    }

    #[test]
    fn service_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DsdService>();
        assert_send_sync::<BatchOutcome>();
    }

    #[test]
    fn catalog_register_evict_list() {
        let service = DsdService::new();
        assert!(service.is_empty());
        service.register("a", toy());
        service.register("b", toy());
        assert_eq!(service.list(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(service.len(), 2);
        assert!(service.engine("a").is_some());
        assert!(service.engine("missing").is_none());
        assert!(service.evict("a"));
        assert!(!service.evict("a"));
        assert_eq!(service.list(), vec!["b".to_string()]);
    }

    #[test]
    fn solve_routes_by_name() {
        let service = DsdService::new();
        service.register("toy", toy());
        let psi = Pattern::triangle();
        let s = service
            .solve(&DsdRequest::new(&psi).on("toy").method(Method::CoreExact))
            .unwrap();
        assert_eq!(s.vertices, vec![0, 1, 2, 3]);
        assert_eq!(s.outcome, Outcome::Found);

        assert_eq!(
            service.solve(&DsdRequest::new(&psi)).unwrap_err(),
            ServiceError::Unrouted
        );
        assert_eq!(
            service
                .solve(&DsdRequest::new(&psi).on("nope"))
                .unwrap_err(),
            ServiceError::UnknownGraph("nope".into())
        );
    }

    #[test]
    fn batch_preserves_order_and_reports_errors_in_place() {
        let service = DsdService::with_parallelism(Parallelism::new(3));
        service.register("toy", toy());
        let psi = Pattern::triangle();
        let batch = vec![
            DsdRequest::new(&psi).on("toy").method(Method::CoreExact),
            DsdRequest::new(&psi).on("gone"),
            DsdRequest::new(&psi)
                .on("toy")
                .objective(Objective::TopK(2)),
            DsdRequest::new(&psi),
        ];
        let outcome = service.solve_batch(batch);
        assert_eq!(outcome.solutions.len(), 4);
        assert_eq!(outcome.stats.requests, 4);
        assert_eq!(outcome.stats.groups, 1);
        assert!(outcome.solutions[0].is_ok());
        assert_eq!(
            outcome.solutions[1].as_ref().unwrap_err(),
            &ServiceError::UnknownGraph("gone".into())
        );
        assert!(outcome.solutions[2].is_ok());
        assert_eq!(
            outcome.solutions[3].as_ref().unwrap_err(),
            &ServiceError::Unrouted
        );
        // One group → one substrate build, the second request hit.
        assert_eq!(outcome.stats.substrate_builds, 1);
        assert_eq!(outcome.stats.substrate_hits, 1);
    }

    #[test]
    fn update_routes_by_name_and_advances_epoch() {
        let service = DsdService::new();
        service.register("toy", toy());
        let psi = Pattern::triangle();
        let before = service
            .solve(&DsdRequest::new(&psi).on("toy").method(Method::CoreExact))
            .unwrap();
        assert_eq!(before.stats.epoch, 0);

        let stats = service
            .update("toy", &[dsd_graph::GraphUpdate::Insert(3, 5)])
            .unwrap();
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.epoch, 1);

        let after = service
            .solve(&DsdRequest::new(&psi).on("toy").method(Method::CoreExact))
            .unwrap();
        assert_eq!(after.stats.epoch, 1);
        // Same answer as a cold engine over the updated graph.
        let updated = Graph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (0, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
            ],
        );
        let cold = DsdEngine::new(updated);
        let expect = cold.request(&psi).method(Method::CoreExact).solve();
        assert_eq!(after.vertices, expect.vertices);
        assert_eq!(after.density.to_bits(), expect.density.to_bits());

        assert_eq!(
            service.update("gone", &[]).unwrap_err(),
            ServiceError::UnknownGraph("gone".into())
        );
    }

    /// The empty-batch fast path: zeroed stats, no worker bookkeeping,
    /// no wall-clock measured (the early return never starts the timer).
    #[test]
    fn empty_batch_is_fine() {
        let service = DsdService::with_parallelism(Parallelism::new(4));
        let outcome = service.solve_batch(Vec::new());
        assert!(outcome.solutions.is_empty());
        assert_eq!(outcome.stats.requests, 0);
        assert_eq!(outcome.stats.groups, 0);
        assert_eq!(outcome.stats.wall_nanos, 0);
        assert!(outcome.stats.worker_busy_nanos.is_empty());
        assert_eq!(outcome.stats.utilization(), 0.0);
    }

    #[test]
    fn batch_groups_by_canonical_pattern() {
        let service = DsdService::new();
        service.register("toy", toy());
        // The paw, two labelings → one group.
        let paw_a = Pattern::c3_star();
        let paw_b = Pattern::new("paw-b", 4, &[(1, 2), (2, 3), (1, 3), (2, 0)]);
        let outcome = service.solve_batch(vec![
            DsdRequest::new(&paw_a).on("toy").method(Method::PeelApp),
            DsdRequest::new(&paw_b).on("toy").method(Method::PeelApp),
        ]);
        assert_eq!(outcome.stats.groups, 1);
        assert_eq!(outcome.stats.substrate_builds, 1);
        let a = outcome.solutions[0].as_ref().unwrap();
        let b = outcome.solutions[1].as_ref().unwrap();
        assert_eq!(a.vertices, b.vertices);
    }
}
