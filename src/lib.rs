//! `dsd` — densest subgraph discovery (Fang et al., PVLDB 2019).
//!
//! This facade crate re-exports the five workspace crates under one roof:
//!
//! * [`graph`] — CSR graph substrate;
//! * [`flow`] — max-flow / min-cut solvers;
//! * [`motif`] — clique listing and pattern enumeration;
//! * [`core`] — the paper's algorithms (Exact/CoreExact, PeelApp/IncApp/
//!   CoreApp, PExact/CorePExact, Nucleus, EMcore, the query variant, the
//!   extensions) and the [`core::engine::DsdEngine`] query engine;
//! * [`datasets`] — generators, fixtures, and the evaluation registry.
//!
//! # Quickstart
//!
//! The engine is the primary API: it owns a graph, memoizes the expensive
//! substrates (Ψ-instance lists, (k, Ψ)-core decompositions, the classical
//! k-core order), and answers every objective through one [`Solution`]
//! shape:
//!
//! ```
//! use dsd::prelude::*;
//!
//! let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
//! let engine = DsdEngine::new(g);
//! let psi = Pattern::triangle();
//!
//! // Densest subgraph, method picked cost-based (Method::Auto).
//! let cds = engine.request(&psi).solve();
//! assert_eq!(cds.vertices, vec![0, 1, 2, 3]);
//!
//! // Same substrates, different objectives — served from the warm cache.
//! let top2 = engine.request(&psi).objective(Objective::TopK(2)).solve();
//! assert!(top2.stats.substrate.decomposition_cache_hit);
//! let anchored = engine
//!     .request(&psi)
//!     .objective(Objective::WithQuery(vec![4]))
//!     .solve();
//! assert!(anchored.vertices.contains(&4));
//! ```
//!
//! One-off calls can keep using the free functions
//! ([`core::densest_subgraph`] & co.), which shim through a throwaway
//! engine.
//!
//! Graphs are not frozen: [`DsdEngine::apply`] (and
//! [`DsdService::update`] for named graphs) absorbs
//! [`GraphUpdate`](graph::GraphUpdate) batches in place — incremental
//! k-core repair, conservative Ψ-substrate invalidation, lazy CSR
//! materialization — bumping a graph epoch that every solution reports
//! in its stats.
//!
//! [`DsdEngine::apply`]: core::engine::DsdEngine::apply
//! [`DsdService::update`]: core::service::DsdService::update
//!
//! # Serving many graphs and batched workloads
//!
//! The engine is `Send + Sync`; [`DsdService`] puts a catalog of named
//! graphs (each behind its own engine) and a batched, multi-threaded
//! executor on top of it:
//!
//! ```
//! use dsd::prelude::*;
//!
//! let service = DsdService::with_parallelism(Parallelism::new(4));
//! let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
//! service.register("toy", g);
//!
//! let psi = Pattern::triangle();
//! let outcome = service.solve_batch(vec![
//!     DsdRequest::new(&psi).on("toy"),
//!     DsdRequest::new(&psi).on("toy").objective(Objective::TopK(2)),
//! ]);
//! assert_eq!(outcome.stats.substrate_builds, 1, "one (graph, Ψ) group");
//! assert_eq!(outcome.solutions[0].as_ref().unwrap().vertices, vec![0, 1, 2, 3]);
//! ```
//!
//! [`Solution`]: core::engine::Solution
//! [`DsdService`]: core::service::DsdService

pub use dsd_core as core;
pub use dsd_datasets as datasets;
pub use dsd_flow as flow;
pub use dsd_graph as graph;
pub use dsd_motif as motif;

/// Convenience re-exports for the common workflow: the engine and serving
/// types plus the free-function shims and the substrate value types they
/// share.
pub mod prelude {
    pub use dsd_core::{
        core_exact, densest_subgraph, densest_with_query, exact, peel_app, top_k_densest,
        ApplyStats, BatchOutcome, BatchStats, DsdEngine, DsdRequest, DsdResult, DsdService,
        Guarantee, Method, Objective, Outcome, Parallelism, ServiceError, Solution, SolveStats,
    };
    pub use dsd_graph::{Graph, GraphBuilder, GraphUpdate, VertexId, VertexSet};
    pub use dsd_motif::Pattern;
}
