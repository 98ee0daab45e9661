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
//! substrates (Ψ-instance lists, (k, Ψ)-core decompositions), and answers
//! every objective through one [`Solution`]
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
//! [`DsdServer::submit_update`] for named graphs) absorbs
//! [`GraphUpdate`](graph::GraphUpdate) batches in place — in-place
//! Ψ-store repair, lazy rebuilds of every other substrate, lazy CSR
//! materialization — bumping a graph epoch that every solution reports
//! in its stats.
//!
//! [`DsdEngine::apply`]: core::engine::DsdEngine::apply
//! [`DsdServer::submit_update`]: core::serve::DsdServer::submit_update
//!
//! # Serving many graphs
//!
//! The engine is `Send + Sync`; [`DsdServer`] keeps a catalog of named
//! graphs (each behind its own engine) and runs requests against them
//! through per-graph admission queues and a worker pool, under one
//! substrate byte budget:
//!
//! ```
//! use dsd::prelude::*;
//!
//! let server = DsdServer::new(ServeConfig::default());
//! let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
//! let engine = server.register("toy", g);
//!
//! let psi = Pattern::triangle();
//! let densest = server.submit(DsdRequest::new(&psi).on("toy")).unwrap();
//! let top2 = server
//!     .submit(DsdRequest::new(&psi).on("toy").objective(Objective::TopK(2)))
//!     .unwrap();
//! let cds = densest.wait().unwrap().solution().unwrap();
//! assert_eq!(cds.vertices, vec![0, 1, 2, 3]);
//! let top2 = top2.wait().unwrap().solution().unwrap();
//! assert_eq!(top2.subgraphs[0].vertices, cds.vertices);
//! assert_eq!(engine.cache_stats().decomposition_builds, 1, "one (graph, Ψ) pair");
//! ```
//!
//! [`Solution`]: core::engine::Solution
//! [`DsdServer`]: core::serve::DsdServer

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
        ApplyStats, DsdEngine, DsdRequest, DsdResult, DsdServer, Guarantee, Method, Objective,
        Outcome, Parallelism, ServeConfig, ServeError, ServeOutcome, Solution, SolveStats,
    };
    pub use dsd_graph::{Graph, GraphBuilder, GraphUpdate, VertexId, VertexSet};
    pub use dsd_motif::Pattern;
}
