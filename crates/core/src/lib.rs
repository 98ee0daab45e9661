//! `dsd-core`: core-based densest subgraph discovery.
//!
//! Rust implementation of *Fang, Yu, Cheng, Lakshmanan, Lin. "Efficient
//! Algorithms for Densest Subgraph Discovery." PVLDB 12(11), 2019* — the
//! (k, Ψ)-core machinery plus every algorithm the paper introduces or
//! compares against:
//!
//! | Paper name | Cold call | Entry on [`Substrates`] | Kind |
//! |---|---|---|---|
//! | Algorithm 1 `Exact` | [`exact::exact`] (clique Ψ) | [`Substrates::exact`] | exact |
//! | Algorithm 2 `PeelApp` | [`peel::peel_app`] | [`Substrates::peel_app`] | 1/\|VΨ\| approx |
//! | Algorithm 3 core decomposition | [`clique_core::decompose`] | [`Substrates::decomposition`] | substrate |
//! | Algorithm 4 `CoreExact` | [`core_exact::core_exact`] | [`Substrates::core_exact`] | exact |
//! | Algorithm 5 `IncApp` | [`approx::inc_app`] | [`Substrates::inc_app`] | approx |
//! | Algorithm 6 `CoreApp` | [`approx::core_app`] | [`Substrates::core_app`] | approx |
//! | Algorithm 6 γ bounds | [`approx::gamma_bounds`] | [`Substrates::gamma_bounds`] | substrate |
//! | Algorithm 7 `construct+` | [`flownet::build_pattern_network`] / [`flownet::build_store_network`] | — | substrate |
//! | Algorithm 8 `PExact` | [`exact::exact`] (pattern Ψ) | [`Substrates::exact`] | exact |
//! | `CorePExact` | [`core_exact::core_exact`] (pattern Ψ) | [`Substrates::core_exact`] | exact |
//! | `Nucleus` baseline | [`nucleus::nucleus_app`] | — | approx |
//! | `EMcore` baseline | [`emcore::emcore_max_core`] | — | approx |
//! | Sec. 6.3 query variant | [`query::densest_with_query`] | [`Substrates::densest_with_query`] | exact |
//! | Top-k densest (extension) | [`top_k::top_k_densest`] | [`Substrates::top_k`] | exact |
//! | DalkS / DamkS (extension) | [`size_constrained::densest_at_least_k`] / [`size_constrained::densest_at_most_k`] | [`Substrates::densest_at_least_k`] / [`Substrates::densest_at_most_k`] | exact or approx |
//!
//! Every algorithm has one entry point, a method on a [`Substrates`]
//! context, which acquires the oracle and the (k, Ψ)-core decomposition
//! the first time the algorithm reads them.
//! The cold calls are one-liners over [`Substrates::cold`]; pass one
//! context to several entries to share its substrates.
//!
//! # Quickstart
//!
//! Query *workloads* go through [`engine::DsdEngine`], which owns the
//! graph and memoizes the expensive substrates (Ψ-instance lists, (k,
//! Ψ)-core decompositions, solved flow networks) across requests:
//!
//! ```
//! use dsd_core::engine::{DsdEngine, Objective};
//! use dsd_core::Method;
//! use dsd_motif::Pattern;
//! use dsd_graph::Graph;
//!
//! // Two triangles sharing an edge, plus a tail.
//! let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
//! let engine = DsdEngine::new(g);
//! let psi = Pattern::triangle();
//!
//! // Method::Auto picks a guarantee-preserving algorithm cost-based.
//! let cds = engine.request(&psi).solve();
//! assert_eq!(cds.vertices, vec![0, 1, 2, 3]);
//! assert!((cds.density - 0.5).abs() < 1e-9);
//!
//! // Same Ψ again — substrates come out of the cache.
//! let top = engine.request(&psi).objective(Objective::TopK(2)).solve();
//! assert!(top.stats.substrate.decomposition_cache_hit);
//! ```
//!
//! One-off calls use the paper-named cold functions, which build their
//! substrates on a [`Substrates`] context with no engine at all;
//! [`densest_subgraph`] runs one request through a throwaway engine:
//!
//! ```
//! use dsd_core::{core_exact, densest_subgraph, Method};
//! use dsd_motif::Pattern;
//! use dsd_graph::Graph;
//!
//! let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
//! let (cds, _) = core_exact(&g, &Pattern::triangle());
//! assert_eq!(cds.vertices, vec![0, 1, 2, 3]);
//! let same = densest_subgraph(&g, &Pattern::triangle(), Method::CoreExact);
//! assert_eq!(same.vertices, cds.vertices);
//! ```
//!
//! Serving many named graphs from one process goes through
//! [`serve::DsdServer`]: a catalog of engines behind per-graph admission
//! queues, a worker pool, and one substrate byte budget over them all.

pub mod alpha_search;
pub mod approx;
pub mod bounds;
pub mod bucket_queue;
pub mod budget;
pub mod clique_core;
pub mod core_exact;
pub mod emcore;
pub mod engine;
pub mod exact;
pub mod flownet;
pub mod kcore;
pub mod nucleus;
pub mod oracle;
pub mod parallelism;
pub mod peel;
pub mod query;
pub mod serve;
pub mod size_constrained;
pub mod substrates;
pub mod top_k;
pub mod types;

pub use alpha_search::{
    alpha_search, density_gap, effective_gap, DecisionProbe, FirstProbe, NetworkProbe,
    SearchOutcome,
};
pub use approx::{core_app, inc_app, ApproxResult};
pub use bounds::{density_bounds, locate_core_order, DensityBounds};
pub use budget::parse_byte_budget;
pub use clique_core::{decompose, CliqueCoreDecomposition};
pub use core_exact::{core_exact, CoreExactConfig, CoreExactStats};
pub use dsd_graph::GraphUpdate;
pub use dsd_motif::store::StoreBuildStats;
pub use emcore::emcore_max_core;
pub use engine::{
    pattern_key, ApplyStats, BoundRequest, DsdEngine, DsdRequest, EngineCacheStats, GraphSnapshot,
    Guarantee, Objective, Outcome, PatternKey, Solution, SolveStats,
};
pub use exact::{exact, ExactOpts, ExactStats};
pub use kcore::{k_core_decomposition, KCoreDecomposition};
pub use nucleus::{nucleus_app, nucleus_decomposition};
pub use oracle::{
    density, oracle_for, oracle_with_policy, DensityOracle, InstancePeeler, MaterializedOracle,
    StoreFallback, StoreStats, DEFAULT_STORE_BUDGET,
};
pub use parallelism::Parallelism;
pub use peel::peel_app;
pub use query::densest_with_query;
pub use serve::{
    DsdServer, GovernorStats, ServeConfig, ServeError, ServeOutcome, ServeStats, Ticket,
};
pub use size_constrained::{densest_at_least_k, densest_at_most_k, SizeConstrainedOutcome};
pub use substrates::Substrates;
pub use top_k::{top_k_densest, TopKScan};
pub use types::DsdResult;

use dsd_graph::Graph;
use dsd_motif::Pattern;

/// Solution method for a densest-subgraph request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Flow-based exact baseline (Algorithm 1 / Algorithm 8).
    Exact,
    /// Core-based exact (Algorithm 4; `CorePExact` for patterns).
    CoreExact,
    /// Greedy peeling approximation (Algorithm 2).
    PeelApp,
    /// Bottom-up (kmax, Ψ)-core approximation (Algorithm 5).
    IncApp,
    /// Top-down (kmax, Ψ)-core approximation (Algorithm 6).
    CoreApp,
    /// Cost-based automatic selection among the methods above, restricted
    /// to the ones that preserve the `1/|VΨ|` guarantee (see
    /// [`engine::DsdEngine`]).
    Auto,
}

/// One-call entry point: the densest subgraph of `g` w.r.t. Ψ-density.
///
/// Exact methods return the true CDS/PDS; approximation methods return a
/// subgraph whose density is within `1/|VΨ|` of optimal (and in practice
/// much closer — see `EXPERIMENTS.md`). Runs through a throwaway
/// [`engine::DsdEngine`]; build one yourself to reuse substrates across
/// calls.
pub fn densest_subgraph(g: &Graph, psi: &Pattern, method: Method) -> DsdResult {
    DsdEngine::over(g)
        .request(psi)
        .method(method)
        .solve()
        .to_result()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_methods_run_and_respect_guarantees() {
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (0, 3),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
            ],
        );
        let psi = Pattern::triangle();
        let opt = densest_subgraph(&g, &psi, Method::Exact);
        for method in [
            Method::CoreExact,
            Method::PeelApp,
            Method::IncApp,
            Method::CoreApp,
        ] {
            let r = densest_subgraph(&g, &psi, method);
            assert!(
                r.density + 1e-9 >= opt.density / 3.0,
                "{method:?} broke the approximation guarantee"
            );
            assert!(
                r.density <= opt.density + 1e-9,
                "{method:?} beat the optimum"
            );
        }
        let core = densest_subgraph(&g, &psi, Method::CoreExact);
        assert!((core.density - opt.density).abs() < 1e-9);
    }
}
