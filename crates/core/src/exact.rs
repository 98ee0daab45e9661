//! Algorithm 1 (`Exact`) and Algorithm 8 (`PExact`): flow-based exact DSD
//! riding the shared [`mod@crate::alpha_search`] loop over the guessed
//! density α, starting from the midpoint of `[0, max Ψ-degree]`.
//!
//! The network is constructed over the entire graph (the size weakness
//! that `CoreExact` repairs by locating in a core), but each guess is no
//! longer solved from scratch: the probe sequence runs on one parametric
//! solver that warm-resolves from the checkpointed lower-bound flow, so
//! the whole search costs amortized about one max-flow (see
//! [`crate::flownet::DensityNetwork`]). Dispatch:
//! h = 2 → Goldberg's simplified network; h-clique (h ≥ 3) → Algorithm 1's
//! (h−1)-clique network; general pattern → Algorithm 8's instance network.

use dsd_graph::{Graph, VertexId, VertexSet};
use dsd_motif::pattern::{Pattern, PatternKind};

use crate::alpha_search::{alpha_search, effective_gap, DecisionProbe, FirstProbe, NetworkProbe};
use crate::flownet::{
    build_clique_network, build_edge_network, build_pattern_network, build_store_network,
    DensityNetwork, NetworkLender,
};
use crate::oracle::DensityOracle;
use crate::substrates::Substrates;
use crate::types::DsdResult;

pub use crate::alpha_search::{density_gap, ExactStats};

/// Per-request knobs for the flow/α-search framework.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactOpts {
    /// Extra α-search stopping tolerance on α. The effective gap is
    /// `max(1/(n(n−1)), tolerance)` — Lemma 12's separation keeps the
    /// default exact; a larger tolerance trades certified precision for
    /// fewer probes.
    pub tolerance: Option<f64>,
    /// Cap on min-cut probes; when exhausted the best witness so far is
    /// returned and [`ExactStats::budget_exhausted`] is set. When the
    /// budget starves the search before *any* feasible probe, one extra
    /// probe at α = 0 runs (and is counted in the stats) so the result is
    /// never a bogus empty answer on a graph with instances.
    pub step_budget: Option<usize>,
}

/// Builds the Algorithm-1/8 network for Ψ over `g[members]`.
///
/// `grouped` selects `construct+` (Algorithm 7) for general patterns; it is
/// ignored for cliques, whose Algorithm-1 network has no duplicate vertex
/// sets to group.
pub(crate) fn build_network_for(
    g: &Graph,
    members: &[VertexId],
    psi: &Pattern,
    grouped: bool,
) -> DensityNetwork {
    match psi.kind() {
        PatternKind::Clique(2) => build_edge_network(g, members),
        PatternKind::Clique(h) => build_clique_network(g, members, h),
        _ => build_pattern_network(g, members, psi, grouped),
    }
}

/// [`build_network_for`], preferring the factorised store-built
/// construction when `oracle` holds a materialized [`InstanceStore`] —
/// zero instance re-enumeration; decision- and witness-identical to the
/// enumeration constructors (the residual-reachable source side is the
/// unique inclusion-minimal min-cut, independent of formulation). h = 2
/// keeps the Goldberg network: the graph CSR already is the factorised
/// edge set, so a store would only add nodes.
pub(crate) fn build_network_for_with(
    g: &Graph,
    members: &[VertexId],
    psi: &Pattern,
    grouped: bool,
    oracle: &dyn DensityOracle,
) -> DensityNetwork {
    if !matches!(psi.kind(), PatternKind::Clique(2)) {
        if let Some(store) = oracle.store(g) {
            return build_store_network(g, members, store);
        }
    }
    build_network_for(g, members, psi, grouped)
}

/// Acquires the network for `g[members]`: from the lender's cache when a
/// warm one is resident, else freshly (store-built when possible).
pub(crate) fn acquire_network(
    g: &Graph,
    members: &[VertexId],
    psi: &Pattern,
    grouped: bool,
    oracle: &dyn DensityOracle,
    lender: Option<&dyn NetworkLender>,
) -> DensityNetwork {
    if let Some(lender) = lender {
        if let Some(net) = lender.take(members, &[]) {
            return net;
        }
    }
    build_network_for_with(g, members, psi, grouped, oracle)
}

/// Returns a network to the lender's cache for the next request.
pub(crate) fn release_network(
    members: &[VertexId],
    net: DensityNetwork,
    lender: Option<&dyn NetworkLender>,
) {
    if let Some(lender) = lender {
        lender.put(members, &[], net);
    }
}

/// Runs `Exact` (cliques) / `PExact` (patterns) on the whole graph,
/// building the oracle cold.
pub fn exact(g: &Graph, psi: &Pattern) -> (DsdResult, ExactStats) {
    Substrates::cold(g, psi).exact(ExactOpts::default())
}

impl Substrates<'_> {
    /// Runs `Exact` / `PExact` on the whole graph through this context's
    /// oracle, under the per-request knobs in `opts`. The α-search borrows
    /// its [`DensityNetwork`] from the context's lender when one is warm
    /// (and returns it afterwards), so repeat requests on an unchanged
    /// graph pay only the flow resolve.
    pub fn exact(&self, opts: ExactOpts) -> (DsdResult, ExactStats) {
        let (g, psi, oracle, lender) = (self.graph(), self.pattern(), self.oracle(), self.lender());
        let n = g.num_vertices();
        let alive = VertexSet::full(n);
        let degrees = oracle.degrees(g, &alive);
        let max_deg = degrees.iter().copied().max().unwrap_or(0);
        let mut stats = ExactStats::default();
        if max_deg == 0 {
            return (DsdResult::empty(), stats);
        }

        let bounds = (0.0f64, max_deg as f64);
        stats.initial_bounds = bounds;
        let gap = effective_gap(n, opts.tolerance);
        let budget = opts.step_budget.unwrap_or(usize::MAX);
        let members: Vec<VertexId> = g.vertices().collect();
        // Store-built (construct+-shaped) when the oracle materialized;
        // otherwise PExact's ungrouped Algorithm-8 network — construct+
        // grouping without a store belongs to CorePExact. Diamonds whose
        // store the cost rule keeps take the store-built network too, as
        // general patterns do: the same answers as the ungrouped network,
        // with other flow counters (CoreExact's were already grouped, so
        // its counters do not change). A warm diamond engine repairs that
        // store on `apply` through `InstanceStore::repair_pattern`.
        let mut net = acquire_network(g, &members, psi, false, oracle, lender);
        let mut probe = NetworkProbe::new(&mut net, g, oracle);
        let outcome = alpha_search(
            &mut probe,
            bounds,
            FirstProbe::Midpoint,
            gap,
            budget,
            &mut stats,
        );
        let (mut best, rho) = match outcome.witness {
            Some(w) => (w, outcome.lower),
            None => {
                // μ > 0 guarantees α = 0 is feasible, so a missing witness
                // means an exhausted step budget starved the search before
                // any feasible probe. Fall back to one counted probe at the
                // proven-feasible guess rather than returning a bogus empty
                // answer (see the `step_budget` docs).
                stats.iterations += 1;
                stats.network_nodes.push(probe.network_nodes());
                probe.probe(0.0).unwrap_or_default()
            }
        };
        stats.absorb_flow(net.probe_stats());
        release_network(&members, net, lender);
        debug_assert!(!best.is_empty(), "μ > 0 guarantees a feasible guess");
        best.sort_unstable();
        (
            DsdResult {
                vertices: best,
                density: rho,
            },
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_d(g: &Graph, psi: &Pattern) -> DsdResult {
        exact(g, psi).0
    }

    /// Figure 1(a)-style: K4 with a tail — EDS is the K4 at ρ = 1.5.
    #[test]
    fn eds_of_k4_tail() {
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ],
        );
        let r = exact_d(&g, &Pattern::edge());
        assert_eq!(r.vertices, vec![0, 1, 2, 3]);
        assert!((r.density - 1.5).abs() < 1e-9);
    }

    /// The paper's running example: with Ψ = edge the densest subgraph is
    /// S1 (density 11/7); with Ψ = triangle it is S2.
    #[test]
    fn triangle_cds_differs_from_eds() {
        // Build: S1 = 7-vertex 11-edge near-clique with no triangles...
        // Simplest contrast graph: C5 (edge-density 1, no triangles) vs
        // two triangles sharing an edge (4 vertices, 5 edges, 2 triangles).
        let mut edges = vec![(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 0)];
        edges.extend_from_slice(&[(5, 6), (6, 7), (5, 7), (5, 8), (7, 8)]);
        let g = Graph::from_edges(9, &edges);
        let eds = exact_d(&g, &Pattern::edge());
        // K4-e has density 5/4 > C5's 1.
        assert_eq!(eds.vertices, vec![5, 6, 7, 8]);
        let cds = exact_d(&g, &Pattern::triangle());
        assert_eq!(cds.vertices, vec![5, 6, 7, 8]);
        assert!((cds.density - 0.5).abs() < 1e-9);
    }

    #[test]
    fn no_instances_gives_empty() {
        // A star has no triangles.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let r = exact_d(&g, &Pattern::triangle());
        assert!(r.is_empty());
        assert_eq!(r.density, 0.0);
    }

    #[test]
    fn whole_clique_is_its_own_cds() {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(5, &edges);
        for h in 2..=5 {
            let r = exact_d(&g, &Pattern::clique(h));
            assert_eq!(r.vertices, vec![0, 1, 2, 3, 4], "h = {h}");
        }
    }

    #[test]
    fn pexact_diamond_on_figure6_style_graph() {
        // K4 on {0,3,4,5} (3 diamonds), 4-cycle 0-1-2-3 (1 diamond),
        // tail 5-6-7. PDS = the K4: 3/4 beats 4/6-ish supersets.
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (0, 3),
                (0, 4),
                (0, 5),
                (3, 4),
                (3, 5),
                (4, 5),
                (5, 6),
                (6, 7),
            ],
        );
        let r = exact_d(&g, &Pattern::diamond());
        assert_eq!(r.vertices, vec![0, 3, 4, 5]);
        assert!((r.density - 0.75).abs() < 1e-9);
    }

    #[test]
    fn pexact_two_star_picks_hub() {
        // A big star: 2-star density maximized by the full star.
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let r = exact_d(&g, &Pattern::two_star());
        assert_eq!(r.vertices, vec![0, 1, 2, 3, 4, 5]);
        // C(5,2) = 10 wedges over 6 vertices.
        assert!((r.density - 10.0 / 6.0).abs() < 1e-9);
    }
}
