//! Top-k densest subgraphs by iterative peel-and-remove.
//!
//! The paper's introduction motivates DSD as a building block — index
//! construction, visualization, piggybacking — where one subgraph is
//! rarely enough. Following the standard disjoint top-k scheme (cf. the
//! locally-densest-subgraph line of work the paper cites [54, 57]): find
//! the densest subgraph, delete its vertices, and repeat on the residual
//! graph. Each round uses the core-based exact algorithm, so the whole
//! scan stays fast; the returned subgraphs are vertex-disjoint and have
//! non-increasing density.

use dsd_graph::{Graph, InducedSubgraph, VertexSet};
use dsd_motif::Pattern;

use crate::alpha_search::ExactStats;
use crate::clique_core::CliqueCoreDecomposition;
use crate::core_exact::{core_exact_with, core_exact_with_lender, CoreExactConfig};
use crate::flownet::NetworkLender;
use crate::oracle::DensityOracle;
use crate::types::DsdResult;

/// Finds up to `k` vertex-disjoint densest subgraphs, densest first.
///
/// Stops early when the residual graph has no Ψ instance left. Vertex ids
/// refer to the original graph.
pub fn top_k_densest(g: &Graph, psi: &Pattern, k: usize) -> Vec<DsdResult> {
    let oracle = crate::oracle::oracle_for(psi);
    let dec = crate::clique_core::decompose(g, oracle.as_ref());
    top_k_densest_from(g, psi, k, CoreExactConfig::default(), oracle.as_ref(), &dec).subgraphs
}

/// Result of a [`top_k_densest_from`] scan.
#[derive(Clone, Debug)]
pub struct TopKScan {
    /// Vertex-disjoint densest subgraphs, densest first.
    pub subgraphs: Vec<DsdResult>,
    /// Whether any round's α-search was cut short by the config's
    /// step budget (the affected rounds are then not certified optimal).
    pub budget_exhausted: bool,
    /// α-search instrumentation merged across all rounds (probe counts,
    /// network sizes, flow reuse).
    pub exact: ExactStats,
}

/// [`top_k_densest`] against caller-provided (possibly warm) substrates.
///
/// The first (densest) round runs on the full graph and so can reuse the
/// warm decomposition; later rounds operate on residual induced subgraphs
/// whose core structure genuinely changed, and rebuild cold.
pub fn top_k_densest_from(
    g: &Graph,
    psi: &Pattern,
    k: usize,
    config: CoreExactConfig,
    oracle: &dyn DensityOracle,
    dec: &CliqueCoreDecomposition,
) -> TopKScan {
    top_k_with_lender(g, psi, k, config, oracle, dec, None)
}

/// [`top_k_densest_from`] with a network lender for round 0 (the
/// full-graph scan, where the warm substrates and cached networks apply);
/// residual rounds delete vertices and always build cold.
pub(crate) fn top_k_with_lender(
    g: &Graph,
    psi: &Pattern,
    k: usize,
    config: CoreExactConfig,
    oracle: &dyn DensityOracle,
    dec: &CliqueCoreDecomposition,
    lender: Option<&dyn NetworkLender>,
) -> TopKScan {
    let mut out = Vec::with_capacity(k);
    let mut alive = VertexSet::full(g.num_vertices());
    let mut exact = ExactStats::default();
    for round in 0..k {
        if alive.len() < psi.vertex_count() {
            break;
        }
        let (vertices, density) = if round == 0 {
            let (first, stats) = core_exact_with_lender(g, psi, config, oracle, dec, lender);
            exact.merge(&stats.exact);
            (first.vertices, first.density)
        } else {
            let sub = InducedSubgraph::from_set(g, &alive);
            let (local, stats) = core_exact_with(&sub.graph, psi, config);
            exact.merge(&stats.exact);
            (sub.to_parent_vec(&local.vertices), local.density)
        };
        if vertices.is_empty() {
            break;
        }
        for &v in &vertices {
            alive.remove(v);
        }
        out.push(DsdResult { vertices, density });
    }
    TopKScan {
        budget_exhausted: exact.budget_exhausted,
        exact,
        subgraphs: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Three cliques of decreasing size, connected by a path.
    fn three_cliques() -> Graph {
        let mut edges = Vec::new();
        let blocks: [&[u32]; 3] = [&[0, 1, 2, 3, 4, 5], &[6, 7, 8, 9, 10], &[11, 12, 13, 14]];
        for block in blocks {
            for (i, &u) in block.iter().enumerate() {
                for &v in &block[i + 1..] {
                    edges.push((u, v));
                }
            }
        }
        edges.extend_from_slice(&[(5, 6), (10, 11)]);
        Graph::from_edges(15, &edges)
    }

    #[test]
    fn finds_cliques_in_density_order() {
        let g = three_cliques();
        let tops = top_k_densest(&g, &Pattern::edge(), 3);
        assert_eq!(tops.len(), 3);
        assert_eq!(tops[0].vertices, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(tops[1].vertices, vec![6, 7, 8, 9, 10]);
        assert_eq!(tops[2].vertices, vec![11, 12, 13, 14]);
        for w in tops.windows(2) {
            assert!(w[0].density + 1e-9 >= w[1].density);
        }
    }

    #[test]
    fn results_are_vertex_disjoint() {
        let g = three_cliques();
        let tops = top_k_densest(&g, &Pattern::triangle(), 3);
        let mut seen: HashSet<u32> = HashSet::new();
        for t in &tops {
            for &v in &t.vertices {
                assert!(seen.insert(v), "vertex {v} appears twice");
            }
        }
    }

    #[test]
    fn stops_when_instances_run_out() {
        let g = three_cliques();
        // Only 3 blocks contain 4-cliques; asking for 10 returns 3.
        let tops = top_k_densest(&g, &Pattern::clique(4), 10);
        assert_eq!(tops.len(), 3);
        // Asking on a triangle-free graph returns nothing.
        let tree = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(top_k_densest(&tree, &Pattern::triangle(), 5).is_empty());
    }

    #[test]
    fn k_zero_and_first_equals_core_exact() {
        let g = three_cliques();
        assert!(top_k_densest(&g, &Pattern::edge(), 0).is_empty());
        let top1 = top_k_densest(&g, &Pattern::edge(), 1);
        let (direct, _) = crate::core_exact::core_exact(&g, &Pattern::edge());
        assert_eq!(top1[0].vertices, direct.vertices);
        assert!((top1[0].density - direct.density).abs() < 1e-12);
    }
}
