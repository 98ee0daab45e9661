//! Top-k densest subgraphs by iterative peel-and-remove.
//!
//! The paper's introduction motivates DSD as a building block — index
//! construction, visualization, piggybacking — where one subgraph is
//! rarely enough. Following the standard disjoint top-k scheme (cf. the
//! locally-densest-subgraph line of work the paper cites [54, 57]): find
//! the densest subgraph, delete its vertices, and repeat on the residual
//! graph. The returned subgraphs are vertex-disjoint and have
//! non-increasing density.
//!
//! Every round is CoreExact over the parent graph. Round 0 uses the
//! caller's (possibly warm) decomposition; round r ≥ 1 decomposes the
//! residual vertex set `g[alive]` through the same oracle — so a
//! materialized instance store is peeled under the `alive` mask instead
//! of being re-enumerated on a copy — and locates its answer in a core of
//! that decomposition (Lemma 7). Component networks are keyed by parent
//! vertex ids, so residual rounds borrow from and return to the same
//! network cache as round 0: a repeat request finds every round's
//! networks warm, together with the witnesses they certified (see
//! [`mod@crate::core_exact`]'s witness seed).

use dsd_graph::{Graph, VertexSet};
use dsd_motif::Pattern;

use crate::alpha_search::ExactStats;
use crate::clique_core::{decompose_within, CliqueCoreDecomposition};
use crate::core_exact::{core_exact_with_lender, CoreExactConfig};
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
/// `dec` must be the decomposition of the whole graph; it serves round 0.
/// Later rounds decompose the residual vertex set through `oracle` on the
/// parent graph `g`.
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

/// [`top_k_densest_from`] with a network lender. Every round's component
/// networks — residual rounds included — are borrowed from and returned
/// to the lender under their parent-id member sets.
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
        let residual;
        let round_dec = if round == 0 {
            dec
        } else {
            residual = decompose_within(g, oracle, &alive);
            &residual
        };
        let (found, stats) = core_exact_with_lender(g, psi, config, oracle, round_dec, lender);
        exact.merge(&stats.exact);
        if found.vertices.is_empty() {
            break;
        }
        for &v in &found.vertices {
            alive.remove(v);
        }
        out.push(found);
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
