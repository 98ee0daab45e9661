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
//! context's (possibly warm) decomposition; round r ≥ 1 locates its
//! answer in a core of the residual vertex set `g[alive]`'s decomposition
//! (Lemma 7), peeled through the same oracle — so a materialized instance
//! store is peeled under the `alive` mask instead of being re-enumerated
//! on a copy.
//!
//! **Residual rounds decompose only on a miss.** A round's located region
//! depends only on the graph epoch and the vertices removed so far, so a
//! lender keeps it as a record keyed by the removed set (see
//! [`mod@crate::core_exact`]'s located region). A warm repeat finds every
//! round's record, skips the residual peel and the component scans, and
//! goes straight to the α-search. Component networks are keyed by parent
//! vertex ids, so residual rounds borrow from and return to the same
//! network cache as round 0: a repeat request finds every round's
//! networks warm, together with the witnesses they certified (see
//! [`mod@crate::core_exact`]'s witness seed).

use dsd_graph::{Graph, VertexId, VertexSet};
use dsd_motif::Pattern;

use crate::alpha_search::ExactStats;
use crate::core_exact::CoreExactConfig;
use crate::substrates::Substrates;
use crate::types::DsdResult;

/// Finds up to `k` vertex-disjoint densest subgraphs, densest first,
/// building the substrates cold.
///
/// Stops early when the residual graph has no Ψ instance left. Vertex ids
/// refer to the original graph.
pub fn top_k_densest(g: &Graph, psi: &Pattern, k: usize) -> Vec<DsdResult> {
    Substrates::cold(g, psi)
        .top_k(k, CoreExactConfig::default())
        .map_or_else(Vec::new, |scan| scan.subgraphs)
}

/// Result of a [`Substrates::top_k`] scan.
#[derive(Clone, Debug)]
pub struct TopKScan {
    /// Vertex-disjoint densest subgraphs, densest first.
    pub subgraphs: Vec<DsdResult>,
    /// α-search instrumentation merged across all rounds (probe counts,
    /// network sizes, flow reuse, and whether any round's search was cut
    /// short by the config's step budget).
    pub exact: ExactStats,
}

impl Substrates<'_> {
    /// Up to `k` vertex-disjoint densest subgraphs, densest first, or
    /// `None` when `k` is 0.
    ///
    /// Round 0 runs CoreExact on this context's decomposition of the whole
    /// graph. Each later round runs on a residual context over the same
    /// oracle and lender, which decomposes the residual vertex set on the
    /// parent graph only when the round's located region is not on record.
    /// Every round's component networks are borrowed from and returned to
    /// the context's lender under their parent-id member sets.
    pub fn top_k(&self, k: usize, config: CoreExactConfig) -> Option<TopKScan> {
        if k == 0 {
            return None;
        }
        let g = self.graph();
        let mut out = Vec::with_capacity(k);
        let mut alive = VertexSet::full(g.num_vertices());
        // The answers so far, ascending: the residual round's record key.
        let mut removed: Vec<VertexId> = Vec::new();
        let mut exact = ExactStats::default();
        for round in 0..k {
            let (found, stats) = if round == 0 {
                self.core_exact(config)
            } else if alive.len() < self.pattern().vertex_count() {
                break;
            } else {
                self.residual(&alive, &removed).core_exact(config)
            };
            exact.merge(&stats.exact);
            if found.vertices.is_empty() {
                break;
            }
            for &v in &found.vertices {
                alive.remove(v);
            }
            removed.extend_from_slice(&found.vertices);
            removed.sort_unstable();
            out.push(found);
        }
        Some(TopKScan {
            subgraphs: out,
            exact,
        })
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
