//! Algorithm 2 (`PeelApp`): the greedy `1/|VΨ|`-approximation.
//!
//! Repeatedly removes the vertex with minimum instance-degree and returns
//! the densest residual graph encountered. The peel itself is the same loop
//! as the core decomposition (Algorithm 3); the only extra work PeelApp
//! performs is density tracking, which the shared engine in
//! [`crate::clique_core`] already does incrementally
//! (`μ ← μ − deg(v)` on each removal).

use dsd_graph::Graph;
use dsd_motif::Pattern;

use crate::substrates::Substrates;
use crate::types::DsdResult;

/// Runs PeelApp: returns the densest residual subgraph `S*` seen while
/// greedily peeling minimum-degree vertices. Builds the substrates cold.
///
/// Guarantee: `ρ(S*, Ψ) ≥ ρopt / |VΨ|` (Lemma 10, generalizing Charikar's
/// 0.5-approximation for edges).
pub fn peel_app(g: &Graph, psi: &Pattern) -> DsdResult {
    Substrates::cold(g, psi).peel_app()
}

impl Substrates<'_> {
    /// PeelApp on this context's decomposition — the peel itself *is* the
    /// decomposition, so a warm call is O(|S*|). Empty when the graph
    /// holds no Ψ instance.
    pub fn peel_app(&self) -> DsdResult {
        let dec = self.decomposition();
        if dec.mu == 0 {
            return DsdResult::empty();
        }
        let mut vertices = dec.best_residual();
        vertices.sort_unstable();
        DsdResult {
            vertices,
            density: dec.best_density,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact;

    fn k_plus_fringe() -> Graph {
        let mut edges = Vec::new();
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                edges.push((u, v));
            }
        }
        edges.extend_from_slice(&[(6, 0), (7, 1), (8, 2), (6, 7), (7, 8)]);
        Graph::from_edges(9, &edges)
    }

    #[test]
    fn approximation_guarantee_holds() {
        let g = k_plus_fringe();
        for psi in [
            Pattern::edge(),
            Pattern::triangle(),
            Pattern::clique(4),
            Pattern::two_star(),
            Pattern::diamond(),
        ] {
            let approx = peel_app(&g, &psi);
            let (opt, _) = exact(&g, &psi);
            let ratio_floor = opt.density / psi.vertex_count() as f64;
            assert!(
                approx.density + 1e-9 >= ratio_floor,
                "{}: {} < {}",
                psi.name(),
                approx.density,
                ratio_floor
            );
            assert!(
                approx.density <= opt.density + 1e-9,
                "approx beats optimum?"
            );
        }
    }

    #[test]
    fn peel_finds_clique_exactly_when_clique_dominates() {
        let g = k_plus_fringe();
        let r = peel_app(&g, &Pattern::edge());
        // Greedy peeling strips the fringe before touching the K6.
        assert_eq!(r.vertices, vec![0, 1, 2, 3, 4, 5]);
        assert!((r.density - 2.5).abs() < 1e-9);
    }

    #[test]
    fn empty_on_no_instances() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(peel_app(&g, &Pattern::triangle()).is_empty());
    }
}
