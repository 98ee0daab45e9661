//! Section 6.3's CDS variant: the densest subgraph **containing a set of
//! query vertices** Q (edge-density), located via cores.
//!
//! Steps, following the paper's sketch: (1) classical core decomposition;
//! (2) `x` = minimum core number over Q, so the x-core contains Q and has
//! density ≥ x/2 — a lower bound on the constrained optimum; (3) locate the
//! answer inside a *Q-anchored* ⌈x/2⌉-core (peeling never removes Q); (4)
//! α-search with a *pinned* Goldberg network (`s→q` capacity ∞ for
//! `q ∈ Q`, forcing Q into the source side of every min cut), riding the
//! shared [`mod@crate::alpha_search`] loop from the midpoint of
//! `[x/2, kmax]`. The pinned network is built once and every probe runs
//! through the parametric resolve machinery.

use dsd_graph::{Graph, InducedSubgraph, VertexId, VertexSet};

use crate::alpha_search::{alpha_search, density_gap, DecisionProbe, ExactStats, FirstProbe};
use crate::flownet::{build_query_network, DensityNetwork, NetworkLender};
use crate::kcore::{k_core_decomposition, KCoreDecomposition};
use crate::types::DsdResult;

/// Finds the densest (edge-density) subgraph containing all of `query`.
///
/// Returns `None` when `query` is empty or contains out-of-range vertices.
pub fn densest_with_query(g: &Graph, query: &[VertexId]) -> Option<DsdResult> {
    let cores = k_core_decomposition(g);
    densest_with_query_from(g, query, &cores).map(|(r, _)| r)
}

/// The pinned-network probe: the min cut always keeps Q on the source
/// side (the ∞ pins make `S = {s}` impossible), so feasibility is decided
/// by the returned side's edge density strictly beating α.
/// Feasible probes checkpoint the flow state for the parametric chain.
struct QueryProbe<'a> {
    net: &'a mut DensityNetwork,
    g: &'a Graph,
}

impl DecisionProbe for QueryProbe<'_> {
    type Witness = Vec<VertexId>;

    fn probe(&mut self, alpha: f64) -> Option<(Vec<VertexId>, f64)> {
        let g = self.g;
        self.net.solve_beating(alpha, |side| edge_density(g, side))
    }

    fn network_nodes(&self) -> usize {
        self.net.num_nodes()
    }
}

/// [`densest_with_query`] against a caller-provided (possibly warm)
/// classical core decomposition. Also
/// returns the α-search instrumentation (probe counts, flow reuse).
pub fn densest_with_query_from(
    g: &Graph,
    query: &[VertexId],
    cores: &KCoreDecomposition,
) -> Option<(DsdResult, ExactStats)> {
    densest_with_query_lender(g, query, cores, None)
}

/// [`densest_with_query_from`] with a network lender: the pinned network
/// is borrowed from the lender's cache — keyed by the anchored-core
/// member set *and* the pinned query set — when a warm one is resident,
/// and returned afterwards. The Q-anchored peel re-derives the same
/// member set on an unchanged graph, so repeat queries warm-resolve.
pub(crate) fn densest_with_query_lender(
    g: &Graph,
    query: &[VertexId],
    cores: &KCoreDecomposition,
    lender: Option<&dyn NetworkLender>,
) -> Option<(DsdResult, ExactStats)> {
    let n = g.num_vertices();
    if query.is_empty() || query.iter().any(|&q| q as usize >= n) {
        return None;
    }
    let x = query
        .iter()
        .map(|&q| cores.core[q as usize])
        .min()
        .expect("query non-empty");
    let k = x.div_ceil(2);

    // Q-anchored k-core: peel non-query vertices with degree < k.
    let mut alive = VertexSet::full(n);
    let is_query = {
        let mut mask = vec![false; n];
        for &q in query {
            mask[q as usize] = true;
        }
        mask
    };
    let mut deg: Vec<usize> = g.degrees();
    let mut stack: Vec<VertexId> = alive
        .iter()
        .filter(|&v| !is_query[v as usize] && deg[v as usize] < k as usize)
        .collect();
    while let Some(v) = stack.pop() {
        if !alive.contains(v) {
            continue;
        }
        alive.remove(v);
        for &u in g.neighbors(v) {
            if alive.contains(u) {
                deg[u as usize] -= 1;
                if !is_query[u as usize] && deg[u as usize] < k as usize {
                    stack.push(u);
                }
            }
        }
    }

    let sub = InducedSubgraph::from_set(g, &alive);
    let local_query: Vec<VertexId> = sub
        .orig
        .iter()
        .enumerate()
        .filter(|(_, &v)| is_query[v as usize])
        .map(|(i, _)| i as VertexId)
        .collect();
    debug_assert_eq!(local_query.len(), query.len());

    // α-search with the pinned network, built once for the whole probe
    // sequence. The seed probe at l both captures the x-core-quality
    // answer (robust when no strictly-denser subgraph exists) and
    // checkpoints the parametric chain — every later probe has α > l.
    // The search itself starts from the midpoint: witness jumps from the
    // weak x/2 bound would first cut off large low-density sides.
    let l = x as f64 / 2.0;
    let u = cores.kmax as f64;
    let mut stats = ExactStats {
        initial_bounds: (l, u),
        ..ExactStats::default()
    };
    let mut net = match lender.and_then(|l| l.take(&sub.orig, query)) {
        Some(net) => net,
        None => build_query_network(&sub.graph, &local_query),
    };
    stats.iterations += 1;
    stats.network_nodes.push(net.num_nodes());
    let seed = net.min_cut_side(l);
    net.checkpoint();
    let mut best = if seed.is_empty() { None } else { Some(seed) };

    let gap = density_gap(sub.graph.num_vertices());
    let outcome = {
        let mut probe = QueryProbe {
            net: &mut net,
            g: &sub.graph,
        };
        alpha_search(
            &mut probe,
            (l, u),
            FirstProbe::Midpoint,
            gap,
            usize::MAX,
            &mut stats,
        )
    };
    if let Some(side) = outcome.witness {
        best = Some(side);
    }
    stats.absorb_flow(net.probe_stats());
    if let Some(l) = lender {
        l.put(&sub.orig, query, net);
    }

    let side = best?;
    let mut vertices: Vec<VertexId> = side.iter().map(|&v| sub.to_parent(v)).collect();
    vertices.sort_unstable();
    Some((
        DsdResult {
            density: edge_density(&sub.graph, &side),
            vertices,
        },
        stats,
    ))
}

/// Edge density of `g[members]` — the probe's witness score and the
/// answer's density alike.
fn edge_density(g: &Graph, members: &[VertexId]) -> f64 {
    induced_edges(g, members) as f64 / members.len() as f64
}

fn induced_edges(g: &Graph, members: &[VertexId]) -> usize {
    let set = VertexSet::from_members(g.num_vertices(), members);
    set.iter()
        .map(|v| {
            g.neighbors(v)
                .iter()
                .filter(|&&u| u > v && set.contains(u))
                .count()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cliques joined by a path: K5 {0..4} — 5-6 — K4 {7..10}.
    fn two_cliques() -> Graph {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        for u in 7..11u32 {
            for v in (u + 1)..11 {
                edges.push((u, v));
            }
        }
        edges.extend_from_slice(&[(4, 5), (5, 6), (6, 7)]);
        Graph::from_edges(11, &edges)
    }

    #[test]
    fn unconstrained_query_in_dense_part_returns_that_clique() {
        let g = two_cliques();
        let r = densest_with_query(&g, &[0]).unwrap();
        assert_eq!(r.vertices, vec![0, 1, 2, 3, 4]);
        assert!((r.density - 2.0).abs() < 1e-9);
    }

    #[test]
    fn query_in_sparse_part_forces_inclusion() {
        let g = two_cliques();
        let r = densest_with_query(&g, &[9]).unwrap();
        assert!(r.vertices.contains(&9));
        // Subgraphs may be disconnected: best with vertex 9 is K5 ∪ K4 at
        // (10 + 6) / 9 edges per vertex.
        assert_eq!(r.vertices, vec![0, 1, 2, 3, 4, 7, 8, 9, 10]);
        assert!((r.density - 16.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn query_spanning_both_cliques() {
        let g = two_cliques();
        let r = densest_with_query(&g, &[0, 9]).unwrap();
        assert!(r.vertices.contains(&0) && r.vertices.contains(&9));
        assert!(
            (r.density - 16.0 / 9.0).abs() < 1e-9,
            "density {}",
            r.density
        );
    }

    #[test]
    fn brute_force_validation_on_small_graph() {
        // 6-vertex graph; check optimal density over all subsets ⊇ {q}.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        for q in 0..6u32 {
            let r = densest_with_query(&g, &[q]).unwrap();
            let mut best = 0.0f64;
            for mask in 1u32..(1 << 6) {
                if mask & (1 << q) == 0 {
                    continue;
                }
                let members: Vec<VertexId> = (0..6).filter(|&v| mask & (1 << v) != 0).collect();
                let m_in = induced_edges(&g, &members);
                best = best.max(m_in as f64 / members.len() as f64);
            }
            assert!(
                (r.density - best).abs() < 1e-6,
                "q = {q}: got {} want {}",
                r.density,
                best
            );
        }
    }

    #[test]
    fn invalid_queries() {
        let g = two_cliques();
        assert!(densest_with_query(&g, &[]).is_none());
        assert!(densest_with_query(&g, &[99]).is_none());
    }

    /// The pinned-network probe sequence genuinely reuses flow state: all
    /// probes after the seed warm-resolve.
    #[test]
    fn parametric_reuse_after_seed_probe() {
        let g = two_cliques();
        let cores = k_core_decomposition(&g);
        for q in [vec![0], vec![9], vec![0, 9]] {
            let (_, s) = densest_with_query_from(&g, &q, &cores).unwrap();
            assert!(s.iterations >= 2, "{q:?}");
            assert_eq!(
                s.resolve_hits,
                s.iterations - 1,
                "{q:?}: every probe after the seed must warm-resolve"
            );
        }
    }
}
