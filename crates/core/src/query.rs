//! Section 6.3's CDS variant: the densest subgraph **containing a set of
//! query vertices** Q (edge-density), located via cores.
//!
//! Steps, following the paper's sketch with CoreExact's locating bound:
//! (1) classical core decomposition; `x` = minimum core number over Q, so
//! the x-core contains Q and has density ≥ x/2 — the paper's lower bound
//! on the constrained optimum ρ_Q; (2) one *Q-pinned* min-degree peel
//! (Q is never removed) gives every vertex its Q-anchored core number and
//! the best residual density l̃ — the edge density of a real Q-containing
//! set, so l̃ ≤ ρ_Q, the way PeelApp's ρ′ bounds CoreExact's Pruning1;
//! (3) locate the answer inside a Q-anchored core: every maximiser of
//! `e(S) − α|S|` over `S ⊇ Q` gives each of its vertices outside Q at
//! least α neighbours in S, so it lies in the Q-anchored ⌈α⌉-core and a
//! network cut down to that core has the same min-cut sides;
//! (4) α-search with a *pinned* Goldberg network (`s→q` capacity ∞ for
//! `q ∈ Q`, forcing Q into the source side of every min cut), riding the
//! shared [`mod@crate::alpha_search`] loop. The pinned network is built
//! once and every probe runs through the parametric resolve machinery.
//!
//! The search starts from the pinned peel's bound. With `gap` the
//! Lemma-12 separation of the ⌈x/2⌉-anchored core, the seed cut is taken
//! at α = l = max(l̃ − gap/2, x/2), the network covers only the Q-anchored
//! ⌈l⌉-core, and the search witness-jumps from the seed's density
//! ([`FirstProbe::Lower`]). A seed or witness cut at α < ρ_Q whose density
//! is ρ_Q is the unique maximal densest Q-subgraph, so the answer is the
//! one a bisection over `[x/2, kmax]` finds. The x/2 floor only matters
//! when ρ_Q = x/2 (e.g. Q inside a regular component): the seed cut at
//! x/2 — the minimal densest Q-subgraph — has density exactly x/2, no
//! probe strictly beats it, and the seed is the bisection's answer too.
//!
//! **Steps 1–3 run once per (graph epoch, Q).** Their result — l, the
//! gap, kmax and the anchored core's members — is an immutable
//! `AnchoredRegion` record that the engine keeps beside the pinned network
//! it leads to. A warm repeat of the same query skips the core-number read
//! (kmax comes from the record), the pinned peel and the O(n) member scan,
//! and only builds the small induced subgraph its probes score witnesses on.

use std::sync::Arc;

use dsd_graph::{Graph, InducedSubgraph, VertexId, VertexSet};
use dsd_motif::Pattern;

use crate::alpha_search::{alpha_search, density_gap, DecisionProbe, ExactStats, FirstProbe};
use crate::bucket_queue::PeelQueue;
use crate::flownet::{build_query_network, DensityNetwork, Located, RegionKey};
use crate::substrates::Substrates;
use crate::types::DsdResult;

/// Finds the densest (edge-density) subgraph containing all of `query`,
/// peeling the classical core numbers cold.
///
/// Returns `None` when `query` is empty or contains out-of-range vertices.
pub fn densest_with_query(g: &Graph, query: &[VertexId]) -> Option<DsdResult> {
    Substrates::cold(g, &Pattern::edge())
        .densest_with_query(query)
        .map(|(r, ..)| r)
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

/// The Q-pinned min-degree peel: vertices outside Q are removed in
/// min-degree order, Q never. Returns each vertex's Q-anchored core number
/// (`usize::MAX` for Q, so the Q-anchored k-core is `{v : core[v] ≥ k}`)
/// and the best edge density over the residual graphs, every one of which
/// contains Q.
fn pinned_peel(g: &Graph, is_query: &[bool]) -> (Vec<usize>, f64) {
    let n = g.num_vertices();
    let mut deg = g.degrees();
    let mut core = vec![usize::MAX; n];
    let mut queue = PeelQueue::new(g.max_degree() as u64);
    for v in g.vertices().filter(|&v| !is_query[v as usize]) {
        queue.push(deg[v as usize] as u64, v);
    }
    let (mut edges, mut size) = (g.num_edges(), n);
    let mut best = edges as f64 / size as f64;
    let mut running_k = 0;
    while let Some((d, v)) = queue.pop() {
        let d = d as usize;
        if core[v as usize] != usize::MAX || d != deg[v as usize] {
            continue; // peeled already, or a stale queue entry
        }
        running_k = running_k.max(d);
        core[v as usize] = running_k;
        for &u in g.neighbors(v) {
            if core[u as usize] == usize::MAX {
                deg[u as usize] -= 1;
                if !is_query[u as usize] {
                    queue.push(deg[u as usize] as u64, u);
                }
            }
        }
        edges -= d;
        size -= 1;
        best = best.max(edges as f64 / size as f64);
    }
    (core, best)
}

/// The query variant's located region for one normalised Q (steps 1–3
/// of the module docs): the search's lower bound and gap, kmax, and the
/// Q-anchored ⌈l⌉-core the pinned network covers. It depends only on the
/// graph epoch and Q, so the engine keeps it beside the pinned network.
#[derive(Debug)]
pub(crate) struct AnchoredRegion {
    l: f64,
    gap: f64,
    kmax: u64,
    /// The anchored core, ascending; it contains Q.
    members: Vec<VertexId>,
}

impl AnchoredRegion {
    /// Steps 1–3 for the normalised `query` on `s`'s graph, located in
    /// its classical core numbers (the edge pattern's decomposition).
    fn locate(s: &Substrates, query: &[VertexId]) -> Self {
        let (g, cores) = (s.graph(), s.edge_cores());
        let x = query
            .iter()
            .map(|&q| cores.core[q as usize])
            .min()
            .expect("query non-empty");
        let mut is_query = vec![false; g.num_vertices()];
        for &q in query {
            is_query[q as usize] = true;
        }
        let (anchored_core, peel_bound) = pinned_peel(g, &is_query);

        // Locate half a gap below l̃: there the seed cut is the maximal
        // densest Q-subgraph whenever l̃ = ρ_Q (at l̃ itself nothing would
        // strictly beat α). The x/2 floor keeps the minimal densest seed when
        // ρ_Q = x/2.
        let gap = density_gap(
            anchored_core
                .iter()
                .filter(|&&c| c >= x.div_ceil(2) as usize)
                .count(),
        );
        let l = (peel_bound - gap / 2.0).max(x as f64 / 2.0);
        let k = l.ceil() as usize;
        let members = g
            .vertices()
            .filter(|&v| anchored_core[v as usize] >= k)
            .collect();
        AnchoredRegion {
            l,
            gap,
            kmax: cores.kmax,
            members,
        }
    }

    /// Resident heap bytes of the record.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.members.len() * std::mem::size_of::<VertexId>()
    }
}

impl Substrates<'_> {
    /// The densest edge-density subgraph containing all of `query`, plus
    /// the α-search instrumentation and the graph's classical kmax,
    /// located in this context's classical core numbers. Ψ plays no part:
    /// the variant is defined for edge density. Returns `None` when
    /// `query` is empty or contains out-of-range vertices.
    ///
    /// The query is normalised (sorted, duplicates dropped) first, so
    /// `[a, b]`, `[b, a]` and `[a, a, b]` share one answer, one located
    /// region and one cached network. The anchored region is the lender's
    /// record when one is resident, so a repeat query reads neither the
    /// core numbers nor the graph outside it. The pinned network is borrowed
    /// from the lender — keyed by the anchored-core member set *and* the
    /// pinned query set — when a warm one is resident, and returned
    /// afterwards, so repeat queries warm-resolve.
    pub fn densest_with_query(&self, query: &[VertexId]) -> Option<(DsdResult, ExactStats, u64)> {
        let (g, lender) = (self.graph(), self.lender());
        let n = g.num_vertices();
        if query.is_empty() || query.iter().any(|&q| q as usize >= n) {
            return None;
        }
        let mut query = query.to_vec();
        query.sort_unstable();
        query.dedup();
        let region = match self.located(&RegionKey::Query(&query), || {
            Located::Query(Arc::new(AnchoredRegion::locate(self, &query)))
        }) {
            Located::Query(region) => region,
            Located::Core(_) => unreachable!("a lender answers a query key with a query record"),
        };
        let (l, gap) = (region.l, region.gap);
        let sub = InducedSubgraph::new(g, &region.members);
        let local_query: Vec<VertexId> = query
            .iter()
            .filter_map(|q| sub.orig.binary_search(q).ok())
            .map(|i| i as VertexId)
            .collect();
        debug_assert_eq!(local_query.len(), query.len());

        // α-search with the pinned network, built once for the whole probe
        // sequence. The seed cut at l is a Q-containing answer in its own
        // right (the answer itself when ρ_Q = x/2) and checkpoints the
        // parametric chain — every later probe has α ≥ l.
        let u = region.kmax as f64;
        let mut stats = ExactStats {
            initial_bounds: (l, u),
            ..ExactStats::default()
        };
        let mut net = match lender.and_then(|l| l.take(&sub.orig, &query)) {
            Some(net) => net,
            None => build_query_network(&sub.graph, &local_query),
        };
        stats.iterations += 1;
        stats.network_nodes.push(net.num_nodes());
        let seed = net.min_cut_side(l);
        net.checkpoint();
        let lower = edge_density(&sub.graph, &seed);
        let outcome = {
            let mut probe = QueryProbe {
                net: &mut net,
                g: &sub.graph,
            };
            alpha_search(
                &mut probe,
                (lower, u),
                FirstProbe::Lower,
                gap,
                usize::MAX,
                &mut stats,
            )
        };
        stats.absorb_flow(net.probe_stats());
        if let Some(l) = lender {
            l.put(&sub.orig, &query, net);
        }

        let side = outcome.witness.unwrap_or(seed);
        let mut vertices: Vec<VertexId> = side.iter().map(|&v| sub.to_parent(v)).collect();
        vertices.sort_unstable();
        Some((
            DsdResult {
                density: edge_density(&sub.graph, &side),
                vertices,
            },
            stats,
            region.kmax,
        ))
    }
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

    /// The query variant on a cold context, with its search stats.
    fn with_stats(g: &Graph, query: &[VertexId]) -> Option<(DsdResult, ExactStats)> {
        Substrates::cold(g, &Pattern::edge())
            .densest_with_query(query)
            .map(|(r, stats, _)| (r, stats))
    }

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

    /// Repeated and reordered query vertices name the same Q: the same
    /// answer and stats as the normalised query (a debug build used to
    /// trip the pinned-count assert on a duplicate).
    #[test]
    fn duplicate_and_reordered_query_vertices_are_one_query() {
        let g = two_cliques();
        for (plain, variants) in [
            (vec![9], vec![vec![9, 9], vec![9, 9, 9]]),
            (
                vec![0, 9],
                vec![vec![9, 0], vec![0, 0, 9], vec![9, 0, 9, 0]],
            ),
        ] {
            let (want, want_stats) = with_stats(&g, &plain).unwrap();
            for q in variants {
                let (got, stats) = with_stats(&g, &q).unwrap();
                assert_eq!(got.vertices, want.vertices, "{q:?}");
                assert_eq!(got.density.to_bits(), want.density.to_bits(), "{q:?}");
                assert_eq!(stats.network_nodes, want_stats.network_nodes, "{q:?}");
            }
        }
    }

    /// K8 {0..7} beside a 20-cycle {8..27}, queried at cycle vertex 8:
    /// x = 2, so the x/2 bound keeps the whole 1-core, but the pinned peel
    /// finds K8 ∪ {8} (ρ_Q = 28/9) and the network covers only that set.
    /// A tied query seeds at x/2.
    #[test]
    fn peel_bound_narrows_the_pinned_network() {
        let mut edges = Vec::new();
        for u in 0..8u32 {
            for v in (u + 1)..8 {
                edges.push((u, v));
            }
        }
        for i in 0..20u32 {
            edges.push((8 + i, 8 + (i + 1) % 20));
        }
        let g = Graph::from_edges(28, &edges);
        let (r, stats) = with_stats(&g, &[8]).unwrap();
        assert_eq!(r.vertices, (0..9).collect::<Vec<_>>());
        assert_eq!(r.density.to_bits(), (28.0f64 / 9.0).to_bits());
        // The searched bracket starts just below the peel bound, not at
        // x/2 = 1.
        let (l, u) = stats.initial_bounds;
        assert!(l > 3.0 && l < 28.0 / 9.0, "lower bound {l}");
        assert_eq!(u, 7.0);
        // 9 vertices plus s and t instead of all 28 plus s and t.
        assert!(stats.network_nodes.iter().all(|&nodes| nodes == 11));
        // The seed cut is already optimal: one certifying probe follows.
        assert_eq!(stats.iterations, 2);

        // With ρ_Q = x/2 (Q inside K5, x = 4) the seed is taken at x/2 and
        // is the answer.
        let g = two_cliques();
        let (r, stats) = with_stats(&g, &[0]).unwrap();
        assert_eq!(r.vertices, vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.initial_bounds, (2.0, 4.0));
    }

    /// The pinned-network probe sequence genuinely reuses flow state: all
    /// probes after the seed warm-resolve.
    #[test]
    fn parametric_reuse_after_seed_probe() {
        let g = two_cliques();
        for q in [vec![0], vec![9], vec![0, 9]] {
            let (_, s) = with_stats(&g, &q).unwrap();
            assert!(s.iterations >= 2, "{q:?}");
            assert_eq!(
                s.resolve_hits,
                s.iterations - 1,
                "{q:?}: every probe after the seed must warm-resolve"
            );
        }
    }
}
