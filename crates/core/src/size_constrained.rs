//! Size-constrained densest subgraph — the paper's named future-work item
//! ("we will also extend our core-based algorithms for finding densest
//! subgraphs with size constraints").
//!
//! Both variants now try an **exact fast path through the shared
//! [`mod@crate::alpha_search`] framework first**: run `CoreExact` for the
//! unconstrained optimum `D`; whenever `D` already satisfies the size
//! constraint (`|D| ≥ k` for DalkS, `|D| ≤ k` for DamkS) it *is* the
//! constrained optimum — the constrained optimum can never beat the
//! unconstrained one, and `D` is feasible. The attempt is made for
//! clique Ψ (including edges), where the located-core flow phase is
//! near-free next to the decomposition the caller already holds; for
//! general patterns the Algorithm-7 `construct+` network would
//! re-enumerate instances inside the core — easily the dominant cost of
//! an otherwise-approximate request — so those keep the greedy paths
//! outright. When the constraint excludes `D` (or Ψ is a general
//! pattern), the greedy machinery answers:
//!
//! * **at-least-k** (DalkS: maximize ρ subject to `|S| ≥ k`) is NP-hard
//!   in general but admits a 1/3-approximation by greedy peeling
//!   (Andersen & Chellapilla 2009): peel minimum-degree vertices and
//!   return the best residual graph among those with at least `k`
//!   vertices. That peel is Algorithm 3's, and the shared decomposition
//!   records the instance count of every residual graph
//!   ([`CliqueCoreDecomposition::residual_mu`]) and where the running
//!   maximum of their densities rises, so the fallback is an O(log n)
//!   lookup ([`CliqueCoreDecomposition::densest_suffix`]) with no re-peel
//!   and no profile scan; only copying and sorting the answer is linear
//!   in its size. The same schedule generalizes to any Ψ (with the
//!   guarantee proved for edges).
//! * **at-most-k** (DamkS) is as hard as densest-k-subgraph; the fallback
//!   is the natural core-guided greedy heuristic the paper's framework
//!   suggests — start from PeelApp's densest residual graph, then trim
//!   minimum-degree vertices to size ([`greedy_trim`]) — with no
//!   approximation claim. The trim is its own peel, not a profile scan:
//!   it pops the smallest id among the minimum-degree vertices, a tie
//!   order the decomposition's bucket queue does not promise.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dsd_graph::{Graph, VertexId, VertexSet};
use dsd_motif::pattern::PatternKind;
use dsd_motif::Pattern;

use crate::alpha_search::ExactStats;
use crate::clique_core::{peeler_for, CliqueCoreDecomposition};
use crate::core_exact::CoreExactConfig;
use crate::oracle::DensityOracle;
use crate::substrates::Substrates;
use crate::types::DsdResult;

/// A size-constrained solve: the subgraph plus how it was certified.
#[derive(Clone, Debug)]
pub struct SizeConstrainedOutcome {
    /// The best subgraph found.
    pub result: DsdResult,
    /// Whether the exact fast path applied: the unconstrained optimum
    /// satisfied the size constraint, so `result` is certified optimal
    /// (up to the config's tolerance/budget). `false` means the greedy
    /// fallback answered (1/3-approximate for DalkS on edges, heuristic
    /// otherwise).
    pub exact: bool,
    /// α-search instrumentation of the exact attempt (probe counts, flow
    /// reuse) — populated on the fallback paths too, which still paid for
    /// the attempt.
    pub stats: ExactStats,
}

/// Densest subgraph with **at least** `k` vertices (DalkS).
///
/// Exact for clique Ψ when the unconstrained CDS has ≥ `k` vertices;
/// otherwise greedy peel (1/3-approximation for Ψ = edge per
/// Andersen–Chellapilla, heuristic quality for other Ψ). Returns `None`
/// when `k` is 0 or exceeds the vertex count.
pub fn densest_at_least_k(g: &Graph, psi: &Pattern, k: usize) -> Option<DsdResult> {
    Substrates::cold(g, psi)
        .densest_at_least_k(k, CoreExactConfig::default())
        .map(|o| o.result)
}

impl Substrates<'_> {
    /// [`densest_at_least_k`] on this context's substrates: tries the
    /// exact fast path (a `CoreExact` α-search under `config`), then falls
    /// back to looking the answer up in the decomposition's running
    /// density maxima. Returns
    /// `None` when `k` is 0 or exceeds the vertex count, before reading
    /// any substrate.
    pub fn densest_at_least_k(
        &self,
        k: usize,
        config: CoreExactConfig,
    ) -> Option<SizeConstrainedOutcome> {
        let (g, psi) = (self.graph(), self.pattern());
        let n = g.num_vertices();
        if k > n || k == 0 {
            return None;
        }
        let dec = self.decomposition();
        // Exact fast path (clique Ψ): the unconstrained optimum bounds the
        // constrained one from above and is feasible when it meets the floor.
        // Skipped outright when the located core (which contains the CDS,
        // Lemma 7) is already below the floor — the fast path provably can't
        // fire, so don't pay its α-search just to discard it.
        let mut stats = ExactStats::default();
        if matches!(psi.kind(), PatternKind::Clique(_)) && located_core_len(dec, psi, config) >= k {
            let (cds, ces) = self.core_exact(config);
            if cds.len() >= k {
                return Some(SizeConstrainedOutcome {
                    result: cds,
                    exact: true,
                    stats: ces.exact,
                });
            }
            stats = ces.exact;
        }
        // Residual graphs are suffixes of the peel order; the feasible ones
        // are the first n−k+1. Only TopK residual rounds decompose less than
        // the whole graph, and they never ask for DalkS.
        debug_assert_eq!(dec.peel_order.len(), n, "DalkS needs a whole-graph peel");
        let (suffix, rho) = dec.densest_suffix(k)?;
        let mut vertices: Vec<VertexId> = dec.peel_order[suffix..].to_vec();
        vertices.sort_unstable();
        Some(SizeConstrainedOutcome {
            result: DsdResult {
                vertices,
                density: rho,
            },
            exact: false,
            stats,
        })
    }
}

/// Size of the `(k″, Ψ)`-core CoreExact would locate the CDS in — an
/// upper bound on `|CDS|` (Lemma 7), used to prove a DalkS fast path
/// hopeless before paying for its α-search.
fn located_core_len(
    dec: &CliqueCoreDecomposition,
    psi: &Pattern,
    config: CoreExactConfig,
) -> usize {
    let bounds = crate::bounds::density_bounds(dec, psi.vertex_count(), config.pruning1);
    dec.core_suffix(bounds.locate_k.max(1)).len()
}

/// Densest subgraph with **at most** `k` vertices (DamkS).
///
/// Exact for clique Ψ when the unconstrained CDS has ≤ `k` vertices;
/// otherwise the core-guided greedy trim with no approximation guarantee
/// (the problem is densest-k-subgraph-hard).
pub fn densest_at_most_k(g: &Graph, psi: &Pattern, k: usize) -> Option<DsdResult> {
    Substrates::cold(g, psi)
        .densest_at_most_k(k, CoreExactConfig::default())
        .map(|o| o.result)
}

impl Substrates<'_> {
    /// [`densest_at_most_k`] on this context's substrates: tries the
    /// exact fast path, then the greedy trim. Returns `None` when `k` is
    /// 0, before reading any substrate.
    pub fn densest_at_most_k(
        &self,
        k: usize,
        config: CoreExactConfig,
    ) -> Option<SizeConstrainedOutcome> {
        if k == 0 {
            return None;
        }
        let (g, psi, oracle) = (self.graph(), self.pattern(), self.oracle());
        // Exact fast path (clique Ψ): a non-empty unconstrained optimum
        // within the cap is the constrained optimum.
        let mut stats = ExactStats::default();
        if matches!(psi.kind(), PatternKind::Clique(_)) {
            let (cds, ces) = self.core_exact(config);
            if !cds.is_empty() && cds.len() <= k {
                return Some(SizeConstrainedOutcome {
                    result: cds,
                    exact: true,
                    stats: ces.exact,
                });
            }
            stats = ces.exact;
        }
        // Start from the densest residual graph (PeelApp's S*), the best
        // unconstrained greedy answer, then trim.
        let start = self.decomposition().best_residual();
        greedy_trim(g, oracle, &start, k).map(|result| SizeConstrainedOutcome {
            result,
            exact: false,
            stats,
        })
    }
}

/// DamkS's greedy fallback: peels minimum-degree vertices of `g[start]`
/// one at a time, down to a single vertex, and returns the densest
/// intermediate set with at most `k` vertices (the earliest on ties).
/// Among minimum-degree vertices the smallest id goes first. `None` when
/// `start` is empty or `k` is 0.
pub fn greedy_trim(
    g: &Graph,
    oracle: &dyn DensityOracle,
    start: &[VertexId],
    k: usize,
) -> Option<DsdResult> {
    let n = g.num_vertices();
    let mut alive = VertexSet::from_members(n, start);
    let mut peeler = peeler_for(g, oracle, &alive);
    let mut deg = peeler.degrees();
    let mut mu: u64 = deg.iter().sum::<u64>() / oracle.psi_size() as u64;
    // Lazy min-heap over (degree, id): the first entry that still matches
    // its vertex's degree is the smallest id of minimum degree.
    let mut heap: BinaryHeap<Reverse<(u64, VertexId)>> = alive
        .iter()
        .map(|v| Reverse((deg[v as usize], v)))
        .collect();
    let mut trimmed = Vec::with_capacity(alive.len());
    let mut best: Option<(f64, usize)> = None;
    loop {
        if alive.len() <= k && !alive.is_empty() {
            let rho = mu as f64 / alive.len() as f64;
            if best.is_none_or(|(b, _)| rho > b) {
                best = Some((rho, trimmed.len()));
            }
        }
        if alive.len() <= 1 {
            break;
        }
        let v = loop {
            let Reverse((d, v)) = heap.pop().expect("every live vertex has a current entry");
            if alive.contains(v) && d == deg[v as usize] {
                break v;
            }
        };
        peeler.remove(v, &mut |u, amount| {
            debug_assert!(amount <= deg[u as usize], "decrement exceeds degree");
            deg[u as usize] -= amount;
            heap.push(Reverse((deg[u as usize], u)));
        });
        debug_assert!(deg[v as usize] <= mu, "degree exceeds instance count");
        mu -= deg[v as usize];
        alive.remove(v);
        trimmed.push(v);
    }
    let (density, cut) = best?;
    let mut kept = VertexSet::from_members(n, start);
    for &v in &trimmed[..cut] {
        kept.remove(v);
    }
    Some(DsdResult {
        vertices: kept.to_vec(),
        density,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact;
    use crate::oracle::{density, oracle_for};
    use dsd_graph::GraphBuilder;

    fn k5_plus_path() -> Graph {
        let mut b = GraphBuilder::new(9);
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(4, 5);
        b.add_edge(5, 6);
        b.add_edge(6, 7);
        b.add_edge(7, 8);
        b.build()
    }

    #[test]
    fn at_least_k_matches_unconstrained_when_k_small() {
        let g = k5_plus_path();
        let psi = Pattern::edge();
        let r = densest_at_least_k(&g, &psi, 2).unwrap();
        // The unconstrained CDS (the K5) satisfies the floor: exact path.
        assert_eq!(r.vertices, vec![0, 1, 2, 3, 4]);
        assert!((r.density - 2.0).abs() < 1e-9);
    }

    #[test]
    fn at_least_k_respects_the_size_floor() {
        let g = k5_plus_path();
        let psi = Pattern::edge();
        for k in 2..=9usize {
            let r = densest_at_least_k(&g, &psi, k).unwrap();
            assert!(r.len() >= k, "k = {k}: got {} vertices", r.len());
        }
        assert!(densest_at_least_k(&g, &psi, 10).is_none());
        assert!(densest_at_least_k(&g, &psi, 0).is_none());
    }

    #[test]
    fn at_least_k_density_is_achieved() {
        let g = k5_plus_path();
        let psi = Pattern::edge();
        for k in 2..=8usize {
            let r = densest_at_least_k(&g, &psi, k).unwrap();
            let oracle = oracle_for(&psi);
            let set = VertexSet::from_members(9, &r.vertices);
            let rho = density(oracle.as_ref(), &g, &set);
            assert!((rho - r.density).abs() < 1e-9, "k = {k}");
        }
    }

    #[test]
    fn at_least_k_one_third_guarantee_for_edges() {
        // Andersen–Chellapilla: greedy ≥ opt/3. Check vs the unconstrained
        // optimum (an upper bound on the constrained one).
        let g = k5_plus_path();
        let psi = Pattern::edge();
        let (opt, _) = exact(&g, &psi);
        for k in 2..=6usize {
            let r = densest_at_least_k(&g, &psi, k).unwrap();
            assert!(
                r.density + 1e-9 >= opt.density / 3.0,
                "k = {k}: {} < {}",
                r.density,
                opt.density / 3.0
            );
        }
    }

    /// The exact fast path fires exactly when the unconstrained CDS fits
    /// the constraint, and then returns it verbatim.
    #[test]
    fn exact_fast_path_fires_on_feasible_cds() {
        let g = k5_plus_path();
        let psi = Pattern::edge();
        let s = Substrates::cold(&g, &psi);
        let (cds, _) = exact(&g, &psi);
        assert_eq!(cds.vertices.len(), 5);
        for k in 2..=9usize {
            let o = s.densest_at_least_k(k, CoreExactConfig::default()).unwrap();
            assert_eq!(o.exact, k <= 5, "k = {k}");
            if o.exact {
                assert_eq!(o.result.vertices, cds.vertices);
                assert!(o.stats.iterations > 0, "exact path must have probed");
            }
        }
        for k in 1..=9usize {
            let o = s.densest_at_most_k(k, CoreExactConfig::default()).unwrap();
            assert_eq!(o.exact, k >= 5, "k = {k}");
            if o.exact {
                assert_eq!(o.result.vertices, cds.vertices);
            }
        }
    }

    #[test]
    fn at_most_k_trims_to_size() {
        let g = k5_plus_path();
        let psi = Pattern::edge();
        for k in 1..=9usize {
            let r = densest_at_most_k(&g, &psi, k).unwrap();
            assert!(r.len() <= k, "k = {k}");
            assert!(!r.is_empty());
        }
        // k = 5 recovers the K5 exactly.
        let r5 = densest_at_most_k(&g, &psi, 5).unwrap();
        assert_eq!(r5.vertices, vec![0, 1, 2, 3, 4]);
        assert!(densest_at_most_k(&g, &psi, 0).is_none());
    }

    #[test]
    fn triangle_variant_runs() {
        let g = k5_plus_path();
        let psi = Pattern::triangle();
        let r = densest_at_least_k(&g, &psi, 6).unwrap();
        assert!(r.len() >= 6);
        // Adding the forced extra vertex dilutes density vs the pure K5.
        let unconstrained = densest_at_least_k(&g, &psi, 2).unwrap();
        assert!(r.density <= unconstrained.density + 1e-9);
    }
}
