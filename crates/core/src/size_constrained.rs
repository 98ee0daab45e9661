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
//!   vertices. The machinery is exactly Algorithm 3's peel with a
//!   different density tracker, so the fallback replays the shared
//!   decomposition's peel order; the same schedule generalizes to any Ψ
//!   (with the guarantee proved for edges).
//! * **at-most-k** (DamkS) is as hard as densest-k-subgraph; the fallback
//!   is the natural core-guided greedy heuristic the paper's framework
//!   suggests — locate the best core, then trim minimum-degree vertices
//!   to size — with no approximation claim.

use dsd_graph::{Graph, VertexId, VertexSet};
use dsd_motif::pattern::PatternKind;
use dsd_motif::Pattern;

use crate::alpha_search::ExactStats;
use crate::clique_core::CliqueCoreDecomposition;
use crate::core_exact::CoreExactConfig;
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
    /// back to replaying the decomposition's peel order without
    /// re-peeling. Returns `None` when `k` is 0 or exceeds the vertex
    /// count, before reading any substrate.
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
        let (oracle, dec) = (self.oracle(), self.decomposition());
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
        // are those with ≥ k vertices, i.e. the first n−k+1 suffixes.
        let order = &dec.peel_order;
        let mut best: Option<(f64, usize)> = None;
        // Recompute μ along the peel by replaying degree-at-removal sums:
        // μ_suffix(i) = μ − Σ_{j<i} deg_at_removal(j). The decomposition
        // doesn't store deg-at-removal, so rebuild densities directly —
        // starting from the initial degrees the decomposition already
        // computed (a full oracle degree pass is the dominant cost here).
        let mut alive = VertexSet::full(n);
        let mut deg = dec.degrees.clone();
        let mut mu: u64 = dec.mu;
        // Indexed loop: `i` is simultaneously a position in `order` and the
        // number of peeled vertices, so enumerate() would obscure the math.
        #[allow(clippy::needless_range_loop)]
        for i in 0..=n.saturating_sub(k) {
            let size = n - i;
            if size >= k && size > 0 {
                let rho = mu as f64 / size as f64;
                if best.map(|(b, _)| rho > b).unwrap_or(true) {
                    best = Some((rho, i));
                }
            }
            if i == n - k {
                break;
            }
            let v = order[i];
            for (u, amount) in oracle.removal_decrements(g, &alive, v) {
                deg[u as usize] -= amount.min(deg[u as usize]);
            }
            mu -= deg[v as usize].min(mu);
            alive.remove(v);
        }
        let (rho, suffix) = best?;
        let mut vertices: Vec<VertexId> = order[suffix..].to_vec();
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
    dec.core_set(bounds.locate_k.max(1)).len()
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
        let n = g.num_vertices();
        let mut alive = VertexSet::from_members(n, &start);
        let mut deg = oracle.degrees(g, &alive);
        let mut mu: u64 = deg.iter().sum::<u64>() / psi.vertex_count() as u64;
        let mut best: Option<(f64, Vec<VertexId>)> = None;
        loop {
            if alive.len() <= k && !alive.is_empty() {
                let rho = mu as f64 / alive.len() as f64;
                if best.as_ref().map(|(b, _)| rho > *b).unwrap_or(true) {
                    best = Some((rho, alive.to_vec()));
                }
            }
            if alive.len() <= 1 {
                break;
            }
            let v = alive
                .iter()
                .min_by_key(|&v| deg[v as usize])
                .expect("non-empty");
            for (u, amount) in oracle.removal_decrements(g, &alive, v) {
                deg[u as usize] -= amount.min(deg[u as usize]);
            }
            mu -= deg[v as usize].min(mu);
            alive.remove(v);
        }
        let (rho, mut vertices) = best?;
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
