//! Density bounds (Section 5.2) as a standalone, documented API.
//!
//! These are the inequalities everything else leans on:
//!
//! * **Theorem 1**: `k/|VΨ| ≤ ρ(Rk, Ψ) ≤ kmax` for every (k, Ψ)-core Rk;
//! * **Lemma 4**: removing any `U ⊆ V(D)` from the CDS `D` kills at least
//!   `ρopt · |U|` instances;
//! * **Lemma 5**: `ρopt ≤ kmax`;
//! * **Lemma 7**: the CDS lies inside the `(⌈ρopt⌉, Ψ)`-core;
//! * **Lemma 8**: the (kmax, Ψ)-core is a `1/|VΨ|`-approximation;
//! * **Lemma 12**: distinct subgraph densities differ by ≥ `1/(n(n−1))`.
//!
//! The functions here expose the bounds as queryable values so callers
//! (and tests) don't re-derive them inline.

use crate::clique_core::CliqueCoreDecomposition;

/// Bounds on ρopt derived from a (k, Ψ)-core decomposition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DensityBounds {
    /// Lower bound on ρopt (the best of `kmax/|VΨ|` and the peel's ρ′).
    pub lower: f64,
    /// Upper bound on ρopt (`kmax`, Lemma 5).
    pub upper: f64,
    /// Core order the CDS is guaranteed to lie within (Lemma 7 applied to
    /// the lower bound).
    pub locate_k: u64,
}

/// Computes [`DensityBounds`] from a decomposition.
///
/// `use_residual` additionally applies the peel's residual-density lower
/// bound ρ′ (Pruning1); without it only Theorem 1's `kmax/|VΨ|` is used.
pub fn density_bounds(
    dec: &CliqueCoreDecomposition,
    psi_size: usize,
    use_residual: bool,
) -> DensityBounds {
    let theorem1 = dec.kmax as f64 / psi_size as f64;
    let lower = if use_residual {
        dec.best_density.max(theorem1)
    } else {
        theorem1
    };
    DensityBounds {
        lower,
        upper: dec.kmax as f64,
        locate_k: locate_core_order(lower),
    }
}

/// Lemma 7 applied to an *achieved* lower bound `rho`: the CDS lies inside
/// the `(⌈rho⌉, Ψ)`-core. Safe for any `rho ≤ ρopt` because `⌈·⌉` is
/// monotone.
pub fn locate_core_order(rho: f64) -> u64 {
    if rho <= 0.0 {
        0
    } else {
        rho.ceil() as u64
    }
}

/// Lemma 12's separation: two distinct subgraph densities of an n-vertex
/// graph differ by at least `1/(n(n−1))` — the α-search stopping gap.
pub fn density_separation(n: usize) -> f64 {
    crate::exact::density_gap(n)
}

/// Lemma 8's guarantee: the worst-case ratio of the (kmax, Ψ)-core's
/// density to ρopt.
pub fn approximation_ratio(psi_size: usize) -> f64 {
    1.0 / psi_size as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clique_core::decompose;
    use crate::core_exact::core_exact;
    use crate::oracle::{density, oracle_for};
    use dsd_graph::Graph;
    use dsd_motif::Pattern;

    /// Figure 4(a): kmax = 2 with the lower bound attained — a 4-cycle has
    /// density 4/4 = 1 = kmax/|VΨ|.
    #[test]
    fn figure4a_lower_bound_attained() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let oracle = oracle_for(&Pattern::edge());
        let dec = decompose(&g, oracle.as_ref());
        assert_eq!(dec.kmax, 2);
        let rho = density(oracle.as_ref(), &g, &dec.max_core());
        assert!((rho - 1.0).abs() < 1e-12, "4-cycle attains k/|VΨ| exactly");
    }

    /// Figure 4(b): the x-th graph in the family (a chain of x diamonds)
    /// has kmax = 2 and density (1 + 4x)/(2 + 2x) → 2 = kmax as x → ∞,
    /// approaching the upper bound.
    fn figure4b(x: usize) -> Graph {
        // A "book" of x four-cycles sharing the spine edge {0, 1}: page i
        // adds vertices p_i, q_i with the cycle 0-p_i-1-q_i-0. That gives
        // n = 2 + 2x and m = 1 + 4x — exactly the paper's counting — with
        // every page vertex at degree 2, so kmax = 2.
        let mut edges = vec![(0u32, 1u32)];
        for i in 0..x {
            let p = (2 + 2 * i) as u32;
            let q = (3 + 2 * i) as u32;
            edges.push((0, p));
            edges.push((p, 1));
            edges.push((1, q));
            edges.push((q, 0));
        }
        Graph::from_edges(2 + 2 * x, &edges)
    }

    #[test]
    fn figure4b_density_approaches_upper_bound() {
        let oracle = oracle_for(&Pattern::edge());
        let mut last = 0.0;
        for x in [1usize, 2, 4, 8, 16] {
            let g = figure4b(x);
            let dec = decompose(&g, oracle.as_ref());
            assert_eq!(dec.kmax, 2, "x = {x}");
            let rho = density(oracle.as_ref(), &g, &dec.max_core());
            assert!(rho >= last - 1e-12, "density must increase with x");
            assert!(rho <= 2.0 + 1e-12, "bounded by kmax");
            last = rho;
        }
        assert!(last > 1.5, "by x = 16 density is well past the lower bound");
    }

    #[test]
    fn bounds_bracket_rho_opt() {
        let g = figure4b(4);
        let psi = Pattern::edge();
        let oracle = oracle_for(&psi);
        let dec = decompose(&g, oracle.as_ref());
        let bounds = density_bounds(&dec, 2, true);
        let (opt, _) = core_exact(&g, &psi);
        assert!(bounds.lower <= opt.density + 1e-9);
        assert!(opt.density <= bounds.upper + 1e-9);
        // The CDS must lie inside the located core.
        let core = dec.core_set(bounds.locate_k);
        for &v in &opt.vertices {
            assert!(core.contains(v));
        }
    }

    #[test]
    fn residual_bound_dominates_theorem1() {
        let g = figure4b(4);
        let oracle = oracle_for(&Pattern::edge());
        let dec = decompose(&g, oracle.as_ref());
        let with = density_bounds(&dec, 2, true);
        let without = density_bounds(&dec, 2, false);
        assert!(with.lower >= without.lower);
        assert_eq!(with.upper, without.upper);
    }

    #[test]
    fn helpers() {
        assert_eq!(locate_core_order(0.0), 0);
        assert_eq!(locate_core_order(2.0), 2);
        assert_eq!(locate_core_order(2.1), 3);
        assert!((approximation_ratio(3) - 1.0 / 3.0).abs() < 1e-15);
        assert!((density_separation(10) - 1.0 / 90.0).abs() < 1e-15);
    }
}
