//! `dsd-motif`: clique and pattern enumeration substrate.
//!
//! Every algorithm in the paper is parameterized by an h-clique or a general
//! pattern Ψ; the inner loops are "how many instances of Ψ contain v" and
//! "which instances die when v is removed". This crate provides:
//!
//! * [`kclist`] — the h-clique listing algorithm of Danisch, Balalau and
//!   Sozio (WWW 2018) over a DAG oriented by the (degree, id) listing
//!   rank, with alive-mask restriction and per-vertex clique degrees;
//! * [`pattern`] — small pattern graphs ([`Pattern`]): the paper's Figure 7
//!   menu (2-star, 3-star, c3-star, diamond, 2-triangle, 3-triangle,
//!   basket) plus arbitrary h-cliques and user-defined patterns, with
//!   their automorphism groups and symmetry-breaking conditions;
//! * [`pattern_enum`] — symmetry-broken backtracking enumeration of
//!   non-induced pattern instances (distinct edge sets, each reached
//!   once), per-vertex pattern-degrees, and
//!   instance grouping by vertex set (for the `construct+` flow network);
//! * [`special`] — the Appendix-D fast paths for star and diamond (4-cycle)
//!   pattern degrees and decremental updates, and the 4-cycle walk that,
//!   on the same listing rank, both counts diamond degrees and lists the
//!   cycles;
//! * [`store`] — the columnar [`InstanceStore`] that materializes every
//!   instance once, with in-place repair across edge batches;
//! * [`parallel`] — the one sharded enumeration driver: store builds and
//!   the parallel clique-degree pass run [`CliqueLister`] (or the pattern
//!   search) over strided root shards, one shard inline on the calling
//!   thread.
//!
//! ```
//! use dsd_graph::{Graph, VertexSet};
//! use dsd_motif::{count_cliques, clique_degrees, Pattern, pattern_enum};
//!
//! // K4 minus an edge: two triangles sharing an edge.
//! let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]);
//! assert_eq!(count_cliques(&g, 3), 2);
//! assert_eq!(clique_degrees(&g, 3), vec![2, 2, 1, 1]);
//!
//! let alive = VertexSet::full(4);
//! let wedges = pattern_enum::count_instances(&g, &Pattern::two_star(), &alive);
//! assert_eq!(wedges, 8); // Σ C(deg, 2) = 3 + 3 + 1 + 1
//! ```

pub mod kclist;
pub mod parallel;
pub mod pattern;
pub mod pattern_enum;
pub mod special;
pub mod store;

pub use kclist::{
    clique_degrees, clique_degrees_within, count_cliques, count_cliques_within, for_each_clique,
    for_each_clique_containing, for_each_clique_within, CliqueLister, CliqueScratch,
};
pub use parallel::{clique_degrees_parallel, clique_degrees_parallel_within};
pub use pattern::{Pattern, PatternKind};
pub use pattern_enum::{
    count_instances, for_each_instance_containing, for_each_owned_instance_until, group_instances,
    instances, instances_containing, pattern_degrees, InstanceGroup, PatternInstance,
};
pub use store::{FourCycleRefusal, InstanceStore, StoreBuildStats, StoreError};

use dsd_graph::{Graph, VertexId};

/// The listing rank's key: `u` ranks above `v` iff
/// `rank_key(g, u) > rank_key(g, v)`, i.e. by (degree in `g`, id). kClist
/// orients every edge up this rank and the 4-cycle walk tops each cycle
/// at its highest-ranked vertex (Chiba and Nishizeki, SIAM J. Comput.
/// 1985). Out-neighbours rank above a vertex only if their degree is at
/// least its own, so an out-list holds at most ⌊√(2m)⌋ vertices.
#[inline]
pub(crate) fn rank_key(g: &Graph, v: VertexId) -> (usize, VertexId) {
    (g.degree(v), v)
}

/// Binomial coefficient `C(n, k)` saturating at `u64::MAX`.
///
/// Used throughout for clique-degree upper bounds (`γ(v, Ψ) = C(x, h-1)` in
/// CoreApp) and the star-pattern degree formulas.
pub fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i as u128 + 1);
        if acc > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    acc as u64
}

#[cfg(test)]
mod tests {
    use super::binomial;

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(4, 5), 0);
        assert_eq!(binomial(10, 3), 120);
        assert_eq!(binomial(0, 0), 1);
    }

    #[test]
    fn binomial_saturates() {
        assert_eq!(binomial(200, 100), u64::MAX);
    }
}
