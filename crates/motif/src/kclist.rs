//! h-clique listing on a degeneracy-oriented DAG (kClist).
//!
//! Following Danisch, Balalau and Sozio (WWW 2018) — the clique enumerator
//! the paper itself uses — edges are oriented along a degeneracy ordering,
//! so every h-clique is listed exactly once as an increasing-rank chain. On
//! graphs with degeneracy `c`, out-neighbourhoods have size ≤ `c`, which is
//! what makes 5- and 6-clique listing feasible on sparse skewed graphs.
//!
//! Candidate intersection — the inner loop of the recursion — is a
//! two-pointer merge over id-sorted out-lists, so every level visits its
//! candidates in ascending id order.
//!
//! [`CliqueLister`] is the one kClist recursion: the serial listers here,
//! the parallel degree pass and the sharded clique-store build all drive
//! it, one root at a time (see [`crate::parallel`]).

use dsd_graph::{degeneracy_order, Graph, VertexId, VertexSet};

/// The degeneracy DAG's alive, id-sorted out-neighbour lists, flattened
/// into one offsets+targets CSR: `targets[offsets[v]..offsets[v + 1]]` is
/// `v`'s out-list. One allocation instead of one `Vec` per vertex — the
/// per-vertex headers and heap scatter of the old `Vec<Vec<_>>` shape were
/// a measurable slice of every cold enumeration (and of every rebuild an
/// eviction forces).
struct OutCsr {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
}

impl OutCsr {
    /// The id-sorted out-neighbours of `v` (empty outside `alive`).
    #[inline]
    fn row(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

/// Materializes the [`OutCsr`] for `g[alive]`, so intersections are linear
/// merges over contiguous memory.
fn build_out_csr(g: &Graph, alive: &VertexSet) -> OutCsr {
    let dag = degeneracy_order(g);
    let n = g.num_vertices();
    let mut offsets = vec![0usize; n + 1];
    let mut targets: Vec<VertexId> = Vec::new();
    for v in 0..n as VertexId {
        if alive.contains(v) {
            let start = targets.len();
            targets.extend(dag.out_neighbors(g, v).filter(|&u| alive.contains(u)));
            targets[start..].sort_unstable();
        }
        offsets[v as usize + 1] = targets.len();
    }
    OutCsr { offsets, targets }
}

/// Reusable per-worker scratch for [`CliqueLister`] traversals: the chain
/// under construction and a pool of candidate buffers for the merge's
/// intersections. Every buffer returns to the pool after its subtree, so
/// after the first few roots a traversal allocates nothing.
#[derive(Default)]
pub struct CliqueScratch {
    clique: Vec<VertexId>,
    pool: Vec<Vec<VertexId>>,
}

/// A shareable h-clique enumeration context: the degeneracy-oriented DAG's
/// out-lists, built once and read by any number of workers.
///
/// Every h-clique is listed exactly once, from its lowest-ranked member
/// (its *root*), which makes root ranges an embarrassingly parallel shard
/// boundary: [`CliqueLister::for_each_rooted_until`] emits exactly the
/// cliques rooted at one vertex, so workers covering disjoint root sets
/// cover the clique set disjointly. This is the sink-based emission API the
/// instance store builds on — no intermediate `Vec<Vec<VertexId>>`.
pub struct CliqueLister {
    h: usize,
    out: OutCsr,
}

impl CliqueLister {
    /// Builds the shared context for h-cliques of `g[alive]`, `h >= 2`.
    pub fn new(g: &Graph, h: usize, alive: &VertexSet) -> Self {
        assert!(h >= 2, "CliqueLister needs h >= 2");
        CliqueLister {
            h,
            out: build_out_csr(g, alive),
        }
    }

    /// Emits every h-clique whose lowest-ranked member is `root` (members
    /// arrive in rank order, not id order). The sink returns `false` to
    /// abort; the call then returns `false` immediately.
    pub fn for_each_rooted_until<F: FnMut(&[VertexId]) -> bool>(
        &self,
        root: VertexId,
        scratch: &mut CliqueScratch,
        f: &mut F,
    ) -> bool {
        scratch.clique.clear();
        scratch.clique.push(root);
        rec(
            &self.out,
            &mut scratch.clique,
            self.out.row(root),
            self.h,
            &mut scratch.pool,
            f,
        )
    }
}

/// Enumerates every h-clique of `g` exactly once, invoking `f` with the
/// member list (unspecified order).
///
/// `h = 1` lists vertices, `h = 2` lists edges.
pub fn for_each_clique<F: FnMut(&[VertexId])>(g: &Graph, h: usize, f: F) {
    for_each_clique_within(g, h, &VertexSet::full(g.num_vertices()), f)
}

/// Like [`for_each_clique`] but restricted to cliques whose members are all
/// in `alive`.
pub fn for_each_clique_within<F: FnMut(&[VertexId])>(
    g: &Graph,
    h: usize,
    alive: &VertexSet,
    mut f: F,
) {
    assert!(h >= 1, "clique size must be at least 1");
    if h == 1 {
        for v in alive.iter() {
            f(&[v]);
        }
        return;
    }
    let lister = CliqueLister::new(g, h, alive);
    let mut scratch = CliqueScratch::default();
    for v in alive.iter() {
        lister.for_each_rooted_until(v, &mut scratch, &mut |clique| {
            f(clique);
            true
        });
    }
}

/// The merge recursion: extends `clique` by every candidate in `cand`
/// (the out-neighbours of every member so far, id-sorted). Each level's
/// intersections go into buffers taken from `pool` and handed back after
/// their subtree, so a traversal allocates only while the pool grows to
/// its depth.
fn rec<F: FnMut(&[VertexId]) -> bool>(
    out: &OutCsr,
    clique: &mut Vec<VertexId>,
    cand: &[VertexId],
    h: usize,
    pool: &mut Vec<Vec<VertexId>>,
    f: &mut F,
) -> bool {
    if clique.len() + 1 == h {
        for &u in cand {
            clique.push(u);
            let keep = f(clique);
            clique.pop();
            if !keep {
                return false;
            }
        }
        return true;
    }
    if clique.len() + cand.len() < h {
        return true; // not enough candidates left
    }
    for &u in cand.iter() {
        // The next member must be an out-neighbour of `u` *and* of every
        // earlier member (encoded by `cand`). Rank-increase is automatic:
        // out-lists only contain higher-rank vertices, so each clique is
        // produced exactly once, in rank order.
        let mut next = pool.pop().unwrap_or_default();
        next.clear();
        intersect_sorted(cand, out.row(u), &mut next);
        let mut keep = true;
        if clique.len() + 1 + next.len() >= h {
            clique.push(u);
            keep = rec(out, clique, &next, h, pool, f);
            clique.pop();
        }
        pool.push(next);
        if !keep {
            return false;
        }
    }
    true
}

/// Intersects two id-sorted slices into `out`.
fn intersect_sorted(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Total number of h-cliques `μ(G, Ψ)`.
pub fn count_cliques(g: &Graph, h: usize) -> u64 {
    count_cliques_within(g, h, &VertexSet::full(g.num_vertices()))
}

/// Number of h-cliques with all members in `alive`.
pub fn count_cliques_within(g: &Graph, h: usize, alive: &VertexSet) -> u64 {
    let mut c = 0u64;
    for_each_clique_within(g, h, alive, |_| c += 1);
    c
}

/// Clique-degree `deg_G(v, Ψ)` of every vertex for the h-clique Ψ
/// (Definition 3).
pub fn clique_degrees(g: &Graph, h: usize) -> Vec<u64> {
    clique_degrees_within(g, h, &VertexSet::full(g.num_vertices()))
}

/// Clique-degrees restricted to the subgraph induced by `alive` (vertices
/// outside `alive` report 0): the one-thread call of
/// [`crate::clique_degrees_parallel_within`].
pub fn clique_degrees_within(g: &Graph, h: usize, alive: &VertexSet) -> Vec<u64> {
    crate::parallel::clique_degrees_parallel_within(g, h, alive, 1)
}

/// Enumerates the h-cliques that contain `v` and whose other members are all
/// in `alive` (`v` itself need not be in `alive`; it is being removed).
///
/// `f` receives the `h - 1` *other* members. This is the decrement step of
/// Algorithm 3: removing `v` kills exactly these instances.
pub fn for_each_clique_containing<F: FnMut(&[VertexId])>(
    g: &Graph,
    h: usize,
    v: VertexId,
    alive: &VertexSet,
    f: F,
) {
    assert!(h >= 2, "a clique containing v needs h >= 2");
    // (h-1)-cliques inside G[N(v) ∩ alive].
    let nbrs: Vec<VertexId> = g
        .neighbors(v)
        .iter()
        .copied()
        .filter(|&u| alive.contains(u))
        .collect();
    for_each_clique_among(g, h - 1, &nbrs, f);
}

/// Enumerates the h-cliques that contain the edge `{u, v}` of `g` and
/// whose *other* members are all in `alive`, handing `f` those `h - 2`
/// other members. This is the append step of incremental store repair:
/// the h-cliques an edge insertion `{u, v}` creates are exactly
/// `{u, v} ∪ C` for the (h−2)-cliques `C` of `G[N(u) ∩ N(v) ∩ alive]`,
/// each listed exactly once.
pub fn for_each_clique_containing_edge<F: FnMut(&[VertexId])>(
    g: &Graph,
    h: usize,
    u: VertexId,
    v: VertexId,
    alive: &VertexSet,
    f: F,
) {
    assert!(h >= 2, "a clique containing an edge needs h >= 2");
    let mut common: Vec<VertexId> = Vec::new();
    if h > 2 {
        intersect_sorted(g.neighbors(u), g.neighbors(v), &mut common);
        common.retain(|&w| alive.contains(w));
    }
    for_each_clique_among(g, h - 2, &common, f);
}

/// Lists the k-cliques of `g[among]` (`among` id-sorted) in parent ids,
/// each once; `k = 0` lists the one empty clique.
fn for_each_clique_among<F: FnMut(&[VertexId])>(g: &Graph, k: usize, among: &[VertexId], mut f: F) {
    match k {
        0 => f(&[]),
        1 => among.iter().for_each(|&u| f(&[u])),
        _ if among.len() < k => {}
        _ => {
            let sub = dsd_graph::InducedSubgraph::new(g, among);
            let mut mapped = vec![0 as VertexId; k];
            for_each_clique(&sub.graph, k, |clique| {
                for (slot, &u) in mapped.iter_mut().zip(clique) {
                    *slot = sub.to_parent(u);
                }
                f(&mapped);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsd_graph::GraphBuilder;

    fn k(n: u32) -> Graph {
        let mut b = GraphBuilder::new(n as usize);
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    /// Brute-force clique counter over all h-subsets (small graphs only).
    fn brute_count(g: &Graph, h: usize) -> u64 {
        let n = g.num_vertices();
        let mut count = 0u64;
        let mut subset: Vec<usize> = (0..h).collect();
        if h > n {
            return 0;
        }
        loop {
            let ok = subset.iter().enumerate().all(|(i, &u)| {
                subset[i + 1..]
                    .iter()
                    .all(|&v| g.has_edge(u as VertexId, v as VertexId))
            });
            if ok {
                count += 1;
            }
            // next combination
            let mut i = h;
            loop {
                if i == 0 {
                    return count;
                }
                i -= 1;
                if subset[i] != i + n - h {
                    break;
                }
            }
            subset[i] += 1;
            for j in i + 1..h {
                subset[j] = subset[j - 1] + 1;
            }
        }
    }

    #[test]
    fn counts_on_complete_graphs() {
        let g = k(6);
        for h in 1..=6 {
            let expect = crate::binomial(6, h as u64);
            assert_eq!(count_cliques(&g, h), expect, "h = {h}");
        }
    }

    #[test]
    fn paper_figure_2a_triangles() {
        // Figure 2(a): A-B, B-C, B-D, C-D; one triangle {B, C, D}.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(count_cliques(&g, 3), 1);
        let deg = clique_degrees(&g, 3);
        assert_eq!(deg, vec![0, 1, 1, 1]);
    }

    #[test]
    fn paper_figure_1a_s2_triangle_degrees() {
        // S2 from Figure 1(a): two triangles sharing an edge (A-C):
        // deg(A)=2, deg(B)=1, deg(C)=2 per the running example.
        // Vertices: A=0, B=1, C=2, D=3; triangles {A,B,C} and {A,C,D}.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)]);
        let deg = clique_degrees(&g, 3);
        assert_eq!(deg[0], 2);
        assert_eq!(deg[1], 1);
        assert_eq!(deg[2], 2);
        assert_eq!(deg[3], 1);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut state = 12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..20 {
            let n = 8 + (trial % 4);
            let mut b = GraphBuilder::new(n);
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if next() % 10 < 45 / 10 {
                        b.add_edge(u, v);
                    }
                }
            }
            let g = b.build();
            for h in 2..=5 {
                assert_eq!(
                    count_cliques(&g, h),
                    brute_count(&g, h),
                    "trial {trial} h {h}"
                );
            }
        }
    }

    #[test]
    fn alive_mask_restricts() {
        let g = k(5);
        let mut alive = VertexSet::full(5);
        alive.remove(0);
        assert_eq!(count_cliques_within(&g, 3, &alive), crate::binomial(4, 3));
        let deg = clique_degrees_within(&g, 3, &alive);
        assert_eq!(deg[0], 0);
        assert_eq!(deg[1], crate::binomial(3, 2));
    }

    #[test]
    fn cliques_containing_vertex() {
        let g = k(5);
        let alive = VertexSet::full(5);
        let mut count = 0;
        for_each_clique_containing(&g, 3, 0, &alive, |others| {
            assert_eq!(others.len(), 2);
            assert!(!others.contains(&0));
            count += 1;
        });
        assert_eq!(count, crate::binomial(4, 2));
    }

    #[test]
    fn containing_respects_alive_mask() {
        let g = k(5);
        let mut alive = VertexSet::full(5);
        alive.remove(1);
        let mut count = 0;
        for_each_clique_containing(&g, 3, 0, &alive, |_| count += 1);
        assert_eq!(count, crate::binomial(3, 2));
    }

    #[test]
    fn per_vertex_degree_sums_to_h_times_count() {
        let g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (4, 6),
                (5, 6),
                (3, 6),
            ],
        );
        for h in 2..=4 {
            let deg = clique_degrees(&g, h);
            let total: u64 = deg.iter().sum();
            assert_eq!(total, h as u64 * count_cliques(&g, h));
        }
    }

    #[test]
    fn edge_case_h_larger_than_graph() {
        let g = k(3);
        assert_eq!(count_cliques(&g, 4), 0);
        assert_eq!(count_cliques(&g, 10), 0);
    }

    #[test]
    fn cliques_containing_edge_match_brute_force() {
        let g = k(5);
        let alive = VertexSet::full(5);
        for h in 2..=5 {
            let mut found: Vec<Vec<VertexId>> = Vec::new();
            for_each_clique_containing_edge(&g, h, 0, 1, &alive, |others| {
                let mut c = others.to_vec();
                c.extend([0, 1]);
                c.sort_unstable();
                found.push(c);
            });
            // K5: cliques through a fixed edge choose h-2 of the other 3.
            let choose = [1u64, 3, 3, 1][h - 2];
            assert_eq!(found.len() as u64, choose, "h = {h}");
            found.sort();
            found.dedup();
            assert_eq!(found.len() as u64, choose, "each listed once, h = {h}");
        }
        // The alive mask restricts the *other* members only.
        let mut alive = VertexSet::full(5);
        alive.remove(2);
        let mut n = 0;
        for_each_clique_containing_edge(&g, 3, 0, 1, &alive, |_| n += 1);
        assert_eq!(n, 2, "triangles 01x for x in {{3, 4}}");
        let mut masked_endpoint = 0;
        alive.remove(0);
        for_each_clique_containing_edge(&g, 3, 0, 1, &alive, |_| masked_endpoint += 1);
        assert_eq!(masked_endpoint, 2, "endpoints are exempt from the mask");
    }
}
