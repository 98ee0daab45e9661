//! h-clique listing on a degeneracy-oriented DAG (kClist).
//!
//! Following Danisch, Balalau and Sozio (WWW 2018) — the clique enumerator
//! the paper itself uses — edges are oriented along a degeneracy ordering,
//! so every h-clique is listed exactly once as an increasing-rank chain. On
//! graphs with degeneracy `c`, out-neighbourhoods have size ≤ `c`, which is
//! what makes 5- and 6-clique listing feasible on sparse skewed graphs.
//!
//! Candidate intersection — the inner loop of the recursion — runs on one
//! of two kernels chosen per root: the classic two-pointer merge over
//! id-sorted out-lists, or, for dense high-degeneracy roots where merging
//! dominates, word-packed bitmaps over the root's candidate universe
//! intersected with `u64` AND + `count_ones` and iterated by
//! `trailing_zeros`. Both kernels emit the same cliques in the same order;
//! the crossover is a pure throughput decision (see
//! [`CliqueLister::with_bitset`]).
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
pub(crate) struct OutCsr {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
}

impl OutCsr {
    /// The id-sorted out-neighbours of `v` (empty outside `alive`).
    #[inline]
    pub(crate) fn row(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

/// Materializes the [`OutCsr`] for `g[alive]`, so intersections are linear
/// merges over contiguous memory.
pub(crate) fn build_out_csr(g: &Graph, alive: &VertexSet) -> OutCsr {
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
/// under construction, a pool of candidate buffers for the merge kernel,
/// and the root bitmap + word-buffer pool for the bitset kernel, so sharded
/// enumeration allocates nothing per clique.
#[derive(Default)]
pub struct CliqueScratch {
    clique: Vec<VertexId>,
    pool: Vec<Vec<VertexId>>,
    bitmap: RootBitmap,
    word_pool: Vec<Vec<u64>>,
}

/// Word-packed adjacency bitmaps over one root's out-list universe.
///
/// Local index = position in the root's id-sorted out-list, so ascending
/// bit order is ascending id order and the bitset recursion emits cliques
/// in exactly the sequence the merge recursion does. `rows` is one `u64`
/// matrix: row `j` marks, for each universe position `b`, whether
/// `universe[b]` is an out-neighbour of `universe[j]`. An intersection is
/// then a word-wise AND — the level-1 intersection is the row itself.
#[derive(Default)]
struct RootBitmap {
    words: usize,
    universe: Vec<VertexId>,
    rows: Vec<u64>,
}

impl RootBitmap {
    /// The root's id-sorted out-list the bitmaps are indexed by.
    #[inline]
    fn universe(&self) -> &[VertexId] {
        &self.universe
    }

    /// The adjacency bitmap of `universe[j]` restricted to the universe.
    #[inline]
    fn row(&self, j: usize) -> &[u64] {
        &self.rows[j * self.words..(j + 1) * self.words]
    }

    /// (Re)builds the bitmaps for `root`'s universe, reusing the buffers.
    /// Cost: one two-pointer merge of each candidate's out-list against the
    /// universe — the same work the merge kernel's first level does, here
    /// paid once and amortized over every deeper intersection.
    fn build(&mut self, out: &OutCsr, root: VertexId) {
        self.universe.clear();
        self.universe.extend_from_slice(out.row(root));
        let d = self.universe.len();
        self.words = d.div_ceil(64);
        self.rows.clear();
        self.rows.resize(d * self.words, 0);
        let RootBitmap {
            words,
            universe,
            rows,
        } = self;
        for (i, &u) in universe.iter().enumerate() {
            let row = &mut rows[i * *words..(i + 1) * *words];
            let urow = out.row(u);
            let (mut a, mut b) = (0usize, 0usize);
            while a < urow.len() && b < universe.len() {
                match urow[a].cmp(&universe[b]) {
                    std::cmp::Ordering::Less => a += 1,
                    std::cmp::Ordering::Greater => b += 1,
                    std::cmp::Ordering::Equal => {
                        row[b / 64] |= 1 << (b % 64);
                        a += 1;
                        b += 1;
                    }
                }
            }
        }
    }

    /// Writes the all-ones candidate mask for the full universe into `buf`
    /// (the last word trimmed to the universe length).
    fn full_mask(&self, buf: &mut Vec<u64>) {
        buf.clear();
        buf.resize(self.words, !0u64);
        let d = self.universe.len();
        if !d.is_multiple_of(64) {
            if let Some(last) = buf.last_mut() {
                *last = (1u64 << (d % 64)) - 1;
            }
        }
    }
}

/// Roots below this out-degree always take the merge kernel: a bitmap
/// smaller than one word can't beat a short two-pointer merge.
const BITSET_MIN_UNIVERSE: usize = 64;

/// The per-root crossover: bitmaps win when the merge kernel's level-1
/// work (each candidate's out-list merged against the universe, capped at
/// the universe size) comfortably exceeds the word-wise cost of building
/// and ANDing the bitmaps. The 2x margin keeps sparse roots — where the
/// merge touches a handful of elements — on the cheaper two-pointer path.
pub(crate) fn bitset_worthwhile(out: &OutCsr, universe: &[VertexId]) -> bool {
    let d = universe.len();
    if d < BITSET_MIN_UNIVERSE {
        return false;
    }
    let words = d.div_ceil(64);
    let merge_cost: usize = universe.iter().map(|&u| out.row(u).len().min(d)).sum();
    merge_cost >= 2 * d * words
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
    bitset: bool,
}

impl CliqueLister {
    /// Builds the shared context for h-cliques of `g[alive]`, `h >= 2`,
    /// with the bitset kernel armed past the per-root crossover.
    pub fn new(g: &Graph, h: usize, alive: &VertexSet) -> Self {
        Self::with_bitset(g, h, alive, true)
    }

    /// [`CliqueLister::new`] with the bitset kernel allowed (`true`, the
    /// default) or forced off — what the differential suite and the
    /// merge-only ablation use. Emitted cliques and their order are
    /// identical either way.
    pub fn with_bitset(g: &Graph, h: usize, alive: &VertexSet, bitset: bool) -> Self {
        assert!(h >= 2, "CliqueLister needs h >= 2");
        CliqueLister {
            h,
            out: build_out_csr(g, alive),
            bitset,
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
        let row = self.out.row(root);
        if self.bitset && self.h >= 3 && bitset_worthwhile(&self.out, row) {
            let cand_count = row.len();
            scratch.bitmap.build(&self.out, root);
            let mut cand = scratch.word_pool.pop().unwrap_or_default();
            scratch.bitmap.full_mask(&mut cand);
            rec_bitset(
                &scratch.bitmap,
                &mut scratch.clique,
                cand,
                cand_count,
                self.h,
                &mut scratch.word_pool,
                f,
            )
        } else {
            rec(
                &self.out,
                &mut scratch.clique,
                row.to_vec(),
                self.h,
                &mut scratch.pool,
                f,
            )
        }
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

fn rec<F: FnMut(&[VertexId]) -> bool>(
    out: &OutCsr,
    clique: &mut Vec<VertexId>,
    cand: Vec<VertexId>,
    h: usize,
    pool: &mut Vec<Vec<VertexId>>,
    f: &mut F,
) -> bool {
    if clique.len() + 1 == h {
        for &u in &cand {
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
        intersect_sorted(&cand, out.row(u), &mut next);
        let mut keep = true;
        if clique.len() + 1 + next.len() >= h {
            clique.push(u);
            keep = rec(out, clique, std::mem::take(&mut next), h, pool, f);
            clique.pop();
        }
        pool.push(next);
        if !keep {
            return false;
        }
    }
    true
}

/// The bitset twin of [`rec`]: `cand` is a word mask over the root's
/// universe (`cand_count` set bits), intersections are word-wise AND with
/// `count_ones` accumulating the survivor count for the same
/// not-enough-candidates prune, and leaves walk set bits by
/// `trailing_zeros` — ascending local index, i.e. ascending id, so the
/// emission sequence is bit-identical to the merge kernel's.
fn rec_bitset<F: FnMut(&[VertexId]) -> bool>(
    bm: &RootBitmap,
    clique: &mut Vec<VertexId>,
    cand: Vec<u64>,
    cand_count: usize,
    h: usize,
    pool: &mut Vec<Vec<u64>>,
    f: &mut F,
) -> bool {
    if clique.len() + 1 == h {
        for (w, &word) in cand.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let j = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                clique.push(bm.universe()[j]);
                let keep = f(clique);
                clique.pop();
                if !keep {
                    return false;
                }
            }
        }
        return true;
    }
    if clique.len() + cand_count < h {
        return true; // not enough candidates left
    }
    for (w, &word) in cand.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let j = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let mut next = pool.pop().unwrap_or_default();
            next.clear();
            next.resize(cand.len(), 0);
            let row = bm.row(j);
            let mut cnt = 0usize;
            for k in 0..cand.len() {
                let x = cand[k] & row[k];
                cnt += x.count_ones() as usize;
                next[k] = x;
            }
            let mut keep = true;
            if clique.len() + 1 + cnt >= h {
                clique.push(bm.universe()[j]);
                keep = rec_bitset(bm, clique, std::mem::take(&mut next), cnt, h, pool, f);
                clique.pop();
            }
            pool.push(next);
            if !keep {
                return false;
            }
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
    fn bitset_kernel_matches_merge_kernel_exactly() {
        // Dense enough that high-degree roots cross the bitset threshold.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 160usize;
        let mut b = GraphBuilder::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if next() % 100 < 55 {
                    b.add_edge(u, v);
                }
            }
        }
        let g = b.build();
        let alive = VertexSet::full(n);
        for h in 3..=4 {
            let merge = CliqueLister::with_bitset(&g, h, &alive, false);
            let bits = CliqueLister::with_bitset(&g, h, &alive, true);
            assert!(
                alive
                    .iter()
                    .any(|v| bitset_worthwhile(&bits.out, bits.out.row(v))),
                "test graph too sparse to exercise the bitset kernel"
            );
            let mut sm = CliqueScratch::default();
            let mut sb = CliqueScratch::default();
            let mut seq_m: Vec<Vec<VertexId>> = Vec::new();
            let mut seq_b: Vec<Vec<VertexId>> = Vec::new();
            for v in alive.iter() {
                merge.for_each_rooted_until(v, &mut sm, &mut |c: &[VertexId]| {
                    seq_m.push(c.to_vec());
                    true
                });
                bits.for_each_rooted_until(v, &mut sb, &mut |c: &[VertexId]| {
                    seq_b.push(c.to_vec());
                    true
                });
            }
            assert!(!seq_m.is_empty(), "h = {h}");
            assert_eq!(seq_m, seq_b, "emission sequence differs at h = {h}");

            // Abort semantics match too: stop after 500 cliques.
            let cap = 500.min(seq_m.len());
            let mut got = 0usize;
            for v in alive.iter() {
                if !bits.for_each_rooted_until(v, &mut sb, &mut |_: &[VertexId]| {
                    got += 1;
                    got < cap
                }) {
                    break;
                }
            }
            assert_eq!(got, cap, "abort after {cap} cliques, h = {h}");
        }
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
