//! Small pattern graphs Ψ and the paper's Figure-7 pattern menu.
//!
//! A [`Pattern`] is a connected simple graph on a handful of vertices. The
//! paper evaluates seven non-clique patterns alongside h-cliques:
//!
//! | id | name        | shape |
//! |----|-------------|-------|
//! | 1  | `2-star`    | centre + 2 tails (path on 3 vertices) |
//! | 2  | `3-star`    | centre + 3 tails (K₁,₃) |
//! | 3  | `c3-star`   | triangle + pendant edge ("paw") |
//! | 4  | `diamond`   | 4-cycle (per Appendix D's path-pair counting) |
//! | 5  | `2-triangle`| two triangles sharing an edge (K₄ − e) |
//! | 6  | `3-triangle`| three triangles sharing an edge |
//! | 7  | `basket`    | 4-cycle + a handle vertex on one edge |
//!
//! The text we reproduce from does not draw `basket`; the choice here (C₄
//! plus a vertex adjacent to two adjacent cycle vertices) is documented as
//! an assumption in `DESIGN.md`.

use crate::pattern_enum::Plans;

/// Classifies patterns that have specialized fast paths (Appendix D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatternKind {
    /// An h-clique (h = number of vertices); includes edge and triangle.
    Clique(usize),
    /// An x-star: one centre with `x` tails.
    Star(usize),
    /// The diamond / 4-cycle loop pattern.
    Diamond,
    /// Anything else; handled by generic enumeration.
    General,
}

/// A connected simple pattern graph on up to a few dozen vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pattern {
    name: String,
    n: usize,
    /// Edge list with `u < v`, sorted.
    edges: Vec<(u8, u8)>,
    /// `adj[u][v]` adjacency matrix.
    adj: Vec<Vec<bool>>,
    /// Memoized canonical edge list ([`Self::canonical_edges`]): the
    /// permutation search is worst-case 8! relabelings and sits on every
    /// request's substrate-cache key, so it must run once per pattern,
    /// not once per request.
    canonical: Memo<Vec<(u8, u8)>>,
    /// Memoized automorphism group and the enumerator's plans built from
    /// it, boxed so the slot stays small on every `Pattern` value.
    symmetry: Memo<Box<Symmetry>>,
}

/// Aut(Ψ) and the symmetry-broken search plans derived from it.
#[derive(Clone, Debug)]
struct Symmetry {
    automorphisms: Vec<Vec<u8>>,
    plans: Plans,
}

/// Lazily computed value derived from the pattern's edges. Transparent
/// for equality/comparison: patterns that compare equal have equal derived
/// values whether or not either side has been computed yet.
#[derive(Clone, Debug)]
struct Memo<T>(std::sync::OnceLock<T>);

impl<T> Default for Memo<T> {
    fn default() -> Self {
        Memo(std::sync::OnceLock::new())
    }
}

impl<T> PartialEq for Memo<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> Eq for Memo<T> {}

impl Pattern {
    /// Builds a pattern from an edge list over vertices `0..n`.
    ///
    /// # Panics
    /// Panics if `n` is 0 or > 64, if an edge is out of range or a
    /// self-loop, or if the pattern is disconnected.
    pub fn new(name: impl Into<String>, n: usize, edges: &[(u8, u8)]) -> Self {
        assert!((1..=64).contains(&n), "patterns must have 1..=64 vertices");
        let mut adj = vec![vec![false; n]; n];
        let mut canon: Vec<(u8, u8)> = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            assert!(u != v, "self-loop in pattern");
            assert!(
                (u as usize) < n && (v as usize) < n,
                "pattern edge out of range"
            );
            if !adj[u as usize][v as usize] {
                adj[u as usize][v as usize] = true;
                adj[v as usize][u as usize] = true;
                canon.push((u.min(v), u.max(v)));
            }
        }
        canon.sort_unstable();
        let p = Pattern {
            name: name.into(),
            n,
            edges: canon,
            adj,
            canonical: Memo::default(),
            symmetry: Memo::default(),
        };
        assert!(p.is_connected(), "patterns must be connected");
        p
    }

    fn is_connected(&self) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for (u, &adjacent) in self.adj[v].iter().enumerate() {
                if adjacent && !seen[u] {
                    seen[u] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.n
    }

    /// Human-readable pattern name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of pattern vertices `|VΨ|`.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of pattern edges `|EΨ|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Sorted canonical edge list.
    pub fn edges(&self) -> &[(u8, u8)] {
        &self.edges
    }

    /// Canonical labeling: the lexicographically smallest sorted edge list
    /// over all vertex relabelings, so isomorphic patterns with different
    /// labelings produce identical output — the cache key substrate caches
    /// want (two spellings of the same Ψ must share one decomposition).
    ///
    /// Cliques are relabeling-invariant and stars are normalized directly;
    /// other patterns up to [`Self::CANONICAL_MAX_VERTICES`] vertices are
    /// canonicalized by exhaustive permutation search (they are tiny, so
    /// the search is at worst 8! relabelings). Larger general patterns fall
    /// back to the as-given edge list, which is still a *sound* key — two
    /// labelings may then hash apart, costing a duplicate cache entry but
    /// never correctness.
    pub fn canonical_edges(&self) -> Vec<(u8, u8)> {
        self.canonical
            .0
            .get_or_init(|| match self.kind() {
                // Every relabeling of a clique is the same edge list.
                PatternKind::Clique(_) => self.edges.clone(),
                // Stars normalize to centre 0, tails 1..=x.
                PatternKind::Star(x) => (1..=x as u8).map(|t| (0, t)).collect(),
                _ if self.n <= Self::CANONICAL_MAX_VERTICES => self.minimal_relabeling(),
                _ => self.edges.clone(),
            })
            .clone()
    }

    /// Largest vertex count [`Self::canonical_edges`] canonicalizes by
    /// exhaustive permutation search.
    pub const CANONICAL_MAX_VERTICES: usize = 8;

    /// The lexicographically smallest relabeled edge list, by trying every
    /// permutation of the (at most 8) pattern vertices.
    fn minimal_relabeling(&self) -> Vec<(u8, u8)> {
        let n = self.n;
        let mut perm: Vec<u8> = (0..n as u8).collect();
        let mut best: Option<Vec<(u8, u8)>> = None;
        let mut c = vec![0usize; n];
        loop {
            // `perm[old] = new` relabels each edge; re-sort for comparison.
            let mut relabeled: Vec<(u8, u8)> = self
                .edges
                .iter()
                .map(|&(u, v)| {
                    let (a, b) = (perm[u as usize], perm[v as usize]);
                    (a.min(b), a.max(b))
                })
                .collect();
            relabeled.sort_unstable();
            if best.as_ref().is_none_or(|b| relabeled < *b) {
                best = Some(relabeled);
            }
            // Heap's algorithm, iterative form.
            let mut i = 0;
            loop {
                if i >= n {
                    return best.expect("at least the identity relabeling");
                }
                if c[i] < i {
                    if i % 2 == 0 {
                        perm.swap(0, i);
                    } else {
                        perm.swap(c[i], i);
                    }
                    c[i] += 1;
                    break;
                }
                c[i] = 0;
                i += 1;
            }
        }
    }

    /// Adjacency test inside the pattern.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u][v]
    }

    /// Degree of pattern vertex `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].iter().filter(|&&b| b).count()
    }

    /// Detects which specialized algorithm applies.
    pub fn kind(&self) -> PatternKind {
        if self.edges.len() == self.n * (self.n - 1) / 2 {
            return PatternKind::Clique(self.n);
        }
        // x-star: one vertex of degree n-1, all others degree 1.
        if self.n >= 3 && self.edges.len() == self.n - 1 {
            let mut centres = 0;
            let mut tails = 0;
            for u in 0..self.n {
                match self.degree(u) {
                    1 => tails += 1,
                    d if d == self.n - 1 => centres += 1,
                    _ => {}
                }
            }
            if centres == 1 && tails == self.n - 1 {
                return PatternKind::Star(self.n - 1);
            }
        }
        if self.n == 4 && self.edges.len() == 4 && (0..4).all(|u| self.degree(u) == 2) {
            return PatternKind::Diamond;
        }
        PatternKind::General
    }

    /// Number of automorphisms |Aut(Ψ)|, computed by matching the pattern
    /// onto itself. Patterns are tiny, so brute-force search is fine.
    pub fn automorphism_count(&self) -> u64 {
        let mut count = 0u64;
        self.for_each_automorphism(&mut |_| count += 1);
        count
    }

    /// The automorphism group Aut(Ψ), one permutation per element with
    /// `perm[v]` the image of pattern vertex `v`. Computed once per pattern
    /// and memoized.
    pub fn automorphisms(&self) -> &[Vec<u8>] {
        &self.symmetry().automorphisms
    }

    fn symmetry(&self) -> &Symmetry {
        self.symmetry.0.get_or_init(|| {
            let mut automorphisms = Vec::new();
            self.for_each_automorphism(&mut |perm| {
                automorphisms.push(perm.iter().map(|&x| x as u8).collect());
            });
            let plans = Plans::compile(self, &self.pairs_from(&automorphisms));
            Box::new(Symmetry {
                automorphisms,
                plans,
            })
        })
    }

    /// Backtracking self-match: visits every automorphism as `map[v]` =
    /// image of `v`.
    fn for_each_automorphism(&self, f: &mut dyn FnMut(&[usize])) {
        fn rec(
            p: &Pattern,
            pos: usize,
            map: &mut [usize],
            used: &mut [bool],
            f: &mut dyn FnMut(&[usize]),
        ) {
            if pos == p.n {
                f(map);
                return;
            }
            for cand in 0..p.n {
                if used[cand] || p.degree(cand) != p.degree(pos) {
                    continue;
                }
                if (0..pos).all(|q| p.adj[pos][q] == p.adj[cand][map[q]]) {
                    map[pos] = cand;
                    used[cand] = true;
                    rec(p, pos + 1, map, used, f);
                    used[cand] = false;
                }
            }
        }
        rec(
            self,
            0,
            &mut vec![usize::MAX; self.n],
            &mut vec![false; self.n],
            f,
        );
    }

    /// Grochow–Kellis symmetry-breaking conditions along
    /// [`Self::search_order`]: each pair `(a, b)` demands
    /// `image(a) < image(b)`. Exactly one of the |Aut(Ψ)| embeddings of
    /// every instance satisfies all of them, so an enumerator that checks
    /// them reaches each instance once, with no dedup.
    ///
    /// Derivation (Grochow & Kellis, RECOMB 2007): walk the search order
    /// keeping the pointwise stabilizer of the vertices passed so far;
    /// at vertex `a`, pair `a` with every other vertex of its orbit under
    /// that stabilizer, then restrict to the stabilizer of `a`. Orbit
    /// members always come later in the order than `a`, so every pair's
    /// second vertex is the one placed last. The first group of pairs pins
    /// the pivot to the minimum image over its full orbit — an
    /// embedding-independent vertex, which is what lets sharded builds
    /// split instances by pivot image with no cross-shard dedup.
    pub fn symmetry_pairs(&self) -> Vec<(usize, usize)> {
        self.pairs_from(self.automorphisms())
    }

    /// [`Self::symmetry_pairs`] over an explicit automorphism group.
    fn pairs_from(&self, automorphisms: &[Vec<u8>]) -> Vec<(usize, usize)> {
        let mut group: Vec<&[u8]> = automorphisms.iter().map(Vec::as_slice).collect();
        let mut pairs = Vec::new();
        for a in self.search_order() {
            let mut orbit: Vec<usize> = group.iter().map(|perm| perm[a] as usize).collect();
            orbit.sort_unstable();
            orbit.dedup();
            pairs.extend(orbit.into_iter().filter(|&b| b != a).map(|b| (a, b)));
            group.retain(|perm| perm[a] as usize == a);
        }
        pairs
    }

    /// The enumerator's compiled search plans, built once per pattern.
    pub(crate) fn plans(&self) -> &Plans {
        &self.symmetry().plans
    }

    /// A search order for enumeration: starts at a max-degree vertex and
    /// extends so every vertex is adjacent to an earlier one (connected
    /// patterns guarantee this exists).
    pub fn search_order(&self) -> Vec<usize> {
        let start = (0..self.n).max_by_key(|&u| self.degree(u)).unwrap_or(0);
        self.search_order_from(start)
    }

    /// [`Self::search_order`] pinned to start at pattern vertex `start` —
    /// the order of an enumeration anchored at `start`.
    pub(crate) fn search_order_from(&self, start: usize) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.n);
        let mut placed = vec![false; self.n];
        order.push(start);
        placed[start] = true;
        while order.len() < self.n {
            // Pick the unplaced vertex with the most placed neighbours
            // (ties: higher degree) to maximize early pruning.
            let next = (0..self.n)
                .filter(|&u| !placed[u])
                .max_by_key(|&u| {
                    let anchored = order.iter().filter(|&&q| self.adj[u][q]).count();
                    (anchored, self.degree(u))
                })
                .expect("pattern is connected");
            order.push(next);
            placed[next] = true;
        }
        order
    }

    // ---- The paper's pattern menu -------------------------------------

    /// A single edge (2-clique).
    pub fn edge() -> Self {
        Pattern::new("edge", 2, &[(0, 1)])
    }

    /// The triangle (3-clique).
    pub fn triangle() -> Self {
        Pattern::new("triangle", 3, &[(0, 1), (1, 2), (0, 2)])
    }

    /// The h-clique.
    pub fn clique(h: usize) -> Self {
        assert!(h >= 2, "cliques need h >= 2");
        let mut edges = Vec::new();
        for u in 0..h as u8 {
            for v in (u + 1)..h as u8 {
                edges.push((u, v));
            }
        }
        Pattern::new(format!("{h}-clique"), h, &edges)
    }

    /// The x-star: centre 0, tails `1..=x`.
    pub fn star(x: usize) -> Self {
        assert!(x >= 2, "x-star needs x >= 2 tails");
        let edges: Vec<_> = (1..=x as u8).map(|t| (0, t)).collect();
        Pattern::new(format!("{x}-star"), x + 1, &edges)
    }

    /// The 2-star (path on three vertices).
    pub fn two_star() -> Self {
        Self::star(2)
    }

    /// The 3-star (K₁,₃).
    pub fn three_star() -> Self {
        Self::star(3)
    }

    /// The c3-star ("paw"): triangle {0,1,2} with pendant 3 on vertex 0.
    pub fn c3_star() -> Self {
        Pattern::new("c3-star", 4, &[(0, 1), (1, 2), (0, 2), (0, 3)])
    }

    /// The diamond: a 4-cycle 0-1-2-3-0 (Appendix D's loop pattern).
    pub fn diamond() -> Self {
        Pattern::new("diamond", 4, &[(0, 1), (1, 2), (2, 3), (0, 3)])
    }

    /// The 2-triangle: two triangles sharing edge {0,1} (K₄ − e).
    pub fn two_triangle() -> Self {
        Pattern::new("2-triangle", 4, &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    }

    /// The 3-triangle: three triangles sharing edge {0,1}.
    pub fn three_triangle() -> Self {
        Pattern::new(
            "3-triangle",
            5,
            &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)],
        )
    }

    /// The basket: 4-cycle 0-1-2-3-0 plus handle vertex 4 adjacent to the
    /// adjacent cycle vertices 0 and 1 (see DESIGN.md for the assumption).
    pub fn basket() -> Self {
        Pattern::new(
            "basket",
            5,
            &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)],
        )
    }

    /// The k-cycle `C_k` (k ≥ 3). `cycle(4)` is the paper's diamond.
    pub fn cycle(k: usize) -> Self {
        assert!(k >= 3, "cycles need k >= 3 vertices");
        let mut edges: Vec<(u8, u8)> = (0..k as u8 - 1).map(|i| (i, i + 1)).collect();
        edges.push((0, k as u8 - 1));
        Pattern::new(format!("{k}-cycle"), k, &edges)
    }

    /// The path on `k` vertices (k ≥ 2). `path(3)` is the 2-star.
    pub fn path(k: usize) -> Self {
        assert!(k >= 2, "paths need k >= 2 vertices");
        let edges: Vec<(u8, u8)> = (0..k as u8 - 1).map(|i| (i, i + 1)).collect();
        Pattern::new(format!("{k}-path"), k, &edges)
    }

    /// The complete bipartite pattern `K_{a,b}` (a, b ≥ 1). `K_{2,2}` is
    /// the diamond again; `K_{1,x}` is the x-star.
    pub fn complete_bipartite(a: usize, b: usize) -> Self {
        assert!(a >= 1 && b >= 1 && a + b >= 3);
        let mut edges = Vec::with_capacity(a * b);
        for i in 0..a as u8 {
            for j in 0..b as u8 {
                edges.push((i, a as u8 + j));
            }
        }
        Pattern::new(format!("K{a},{b}"), a + b, &edges)
    }

    /// All seven Figure-7 patterns in paper order.
    pub fn figure7() -> Vec<Pattern> {
        vec![
            Self::two_star(),
            Self::three_star(),
            Self::c3_star(),
            Self::diamond(),
            Self::two_triangle(),
            Self::three_triangle(),
            Self::basket(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The menu plus the generic constructors the enumerator must handle.
    fn menu() -> Vec<Pattern> {
        let mut menu = Pattern::figure7();
        menu.extend([
            Pattern::edge(),
            Pattern::triangle(),
            Pattern::clique(4),
            Pattern::cycle(5),
            Pattern::path(4),
            Pattern::complete_bipartite(2, 3),
        ]);
        menu
    }

    #[test]
    fn automorphisms_list_the_group() {
        for p in menu() {
            let group = p.automorphisms();
            assert_eq!(group.len() as u64, p.automorphism_count(), "{}", p.name());
            let identity: Vec<u8> = (0..p.vertex_count() as u8).collect();
            assert!(group.contains(&identity), "{}: identity", p.name());
            let mut distinct = group.to_vec();
            distinct.sort();
            distinct.dedup();
            assert_eq!(distinct.len(), group.len(), "{}: duplicates", p.name());
            for perm in group {
                for &(u, v) in p.edges() {
                    assert!(
                        p.has_edge(perm[u as usize] as usize, perm[v as usize] as usize),
                        "{}: {perm:?} breaks edge ({u}, {v})",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn symmetry_pairs_match_known_symmetry_groups() {
        // Star: the hub leads the search order and is fixed; the leaves
        // are totally ordered among themselves.
        let s = Pattern::star(3);
        let pairs = s.symmetry_pairs();
        assert_eq!(pairs.len(), 3);
        assert!(pairs.iter().all(|&(a, b)| a != 0 && b != 0));
        // Clique: every vertex pair is ordered.
        assert_eq!(Pattern::clique(4).symmetry_pairs().len(), 6);
        // Paw (triangle + pendant on 0): only the swap of 1 and 2.
        let paw = Pattern::c3_star().symmetry_pairs();
        assert_eq!(paw.len(), 1);
        assert_eq!((paw[0].0.min(paw[0].1), paw[0].0.max(paw[0].1)), (1, 2));
        // Orbit-stabilizer along the chain: the orbit at each search
        // position has 1 + (pairs led by that vertex) members, and the
        // product of the orbit sizes is |Aut|. Every pair's second vertex
        // comes later in the search order.
        for p in menu() {
            let order = p.search_order();
            let pos = |v: usize| order.iter().position(|&q| q == v).unwrap();
            let pairs = p.symmetry_pairs();
            let product: u64 = order
                .iter()
                .map(|&a| 1 + pairs.iter().filter(|&&(x, _)| x == a).count() as u64)
                .product();
            assert_eq!(product, p.automorphism_count(), "{}", p.name());
            assert!(pairs.iter().all(|&(a, b)| pos(a) < pos(b)), "{}", p.name());
        }
    }

    #[test]
    fn kinds_detected() {
        assert_eq!(Pattern::edge().kind(), PatternKind::Clique(2));
        assert_eq!(Pattern::triangle().kind(), PatternKind::Clique(3));
        assert_eq!(Pattern::clique(5).kind(), PatternKind::Clique(5));
        assert_eq!(Pattern::two_star().kind(), PatternKind::Star(2));
        assert_eq!(Pattern::three_star().kind(), PatternKind::Star(3));
        assert_eq!(Pattern::star(4).kind(), PatternKind::Star(4));
        assert_eq!(Pattern::diamond().kind(), PatternKind::Diamond);
        assert_eq!(Pattern::c3_star().kind(), PatternKind::General);
        assert_eq!(Pattern::two_triangle().kind(), PatternKind::General);
        assert_eq!(Pattern::three_triangle().kind(), PatternKind::General);
        assert_eq!(Pattern::basket().kind(), PatternKind::General);
    }

    #[test]
    fn automorphism_counts() {
        assert_eq!(Pattern::edge().automorphism_count(), 2);
        assert_eq!(Pattern::triangle().automorphism_count(), 6);
        assert_eq!(Pattern::clique(4).automorphism_count(), 24);
        assert_eq!(Pattern::two_star().automorphism_count(), 2);
        assert_eq!(Pattern::three_star().automorphism_count(), 6);
        // C4: dihedral group of order 8.
        assert_eq!(Pattern::diamond().automorphism_count(), 8);
        // Paw: only the two triangle vertices not attached to the tail swap.
        assert_eq!(Pattern::c3_star().automorphism_count(), 2);
        // K4 - e: swap the degree-3 pair, swap the degree-2 pair.
        assert_eq!(Pattern::two_triangle().automorphism_count(), 4);
        // 3-triangle: swap {0,1}, permute {2,3,4}.
        assert_eq!(Pattern::three_triangle().automorphism_count(), 12);
        // Basket: single reflection.
        assert_eq!(Pattern::basket().automorphism_count(), 2);
    }

    #[test]
    fn search_order_is_connected_prefixwise() {
        for p in Pattern::figure7() {
            let order = p.search_order();
            assert_eq!(order.len(), p.vertex_count());
            for (i, &v) in order.iter().enumerate().skip(1) {
                assert!(
                    order[..i].iter().any(|&q| p.has_edge(v, q)),
                    "{}: vertex {v} not anchored",
                    p.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected_patterns() {
        let _ = Pattern::new("bad", 4, &[(0, 1), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        let _ = Pattern::new("bad", 2, &[(0, 0), (0, 1)]);
    }

    #[test]
    fn generic_constructors() {
        // cycle(4) and K{2,2} are both the diamond up to isomorphism.
        assert_eq!(Pattern::cycle(4).kind(), PatternKind::Diamond);
        assert_eq!(
            Pattern::complete_bipartite(2, 2).kind(),
            PatternKind::Diamond
        );
        // cycle(3) is the triangle; path(3) is the 2-star; K{1,3} the 3-star.
        assert_eq!(Pattern::cycle(3).kind(), PatternKind::Clique(3));
        assert_eq!(Pattern::path(3).kind(), PatternKind::Star(2));
        assert_eq!(
            Pattern::complete_bipartite(1, 3).kind(),
            PatternKind::Star(3)
        );
        assert_eq!(Pattern::path(2).kind(), PatternKind::Clique(2));
        // Aut(C5) = 10 (dihedral), Aut(P4) = 2, Aut(K{2,3}) = 2!·3! = 12.
        assert_eq!(Pattern::cycle(5).automorphism_count(), 10);
        assert_eq!(Pattern::path(4).automorphism_count(), 2);
        assert_eq!(Pattern::complete_bipartite(2, 3).automorphism_count(), 12);
    }

    #[test]
    fn canonical_edges_identify_isomorphic_labelings() {
        // Same pattern, scrambled labels: paw with the pendant on vertex 2.
        let paw_a = Pattern::c3_star();
        let paw_b = Pattern::new("paw-relabeled", 4, &[(1, 2), (2, 3), (1, 3), (2, 0)]);
        assert_ne!(paw_a.edges(), paw_b.edges());
        assert_eq!(paw_a.canonical_edges(), paw_b.canonical_edges());

        // cycle(4), K{2,2}, and the diamond are one pattern three ways.
        assert_eq!(
            Pattern::diamond().canonical_edges(),
            Pattern::cycle(4).canonical_edges()
        );
        assert_eq!(
            Pattern::diamond().canonical_edges(),
            Pattern::complete_bipartite(2, 2).canonical_edges()
        );

        // Stars normalize regardless of which vertex is the centre.
        let star_c2 = Pattern::new("star-centre-2", 4, &[(2, 0), (2, 1), (2, 3)]);
        assert_eq!(
            Pattern::three_star().canonical_edges(),
            star_c2.canonical_edges()
        );

        // path(4) relabeled two ways.
        let p = Pattern::new("zigzag", 4, &[(2, 0), (0, 3), (3, 1)]);
        assert_eq!(Pattern::path(4).canonical_edges(), p.canonical_edges());

        // K4 − e spelled as a chorded 4-cycle instead of two triangles.
        let chorded = Pattern::new("c4+chord", 4, &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]);
        assert_eq!(
            Pattern::two_triangle().canonical_edges(),
            chorded.canonical_edges()
        );
    }

    #[test]
    fn canonical_edges_separate_non_isomorphic_patterns() {
        // Same vertex and edge counts, different shapes.
        let pairs = [
            (Pattern::diamond(), Pattern::c3_star()),
            (Pattern::path(4), Pattern::three_star()),
            (
                // Basket (the "house": C5 + chord, one triangle) vs the
                // bowtie (two triangles sharing a vertex): same vertex and
                // edge counts, different shapes.
                Pattern::basket(),
                Pattern::new(
                    "bowtie",
                    5,
                    &[(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)],
                ),
            ),
        ];
        for (a, b) in pairs {
            assert_eq!(a.vertex_count(), b.vertex_count());
            assert_eq!(a.edge_count(), b.edge_count());
            assert_ne!(
                a.canonical_edges(),
                b.canonical_edges(),
                "{} vs {}",
                a.name(),
                b.name()
            );
        }
        // And the canonical form is idempotent: rebuilding from it is a
        // fixed point.
        for p in Pattern::figure7() {
            let canon = p.canonical_edges();
            let rebuilt = Pattern::new("canon", p.vertex_count(), &canon);
            assert_eq!(rebuilt.canonical_edges(), canon, "{}", p.name());
        }
    }

    #[test]
    fn figure7_metadata() {
        let names: Vec<_> = Pattern::figure7()
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        assert_eq!(
            names,
            vec![
                "2-star",
                "3-star",
                "c3-star",
                "diamond",
                "2-triangle",
                "3-triangle",
                "basket"
            ]
        );
        assert_eq!(Pattern::three_triangle().vertex_count(), 5);
        assert_eq!(Pattern::three_triangle().edge_count(), 7);
        assert_eq!(Pattern::basket().edge_count(), 6);
    }
}
