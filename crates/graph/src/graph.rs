//! Compact undirected simple graph in CSR form.

use std::fmt;

/// Vertex identifier. Graphs are limited to `u32::MAX` vertices, which keeps
/// adjacency arrays half the size of a `usize` representation — the DSD
/// workloads are bound by memory traffic over adjacency, so this matters.
pub type VertexId = u32;

/// An undirected, unweighted, simple graph stored in CSR form.
///
/// Neighbour lists are sorted, enabling `O(log d)` edge probes and linear
/// neighbourhood intersections (the inner loop of clique counting).
///
/// The representation is immutable; algorithms that delete vertices do so
/// logically through [`crate::VertexSet`] masks or by materializing
/// [`crate::InducedSubgraph`]s.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `adj` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbour lists.
    adj: Vec<VertexId>,
    /// Number of undirected edges.
    m: usize,
}

impl Graph {
    /// Builds a graph with `n` vertices from an undirected edge list.
    ///
    /// Self-loops and duplicate edges are dropped; endpoints must be `< n`.
    /// This is the convenience path; use [`GraphBuilder`] when streaming
    /// edges in.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Assembles a graph from pre-built CSR arrays (the patch path of
    /// [`crate::DeltaGraph::materialize`]). Callers guarantee sorted
    /// neighbour lists and consistent offsets.
    pub(crate) fn from_csr_parts(offsets: Vec<usize>, adj: Vec<VertexId>, m: usize) -> Self {
        debug_assert_eq!(*offsets.last().unwrap(), adj.len());
        debug_assert_eq!(adj.len(), 2 * m);
        debug_assert!(
            (0..offsets.len() - 1).all(|v| adj[offsets[v]..offsets[v + 1]]
                .windows(2)
                .all(|w| w[0] < w[1]))
        );
        Graph { offsets, adj, m }
    }

    /// The raw CSR arrays `(offsets, adj)`, for the run copies of
    /// [`crate::DeltaGraph::materialize`].
    pub(crate) fn csr_parts(&self) -> (&[usize], &[VertexId]) {
        (&self.offsets, &self.adj)
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            adj: Vec::new(),
            m: 0,
        }
    }

    /// Number of vertices `n = |V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree `d` over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Sorted neighbour slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the undirected edge `{u, v}` is present. `O(log d(u))`.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertices.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Edge density `m / n` from the paper's Definition 1.
    ///
    /// Returns 0 for the empty vertex set.
    pub fn edge_density(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.m as f64 / self.num_vertices() as f64
        }
    }

    /// Degrees of all vertices as a vector.
    pub fn degrees(&self) -> Vec<usize> {
        self.vertices().map(|v| self.degree(v)).collect()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph {{ n: {}, m: {} }}",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

/// Incremental builder for [`Graph`].
///
/// Accumulates directed half-edges and finalizes them into a deduplicated,
/// sorted CSR. Self-loops are ignored at insertion time.
pub struct GraphBuilder {
    n: usize,
    /// Half-edges `(u, v)` stored once per direction during `build`.
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "graphs are limited to u32 vertices");
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// A builder with pre-reserved capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are silently dropped.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for n = {}",
            self.n
        );
        if u != v {
            self.edges.push((u.min(v), u.max(v)));
        }
    }

    /// Number of vertices this builder was created with.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Finalizes into a [`Graph`], deduplicating parallel edges.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let m = self.edges.len();

        let mut deg = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for &d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![0 as VertexId; 2 * m];
        for &(u, v) in &self.edges {
            adj[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Each neighbour list must be sorted for `has_edge` probes. The
        // edges were inserted in (min, max) sorted order so the `v`-side
        // entries arrive ascending already, but the `u`-side interleaves;
        // sort each list once.
        for v in 0..self.n {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph { offsets, adj, m }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        // 0-1-2 triangle, 3 pendant on 0.
        Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3)])
    }

    #[test]
    fn builds_csr_with_sorted_adjacency() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.neighbors(3), &[0]);
    }

    #[test]
    fn drops_self_loops_and_duplicates() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 0), (1, 2), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn edge_probes() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(1, 3));
        assert!(!g.has_edge(2, 3));
    }

    #[test]
    fn edges_iterator_yields_canonical_pairs() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (0, 3), (1, 2)]);
    }

    #[test]
    fn density_of_paper_figure_1a_subgraph() {
        // S1 from Figure 1(a) has 7 vertices and 11 edges: density 11/7.
        // Build any 7-vertex 11-edge graph to check the formula path.
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 5),
            (4, 6),
            (5, 6),
            (3, 5),
        ];
        let g = Graph::from_edges(7, &edges);
        assert!((g.edge_density() - 11.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edge_density(), 0.0);
        let g0 = Graph::empty(0);
        assert_eq!(g0.num_vertices(), 0);
        assert_eq!(g0.edge_density(), 0.0);
    }

    #[test]
    fn max_degree() {
        let g = triangle_plus_tail();
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.degrees(), vec![3, 2, 2, 1]);
    }
}
