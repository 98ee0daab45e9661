//! Dynamic edge updates over the immutable CSR [`Graph`].
//!
//! The CSR representation is deliberately immutable — every algorithm in
//! the workspace reads sorted adjacency slices — so evolving graphs are
//! expressed as a **base CSR plus an edge overlay**:
//!
//! * [`GraphUpdate`] — one edge insertion or deletion;
//! * [`EdgeOverlay`] — an accumulated batch of effective updates, stored
//!   as per-vertex sorted add/remove lists;
//! * [`DeltaGraph`] — `base ⊕ overlay`, pending its merge;
//! * [`DeltaGraph::materialize`] — the merge, with a rebuild-or-patch
//!   policy that turns the pair back into a plain [`Graph`]: small
//!   overlays are merged into the existing CSR arrays in one linear pass,
//!   large overlays fall back to a full [`GraphBuilder`] rebuild.
//!
//! The intended lifecycle (what `dsd-core`'s engine does): accumulate
//! updates in an overlay and materialize only when a reader actually
//! needs a CSR — a Ψ-store repair or the next snapshot.
//!
//! ```
//! use dsd_graph::{DeltaGraph, EdgeOverlay, Graph, GraphUpdate};
//!
//! let base = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2)]);
//! let mut overlay = EdgeOverlay::default();
//! assert!(overlay.apply(&base, &GraphUpdate::Insert(2, 3)));
//! assert!(overlay.apply(&base, &GraphUpdate::Delete(0, 1)));
//! assert!(!overlay.apply(&base, &GraphUpdate::Insert(1, 2))); // already present
//!
//! let view = DeltaGraph::new(&base, &overlay);
//! assert_eq!(view.num_edges(), 3);
//!
//! let g = view.materialize();
//! assert!(g.has_edge(2, 3));
//! assert!(!g.has_edge(0, 1));
//! assert_eq!(g.neighbors(2), &[0, 1, 3]);
//! ```

use std::collections::HashMap;

use crate::graph::{Graph, GraphBuilder, VertexId};

/// One edge-level change to an undirected simple graph.
///
/// Endpoints are unordered; `Insert(u, v)` and `Insert(v, u)` denote the
/// same update. Updates that do not change the graph (inserting a present
/// edge, deleting an absent one, self-loops, out-of-range endpoints) are
/// *no-ops*: appliers report them as ineffective rather than failing, so
/// idempotent update streams can be replayed safely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphUpdate {
    /// Insert the undirected edge `{u, v}`.
    Insert(VertexId, VertexId),
    /// Delete the undirected edge `{u, v}`.
    Delete(VertexId, VertexId),
}

impl GraphUpdate {
    /// The update's endpoints, in the order they were written.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        match *self {
            GraphUpdate::Insert(u, v) | GraphUpdate::Delete(u, v) => (u, v),
        }
    }
}

/// An accumulated batch of effective edge updates relative to a base
/// [`Graph`].
///
/// The overlay stores, per endpoint, the sorted list of neighbours added
/// and removed, and keeps itself *reduced*: an edge is never in both
/// lists, inserting a previously-deleted edge cancels the deletion (and
/// vice versa), and no-op updates leave the overlay untouched. This makes
/// `added_edges`/`removed_edges` exact deltas of the edge count.
#[derive(Clone, Debug, Default)]
pub struct EdgeOverlay {
    /// `added[v]` = sorted neighbours gained by `v` (both directions kept).
    added: HashMap<VertexId, Vec<VertexId>>,
    /// `removed[v]` = sorted neighbours lost by `v`.
    removed: HashMap<VertexId, Vec<VertexId>>,
    /// Undirected count of edges in `added`.
    added_edges: usize,
    /// Undirected count of edges in `removed`.
    removed_edges: usize,
}

impl EdgeOverlay {
    /// Whether the overlay holds no changes.
    pub fn is_empty(&self) -> bool {
        self.added_edges == 0 && self.removed_edges == 0
    }

    /// Number of edges added and removed relative to the base.
    pub fn counts(&self) -> (usize, usize) {
        (self.added_edges, self.removed_edges)
    }

    /// Total number of edge slots the overlay touches.
    pub fn len(&self) -> usize {
        self.added_edges + self.removed_edges
    }

    /// The edges added relative to the base, each once as `(u, v)` with
    /// `u < v`, sorted.
    pub fn added_edge_list(&self) -> Vec<(VertexId, VertexId)> {
        edge_list(&self.added)
    }

    /// The base edges removed, each once as `(u, v)` with `u < v`, sorted.
    pub fn removed_edge_list(&self) -> Vec<(VertexId, VertexId)> {
        edge_list(&self.removed)
    }

    /// Applies one update on top of `base ⊕ self`. Returns whether the
    /// update was effective (`false` for no-ops: self-loops, out-of-range
    /// endpoints, inserting a present edge, deleting an absent one).
    pub fn apply(&mut self, base: &Graph, update: &GraphUpdate) -> bool {
        let n = base.num_vertices();
        let (u, v) = update.endpoints();
        if u == v || u as usize >= n || v as usize >= n {
            return false;
        }
        let present = self.edge_present(base, u, v);
        match update {
            GraphUpdate::Insert(..) => {
                if present {
                    return false;
                }
                if base.has_edge(u, v) {
                    // Re-inserting a base edge we deleted: cancel the delete.
                    remove_sorted(&mut self.removed, u, v);
                    remove_sorted(&mut self.removed, v, u);
                    self.removed_edges -= 1;
                } else {
                    insert_sorted(&mut self.added, u, v);
                    insert_sorted(&mut self.added, v, u);
                    self.added_edges += 1;
                }
                true
            }
            GraphUpdate::Delete(..) => {
                if !present {
                    return false;
                }
                if base.has_edge(u, v) {
                    insert_sorted(&mut self.removed, u, v);
                    insert_sorted(&mut self.removed, v, u);
                    self.removed_edges += 1;
                } else {
                    // Deleting an overlay-added edge: cancel the insert.
                    remove_sorted(&mut self.added, u, v);
                    remove_sorted(&mut self.added, v, u);
                    self.added_edges -= 1;
                }
                true
            }
        }
    }

    /// Whether `{u, v}` is present in `base ⊕ self`.
    fn edge_present(&self, base: &Graph, u: VertexId, v: VertexId) -> bool {
        if contains_sorted(&self.added, u, v) {
            return true;
        }
        if contains_sorted(&self.removed, u, v) {
            return false;
        }
        base.has_edge(u, v)
    }

    fn added_at(&self, v: VertexId) -> &[VertexId] {
        self.added.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    fn removed_at(&self, v: VertexId) -> &[VertexId] {
        self.removed.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }
}

fn edge_list(map: &HashMap<VertexId, Vec<VertexId>>) -> Vec<(VertexId, VertexId)> {
    let mut edges: Vec<(VertexId, VertexId)> = map
        .iter()
        .flat_map(|(&u, vs)| vs.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
        .collect();
    edges.sort_unstable();
    edges
}

fn insert_sorted(map: &mut HashMap<VertexId, Vec<VertexId>>, key: VertexId, value: VertexId) {
    let list = map.entry(key).or_default();
    if let Err(at) = list.binary_search(&value) {
        list.insert(at, value);
    }
}

fn remove_sorted(map: &mut HashMap<VertexId, Vec<VertexId>>, key: VertexId, value: VertexId) {
    if let Some(list) = map.get_mut(&key) {
        if let Ok(at) = list.binary_search(&value) {
            list.remove(at);
        }
    }
}

fn contains_sorted(map: &HashMap<VertexId, Vec<VertexId>>, key: VertexId, value: VertexId) -> bool {
    map.get(&key)
        .is_some_and(|list| list.binary_search(&value).is_ok())
}

/// `base ⊕ overlay`: a CSR plus the overlay of edge updates applied since
/// it was built, merged into a fresh CSR by [`DeltaGraph::materialize`].
#[derive(Clone, Copy)]
pub struct DeltaGraph<'a> {
    base: &'a Graph,
    overlay: &'a EdgeOverlay,
}

impl<'a> DeltaGraph<'a> {
    /// A view of `base` with `overlay` applied.
    pub fn new(base: &'a Graph, overlay: &'a EdgeOverlay) -> Self {
        DeltaGraph { base, overlay }
    }

    /// The base CSR graph.
    pub fn base(&self) -> &'a Graph {
        self.base
    }

    /// Number of vertices (updates never change the vertex universe).
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Number of undirected edges in the combined view.
    pub fn num_edges(&self) -> usize {
        self.base.num_edges() + self.overlay.added_edges - self.overlay.removed_edges
    }

    /// Calls `f` once per neighbour of `v` in the combined view: the
    /// surviving base neighbours, then the added ones (each run sorted,
    /// the whole not).
    fn for_each_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, mut f: F) {
        let removed = self.overlay.removed_at(v);
        for &u in self.base.neighbors(v) {
            if removed.is_empty() || removed.binary_search(&u).is_err() {
                f(u);
            }
        }
        for &u in self.overlay.added_at(v) {
            f(u);
        }
    }

    /// Materializes the combined view into a plain [`Graph`].
    ///
    /// The rebuild-or-patch policy: overlays smaller than half the base
    /// edge count are **patched** into fresh CSR arrays with no global
    /// sort — each run of vertices the overlay leaves alone is one slice
    /// copy, and only touched vertices pay a three-way merge of their
    /// sorted base/added/removed lists; larger overlays **rebuild** through
    /// [`GraphBuilder`] (whose sort-based path wins once most of the
    /// adjacency changes anyway).
    pub fn materialize(&self) -> Graph {
        if self.overlay.is_empty() {
            return self.base.clone();
        }
        if self.overlay.len() * 2 >= self.base.num_edges().max(1) {
            // Rebuild: collect the surviving edge list and sort once.
            let mut b = GraphBuilder::with_capacity(self.num_vertices(), self.num_edges());
            for v in 0..self.num_vertices() as VertexId {
                self.for_each_neighbor(v, |u| {
                    if v < u {
                        b.add_edge(v, u);
                    }
                });
            }
            return b.build();
        }
        // Patch: copy each run of untouched vertices with one slice copy
        // and shifted offsets; merge only the vertices the overlay touches.
        let n = self.num_vertices();
        let m = self.num_edges();
        let (base_offsets, base_adj) = self.base.csr_parts();
        let mut touched: Vec<VertexId> = self.overlay.added.keys().copied().collect();
        touched.extend(self.overlay.removed.keys().copied());
        touched.sort_unstable();
        touched.dedup();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(2 * m);
        offsets.push(0usize);
        let mut next = 0usize;
        for t in touched.into_iter().map(|t| t as usize).chain([n]) {
            let (start, at) = (base_offsets[next], adj.len());
            offsets.extend(base_offsets[next + 1..=t].iter().map(|&o| o - start + at));
            adj.extend_from_slice(&base_adj[start..base_offsets[t]]);
            if t == n {
                break;
            }
            let v = t as VertexId;
            let removed = self.overlay.removed_at(v);
            let mut add_it = self.overlay.added_at(v).iter().copied().peekable();
            for &u in self.base.neighbors(v) {
                while let Some(a) = add_it.next_if(|&a| a < u) {
                    adj.push(a);
                }
                if removed.binary_search(&u).is_err() {
                    adj.push(u);
                }
            }
            adj.extend(add_it);
            offsets.push(adj.len());
            next = t + 1;
        }
        debug_assert_eq!(adj.len(), 2 * m);
        Graph::from_csr_parts(offsets, adj, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::XorShift;

    fn base() -> Graph {
        // Triangle 0-1-2, pendant 3 on 0, isolated 4.
        Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (0, 3)])
    }

    #[test]
    fn noop_updates_are_rejected() {
        let g = base();
        let mut ov = EdgeOverlay::default();
        assert!(!ov.apply(&g, &GraphUpdate::Insert(0, 0)), "self-loop");
        assert!(!ov.apply(&g, &GraphUpdate::Insert(0, 9)), "out of range");
        assert!(!ov.apply(&g, &GraphUpdate::Insert(0, 1)), "already present");
        assert!(!ov.apply(&g, &GraphUpdate::Delete(1, 3)), "already absent");
        assert!(ov.is_empty());
    }

    #[test]
    fn insert_delete_roundtrip_cancels() {
        let g = base();
        let mut ov = EdgeOverlay::default();
        assert!(ov.apply(&g, &GraphUpdate::Insert(3, 4)));
        assert!(ov.apply(&g, &GraphUpdate::Delete(3, 4)));
        assert!(ov.is_empty(), "insert+delete of a new edge cancels");
        assert!(ov.apply(&g, &GraphUpdate::Delete(0, 1)));
        assert!(ov.apply(&g, &GraphUpdate::Insert(0, 1)));
        assert!(ov.is_empty(), "delete+insert of a base edge cancels");
    }

    #[test]
    fn merge_reflects_overlay() {
        let g = base();
        let mut ov = EdgeOverlay::default();
        ov.apply(&g, &GraphUpdate::Insert(2, 3));
        ov.apply(&g, &GraphUpdate::Insert(3, 4));
        ov.apply(&g, &GraphUpdate::Delete(0, 1));
        let view = DeltaGraph::new(&g, &ov);
        assert_eq!(view.num_edges(), 5);
        let merged = view.materialize();
        assert_eq!(merged.num_edges(), 5);
        assert!(merged.has_edge(3, 4));
        assert!(!merged.has_edge(0, 1));
        assert_eq!(merged.neighbors(3), &[0, 2, 4]);
        assert_eq!(merged.neighbors(0), &[2, 3]);
    }

    /// Applies `updates` to `g` through an overlay, mirrored on a plain
    /// edge set, and checks `materialize` against a from-scratch build of
    /// the mirror. Returns the overlay's size.
    fn check_against_scratch(g: &Graph, updates: &[GraphUpdate]) -> usize {
        let n = g.num_vertices();
        let mut ov = EdgeOverlay::default();
        let mut edges: std::collections::BTreeSet<(VertexId, VertexId)> = g.edges().collect();
        for &update in updates {
            let effective = ov.apply(g, &update);
            let (u, v) = update.endpoints();
            let key = (u.min(v), u.max(v));
            let expect = match update {
                GraphUpdate::Insert(..) => u != v && edges.insert(key),
                GraphUpdate::Delete(..) => edges.remove(&key),
            };
            assert_eq!(effective, expect, "effectiveness mirror diverged");
        }
        let view = DeltaGraph::new(g, &ov);
        let materialized = view.materialize();
        let edge_list: Vec<_> = edges.iter().copied().collect();
        let expect = Graph::from_edges(n, &edge_list);
        assert_eq!(materialized, expect, "materialize != from-scratch");
        assert_eq!(view.num_edges(), expect.num_edges());
        let before: std::collections::BTreeSet<_> = g.edges().collect();
        let added: Vec<_> = edges.difference(&before).copied().collect();
        let removed: Vec<_> = before.difference(&edges).copied().collect();
        assert_eq!(ov.added_edge_list(), added, "added edge list");
        assert_eq!(ov.removed_edge_list(), removed, "removed edge list");
        ov.len()
    }

    #[test]
    fn materialize_matches_rebuild_from_scratch() {
        let mut rng = XorShift::new(0xDE17A);
        // Small dense bases with 12 random updates: mostly the rebuild
        // branch.
        for _ in 0..60 {
            let g = rng.random_graph(2, 14, 30);
            let n = g.num_vertices() as u64;
            let updates: Vec<GraphUpdate> = (0..12)
                .map(|_| {
                    let u = (rng.next() % n) as VertexId;
                    let v = (rng.next() % n) as VertexId;
                    if rng.next().is_multiple_of(2) {
                        GraphUpdate::Insert(u, v)
                    } else {
                        GraphUpdate::Delete(u, v)
                    }
                })
                .collect();
            check_against_scratch(&g, &updates);
        }
        // Sparse bases of n ≈ 200 with 1–4 updates: the patch branch. The
        // updates favour the ends of its run copies — vertex 0, vertex
        // n − 1 and isolated vertices.
        for _ in 0..60 {
            let g = rng.random_graph(190, 210, 2);
            let n = g.num_vertices();
            let isolated: Vec<VertexId> = g.vertices().filter(|&v| g.degree(v) == 0).collect();
            let endpoint = |rng: &mut XorShift| -> VertexId {
                match rng.next() % 4 {
                    0 => 0,
                    1 => n as VertexId - 1,
                    2 if !isolated.is_empty() => {
                        isolated[(rng.next() % isolated.len() as u64) as usize]
                    }
                    _ => (rng.next() % n as u64) as VertexId,
                }
            };
            let count = 1 + rng.next() % 4;
            let mut updates = Vec::new();
            for _ in 0..count {
                let u = endpoint(&mut rng);
                let nbrs = g.neighbors(u);
                updates.push(if nbrs.is_empty() || rng.next().is_multiple_of(2) {
                    GraphUpdate::Insert(u, endpoint(&mut rng))
                } else {
                    GraphUpdate::Delete(u, nbrs[(rng.next() % nbrs.len() as u64) as usize])
                });
            }
            let touched = check_against_scratch(&g, &updates);
            assert!(
                touched * 2 < g.num_edges(),
                "sparse input left the patch branch"
            );
        }
    }

    #[test]
    fn large_overlay_takes_rebuild_path() {
        let g = Graph::from_edges(6, &[(0, 1)]);
        let mut ov = EdgeOverlay::default();
        // 5 added edges vs 1 base edge → rebuild branch.
        for (u, v) in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 0)] {
            assert!(ov.apply(&g, &GraphUpdate::Insert(u, v)));
        }
        let got = DeltaGraph::new(&g, &ov).materialize();
        let expect = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert_eq!(got, expect);
    }
}
