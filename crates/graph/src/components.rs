//! Connected components.
//!
//! The paper's CoreExact (Algorithm 4) processes each connected component of
//! a located (k, Ψ)-core independently (Pruning2), so component extraction
//! sits on the hot path between core location and flow construction.

use crate::graph::{Graph, VertexId};
use crate::view::VertexSet;

/// The result of a connected-components labelling.
#[derive(Clone, Debug)]
pub struct ConnectedComponents {
    /// `label[v]` = component index of `v`, or `u32::MAX` for vertices
    /// outside the queried set.
    pub label: Vec<u32>,
    /// Number of components found.
    pub num_components: usize,
}

impl ConnectedComponents {
    /// Vertices of component `c`, ascending.
    pub fn members(&self, c: u32) -> Vec<VertexId> {
        self.label
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == c)
            .map(|(v, _)| v as VertexId)
            .collect()
    }

    /// All components as vertex lists, indexed by component id.
    pub fn all_members(&self) -> Vec<Vec<VertexId>> {
        let mut out = vec![Vec::new(); self.num_components];
        for (v, &l) in self.label.iter().enumerate() {
            if l != u32::MAX {
                out[l as usize].push(v as VertexId);
            }
        }
        out
    }
}

/// Labels the connected components of the whole graph.
pub fn connected_components(g: &Graph) -> ConnectedComponents {
    connected_components_within(g, &VertexSet::full(g.num_vertices()))
}

/// Labels connected components of the subgraph induced by `set`.
///
/// Vertices outside `set` receive label `u32::MAX`.
pub fn connected_components_within(g: &Graph, set: &VertexSet) -> ConnectedComponents {
    let n = g.num_vertices();
    let mut label = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = Vec::new();
    for start in set.iter() {
        if label[start as usize] != u32::MAX {
            continue;
        }
        label[start as usize] = next;
        queue.push(start);
        while let Some(v) = queue.pop() {
            for &u in g.neighbors(v) {
                if set.contains(u) && label[u as usize] == u32::MAX {
                    label[u as usize] = next;
                    queue.push(u);
                }
            }
        }
        next += 1;
    }
    ConnectedComponents {
        label,
        num_components: next as usize,
    }
}

/// The connected components of the subgraph induced by `members`
/// (ascending), each ascending, ordered by their smallest vertex: the
/// components and order of [`connected_components_within`]`(g,
/// set).all_members()` over the same set, at a cost in the members'
/// degrees instead of in the vertex count.
pub fn components_among(g: &Graph, members: &[VertexId]) -> Vec<Vec<VertexId>> {
    debug_assert!(members.is_sorted(), "members arrive ascending");
    let mut seen = vec![false; members.len()];
    let mut components = Vec::new();
    let mut queue = Vec::new();
    for start in 0..members.len() {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        queue.push(start);
        let mut component = Vec::new();
        while let Some(i) = queue.pop() {
            component.push(members[i]);
            for u in g.neighbors(members[i]) {
                if let Ok(j) = members.binary_search(u) {
                    if !seen[j] {
                        seen[j] = true;
                        queue.push(j);
                    }
                }
            }
        }
        component.sort_unstable();
        components.push(component);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_components() {
        // Triangle {0,1,2} and edge {3,4}.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        let cc = connected_components(&g);
        assert_eq!(cc.num_components, 2);
        assert_eq!(cc.members(cc.label[0]), vec![0, 1, 2]);
        assert_eq!(cc.members(cc.label[3]), vec![3, 4]);
    }

    #[test]
    fn isolated_vertices_are_singletons() {
        let g = Graph::empty(3);
        let cc = connected_components(&g);
        assert_eq!(cc.num_components, 3);
        let all = cc.all_members();
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|c| c.len() == 1));
    }

    /// `components_among` finds the components, order and member order
    /// of the whole-graph labelling restricted to the same set.
    #[test]
    fn components_among_matches_the_labelling() {
        let g = Graph::from_edges(
            9,
            &[
                (0, 5),
                (5, 8),
                (1, 2),
                (2, 7),
                (3, 4),
                (4, 6),
                (6, 3),
                (7, 8),
            ],
        );
        for members in [
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8],
            vec![0, 2, 3, 5, 6, 7, 8],
            vec![],
        ] {
            let set = VertexSet::from_members(9, &members);
            let labelled = connected_components_within(&g, &set).all_members();
            assert_eq!(components_among(&g, &members), labelled, "{members:?}");
        }
    }

    #[test]
    fn restricted_components_split_on_removed_cut_vertex() {
        // Path 0-1-2-3-4; removing 2 splits it.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut s = VertexSet::full(5);
        s.remove(2);
        let cc = connected_components_within(&g, &s);
        assert_eq!(cc.num_components, 2);
        assert_eq!(cc.label[2], u32::MAX);
        assert_eq!(cc.label[0], cc.label[1]);
        assert_eq!(cc.label[3], cc.label[4]);
        assert_ne!(cc.label[0], cc.label[3]);
    }
}
