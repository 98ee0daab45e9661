//! `dsd-graph`: the graph substrate used by the densest-subgraph algorithms.
//!
//! The crate provides a compact, immutable, undirected, simple graph in CSR
//! (compressed sparse row) form, plus the operations the DSD algorithms in
//! `dsd-core` lean on heavily:
//!
//! * [`Graph`] / [`GraphBuilder`] — construction from edge lists with
//!   deduplication and self-loop removal, O(1) neighbour slices, and
//!   `O(log d)` edge probes over sorted adjacency;
//! * [`VertexSet`] — an alive-bitmap over vertices used by peeling and
//!   decremental core decomposition;
//! * [`InducedSubgraph`] — materialized induced subgraphs with old/new id
//!   maps, used when an algorithm recurses into a core or a component;
//! * [`delta`] — dynamic edge updates: [`GraphUpdate`] batches accumulate
//!   in an [`EdgeOverlay`], and a [`DeltaGraph`] merges them back into a
//!   CSR with a rebuild-or-patch policy;
//! * [`components`] — connected components;
//! * [`order`] — degeneracy ordering and the oriented DAG used by the
//!   k-clique listing algorithm of Danisch et al.;
//! * [`io`] — a plain edge-list text format.
//!
//! ```
//! use dsd_graph::{Graph, VertexSet, InducedSubgraph, connected_components};
//!
//! let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
//! assert_eq!(g.degree(0), 2);
//! assert!(g.has_edge(1, 2));
//! assert_eq!(connected_components(&g).num_components, 2);
//!
//! let mut alive = VertexSet::full(5);
//! alive.remove(2);
//! let sub = InducedSubgraph::from_set(&g, &alive);
//! assert_eq!(sub.graph.num_edges(), 2); // {0,1} and {3,4}
//! ```

pub mod components;
pub mod delta;
pub mod graph;
pub mod io;
pub mod order;
pub mod testing;
pub mod view;

pub use components::{
    components_among, connected_components, connected_components_within, ConnectedComponents,
};
pub use delta::{DeltaGraph, EdgeOverlay, GraphUpdate};
pub use graph::{Graph, GraphBuilder, VertexId};
pub use order::{degeneracy_order, DegeneracyOrder};
pub use view::{InducedSubgraph, VertexSet};
