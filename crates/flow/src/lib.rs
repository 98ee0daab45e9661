//! `dsd-flow`: max-flow / min-cut substrate.
//!
//! The exact DSD algorithms decide, for a guessed density `α`, whether some
//! subgraph beats `α` by computing a minimum st-cut of a purpose-built flow
//! network (Goldberg 1984; Tsourakakis 2015; Fang et al. 2019, Algorithms 1,
//! 4, 7, 8). This crate provides:
//!
//! * [`FlowNetwork`] — an arena of paired forward/residual edges with `f64`
//!   capacities (α is a dyadic rational, so capacities are fractional)
//!   and a CSR adjacency built on first read; antiparallel arcs can share
//!   one folded pair;
//! * [`dinic::Dinic`] — BFS-layered blocking-flow solver, with a warm
//!   [`Dinic::resolve`] for monotone capacity bumps;
//! * [`ParametricSolver`] — drives one [`Dinic`] across a probe sequence
//!   and counts the flow-state reuse it delivered;
//! * [`min_cut_source_side`] — residual-reachability extraction of the
//!   source side `S` of a minimum st-cut, which *is* the candidate densest
//!   subgraph in the paper's constructions.
//!
//! ```
//! use dsd_flow::{Dinic, FlowNetwork, min_cut_source_side};
//!
//! let mut net = FlowNetwork::new(4);
//! net.add_edge(0, 1, 3.0);
//! net.add_edge(0, 2, 2.0);
//! net.add_edge(1, 3, 2.0);
//! net.add_edge(2, 3, 3.0);
//! let flow = Dinic::new().max_flow(&mut net, 0, 3);
//! assert!((flow - 4.0).abs() < 1e-9);
//! assert_eq!(min_cut_source_side(&net, 0), vec![0, 1]);
//! ```

pub mod dinic;
pub mod network;
pub mod parametric;

pub use dinic::Dinic;
pub use network::{EdgeId, FlowNetwork, NodeId, EPS};
pub use parametric::{ParametricSolver, ResolveStats};

/// Returns the source side `S` of a minimum st-cut after a max-flow run:
/// every node reachable from `s` in the residual network.
pub fn min_cut_source_side(net: &FlowNetwork, s: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; net.num_nodes()];
    let mut stack = vec![s];
    seen[s as usize] = true;
    while let Some(v) = stack.pop() {
        for &eid in net.out_edges(v) {
            let e = net.edge(eid);
            if e.residual() > EPS && !seen[e.to as usize] {
                seen[e.to as usize] = true;
                stack.push(e.to);
            }
        }
    }
    (0..net.num_nodes() as NodeId)
        .filter(|&v| seen[v as usize])
        .collect()
}
