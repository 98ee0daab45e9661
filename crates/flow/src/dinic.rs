//! Dinic's algorithm: BFS level graph + DFS blocking flows.
//!
//! With `f64` capacities the usual termination argument (integral
//! augmentation) does not apply verbatim; we follow the standard practice of
//! the reference DSD implementations and treat residuals below [`EPS`] as
//! saturated. Level counts still bound the number of phases by `O(V)`.
//!
//! Besides the from-scratch [`Dinic::max_flow`], Dinic implements the
//! warm [`Dinic::resolve`]: after monotone *non-decreasing* capacity
//! bumps the previous flow stays feasible, so the solver just augments
//! from the residual network — the cheap half of the parametric max-flow
//! scheme (Gallo–Grigoriadis–Tarjan) driving the α-search framework.

use crate::network::{push_flow, Adjacency, Edge, EdgeId, FlowNetwork, NodeId, EPS};

/// Dinic max-flow solver. Stateless between runs; scratch buffers are kept
/// to amortize allocations across the many min-cut probes of a binary
/// search.
#[derive(Default)]
pub struct Dinic {
    level: Vec<i32>,
    iter: Vec<usize>,
    queue: Vec<NodeId>,
    work: u64,
}

impl Dinic {
    /// Creates a solver (scratch space grows on demand).
    pub fn new() -> Self {
        Self::default()
    }

    fn bfs(&mut self, adj: &Adjacency, edges: &[Edge], s: NodeId, t: NodeId) -> bool {
        self.level.clear();
        self.level.resize(adj.num_nodes(), -1);
        self.queue.clear();
        self.queue.push(s);
        self.level[s as usize] = 0;
        let mut qi = 0;
        while qi < self.queue.len() {
            let v = self.queue[qi];
            qi += 1;
            for &eid in adj.row(v) {
                self.work += 1;
                let e = &edges[eid as usize];
                if e.residual() > EPS && self.level[e.to as usize] < 0 {
                    self.level[e.to as usize] = self.level[v as usize] + 1;
                    self.queue.push(e.to);
                }
            }
        }
        self.level[t as usize] >= 0
    }

    fn dfs(&mut self, adj: &Adjacency, edges: &mut [Edge], v: NodeId, t: NodeId, f: f64) -> f64 {
        if v == t {
            return f;
        }
        let row = adj.row(v);
        while self.iter[v as usize] < row.len() {
            let eid: EdgeId = row[self.iter[v as usize]];
            self.work += 1;
            let (to, residual) = {
                let e = &edges[eid as usize];
                (e.to, e.residual())
            };
            if residual > EPS && self.level[to as usize] == self.level[v as usize] + 1 {
                let d = self.dfs(adj, edges, to, t, f.min(residual));
                if d > EPS {
                    push_flow(edges, eid, d);
                    return d;
                }
            }
            self.iter[v as usize] += 1;
        }
        0.0
    }

    /// Augments to a maximum flow from whatever (feasible) flow the
    /// network currently carries; returns the amount added by this call.
    fn augment(&mut self, net: &mut FlowNetwork, s: NodeId, t: NodeId) -> f64 {
        let (adj, edges) = net.arena_mut();
        let mut total = 0.0;
        while self.bfs(adj, edges, s, t) {
            self.iter.clear();
            self.iter.resize(adj.num_nodes(), 0);
            loop {
                let f = self.dfs(adj, edges, s, t, f64::INFINITY);
                if f <= EPS {
                    break;
                }
                total += f;
            }
        }
        total
    }

    /// Computes the maximum s→t flow value on a network with no flow yet
    /// (fresh or [`reset`](FlowNetwork::reset_flow)), mutating its flow
    /// state in place. On a network that already carries a feasible flow
    /// it returns only the amount augmented on top of it.
    pub fn max_flow(&mut self, net: &mut FlowNetwork, s: NodeId, t: NodeId) -> f64 {
        assert_ne!(s, t, "source and sink must differ");
        self.augment(net, s, t)
    }

    /// Re-solves after **monotone non-decreasing** capacity changes,
    /// keeping the flow already on the network, and returns the new
    /// max-flow value. The previous flow stays feasible when capacities
    /// only grow, so only the delta is augmented (the parametric max-flow
    /// idea of Gallo–Grigoriadis–Tarjan).
    pub fn resolve(&mut self, net: &mut FlowNetwork, s: NodeId, t: NodeId) -> f64 {
        let _ = self.max_flow(net, s, t);
        net.inflow(t)
    }

    /// Monotone counter of augmenting work (edge scans) performed across
    /// this solver's lifetime; differences around a probe measure the
    /// probe's cost.
    pub fn work(&self) -> u64 {
        self.work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::min_cut_source_side;

    #[test]
    fn simple_series_parallel() {
        // s=0, t=3; two disjoint paths of capacity 3 and 2.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 3.0);
        net.add_edge(1, 3, 3.0);
        net.add_edge(0, 2, 2.0);
        net.add_edge(2, 3, 2.0);
        let f = Dinic::new().max_flow(&mut net, 0, 3);
        assert!((f - 5.0).abs() < 1e-9);
        assert!(net.conserves_flow(0, 3));
    }

    #[test]
    fn bottleneck_in_middle() {
        // Classic diamond with a cross edge.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 10.0);
        net.add_edge(0, 2, 10.0);
        net.add_edge(1, 2, 1.0);
        net.add_edge(1, 3, 5.0);
        net.add_edge(2, 3, 6.0);
        let f = Dinic::new().max_flow(&mut net, 0, 3);
        assert!((f - 11.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 7.0);
        let f = Dinic::new().max_flow(&mut net, 0, 2);
        assert_eq!(f, 0.0);
    }

    #[test]
    fn fractional_capacities() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 1.5);
        net.add_edge(1, 2, 0.75);
        let f = Dinic::new().max_flow(&mut net, 0, 2);
        assert!((f - 0.75).abs() < 1e-9);
    }

    #[test]
    fn min_cut_extraction() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1.0);
        net.add_edge(1, 2, 100.0);
        net.add_edge(2, 3, 100.0);
        let _ = Dinic::new().max_flow(&mut net, 0, 3);
        // The bottleneck is s→1, so S = {s} only.
        assert_eq!(min_cut_source_side(&net, 0), vec![0]);
    }

    #[test]
    fn infinite_edges_never_cut() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 2.0);
        net.add_edge(1, 2, FlowNetwork::INF);
        net.add_edge(2, 3, 1.0);
        let f = Dinic::new().max_flow(&mut net, 0, 3);
        assert!((f - 1.0).abs() < 1e-9);
        let s_side = min_cut_source_side(&net, 0);
        assert_eq!(s_side, vec![0, 1, 2]);
    }

    #[test]
    fn resolve_after_capacity_bump_matches_cold() {
        // Path with a bumped bottleneck: resolve must find the new value.
        let mut net = FlowNetwork::new(3);
        let e0 = net.add_edge(0, 1, 5.0);
        let e1 = net.add_edge(1, 2, 1.0);
        let mut solver = Dinic::new();
        let f = solver.max_flow(&mut net, 0, 2);
        assert!((f - 1.0).abs() < 1e-9);
        net.set_cap(e1, 4.0);
        let f2 = solver.resolve(&mut net, 0, 2);
        assert!((f2 - 4.0).abs() < 1e-9, "resolved value {f2}");
        assert!(net.conserves_flow(0, 2));
        net.set_cap(e0, 10.0);
        net.set_cap(e1, 20.0);
        let f3 = solver.resolve(&mut net, 0, 2);
        assert!((f3 - 10.0).abs() < 1e-9, "resolved value {f3}");
        assert!(solver.work() > 0);
    }
}
