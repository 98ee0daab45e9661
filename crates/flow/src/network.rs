//! Flow network arena.
//!
//! Edges live in one `Vec<Edge>` of paired records, and the per-node
//! adjacency is one CSR (`offsets` + `arcs`) built on the first adjacency
//! read — a solver run, [`FlowNetwork::out_edges`] or
//! [`crate::min_cut_source_side`] — and dropped by the next
//! [`FlowNetwork::add_edge`]. The build is a stable counting sort of the
//! arc ids by tail (`edges[a ^ 1].to`), so each node's arcs sit in
//! ascending id order: the order the arcs were added in, which is what
//! fixes Dinic's traversal. A CSR costs 4 B per node and 4 B per arc; a
//! `Vec` per node would add a 24 B header, a heap chunk and doubling slack
//! per node.

use std::sync::OnceLock;

/// Node identifier inside a [`FlowNetwork`].
pub type NodeId = u32;
/// Edge identifier inside a [`FlowNetwork`]. Even ids are forward edges,
/// `id ^ 1` is the paired residual edge (the opposite arc of a folded
/// pair).
pub type EdgeId = u32;

/// Numerical slack used when comparing `f64` capacities. Binary-search
/// densities are dyadic rationals well above this magnitude.
pub const EPS: f64 = 1e-10;

/// A directed edge with capacity and current flow.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Head of the edge.
    pub to: NodeId,
    /// Capacity (use [`FlowNetwork::INF`] for unbounded edges).
    pub cap: f64,
    /// Flow currently routed on the edge.
    pub flow: f64,
}

impl Edge {
    /// Residual capacity `cap - flow`.
    #[inline]
    pub fn residual(&self) -> f64 {
        self.cap - self.flow
    }
}

/// The per-node adjacency of a [`FlowNetwork`] in CSR form: the arcs
/// leaving node `v` are `arcs[offsets[v]..offsets[v + 1]]`, ascending.
#[derive(Clone, Debug)]
pub(crate) struct Adjacency {
    offsets: Vec<u32>,
    arcs: Vec<EdgeId>,
}

impl Adjacency {
    /// Counting sort of the arc ids by tail, stable, so every row is in
    /// ascending arc-id order.
    fn build(edges: &[Edge], num_nodes: usize) -> Self {
        let mut offsets = vec![0u32; num_nodes + 1];
        for pair in edges.chunks_exact(2) {
            // Arc `2k` leaves `pair[1].to`, its twin `2k + 1` leaves `pair[0].to`.
            offsets[pair[1].to as usize + 1] += 1;
            offsets[pair[0].to as usize + 1] += 1;
        }
        for v in 0..num_nodes {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets[..num_nodes].to_vec();
        let mut arcs = vec![0; edges.len()];
        for a in 0..edges.len() {
            let tail = edges[a ^ 1].to as usize;
            arcs[next[tail] as usize] = a as EdgeId;
            next[tail] += 1;
        }
        Adjacency { offsets, arcs }
    }

    /// Number of nodes.
    #[inline]
    pub(crate) fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Arc ids leaving `v`, ascending.
    #[inline]
    pub(crate) fn row(&self, v: NodeId) -> &[EdgeId] {
        let v = v as usize;
        &self.arcs[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Pushes `amount` along arc `e` of `edges` and pulls it back on `e ^ 1`
/// (see [`FlowNetwork::push`]).
#[inline]
pub(crate) fn push_flow(edges: &mut [Edge], e: EdgeId, amount: f64) {
    debug_assert!(!amount.is_nan(), "edge {e}: pushing NaN flow");
    let edge = &mut edges[e as usize];
    edge.flow += amount;
    debug_assert!(
        edge.residual() >= -1e-9 * edge.cap.abs().max(edge.flow.abs()).max(1.0),
        "edge {e}: flow {} overruns capacity {}",
        edge.flow,
        edge.cap
    );
    edges[(e ^ 1) as usize].flow -= amount;
}

/// A directed flow network stored as an edge arena with a CSR adjacency.
///
/// Every [`add_edge`](FlowNetwork::add_edge) inserts a forward edge and a
/// zero-capacity reverse edge at ids `2k` / `2k + 1`, or a folded pair
/// ([`add_edge_pair`](FlowNetwork::add_edge_pair)) whose two arcs both
/// carry capacity, so the reverse of edge `e` is always `e ^ 1` — the
/// classic residual-pairing trick. Flow is antisymmetric within a pair
/// (`flow(e) = −flow(e ^ 1)`), so a folded pair carries one net flow in
/// `[−cap(e ^ 1), cap(e)]` and needs half the records and adjacency slots
/// of two separately added antiparallel edges.
///
/// The adjacency is built on the first read after the last edge was added
/// (see the module docs); adding edges after a read is allowed and
/// rebuilds it on the next one.
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    edges: Vec<Edge>,
    num_nodes: usize,
    /// Arc ids leaving each node, built lazily from `edges`.
    adjacency: OnceLock<Adjacency>,
}

impl FlowNetwork {
    /// Capacity standing in for +∞ (used by Algorithm 1's ψ→v edges).
    pub const INF: f64 = 1e100;

    /// A network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            edges: Vec::new(),
            num_nodes: n,
            adjacency: OnceLock::new(),
        }
    }

    /// A network with `n` nodes, pre-reserving space for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut net = Self::new(n);
        net.edges.reserve(2 * m);
        net
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edge pairs (a folded antiparallel pair counts once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len() / 2
    }

    /// Adds a directed edge `from → to` with the given capacity and returns
    /// its id. Negative capacities are clamped to zero.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cap: f64) -> EdgeId {
        assert!(
            (from as usize) < self.num_nodes && (to as usize) < self.num_nodes,
            "edge {from}→{to} outside a {}-node network",
            self.num_nodes
        );
        self.adjacency.take();
        let id = self.edges.len() as EdgeId;
        self.edges.push(Edge {
            to,
            cap: cap.max(0.0),
            flow: 0.0,
        });
        self.edges.push(Edge {
            to: from,
            cap: 0.0,
            flow: 0.0,
        });
        id
    }

    /// Adds the antiparallel arcs `u → v` (capacity `cap_uv`) and `v → u`
    /// (capacity `cap_vu`) as one folded pair: each arc is the other's
    /// residual twin, so the pair costs two edge records and two adjacency
    /// slots instead of four. Returns the id of the `u → v` arc (`id ^ 1`
    /// is `v → u`). Negative capacities are clamped to zero.
    pub fn add_edge_pair(&mut self, u: NodeId, v: NodeId, cap_uv: f64, cap_vu: f64) -> EdgeId {
        let id = self.add_edge(u, v, cap_uv);
        self.edges[(id ^ 1) as usize].cap = cap_vu.max(0.0);
        id
    }

    /// The edge with id `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e as usize]
    }

    /// Edge ids leaving `v` (forward and residual alike), ascending.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        self.adjacency().row(v)
    }

    /// The CSR adjacency, built on the first read since the last
    /// [`add_edge`](Self::add_edge).
    fn adjacency(&self) -> &Adjacency {
        self.adjacency
            .get_or_init(|| Adjacency::build(&self.edges, self.num_nodes))
    }

    /// The adjacency and the edge records, borrowed apart so a solver can
    /// push flow while it walks the arcs — the adjacency is read once per
    /// solver run, never per arc. The first call after the last
    /// [`add_edge`](Self::add_edge) also trims the edge arena's growth
    /// slack, since networks are built before they are solved.
    pub(crate) fn arena_mut(&mut self) -> (&Adjacency, &mut [Edge]) {
        if self.adjacency.get().is_none() {
            self.edges.shrink_to_fit();
        }
        let FlowNetwork {
            edges,
            num_nodes,
            adjacency,
        } = self;
        let adjacency = adjacency.get_or_init(|| Adjacency::build(edges, *num_nodes));
        (adjacency, edges)
    }

    /// Replaces the capacity of edge `e`.
    ///
    /// Used by the binary-search drivers, where only the `v→t` capacities
    /// depend on the guessed density α. In debug builds NaN and negative
    /// capacities are rejected outright — a NaN tolerance or unclamped
    /// `base + scale·α` term would otherwise flow silently into the edge
    /// caps and corrupt every later min-cut; release builds keep the
    /// historical clamp-to-zero as a last line of defense.
    #[inline]
    pub fn set_cap(&mut self, e: EdgeId, cap: f64) {
        debug_assert!(
            !cap.is_nan(),
            "edge {e}: capacity is NaN (bad α or tolerance?)"
        );
        debug_assert!(
            cap >= 0.0,
            "edge {e}: negative capacity {cap} (clamp before set_cap)"
        );
        self.edges[e as usize].cap = cap.max(0.0);
    }

    /// Pushes `amount` along edge `e` (and pulls it back on `e ^ 1`).
    ///
    /// Debug builds reject NaN amounts and pushes that overrun `e`'s
    /// residual capacity (beyond rounding) — on a folded pair that is the
    /// bound that keeps the net flow within `[−cap(e ^ 1), cap(e)]`.
    #[inline]
    pub fn push(&mut self, e: EdgeId, amount: f64) {
        push_flow(&mut self.edges, e, amount);
    }

    /// Iterates the edge pairs as `(from, forward, back)`: `forward` is the
    /// arc `from → forward.to` and `back` its twin `forward.to → from`
    /// (zero capacity unless the pair was folded).
    pub fn edge_pairs(&self) -> impl Iterator<Item = (NodeId, &Edge, &Edge)> + '_ {
        self.edges
            .chunks_exact(2)
            .map(|pair| (pair[1].to, &pair[0], &pair[1]))
    }

    /// Copies the current flow values into `out` (cleared first) — the
    /// cheap snapshot half of the parametric checkpoint/restore cycle.
    pub fn save_flows(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.edges.iter().map(|e| e.flow));
    }

    /// Restores flow values saved by [`save_flows`](Self::save_flows) on
    /// this same network (topology must be unchanged).
    pub fn restore_flows(&mut self, flows: &[f64]) {
        assert_eq!(
            flows.len(),
            self.edges.len(),
            "flow snapshot shape mismatch"
        );
        for (e, &f) in self.edges.iter_mut().zip(flows) {
            e.flow = f;
        }
    }

    /// Resets all flow to zero, keeping topology and capacities.
    pub fn reset_flow(&mut self) {
        for e in &mut self.edges {
            e.flow = 0.0;
        }
    }

    /// Total flow currently leaving `s` (equals the max-flow value after a
    /// solver run).
    pub fn outflow(&self, s: NodeId) -> f64 {
        self.out_edges(s)
            .iter()
            .map(|&e| {
                let edge = self.edge(e);
                // Residual (odd) edges carry negative flow for inbound
                // traffic; summing all `flow` on out-edges nets correctly.
                edge.flow
            })
            .sum()
    }

    /// Total flow currently arriving at `t` (equals the max-flow value
    /// after a solver run).
    pub fn inflow(&self, t: NodeId) -> f64 {
        -self.outflow(t)
    }

    /// Checks flow conservation at every node except `s` and `t`; used by
    /// tests and debug assertions.
    pub fn conserves_flow(&self, s: NodeId, t: NodeId) -> bool {
        let mut balance = vec![0.0f64; self.num_nodes()];
        // A pair's net flow `e.flow` runs `from → e.to` (negative on a
        // folded pair carrying flow the other way).
        for (from, e, _) in self.edge_pairs() {
            balance[from as usize] -= e.flow;
            balance[e.to as usize] += e.flow;
        }
        balance
            .iter()
            .enumerate()
            .all(|(v, &b)| v == s as usize || v == t as usize || b.abs() < 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_edges() {
        let mut net = FlowNetwork::new(3);
        let e = net.add_edge(0, 1, 5.0);
        assert_eq!(e, 0);
        assert_eq!(net.edge(e).to, 1);
        assert_eq!(net.edge(e ^ 1).to, 0);
        assert_eq!(net.edge(e ^ 1).cap, 0.0);
        assert_eq!(net.num_edges(), 1);
    }

    #[test]
    fn push_updates_residuals() {
        let mut net = FlowNetwork::new(2);
        let e = net.add_edge(0, 1, 4.0);
        net.push(e, 3.0);
        assert!((net.edge(e).residual() - 1.0).abs() < 1e-12);
        assert!((net.edge(e ^ 1).residual() - 3.0).abs() < 1e-12);
        net.reset_flow();
        assert_eq!(net.edge(e).flow, 0.0);
    }

    #[test]
    fn folded_pair_shares_one_record_pair() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 1.0);
        let e = net.add_edge_pair(1, 2, 3.0, 5.0);
        assert_eq!(e, 2);
        assert_eq!(net.num_edges(), 2);
        assert_eq!((net.edge(e).to, net.edge(e).cap), (2, 3.0));
        assert_eq!((net.edge(e ^ 1).to, net.edge(e ^ 1).cap), (1, 5.0));
        // One adjacency slot per endpoint, not two.
        assert_eq!(net.out_edges(1), &[1, e]);
        assert_eq!(net.out_edges(2), &[e ^ 1]);
        let pairs: Vec<(NodeId, f64, f64)> = net
            .edge_pairs()
            .map(|(from, fwd, back)| (from, fwd.cap, back.cap))
            .collect();
        assert_eq!(pairs, vec![(0, 1.0, 0.0), (1, 3.0, 5.0)]);
    }

    #[test]
    fn folded_pair_flow_runs_both_ways() {
        let mut net = FlowNetwork::new(2);
        let e = net.add_edge_pair(0, 1, 3.0, 5.0);
        // Residuals start at the two capacities.
        assert_eq!(net.edge(e).residual(), 3.0);
        assert_eq!(net.edge(e ^ 1).residual(), 5.0);
        // Pushing one way frees capacity the other way.
        net.push(e, 2.0);
        assert_eq!(net.edge(e).residual(), 1.0);
        assert_eq!(net.edge(e ^ 1).residual(), 7.0);
        // The net flow can turn negative, down to −cap(e ^ 1).
        net.push(e ^ 1, 7.0);
        assert_eq!(net.edge(e).flow, -5.0);
        assert_eq!(net.edge(e).residual(), 8.0);
        assert_eq!(net.edge(e ^ 1).residual(), 0.0);
        assert!(net.conserves_flow(0, 1));
        assert_eq!(net.outflow(0), -5.0);
        net.reset_flow();
        assert_eq!(net.edge(e ^ 1).residual(), 5.0);
    }

    #[test]
    fn folded_pair_clamps_negative_capacities() {
        let mut net = FlowNetwork::new(2);
        let e = net.add_edge_pair(0, 1, -1.0, -2.0);
        assert_eq!(net.edge(e).cap, 0.0);
        assert_eq!(net.edge(e ^ 1).cap, 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overruns capacity")]
    fn push_past_capacity_is_rejected_in_debug() {
        let mut net = FlowNetwork::new(2);
        let e = net.add_edge_pair(0, 1, 3.0, 5.0);
        net.push(e ^ 1, 6.0);
    }

    /// The CSR adjacency lists each node's arcs in the order they were
    /// added, and an edge added after a read shows up in the next one.
    #[test]
    fn adjacency_follows_edges_added_after_a_read() {
        let mut net = FlowNetwork::new(3);
        let a = net.add_edge(0, 1, 1.0);
        let b = net.add_edge_pair(2, 0, 2.0, 3.0);
        assert_eq!(net.out_edges(0), &[a, b ^ 1]);
        assert_eq!(net.out_edges(2), &[b]);
        let c = net.add_edge(0, 2, 4.0);
        assert_eq!(net.out_edges(0), &[a, b ^ 1, c]);
        assert_eq!(net.out_edges(2), &[b, c ^ 1]);
        assert_eq!(net.out_edges(1), &[a ^ 1]);
        let flow = crate::Dinic::new().max_flow(&mut net, 0, 2);
        assert_eq!(flow, 7.0);
    }

    #[test]
    fn negative_capacity_clamped() {
        let mut net = FlowNetwork::new(2);
        let e = net.add_edge(0, 1, -2.0);
        assert_eq!(net.edge(e).cap, 0.0);
    }
}
