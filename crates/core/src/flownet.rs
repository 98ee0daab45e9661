//! Flow-network constructions for the exact DSD algorithms.
//!
//! All constructions share the same decision semantics — after a max-flow
//! at guess density `α`, the source side `S` of a minimum st-cut satisfies
//! `S ≠ {s}` iff some subgraph has density **strictly greater than** `α`
//! (Lemma 14), and the graph vertices in `S \ {s}` induce such a subgraph.
//!
//! The primary constructor is factorised: [`build_store_network`] reads a
//! warm [`InstanceStore`]'s columns directly — each grouped row (a
//! multiplicity-weighted vertex set) becomes one Λ-side node, its members
//! CSR slice becomes the arcs, and the `s→v` capacities come from summing
//! the weight column — so building a `construct+`-shaped network
//! (Algorithm 7) costs one pass over the incidence CSR with **zero
//! instance re-enumeration**. Component networks (`CoreExact`'s shrinking
//! restarts) slice the same rows through the incidence CSR of the
//! component's members instead of re-running kClist per restart.
//!
//! The enumeration constructors remain as the streaming fallbacks (no
//! store materialized: byte budget exceeded, `u32` overflow, or a
//! store-less oracle) and as the differential references the factorised
//! path is tested bit-identical against:
//!
//! * [`build_edge_network`] — Goldberg's simplified network for h = 2
//!   (Section 4.1's remark): `s→v` cap `m`, `v→t` cap `m + 2α − deg(v)`,
//!   `u↔v` cap 1 per edge. Always used for h = 2: the graph's own CSR
//!   already *is* the factorised representation of its edge set;
//! * [`build_clique_network`] — Algorithm 1 lines 5–15 for h ≥ 3:
//!   one node per (h−1)-clique instance ψ, `ψ→v` cap ∞ for `v ∈ ψ`,
//!   `v→ψ` cap 1 when `ψ ∪ {v}` is an h-clique;
//! * [`build_pattern_network`] — Algorithm 8 (one node per pattern
//!   instance, `v→ψ` cap 1, `ψ→v` cap `|VΨ|−1`) and Algorithm 7's
//!   historical materialize-then-hash-group `construct+` variant (one
//!   node per *group* of instances sharing a vertex set, capacities
//!   scaled by `|g|`), selected by `grouped`. Units are minted in
//!   canonical vertex-set order, so node ids, checkpoints, and structure
//!   fingerprints are stable across runs and identical to the
//!   store-built network's.
//!
//! Antiparallel arcs — Goldberg's `u↔v` and the pattern networks'
//! `v→ψ` / `ψ→v` — are stored as one folded pair
//! ([`FlowNetwork::add_edge_pair`]): each arc is the other's residual
//! twin, which halves those arcs' edge records and adjacency slots. The
//! minimal min-cut source side does not depend on which maximum flow the
//! solver finds, so the fold leaves every witness unchanged.
//!
//! Only the `v→t` capacities depend on α — monotone *non-decreasingly* —
//! so a network is built once per candidate subgraph and each α-search
//! guess is served by the parametric machinery of `dsd_flow::parametric`:
//! [`DensityNetwork::solve`] keeps one solver allocation alive across the
//! probe sequence, checkpoints the flow state of feasible probes (the
//! search then raises its lower bound past their α), and
//! warm-[`resolve`](dsd_flow::Dinic::resolve)s every probe whose α
//! dominates the checkpoint instead of paying a from-scratch max-flow —
//! the Gallo–Grigoriadis–Tarjan amortization \[29\] the paper cites as
//! the classical EDS machinery.
//!
//! Networks also outlive a single α-search: each graph epoch of the
//! engine keeps a network pool per Ψ and lends networks out through the
//! crate-private `NetworkLender` trait, so a repeat request on the same
//! (graph, Ψ) epoch warm-resolves an already-built network.
//! [`DensityNetwork::bytes`] reports their resident size for the serving
//! layer's byte governor; [`DensityNetwork::reset_probe_stats`] fences the
//! reuse accounting between borrowing requests. A network also remembers
//! the densest witness its probes certified ([`DensityNetwork::witness`]),
//! which the next search over the same members starts from. The lender
//! also keeps the located-region records (`Located`) that lead a search to
//! its networks, so a repeat request skips its locate step too.
//!
//! A network over members M reads only `g[M]` (and the pinned set): every
//! instance it holds lies inside M. So a graph update that changes no edge
//! with both endpoints in M leaves it valid, and the engine carries it
//! into the next epoch as structure only, reset to the state of a fresh
//! build (`DensityNetwork::reset`). Units are minted in canonical order,
//! so the carried network searches exactly like a rebuild on the new
//! graph, flow counters included.

use std::sync::Arc;

use dsd_flow::{min_cut_source_side, EdgeId, FlowNetwork, NodeId, ParametricSolver, ResolveStats};
use dsd_graph::{Graph, InducedSubgraph, VertexId, VertexSet};
use dsd_motif::store::InstanceStore;
use dsd_motif::{kclist, pattern_enum, Pattern};

use crate::core_exact::LocatedRegion;
use crate::query::AnchoredRegion;

/// A parametric checkpoint: the network's flow state right after a probe
/// at `alpha`, restorable for any later probe with α ≥ `alpha`.
struct Checkpoint {
    alpha: f64,
    flows: Vec<f64>,
}

/// How a probe gets its flow state.
enum ProbeMode {
    /// Continue from the previous probe's flow (α non-decreasing).
    Resolve,
    /// Restore the checkpointed flow (α dominates the checkpoint's).
    Restore,
    /// From scratch.
    Cold,
}

/// A density-decision flow network over an induced subgraph.
pub struct DensityNetwork {
    net: FlowNetwork,
    s: NodeId,
    t: NodeId,
    /// Parent-graph ids of the vertex nodes; node id of `members[i]` is
    /// `i + 1`.
    members: Vec<VertexId>,
    /// `v→t` edge per vertex plus its α-free base capacity.
    alpha_edges: Vec<(EdgeId, f64)>,
    /// Multiplier applied to α on `v→t` edges (`|VΨ|`, or 2 for Goldberg).
    alpha_scale: f64,
    /// α of the previous probe, for direct warm resolves.
    last_alpha: Option<f64>,
    /// Whether parametric reuse is enabled (see [`Self::set_warm_start`]).
    warm_start: bool,
    /// The probe sequence's solver — one allocation, kept across probes.
    solver: ParametricSolver,
    /// Flow state at the search's current lower bound (see
    /// [`Self::checkpoint`]).
    checkpoint: Option<Checkpoint>,
    /// Accounting already reported to earlier borrowers of a cached
    /// network (see [`Self::reset_probe_stats`]); subtracted from
    /// [`Self::probe_stats`] so each request reports only its own probes.
    stats_baseline: ResolveStats,
    /// The densest feasible-probe witness so far (see [`Self::witness`]).
    witness: Option<(Vec<VertexId>, f64)>,
}

impl DensityNetwork {
    fn new(
        net: FlowNetwork,
        s: NodeId,
        t: NodeId,
        members: Vec<VertexId>,
        alpha_edges: Vec<(EdgeId, f64)>,
        alpha_scale: f64,
    ) -> Self {
        DensityNetwork {
            net,
            s,
            t,
            members,
            alpha_edges,
            alpha_scale,
            last_alpha: None,
            warm_start: true,
            solver: ParametricSolver::new(),
            checkpoint: None,
            stats_baseline: ResolveStats::default(),
            witness: None,
        }
    }

    /// Number of flow nodes (the Figure-9 metric).
    pub fn num_nodes(&self) -> usize {
        self.net.num_nodes()
    }

    /// Number of directed (forward) edges.
    pub fn num_edges(&self) -> usize {
        self.net.num_edges()
    }

    /// Number of graph vertices carried by the network.
    pub fn num_vertices(&self) -> usize {
        self.members.len()
    }

    /// Enables or disables parametric flow reuse (default: on).
    ///
    /// Only the `v→t` capacities depend on α, and they *increase* with α,
    /// so a probe whose α dominates the last probe (or the checkpointed
    /// lower bound) keeps a feasible flow and only augments the delta —
    /// Gallo–Grigoriadis–Tarjan \[29\]. Disabling forces every probe to a
    /// from-scratch solve (the differential baseline).
    pub fn set_warm_start(&mut self, enabled: bool) {
        self.warm_start = enabled;
        if !enabled {
            self.checkpoint = None;
            self.last_alpha = None;
        }
    }

    /// Probe-reuse accounting since the last [`Self::reset_probe_stats`]
    /// (network construction, if never reset) — the per-request view a
    /// borrowing solver folds into its `ExactStats`.
    pub fn probe_stats(&self) -> ResolveStats {
        let total = self.solver.stats();
        let base = self.stats_baseline;
        ResolveStats {
            probes: total.probes - base.probes,
            resolve_hits: total.resolve_hits - base.resolve_hits,
            augment_work: total.augment_work - base.augment_work,
        }
    }

    /// Fences the probe accounting: later [`Self::probe_stats`] calls
    /// report only probes run after this point. The network cache calls
    /// this when lending a warm network out, so a request never
    /// double-counts a previous borrower's probes.
    pub fn reset_probe_stats(&mut self) {
        self.stats_baseline = self.solver.stats();
    }

    /// The densest witness any feasible `solve_beating` probe on this
    /// network has returned, with the exact density the caller scored it
    /// at, in the network's member ids.
    ///
    /// It is a real subgraph of the graph the network was built over, so
    /// its density is a valid lower bound for any later search over the
    /// same members. The engine resets a cached network that outlives an
    /// update, witness included, so the witness never outlives the graph
    /// epoch it was scored on.
    pub fn witness(&self) -> Option<(&[VertexId], f64)> {
        self.witness.as_ref().map(|(vs, rho)| (vs.as_slice(), *rho))
    }

    /// Returns the network to the state of a fresh build over the same
    /// structure: a new solver, and no checkpoint, last α, probe baseline
    /// or witness. The engine calls it on each network it carries into the
    /// next graph epoch, so the first search there runs, and counts its
    /// flow work, exactly like one on a rebuilt network. The flow values
    /// and α-capacities are left as they are: with neither a primed solver
    /// nor a checkpoint, the next probe sets every α-capacity and is a
    /// cold solve, which zeroes the flow first.
    pub(crate) fn reset(&mut self) {
        self.last_alpha = None;
        self.solver = ParametricSolver::new();
        self.checkpoint = None;
        self.stats_baseline = ResolveStats::default();
        self.witness = None;
    }

    /// Estimated resident heap bytes of the network: the edge/adjacency
    /// arrays, member and α-edge tables, and any checkpointed flow. This
    /// is what the engine's network cache reports into `resident_bytes`
    /// for the serving layer's byte governor.
    pub fn bytes(&self) -> usize {
        // Two edge records per pair — forward and reverse, or the two
        // arcs of a folded pair (`Edge {to: u32, cap: f64, flow: f64}`
        // pads to 24 bytes) — plus one u32 CSR arc slot each, plus one
        // u32 CSR offset per node.
        let raw_edges = 2 * self.net.num_edges();
        let mut bytes = raw_edges * (24 + std::mem::size_of::<EdgeId>())
            + self.net.num_nodes() * std::mem::size_of::<u32>()
            + self.members.len() * std::mem::size_of::<VertexId>()
            + self.alpha_edges.len() * std::mem::size_of::<(EdgeId, f64)>();
        if let Some((vs, _)) = &self.witness {
            bytes += vs.len() * std::mem::size_of::<VertexId>();
        }
        if let Some(ck) = &self.checkpoint {
            bytes += ck.flows.len() * std::mem::size_of::<f64>();
        }
        bytes
    }

    /// FNV-1a fingerprint of the network's α-independent structure: node
    /// count, terminals, α-scale, every edge pair (endpoints, base
    /// capacity, and the back capacity a folded pair carries), the α-edge
    /// table, and the member mapping. Two builds of
    /// the same logical network — enumeration-built or store-built —
    /// must agree bit-for-bit; flow state and solver history are
    /// excluded, so warm and cold copies of one network also agree.
    pub fn structure_fingerprint(&self) -> u64 {
        let mut is_alpha = vec![false; self.net.num_edges()];
        for &(e, _) in &self.alpha_edges {
            is_alpha[(e / 2) as usize] = true;
        }
        let mut h = Fnv::new();
        h.write_u64(self.net.num_nodes() as u64);
        h.write_u64(self.s as u64);
        h.write_u64(self.t as u64);
        h.write_u64(self.alpha_scale.to_bits());
        for (i, (from, e, back)) in self.net.edge_pairs().enumerate() {
            h.write_u64(from as u64);
            h.write_u64(e.to as u64);
            // α-edges mutate their cap per probe; their α-free base is
            // hashed from the table below instead.
            if !is_alpha[i] {
                h.write_u64(e.cap.to_bits());
            }
            h.write_u64(back.cap.to_bits());
        }
        for &(e, base) in &self.alpha_edges {
            h.write_u64(e as u64);
            h.write_u64(base.to_bits());
        }
        for &v in &self.members {
            h.write_u64(v as u64);
        }
        h.finish()
    }

    /// Checkpoints the current flow state for parametric restarts.
    ///
    /// Soundness rule: a checkpoint taken at α may seed any later probe
    /// with α′ ≥ α (capacities only grow from α to α′, so the stored flow
    /// stays feasible). Callers checkpoint at feasible probes
    /// ([`Self::solve`] and the α-search's probes do it): the α-search
    /// then raises its lower bound to the witness's density, above the
    /// checkpoint's α, and never probes below that bound — its
    /// certification probe sits exactly on it — so every later probe can
    /// restore from the checkpoint. Seed probes at the initial lower
    /// bound call this directly.
    pub fn checkpoint(&mut self) {
        if !self.warm_start {
            return;
        }
        let Some(alpha) = self.last_alpha else { return };
        let mut flows = match self.checkpoint.take() {
            Some(ck) => ck.flows,
            None => Vec::new(),
        };
        self.net.save_flows(&mut flows);
        self.checkpoint = Some(Checkpoint { alpha, flows });
    }

    /// Applies α to the `v→t` capacities.
    fn apply_alpha(&mut self, alpha: f64) {
        debug_assert!(
            alpha.is_finite(),
            "non-finite α {alpha} (check tolerance/bounds math)"
        );
        for &(e, base) in &self.alpha_edges {
            self.net
                .set_cap(e, (base + self.alpha_scale * alpha).max(0.0));
        }
    }

    /// Runs one min-cut probe at `alpha`, choosing the cheapest sound
    /// flow-reuse mode, and leaves the network in the post-probe residual
    /// state.
    fn probe(&mut self, alpha: f64) {
        let mode = if !self.warm_start {
            ProbeMode::Cold
        } else if self.last_alpha.is_some_and(|last| alpha >= last) {
            ProbeMode::Resolve
        } else if self.checkpoint.as_ref().is_some_and(|ck| ck.alpha <= alpha) {
            ProbeMode::Restore
        } else {
            ProbeMode::Cold
        };
        self.apply_alpha(alpha);
        match mode {
            ProbeMode::Resolve => {
                let _ = self.solver.resolve(&mut self.net, self.s, self.t);
            }
            ProbeMode::Restore => {
                let ck = self.checkpoint.as_ref().expect("restore mode");
                self.net.restore_flows(&ck.flows);
                let _ = self.solver.resolve(&mut self.net, self.s, self.t);
            }
            ProbeMode::Cold => {
                let _ = self.solver.solve(&mut self.net, self.s, self.t);
            }
        }
        self.last_alpha = Some(alpha);
    }

    /// The min-cut source side at guess `alpha` as parent-graph vertex
    /// ids (`S \ {s}`, instance nodes dropped), regardless of whether the
    /// cut is non-trivial. Does **not** checkpoint — callers with their
    /// own feasibility rule (the pinned query variant) decide that.
    pub fn min_cut_side(&mut self, alpha: f64) -> Vec<VertexId> {
        self.probe(alpha);
        let side = min_cut_source_side(&self.net, self.s);
        side.iter()
            .filter(|&&node| node != self.s && (node as usize) <= self.members.len())
            .map(|&node| self.members[node as usize - 1])
            .collect()
    }

    /// Capacity of the cut the last probe left behind (Σ caps of arcs
    /// from the residual-reachable side to the rest, counting both arcs of
    /// a folded pair) — the
    /// differential-test invariant that must not depend on how the flow
    /// state was reached.
    pub fn cut_value(&self) -> f64 {
        // Same reachable set the witness extraction uses — the cut and
        // the witness must never come from different reachability rules.
        let mut seen = vec![false; self.net.num_nodes()];
        for node in min_cut_source_side(&self.net, self.s) {
            seen[node as usize] = true;
        }
        let mut cap = 0.0;
        for (from, e, back) in self.net.edge_pairs() {
            match (seen[from as usize], seen[e.to as usize]) {
                (true, false) => cap += e.cap,
                (false, true) => cap += back.cap,
                _ => {}
            }
        }
        cap
    }

    /// Decides whether some subgraph beats density `alpha`.
    ///
    /// Returns `Some(vertices)` (parent-graph ids of `S \ {s}`) when such a
    /// subgraph exists, `None` otherwise. Feasible probes checkpoint the
    /// flow state (their α is the search's new lower bound).
    pub fn solve(&mut self, alpha: f64) -> Option<Vec<VertexId>> {
        let vertices = self.min_cut_side(alpha);
        if vertices.is_empty() {
            None
        } else {
            self.checkpoint();
            Some(vertices)
        }
    }

    /// The α-search's probe: feasible iff the min-cut source side is
    /// non-empty and its density — scored by `density` — strictly beats
    /// `alpha` (a cut that only ties α, a floating-point tie at the
    /// optimum, is infeasible). Returns the side and its density;
    /// feasible probes checkpoint the flow state and update
    /// [`Self::witness`].
    pub(crate) fn solve_beating(
        &mut self,
        alpha: f64,
        density: impl FnOnce(&[VertexId]) -> f64,
    ) -> Option<(Vec<VertexId>, f64)> {
        let side = self.min_cut_side(alpha);
        if side.is_empty() {
            return None;
        }
        let rho = density(&side);
        if rho <= alpha {
            return None;
        }
        self.checkpoint();
        if self.witness.as_ref().is_none_or(|&(_, best)| rho > best) {
            self.witness = Some((side.clone(), rho));
        }
        Some((side, rho))
    }
}

/// Minimal FNV-1a accumulator for the structure fingerprints and the
/// engine's network-cache member keys (stable across runs and processes,
/// unlike the std `RandomState` hashers).
pub(crate) struct Fnv(u64);

impl Fnv {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Mixes in one vertex id in a single step — FNV-1a over the whole
    /// 32-bit word instead of byte by byte, for keys that hash thousands
    /// of ids per request.
    pub(crate) fn write_id(&mut self, v: VertexId) {
        self.0 ^= v as u64;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// What a located-region record answers for, beside the request's Ψ key.
#[derive(Clone, Copy, Debug)]
pub(crate) enum RegionKey<'a> {
    /// CoreExact over the graph minus `removed` (ascending; empty for the
    /// whole graph, TopK's answers so far for a residual round) under the
    /// Pruning1/2 switches — the only inputs of the locate step besides
    /// the graph epoch.
    Core {
        removed: &'a [VertexId],
        pruning1: bool,
        pruning2: bool,
    },
    /// The query variant's anchored region for the normalised query.
    Query(&'a [VertexId]),
}

/// An immutable located-region record: what a search's locate step
/// handed its α-search, kept beside the flow networks it leads to.
#[derive(Clone, Debug)]
pub(crate) enum Located {
    /// CoreExact's located core ([`RegionKey::Core`]).
    Core(Arc<LocatedRegion>),
    /// The query variant's Q-anchored core ([`RegionKey::Query`]).
    Query(Arc<AnchoredRegion>),
}

impl Located {
    /// Resident heap bytes of the record.
    pub(crate) fn bytes(&self) -> usize {
        match self {
            Located::Core(region) => region.bytes(),
            Located::Query(region) => region.bytes(),
        }
    }
}

/// A pool lending out already-built [`DensityNetwork`]s, keyed by the
/// member set (and pinned query set) the network was built over — the
/// engine's per-epoch network pools implement this. `take` transfers
/// ownership to the borrower (concurrent requests each get their own
/// network or a miss, never a shared one); `put` returns it for the next
/// request once the borrower's α-search is done.
///
/// The pool also keeps the [`Located`] records that lead to those
/// networks. Records are immutable and shared, so they need no lending:
/// two racing misses each compute one, and the copies are identical.
pub(crate) trait NetworkLender {
    /// Removes and returns the cached network for `(members, pinned)`,
    /// if one is resident. Implementations reset its probe accounting
    /// before handing it out.
    fn take(&self, members: &[VertexId], pinned: &[VertexId]) -> Option<DensityNetwork>;

    /// Returns a network to the pool under `(members, pinned)`.
    fn put(&self, members: &[VertexId], pinned: &[VertexId], net: DensityNetwork);

    /// The record kept under `key`, if one is resident.
    fn located(&self, key: &RegionKey<'_>) -> Option<Located>;

    /// Keeps `record` under `key` for the next request.
    fn keep_located(&self, key: &RegionKey<'_>, record: Located);
}

/// Builds the `construct+`-shaped network (Algorithm 7) for the store's Ψ
/// over `g[members]` straight from the [`InstanceStore`] columns — the
/// factorised path: no instance enumeration, no hash grouping. Each live
/// store row whose members all lie in `members` becomes one unit node
/// with its multiplicity as the weight; `s→v` capacities are the row
/// weights summed per member. Rows are collected once each by walking the
/// incidence CSR with min-member ownership and minted in canonical
/// vertex-set order, so the result is structurally identical
/// ([`DensityNetwork::structure_fingerprint`]) to
/// [`build_pattern_network`]'s grouped network over the same subgraph.
pub fn build_store_network(
    g: &Graph,
    members: &[VertexId],
    store: &InstanceStore,
) -> DensityNetwork {
    let size = store.psi_size();
    let mut members: Vec<VertexId> = members.to_vec();
    members.sort_unstable();
    members.dedup();
    let n = members.len();
    let alive = VertexSet::from_members(g.num_vertices(), &members);
    // Global→local vertex map; the map is monotone, so global id order
    // (store rows are id-sorted) equals local id order and the minted
    // units compare identically to the enumeration path's local-id sort.
    let mut local = vec![u32::MAX; g.num_vertices()];
    for (i, &v) in members.iter().enumerate() {
        local[v as usize] = i as u32;
    }

    // Collect each live member-internal row exactly once: `v` owns the
    // rows whose minimum member it is (members columns are id-sorted).
    let mut rows: Vec<u32> = Vec::new();
    for &v in &members {
        for &row in store.incidence(v) {
            let r = row as usize;
            if store.members(r)[0] == v && store.row_live(r, &alive) {
                rows.push(row);
            }
        }
    }
    // Canonical unit order: by vertex set. Grouped rows have distinct
    // member sets, so the order (and thus every node id downstream) is a
    // total order independent of CSR layout.
    rows.sort_unstable_by(|&a, &b| store.members(a as usize).cmp(store.members(b as usize)));

    let mut deg = vec![0u64; n];
    for &row in &rows {
        let r = row as usize;
        let w = store.weight(r);
        for &v in store.members(r) {
            deg[local[v as usize] as usize] += w;
        }
    }

    let s: NodeId = 0;
    let t: NodeId = (n + rows.len() + 1) as NodeId;
    let mut net = FlowNetwork::with_capacity(n + rows.len() + 2, 2 * n + rows.len() * size);
    let mut alpha_edges = Vec::with_capacity(n);
    for (v, &dv) in deg.iter().enumerate() {
        let node = (v + 1) as NodeId;
        net.add_edge(s, node, dv as f64);
        let e = net.add_edge(node, t, 0.0);
        alpha_edges.push((e, 0.0));
    }
    for (i, &row) in rows.iter().enumerate() {
        let r = row as usize;
        let unit_node = (n + 1 + i) as NodeId;
        let weight = store.weight(r);
        for &v in store.members(r) {
            let node = (local[v as usize] + 1) as NodeId;
            net.add_edge_pair(
                node,
                unit_node,
                weight as f64,
                (weight * (size as u64 - 1)) as f64,
            );
        }
    }
    DensityNetwork::new(net, s, t, members, alpha_edges, size as f64)
}

/// Builds Goldberg's h = 2 network over `g[members]`.
pub fn build_edge_network(g: &Graph, members: &[VertexId]) -> DensityNetwork {
    let sub = InducedSubgraph::new(g, members);
    let n = sub.graph.num_vertices();
    let m = sub.graph.num_edges() as f64;
    let s: NodeId = 0;
    let t: NodeId = (n + 1) as NodeId;
    let mut net = FlowNetwork::with_capacity(n + 2, sub.graph.num_edges() + 2 * n);
    let mut alpha_edges = Vec::with_capacity(n);
    for v in 0..n {
        let node = (v + 1) as NodeId;
        net.add_edge(s, node, m);
        // cap = m + 2α − deg(v): base m − deg(v), α-scale 2.
        let base = m - sub.graph.degree(v as VertexId) as f64;
        let e = net.add_edge(node, t, 0.0);
        alpha_edges.push((e, base));
    }
    for (u, v) in sub.graph.edges() {
        net.add_edge_pair((u + 1) as NodeId, (v + 1) as NodeId, 1.0, 1.0);
    }
    DensityNetwork::new(net, s, t, sub.orig, alpha_edges, 2.0)
}

/// Builds the Section-6.3 *pinned* Goldberg network over `g` (already the
/// anchored subgraph): `s→q` has capacity ∞ for every `q ∈ pinned`, so
/// every min cut keeps the pinned vertices on the source side; all other
/// capacities match [`build_edge_network`]. Feasibility is decided by the
/// caller from the returned side's density (the ∞ pins make the trivial
/// `S = {s}` cut impossible), via [`DensityNetwork::min_cut_side`].
pub fn build_query_network(g: &Graph, pinned: &[VertexId]) -> DensityNetwork {
    let n = g.num_vertices();
    let m = g.num_edges() as f64;
    let s: NodeId = 0;
    let t: NodeId = (n + 1) as NodeId;
    let mut net = FlowNetwork::with_capacity(n + 2, g.num_edges() + 2 * n);
    let mut is_pinned = vec![false; n];
    for &q in pinned {
        is_pinned[q as usize] = true;
    }
    let mut alpha_edges = Vec::with_capacity(n);
    for (v, &pinned) in is_pinned.iter().enumerate() {
        let node = (v + 1) as NodeId;
        let s_cap = if pinned { FlowNetwork::INF } else { m };
        net.add_edge(s, node, s_cap);
        let base = m - g.degree(v as VertexId) as f64;
        let e = net.add_edge(node, t, 0.0);
        alpha_edges.push((e, base));
    }
    for (u, v) in g.edges() {
        net.add_edge_pair((u + 1) as NodeId, (v + 1) as NodeId, 1.0, 1.0);
    }
    DensityNetwork::new(net, s, t, g.vertices().collect(), alpha_edges, 2.0)
}

/// Builds the Algorithm-1 network for the h-clique (`h ≥ 3`) over
/// `g[members]`.
pub fn build_clique_network(g: &Graph, members: &[VertexId], h: usize) -> DensityNetwork {
    assert!(h >= 3, "use build_edge_network for h = 2");
    let sub = InducedSubgraph::new(g, members);
    let n = sub.graph.num_vertices();
    let alive = VertexSet::full(n);
    let deg = kclist::clique_degrees_within(&sub.graph, h, &alive);

    // Collect Λ = (h−1)-clique instances.
    let mut lambda: Vec<Vec<VertexId>> = Vec::new();
    kclist::for_each_clique_within(&sub.graph, h - 1, &alive, |c| {
        lambda.push(c.to_vec());
    });

    let s: NodeId = 0;
    let t: NodeId = (n + lambda.len() + 1) as NodeId;
    let mut net = FlowNetwork::new(n + lambda.len() + 2);
    let mut alpha_edges = Vec::with_capacity(n);
    for (v, &dv) in deg.iter().enumerate() {
        let node = (v + 1) as NodeId;
        net.add_edge(s, node, dv as f64);
        let e = net.add_edge(node, t, 0.0);
        alpha_edges.push((e, 0.0));
    }
    let mut scratch: Vec<VertexId> = Vec::new();
    for (i, psi) in lambda.iter().enumerate() {
        let psi_node = (n + 1 + i) as NodeId;
        for &v in psi {
            net.add_edge(psi_node, (v + 1) as NodeId, FlowNetwork::INF);
        }
        // v → ψ when ψ ∪ {v} is an h-clique: v adjacent to every member.
        scratch.clear();
        common_neighbors(&sub.graph, psi, &mut scratch);
        for &v in &scratch {
            net.add_edge((v + 1) as NodeId, psi_node, 1.0);
        }
    }
    DensityNetwork::new(net, s, t, sub.orig, alpha_edges, h as f64)
}

/// Vertices adjacent to every member of `clique` (excluding the members).
fn common_neighbors(g: &Graph, clique: &[VertexId], out: &mut Vec<VertexId>) {
    debug_assert!(!clique.is_empty());
    // Start from the smallest neighbourhood.
    let &anchor = clique
        .iter()
        .min_by_key(|&&v| g.degree(v))
        .expect("non-empty clique");
    'cand: for &v in g.neighbors(anchor) {
        if clique.contains(&v) {
            continue;
        }
        for &u in clique {
            if u != anchor && !g.has_edge(v, u) {
                continue 'cand;
            }
        }
        out.push(v);
    }
}

/// Builds the pattern network over `g[members]`: Algorithm 8 when
/// `grouped = false`, `construct+` (Algorithm 7) when `grouped = true`.
pub fn build_pattern_network(
    g: &Graph,
    members: &[VertexId],
    psi: &Pattern,
    grouped: bool,
) -> DensityNetwork {
    let sub = InducedSubgraph::new(g, members);
    let n = sub.graph.num_vertices();
    let alive = VertexSet::full(n);
    let size = psi.vertex_count();
    let instances = pattern_enum::instances(&sub.graph, psi, &alive);
    let mut deg = vec![0u64; n];
    for inst in &instances {
        for &v in &inst.vertices {
            deg[v as usize] += 1;
        }
    }

    // (vertex set, weight |g|) per flow node: groups or single instances.
    let units: Vec<(Vec<VertexId>, u64)> = if grouped {
        let mut units: Vec<(Vec<VertexId>, u64)> = pattern_enum::group_instances(&instances)
            .into_iter()
            .map(|grp| (grp.vertices, grp.count))
            .collect();
        // Mint unit nodes in canonical vertex-set order. Groups have
        // distinct vertex sets, so this totally orders them regardless of
        // how the grouping enumerated — node ids, checkpoints, and
        // structure fingerprints become stable across runs and equal to
        // the store-built network's ([`build_store_network`]).
        units.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        units
    } else {
        instances
            .into_iter()
            .map(|inst| (inst.vertices, 1))
            .collect()
    };

    let s: NodeId = 0;
    let t: NodeId = (n + units.len() + 1) as NodeId;
    let arcs: usize = units.iter().map(|(vs, _)| vs.len()).sum();
    let mut net = FlowNetwork::with_capacity(n + units.len() + 2, 2 * n + arcs);
    let mut alpha_edges = Vec::with_capacity(n);
    for (v, &dv) in deg.iter().enumerate() {
        let node = (v + 1) as NodeId;
        net.add_edge(s, node, dv as f64);
        let e = net.add_edge(node, t, 0.0);
        alpha_edges.push((e, 0.0));
    }
    for (i, (vs, weight)) in units.iter().enumerate() {
        let unit_node = (n + 1 + i) as NodeId;
        for &v in vs {
            net.add_edge_pair(
                (v + 1) as NodeId,
                unit_node,
                *weight as f64,
                (*weight * (size as u64 - 1)) as f64,
            );
        }
    }
    DensityNetwork::new(net, s, t, sub.orig, alpha_edges, size as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(g: &Graph) -> Vec<VertexId> {
        g.vertices().collect()
    }

    /// Figure 1(a)'s EDS intuition: a 4-clique plus a tail. ρopt = 6/4.
    fn k4_tail() -> Graph {
        Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ],
        )
    }

    #[test]
    fn edge_network_decides_density_threshold() {
        let g = k4_tail();
        let mut net = build_edge_network(&g, &all(&g));
        // ρopt = 1.5 (the K4): feasible below, infeasible at/above.
        let below = net.solve(1.4);
        assert!(below.is_some());
        let mut got = below.unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert!(net.solve(1.5).is_none());
        assert!(net.solve(2.0).is_none());
    }

    #[test]
    fn clique_network_matches_example_1() {
        // Example 1 / Figure 2: A-B, B-C, B-D, C-D with Ψ = triangle.
        // One triangle {B,C,D}: ρopt = 1/3.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 3), (2, 3)]);
        let mut net = build_clique_network(&g, &all(&g), 3);
        // Λ = 4 edges (2-cliques) -> nodes: s + 4 vertices + 4 + t = 10.
        assert_eq!(net.num_nodes(), 10);
        let feasible = net.solve(0.2);
        assert!(feasible.is_some());
        let mut got = feasible.unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
        assert!(net.solve(1.0 / 3.0).is_none());
    }

    #[test]
    fn clique_network_on_subset_uses_parent_ids() {
        let g = k4_tail();
        // Restrict to the K4 plus the tail vertex 4.
        let mut net = build_clique_network(&g, &[0, 1, 2, 3, 4], 3);
        let got = net.solve(0.5);
        let mut got = got.unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        // K4 triangle density = 4 triangles / 4 vertices = 1.
        assert!(net.solve(1.0).is_none());
    }

    #[test]
    fn pattern_network_matches_clique_semantics() {
        // For Ψ = triangle, the Algorithm-8 network must make the same
        // decisions as the Algorithm-1 network.
        let g = k4_tail();
        let psi = Pattern::triangle();
        let mut pnet = build_pattern_network(&g, &all(&g), &psi, false);
        let mut gnet = build_pattern_network(&g, &all(&g), &psi, true);
        let mut cnet = build_clique_network(&g, &all(&g), 3);
        for alpha in [0.1, 0.5, 0.9, 0.99, 1.0, 1.5] {
            let a = pnet.solve(alpha).is_some();
            let b = gnet.solve(alpha).is_some();
            let c = cnet.solve(alpha).is_some();
            assert_eq!(a, c, "ungrouped vs clique at {alpha}");
            assert_eq!(b, c, "grouped vs clique at {alpha}");
        }
    }

    #[test]
    fn warm_start_matches_cold_solves() {
        let g = k4_tail();
        // A binary-search-like α sequence: up, up, down, up.
        let alphas = [0.5, 1.0, 1.25, 0.9, 1.4, 1.6, 1.45];
        let mut warm = build_edge_network(&g, &all(&g));
        warm.set_warm_start(true);
        let mut cold = build_edge_network(&g, &all(&g));
        cold.set_warm_start(false);
        for &alpha in &alphas {
            let a = warm.solve(alpha);
            let b = cold.solve(alpha);
            assert_eq!(a.is_some(), b.is_some(), "alpha = {alpha}");
            if let (Some(mut va), Some(mut vb)) = (a, b) {
                va.sort_unstable();
                vb.sort_unstable();
                assert_eq!(va, vb, "alpha = {alpha}");
            }
        }
    }

    #[test]
    fn warm_start_on_clique_network() {
        let g = k4_tail();
        let mut warm = build_clique_network(&g, &all(&g), 3);
        let mut cold = build_clique_network(&g, &all(&g), 3);
        cold.set_warm_start(false);
        for &alpha in &[0.2, 0.6, 0.8, 0.3, 0.95, 1.0, 1.2] {
            assert_eq!(
                warm.solve(alpha).is_some(),
                cold.solve(alpha).is_some(),
                "alpha = {alpha}"
            );
        }
    }

    #[test]
    fn grouped_network_is_never_larger() {
        // K4: three 4-cycles share one vertex set -> grouping shrinks Λ.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)]);
        let psi = Pattern::diamond();
        let ungrouped = build_pattern_network(&g, &all(&g), &psi, false);
        let grouped = build_pattern_network(&g, &all(&g), &psi, true);
        assert!(grouped.num_nodes() < ungrouped.num_nodes());
        assert_eq!(ungrouped.num_nodes(), 1 + 4 + 3 + 1);
        assert_eq!(grouped.num_nodes(), 1 + 4 + 1 + 1);
    }

    #[test]
    fn diamond_grouped_and_ungrouped_agree_on_decisions() {
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (0, 3),
                (0, 2),
                (1, 3),
                (3, 4),
                (4, 5),
            ],
        );
        let psi = Pattern::diamond();
        let mut a = build_pattern_network(&g, &all(&g), &psi, false);
        let mut b = build_pattern_network(&g, &all(&g), &psi, true);
        for alpha in [0.1, 0.4, 0.74, 0.76, 1.0] {
            assert_eq!(
                a.solve(alpha).is_some(),
                b.solve(alpha).is_some(),
                "alpha = {alpha}"
            );
        }
    }
}
