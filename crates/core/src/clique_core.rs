//! (k, Ψ)-core decomposition — Algorithm 3 of the paper.
//!
//! Repeatedly removes the vertex of minimum instance-degree, recording the
//! running-max threshold as each vertex's clique-core number. The queue is
//! a hybrid bucket/heap ([`crate::bucket_queue::PeelQueue`]): dense O(1)
//! buckets in the paper's bin-sort spirit for the degree range where peel
//! traffic actually lives, an overflow heap for the unbounded-`u64` hub
//! tail that made a pure bin-sort impractical beyond h = 2.
//!
//! Decrements come from the oracle's [`InstancePeeler`] whenever it offers
//! one: store-backed when the Ψ-substrate is materialized (per-row
//! alive-member counts make each removal O(memberships touched) — the
//! whole decomposition is then one columnar pass over the instance store),
//! or a closed-form peeler for edges, stars and diamonds (dense scratch
//! reused across removals). Only streaming h-cliques (h ≥ 3) and general
//! patterns — the budget-fallback paths — re-enumerate through per-call
//! `removal_decrements`. Every path drives the same loop, so their outputs
//! are bit-identical; debug builds additionally cross-check the bucket
//! order against a reference heap peel on small inputs, which streams the
//! stateless `removal_decrements` and so also referees every peeler.
//!
//! The decomposition also records the instance count μ of every residual
//! graph (`residual_mu`). The densest residual graph — the ρ′ of Pruning1
//! **and** exactly the subgraph `PeelApp` (Algorithm 2) returns, so
//! `peel.rs` and `approx.rs` are thin wrappers over this engine — is a
//! scan of that profile, and so is the greedy DalkS answer (the densest
//! residual graph with at least k vertices) in `size_constrained.rs`.

use dsd_graph::{Graph, VertexId, VertexSet};

use crate::bucket_queue::PeelQueue;
use crate::oracle::{DensityOracle, InstancePeeler};

/// Result of a (k, Ψ)-core decomposition of `g[alive]`.
#[derive(Clone, Debug)]
pub struct CliqueCoreDecomposition {
    /// `core[v]` = clique-core number `core_G(v, Ψ)` (0 outside the
    /// decomposed set).
    pub core: Vec<u64>,
    /// Maximum clique-core number `kmax`.
    pub kmax: u64,
    /// Vertices in removal (peel) order; the residual graph after `i`
    /// removals is `peel_order[i..]`.
    pub peel_order: Vec<VertexId>,
    /// Total instances `μ` of the decomposed subgraph.
    pub mu: u64,
    /// The residual μ profile: `residual_mu[i]` is the number of instances
    /// left after `i` removals, so it has `|peel_order| + 1` entries, the
    /// first is `mu` and the last is 0.
    pub residual_mu: Vec<u64>,
    /// Index into `peel_order` of the densest residual graph.
    best_suffix: usize,
    /// ρ′ — the highest density among all residual graphs.
    pub best_density: f64,
}

impl CliqueCoreDecomposition {
    /// The (k, Ψ)-core as a vertex set (vertices with core number ≥ k).
    pub fn core_set(&self, k: u64) -> VertexSet {
        VertexSet::from_members(self.core.len(), self.core_suffix(k))
    }

    /// The (k, Ψ)-core as a suffix of the peel order, found by binary
    /// search: a vertex's core number is the running maximum of the
    /// removal degrees when it is peeled, so core numbers never decrease
    /// along `peel_order`. The suffix is in peel order, not ascending.
    pub fn core_suffix(&self, k: u64) -> &[VertexId] {
        let core = |v: &VertexId| self.core[*v as usize];
        debug_assert!(
            self.peel_order.is_sorted_by_key(core),
            "core numbers never decrease along the peel order"
        );
        let start = self.peel_order.partition_point(|v| core(v) < k);
        &self.peel_order[start..]
    }

    /// The (kmax, Ψ)-core.
    pub fn max_core(&self) -> VertexSet {
        self.core_set(self.kmax)
    }

    /// The densest residual subgraph seen during peeling — PeelApp's `S*`
    /// and the source of the ρ′ lower bound (Pruning1).
    pub fn best_residual(&self) -> Vec<VertexId> {
        self.peel_order[self.best_suffix..].to_vec()
    }

    /// The densest residual graph with at least `min_len` vertices, as
    /// `(i, ρ)`: the suffix `peel_order[i..]` and its density. Ties keep
    /// the earliest (largest) residual graph. `None` when `min_len` is 0
    /// or exceeds the number of peeled vertices.
    pub fn densest_suffix(&self, min_len: usize) -> Option<(usize, f64)> {
        densest_suffix(&self.residual_mu, min_len)
    }

    /// Approximate resident heap bytes (for substrate-cache accounting).
    pub fn bytes(&self) -> usize {
        8 * self.core.len() + 4 * self.peel_order.len() + 8 * self.residual_mu.len()
    }
}

/// First strict maximum of `residual_mu[i] / (n − i)` over the residual
/// graphs with at least `min_len` of the `n = residual_mu.len() − 1`
/// peeled vertices.
fn densest_suffix(residual_mu: &[u64], min_len: usize) -> Option<(usize, f64)> {
    let n = residual_mu.len() - 1;
    if min_len == 0 || min_len > n {
        return None;
    }
    let mut best = (0, residual_mu[0] as f64 / n as f64);
    for (i, &mu) in residual_mu.iter().enumerate().take(n - min_len + 1).skip(1) {
        let density = mu as f64 / (n - i) as f64;
        if density > best.1 {
            best = (i, density);
        }
    }
    Some(best)
}

/// The oracle's own peeler over `g[alive]` when it offers one, else the
/// streaming adapter over per-call `removal_decrements`.
pub(crate) fn peeler_for<'a>(
    g: &'a Graph,
    oracle: &'a dyn DensityOracle,
    alive: &VertexSet,
) -> Box<dyn InstancePeeler + 'a> {
    oracle.peeler(g, alive).unwrap_or_else(|| {
        Box::new(StreamingPeeler {
            g,
            oracle,
            live: alive.clone(),
        })
    })
}

/// Streaming decrement adapter: drives the shared peel loop through
/// per-call `removal_decrements` re-enumeration, for oracles without a
/// peeler of their own.
struct StreamingPeeler<'a> {
    g: &'a Graph,
    oracle: &'a dyn DensityOracle,
    live: VertexSet,
}

impl InstancePeeler for StreamingPeeler<'_> {
    fn degrees(&self) -> Vec<u64> {
        self.oracle.degrees(self.g, &self.live)
    }

    fn remove(&mut self, v: VertexId, sink: &mut dyn FnMut(VertexId, u64)) {
        for (u, amount) in self.oracle.removal_decrements(self.g, &self.live, v) {
            sink(u, amount);
        }
        self.live.remove(v);
    }
}

/// Runs Algorithm 3 on the whole graph.
pub fn decompose(g: &Graph, oracle: &dyn DensityOracle) -> CliqueCoreDecomposition {
    decompose_within(g, oracle, &VertexSet::full(g.num_vertices()))
}

/// Runs Algorithm 3 on `g[alive]`.
pub fn decompose_within(
    g: &Graph,
    oracle: &dyn DensityOracle,
    alive: &VertexSet,
) -> CliqueCoreDecomposition {
    let dec = peel(
        g.num_vertices(),
        alive,
        oracle.psi_size(),
        peeler_for(g, oracle, alive).as_mut(),
    );
    // The bucket queue pops min-degree ties in a different order than the
    // old lazy heap; core numbers are tie-break invariant, which debug
    // builds verify against a reference heap peel on small inputs.
    #[cfg(debug_assertions)]
    if g.num_vertices() <= 96 {
        debug_assert_eq!(
            dec.core,
            reference_heap_core(g, oracle, alive),
            "bucket-queue peel must reproduce heap core numbers"
        );
    }
    dec
}

/// The shared peel loop: one [`PeelQueue`] over any decrement engine.
fn peel(
    n: usize,
    alive: &VertexSet,
    psi_size: usize,
    peeler: &mut dyn InstancePeeler,
) -> CliqueCoreDecomposition {
    let mut live = alive.clone();
    let mut deg = peeler.degrees();
    let mu_total: u64 = deg.iter().sum::<u64>() / psi_size as u64;

    let max_deg = live.iter().map(|v| deg[v as usize]).max().unwrap_or(0);
    let mut queue = PeelQueue::new(max_deg);
    for v in live.iter() {
        queue.push(deg[v as usize], v);
    }

    let mut core = vec![0u64; n];
    let mut peel_order = Vec::with_capacity(live.len());
    let mut running_k = 0u64;
    let mut kmax = 0u64;
    let mut mu = mu_total;
    let mut residual_mu = Vec::with_capacity(live.len() + 1);
    residual_mu.push(mu);

    while let Some((d, v)) = queue.pop() {
        if !live.contains(v) || d != deg[v as usize] {
            continue; // stale queue entry
        }
        // Peel v: its clique-core number is the running-max threshold.
        running_k = running_k.max(d);
        core[v as usize] = running_k;
        kmax = kmax.max(running_k);

        // Instances through v die; decrement co-members (Alg. 3 lines 6-9).
        peeler.remove(v, &mut |u, amount| {
            debug_assert!(live.contains(u) && u != v);
            deg[u as usize] -= amount.min(deg[u as usize]);
            queue.push(deg[u as usize], u);
        });
        mu -= d;
        live.remove(v);
        peel_order.push(v);
        residual_mu.push(mu);
    }
    debug_assert_eq!(mu, 0, "all instances must be accounted for");
    // We peel to exhaustion, so every vertex ends up in `peel_order` and
    // its suffixes are complete residual graphs.
    let (best_suffix, best_density) = densest_suffix(&residual_mu, 1).unwrap_or((0, 0.0));
    CliqueCoreDecomposition {
        core,
        kmax,
        peel_order,
        mu: mu_total,
        residual_mu,
        best_suffix,
        best_density,
    }
}

/// The pre-bucket-queue peel (lazy binary min-heap over `(deg, v)`), kept
/// as the debug-build referee for the tie-break-invariance of core
/// numbers. Streams decrements straight from the oracle, so it also
/// cross-checks every peeler against `removal_decrements`.
#[cfg(debug_assertions)]
fn reference_heap_core(g: &Graph, oracle: &dyn DensityOracle, alive: &VertexSet) -> Vec<u64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = g.num_vertices();
    let mut live = alive.clone();
    let mut deg = oracle.degrees(g, &live);
    let mut heap: BinaryHeap<Reverse<(u64, VertexId)>> = BinaryHeap::with_capacity(live.len());
    for v in live.iter() {
        heap.push(Reverse((deg[v as usize], v)));
    }
    let mut core = vec![0u64; n];
    let mut running_k = 0u64;
    while let Some(Reverse((d, v))) = heap.pop() {
        if !live.contains(v) || d != deg[v as usize] {
            continue;
        }
        running_k = running_k.max(d);
        core[v as usize] = running_k;
        for (u, amount) in oracle.removal_decrements(g, &live, v) {
            deg[u as usize] -= amount.min(deg[u as usize]);
            heap.push(Reverse((deg[u as usize], u)));
        }
        live.remove(v);
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{density, oracle_for};
    use dsd_motif::Pattern;

    /// Figure 3(b)'s graph: 4-clique {A,B,C,D}, triangle {D,E,F}, edge
    /// {G,H}. With Ψ = triangle: {A,B,C,D} is the (3,Ψ)-core (each vertex
    /// in 3 of the 4 triangle instances); {D,E,F} adds a (1,Ψ)-core; G,H
    /// have clique-core number 0.
    fn figure3() -> Graph {
        let (a, b, c, d, e, f, g_, h) = (0u32, 1, 2, 3, 4, 5, 6, 7);
        Graph::from_edges(
            8,
            &[
                (a, b),
                (a, c),
                (a, d),
                (b, c),
                (b, d),
                (c, d),
                (d, e),
                (e, f),
                (d, f),
                (g_, h),
            ],
        )
    }

    #[test]
    fn figure3b_triangle_cores() {
        let g = figure3();
        let oracle = oracle_for(&Pattern::triangle());
        let dec = decompose(&g, oracle.as_ref());
        assert_eq!(dec.kmax, 3);
        assert_eq!(dec.max_core().to_vec(), vec![0, 1, 2, 3]);
        // D is in both triangles regions: core number 3 (from the clique).
        assert_eq!(dec.core[3], 3);
        // E, F participate in 1 triangle.
        assert_eq!(dec.core[4], 1);
        assert_eq!(dec.core[5], 1);
        // G, H in none.
        assert_eq!(dec.core[6], 0);
        assert_eq!(dec.core[7], 0);
    }

    #[test]
    fn edge_psi_matches_classical_kcore() {
        let g = figure3();
        let oracle = oracle_for(&Pattern::edge());
        let dec = decompose(&g, oracle.as_ref());
        let classical = crate::kcore::k_core_decomposition(&g);
        for v in g.vertices() {
            assert_eq!(
                dec.core[v as usize], classical.core[v as usize] as u64,
                "vertex {v}"
            );
        }
        assert_eq!(dec.kmax, classical.kmax as u64);
    }

    #[test]
    fn core_member_degree_at_least_k_inside_core() {
        let g = figure3();
        for psi in [Pattern::edge(), Pattern::triangle(), Pattern::two_star()] {
            let oracle = oracle_for(&psi);
            let dec = decompose(&g, oracle.as_ref());
            for k in 1..=dec.kmax {
                let core = dec.core_set(k);
                if core.is_empty() {
                    continue;
                }
                let deg = oracle.degrees(&g, &core);
                for v in core.iter() {
                    assert!(
                        deg[v as usize] >= k,
                        "{}: vertex {v} in ({k},Ψ)-core has degree {}",
                        psi.name(),
                        deg[v as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn theorem1_density_bounds() {
        let g = figure3();
        for psi in [Pattern::edge(), Pattern::triangle(), Pattern::diamond()] {
            let oracle = oracle_for(&psi);
            let dec = decompose(&g, oracle.as_ref());
            if dec.kmax == 0 {
                continue;
            }
            let core = dec.max_core();
            let rho = density(oracle.as_ref(), &g, &core);
            let lower = dec.kmax as f64 / psi.vertex_count() as f64;
            assert!(
                rho + 1e-9 >= lower && rho <= dec.kmax as f64 + 1e-9,
                "{}: ρ = {rho}, bounds [{lower}, {}]",
                psi.name(),
                dec.kmax
            );
        }
    }

    #[test]
    fn best_residual_density_is_achieved() {
        let g = figure3();
        let oracle = oracle_for(&Pattern::edge());
        let dec = decompose(&g, oracle.as_ref());
        let members = dec.best_residual();
        let set = VertexSet::from_members(8, &members);
        let rho = density(oracle.as_ref(), &g, &set);
        assert!((rho - dec.best_density).abs() < 1e-9);
        // Figure 5 analogue: peeling cannot beat the true EDS here (the
        // 4-clique has density 6/4 = 1.5).
        assert!(dec.best_density >= 1.5 - 1e-9);
    }

    #[test]
    fn empty_graph_decomposition() {
        let g = Graph::empty(3);
        let oracle = oracle_for(&Pattern::triangle());
        let dec = decompose(&g, oracle.as_ref());
        assert_eq!(dec.kmax, 0);
        assert_eq!(dec.mu, 0);
        assert_eq!(dec.peel_order.len(), 3);
        assert_eq!(dec.residual_mu, vec![0; 4]);
        assert_eq!(dec.best_density, 0.0);
    }

    #[test]
    fn nested_cores_property() {
        let g = figure3();
        let oracle = oracle_for(&Pattern::triangle());
        let dec = decompose(&g, oracle.as_ref());
        for k in 0..dec.kmax {
            let lo = dec.core_set(k);
            let hi = dec.core_set(k + 1);
            for v in hi.iter() {
                assert!(lo.contains(v));
            }
        }
    }

    #[test]
    fn restricted_decomposition_ignores_dead_vertices() {
        let g = figure3();
        let oracle = oracle_for(&Pattern::triangle());
        let mut alive = VertexSet::full(8);
        alive.remove(0);
        let dec = decompose_within(&g, oracle.as_ref(), &alive);
        // Without A the 4-clique degenerates to a triangle {B,C,D}.
        assert_eq!(dec.kmax, 1);
        assert_eq!(dec.core[0], 0);
    }
}
