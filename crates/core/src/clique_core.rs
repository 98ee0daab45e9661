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
//! whole decomposition is then one columnar pass over the instance store;
//! diamonds too, wherever the cost rule keeps their store), or a
//! closed-form peeler for edges, stars and the diamonds it refuses (dense
//! scratch reused across removals). Only streaming h-cliques (h ≥ 3) and
//! general patterns — the budget-fallback paths — re-enumerate through
//! per-call `removal_decrements`. Every path drives the same loop, so
//! their outputs are bit-identical.
//!
//! **Only Ψ-incident vertices are peeled one by one.** A vertex in no
//! instance (Ψ-degree 0) would pop first from the LIFO bucket 0, in
//! descending id order, and decrement nobody when removed. The loop
//! appends all of them to the peel order in one step instead — core 0,
//! the residual μ unchanged — with no queue entry and no
//! [`InstancePeeler::remove`] call (the peeler contract allows it), and
//! scans for ρ′ only from the end of that prefix. Beyond a few O(n)
//! array passes, a decomposition then costs O(Ψ-incident vertices +
//! memberships): on sparse graphs most vertices lie in no triangle or
//! larger clique. Debug builds replay the plain loop (every vertex queued
//! and removed) on small inputs and require the whole decomposition to
//! match, and cross-check core numbers against a reference heap peel,
//! which streams the stateless `removal_decrements` and so also referees
//! every peeler.
//!
//! The decomposition also records the instance count μ of every residual
//! graph (`residual_mu`). The densest residual graph — the ρ′ of Pruning1
//! **and** exactly the subgraph `PeelApp` (Algorithm 2) returns, so
//! `peel.rs` and `approx.rs` are thin wrappers over this engine — is a
//! scan of that profile. The scan keeps where its running density maximum
//! strictly rises, as runs of consecutive indices, so the greedy DalkS
//! answer (the densest residual graph with at least k vertices) in
//! `size_constrained.rs` is a binary search in those runs, not another
//! scan.

use dsd_graph::{Graph, VertexId, VertexSet};

use crate::bucket_queue::PeelQueue;
use crate::oracle::{DensityOracle, InstancePeeler};

/// Result of a (k, Ψ)-core decomposition of `g[alive]`: core numbers,
/// the peel order, its residual μ profile, and the running density maxima
/// along it, which answer [`Self::densest_suffix`] in O(log n).
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
    /// The running density maxima of the ρ′ scan — the indices `i` into
    /// `peel_order` whose residual density strictly exceeds that of every
    /// residual graph before them — as ascending maximal runs
    /// `(first, last)` of consecutive indices. The first run starts at 0,
    /// and the last index of the last run is the densest residual graph.
    /// Densities often rise at step after step (all along the Ψ-isolated
    /// prefix when μ > 0, and for cliques typically up to ρ′), so runs are
    /// few: one for triangles and 4-cliques on warm-serve's n = 8 000
    /// graphs, a few hundred for edges. Empty only with no vertex.
    record_runs: Vec<(u32, u32)>,
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
        let best_suffix = self.record_runs.last().map_or(0, |&(_, i)| i as usize);
        self.peel_order[best_suffix..].to_vec()
    }

    /// The densest residual graph with at least `min_len` vertices, as
    /// `(i, ρ)`: the suffix `peel_order[i..]` and its density. Ties keep
    /// the earliest (largest) residual graph. `None` when `min_len` is 0
    /// or exceeds the number of peeled vertices.
    ///
    /// A lookup in the ρ′ scan's running maxima, O(log n): the first
    /// strict maximum over the residual graphs `0..=j`, `j = n − min_len`,
    /// is the last record at or before `j` — `j` itself inside a run,
    /// else the end of the last run before it.
    pub fn densest_suffix(&self, min_len: usize) -> Option<(usize, f64)> {
        let n = self.peel_order.len();
        if min_len == 0 || min_len > n {
            return None;
        }
        let j = n - min_len;
        let at = self.record_runs.partition_point(|&(first, _)| {
            #[cfg(test)]
            count_profile_read();
            first as usize <= j
        });
        // The first run starts at 0, so `at ≥ 1`.
        let (_, last) = self.record_runs[at - 1];
        let i = j.min(last as usize);
        #[cfg(test)]
        count_profile_read();
        Some((i, residual_density(&self.residual_mu, i)))
    }

    /// Approximate resident heap bytes (for substrate-cache accounting).
    pub fn bytes(&self) -> usize {
        8 * self.core.len()
            + 4 * self.peel_order.len()
            + 8 * self.residual_mu.len()
            + 8 * self.record_runs.len()
    }
}

/// Density `residual_mu[i] / (n − i)` of the residual graph after `i` of
/// the `n = residual_mu.len() − 1` removals (`i < n`).
fn residual_density(residual_mu: &[u64], i: usize) -> f64 {
    residual_mu[i] as f64 / (residual_mu.len() - 1 - i) as f64
}

/// The ρ′ scan over the non-empty residual graphs: the runs of
/// [`CliqueCoreDecomposition::record_runs`] and the density of their last
/// index (0 with no residual graph). The caller vouches that densities
/// rise strictly along the first `rising` residual graphs, which are then
/// recorded without being scanned.
fn record_runs(residual_mu: &[u64], rising: usize) -> (Vec<(u32, u32)>, f64) {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    let mut best = f64::NEG_INFINITY;
    if rising > 0 {
        runs.push((0, rising as u32 - 1));
        best = residual_density(residual_mu, rising - 1);
    }
    for i in rising..residual_mu.len() - 1 {
        let density = residual_density(residual_mu, i);
        if density > best {
            best = density;
            match runs.last_mut() {
                Some(run) if run.1 + 1 == i as u32 => run.1 = i as u32,
                _ => runs.push((i as u32, i as u32)),
            }
        }
    }
    let best = if runs.is_empty() { 0.0 } else { best };
    (runs, best)
}

/// The O(n) form of [`CliqueCoreDecomposition::densest_suffix`]: the first
/// strict maximum of the residual densities over the residual graphs with
/// at least `min_len` vertices, scanned from the first. Kept as the
/// debug-build and test referee of the lookup.
#[cfg(any(test, debug_assertions))]
fn scan_densest_suffix(residual_mu: &[u64], min_len: usize) -> Option<(usize, f64)> {
    let n = residual_mu.len() - 1;
    if min_len == 0 || min_len > n {
        return None;
    }
    let mut best = (0, residual_density(residual_mu, 0));
    for i in 1..=n - min_len {
        let density = residual_density(residual_mu, i);
        if density > best.1 {
            best = (i, density);
        }
    }
    Some(best)
}

#[cfg(test)]
thread_local! {
    /// Profile entries (record runs and μ values) this thread's
    /// `densest_suffix` lookups have read.
    static PROFILE_READS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count_profile_read() {
    PROFILE_READS.with(|reads| reads.set(reads.get() + 1));
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
    // Debug builds referee small inputs three times: every
    // `densest_suffix` lookup must equal the O(n) profile scan, the plain
    // loop (every vertex queued and removed, no bulk prefix) must
    // reproduce the whole decomposition, and a reference heap peel — whose
    // ties pop in another order — the tie-break-invariant core numbers.
    #[cfg(debug_assertions)]
    if g.num_vertices() <= 96 {
        assert_lookups_match_scan(&dec, "bulk-prefix peel");
        let plain = plain_peel(
            g.num_vertices(),
            alive,
            oracle.psi_size(),
            peeler_for(g, oracle, alive).as_mut(),
        );
        assert_same_decomposition(&dec, &plain, "bulk-prefix peel vs plain loop");
        debug_assert_eq!(
            dec.core,
            reference_heap_core(g, oracle, alive),
            "bucket-queue peel must reproduce heap core numbers"
        );
    }
    dec
}

/// The shared peel loop: one [`PeelQueue`] over any decrement engine,
/// holding only the Ψ-incident vertices (see the module docs).
fn peel(
    n: usize,
    alive: &VertexSet,
    psi_size: usize,
    peeler: &mut dyn InstancePeeler,
) -> CliqueCoreDecomposition {
    let mut live = alive.clone();
    let mut deg = peeler.degrees();
    // Degrees are 0 outside `alive`, so one pass over them finds μ and
    // the bucket range.
    let (sum, max_deg) = deg
        .iter()
        .fold((0u64, 0u64), |(sum, max), &d| (sum + d, max.max(d)));
    let mu_total = sum / psi_size as u64;

    // The Ψ-isolated prefix: the plain loop pops bucket 0 first, last in
    // first out over ascending pushes, and its removals decrement nobody.
    let mut peel_order = Vec::with_capacity(live.len());
    let mut queue = PeelQueue::new(max_deg);
    for v in live.iter() {
        match deg[v as usize] {
            0 => peel_order.push(v),
            d => queue.push(d, v),
        }
    }
    peel_order.reverse();
    let prefix = peel_order.len();

    let mut core = vec![0u64; n];
    let mut running_k = 0u64;
    let mut kmax = 0u64;
    let mut mu = mu_total;
    let mut residual_mu = Vec::with_capacity(live.len() + 1);
    residual_mu.resize(prefix + 1, mu);

    while let Some((d, v)) = queue.pop() {
        if !live.contains(v) || d != deg[v as usize] {
            continue; // stale queue entry
        }
        // Peel v: its clique-core number is the running-max threshold.
        running_k = running_k.max(d);
        core[v as usize] = running_k;
        kmax = kmax.max(running_k);

        // Instances through v die; decrement co-members (Alg. 3 lines 6-9).
        // A co-member has positive degree, so no prefix vertex is hit.
        peeler.remove(v, &mut |u, amount| {
            debug_assert!(live.contains(u) && u != v && deg[u as usize] > 0);
            deg[u as usize] -= amount.min(deg[u as usize]);
            queue.push(deg[u as usize], u);
        });
        mu -= d;
        live.remove(v);
        peel_order.push(v);
        residual_mu.push(mu);
    }
    debug_assert_eq!(mu, 0, "all instances must be accounted for");
    debug_assert_eq!(peel_order.len(), alive.len(), "every vertex is peeled");
    // Along the prefix μ stays and the residual graph shrinks, so when
    // μ > 0 densities rise strictly there and the scan starts at its end.
    // With μ = 0 every density is 0: the scan records the first residual
    // graph only.
    let rising = if mu_total == 0 { 0 } else { prefix };
    let (record_runs, best_density) = record_runs(&residual_mu, rising);
    CliqueCoreDecomposition {
        core,
        kmax,
        peel_order,
        mu: mu_total,
        residual_mu,
        record_runs,
        best_density,
    }
}

/// The plain peel loop: every vertex of `alive` queued and removed through
/// the peeler, ρ′ scanned from the first residual graph. It is [`peel`]
/// without the bulk prefix, kept as the debug-build and test referee.
#[cfg(any(test, debug_assertions))]
fn plain_peel(
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
    let (mut running_k, mut kmax, mut mu) = (0u64, 0u64, mu_total);
    let mut residual_mu = vec![mu];
    while let Some((d, v)) = queue.pop() {
        if !live.contains(v) || d != deg[v as usize] {
            continue;
        }
        running_k = running_k.max(d);
        core[v as usize] = running_k;
        kmax = kmax.max(running_k);
        peeler.remove(v, &mut |u, amount| {
            deg[u as usize] -= amount.min(deg[u as usize]);
            queue.push(deg[u as usize], u);
        });
        mu -= d;
        live.remove(v);
        peel_order.push(v);
        residual_mu.push(mu);
    }
    let (record_runs, best_density) = record_runs(&residual_mu, 0);
    CliqueCoreDecomposition {
        core,
        kmax,
        peel_order,
        mu: mu_total,
        residual_mu,
        record_runs,
        best_density,
    }
}

/// Panics unless two decompositions agree field by field, ρ′ to the bit.
#[cfg(any(test, debug_assertions))]
fn assert_same_decomposition(
    got: &CliqueCoreDecomposition,
    want: &CliqueCoreDecomposition,
    ctx: &str,
) {
    assert_eq!(got.peel_order, want.peel_order, "{ctx}: peel order");
    assert_eq!(got.core, want.core, "{ctx}: core numbers");
    assert_eq!(got.kmax, want.kmax, "{ctx}: kmax");
    assert_eq!(got.mu, want.mu, "{ctx}: μ");
    assert_eq!(
        got.residual_mu, want.residual_mu,
        "{ctx}: residual μ profile"
    );
    assert_eq!(
        got.record_runs, want.record_runs,
        "{ctx}: running density maxima"
    );
    assert_eq!(
        got.best_density.to_bits(),
        want.best_density.to_bits(),
        "{ctx}: ρ′ bits"
    );
}

/// Panics unless every `densest_suffix` lookup of `dec` equals the O(n)
/// profile scan, density to the bit, and ρ′ equals the unconstrained one.
#[cfg(any(test, debug_assertions))]
fn assert_lookups_match_scan(dec: &CliqueCoreDecomposition, ctx: &str) {
    for min_len in 0..=dec.peel_order.len() + 1 {
        assert_eq!(
            bits(dec.densest_suffix(min_len)),
            bits(scan_densest_suffix(&dec.residual_mu, min_len)),
            "{ctx}: lookup vs scan for ≥ {min_len} vertices"
        );
    }
    let unconstrained = scan_densest_suffix(&dec.residual_mu, 1).map_or(0.0, |(_, rho)| rho);
    assert_eq!(
        dec.best_density.to_bits(),
        unconstrained.to_bits(),
        "{ctx}: ρ′ vs scan"
    );
}

/// A suffix answer with its density as bits, for exact comparison.
#[cfg(any(test, debug_assertions))]
fn bits(answer: Option<(usize, f64)>) -> Option<(usize, u64)> {
    answer.map(|(i, rho)| (i, rho.to_bits()))
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
    use crate::oracle::{density, oracle_for, oracle_with_policy, SubstrateRepair};
    use crate::parallelism::Parallelism;
    use dsd_graph::testing::XorShift;
    use dsd_graph::GraphBuilder;
    use dsd_motif::pattern::PatternKind;
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

    /// A graph with every shape the bulk prefix meets: a dense cluster
    /// (cliques, diamonds), sparse random edges, pendant trees (in no
    /// triangle) and isolated vertices. `n` is drawn from `lo..=hi`.
    fn mixed_graph(rng: &mut XorShift, lo: usize, hi: usize) -> Graph {
        let n = lo + (rng.next() as usize) % (hi - lo + 1);
        let mut b = GraphBuilder::new(n);
        let cluster = 4 + (rng.next() as usize) % 8;
        for u in 0..cluster as VertexId {
            for v in u + 1..cluster as VertexId {
                if rng.next() % 100 < 75 {
                    b.add_edge(u, v);
                }
            }
        }
        let sparse = n * 3 / 5;
        for _ in 0..sparse {
            let u = (rng.next() as usize % sparse) as VertexId;
            let v = (rng.next() as usize % sparse) as VertexId;
            b.add_edge(u, v);
        }
        // Pendant trees; the last tenth stays isolated.
        for v in sparse..n - n / 10 {
            let u = (rng.next() as usize % v) as VertexId;
            b.add_edge(u, v as VertexId);
        }
        b.build()
    }

    /// Every Ψ shape with its own peeler, plus the streaming fallback
    /// (byte budget 0) for the store-backed ones. The diamond oracle keeps
    /// its store or falls back to the seeded closed form by the cost rule,
    /// graph by graph; the budget-0 one always falls back.
    fn oracles() -> Vec<(String, Box<dyn DensityOracle>)> {
        let mut out: Vec<(String, Box<dyn DensityOracle>)> = Vec::new();
        for psi in [
            Pattern::edge(),
            Pattern::two_star(),
            Pattern::three_star(),
            Pattern::diamond(),
            Pattern::triangle(),
            Pattern::clique(4),
            Pattern::two_triangle(),
        ] {
            out.push((psi.name().to_string(), oracle_for(&psi)));
            if matches!(
                psi.kind(),
                PatternKind::Clique(3..) | PatternKind::Diamond | PatternKind::General
            ) {
                let streaming = oracle_with_policy(&psi, Parallelism::serial(), Some(0));
                out.push((format!("{} streaming", psi.name()), streaming));
            }
        }
        out
    }

    /// Runs the bulk-prefix peel and the plain loop on fresh peelers and
    /// requires equal decompositions; returns the prefix length.
    fn check(g: &Graph, oracle: &dyn DensityOracle, alive: &VertexSet, ctx: &str) -> usize {
        let n = g.num_vertices();
        let psi = oracle.psi_size();
        let fast = peel(n, alive, psi, peeler_for(g, oracle, alive).as_mut());
        let plain = plain_peel(n, alive, psi, peeler_for(g, oracle, alive).as_mut());
        assert_lookups_match_scan(&fast, ctx);
        assert_same_decomposition(&fast, &plain, ctx);
        assert_same_decomposition(&decompose_within(g, oracle, alive), &plain, ctx);
        let deg = oracle.degrees(g, alive);
        alive.iter().filter(|&v| deg[v as usize] == 0).count()
    }

    fn random_subset(rng: &mut XorShift, n: usize) -> VertexSet {
        let members: Vec<VertexId> = (0..n as VertexId).filter(|_| rng.next() % 10 < 7).collect();
        VertexSet::from_members(n, &members)
    }

    /// The bulk prefix changes no field of the decomposition: seeded
    /// graphs, every peeler, whole and random `alive` sets, empty ones,
    /// and Ψ-free graphs (μ = 0).
    #[test]
    fn bulk_prefix_peel_matches_the_plain_loop() {
        let mut rng = XorShift::new(0x51ce);
        let mut prefixed = 0;
        for round in 0..12 {
            // Small graphs also arm `decompose_within`'s own referee.
            let (lo, hi) = if round % 3 == 2 { (200, 400) } else { (20, 90) };
            let g = mixed_graph(&mut rng, lo, hi);
            let n = g.num_vertices();
            for (name, oracle) in oracles() {
                let oracle = oracle.as_ref();
                let ctx = format!("round {round} {name}");
                let prefix = check(&g, oracle, &VertexSet::full(n), &ctx);
                if prefix >= 2 && oracle.count(&g, &VertexSet::full(n)) > 0 {
                    prefixed += 1;
                }
                let subset = random_subset(&mut rng, n);
                check(&g, oracle, &subset, &format!("{ctx} subset"));
                check(&g, oracle, &VertexSet::empty(n), &format!("{ctx} empty"));
            }
        }
        assert!(prefixed > 60, "the prefix must be exercised ({prefixed})");
        // μ = 0: a forest and an edgeless graph.
        let forest = Graph::from_edges(9, &[(0, 1), (1, 2), (1, 3), (4, 5), (5, 6)]);
        for g in [forest, Graph::empty(4)] {
            for (name, oracle) in oracles() {
                let full = VertexSet::full(g.num_vertices());
                if oracle.count(&g, &full) == 0 {
                    check(&g, oracle.as_ref(), &full, &format!("μ = 0 {name}"));
                }
            }
        }
    }

    /// `densest_suffix` is a lookup in the ρ′ scan's running maxima, not
    /// a profile scan: on an n = 4 096 decomposition every answer reads
    /// O(log n) profile entries, for k on both sides of the Ψ-isolated
    /// prefix boundary, and equals the O(n) scan to the bit.
    #[test]
    fn densest_suffix_reads_logarithmically_many_profile_entries() {
        let mut rng = XorShift::new(0x10c5);
        let g = mixed_graph(&mut rng, 4096, 4096);
        let n = g.num_vertices();
        let bound = 2 * (usize::BITS - n.leading_zeros()) as usize + 2;
        for psi in [Pattern::edge(), Pattern::triangle()] {
            let oracle = oracle_for(&psi);
            let dec = decompose(&g, oracle.as_ref());
            let full = VertexSet::full(n);
            let prefix = oracle
                .degrees(&g, &full)
                .iter()
                .filter(|&&d| d == 0)
                .count();
            assert!(dec.mu > 0 && prefix > 0, "{}: μ and a prefix", psi.name());
            for k in [1, 2, 32, n / 2, n - prefix, n - prefix + 1, n] {
                PROFILE_READS.with(|reads| reads.set(0));
                let got = dec.densest_suffix(k);
                let reads = PROFILE_READS.with(|reads| reads.get());
                assert!(
                    reads <= bound,
                    "{} k = {k}: {reads} profile reads (bound {bound})",
                    psi.name()
                );
                assert_eq!(
                    bits(got),
                    bits(scan_densest_suffix(&dec.residual_mu, k)),
                    "{} k = {k}",
                    psi.name()
                );
            }
        }
    }

    /// Stores repaired by an update carry tombstoned rows, which every
    /// peel must skip; the bulk prefix must still match the plain loop.
    #[test]
    fn bulk_prefix_peel_matches_the_plain_loop_on_repaired_stores() {
        let mut rng = XorShift::new(0x7a11);
        let mut tombstoned = 0;
        for round in 0..8 {
            let g = mixed_graph(&mut rng, 30, 90);
            let n = g.num_vertices();
            let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
            // Delete one cluster edge (killing a few cliques, too few
            // for the repair to compact them away) and insert a few.
            let cluster: Vec<_> = edges.iter().copied().filter(|&(_, v)| v < 12).collect();
            let removed = vec![cluster[rng.next() as usize % cluster.len()]];
            let inserted: Vec<_> = (0..3)
                .map(|i| (20 + i, 21 + i + (rng.next() % 5) as VertexId))
                .filter(|e| !edges.contains(e))
                .collect();
            for psi in [
                Pattern::triangle(),
                Pattern::clique(4),
                Pattern::two_triangle(),
            ] {
                // General patterns recount against the pre-insert graph,
                // so they take deletions only.
                let inserted: &[(VertexId, VertexId)] = match psi.kind() {
                    PatternKind::General => &[],
                    _ => &inserted,
                };
                let mut nb = GraphBuilder::new(n);
                for (u, v) in edges.iter().filter(|e| !removed.contains(e)) {
                    nb.add_edge(*u, *v);
                }
                for &(u, v) in inserted {
                    nb.add_edge(u, v);
                }
                let g_new = nb.build();
                let oracle = oracle_for(&psi);
                assert!(oracle.store(&g).is_some(), "the store materializes");
                let SubstrateRepair::Repaired(repaired, _) =
                    oracle.repair_for_update(&g_new, &g_new, inserted, &removed)
                else {
                    panic!("{}: a store repairs in place", psi.name());
                };
                let store = repaired.store(&g_new).expect("repaired store");
                if store.tombstoned_rows() > 0 {
                    tombstoned += 1;
                }
                let ctx = format!("round {round} repaired {}", psi.name());
                check(&g_new, repaired.as_ref(), &VertexSet::full(n), &ctx);
                let subset = random_subset(&mut rng, n);
                check(&g_new, repaired.as_ref(), &subset, &format!("{ctx} subset"));
            }
        }
        assert!(
            tombstoned >= 8,
            "repairs must tombstone rows ({tombstoned})"
        );
    }
}
