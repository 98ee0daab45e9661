//! The sharded-graph subsystem: partitioned engines with scatter-gather
//! solve and bound-pruned cross-shard merge.
//!
//! A [`ShardedGraph`] splits one logical graph into per-shard
//! [`DsdEngine`]s over vertex-induced subgraphs (cut-aware
//! degeneracy-order assignment via [`dsd_graph::partition`]), keeps a
//! *spine* engine over the whole graph, and answers requests with a
//! decompose-then-combine discipline:
//!
//! 1. **Scatter** — solve `Densest` locally on every shard with
//!    `CoreExact`, fanned out across the configured worker pool
//!    ([`ShardedGraph::with_parallelism`]; serial by default). Each shard
//!    engine memoizes its own substrates and is individually budgetable
//!    by the serve layer's [`crate::serve::SubstrateGovernor`].
//! 2. **Gather** — the best local density ρ* is a global lower bound,
//!    because shards are vertex-induced: a subgraph confined to one shard
//!    has identical Ψ-instance counts locally and globally. Each exact
//!    local optimum becomes a [`RegionCertificates`] entry.
//! 3. **Merge** — run the *same* exact code path the unsharded engine
//!    runs ([`DsdEngine::solve_certified`]), where located-core
//!    components confined to one certified shard are skipped whenever
//!    their certified optimum cannot beat the running lower bound — a
//!    skip that provably mirrors an infeasible first probe at that bound
//!    (Lemma 14 strict feasibility), so answers stay **bit-identical** to the
//!    single-engine path. Cross-shard structure (boundary edges, split
//!    components) always flows through the real flow machinery.
//!
//! The headline pruning metric reported by [`ShardedSolve`] is the
//! paper's located-core test (Lemma 7 via
//! [`crate::bounds::locate_core_order`]): a shard whose local `kmax`
//! sits below `⌈ρ*⌉` cannot contain a subgraph beating ρ* and is counted
//! as pruned. On community-structured inputs (see
//! `dsd_datasets::multi_community`) most shards fail that test and their
//! components never build a flow network in the merge.
//!
//! Updates route by touched shard: an edge batch is always applied to
//! the spine, while each intra-shard edge is forwarded (in local ids) to
//! the owning shard engine only — sibling shards keep their epochs and
//! warm substrates. Cross-shard edges exist in no shard subgraph and
//! touch the spine alone. Vertex-induced shard subgraphs stay
//! vertex-induced under any edge batch, so certificates remain sound
//! after updates.

use std::sync::Arc;

use dsd_graph::{partition_degeneracy, Graph, GraphUpdate, InducedSubgraph, VertexId};

use crate::bounds::locate_core_order;
use crate::core_exact::RegionCertificates;
use crate::engine::{ApplyStats, DsdEngine, DsdRequest, Guarantee, Objective, Solution};
use crate::oracle::DEFAULT_STORE_BUDGET;
use crate::parallelism::Parallelism;
use crate::Method;

/// How a [`ShardPlanner`] routes one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardPlan {
    /// Scatter to shard engines, gather ρ* and certificates, run the
    /// certified merge on the spine.
    ScatterGather,
    /// Spine only: the objective/method cannot consume shard
    /// certificates (AtMostK, WithQuery, explicitly non-CoreExact
    /// Densest methods), so scattering would be pure overhead.
    SpineOnly,
}

/// Routing policy for [`DsdRequest`]s against a [`ShardedGraph`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardPlanner;

impl ShardPlanner {
    /// Decides the execution plan for `req`.
    ///
    /// `Densest` scatters for `CoreExact`/`Auto` (the certified merge
    /// consumes certificates only on its CoreExact arm; `Auto` may
    /// resolve there), `TopK` scatters for its round-0 scan, `AtLeastK`
    /// for its exact fast path. Everything else — and shardings that
    /// degenerated to a single shard — goes straight to the spine.
    pub fn plan(req: &DsdRequest, num_shards: usize) -> ShardPlan {
        if num_shards <= 1 {
            return ShardPlan::SpineOnly;
        }
        match req.objective_ref() {
            Objective::Densest => match req.method_choice() {
                Method::CoreExact | Method::Auto => ShardPlan::ScatterGather,
                _ => ShardPlan::SpineOnly,
            },
            Objective::TopK(_) | Objective::AtLeastK(_) => ShardPlan::ScatterGather,
            Objective::AtMostK(_) | Objective::WithQuery(_) => ShardPlan::SpineOnly,
        }
    }
}

/// One shard: its engine plus the global↔local id maps.
struct Shard {
    engine: Arc<DsdEngine<'static>>,
    /// `members[local]` = global vertex id (ascending — the induced
    /// subgraph's `orig` map).
    members: Vec<VertexId>,
}

/// Per-shard outcome of a scatter phase.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Vertices in the shard subgraph.
    pub vertices: usize,
    /// Best local Ψ-density found by the shard solve.
    pub local_density: f64,
    /// Local `kmax` of the shard's (k, Ψ)-core decomposition.
    pub kmax: Option<u64>,
    /// Whether the shard's local optimum is certified exact (and so
    /// contributed a region certificate to the merge).
    pub certified: bool,
    /// The located-core bound test: `kmax < locate_core_order(ρ*)`
    /// proves no subgraph of this shard can beat the best local density,
    /// so the merge can never need its interior.
    pub pruned: bool,
}

/// A sharded solve: the (bit-identical) answer plus scatter telemetry.
#[derive(Clone, Debug)]
pub struct ShardedSolve {
    /// The final answer — bit-identical to the unsharded engine's.
    pub solution: Solution,
    /// Best local density over all shards (the gather lower bound);
    /// 0.0 when the plan never scattered.
    pub rho_star: f64,
    /// Per-shard scatter outcomes (empty when the plan never scattered).
    pub shards: Vec<ShardReport>,
    /// Actual shard count of the partition. `partition_degeneracy` trims
    /// trailing empty shards, so this can be smaller than the requested
    /// count — callers should report this, not what they asked for.
    pub shards_total: usize,
    /// Shards failing the located-core bound test against ρ*.
    pub shards_pruned: usize,
    /// Located-core components the certified merge skipped without
    /// building a flow network.
    pub pruned_components: usize,
    /// Whether the scatter-gather plan ran (vs spine-only delegation).
    pub scattered: bool,
}

/// What one [`ShardedGraph::apply`] batch did.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardedApply {
    /// The spine engine's apply outcome (the authoritative epoch/count
    /// accounting for the logical graph).
    pub spine: ApplyStats,
    /// Shard engines that received a local sub-batch; siblings outside
    /// this count were not touched at all (no barrier, no epoch bump).
    pub shards_touched: usize,
    /// Updates whose endpoints straddle shards: they live only in the
    /// spine (and the boundary overlay it implies), never in a shard
    /// subgraph.
    pub cross_shard: usize,
    /// Ψ-substrates repaired in place across the spine and every touched
    /// shard engine (siblings outside the batch footprint never count).
    pub substrates_repaired: usize,
    /// Ψ-substrates that fell back to invalidation across the same set.
    pub substrates_rebuilt: usize,
}

/// One logical graph fanned out over per-shard engines plus a spine.
///
/// See the module docs for the execution model. All engines (spine and
/// shards) are plain [`DsdEngine`]s: the serve layer registers each with
/// its [`crate::serve::SubstrateGovernor`] so shard substrates are
/// budgeted exactly like standalone graphs.
pub struct ShardedGraph {
    spine: Arc<DsdEngine<'static>>,
    shards: Vec<Shard>,
    /// `assignment[v]` = shard of global vertex `v`.
    assignment: Vec<u32>,
    /// `local_id[v]` = id of global vertex `v` inside its shard.
    local_id: Vec<u32>,
    /// Edges crossing shards at partition time.
    boundary_edges: usize,
    /// Worker pool for the scatter phase (shard solves run concurrently;
    /// serial by default).
    parallelism: Parallelism,
}

impl ShardedGraph {
    /// Partitions `graph` into at most `num_shards` shards with the
    /// default per-engine substrate budget.
    pub fn new(graph: Graph, num_shards: usize) -> ShardedGraph {
        Self::with_substrate_budget(graph, num_shards, Some(DEFAULT_STORE_BUDGET))
    }

    /// [`ShardedGraph::new`] with an explicit per-engine instance-store
    /// budget (applied to the spine and every shard engine).
    pub fn with_substrate_budget(
        graph: Graph,
        num_shards: usize,
        budget: Option<u64>,
    ) -> ShardedGraph {
        let partition = partition_degeneracy(&graph, num_shards);
        let n = graph.num_vertices();
        let mut local_id = vec![0u32; n];
        let mut shards = Vec::with_capacity(partition.shards.len());
        for members in &partition.shards {
            for (local, &v) in members.iter().enumerate() {
                local_id[v as usize] = local as u32;
            }
            let sub = InducedSubgraph::new(&graph, members);
            let engine = Arc::new(DsdEngine::new(sub.graph).with_substrate_budget(budget));
            shards.push(Shard {
                engine,
                members: sub.orig,
            });
        }
        let spine = Arc::new(DsdEngine::new(graph).with_substrate_budget(budget));
        ShardedGraph {
            spine,
            shards,
            assignment: partition.assignment,
            local_id,
            boundary_edges: partition.boundary_edges,
            parallelism: Parallelism::serial(),
        }
    }

    /// Sets the worker pool for the scatter phase: shard-local solves run
    /// concurrently across the configured workers ([`Parallelism::scatter`]),
    /// with the gather's ρ* fold applied in shard order as each result
    /// lands. ρ* is a commutative max and every local solve is
    /// shard-private, so answers — and the full [`ShardedSolve`]
    /// telemetry — are **bit-identical** for every setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The scatter phase's worker-count configuration.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Number of (non-empty) shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Edges that crossed shards at partition time.
    pub fn boundary_edges(&self) -> usize {
        self.boundary_edges
    }

    /// The shard each global vertex was assigned to.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// The spine engine (whole-graph view) — what the serve layer
    /// registers in its catalog and leases substrates against.
    pub fn spine_engine(&self) -> &Arc<DsdEngine<'static>> {
        &self.spine
    }

    /// Shard engine `i` — registered with the governor alongside the
    /// spine so shard substrates are globally budgeted.
    pub fn shard_engine(&self, i: usize) -> &Arc<DsdEngine<'static>> {
        &self.shards[i].engine
    }

    /// Global vertex ids of shard `i`, ascending.
    pub fn shard_members(&self, i: usize) -> &[VertexId] {
        &self.shards[i].members
    }

    /// Runs `req`, returning the bare (bit-identical) solution.
    pub fn solve(&self, req: &DsdRequest) -> Solution {
        self.solve_explained(req).solution
    }

    /// Runs `req` with full scatter telemetry: per-shard local optima,
    /// the gather bound ρ*, which shards the located-core test pruned,
    /// and how many merge components the certificates skipped.
    pub fn solve_explained(&self, req: &DsdRequest) -> ShardedSolve {
        if ShardPlanner::plan(req, self.shards.len()) == ShardPlan::SpineOnly {
            return ShardedSolve {
                solution: self.spine.solve(req),
                rho_star: 0.0,
                shards: Vec::new(),
                shards_total: self.shards.len(),
                shards_pruned: 0,
                pruned_components: 0,
                scattered: false,
            };
        }

        // Scatter: exact local Densest per shard, pinned to CoreExact
        // with the certified-exact defaults (no tolerance, no budget) so
        // every local optimum is a sound certificate. The request's own
        // knobs (tolerance, step budget) apply to the merge only — they
        // must not weaken certificates. Shard solves are independent
        // (each engine owns its subgraph and substrate cache), so they
        // fan out across the configured workers; the ρ* fold below is a
        // commutative max over shard-indexed results, so the gather is
        // bit-identical for every worker count.
        let locals = self.parallelism.scatter(&self.shards, |_, shard| {
            let local_req = DsdRequest::new(req.psi()).method(Method::CoreExact);
            shard.engine.solve(&local_req)
        });
        let mut reports = Vec::with_capacity(self.shards.len());
        let mut bounds = Vec::with_capacity(self.shards.len());
        let mut rho_star = 0.0f64;
        for (i, (shard, local)) in self.shards.iter().zip(&locals).enumerate() {
            let certified = matches!(local.guarantee, Guarantee::Exact);
            if certified && local.density > rho_star {
                rho_star = local.density;
            }
            bounds.push(if certified {
                local.density
            } else {
                f64::INFINITY
            });
            reports.push(ShardReport {
                shard: i,
                vertices: shard.members.len(),
                local_density: local.density,
                kmax: local.stats.kmax,
                certified,
                pruned: false,
            });
        }
        // Lemma 7 over the gather bound: any subgraph beating ρ* lives in
        // the global (⌈ρ*⌉, Ψ)-core, and a subgraph inside shard i is
        // inside shard i's own (⌈ρ*⌉, Ψ)-core — impossible when the
        // shard's kmax is smaller.
        let k_star = locate_core_order(rho_star);
        let mut shards_pruned = 0usize;
        for report in reports.iter_mut() {
            report.pruned = report.kmax.is_some_and(|kmax| kmax < k_star);
            shards_pruned += report.pruned as usize;
        }

        // Merge: the spine's own exact path, with per-shard certificates
        // skipping components that provably cannot beat the running
        // lower bound. Bit-identical to `spine.solve(req)`.
        let certs = RegionCertificates::new(self.assignment.clone(), bounds);
        let solution = self.spine.solve_certified(req, &certs);
        let pruned_components = solution.stats.pruned_components;
        ShardedSolve {
            solution,
            rho_star,
            shards: reports,
            shards_total: self.shards.len(),
            shards_pruned,
            pruned_components,
            scattered: true,
        }
    }

    /// Applies an edge batch, scoping the work to the shards it touches:
    /// the spine always takes the whole batch (it owns the logical
    /// graph, boundary edges included), while each intra-shard update is
    /// forwarded in local ids to the owning shard engine only. Shards
    /// outside the batch's footprint see no call at all — no update
    /// barrier, no epoch bump, warm substrates intact.
    pub fn apply(&self, updates: &[GraphUpdate]) -> ShardedApply {
        let n = self.assignment.len();
        let mut per_shard: Vec<Vec<GraphUpdate>> = vec![Vec::new(); self.shards.len()];
        let mut cross_shard = 0usize;
        for update in updates {
            let (u, v) = update.endpoints();
            if (u as usize) >= n || (v as usize) >= n {
                continue; // out-of-range: a spine no-op, owned by no shard
            }
            let (su, sv) = (self.assignment[u as usize], self.assignment[v as usize]);
            if su != sv {
                cross_shard += 1;
                continue;
            }
            let (lu, lv) = (self.local_id[u as usize], self.local_id[v as usize]);
            per_shard[su as usize].push(match update {
                GraphUpdate::Insert(..) => GraphUpdate::Insert(lu, lv),
                GraphUpdate::Delete(..) => GraphUpdate::Delete(lu, lv),
            });
        }
        let spine = self.spine.apply(updates);
        let mut shards_touched = 0usize;
        let mut substrates_repaired = spine.substrates_repaired;
        let mut substrates_rebuilt = spine.substrates_rebuilt;
        for (shard, batch) in self.shards.iter().zip(&per_shard) {
            if !batch.is_empty() {
                let stats = shard.engine.apply(batch);
                substrates_repaired += stats.substrates_repaired;
                substrates_rebuilt += stats.substrates_rebuilt;
                shards_touched += 1;
            }
        }
        ShardedApply {
            spine,
            shards_touched,
            cross_shard,
            substrates_repaired,
            substrates_rebuilt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsd_motif::Pattern;

    /// Three planted near-cliques of different sizes joined by sparse
    /// bridges — community structure where the located-core test fires.
    fn communities() -> Graph {
        let mut edges = Vec::new();
        let blocks: [&[u32]; 3] = [
            &[0, 1, 2, 3, 4, 5, 6],
            &[7, 8, 9, 10, 11],
            &[12, 13, 14, 15],
        ];
        for block in blocks {
            for (i, &u) in block.iter().enumerate() {
                for &v in &block[i + 1..] {
                    edges.push((u, v));
                }
            }
        }
        edges.extend_from_slice(&[(6, 7), (11, 12)]);
        Graph::from_edges(16, &edges)
    }

    /// One dense planted block (K8) plus two sparse 8-vertex blocks (a
    /// cycle and a path), each its own component so the partitioner maps
    /// block = shard. The sparse shards' kmax (2 and 1) sits far below
    /// ⌈ρ*⌉ = ⌈3.5⌉, so the located-core bound test prunes both.
    fn planted() -> Graph {
        let mut edges = Vec::new();
        for u in 0..8u32 {
            for v in (u + 1)..8 {
                edges.push((u, v));
            }
        }
        for i in 8..16u32 {
            edges.push((i, if i == 15 { 8 } else { i + 1 }));
        }
        for i in 16..23u32 {
            edges.push((i, i + 1));
        }
        Graph::from_edges(24, &edges)
    }

    fn bitwise_same(a: &Solution, b: &Solution) {
        assert_eq!(a.vertices, b.vertices);
        assert_eq!(a.density.to_bits(), b.density.to_bits());
        assert_eq!(a.subgraphs.len(), b.subgraphs.len());
        for (x, y) in a.subgraphs.iter().zip(&b.subgraphs) {
            assert_eq!(x.vertices, y.vertices);
            assert_eq!(x.density.to_bits(), y.density.to_bits());
        }
    }

    #[test]
    fn densest_is_bit_identical_on_bridged_communities() {
        let g = communities();
        let sharded = ShardedGraph::new(g.clone(), 3);
        let reference = DsdEngine::new(g);
        for psi in [Pattern::edge(), Pattern::triangle()] {
            let req = DsdRequest::new(&psi).method(Method::CoreExact);
            let out = sharded.solve_explained(&req);
            bitwise_same(&out.solution, &reference.solve(&req));
            assert!(out.scattered);
            assert!(out.rho_star > 0.0);
        }
    }

    #[test]
    fn located_core_bound_prunes_sparse_shards() {
        let g = planted();
        let sharded = ShardedGraph::new(g.clone(), 3);
        assert_eq!(sharded.num_shards(), 3);
        let reference = DsdEngine::new(g);
        for psi in [Pattern::edge(), Pattern::triangle()] {
            let req = DsdRequest::new(&psi).method(Method::CoreExact);
            let out = sharded.solve_explained(&req);
            bitwise_same(&out.solution, &reference.solve(&req));
            // The K8 dominates; both sparse shards fail the bound test
            // and their components never reach the flow machinery.
            assert_eq!(out.shards_pruned, 2, "{}", psi.name());
            assert!(
                out.pruned_components >= 1,
                "{}: no component skipped",
                psi.name()
            );
        }
    }

    #[test]
    fn parallel_scatter_matches_serial_scatter_bitwise() {
        let g = planted();
        let serial = ShardedGraph::new(g.clone(), 3);
        for threads in [2, 4, 8] {
            let par = ShardedGraph::new(g.clone(), 3).with_parallelism(Parallelism::new(threads));
            for psi in [Pattern::edge(), Pattern::triangle()] {
                let req = DsdRequest::new(&psi).method(Method::CoreExact);
                let a = serial.solve_explained(&req);
                let b = par.solve_explained(&req);
                bitwise_same(&a.solution, &b.solution);
                assert_eq!(
                    a.rho_star.to_bits(),
                    b.rho_star.to_bits(),
                    "{} @ {threads} threads",
                    psi.name()
                );
                assert_eq!(a.shards_pruned, b.shards_pruned);
                assert_eq!(a.pruned_components, b.pruned_components);
                for (x, y) in a.shards.iter().zip(&b.shards) {
                    assert_eq!(x.local_density.to_bits(), y.local_density.to_bits());
                    assert_eq!(x.kmax, y.kmax);
                    assert_eq!(x.pruned, y.pruned);
                }
            }
        }
    }

    #[test]
    fn top_k_and_at_least_k_are_bit_identical() {
        let g = communities();
        let sharded = ShardedGraph::new(g.clone(), 3);
        let reference = DsdEngine::new(g);
        let psi = Pattern::edge();
        let topk = DsdRequest::new(&psi).objective(Objective::TopK(3));
        bitwise_same(&sharded.solve(&topk), &reference.solve(&topk));
        let dalks = DsdRequest::new(&psi).objective(Objective::AtLeastK(6));
        bitwise_same(&sharded.solve(&dalks), &reference.solve(&dalks));
    }

    #[test]
    fn spine_only_objectives_delegate() {
        let g = communities();
        let sharded = ShardedGraph::new(g.clone(), 3);
        let reference = DsdEngine::new(g);
        let psi = Pattern::edge();
        for req in [
            DsdRequest::new(&psi).objective(Objective::AtMostK(5)),
            DsdRequest::new(&psi).objective(Objective::WithQuery(vec![0])),
            DsdRequest::new(&psi).method(Method::PeelApp),
        ] {
            let out = sharded.solve_explained(&req);
            assert!(!out.scattered);
            bitwise_same(&out.solution, &reference.solve(&req));
        }
    }

    #[test]
    fn single_shard_fallback_never_scatters() {
        let g = communities();
        let sharded = ShardedGraph::new(g, 1);
        assert_eq!(sharded.num_shards(), 1);
        let req = DsdRequest::new(&Pattern::edge()).method(Method::CoreExact);
        let out = sharded.solve_explained(&req);
        assert!(!out.scattered);
        assert!(!out.solution.is_empty());
    }

    #[test]
    fn updates_touch_only_owning_shards() {
        let g = communities();
        let sharded = ShardedGraph::new(g, 3);
        let epochs: Vec<u64> = (0..sharded.num_shards())
            .map(|i| sharded.shard_engine(i).epoch())
            .collect();
        // An update inside the K7 block (shard of vertex 0).
        let home = sharded.assignment()[0] as usize;
        let batch = [GraphUpdate::Delete(0, 1)];
        let out = sharded.apply(&batch);
        assert_eq!(out.shards_touched, 1);
        assert_eq!(out.cross_shard, 0);
        assert_eq!(out.spine.deleted, 1);
        for (i, epoch) in epochs.iter().enumerate() {
            let expect = epoch + u64::from(i == home);
            assert_eq!(sharded.shard_engine(i).epoch(), expect, "shard {i}");
        }
    }

    #[test]
    fn cross_shard_updates_stay_on_the_spine() {
        let g = communities();
        let sharded = ShardedGraph::new(g, 3);
        // 6-7 bridges two blocks (distinct shards with 3 shards of ~5).
        assert_ne!(
            sharded.assignment()[6],
            sharded.assignment()[7],
            "test premise: 6 and 7 are in different shards"
        );
        let out = sharded.apply(&[GraphUpdate::Delete(6, 7)]);
        assert_eq!(out.cross_shard, 1);
        assert_eq!(out.shards_touched, 0);
        assert_eq!(out.spine.deleted, 1);
        for i in 0..sharded.num_shards() {
            assert_eq!(sharded.shard_engine(i).epoch(), 0);
        }
    }

    #[test]
    fn solve_after_update_stays_bit_identical() {
        let g = communities();
        let sharded = ShardedGraph::new(g.clone(), 3);
        let reference = DsdEngine::new(g);
        let batch = [
            GraphUpdate::Delete(0, 1),
            GraphUpdate::Insert(3, 15),
            GraphUpdate::Delete(6, 7),
        ];
        sharded.apply(&batch);
        reference.apply(&batch);
        let psi = Pattern::edge();
        for req in [
            DsdRequest::new(&psi).method(Method::CoreExact),
            DsdRequest::new(&psi).objective(Objective::TopK(2)),
            DsdRequest::new(&psi).objective(Objective::AtLeastK(5)),
        ] {
            bitwise_same(&sharded.solve(&req), &reference.solve(&req));
        }
    }
}
