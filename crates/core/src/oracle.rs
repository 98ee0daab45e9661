//! Density oracles: a uniform interface over h-cliques and general
//! patterns, backed by one columnar instance substrate.
//!
//! Every DSD algorithm in the paper needs exactly two primitives from Ψ:
//! per-vertex instance counts (clique-/pattern-degrees, Definitions 3 and
//! 9) and the degree *decrements* caused by peeling a vertex (the inner
//! loop of Algorithm 3). Since the Lemma-6 analysis makes instance
//! enumeration the dominant cost of both, the default oracle for cliques
//! (h ≥ 3) and general patterns is the [`MaterializedOracle`]: it
//! enumerates the instance set **once** into a u32-indexed
//! [`InstanceStore`] (CSR-of-members + CSR-of-incidence, built on
//! `dsd-motif`'s sharded enumeration driver) and answers every
//! degree, count, and decrement query from the columns. Peel loops get an
//! [`InstancePeeler`] with alive-count-per-row bookkeeping, making a full
//! decomposition O(total memberships) after the single enumeration pass.
//!
//! A byte budget guards the materialization: when the store would overflow
//! its `u32` indexing or the configured budget ([`oracle_with_policy`]),
//! the oracle transparently falls back to the streaming implementations —
//! kClist re-enumeration for cliques, anchored backtracking for general
//! patterns — which are always available as:
//!
//! * h-cliques → kClist enumeration (`dsd-motif::kclist`), whose degree
//!   pass shards across the same workers ([`CliqueOracle`]);
//! * x-stars and diamonds → Appendix-D closed forms (`dsd-motif::special`;
//!   a refused diamond store seeds its peel with the degrees its walk
//!   counted);
//! * anything else → symmetry-broken backtracking enumeration
//!   (`dsd-motif::pattern_enum`).
//!
//! Diamonds materialize where the store costs less than their closed
//! form: one rank-ordered 4-cycle walk counts the cycles and lists them
//! ([`InstanceStore::four_cycles_within`]), and the store is kept while its
//! rows stay under `Σ d(v)² / `[`DIAMOND_ROW_COST`], the wedge steps one
//! closed-form peel pass may walk. Past that the oracle answers from the
//! closed form, its peel seeded with the degrees the walk counted
//! ([`StoreFallback::Cost`]). Edges and stars never materialize: a store
//! would only repeat the graph's CSR (edges) or cost more than the closed
//! form. Their peels, and a diamond peel past the cost rule, still get a
//! stateful [`InstancePeeler`] — the edge rule (each alive neighbour loses
//! one), the star kernel over maintained alive degrees, the diamond
//! two-pass wedge walk — with dense scratch reused across removals, so a
//! removal allocates nothing.

use std::sync::Arc;

use dsd_graph::{Graph, VertexId, VertexSet};
use dsd_motif::pattern::{Pattern, PatternKind};
use dsd_motif::store::{InstanceStore, StoreBuildStats, StoreError, StoreRepairStats};
use dsd_motif::{kclist, pattern_enum, special};

use crate::parallelism::Parallelism;

/// The diamond cost rule's constant `K`: a 4-cycle store is kept while
/// its rows (cycles, before grouping) number at most `Σ d(v)² / K`, with
/// `d` the degrees of the graph it is built for. `Σ d(v)²` bounds the
/// wedge steps of one closed-form peel pass (each removal walks its
/// neighbours' lists), and `K` is what one stored row costs in those steps
/// — listing it, building its incidence and peeling it — measured where
/// the two paths break even: near 1/28 rows per `Σ d²` on Chung–Lu graphs
/// and 1/40 on G(n, p) (EXPERIMENTS.md, "Diamonds on the instance
/// store"). `K` takes the stricter, so a kept store wins on both. A
/// constant, not an option.
pub const DIAMOND_ROW_COST: u64 = 40;

/// Default byte budget for instance materialization: stores past this
/// size fall back to streaming oracles (override per engine with
/// [`crate::engine::DsdEngine::with_substrate_budget`]).
pub const DEFAULT_STORE_BUDGET: u64 = 512 << 20;

/// Degree/decrement oracle for a fixed pattern Ψ.
///
/// Oracles are shared across threads by the engine's substrate cache, so
/// the trait is bounded `Send + Sync`; implementations must make any
/// internal memoization thread-safe (see [`MaterializedOracle`]).
pub trait DensityOracle: Send + Sync {
    /// `|VΨ|`, the number of pattern vertices.
    fn psi_size(&self) -> usize;

    /// Instance-degrees `deg(v, Ψ)` of every vertex of `g[alive]`
    /// (0 outside `alive`).
    fn degrees(&self, g: &Graph, alive: &VertexSet) -> Vec<u64>;

    /// Degree losses `(u, amount)` suffered by *other* alive vertices when
    /// `v` is removed. `v` must still be in `alive` when called; the caller
    /// removes it afterwards. `v`'s own loss equals its current degree.
    fn removal_decrements(&self, g: &Graph, alive: &VertexSet, v: VertexId)
        -> Vec<(VertexId, u64)>;

    /// Total number of instances `μ(g[alive], Ψ)`.
    ///
    /// Default: `Σ deg / |VΨ|`.
    fn count(&self, g: &Graph, alive: &VertexSet) -> u64 {
        let total: u64 = self.degrees(g, alive).iter().sum();
        total / self.psi_size() as u64
    }

    /// A stateful decrement engine for one peel of `g[alive]`, when the
    /// oracle can offer one cheaper than per-call [`Self::removal_decrements`]
    /// (the store-backed oracle can: O(memberships touched) per removal;
    /// so can the edge, star and diamond rules, by reusing scratch across
    /// removals). `None` keeps the caller on the streaming path.
    fn peeler<'a>(
        &'a self,
        g: &'a Graph,
        alive: &VertexSet,
    ) -> Option<Box<dyn InstancePeeler + 'a>> {
        let _ = (g, alive);
        None
    }

    /// Instance-store accounting, when this oracle materialized (or tried
    /// to materialize) one. `None` for pure streaming oracles and for a
    /// [`MaterializedOracle`] no query has touched yet.
    fn store_stats(&self) -> Option<StoreStats> {
        None
    }

    /// Cache-resident bytes this oracle currently holds (the materialized
    /// instance store, for the store-backed oracle; 0 for pure streaming
    /// oracles). This is the quantity a serving-layer byte governor
    /// counts: the oracle is a *droppable store handle* — releasing the
    /// engine's reference frees these bytes once in-flight requests
    /// holding their own `Arc` finish, and later requests rebuild.
    fn resident_bytes(&self) -> u64 {
        0
    }

    /// The materialized [`InstanceStore`] for `g`, when this oracle holds
    /// one — the factorised flow-construction input: exact solvers build
    /// their `DensityNetwork` straight from these columns
    /// (`dsd_core::flownet::build_store_network`) instead of
    /// re-enumerating instances. Materializes on first call for oracles
    /// that build lazily; `None` keeps the caller on the enumeration
    /// constructors (streaming oracles, or a build that fell back).
    fn store(&self, g: &Graph) -> Option<&InstanceStore> {
        let _ = g;
        None
    }

    /// Asks the oracle to carry its state across an edge batch instead of
    /// being dropped. `g_new` is the post-batch graph; `g_mid` is `g_new`
    /// minus the inserted edges (the caller passes `g_new` itself when
    /// nothing was inserted — only the general-pattern recount reads it);
    /// `inserted` / `removed` are the *net* edge changes.
    ///
    /// Default: [`SubstrateRepair::Keep`] — correct for every oracle that
    /// recomputes from the `g` argument of each query, which is all the
    /// streaming oracles. Oracles holding a graph-keyed materialization
    /// must override and return a repaired replacement, a fresh twin
    /// (nothing built yet), or request a rebuild (see
    /// [`MaterializedOracle`]).
    fn repair_for_update(
        &self,
        g_new: &Graph,
        g_mid: &Graph,
        inserted: &[(VertexId, VertexId)],
        removed: &[(VertexId, VertexId)],
    ) -> SubstrateRepair {
        let _ = (g_new, g_mid, inserted, removed);
        SubstrateRepair::Keep
    }
}

/// Outcome of [`DensityOracle::repair_for_update`].
pub enum SubstrateRepair {
    /// The oracle is valid as-is on the new graph (streaming oracles).
    Keep,
    /// A fresh unbuilt twin to cache in place of a store-backed oracle
    /// nothing has materialized yet. Keeping the old one would be unsound:
    /// a request still running on the pre-update snapshot may hold it and
    /// build its store against the old graph; swapping it out keeps that
    /// build private to the old `Arc`.
    Replaced(Arc<dyn DensityOracle>),
    /// A repaired replacement oracle, answer-identical to a cold rebuild
    /// on the new graph, plus the repair's instrumentation.
    Repaired(Arc<dyn DensityOracle>, StoreRepairStats),
    /// No sound cheap repair exists (prior streaming fallback whose
    /// verdict may flip, or the repair tripped the byte/capacity guards):
    /// drop the entry and rebuild lazily.
    Rebuild,
}

/// One peel run's decrement engine (see [`DensityOracle::peeler`]).
///
/// Not `Sync`: a peeler is owned by a single decomposition and mutates its
/// alive-count bookkeeping as vertices are removed.
///
/// **Contract: a vertex in no live instance may be dropped without
/// [`Self::remove`], and this changes no later decrement.** The
/// (k, Ψ)-core peel relies on it to skip every Ψ-isolated vertex. A
/// peeler's reported losses are exact instance counts over the vertices it
/// still holds, and it reports no zero loss. If `P` is a set of vertices
/// in no instance of the peeled subgraph `g[alive]`, and `L` is the set of
/// vertices not yet removed, then `g[L ∪ P]` has exactly the instances of
/// `g[L]`: an instance through a vertex of `P` would be one of `g[alive]`
/// too. So every later loss is the same with or without `P`, and no
/// vertex of `P` is ever reported. Per peeler:
///
/// * the store peeler keeps a per-row count of un-removed members, and a
///   row decrements only when it was live (all `|VΨ|` members present). A
///   row through a `P` vertex was never live, since its weight would give
///   that vertex a positive degree, so keeping its count one higher never
///   makes it live;
/// * the edge peeler reports each un-removed neighbour, and a `P` vertex
///   has no neighbour in `alive`;
/// * the star and diamond peelers evaluate the Appendix-D kernels over the
///   vertices they hold, with alive degrees or alive-only adjacency kept
///   consistent with that set, and their tallies drop zero amounts;
/// * the streaming adapter asks `removal_decrements` on its held set,
///   which enumerates instances (or live store rows) through the removed
///   vertex and so never meets a `P` vertex.
pub trait InstancePeeler {
    /// Initial degrees of the peeled subgraph (0 outside it).
    fn degrees(&self) -> Vec<u64>;

    /// Removes `v` (which must still be un-removed), invoking
    /// `sink(u, amount)` once per other surviving vertex `u` that loses
    /// `amount` instances, in ascending `u` order.
    fn remove(&mut self, v: VertexId, sink: &mut dyn FnMut(VertexId, u64));
}

/// Why a [`MaterializedOracle`] is answering from the streaming fallback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreFallback {
    /// The store would exceed the byte budget.
    Budget,
    /// The instance set overflows u32 indexing.
    Capacity,
    /// The closed form is cheaper than the store: diamonds with more
    /// 4-cycles than `Σ d(v)² / `[`DIAMOND_ROW_COST`].
    Cost,
}

/// Instance-store accounting surfaced through [`DensityOracle::store_stats`]
/// into `SolveStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Whether the store was materialized (`false` = streaming fallback).
    pub materialized: bool,
    /// Why materialization was refused, when it was.
    pub fallback: Option<StoreFallback>,
    /// The build's instrumentation — rows, memberships, bytes, wall time,
    /// shards (all zero on fallback).
    pub build: StoreBuildStats,
}

/// h-clique oracle backed by kClist re-enumeration (the streaming path).
///
/// Its bulk degree pass shards across `threads` workers (Section 6.3's
/// parallelizability remark); decrements stay sequential because peeling
/// is inherently ordered. Edge (h = 2) degrees and counts skip kClist and
/// read restricted degrees straight off the CSR.
pub struct CliqueOracle {
    h: usize,
    threads: usize,
}

impl CliqueOracle {
    /// Serial oracle for the h-clique, `h >= 2`.
    pub fn new(h: usize) -> Self {
        Self::with_parallelism(h, Parallelism::serial())
    }

    /// Oracle for the h-clique, `h >= 2`, whose degree passes shard
    /// across `parallelism`'s workers.
    pub fn with_parallelism(h: usize, parallelism: Parallelism) -> Self {
        assert!(h >= 2, "h-clique density needs h >= 2");
        CliqueOracle {
            h,
            threads: parallelism.threads(),
        }
    }
}

impl DensityOracle for CliqueOracle {
    fn psi_size(&self) -> usize {
        self.h
    }

    fn degrees(&self, g: &Graph, alive: &VertexSet) -> Vec<u64> {
        if self.h == 2 {
            return edge_degrees(g, alive);
        }
        dsd_motif::clique_degrees_parallel_within(g, self.h, alive, self.threads)
    }

    fn removal_decrements(
        &self,
        g: &Graph,
        alive: &VertexSet,
        v: VertexId,
    ) -> Vec<(VertexId, u64)> {
        if self.h == 2 {
            let mut out = Vec::new();
            edge_losses(g, alive, v, &mut |u, amount| out.push((u, amount)));
            return out;
        }
        let mut acc = std::collections::HashMap::new();
        kclist::for_each_clique_containing(g, self.h, v, alive, |others| {
            for &u in others {
                *acc.entry(u).or_insert(0u64) += 1;
            }
        });
        let mut out: Vec<(VertexId, u64)> = acc.into_iter().collect();
        out.sort_unstable();
        out
    }

    fn count(&self, g: &Graph, alive: &VertexSet) -> u64 {
        if self.h == 2 {
            // Σ restricted degree / 2: an edge is a 2-clique, so a kClist
            // pass would only build an out-CSR to count its rows.
            return edge_count_within(g, alive);
        }
        kclist::count_cliques_within(g, self.h, alive)
    }

    fn peeler<'a>(
        &'a self,
        g: &'a Graph,
        alive: &VertexSet,
    ) -> Option<Box<dyn InstancePeeler + 'a>> {
        (self.h == 2).then(|| {
            Box::new(EdgePeeler {
                g,
                alive: alive.clone(),
            }) as Box<dyn InstancePeeler + 'a>
        })
    }
}

/// Edge degrees in `g[alive]`: each alive vertex's restricted degree (0
/// outside `alive`).
fn edge_degrees(g: &Graph, alive: &VertexSet) -> Vec<u64> {
    let mut deg = vec![0u64; g.num_vertices()];
    for v in alive.iter() {
        deg[v as usize] = alive.restricted_degree(g, v) as u64;
    }
    deg
}

/// Edges of `g[alive]`: half the sum of alive vertices' restricted
/// degrees.
fn edge_count_within(g: &Graph, alive: &VertexSet) -> u64 {
    let twice: usize = alive.iter().map(|v| alive.restricted_degree(g, v)).sum();
    (twice / 2) as u64
}

/// The edge decrement rule: removing `v` costs each alive neighbour one
/// edge, reported in ascending order.
fn edge_losses(g: &Graph, alive: &VertexSet, v: VertexId, sink: &mut dyn FnMut(VertexId, u64)) {
    for &u in g.neighbors(v) {
        if alive.contains(u) {
            sink(u, 1);
        }
    }
}

/// Edge (h = 2) peel engine over [`edge_losses`].
struct EdgePeeler<'a> {
    g: &'a Graph,
    alive: VertexSet,
}

impl InstancePeeler for EdgePeeler<'_> {
    fn degrees(&self) -> Vec<u64> {
        edge_degrees(self.g, &self.alive)
    }

    fn remove(&mut self, v: VertexId, sink: &mut dyn FnMut(VertexId, u64)) {
        edge_losses(self.g, &self.alive, v, sink);
        self.alive.remove(v);
    }
}

/// x-star oracle using the Appendix-D closed forms.
pub struct StarOracle {
    x: usize,
}

impl StarOracle {
    /// Oracle for the x-star (hub plus `x` leaves).
    pub fn new(x: usize) -> Self {
        StarOracle { x }
    }
}

impl DensityOracle for StarOracle {
    fn psi_size(&self) -> usize {
        self.x + 1
    }

    fn degrees(&self, g: &Graph, alive: &VertexSet) -> Vec<u64> {
        special::star_degrees(g, self.x, alive)
    }

    fn removal_decrements(
        &self,
        g: &Graph,
        alive: &VertexSet,
        v: VertexId,
    ) -> Vec<(VertexId, u64)> {
        special::star_decrements(g, self.x, alive, v)
    }

    fn peeler<'a>(
        &'a self,
        g: &'a Graph,
        alive: &VertexSet,
    ) -> Option<Box<dyn InstancePeeler + 'a>> {
        Some(Box::new(special::StarPeel::new(g, self.x, alive)))
    }
}

impl InstancePeeler for special::StarPeel<'_> {
    fn degrees(&self) -> Vec<u64> {
        special::StarPeel::degrees(self)
    }

    fn remove(&mut self, v: VertexId, sink: &mut dyn FnMut(VertexId, u64)) {
        special::StarPeel::remove(self, v, sink)
    }
}

/// Diamond (4-cycle) oracle using the Appendix-D grouping: the streaming
/// fallback of the store-backed diamond oracle, which [`oracle_with_policy`]
/// hands out.
pub struct DiamondOracle;

impl DensityOracle for DiamondOracle {
    fn psi_size(&self) -> usize {
        4
    }

    fn degrees(&self, g: &Graph, alive: &VertexSet) -> Vec<u64> {
        special::diamond_degrees(g, alive)
    }

    fn removal_decrements(
        &self,
        g: &Graph,
        alive: &VertexSet,
        v: VertexId,
    ) -> Vec<(VertexId, u64)> {
        special::diamond_decrements(g, alive, v)
    }

    fn peeler<'a>(
        &'a self,
        g: &'a Graph,
        alive: &VertexSet,
    ) -> Option<Box<dyn InstancePeeler + 'a>> {
        Some(Box::new(special::DiamondPeel::new(g, alive)))
    }
}

impl InstancePeeler for special::DiamondPeel<'_> {
    fn degrees(&self) -> Vec<u64> {
        special::DiamondPeel::degrees(self)
    }

    fn remove(&mut self, v: VertexId, sink: &mut dyn FnMut(VertexId, u64)) {
        special::DiamondPeel::remove(self, v, sink)
    }
}

/// Generic pattern oracle via backtracking re-enumeration (the streaming
/// path; [`MaterializedOracle`] wraps it for the decomposition workload).
pub struct GenericPatternOracle {
    pattern: Pattern,
}

impl GenericPatternOracle {
    /// Streaming oracle for `psi`.
    pub fn new(psi: &Pattern) -> Self {
        GenericPatternOracle {
            pattern: psi.clone(),
        }
    }
}

impl DensityOracle for GenericPatternOracle {
    fn psi_size(&self) -> usize {
        self.pattern.vertex_count()
    }

    fn degrees(&self, g: &Graph, alive: &VertexSet) -> Vec<u64> {
        pattern_enum::pattern_degrees(g, &self.pattern, alive)
    }

    fn removal_decrements(
        &self,
        g: &Graph,
        alive: &VertexSet,
        v: VertexId,
    ) -> Vec<(VertexId, u64)> {
        let mut acc = std::collections::HashMap::new();
        pattern_enum::for_each_instance_containing(g, &self.pattern, v, alive, |image| {
            for &u in image {
                if u != v {
                    *acc.entry(u).or_insert(0u64) += 1;
                }
            }
        });
        let mut out: Vec<(VertexId, u64)> = acc.into_iter().collect();
        out.sort_unstable();
        out
    }

    fn count(&self, g: &Graph, alive: &VertexSet) -> u64 {
        pattern_enum::count_instances(g, &self.pattern, alive)
    }
}

/// The store-backed oracle: one enumeration pass into an [`InstanceStore`],
/// then every degree/count/decrement query — and the peel loops through
/// [`DensityOracle::peeler`] — is a columnar scan.
///
/// The materialization is keyed to the first graph it sees; using one
/// oracle value across different graphs is a bug (debug-asserted). The
/// store sits in a [`std::sync::OnceLock`], so concurrent first queries
/// from several threads still materialize exactly once. Builds that would
/// exceed the byte budget or `u32` indexing fall back to the wrapped
/// streaming oracle, recorded in [`StoreStats::fallback`].
pub struct MaterializedOracle {
    psi: Pattern,
    streaming: Box<dyn DensityOracle>,
    budget: Option<u64>,
    threads: usize,
    state: std::sync::OnceLock<StoreState>,
}

struct StoreState {
    /// Fingerprint of the graph the store was built for.
    fingerprint: (usize, usize),
    /// `None` when the build fell back to streaming.
    store: Option<InstanceStore>,
    /// A refused diamond store's walk: the whole graph's diamond degrees,
    /// which seed the closed-form peel.
    degrees: Option<Vec<u64>>,
    stats: StoreStats,
}

impl StoreState {
    /// The degrees a refused walk counted, when `alive` is the whole graph
    /// they were counted on.
    fn seeded(&self, alive: &VertexSet) -> Option<&[u64]> {
        self.degrees
            .as_deref()
            .filter(|degrees| alive.len() == degrees.len())
    }
}

impl MaterializedOracle {
    /// Store-backed oracle for `psi` with the default budget, building
    /// its store serially.
    pub fn new(psi: &Pattern) -> Self {
        Self::with_policy(psi, Parallelism::serial(), Some(DEFAULT_STORE_BUDGET))
    }

    /// Store-backed oracle with an explicit worker count (store builds
    /// and streaming clique degree passes shard across them) and byte
    /// budget (`None` = unlimited).
    pub fn with_policy(psi: &Pattern, parallelism: Parallelism, budget: Option<u64>) -> Self {
        MaterializedOracle {
            psi: psi.clone(),
            streaming: streaming_for(psi, parallelism),
            budget,
            threads: parallelism.threads(),
            state: std::sync::OnceLock::new(),
        }
    }

    fn state(&self, g: &Graph) -> &StoreState {
        let state = self.state.get_or_init(|| {
            let alive = VertexSet::full(g.num_vertices());
            // A refusal: why (no store error for the diamond cost rule),
            // and the degrees a refused diamond walk counted.
            let built = match self.psi.kind() {
                PatternKind::Clique(h) => {
                    InstanceStore::cliques(g, h, &alive, self.threads, self.budget)
                        .map_err(|e| (Some(e), None))
                }
                PatternKind::Diamond => {
                    let squares: u64 = g.vertices().map(|v| (g.degree(v) as u64).pow(2)).sum();
                    InstanceStore::four_cycles_within(
                        g,
                        &alive,
                        self.threads,
                        self.budget,
                        squares / DIAMOND_ROW_COST,
                    )
                    .map_err(|refusal| (refusal.error, Some(refusal.degrees)))
                }
                _ => InstanceStore::pattern(g, &self.psi, &alive, self.threads, self.budget)
                    .map_err(|e| (Some(e), None)),
            };
            let fingerprint = (g.num_vertices(), g.num_edges());
            match built {
                Ok((store, build)) => StoreState {
                    fingerprint,
                    store: Some(store),
                    degrees: None,
                    stats: StoreStats {
                        materialized: true,
                        fallback: None,
                        build,
                    },
                },
                Err((error, degrees)) => StoreState {
                    fingerprint,
                    store: None,
                    degrees,
                    stats: StoreStats {
                        materialized: false,
                        fallback: Some(match error {
                            Some(StoreError::BudgetExceeded { .. }) => StoreFallback::Budget,
                            Some(StoreError::CapacityExceeded { .. }) => StoreFallback::Capacity,
                            None => StoreFallback::Cost,
                        }),
                        build: StoreBuildStats::default(),
                    },
                },
            }
        });
        debug_assert_eq!(
            state.fingerprint,
            (g.num_vertices(), g.num_edges()),
            "MaterializedOracle reused across graphs"
        );
        state
    }

    /// A fresh, unbuilt oracle with this one's pattern and policy.
    fn twin(&self) -> MaterializedOracle {
        Self::with_policy(&self.psi, Parallelism::new(self.threads), self.budget)
    }

    /// A fresh oracle pre-seeded with a repaired store, keyed to the
    /// post-update graph's `fingerprint`. `stats` is the predecessor's
    /// accounting; the size columns are refreshed from the store.
    fn seeded_replacement(
        &self,
        fingerprint: (usize, usize),
        store: InstanceStore,
        mut stats: StoreStats,
    ) -> MaterializedOracle {
        stats.build.instances = store.total_instances();
        stats.build.rows = store.rows();
        stats.build.memberships = store.memberships();
        stats.build.bytes = store.bytes();
        let replacement = self.twin();
        let seeded = replacement.state.set(StoreState {
            fingerprint,
            store: Some(store),
            degrees: None,
            stats,
        });
        debug_assert!(seeded.is_ok(), "fresh OnceLock accepts the seed");
        replacement
    }
}

impl DensityOracle for MaterializedOracle {
    fn psi_size(&self) -> usize {
        self.psi.vertex_count()
    }

    fn degrees(&self, g: &Graph, alive: &VertexSet) -> Vec<u64> {
        let state = self.state(g);
        match (&state.store, state.seeded(alive)) {
            (Some(store), _) => store.degrees_within(alive),
            (None, Some(degrees)) => degrees.to_vec(),
            (None, None) => self.streaming.degrees(g, alive),
        }
    }

    fn removal_decrements(
        &self,
        g: &Graph,
        alive: &VertexSet,
        v: VertexId,
    ) -> Vec<(VertexId, u64)> {
        let store = match &self.state(g).store {
            Some(store) => store,
            None => return self.streaming.removal_decrements(g, alive, v),
        };
        let mut acc = std::collections::HashMap::new();
        for &row in store.incidence(v) {
            let row = row as usize;
            // The row is live iff it is not repair-tombstoned and all
            // members (v included) are alive; `v` itself is exempted so
            // callers that already removed it from the mask get the same
            // semantics.
            if !store.row_tombstoned(row)
                && store
                    .members(row)
                    .iter()
                    .all(|&u| u == v || alive.contains(u))
            {
                let w = store.weight(row);
                for &u in store.members(row) {
                    if u != v {
                        *acc.entry(u).or_insert(0u64) += w;
                    }
                }
            }
        }
        let mut out: Vec<(VertexId, u64)> = acc.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Counts from the store, except that counting part of the graph on an
    /// oracle nothing has built yet streams and builds nothing: one count
    /// of a subset, such as re-measuring an answer, costs less streamed
    /// than materializing the whole graph's instances.
    fn count(&self, g: &Graph, alive: &VertexSet) -> u64 {
        if self.state.get().is_none() && alive.len() < g.num_vertices() {
            return self.streaming.count(g, alive);
        }
        let state = self.state(g);
        match (&state.store, state.seeded(alive)) {
            (Some(store), _) => store.count_within(alive),
            (None, Some(degrees)) => degrees.iter().sum::<u64>() / self.psi_size() as u64,
            (None, None) => self.streaming.count(g, alive),
        }
    }

    /// The store's peeler; without a store, the streaming oracle's own,
    /// except that a refused diamond walk seeds the closed-form peel of
    /// the whole graph with the degrees it counted.
    fn peeler<'a>(
        &'a self,
        g: &'a Graph,
        alive: &VertexSet,
    ) -> Option<Box<dyn InstancePeeler + 'a>> {
        let state = self.state(g);
        match (&state.store, state.seeded(alive)) {
            (Some(store), _) => Some(Box::new(StorePeeler::new(store, alive))),
            (None, Some(degrees)) => Some(Box::new(special::DiamondPeel::with_degrees(
                g,
                alive,
                degrees.to_vec(),
            ))),
            (None, None) => self.streaming.peeler(g, alive),
        }
    }

    fn store_stats(&self) -> Option<StoreStats> {
        self.state.get().map(|s| s.stats)
    }

    fn resident_bytes(&self) -> u64 {
        self.state.get().map_or(0, |s| {
            let store = s.store.as_ref().map_or(0, InstanceStore::bytes);
            let degrees = s.degrees.as_ref().map_or(0, |d| 8 * d.len());
            (store + degrees) as u64
        })
    }

    fn store(&self, g: &Graph) -> Option<&InstanceStore> {
        self.state(g).store.as_ref()
    }

    fn repair_for_update(
        &self,
        g_new: &Graph,
        g_mid: &Graph,
        inserted: &[(VertexId, VertexId)],
        removed: &[(VertexId, VertexId)],
    ) -> SubstrateRepair {
        let Some(state) = self.state.get() else {
            // Nothing materialized yet: hand the cache a fresh twin, so a
            // build still running on the old snapshot stays private.
            return SubstrateRepair::Replaced(Arc::new(self.twin()));
        };
        let Some(store) = &state.store else {
            // A prior build fell back to streaming; the fallback verdict
            // may flip on the new graph, so re-decide from scratch.
            return SubstrateRepair::Rebuild;
        };
        let mut store = store.clone();
        let alive = VertexSet::full(g_new.num_vertices());
        let repaired = match self.psi.kind() {
            PatternKind::Clique(_) => {
                store.repair_cliques(g_new, inserted, removed, &alive, self.budget)
            }
            _ => store.repair_pattern(
                g_new,
                g_mid,
                &self.psi,
                inserted,
                removed,
                &alive,
                self.budget,
            ),
        };
        let repair = match repaired {
            Ok(r) => r,
            Err(_) => return SubstrateRepair::Rebuild,
        };
        let replacement = self.seeded_replacement(
            (g_new.num_vertices(), g_new.num_edges()),
            store,
            state.stats,
        );
        SubstrateRepair::Repaired(Arc::new(replacement), repair)
    }
}

/// The streaming fallback for `psi` (see [`oracle_with_policy`]).
fn streaming_for(psi: &Pattern, parallelism: Parallelism) -> Box<dyn DensityOracle> {
    match psi.kind() {
        PatternKind::Clique(h) => Box::new(CliqueOracle::with_parallelism(h, parallelism)),
        PatternKind::Star(x) => Box::new(StarOracle::new(x)),
        PatternKind::Diamond => Box::new(DiamondOracle),
        PatternKind::General => Box::new(GenericPatternOracle::new(psi)),
    }
}

/// Store-backed peel engine: alive-member counts per row make each removal
/// O(memberships of the dying rows) instead of a re-enumeration.
struct StorePeeler<'s> {
    store: &'s InstanceStore,
    /// Alive members per row; a row is live iff this equals `|VΨ|`.
    live_members: Vec<u32>,
    /// Dense decrement accumulator (`0` outside `touched`).
    scratch: Vec<u64>,
    touched: Vec<VertexId>,
}

impl<'s> StorePeeler<'s> {
    fn new(store: &'s InstanceStore, alive: &VertexSet) -> Self {
        let mut live_members = vec![0u32; store.rows()];
        for (row, counter) in live_members.iter_mut().enumerate() {
            // Repair-tombstoned rows stay at 0: never live (|VΨ| ≥ 2)
            // and skipped by `remove`, so the counter cannot underflow.
            if store.row_tombstoned(row) {
                continue;
            }
            *counter = store
                .members(row)
                .iter()
                .filter(|&&v| alive.contains(v))
                .count() as u32;
        }
        StorePeeler {
            store,
            live_members,
            scratch: vec![0u64; alive.universe()],
            touched: Vec::new(),
        }
    }
}

impl InstancePeeler for StorePeeler<'_> {
    fn degrees(&self) -> Vec<u64> {
        let psi = self.store.psi_size() as u32;
        let mut deg = vec![0u64; self.scratch.len()];
        for (row, &count) in self.live_members.iter().enumerate() {
            if count == psi {
                let w = self.store.weight(row);
                for &v in self.store.members(row) {
                    deg[v as usize] += w;
                }
            }
        }
        deg
    }

    fn remove(&mut self, v: VertexId, sink: &mut dyn FnMut(VertexId, u64)) {
        let psi = self.store.psi_size() as u32;
        for &row in self.store.incidence(v) {
            let row = row as usize;
            if self.store.row_tombstoned(row) {
                continue;
            }
            let count = &mut self.live_members[row];
            let was_live = *count == psi;
            *count -= 1;
            if was_live {
                let w = self.store.weight(row);
                for &u in self.store.members(row) {
                    if u != v {
                        if self.scratch[u as usize] == 0 {
                            self.touched.push(u);
                        }
                        self.scratch[u as usize] += w;
                    }
                }
            }
        }
        self.touched.sort_unstable();
        for &u in &self.touched {
            sink(u, self.scratch[u as usize]);
            self.scratch[u as usize] = 0;
        }
        self.touched.clear();
    }
}

/// Picks the cheapest sound oracle for `psi` with the default budget and
/// no parallelism.
pub fn oracle_for(psi: &Pattern) -> Box<dyn DensityOracle> {
    oracle_with_policy(psi, Parallelism::serial(), Some(DEFAULT_STORE_BUDGET))
}

/// The full oracle policy: h-cliques (h ≥ 3), diamonds and general
/// patterns materialize an [`InstanceStore`] capped at `budget` bytes
/// (`None` = unlimited, `Some(0)` = never materialize), falling back to
/// streaming when the store would not fit — diamonds also when the
/// closed form is cheaper ([`DIAMOND_ROW_COST`]); edges keep the direct
/// neighbour rule (the store would just duplicate the graph's own CSR)
/// and stars their closed forms. Store builds and streaming clique degree
/// passes shard across `parallelism`'s workers.
pub fn oracle_with_policy(
    psi: &Pattern,
    parallelism: Parallelism,
    budget: Option<u64>,
) -> Box<dyn DensityOracle> {
    match psi.kind() {
        PatternKind::Clique(3..) | PatternKind::Diamond | PatternKind::General => {
            Box::new(MaterializedOracle::with_policy(psi, parallelism, budget))
        }
        _ => streaming_for(psi, parallelism),
    }
}

/// Pattern-density `ρ(g[alive], Ψ) = μ / |alive|` (Definitions 4 and 10).
pub fn density(oracle: &dyn DensityOracle, g: &Graph, alive: &VertexSet) -> f64 {
    if alive.is_empty() {
        0.0
    } else {
        oracle.count(g, alive) as f64 / alive.len() as f64
    }
}

/// [`density`] of the subgraph induced by a member list.
pub(crate) fn member_density(oracle: &dyn DensityOracle, g: &Graph, members: &[VertexId]) -> f64 {
    density(
        oracle,
        g,
        &VertexSet::from_members(g.num_vertices(), members),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(g: &Graph) -> VertexSet {
        VertexSet::full(g.num_vertices())
    }

    fn wheel6() -> Graph {
        // Hub 0 + 6-cycle rim.
        Graph::from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (0, 6),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 1),
            ],
        )
    }

    #[test]
    fn oracle_dispatch_matches_generic_on_all_figure7_patterns() {
        let g = wheel6();
        let alive = full(&g);
        for p in Pattern::figure7() {
            let fast = oracle_for(&p);
            let generic = GenericPatternOracle::new(&p);
            assert_eq!(
                fast.degrees(&g, &alive),
                generic.degrees(&g, &alive),
                "degrees mismatch for {}",
                p.name()
            );
            assert_eq!(
                fast.count(&g, &alive),
                generic.count(&g, &alive),
                "count mismatch for {}",
                p.name()
            );
        }
    }

    #[test]
    fn edge_count_and_degrees_match_kclist_on_random_alive_sets() {
        let mut rng = dsd_graph::testing::XorShift::new(0xE6E5);
        let oracle = CliqueOracle::new(2);
        for _ in 0..64 {
            let percent = 5 + rng.next() % 50;
            let g = rng.random_graph(1, 40, percent);
            let mut alive = full(&g);
            for v in g.vertices() {
                if rng.next().is_multiple_of(3) {
                    alive.remove(v);
                }
            }
            for set in [full(&g), alive, VertexSet::empty(g.num_vertices())] {
                assert_eq!(
                    oracle.count(&g, &set),
                    kclist::count_cliques_within(&g, 2, &set)
                );
                assert_eq!(
                    oracle.degrees(&g, &set),
                    kclist::clique_degrees_within(&g, 2, &set)
                );
            }
        }
    }

    #[test]
    fn clique_oracle_decrements_match_instance_loss() {
        let g = wheel6();
        let oracle = CliqueOracle::new(3);
        let mut alive = full(&g);
        let before = oracle.degrees(&g, &alive);
        let dec = oracle.removal_decrements(&g, &alive, 0);
        alive.remove(0);
        let after = oracle.degrees(&g, &alive);
        for (v, amount) in dec {
            assert_eq!(before[v as usize] - after[v as usize], amount);
        }
    }

    #[test]
    fn generic_oracle_decrements_match_instance_loss() {
        let g = wheel6();
        let psi = Pattern::two_triangle();
        let oracle = oracle_for(&psi);
        let mut alive = full(&g);
        let before = oracle.degrees(&g, &alive);
        let dec = oracle.removal_decrements(&g, &alive, 0);
        alive.remove(0);
        let after = oracle.degrees(&g, &alive);
        let decmap: std::collections::HashMap<_, _> = dec.into_iter().collect();
        for v in alive.iter() {
            let expect = before[v as usize] - after[v as usize];
            assert_eq!(decmap.get(&v).copied().unwrap_or(0), expect, "v = {v}");
        }
    }

    /// `g` plus a pendant star whose hub's squared degree alone pays
    /// [`DIAMOND_ROW_COST`] for every 4-cycle of `g`, so the cost rule
    /// keeps the diamond store.
    fn diamond_store_graph(g: &Graph) -> Graph {
        let cycles = pattern_enum::count_instances(g, &Pattern::diamond(), &full(g));
        let leaves = ((DIAMOND_ROW_COST * cycles) as f64).sqrt().ceil() as usize;
        dsd_graph::testing::with_pendant_star(g, leaves)
    }

    #[test]
    fn materialized_oracle_matches_streaming_everywhere() {
        for p in Pattern::figure7() {
            // The wheel's Σ d² is too small for its 4-cycles under the
            // cost rule; a pendant star keeps the diamond store.
            let g = match p.kind() {
                PatternKind::Diamond => diamond_store_graph(&wheel6()),
                _ => wheel6(),
            };
            let mat = MaterializedOracle::new(&p);
            let stream = GenericPatternOracle::new(&p);
            let mut alive = full(&g);
            assert_eq!(
                mat.degrees(&g, &alive),
                stream.degrees(&g, &alive),
                "{}",
                p.name()
            );
            assert_eq!(
                mat.count(&g, &alive),
                stream.count(&g, &alive),
                "{}",
                p.name()
            );
            let stats = mat.store_stats().expect("store was consulted");
            assert!(stats.materialized, "{}", p.name());
            // After removals too.
            for victim in [0u32, 3] {
                assert_eq!(
                    mat.removal_decrements(&g, &alive, victim),
                    stream.removal_decrements(&g, &alive, victim),
                    "{} victim {victim}",
                    p.name()
                );
                alive.remove(victim);
                assert_eq!(
                    mat.degrees(&g, &alive),
                    stream.degrees(&g, &alive),
                    "{} after removing {victim}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn materialized_clique_oracle_matches_kclist() {
        let g = wheel6();
        for h in [3usize, 4] {
            let psi = Pattern::clique(h);
            let mat = MaterializedOracle::new(&psi);
            let stream = CliqueOracle::new(h);
            let mut alive = full(&g);
            assert_eq!(mat.degrees(&g, &alive), stream.degrees(&g, &alive));
            assert_eq!(mat.count(&g, &alive), stream.count(&g, &alive));
            assert_eq!(
                mat.removal_decrements(&g, &alive, 0),
                stream.removal_decrements(&g, &alive, 0)
            );
            alive.remove(0);
            assert_eq!(mat.degrees(&g, &alive), stream.degrees(&g, &alive));
        }
    }

    #[test]
    fn budget_fallback_still_answers_and_reports() {
        let g = wheel6();
        let psi = Pattern::triangle();
        let capped = MaterializedOracle::with_policy(&psi, Parallelism::serial(), Some(0));
        let stream = CliqueOracle::new(3);
        let alive = full(&g);
        assert_eq!(capped.degrees(&g, &alive), stream.degrees(&g, &alive));
        assert_eq!(capped.count(&g, &alive), stream.count(&g, &alive));
        let stats = capped.store_stats().unwrap();
        assert!(!stats.materialized);
        assert_eq!(stats.fallback, Some(StoreFallback::Budget));
        assert_eq!(stats.build.bytes, 0);
        assert!(
            capped.peeler(&g, &alive).is_none(),
            "fallback oracle offers no store peeler"
        );
    }

    #[test]
    fn peeler_decrements_match_stateless_decrements() {
        // Every oracle that offers a peeler, peeled to exhaustion in a
        // scrambled order: each removal's decrements equal the stateless
        // `removal_decrements` on the same alive set.
        let g = wheel6();
        let n = g.num_vertices() as VertexId;
        let oracles: Vec<(&str, Box<dyn DensityOracle>)> = vec![
            (
                "triangle store",
                Box::new(MaterializedOracle::new(&Pattern::triangle())),
            ),
            ("edge", Box::new(CliqueOracle::new(2))),
            (
                "edge parallel",
                Box::new(CliqueOracle::with_parallelism(2, Parallelism::new(2))),
            ),
            ("2-star", Box::new(StarOracle::new(2))),
            ("3-star", Box::new(StarOracle::new(3))),
            ("diamond", Box::new(DiamondOracle)),
        ];
        for (name, oracle) in &oracles {
            let mut alive = full(&g);
            let mut peeler = oracle.peeler(&g, &alive).expect("oracle offers a peeler");
            assert_eq!(peeler.degrees(), oracle.degrees(&g, &alive), "{name}");
            for victim in (0..n).map(|i| (i * 3 + 1) % n) {
                let expect = oracle.removal_decrements(&g, &alive, victim);
                let mut got: Vec<(VertexId, u64)> = Vec::new();
                peeler.remove(victim, &mut |u, amount| got.push((u, amount)));
                assert_eq!(got, expect, "{name}, victim {victim}");
                alive.remove(victim);
            }
            assert!(alive.is_empty());
        }
        // Streaming clique (h ≥ 3) and general-pattern oracles stay on the
        // re-enumeration path.
        assert!(CliqueOracle::new(3).peeler(&g, &full(&g)).is_none());
        assert!(GenericPatternOracle::new(&Pattern::c3_star())
            .peeler(&g, &full(&g))
            .is_none());
    }

    /// Both sides of the diamond cost rule: a graph whose Σ d² pays for
    /// its 4-cycles keeps the store, a dense one falls back to the closed
    /// form seeded with the walk's degrees, and each decomposition — of
    /// the whole graph and of a random `alive` set — equals the closed
    /// form's field by field, at 1 and 2 workers.
    #[test]
    fn diamond_cost_rule_keeps_or_refuses_the_store() {
        let mut rng = dsd_graph::testing::XorShift::new(0xD1A3);
        let psi = Pattern::diamond();
        let (mut kept, mut refused) = (0, 0);
        for round in 0..8 {
            let percent = 20 + rng.next() % 20;
            let dense = rng.random_graph(30, 60, percent);
            let g = match round % 2 {
                0 => diamond_store_graph(&dense),
                _ => dense,
            };
            let squares: u64 = g.vertices().map(|v| (g.degree(v) as u64).pow(2)).sum();
            let cycles = pattern_enum::count_instances(&g, &psi, &full(&g));
            let mut subset = full(&g);
            for v in g.vertices() {
                if rng.next() % 10 < 3 {
                    subset.remove(v);
                }
            }
            for threads in [1, 2] {
                let oracle = oracle_with_policy(&psi, Parallelism::new(threads), None);
                for alive in [full(&g), subset.clone()] {
                    let ctx = format!("round {round}, threads {threads}, |alive| {}", alive.len());
                    let got = crate::clique_core::decompose_within(&g, oracle.as_ref(), &alive);
                    let want = crate::clique_core::decompose_within(&g, &DiamondOracle, &alive);
                    assert_eq!(got.core, want.core, "{ctx}");
                    assert_eq!(got.kmax, want.kmax, "{ctx}");
                    assert_eq!(got.peel_order, want.peel_order, "{ctx}");
                    assert_eq!(got.mu, want.mu, "{ctx}");
                    assert_eq!(got.residual_mu, want.residual_mu, "{ctx}");
                    assert_eq!(got.best_density.to_bits(), want.best_density.to_bits());
                    assert_eq!(got.best_residual(), want.best_residual(), "{ctx}");
                    for k in [1, alive.len() / 2, alive.len()] {
                        let bits = |d: &crate::CliqueCoreDecomposition| {
                            d.densest_suffix(k).map(|(i, rho)| (i, rho.to_bits()))
                        };
                        assert_eq!(bits(&got), bits(&want), "{ctx}, k = {k}");
                    }
                    assert_eq!(oracle.count(&g, &alive), DiamondOracle.count(&g, &alive));
                }
                let stats = oracle
                    .store_stats()
                    .expect("the diamond oracle tried a store");
                if cycles <= squares / DIAMOND_ROW_COST {
                    assert!(stats.materialized, "round {round}");
                    assert_eq!(stats.build.instances, cycles);
                    kept += 1;
                } else {
                    assert!(!stats.materialized, "round {round}");
                    assert_eq!(stats.fallback, Some(StoreFallback::Cost));
                    assert!(oracle.store(&g).is_none());
                    refused += 1;
                }
            }
        }
        assert!(kept >= 4 && refused >= 4, "kept {kept}, refused {refused}");
    }

    /// Counting part of the graph on an unbuilt oracle streams and builds
    /// nothing; a whole-graph count builds the store, and later subset
    /// counts read it.
    #[test]
    fn a_subset_count_builds_no_store() {
        let g = wheel6();
        let rim = VertexSet::from_members(7, &[1, 2, 3, 4, 5, 6]);
        for p in [
            Pattern::triangle(),
            Pattern::diamond(),
            Pattern::two_triangle(),
        ] {
            let mat = MaterializedOracle::new(&p);
            let stream = GenericPatternOracle::new(&p);
            assert_eq!(mat.count(&g, &rim), stream.count(&g, &rim), "{}", p.name());
            assert!(mat.store_stats().is_none(), "{}: nothing built", p.name());
            assert_eq!(mat.count(&g, &full(&g)), stream.count(&g, &full(&g)));
            assert!(mat.store_stats().is_some(), "{}: built", p.name());
            assert_eq!(mat.count(&g, &rim), stream.count(&g, &rim), "{}", p.name());
        }
    }

    #[test]
    fn materialized_oracle_full_decomposition_matches() {
        let g = wheel6();
        let psi = Pattern::two_triangle();
        let mat = MaterializedOracle::new(&psi);
        let stream = GenericPatternOracle::new(&psi);
        let a = crate::clique_core::decompose(&g, &mat);
        let b = crate::clique_core::decompose(&g, &stream);
        assert_eq!(a.core, b.core);
        assert_eq!(a.kmax, b.kmax);
        assert!((a.best_density - b.best_density).abs() < 1e-12);
    }

    #[test]
    fn density_of_triangle_cds_figure_1a() {
        // S2 from Figure 1(a): 4 vertices, two triangles -> ρ = 2/4.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)]);
        let oracle = oracle_for(&Pattern::triangle());
        assert!((density(oracle.as_ref(), &g, &full(&g)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn density_of_empty_set_is_zero() {
        let g = wheel6();
        let oracle = oracle_for(&Pattern::edge());
        assert_eq!(density(oracle.as_ref(), &g, &VertexSet::empty(7)), 0.0);
    }
}
