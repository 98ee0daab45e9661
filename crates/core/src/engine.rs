//! `DsdEngine`: a long-lived, cache-reusing query engine over one graph.
//!
//! The paper frames CDS/PDS discovery as a *query workload*: the same graph
//! is probed repeatedly with different patterns Ψ, objectives, and methods.
//! Every algorithm in this crate leans on two expensive substrates:
//!
//! * the **density oracle** for Ψ (which for general patterns materializes
//!   the full instance list once — Algorithm 7's `construct+` precondition);
//! * the **(k, Ψ)-core decomposition** (Algorithm 3) — the dominant cost of
//!   `CoreExact`, `PeelApp`, `IncApp`, DalkS and DamkS alike. The edge
//!   key's decomposition holds the classical core numbers, which the γ
//!   bounds of `CoreApp` (Algorithm 6) and the Section-6.3 query variant's
//!   locator read.
//!
//! The engine owns the graph and memoizes both, keyed by Ψ's canonical
//! form (isomorphic patterns share one entry), plus the solved flow
//! networks of the exact searches and the located regions that lead to
//! them (CoreExact's located core per residual vertex set, the query
//! variant's anchored core per Q), so a request workload pays each
//! substrate, and each locate step, once per graph epoch instead of once
//! per call.
//!
//! Every request runs through one skeleton, [`DsdEngine::solve`]: it opens
//! a [`Substrates`] context over the caches, dispatches on
//! `(Objective, Method)` to the algorithm's single entry point on that
//! context, and builds the [`Solution`] envelope (flow counters, store
//! accounting, kmax, the guarantee) in one
//! place. The paper-named free functions (`core_exact(g, psi)` & co.) run
//! the same entry points on a cold context with no engine at all;
//! [`crate::densest_subgraph`] is the one free function that goes through
//! a throwaway engine.
//!
//! The engine is `Send + Sync`. Each graph version is one immutable
//! *epoch*, published behind an [`Arc`]: a request clones the current
//! epoch once and reads and builds only inside it. An epoch gives each Ψ
//! key one slot whose oracle and decomposition are build-once cells, so N
//! threads warming the same Ψ pay exactly one decomposition build (the
//! losers wait on that key's cell, then read it as a hit), while requests
//! for other keys never wait on it. Share an engine across threads with
//! [`std::sync::Arc`] or scoped borrows; for serving many named graphs
//! from one process, see [`crate::serve::DsdServer`].
//!
//! The graph is **not** frozen: [`DsdEngine::apply`] takes a batch of
//! [`GraphUpdate`]s and advances the *graph epoch*. It stages the next
//! epoch off to the side and publishes it with one pointer swap, so a
//! panic before the swap publishes nothing. The new epoch starts with the
//! Ψ-oracles and the flow networks the batch left valid: each instance
//! store is repaired in place through its incidence CSR when the batch
//! merges into the CSR — at once, or at the next snapshot when it follows
//! an unread batch — falling back to drop-and-rebuild where no sound
//! cheap repair exists. A pooled network over members M carries over,
//! reset to a fresh build, when no changed edge has both endpoints in M
//! and its Ψ's oracle was kept or repaired in place: it reads only
//! `G[M]`, so it equals a rebuild on the new graph. (k, Ψ)-core
//! decompositions, located-region records and every other network rebuild
//! lazily on their next read. Every request runs against a consistent
//! [`GraphSnapshot`] and records its epoch in [`SolveStats::epoch`];
//! requests in flight during an update finish on the epoch they hold, and
//! whatever they build or borrow dies with it.
//!
//! ```
//! use dsd_core::engine::{DsdEngine, Objective};
//! use dsd_core::Method;
//! use dsd_graph::Graph;
//! use dsd_motif::Pattern;
//!
//! let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
//! let engine = DsdEngine::new(g);
//! let psi = Pattern::triangle();
//!
//! // First request builds the (k, Ψ)-core decomposition...
//! let cds = engine.request(&psi).method(Method::CoreExact).solve();
//! assert_eq!(cds.vertices, vec![0, 1, 2, 3]);
//!
//! // ...which every later request with the same Ψ reuses.
//! let top2 = engine.request(&psi).objective(Objective::TopK(2)).solve();
//! assert!(top2.stats.substrate.decomposition_cache_hit);
//! ```

use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Instant;

use dsd_graph::{DeltaGraph, EdgeOverlay, Graph, GraphUpdate, VertexId};
use dsd_motif::Pattern;

use crate::alpha_search::ExactStats;
use crate::clique_core::{decompose, CliqueCoreDecomposition};
use crate::core_exact::CoreExactConfig;
use crate::exact::ExactOpts;
use crate::flownet::{DensityNetwork, Fnv, Located, NetworkLender, RegionKey};
use crate::oracle::{
    oracle_with_policy, DensityOracle, StoreStats, SubstrateRepair, DEFAULT_STORE_BUDGET,
};
use crate::parallelism::Parallelism;
use crate::size_constrained::SizeConstrainedOutcome;
use crate::substrates::{SubstrateSource, Substrates};
use crate::types::DsdResult;
use crate::Method;

/// What a request asks for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Objective {
    /// The densest subgraph (the paper's CDS/PDS problem).
    Densest,
    /// Up to `k` vertex-disjoint densest subgraphs, densest first.
    TopK(usize),
    /// Densest subgraph with at least `k` vertices (DalkS).
    AtLeastK(usize),
    /// Densest subgraph with at most `k` vertices (DamkS, heuristic).
    AtMostK(usize),
    /// Densest edge-density subgraph containing every listed vertex
    /// (Section 6.3's query variant; Ψ is ignored — the variant is
    /// defined for edge density).
    WithQuery(Vec<VertexId>),
}

/// How a request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A non-empty subgraph was found.
    Found,
    /// The request was valid but the graph has no Ψ instance (density 0).
    Empty,
    /// The request itself was unsatisfiable (out-of-range query vertices,
    /// `k = 0`, `k` above the vertex count, ...).
    Invalid,
}

/// The quality certificate attached to a [`Solution`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Guarantee {
    /// Certified optimal for the requested objective.
    Exact,
    /// Density within the given multiplicative factor of optimal
    /// (`1/|VΨ|` for the core approximations, `1/3` for DalkS on edges).
    Ratio(f64),
    /// Binary search stopped at the requested α tolerance: the density is
    /// within this additive gap of optimal.
    AdditiveGap(f64),
    /// No guarantee (DamkS, or a step budget cut the search short).
    Heuristic,
}

/// Which substrates a request reused vs built.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubstrateUse {
    /// The Ψ density oracle came out of the engine cache.
    pub oracle_cache_hit: bool,
    /// The (k, Ψ)-core decomposition came out of the engine cache
    /// (`false` also when the method never needed it).
    pub decomposition_cache_hit: bool,
    /// A located-region record answered the request's locate step, so it
    /// may have read no substrate at all (a repeat of the query variant):
    /// the serve governor counts this, like an oracle hit, as a hit.
    pub(crate) located_hit: bool,
}

/// Always-populated instrumentation carried by every [`Solution`].
#[derive(Clone, Debug, Default)]
pub struct SolveStats {
    /// Total wall time of the request.
    pub total_nanos: u128,
    /// Wall time this request spent building the (k, Ψ)-core
    /// decomposition (0 on a cache hit).
    pub decomposition_nanos: u128,
    /// Min-cut probes performed. Populated for every α-search-backed
    /// path — `Densest` via Exact/CoreExact, top-k, the query variant,
    /// and the size-constrained exact attempts; 0 for the probe-free
    /// peel/core methods.
    pub flow_iterations: usize,
    /// Flow-network node count at each probe (the Figure-9 series).
    pub network_nodes: Vec<usize>,
    /// Probes served warm by parametric resolve (flow-state reuse across
    /// the α-search) instead of a from-scratch max-flow.
    pub flow_resolve_hits: usize,
    /// Total augmenting work (edge scans) inside the flow solvers.
    pub flow_augment_work: u64,
    /// kmax of the (k, Ψ)-core decomposition, when one was consulted.
    pub kmax: Option<u64>,
    /// Substrate cache accounting.
    pub substrate: SubstrateUse,
    /// Instance-store accounting for the request's Ψ-oracle: rows, bytes,
    /// build time, and whether materialization fell back to streaming
    /// (for diamonds also by the cost rule,
    /// [`crate::oracle::StoreFallback::Cost`]). `None` when the request
    /// never consulted a store-capable oracle (stars, edges, the query
    /// variant).
    pub store: Option<StoreStats>,
    /// Graph epoch this request was answered against: 0 for a graph that
    /// has never been updated, bumped by every effective
    /// [`DsdEngine::apply`] batch. Requests in flight during an update
    /// keep their pre-update snapshot (and report its epoch here).
    pub epoch: u64,
}

/// The one result shape every objective/method path returns.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Sorted member vertices of the (best) reported subgraph.
    pub vertices: Vec<VertexId>,
    /// Ψ-density of the (best) reported subgraph.
    pub density: f64,
    /// Every reported subgraph: one entry for scalar objectives, up to `k`
    /// for [`Objective::TopK`], empty when nothing was found.
    pub subgraphs: Vec<DsdResult>,
    /// The method that actually ran (never [`Method::Auto`]).
    pub method: Method,
    /// The objective the request asked for.
    pub objective: Objective,
    /// How the request ended.
    pub outcome: Outcome,
    /// The quality certificate for `density`.
    pub guarantee: Guarantee,
    /// Instrumentation (always populated).
    pub stats: SolveStats,
}

impl Solution {
    /// The best subgraph as the legacy [`DsdResult`] shape.
    pub fn to_result(&self) -> DsdResult {
        DsdResult {
            vertices: self.vertices.clone(),
            density: self.density,
        }
    }

    /// Number of member vertices of the best subgraph.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether no subgraph was found.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// Cumulative substrate-cache counters for one engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCacheStats {
    /// Ψ-oracle cache hits / builds.
    pub oracle_hits: usize,
    /// Ψ-oracle cold builds.
    pub oracle_builds: usize,
    /// (k, Ψ)-core decomposition cache hits.
    pub decomposition_hits: usize,
    /// (k, Ψ)-core decomposition cold builds.
    pub decomposition_builds: usize,
    /// Flow networks served warm from the network cache (the α-search
    /// skipped construction entirely and only paid the parametric
    /// resolve).
    pub network_hits: usize,
    /// Flow-network cache misses: the solve built (or store-sliced) a
    /// fresh network. Every miss on a cacheable path later `put`s the
    /// network back, so misses bound the cache's entry churn.
    pub network_misses: usize,
    /// Located-region records served from the network cache: a CoreExact
    /// round or a query that skipped its locate step (the residual peel,
    /// the Q-pinned peel and the component scans) and went straight to
    /// the α-search.
    pub located_hits: usize,
    /// Located-region records computed and kept for the next request.
    pub located_misses: usize,
}

/// Cache key for a pattern: vertex count + the canonical edge list under
/// vertex relabeling ([`Pattern::canonical_edges`]), so isomorphic
/// patterns with different labelings share one cached substrate. This is
/// also the unit the serving layer's substrate governor evicts: one
/// `(engine, PatternKey)` pair names one evictable cache slot.
pub type PatternKey = (usize, Vec<(u8, u8)>);

/// The canonical [`PatternKey`] for Ψ.
pub fn pattern_key(psi: &Pattern) -> PatternKey {
    (psi.vertex_count(), psi.canonical_edges())
}

/// Base ceiling on the weighted repair cost of the net edge change a CSR
/// merge carries the cached Ψ-stores across: past it, they drop for a
/// lazy rebuild instead of being repaired in place.
const REPAIR_MAX_BATCH: usize = 512;

/// Weight of one inserted edge relative to one deleted edge in that cost:
/// inserts delta-enumerate new instances, deletes only walk incidence.
const REPAIR_INSERT_WEIGHT: usize = 2;

/// Whether a net change of `inserted` + `deleted` edges is cheap enough
/// to repair the cached stores in place. The ceiling grows by one
/// [`REPAIR_MAX_BATCH`] per 32 MiB of `resident` store bytes, capped at
/// 16x: the rebuild a repair avoids grows with the store.
fn repairable_batch(inserted: usize, deleted: usize, resident: u64) -> bool {
    let cost = inserted
        .saturating_mul(REPAIR_INSERT_WEIGHT)
        .saturating_add(deleted);
    let steps = (resident / (32 << 20)).min(15) as usize;
    cost <= REPAIR_MAX_BATCH * (steps + 1)
}

/// Process-unique engine ids, so the serve-layer governor can key its
/// LRU stamps and pins without holding engine references.
static ENGINE_IDS: AtomicU64 = AtomicU64::new(1);
static LENDER_IDS: AtomicU64 = AtomicU64::new(1);

/// `(substrate, cache_hit)` pair.
type Cached<T> = (T, bool);

/// What one Ψ key carries from one epoch into the next: its oracle, when
/// built, and the pooled networks the update left valid, each reset to a
/// fresh build and filed under its fingerprint.
struct Carry {
    key: PatternKey,
    oracle: Option<Arc<dyn DensityOracle>>,
    networks: Vec<(u64, Pooled)>,
}

impl Carry {
    /// Resident bytes of the carried networks.
    fn network_bytes(&self) -> u64 {
        self.networks.iter().map(|(_, net)| net.bytes as u64).sum()
    }
}

/// One graph version and everything derived from it. A request clones
/// the engine's current `Arc<Epoch>` once and reads and builds only in
/// it, so it never mixes substrates across versions, and what it builds
/// after an update dies with the version it holds.
struct Epoch<'g> {
    /// Effective batches applied before this version.
    number: u64,
    graph: GraphSlot<'g>,
    /// `false` while batches of this epoch still sit in the writer's
    /// overlay: `graph` is then the last merged CSR, and the next snapshot
    /// merges them and publishes the servable twin (see
    /// [`DsdEngine::merge`]). Requests only ever run on merged epochs.
    merged: bool,
    /// Set by the first snapshot handed out. A batch applied to an unread
    /// epoch joins the overlay instead of merging.
    read: AtomicBool,
    /// One slot per Ψ key; an eviction removes a slot whole.
    slots: RwLock<HashMap<PatternKey, Arc<KeySlot>>>,
}

impl<'g> Epoch<'g> {
    /// A fresh, unread epoch whose slots hold only what is `carried`.
    fn new(number: u64, graph: GraphSlot<'g>, merged: bool, carried: Vec<Carry>) -> Self {
        Epoch {
            number,
            graph,
            merged,
            read: AtomicBool::new(false),
            slots: RwLock::new(carrying(carried)),
        }
    }

    /// The slot for `key`, created empty on first use.
    fn slot(&self, key: &PatternKey) -> Arc<KeySlot> {
        if let Some(slot) = self.slots.read().unwrap().get(key) {
            return Arc::clone(slot);
        }
        Arc::clone(self.slots.write().unwrap().entry(key.clone()).or_default())
    }

    /// `bytes` summed over every slot.
    fn sum(&self, bytes: fn(&KeySlot) -> u64) -> u64 {
        self.slots
            .read()
            .unwrap()
            .values()
            .map(|slot| bytes(slot))
            .sum()
    }

    /// Swaps every slot for one holding only its oracle and returns the
    /// replaced slots, networks and all: a request still running on this
    /// epoch builds afresh from here on, and nothing it builds or returns
    /// reaches the next epoch.
    fn strip(&self) -> HashMap<PatternKey, Arc<KeySlot>> {
        let mut slots = self.slots.write().unwrap();
        let oracles = slots
            .iter()
            .filter_map(|(key, slot)| {
                Some(Carry {
                    key: key.clone(),
                    oracle: Some(Arc::clone(slot.oracle.get()?)),
                    networks: Vec::new(),
                })
            })
            .collect();
        std::mem::replace(&mut *slots, carrying(oracles))
    }
}

/// Fresh slots holding only what is `carried`.
fn carrying(carried: Vec<Carry>) -> HashMap<PatternKey, Arc<KeySlot>> {
    carried
        .into_iter()
        .map(|carry| {
            let mut slot = KeySlot::default();
            if let Some(oracle) = carry.oracle {
                let _ = slot.oracle.set(oracle);
            }
            slot.pool.get_mut().unwrap().entries.extend(carry.networks);
            (carry.key, Arc::new(slot))
        })
        .collect()
}

/// What `slots` carry into an epoch after the net edge changes `toggled`:
/// each key's oracle, when built, and the pooled networks `toggled` leaves
/// untouched, moved out of the pools and reset to fresh builds. Every
/// other network drops here; a key left with neither is skipped.
fn carried(
    slots: &HashMap<PatternKey, Arc<KeySlot>>,
    toggled: &[(VertexId, VertexId)],
) -> Vec<Carry> {
    slots
        .iter()
        .filter_map(|(key, slot)| {
            let oracle = slot.oracle.get().cloned();
            let mut pool = slot.pool.lock().unwrap();
            let networks: Vec<(u64, Pooled)> = pool
                .entries
                .drain()
                .filter(|(_, net)| net.untouched_by(toggled))
                .map(|(print, net)| (print, net.reset()))
                .collect();
            drop(pool);
            (oracle.is_some() || !networks.is_empty()).then(|| Carry {
                key: key.clone(),
                oracle,
                networks,
            })
        })
        .collect()
}

/// What one Ψ key derives from one epoch's graph: the density oracle and
/// the (k, Ψ)-core decomposition, each built once, and the network pool.
#[derive(Default)]
struct KeySlot {
    oracle: OnceLock<Arc<dyn DensityOracle>>,
    decomposition: OnceLock<Arc<CliqueCoreDecomposition>>,
    pool: Mutex<Pool>,
    /// Signalled whenever a lent network key is released.
    returned: Condvar,
}

impl KeySlot {
    /// Resident bytes of the cached networks and records.
    fn network_bytes(&self) -> u64 {
        let pool = self.pool.lock().unwrap();
        let networks = pool.entries.values().map(|net| net.bytes as u64);
        networks
            .chain(pool.records.values().map(|kept| kept.bytes as u64))
            .sum()
    }

    /// Resident bytes of what an epoch bump drops or resets: the
    /// decomposition arrays, networks and records.
    fn derived_bytes(&self) -> u64 {
        let dec = self.decomposition.get().map_or(0, |d| d.bytes() as u64);
        dec + self.network_bytes()
    }

    /// Resident bytes of the slot: the instance store (via
    /// [`DensityOracle::resident_bytes`]) plus [`Self::derived_bytes`].
    fn bytes(&self) -> u64 {
        self.oracle.get().map_or(0, |o| o.resident_bytes()) + self.derived_bytes()
    }
}

/// One key's solved [`DensityNetwork`]s — the third substrate tier, below
/// the oracle and decomposition: repeat exact/top-k/query requests on an
/// unchanged graph borrow a warm network (flow state and all) and pay
/// only the parametric resolve, never re-constructing from instances.
/// Networks are filed under their member/pinned-set fingerprint, with the
/// sets themselves beside them, so the full-graph network, each
/// located-core component, and each Q-anchored query network get their
/// own entry, and a fingerprint collision reads as a miss. An entry is
/// *removed* while lent, and a concurrent request on a lent key waits for
/// it to come back rather than building a duplicate: the duplicate cost a
/// full network build and, once the two `put`s raced, was dropped again.
///
/// A pool belongs to one epoch, but its networks need not die with it:
/// `apply` carries each one whose members hold no changed edge into the
/// next epoch's pool, reset to a fresh build (see [`DsdEngine::apply`]).
/// A network lent out at that moment returns to the old pool and dies
/// with it.
///
/// Beside the networks it keeps the located-region records that lead to
/// them ([`Located`]): CoreExact's located core per (removed set,
/// Pruning1/2) and the query variant's anchored core per (Q), each with
/// its key, so a fingerprint collision reads as a miss here too. A
/// record is shared, never lent. Records are charged and evicted like
/// the networks, with their Ψ key, and every effective update drops them.
#[derive(Default)]
struct Pool {
    /// Lent-out-able networks by fingerprint.
    entries: HashMap<u64, Pooled>,
    /// Fingerprints lent out (or being built), with the id of the
    /// [`EngineLender`] that holds each.
    lent: HashMap<u64, u64>,
    /// Located-region records by region fingerprint.
    records: HashMap<u64, Kept>,
}

impl Pool {
    /// Files `net`, built over `members` and `pinned`, under `print`.
    fn insert(
        &mut self,
        print: u64,
        members: &[VertexId],
        pinned: &[VertexId],
        net: DensityNetwork,
    ) {
        let pooled = Pooled::new(members.to_vec(), pinned.to_vec(), net);
        self.entries.insert(print, pooled);
    }

    /// Removes the network filed under `print` for exactly `members` and
    /// `pinned`. Another pair filed under the same print — a fingerprint
    /// collision — stays where it is, and the lookup is a miss.
    fn remove(&mut self, print: u64, members: &[VertexId], pinned: &[VertexId]) -> Option<Pooled> {
        let entry = self.entries.get(&print)?;
        if entry.members != members || entry.pinned != pinned {
            return None;
        }
        self.entries.remove(&print)
    }
}

/// A pooled network with the member and pinned sets it was built over.
struct Pooled {
    /// Ascending, like `pinned`.
    members: Vec<VertexId>,
    pinned: Vec<VertexId>,
    net: DensityNetwork,
    /// Footprint of the network and its key sets, recorded at insert time
    /// so the slot's byte count stays stable while the network sits
    /// untouched in the pool.
    bytes: usize,
}

impl Pooled {
    fn new(members: Vec<VertexId>, pinned: Vec<VertexId>, net: DensityNetwork) -> Self {
        let keys = (members.len() + pinned.len()) * std::mem::size_of::<VertexId>();
        Pooled {
            bytes: net.bytes() + keys,
            members,
            pinned,
            net,
        }
    }

    /// Whether no edge of `toggled` has both endpoints among the members:
    /// the network reads only the subgraph they induce, so it is then
    /// still valid.
    fn untouched_by(&self, toggled: &[(VertexId, VertexId)]) -> bool {
        let member = |v: VertexId| self.members.binary_search(&v).is_ok();
        !toggled.iter().any(|&(u, v)| member(u) && member(v))
    }

    /// The same network, reset to the state of a fresh build.
    fn reset(self) -> Self {
        let mut net = self.net;
        net.reset();
        Pooled::new(self.members, self.pinned, net)
    }
}

/// A located-region record with the [`RegionKey`] it was kept under.
struct Kept {
    /// `RegionKey::Core`'s Pruning1/2 switches; `None` for a query key.
    pruning: Option<(bool, bool)>,
    /// The removed set or the normalised query.
    set: Vec<VertexId>,
    record: Located,
    /// Footprint of the record and its key set.
    bytes: usize,
}

impl Kept {
    fn new(key: &RegionKey<'_>, record: Located) -> Self {
        let (pruning, set) = region_parts(key);
        Kept {
            bytes: record.bytes() + std::mem::size_of_val(set),
            pruning,
            set: set.to_vec(),
            record,
        }
    }

    /// Whether this record was kept under exactly `key`: another key
    /// with the same fingerprint is a collision, and the lookup misses.
    fn answers(&self, key: &RegionKey<'_>) -> bool {
        (self.pruning, &self.set[..]) == region_parts(key)
    }
}

/// What a [`RegionKey`] holds: the Pruning1/2 switches of a core key
/// (`None` for a query key) and its vertex set.
fn region_parts<'k>(key: &RegionKey<'k>) -> (Option<(bool, bool)>, &'k [VertexId]) {
    match *key {
        RegionKey::Core {
            removed,
            pruning1,
            pruning2,
        } => (Some((pruning1, pruning2)), removed),
        RegionKey::Query(query) => (None, query),
    }
}

/// Hashes one ascending vertex set, length first, in place, one mixing
/// step per id.
fn write_set(h: &mut Fnv, set: &[VertexId]) {
    debug_assert!(
        set.is_sorted(),
        "network and record keys hash ascending vertex sets"
    );
    h.write_u64(set.len() as u64);
    for &v in set {
        h.write_id(v);
    }
}

/// Stable fingerprint of a network's member (and pinned-query) vertex
/// sets — the key of a network in its [`Pool`]. Both sets
/// arrive ascending: component members, `InducedSubgraph::orig`, the
/// whole vertex range and the normalised query all are.
fn member_fingerprint(members: &[VertexId], pinned: &[VertexId]) -> u64 {
    let mut h = Fnv::new();
    write_set(&mut h, members);
    write_set(&mut h, pinned);
    h.finish()
}

/// Stable fingerprint of a located region — the key of a record in its
/// [`Pool`]. The leading tag keeps the two kinds of record apart.
fn region_fingerprint(key: &RegionKey<'_>) -> u64 {
    let mut h = Fnv::new();
    let (pruning, set) = region_parts(key);
    match pruning {
        Some((pruning1, pruning2)) => {
            h.write_u64(1);
            h.write_u64(pruning1 as u64);
            h.write_u64(pruning2 as u64);
        }
        None => h.write_u64(2),
    }
    write_set(&mut h, set);
    h.finish()
}

/// The engine side of one request's [`Substrates`] context, for one Ψ key
/// on one epoch: it takes the oracle and the decomposition from the key's
/// slot, the classical core numbers from the edge key's slot, and lends
/// flow networks from the slot's [`Pool`]. Lives on the stack of
/// [`DsdEngine::solve`].
struct EngineLender<'a, 'g> {
    engine: &'a DsdEngine<'g>,
    /// The snapshot this request answers on.
    epoch: Arc<Epoch<'g>>,
    slot: Arc<KeySlot>,
    /// Distinguishes this request's lent keys from other requests'.
    id: u64,
}

impl<'a, 'g> EngineLender<'a, 'g> {
    /// A lender for `key` on the engine's current snapshot.
    fn new(engine: &'a DsdEngine<'g>, key: &PatternKey) -> Self {
        let epoch = engine.snapshot();
        let slot = epoch.slot(key);
        EngineLender {
            engine,
            epoch,
            slot,
            id: LENDER_IDS.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn graph(&self) -> &Graph {
        self.epoch.graph.graph()
    }
}

impl NetworkLender for EngineLender<'_, '_> {
    fn take(&self, members: &[VertexId], pinned: &[VertexId]) -> Option<DensityNetwork> {
        let print = member_fingerprint(members, pinned);
        let mut pool = self.slot.pool.lock().unwrap();
        // A key lent to another request comes back with its `put` (or the
        // holder's drop). Holders only ever wait for strictly smaller
        // member sets (a shrinking component), so waits cannot cycle. A
        // key this request already holds is built fresh, as before.
        let entry = loop {
            if pool.entries.contains_key(&print) {
                // Another pair filed under this print is a fingerprint
                // collision: a miss, and this request builds afresh.
                let entry = pool.remove(print, members, pinned);
                if entry.is_some() {
                    pool.lent.insert(print, self.id);
                }
                break entry;
            }
            match pool.lent.get(&print) {
                Some(&holder) if holder != self.id => {
                    pool = self.slot.returned.wait(pool).unwrap();
                }
                _ => {
                    pool.lent.insert(print, self.id);
                    break None;
                }
            }
        };
        drop(pool);
        match entry {
            Some(Pooled { mut net, .. }) => {
                // Zero the probe ledger so this request's SolveStats
                // report only its own resolves, not the whole history of
                // the cached network.
                net.reset_probe_stats();
                self.engine.count(|c| c.network_hits += 1);
                Some(net)
            }
            None => {
                self.engine.count(|c| c.network_misses += 1);
                None
            }
        }
    }

    fn put(&self, members: &[VertexId], pinned: &[VertexId], net: DensityNetwork) {
        let print = member_fingerprint(members, pinned);
        let mut pool = self.slot.pool.lock().unwrap();
        if pool.lent.get(&print) == Some(&self.id) {
            pool.lent.remove(&print);
        }
        pool.insert(print, members, pinned, net);
        drop(pool);
        self.slot.returned.notify_all();
    }

    fn located(&self, key: &RegionKey<'_>) -> Option<Located> {
        let record = self
            .slot
            .pool
            .lock()
            .unwrap()
            .records
            .get(&region_fingerprint(key))
            .filter(|kept| kept.answers(key))
            .map(|kept| kept.record.clone());
        self.engine.count(|c| match record {
            Some(_) => c.located_hits += 1,
            None => c.located_misses += 1,
        });
        record
    }

    fn keep_located(&self, key: &RegionKey<'_>, record: Located) {
        let kept = Kept::new(key, record);
        let mut pool = self.slot.pool.lock().unwrap();
        pool.records.insert(region_fingerprint(key), kept);
    }
}

impl Drop for EngineLender<'_, '_> {
    /// Releases every key this request still holds (a search that stopped
    /// early, or a panic), so no waiter blocks on a network that is not
    /// coming back.
    fn drop(&mut self) {
        let mut pool = self
            .slot
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let held = pool.lent.len();
        pool.lent.retain(|_, holder| *holder != self.id);
        let released = pool.lent.len() != held;
        drop(pool);
        if released {
            self.slot.returned.notify_all();
        }
    }
}

impl SubstrateSource for EngineLender<'_, '_> {
    fn oracle(&self, psi: &Pattern) -> Cached<Arc<dyn DensityOracle>> {
        self.engine.oracle(&self.slot, psi)
    }

    fn decomposition(
        &self,
        g: &Graph,
        oracle: &dyn DensityOracle,
    ) -> (Arc<CliqueCoreDecomposition>, bool, u128) {
        self.engine.decomposition(&self.slot, g, oracle)
    }

    fn edge_cores(&self) -> Arc<CliqueCoreDecomposition> {
        self.engine.decomposed(&self.epoch, &Pattern::edge()).0
    }
}

/// The engine's graph storage: either a borrowed zero-copy CSR or an
/// owned, shareable one.
enum GraphSlot<'g> {
    Borrowed(&'g Graph),
    Owned(Arc<Graph>),
}

impl GraphSlot<'_> {
    fn graph(&self) -> &Graph {
        match self {
            GraphSlot::Borrowed(g) => g,
            GraphSlot::Owned(g) => g,
        }
    }
}

impl<'g> Clone for GraphSlot<'g> {
    fn clone(&self) -> Self {
        match self {
            GraphSlot::Borrowed(g) => GraphSlot::Borrowed(g),
            GraphSlot::Owned(g) => GraphSlot::Owned(Arc::clone(g)),
        }
    }
}

/// A consistent, immutable view of the engine's graph at one epoch —
/// what every request solves against. Dereferences to [`Graph`].
///
/// Snapshots taken before an [`DsdEngine::apply`] remain valid (and keep
/// their epoch) while the engine moves on; they share the underlying CSR
/// by reference count, so holding one is cheap.
pub struct GraphSnapshot<'g> {
    slot: GraphSlot<'g>,
    epoch: u64,
}

impl GraphSnapshot<'_> {
    /// The graph epoch this snapshot belongs to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Deref for GraphSnapshot<'_> {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        self.slot.graph()
    }
}

/// What one [`DsdEngine::apply`] batch did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Graph epoch after the batch (unchanged when the whole batch was
    /// no-ops).
    pub epoch: u64,
    /// Edges actually inserted.
    pub inserted: usize,
    /// Edges actually deleted.
    pub deleted: usize,
    /// No-op updates: duplicate inserts, deletes of absent edges,
    /// self-loops, out-of-range endpoints.
    pub ignored: usize,
    /// Ψ-substrates dropped (oracles + decompositions): decompositions
    /// always drop on an effective batch (peel order has no cheap
    /// repair), oracles drop only when in-place repair was refused.
    pub substrates_dropped: usize,
    /// Ψ-oracles whose instance store was repaired in place — the entry
    /// survives the epoch bump, answer-identical to a cold rebuild. 0 when
    /// the repair was left to the next snapshot
    /// ([`ApplyStats::csr_deferred`]).
    pub substrates_repaired: usize,
    /// Ψ-oracles dropped for a lazy rebuild on the next read: every cached
    /// oracle when the batch was over the repair ceiling, otherwise each
    /// one whose repair was refused (a prior build fell back to streaming,
    /// or the repaired store would break the byte or capacity guard).
    /// Subset of [`ApplyStats::substrates_dropped`].
    pub substrates_rebuilt: usize,
    /// Store rows tombstoned across every in-place repair of this batch.
    pub rows_tombstoned: usize,
    /// Whether the batch stayed in the edge overlay, leaving the CSR merge
    /// and any store repair to the next graph snapshot: the previous
    /// batch had not been read yet (a burst), or no cached oracle held a
    /// materialized instance store (streaming oracles only, such as the
    /// edge key's, or stores no query has built). Otherwise `apply` merged
    /// the CSR and repaired the stores itself.
    pub csr_deferred: bool,
    /// Resident bytes released by the dropped Ψ-substrates (instance
    /// stores, decomposition arrays, flow networks and located-region
    /// records, plus the checkpoints and witnesses of the networks carried
    /// across)
    /// — stale substrates are never served across an epoch, so this is
    /// exactly the rebuild debt the batch created. Repaired stores and
    /// carried network structure are not counted: they stay resident.
    pub bytes_freed: u64,
    /// Wall time of the batch.
    pub total_nanos: u128,
}

/// A long-lived query engine owning one graph plus its memoized substrates.
///
/// Construction is free — substrates are built lazily on first use and
/// reused by every later request (see the module docs for an example).
/// The engine is `Send + Sync`; wrap it in an [`Arc`] (or hand out scoped
/// borrows) to serve requests from many threads over one substrate cache.
/// The lifetime parameter supports zero-copy engines over borrowed graphs
/// ([`DsdEngine::over`]); owning engines are `DsdEngine<'static>`.
pub struct DsdEngine<'g> {
    id: u64,
    /// The published epoch. Its critical sections are a clone and a
    /// pointer swap, which leave it valid even if a panic poisons it.
    current: RwLock<Arc<Epoch<'g>>>,
    /// Serialises [`Self::apply`] and [`Self::merge`], and holds the
    /// overlay of updates not yet merged into the current epoch's CSR
    /// (non-empty only while that epoch is unmerged). The stored Ψ-oracles
    /// describe that CSR; the merge repairs them with the overlay's net
    /// change. Only a commit changes it, so a panic that poisons it leaves
    /// it valid.
    writer: Mutex<EdgeOverlay>,
    parallelism: Parallelism,
    substrate_budget: Option<u64>,
    counters: Mutex<EngineCacheStats>,
}

impl DsdEngine<'static> {
    /// An engine that owns its graph — the shape to use for serving.
    pub fn new(graph: Graph) -> Self {
        Self::with_slot(GraphSlot::Owned(Arc::new(graph)))
    }
}

impl<'g> DsdEngine<'g> {
    /// A zero-copy engine over a borrowed graph — what the free-function
    /// shims use. Updates still work: the first effective
    /// [`DsdEngine::apply`] copies on write into an owned graph.
    pub fn over(graph: &'g Graph) -> Self {
        Self::with_slot(GraphSlot::Borrowed(graph))
    }

    fn with_slot(slot: GraphSlot<'g>) -> Self {
        // The first batch merges at once, as if this epoch had been read.
        let epoch = Epoch::new(0, slot, true, Vec::new());
        epoch.read.store(true, Ordering::Relaxed);
        DsdEngine {
            id: ENGINE_IDS.fetch_add(1, Ordering::Relaxed),
            current: RwLock::new(Arc::new(epoch)),
            writer: Mutex::new(EdgeOverlay::default()),
            parallelism: Parallelism::serial(),
            substrate_budget: Some(DEFAULT_STORE_BUDGET),
            counters: Mutex::new(EngineCacheStats::default()),
        }
    }

    /// This engine's process-unique id — the stable half of the serving
    /// layer's `(engine, Ψ)` eviction key.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Drops the cached Ψ-substrates (oracle, decomposition, flow networks
    /// and located-region records) for one canonical key, returning the
    /// cache-resident bytes released. The eviction hook of the serve-layer
    /// governor: in-flight requests that already hold the key's slot
    /// finish unaffected — eviction only severs the epoch's reference, so
    /// the bytes are reclaimed once the last holder drops.
    pub fn evict_substrate(&self, key: &PatternKey) -> u64 {
        let slot = self.current().slots.write().unwrap().remove(key);
        slot.map_or(0, |slot| slot.bytes())
    }

    /// Calls `visit` with each Ψ key the current epoch holds a slot for,
    /// and the slot's resident bytes: the serve-layer governor's fold.
    /// The slot map stays read-locked meanwhile, so `visit` must not call
    /// back into this engine.
    pub(crate) fn visit_slots(&self, mut visit: impl FnMut(&PatternKey, u64)) {
        let epoch = self.current();
        for (key, slot) in epoch.slots.read().unwrap().iter() {
            visit(key, slot.bytes());
        }
    }

    /// Sets the worker count used for parallelizable substrate passes
    /// (the sharded instance-store build and the h-clique bulk degree
    /// pass). Answers are identical for every setting; this is a
    /// throughput knob only.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The engine's worker-count configuration.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Sets the instance-store byte budget: Ψ-oracles whose store would
    /// exceed it answer from the streaming fallbacks instead (`None` =
    /// unlimited, `Some(0)` = never materialize). Answers are identical
    /// for every setting; this trades memory for peel speed. Default:
    /// [`DEFAULT_STORE_BUDGET`].
    pub fn with_substrate_budget(mut self, budget: Option<u64>) -> Self {
        self.substrate_budget = budget;
        self
    }

    /// The engine's instance-store byte budget.
    pub fn substrate_budget(&self) -> Option<u64> {
        self.substrate_budget
    }

    /// Resident bytes currently held by the substrate cache: instance
    /// stores, decomposition arrays, plus cached flow networks, at the
    /// engine's current epoch.
    pub fn substrate_bytes(&self) -> u64 {
        self.current().sum(KeySlot::bytes)
    }

    /// Resident bytes of the cached flow networks and their located-region
    /// records alone (a subset of [`Self::substrate_bytes`]) — the CLI's
    /// network-cache report.
    pub fn network_bytes(&self) -> u64 {
        self.current().sum(KeySlot::network_bytes)
    }

    /// The published epoch, merged or not.
    fn current(&self) -> Arc<Epoch<'g>> {
        let current = self.current.read().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(&current)
    }

    /// Makes `next` the current epoch. The superseded one drops outside
    /// the pointer lock, or with the last request still holding it.
    fn publish(&self, next: Arc<Epoch<'g>>) {
        let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let _superseded = std::mem::replace(&mut *current, next);
        drop(current);
    }

    /// The current epoch as a request reads it: merged (see
    /// [`Self::merge`]) and marked read.
    fn snapshot(&self) -> Arc<Epoch<'g>> {
        let current = self.current();
        let epoch = if current.merged {
            current
        } else {
            self.merge()
        };
        if !epoch.read.load(Ordering::Relaxed) {
            epoch.read.store(true, Ordering::Relaxed);
        }
        epoch
    }

    /// Merges the pending overlay into a fresh CSR, carries every stored
    /// Ψ-oracle across its net change and publishes the merged twin of the
    /// current epoch: a burst of batches with no read in between pays one
    /// merge and one repair per store. The networks the unmerged epoch
    /// holds were already filtered by each `apply` that put them there, so
    /// they move across as they are, unless their oracle is not kept. A
    /// panicking repair publishes nothing and keeps the overlay, so the
    /// next snapshot retries (without those networks).
    fn merge(&self) -> Arc<Epoch<'g>> {
        let mut pending = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let current = self.current();
        if current.merged {
            // Another snapshot merged it first.
            return current;
        }
        let carried = carried(&current.slots.read().unwrap(), &[]);
        let stats = &mut ApplyStats::default();
        let merged = merge_pending(&current, current.number, &pending, carried, stats);
        *pending = EdgeOverlay::default();
        let merged = Arc::new(merged);
        self.publish(Arc::clone(&merged));
        merged
    }

    /// A consistent snapshot of the engine's graph at its current epoch.
    ///
    /// When updates are pending (applied but not yet merged), this is
    /// where they merge into a fresh CSR and every cached Ψ-store is
    /// repaired against their net effect: a burst of batches with no read
    /// in between pays one merge and one repair per store, not one per
    /// batch.
    pub fn graph(&self) -> GraphSnapshot<'g> {
        let epoch = self.snapshot();
        GraphSnapshot {
            slot: epoch.graph.clone(),
            epoch: epoch.number,
        }
    }

    /// The engine's current graph epoch: 0 at construction, +1 per
    /// effective [`DsdEngine::apply`] batch.
    pub fn epoch(&self) -> u64 {
        self.current().number
    }

    /// Cumulative cache accounting across all requests so far.
    pub fn cache_stats(&self) -> EngineCacheStats {
        *self.counters.lock().unwrap()
    }

    /// Applies a batch of edge updates, advancing the graph epoch and
    /// reconciling every cached substrate:
    ///
    /// * **(k, Ψ)-core decompositions**, the edge key's classical core
    ///   numbers among them, and located-region records do not carry into
    ///   the new epoch, and each rebuilds once on its next read from the
    ///   merged snapshot (a decomposition from the repaired oracle). A
    ///   peel order has no repair cheaper than that rebuild, and a stale
    ///   one would silently change answers;
    /// * a cached **flow network** over members M carries into the new
    ///   epoch when no net-changed edge has both endpoints in M and its
    ///   Ψ-oracle is kept or repaired in place (so the next build would
    ///   pick the same builder). It reads only `G[M]`, so it is still
    ///   valid; it carries as structure only, reset to a fresh build, so
    ///   the next search on it — answer and flow counters — equals one on
    ///   a rebuilt network. Every other network drops;
    /// * the batch joins the pending edge **overlay**. Ψ-stores are
    ///   repaired in place when the overlay merges into a fresh CSR:
    ///   rows killed by removed edges are tombstoned through the store's
    ///   incidence CSR, and instances created by inserted edges are
    ///   delta-enumerated and appended — answer-identical to a cold
    ///   rebuild. A store is dropped for a lazy rebuild instead when the
    ///   overlay is over the repair ceiling, a prior build fell back to
    ///   streaming, or the repaired store would break the byte budget.
    ///
    /// The merge runs here when this is the first batch since the last
    /// read and a cached oracle holds a materialized store, so
    /// `ApplyStats` reports the repair. Otherwise
    /// ([`ApplyStats::csr_deferred`]) it runs at the next snapshot,
    /// [`Self::graph`]: a burst of batches with no read in between pays
    /// one merge and one repair per store for the first batch, and one
    /// more for all the others together.
    ///
    /// Updates are normalized to the batch's **net** effect first:
    /// opposing updates on the same edge cancel, so `inserted`/`deleted`
    /// count net changes, everything else lands in
    /// [`ApplyStats::ignored`], and a net-empty batch (e.g.
    /// `[+{u,v}, -{u,v}]`) keeps the epoch and every warm substrate.
    /// Requests already in flight keep their pre-update snapshot.
    ///
    /// The next epoch is staged off to the side and published with one
    /// pointer swap. A panic before it (a faulty repair) publishes
    /// nothing: the epoch stays, and the graph keeps answering as before.
    pub fn apply(&self, updates: &[GraphUpdate]) -> ApplyStats {
        let t0 = Instant::now();
        let mut pending = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let current = self.current();
        let base = current.graph.graph();

        let mut stats = ApplyStats {
            epoch: current.number,
            ..ApplyStats::default()
        };
        // Net toggles of this batch: an edge key is present iff the batch
        // changed it an odd number of times. The overlay already
        // self-reduces (insert + delete cancel), so effective updates on
        // one key strictly alternate and a remove-or-insert suffices.
        let mut toggles: HashMap<(VertexId, VertexId), bool> = HashMap::new();
        for update in updates {
            if !pending.apply(base, update) {
                continue;
            }
            let (u, v) = update.endpoints();
            let key = (u.min(v), u.max(v));
            let insert = matches!(update, GraphUpdate::Insert(..));
            if toggles.remove(&key).is_none() {
                toggles.insert(key, insert);
            }
        }
        stats.inserted = toggles.values().filter(|&&ins| ins).count();
        stats.deleted = toggles.len() - stats.inserted;
        stats.ignored = updates.len() - stats.inserted - stats.deleted;

        if stats.inserted + stats.deleted == 0 {
            // Net no-op batch (pure no-ops, or opposing updates that
            // cancelled): the graph is unchanged. Keep epoch and
            // substrates.
            stats.total_nanos = t0.elapsed().as_nanos();
            return stats;
        }
        stats.epoch = current.number + 1;

        // The superseded graph's decompositions and located-region records
        // leave the engine's reach here, before any repair, so none is
        // alive while stores are repaired: a peel order has no cheap
        // repair, and a located region moves with it. Of the flow
        // networks, only those over members no changed edge joins move on,
        // reset to fresh builds; the rest drop with the records.
        let stripped = current.strip();
        stats.substrates_dropped = stripped
            .values()
            .filter(|slot| slot.decomposition.get().is_some())
            .count();
        let derived: u64 = stripped.values().map(|slot| slot.derived_bytes()).sum();
        let toggled: Vec<(VertexId, VertexId)> = toggles.into_keys().collect();
        let carried = carried(&stripped, &toggled);
        drop(stripped);
        stats.bytes_freed = derived - carried.iter().map(Carry::network_bytes).sum::<u64>();

        // Only a materialized store reads the merged adjacency; streaming
        // oracles are valid on any graph, and the deferred merge swaps
        // stores no query has built for fresh twins.
        let stores = carried
            .iter()
            .filter_map(|c| c.oracle.as_ref())
            .any(|o| o.store_stats().is_some_and(|s| s.materialized));
        let next = if !current.read.load(Ordering::Relaxed) || !stores {
            stats.csr_deferred = true;
            Epoch::new(stats.epoch, current.graph.clone(), false, carried)
        } else {
            // A read epoch is merged, so the overlay held only this batch;
            // taking it leaves the writer as it was if the repair panics.
            let batch = std::mem::take(&mut *pending);
            merge_pending(&current, stats.epoch, &batch, carried, &mut stats)
        };
        self.publish(Arc::new(next));
        stats.total_nanos = t0.elapsed().as_nanos();
        stats
    }

    /// Starts building a request for pattern Ψ (defaults: Densest,
    /// `Method::Auto`, exact tolerance, no step budget),
    /// bound to this engine — call `.solve()` on the result. To build a
    /// free-standing request (for [`crate::serve::DsdServer`] routing),
    /// use [`DsdRequest::new`].
    pub fn request(&self, psi: &Pattern) -> BoundRequest<'_, 'g> {
        BoundRequest {
            engine: self,
            req: DsdRequest::new(psi),
        }
    }

    /// Pre-builds the Ψ substrates (oracle + decomposition), so later
    /// requests are served warm. Returns the decomposition build time in
    /// nanoseconds (0 when it was already cached — including when another
    /// thread won the build race and this call only waited for it).
    pub fn warm(&self, psi: &Pattern) -> u128 {
        self.decomposed(&self.snapshot(), psi).2
    }

    fn count(&self, bump: impl FnOnce(&mut EngineCacheStats)) {
        bump(&mut self.counters.lock().unwrap());
    }

    /// The memoized density oracle for Ψ in `slot`. The bool reports a
    /// cache hit.
    fn oracle(&self, slot: &KeySlot, psi: &Pattern) -> Cached<Arc<dyn DensityOracle>> {
        let (oracle, hit) = memoized(&slot.oracle, || {
            Arc::from(oracle_with_policy(
                psi,
                self.parallelism,
                self.substrate_budget,
            ))
        });
        self.count(|c| match hit {
            true => c.oracle_hits += 1,
            false => c.oracle_builds += 1,
        });
        (oracle, hit)
    }

    /// The memoized (k, Ψ)-core decomposition in `slot` of `g` (the slot's
    /// epoch graph) through `oracle`. The bool reports a cache hit; the
    /// u128 is the build time paid by *this* call (0 on a hit).
    fn decomposition(
        &self,
        slot: &KeySlot,
        g: &Graph,
        oracle: &dyn DensityOracle,
    ) -> (Arc<CliqueCoreDecomposition>, bool, u128) {
        let mut nanos = 0;
        let (dec, hit) = memoized(&slot.decomposition, || {
            let t = Instant::now();
            let dec = Arc::new(decompose(g, oracle));
            nanos = t.elapsed().as_nanos();
            dec
        });
        self.count(|c| match hit {
            true => c.decomposition_hits += 1,
            false => c.decomposition_builds += 1,
        });
        (dec, hit, nanos)
    }

    /// The memoized (k, Ψ)-core decomposition of `epoch`'s graph in Ψ's
    /// slot, through the slot's memoized oracle, as [`Self::decomposition`]
    /// reports it.
    fn decomposed(
        &self,
        epoch: &Epoch<'g>,
        psi: &Pattern,
    ) -> (Arc<CliqueCoreDecomposition>, bool, u128) {
        let slot = epoch.slot(&pattern_key(psi));
        let (oracle, _) = self.oracle(&slot, psi);
        self.decomposition(&slot, epoch.graph.graph(), oracle.as_ref())
    }

    /// `Method::Auto`'s cost-based selector.
    ///
    /// Every candidate it can pick preserves the `1/|VΨ|` approximation
    /// guarantee (exact methods trivially, the core family by Lemma 8):
    ///
    /// * warm decomposition → `CoreExact` when the located core is small
    ///   enough for cheap flow probes, else `PeelApp` (which is free given
    ///   the decomposition);
    /// * cold + small graph → `CoreExact`;
    /// * cold + large graph → `CoreApp` (top-down, avoids the full
    ///   decomposition the exact path would have to pay).
    ///
    /// Note the warm/cold split makes Auto's choice depend on cache state:
    /// under concurrent execution, pin an explicit method when bit-for-bit
    /// reproducibility across runs matters (see `serve::DsdServer`).
    fn auto_method(psi: &Pattern, lender: &EngineLender<'_, '_>) -> Method {
        /// Located-core size above which warm flow probes are judged too
        /// expensive for an auto-selected request.
        const WARM_FLOW_VERTEX_CAP: usize = 20_000;
        /// Cold-start work bound: edges × pattern size as a proxy for the
        /// enumeration + decomposition cost of the exact path.
        const COLD_EXACT_WORK_CAP: usize = 1_000_000;

        if let Some(dec) = lender.slot.decomposition.get() {
            if dec.kmax == 0 {
                return Method::PeelApp;
            }
            // Same location rule CoreExact itself applies (Lemma 7 on the
            // Pruning1 lower bound), via the shared bounds helpers.
            let bounds = crate::bounds::density_bounds(dec, psi.vertex_count(), true);
            let k_loc = bounds.locate_k.max(1);
            let located = dec.core_suffix(k_loc).len();
            if located <= WARM_FLOW_VERTEX_CAP {
                Method::CoreExact
            } else {
                Method::PeelApp
            }
        } else if lender
            .graph()
            .num_edges()
            .saturating_mul(psi.vertex_count())
            <= COLD_EXACT_WORK_CAP
        {
            Method::CoreExact
        } else {
            Method::CoreApp
        }
    }

    /// Runs a free-standing request against this engine. Any graph name
    /// the request carries ([`DsdRequest::on`]) is ignored here — routing
    /// by name is [`crate::serve::DsdServer`]'s job.
    ///
    /// One skeleton serves every objective and method. It builds the
    /// request's [`Substrates`] context over the engine's caches,
    /// dispatches on `(Objective, Method)` to the algorithm's entry point
    /// (which acquires the substrates it reads), and wraps the answer in
    /// a [`Solution`]. The entry points reject an unsatisfiable request
    /// before they read any substrate, so an invalid request builds
    /// nothing.
    pub fn solve(&self, req: &DsdRequest) -> Solution {
        let t0 = Instant::now();
        let (psi, key) = req.cache_key();
        let psi = psi.as_ref();
        let lender = EngineLender::new(self, &key);
        let epoch = lender.epoch.number;
        // DalkS and DamkS build their exact attempt's networks fresh and
        // leave the network cache alone.
        let lends = !matches!(
            req.objective,
            Objective::AtLeastK(_) | Objective::AtMostK(_)
        );
        let s = Substrates::cached(
            lender.graph(),
            psi,
            &lender,
            lends.then_some(&lender as &dyn NetworkLender),
        );
        let config = CoreExactConfig {
            tolerance: req.tolerance,
            step_budget: req.step_budget,
            ..CoreExactConfig::default()
        };

        let answer = match &req.objective {
            Objective::Densest => {
                let method = match req.method {
                    Method::Auto => Self::auto_method(psi, &lender),
                    m => m,
                };
                let ratio = Cert::Ratio(1.0 / psi.vertex_count() as f64);
                let mut kmax = None;
                let (result, search, cert) = match method {
                    Method::Exact => {
                        let opts = ExactOpts {
                            tolerance: config.tolerance,
                            step_budget: config.step_budget,
                        };
                        let (r, es) = s.exact(opts);
                        (r, es, Cert::Search)
                    }
                    Method::CoreExact => {
                        let (r, ces) = s.core_exact(config);
                        (r, ces.exact, Cert::Search)
                    }
                    Method::PeelApp => (s.peel_app(), ExactStats::default(), ratio),
                    Method::IncApp => (s.inc_app().result, ExactStats::default(), ratio),
                    Method::CoreApp => {
                        let a = s.core_app();
                        kmax = Some(a.kmax);
                        (a.result, ExactStats::default(), ratio)
                    }
                    Method::Auto => unreachable!("Auto resolves before dispatch"),
                };
                let found = if result.is_empty() {
                    Vec::new()
                } else {
                    vec![result]
                };
                Answer {
                    method,
                    subgraphs: Some(found),
                    cert,
                    search,
                    kmax,
                }
            }
            Objective::TopK(k) => match s.top_k(*k, config) {
                Some(scan) => Answer {
                    method: Method::CoreExact,
                    subgraphs: Some(scan.subgraphs),
                    cert: Cert::Search,
                    search: scan.exact,
                    kmax: None,
                },
                None => Answer::invalid(Method::CoreExact),
            },
            // Exact when the unconstrained CDS met the floor; else
            // Andersen–Chellapilla's 1/3 bound (proved for edges).
            Objective::AtLeastK(k) => {
                let fallback = if psi.vertex_count() == 2 {
                    Cert::Ratio(1.0 / 3.0)
                } else {
                    Cert::Heuristic
                };
                Answer::sized(s.densest_at_least_k(*k, config), fallback)
            }
            Objective::AtMostK(k) => {
                Answer::sized(s.densest_at_most_k(*k, config), Cert::Heuristic)
            }
            Objective::WithQuery(q) => match s.densest_with_query(q) {
                Some((r, es, kmax)) => Answer {
                    method: Method::Exact,
                    subgraphs: Some(vec![r]),
                    cert: Cert::Exact,
                    search: es,
                    kmax: Some(kmax),
                },
                None => Answer::invalid(Method::Exact),
            },
        };

        let guarantee = match answer.cert {
            Cert::Search if answer.search.budget_exhausted => Guarantee::Heuristic,
            Cert::Search => match config.tolerance {
                Some(t) if t > 0.0 => Guarantee::AdditiveGap(t),
                _ => Guarantee::Exact,
            },
            Cert::Exact => Guarantee::Exact,
            Cert::Ratio(r) => Guarantee::Ratio(r),
            Cert::Heuristic => Guarantee::Heuristic,
        };
        let mut stats = SolveStats {
            decomposition_nanos: s.decomposition_nanos(),
            kmax: answer.kmax.or(s.decomposed_kmax()),
            substrate: s.substrate_use(),
            store: s.store_stats(),
            epoch,
            ..SolveStats::default()
        };
        record_flow(&mut stats, answer.search);
        let (outcome, subgraphs) = match answer.subgraphs {
            None => (Outcome::Invalid, Vec::new()),
            Some(found) if found.is_empty() => (Outcome::Empty, found),
            Some(found) => (Outcome::Found, found),
        };
        let (vertices, density) = subgraphs
            .first()
            .map(|r| (r.vertices.clone(), r.density))
            .unwrap_or_default();
        stats.total_nanos = t0.elapsed().as_nanos();
        Solution {
            vertices,
            density,
            subgraphs,
            method: answer.method,
            objective: req.objective.clone(),
            outcome,
            guarantee,
            stats,
        }
    }
}

/// How a dispatch arm's answer is certified; [`DsdEngine::solve`] turns it
/// into the [`Guarantee`].
enum Cert {
    /// Optimal up to the request's tolerance and step budget (α-search).
    Search,
    /// Optimal; the search takes neither knob (the query variant).
    Exact,
    /// Within this factor of optimal.
    Ratio(f64),
    /// No guarantee.
    Heuristic,
}

/// One dispatch arm's answer, before [`DsdEngine::solve`] wraps it in a
/// [`Solution`].
struct Answer {
    /// The method that ran.
    method: Method,
    /// The reported subgraphs, densest first; `None` when the request was
    /// unsatisfiable.
    subgraphs: Option<Vec<DsdResult>>,
    cert: Cert,
    /// α-search instrumentation (all zero for the probe-free methods).
    search: ExactStats,
    /// kmax when the arm read it from somewhere other than the (k, Ψ)-core
    /// decomposition: CoreApp's top-down scan, or the query variant's
    /// located region.
    kmax: Option<u64>,
}

impl Answer {
    fn invalid(method: Method) -> Self {
        Answer {
            method,
            subgraphs: None,
            cert: Cert::Heuristic,
            search: ExactStats::default(),
            kmax: None,
        }
    }

    /// A size-constrained outcome: certified by its exact attempt, or by
    /// `fallback` when the greedy peel answered.
    fn sized(outcome: Option<SizeConstrainedOutcome>, fallback: Cert) -> Self {
        match outcome {
            Some(o) => Answer {
                method: if o.exact {
                    Method::CoreExact
                } else {
                    Method::PeelApp
                },
                subgraphs: Some(vec![o.result]),
                cert: if o.exact { Cert::Search } else { fallback },
                search: o.stats,
                kmax: None,
            },
            None => Answer::invalid(Method::PeelApp),
        }
    }
}

/// Builds once, in `cell`: concurrent requests for the same entry block
/// until the winner's build lands, then read it as a hit — N threads pay
/// one build, and requests for other cells never wait on it. The bool
/// reports a hit.
fn memoized<T: Clone>(cell: &OnceLock<T>, build: impl FnOnce() -> T) -> Cached<T> {
    let mut hit = true;
    let value = cell.get_or_init(|| {
        hit = false;
        build()
    });
    (value.clone(), hit)
}

/// Stages the merged epoch `number`: merges `pending` into a fresh CSR
/// over `from`'s and carries `from`'s `carried` oracles across the
/// overlay's net edge changes — one merge and one `repair_for_update` per
/// oracle, however many batches the overlay holds. Sound because stores
/// are built from merged snapshots only, so they describe `from`'s CSR,
/// and every change since sits in the overlay. Every oracle and network
/// is dropped instead when the net change is over the repair ceiling.
/// Counts into `stats`.
///
/// The carried networks were already filtered by the batches they
/// crossed. They move on beside an oracle kept or repaired in place, and
/// beside none (the query variant's pinned networks, which read no
/// oracle), and drop where the oracle is replaced or left to a rebuild:
/// the next build may then pick another network builder, with other flow
/// counters than the carried network's.
///
/// `from` lets go of each oracle once its repair returns, so no more than
/// one store is ever held twice; a panicking repair leaves it the oracles
/// not repaired yet.
fn merge_pending<'g>(
    from: &Epoch<'_>,
    number: u64,
    pending: &EdgeOverlay,
    mut carried: Vec<Carry>,
    stats: &mut ApplyStats,
) -> Epoch<'g> {
    let base = from.graph.graph();
    let (inserted, removed) = (pending.added_edge_list(), pending.removed_edge_list());
    let oracles = || carried.iter().filter_map(|c| c.oracle.as_ref());
    let resident: u64 = oracles().map(|o| o.resident_bytes()).sum();
    if !repairable_batch(inserted.len(), removed.len(), resident) {
        let dropped = oracles().count();
        stats.substrates_dropped += dropped;
        stats.substrates_rebuilt += dropped;
        stats.bytes_freed += resident + carried.iter().map(Carry::network_bytes).sum::<u64>();
        carried.clear();
        from.slots.write().unwrap().clear();
    }
    // The general-pattern repair recounts touched rows in the mid graph
    // (base minus removals); cliques never read it, so build it only when
    // a non-clique store is cached and both edge directions moved.
    let needs_mid = !inserted.is_empty()
        && !removed.is_empty()
        && carried.iter().any(|c| {
            let (k, edges) = &c.key;
            edges.len() * 2 != k * (k - 1)
                && c.oracle
                    .as_ref()
                    .is_some_and(|o| o.store_stats().is_some_and(|s| s.materialized))
        });
    let g_mid: Option<Graph> = needs_mid.then(|| {
        let mut deletions = EdgeOverlay::default();
        for &(u, v) in &removed {
            deletions.apply(base, &GraphUpdate::Delete(u, v));
        }
        DeltaGraph::new(base, &deletions).materialize()
    });
    let g_new = Arc::new(DeltaGraph::new(base, pending).materialize());
    let g_mid: &Graph = g_mid.as_ref().unwrap_or(&g_new);

    let mut next = Vec::with_capacity(carried.len());
    for mut carry in carried {
        if let Some(oracle) = carry.oracle.take() {
            let repair = oracle.repair_for_update(&g_new, g_mid, &inserted, &removed);
            from.slots.write().unwrap().remove(&carry.key);
            carry.oracle = match repair {
                SubstrateRepair::Keep => Some(oracle),
                SubstrateRepair::Repaired(repaired, r) => {
                    stats.substrates_repaired += 1;
                    stats.rows_tombstoned += r.rows_tombstoned;
                    Some(repaired)
                }
                SubstrateRepair::Replaced(fresh) => {
                    stats.bytes_freed += carry.network_bytes();
                    carry.networks.clear();
                    Some(fresh)
                }
                SubstrateRepair::Rebuild => {
                    stats.bytes_freed += oracle.resident_bytes() + carry.network_bytes();
                    stats.substrates_dropped += 1;
                    stats.substrates_rebuilt += 1;
                    carry.networks.clear();
                    None
                }
            };
        }
        if carry.oracle.is_some() || !carry.networks.is_empty() {
            next.push(carry);
        }
    }
    Epoch::new(number, GraphSlot::Owned(g_new), true, next)
}

/// Copies an α-search's instrumentation into a request's [`SolveStats`].
fn record_flow(stats: &mut SolveStats, es: ExactStats) {
    stats.flow_iterations = es.iterations;
    stats.network_nodes = es.network_nodes;
    stats.flow_resolve_hits = es.resolve_hits;
    stats.flow_augment_work = es.augment_work;
}

/// A free-standing request specification: pattern, objective, method, and
/// solver knobs, plus (optionally) the name of the catalog graph it
/// targets. `DsdRequest` is plain `Send` data — build it anywhere, ship it
/// to a [`DsdEngine::solve`] call or a [`crate::serve::DsdServer::submit`].
///
/// For the common bound form, [`DsdEngine::request`] returns a
/// [`BoundRequest`] with the same builder methods plus `.solve()`.
#[derive(Clone, Debug)]
pub struct DsdRequest {
    graph: Option<String>,
    psi: Pattern,
    objective: Objective,
    method: Method,
    tolerance: Option<f64>,
    step_budget: Option<usize>,
}

impl DsdRequest {
    /// A request for pattern Ψ with the defaults: [`Objective::Densest`],
    /// [`Method::Auto`], exact tolerance, no step budget.
    pub fn new(psi: &Pattern) -> Self {
        DsdRequest {
            graph: None,
            psi: psi.clone(),
            objective: Objective::Densest,
            method: Method::Auto,
            tolerance: None,
            step_budget: None,
        }
    }

    /// Routes the request to the named catalog graph (used by
    /// [`crate::serve::DsdServer`]; ignored by [`DsdEngine::solve`]).
    pub fn on(mut self, graph: impl Into<String>) -> Self {
        self.graph = Some(graph.into());
        self
    }

    /// The catalog graph this request targets, when routed.
    pub fn graph_name(&self) -> Option<&str> {
        self.graph.as_deref()
    }

    /// The request's pattern Ψ.
    pub fn psi(&self) -> &Pattern {
        &self.psi
    }

    /// The pattern [`DsdEngine::solve`] runs under, and its cache key: the
    /// one slot the request reads and fills, which the serve pipeline pins
    /// and settles. That is Ψ, except for the query variant, which is
    /// defined for edge density whatever Ψ the request names.
    pub(crate) fn cache_key(&self) -> (Cow<'_, Pattern>, PatternKey) {
        let psi = match self.objective {
            Objective::WithQuery(_) => Cow::Owned(Pattern::edge()),
            _ => Cow::Borrowed(&self.psi),
        };
        let key = pattern_key(&psi);
        (psi, key)
    }

    /// Sets the objective (default [`Objective::Densest`]).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the method (default [`Method::Auto`]).
    ///
    /// Only [`Objective::Densest`] dispatches on the method. The other
    /// objectives have a fixed algorithm and record the one that answered
    /// in [`Solution::method`] regardless of this setting: top-k iterates
    /// CoreExact; DalkS and DamkS report CoreExact when their exact
    /// attempt answers (clique Ψ, and the unconstrained optimum meets the
    /// size bound) and PeelApp when the greedy fallback does; the query
    /// variant is flow-exact (Exact).
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Sets an α-tolerance for the α-search: the answer's density is
    /// then within `tolerance` of optimal instead of certified exact.
    ///
    /// Applies to every α-search: Densest via Exact/CoreExact, top-k, and
    /// the exact attempt of DalkS and DamkS (whose answer then carries
    /// [`Guarantee::AdditiveGap`]). The peel/core methods have no α
    /// search, and the query variant always certifies, so both ignore it.
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = Some(tolerance);
        self
    }

    /// Caps the number of min-cut probes; an exhausted budget returns the
    /// best subgraph found so far (guarantee degrades to `Heuristic`).
    ///
    /// Applies to the same α-search paths as [`Self::tolerance`],
    /// DalkS's and DamkS's exact attempt included.
    /// For [`Objective::TopK`] the cap is per round (each of the up-to-`k`
    /// CoreExact scans gets its own budget), so a request's probe total is
    /// bounded by `k × probes`.
    pub fn step_budget(mut self, probes: usize) -> Self {
        self.step_budget = Some(probes);
        self
    }

    /// The configured probe cap, if any — read by the serve pipeline to
    /// clamp a request's budget against its deadline.
    pub fn step_budget_limit(&self) -> Option<usize> {
        self.step_budget
    }

    /// The request's configured method (possibly [`Method::Auto`]).
    pub fn method_choice(&self) -> Method {
        self.method
    }

    /// The request's objective.
    pub fn objective_ref(&self) -> &Objective {
        &self.objective
    }
}

/// A [`DsdRequest`] bound to an engine, created by [`DsdEngine::request`];
/// exposes the same builder methods and is consumed by
/// [`BoundRequest::solve`].
pub struct BoundRequest<'e, 'g> {
    engine: &'e DsdEngine<'g>,
    req: DsdRequest,
}

impl<'e, 'g> BoundRequest<'e, 'g> {
    /// See [`DsdRequest::objective`].
    pub fn objective(mut self, objective: Objective) -> Self {
        self.req = self.req.objective(objective);
        self
    }

    /// See [`DsdRequest::method`].
    pub fn method(mut self, method: Method) -> Self {
        self.req = self.req.method(method);
        self
    }

    /// See [`DsdRequest::tolerance`].
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.req = self.req.tolerance(tolerance);
        self
    }

    /// See [`DsdRequest::step_budget`].
    pub fn step_budget(mut self, probes: usize) -> Self {
        self.req = self.req.step_budget(probes);
        self
    }

    /// Runs the request against the engine's warm substrates.
    pub fn solve(self) -> Solution {
        self.engine.solve(&self.req)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::exact::build_network_for_with;
    use crate::flownet::build_edge_network;
    use crate::oracle::InstancePeeler;
    use dsd_graph::VertexSet;
    use dsd_motif::store::InstanceStore;

    /// The serving layer's whole premise, checked at compile time.
    #[test]
    fn engine_and_request_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DsdEngine<'static>>();
        assert_send_sync::<DsdEngine<'_>>();
        assert_send_sync::<DsdRequest>();
        assert_send_sync::<Solution>();
        assert_send_sync::<EngineCacheStats>();
    }

    /// Isomorphic patterns with different labelings share one substrate
    /// cache entry (the `PatternKey` canonicalization).
    #[test]
    fn isomorphic_patterns_share_substrates() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
        let engine = DsdEngine::over(&g);
        // The paw, spelled with the pendant on two different vertices.
        let paw_a = Pattern::c3_star();
        let paw_b = Pattern::new("paw-b", 4, &[(1, 2), (2, 3), (1, 3), (2, 0)]);
        assert_ne!(paw_a.edges(), paw_b.edges());

        let a = engine.request(&paw_a).method(Method::PeelApp).solve();
        let b = engine.request(&paw_b).method(Method::PeelApp).solve();
        assert_eq!(a.vertices, b.vertices);
        assert_eq!(a.density.to_bits(), b.density.to_bits());
        assert!(
            b.stats.substrate.decomposition_cache_hit,
            "relabeled pattern must hit the canonical cache entry"
        );
        let stats = engine.cache_stats();
        assert_eq!(stats.decomposition_builds, 1);
        assert_eq!(stats.oracle_builds, 1);
    }

    /// One query spelled three ways — `[a, b]`, `[b, a]`, `[a, a, b]` —
    /// gets one answer and one cached pinned network, while each
    /// solution echoes the query as submitted.
    #[test]
    fn query_spellings_share_one_cached_network() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
        let engine = DsdEngine::over(&g);
        let spellings = [vec![1, 5], vec![5, 1], vec![1, 1, 5]];
        let solutions: Vec<Solution> = spellings
            .iter()
            .map(|q| {
                engine
                    .request(&Pattern::edge())
                    .objective(Objective::WithQuery(q.clone()))
                    .solve()
            })
            .collect();
        for (q, s) in spellings.iter().zip(&solutions) {
            assert_eq!(s.objective, Objective::WithQuery(q.clone()));
            assert_eq!(s.vertices, solutions[0].vertices, "{q:?}");
            assert_eq!(s.density.to_bits(), solutions[0].density.to_bits());
        }
        let stats = engine.cache_stats();
        assert_eq!((stats.network_misses, stats.network_hits), (1, 2));
    }

    /// A pooled network is handed out only for the member and pinned sets
    /// it was built over: a request whose sets hash to the print another
    /// pair is filed under (a fingerprint collision) misses, and the filed
    /// network stays pooled under its own sets.
    #[test]
    fn a_fingerprint_collision_reads_as_a_miss() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
        let engine = DsdEngine::over(&g);
        let lender = EngineLender::new(&engine, &pattern_key(&Pattern::edge()));
        let filed = [0, 1, 2, 3];
        for (members, pinned) in [(&[3, 4, 5][..], &[][..]), (&filed[..], &[1][..])] {
            // File `filed`'s network under the print the request hashes to.
            let print = member_fingerprint(members, pinned);
            let net = build_edge_network(&g, &filed);
            lender
                .slot
                .pool
                .lock()
                .unwrap()
                .insert(print, &filed, &[], net);
            assert!(
                lender.take(members, pinned).is_none(),
                "{members:?} {pinned:?}"
            );
            let kept = lender.slot.pool.lock().unwrap().remove(print, &filed, &[]);
            assert_eq!(kept.expect("still pooled").members, filed);
        }
        let stats = engine.cache_stats();
        assert_eq!((stats.network_hits, stats.network_misses), (0, 2));
    }

    /// A located-region record answers only the key it was kept under: a
    /// request whose key hashes to the print the record is filed under (a
    /// fingerprint collision) misses, whether it differs in the removed
    /// set, a Pruning switch or its kind.
    #[test]
    fn a_located_record_collision_reads_as_a_miss() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
        let engine = DsdEngine::over(&g);
        let psi = Pattern::edge();
        let cds = engine.request(&psi).method(Method::CoreExact).solve();
        assert_eq!(cds.vertices, [0, 1, 2, 3]);
        let lender = EngineLender::new(&engine, &pattern_key(&psi));
        let (print, pruning, set) = {
            let pool = lender.slot.pool.lock().unwrap();
            assert_eq!(pool.records.len(), 1);
            let (&print, kept) = pool.records.iter().next().unwrap();
            (print, kept.pruning.expect("a core key"), kept.set.clone())
        };
        let filed = RegionKey::Core {
            removed: &set,
            pruning1: pruning.0,
            pruning2: pruning.1,
        };
        let before = engine.cache_stats();
        let others = [
            RegionKey::Core {
                removed: &[5],
                pruning1: pruning.0,
                pruning2: pruning.1,
            },
            RegionKey::Core {
                removed: &set,
                pruning1: !pruning.0,
                pruning2: pruning.1,
            },
            RegionKey::Query(&set),
        ];
        for other in others {
            // File the record under the print `other` hashes to.
            {
                let mut pool = lender.slot.pool.lock().unwrap();
                let kept = pool.records.remove(&print).expect("still kept");
                pool.records.insert(region_fingerprint(&other), kept);
            }
            assert!(lender.located(&other).is_none(), "{other:?}");
            let mut pool = lender.slot.pool.lock().unwrap();
            let kept = pool.records.remove(&region_fingerprint(&other)).unwrap();
            assert!(kept.answers(&filed));
            pool.records.insert(print, kept);
        }
        assert!(lender.located(&filed).is_some());
        let after = engine.cache_stats();
        assert_eq!(after.located_misses - before.located_misses, 3);
        assert_eq!(after.located_hits - before.located_hits, 1);
    }

    /// A network `apply` carries into the next epoch is a fresh build's
    /// twin on the new graph: the same structure fingerprint, and a probe
    /// on it does the same flow work. Only the network whose members the
    /// batch misses is carried: the whole-graph `Exact` network and, after
    /// a batch inside the located core, the core's network drop.
    #[test]
    fn a_carried_network_equals_a_fresh_build_on_the_new_epoch() {
        // K5 on 0..5 with a path 5-6-7-8 hanging off it.
        let mut edges = vec![(4, 5), (5, 6), (6, 7), (7, 8)];
        for u in 0..5 {
            edges.extend(((u + 1)..5).map(|v| (u, v)));
        }
        let engine = DsdEngine::new(Graph::from_edges(9, &edges));
        let psi = Pattern::triangle();
        for method in [Method::Exact, Method::CoreExact] {
            let cds = engine.request(&psi).method(method).solve();
            assert_eq!(cds.vertices, [0, 1, 2, 3, 4]);
        }
        let pooled = |engine: &DsdEngine<'static>| {
            let epoch = engine.snapshot();
            let slot = epoch.slot(&pattern_key(&psi));
            let mut pool = slot.pool.lock().unwrap();
            let entries: Vec<Pooled> = pool.entries.drain().map(|(_, net)| net).collect();
            (epoch, entries)
        };

        // One endpoint in the core, or none: the core's network carries.
        engine.apply(&[GraphUpdate::Insert(4, 6), GraphUpdate::Delete(6, 7)]);
        let (epoch, mut carried) = pooled(&engine);
        assert_eq!(
            carried.len(),
            1,
            "the Exact network spans the changed edges"
        );
        let carried = &mut carried[0];
        assert_eq!(carried.members, [0, 1, 2, 3, 4]);
        let g = epoch.graph.graph();
        let oracle = oracle_with_policy(&psi, Parallelism::serial(), Some(DEFAULT_STORE_BUDGET));
        let mut fresh = build_network_for_with(g, &carried.members, &psi, true, oracle.as_ref());
        let net = &mut carried.net;
        assert_eq!(net.structure_fingerprint(), fresh.structure_fingerprint());
        assert_eq!(net.bytes(), fresh.bytes());
        for alpha in [1.5, 0.5, 2.5] {
            assert_eq!(net.solve(alpha), fresh.solve(alpha), "α = {alpha}");
        }
        assert_eq!(net.probe_stats(), fresh.probe_stats());

        // An edge inside the core: nothing carries.
        engine.request(&psi).method(Method::CoreExact).solve();
        engine.apply(&[GraphUpdate::Delete(0, 1)]);
        assert!(pooled(&engine).1.is_empty());
    }

    /// `apply` bumps the epoch, drops every decomposition — the edge key's
    /// classical core numbers among them — and repairs the Ψ-oracle's
    /// store through its incidence CSR, so post-update answers match a
    /// cold engine over the updated graph. A net no-op batch keeps the
    /// core numbers.
    #[test]
    fn apply_updates_drop_kcore_and_repair_psi_stores() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
        let engine = DsdEngine::new(g.clone());
        let psi = Pattern::triangle();
        let query = |engine: &DsdEngine<'_>, q: VertexId| {
            engine
                .request(&psi)
                .objective(Objective::WithQuery(vec![q]))
                .solve()
        };
        let edge_cores = |engine: &DsdEngine<'_>| {
            let slot = engine.snapshot().slot(&pattern_key(&Pattern::edge()));
            Arc::clone(slot.decomposition.get().expect("edge cores built"))
        };

        // Warm the triangle key and the edge key at epoch 0.
        let warm = engine.request(&psi).method(Method::CoreExact).solve();
        assert_eq!(warm.stats.epoch, 0);
        let anchored = query(&engine, 4);
        assert_eq!(engine.cache_stats().decomposition_builds, 2);
        assert!(anchored.vertices.contains(&4));

        // Densify the tail: 3-4-5 becomes a triangle hanging off the core.
        let stats = engine.apply(&[
            GraphUpdate::Insert(3, 5),
            GraphUpdate::Insert(3, 5), // duplicate → ignored
            GraphUpdate::Delete(0, 3),
        ]);
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.deleted, 1);
        assert_eq!(stats.ignored, 1);
        assert_eq!(stats.substrates_dropped, 2, "the two decompositions");
        assert_eq!(stats.substrates_repaired, 1, "oracle repaired in place");
        assert_eq!(stats.substrates_rebuilt, 0);
        assert_eq!(stats.rows_tombstoned, 1, "triangle 0-2-3 died with {{0,3}}");
        assert_eq!(engine.epoch(), 1);

        // The dropped core numbers rebuild once on the first read at the
        // new epoch, and the answer matches a cold engine bit for bit.
        let updated = query(&engine, 4);
        assert_eq!(updated.stats.epoch, 1);
        assert!(!updated.stats.substrate.decomposition_cache_hit);
        assert_eq!(engine.cache_stats().decomposition_builds, 3);

        let fresh = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let scratch = crate::kcore::k_core_decomposition(&fresh);
        let cold = DsdEngine::new(fresh);
        let expect = query(&cold, 4);
        assert_eq!(updated.vertices, expect.vertices);
        assert_eq!(updated.density.to_bits(), expect.density.to_bits());
        assert_eq!(updated.stats.kmax, Some(scratch.kmax as u64));

        // The rebuilt core numbers are the merged snapshot's, and a net
        // no-op batch keeps them: another query reads them as a hit.
        let cores = edge_cores(&engine);
        let classical: Vec<u64> = scratch.core.iter().map(|&c| c as u64).collect();
        assert_eq!((&cores.core, cores.kmax), (&classical, scratch.kmax as u64));
        let noop = engine.apply(&[GraphUpdate::Insert(0, 4), GraphUpdate::Delete(0, 4)]);
        assert_eq!((noop.epoch, noop.ignored), (1, 2));
        let other = query(&engine, 0);
        assert!(other.stats.substrate.decomposition_cache_hit);
        assert!(Arc::ptr_eq(&edge_cores(&engine), &cores));
        assert_eq!(engine.cache_stats().decomposition_builds, 3);
        let expect = query(&cold, 0);
        assert_eq!(other.vertices, expect.vertices);
        assert_eq!(other.density.to_bits(), expect.density.to_bits());

        // The decomposition rebuilds once at the new epoch, but the
        // repaired oracle is served as a cache hit — no store rebuild.
        let cds = engine.request(&psi).method(Method::CoreExact).solve();
        assert!(!cds.stats.substrate.decomposition_cache_hit);
        assert!(
            cds.stats.substrate.oracle_cache_hit,
            "repaired oracle survives the epoch bump"
        );
        assert_eq!(engine.cache_stats().oracle_builds, 2, "triangle and edge");
        let expect_cds = cold.request(&psi).method(Method::CoreExact).solve();
        assert_eq!(cds.vertices, expect_cds.vertices);
        assert_eq!(cds.density.to_bits(), expect_cds.density.to_bits());
    }

    /// A warm repeat of the query variant is answered from its located
    /// record: it reads no decomposition, and reports the record's kmax.
    #[test]
    fn a_repeated_query_reads_no_decomposition() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
        let engine = DsdEngine::new(g.clone());
        let req = DsdRequest::new(&Pattern::edge()).objective(Objective::WithQuery(vec![5]));
        let first = engine.solve(&req);
        let before = engine.cache_stats();
        let repeat = engine.solve(&req);
        let after = engine.cache_stats();
        assert_eq!(after.located_hits, before.located_hits + 1);
        assert_eq!(
            (after.decomposition_hits, after.decomposition_builds),
            (before.decomposition_hits, before.decomposition_builds)
        );
        let kmax = crate::kcore::k_core_decomposition(&g).kmax as u64;
        assert_eq!(
            (first.stats.kmax, repeat.stats.kmax),
            (Some(kmax), Some(kmax))
        );
        assert_eq!(repeat.vertices, first.vertices);
        assert_eq!(repeat.density.to_bits(), first.density.to_bits());
        assert!(!first.stats.substrate.located_hit && repeat.stats.substrate.located_hit);
    }

    /// The classical core numbers live in the edge key's slot, so they are
    /// counted in its bytes and go with its eviction: the next query
    /// rebuilds them, and a triangle CoreApp reads them from there.
    #[test]
    fn the_core_numbers_are_budgeted_with_the_edge_key() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
        let engine = DsdEngine::new(g.clone());
        let req = DsdRequest::new(&Pattern::triangle()).objective(Objective::WithQuery(vec![4]));
        let first = engine.solve(&req);
        let edge = pattern_key(&Pattern::edge());
        let cores = decompose(
            &g,
            oracle_with_policy(&Pattern::edge(), Parallelism::serial(), None).as_ref(),
        );
        let freed = engine.evict_substrate(&edge);
        assert!(freed >= cores.bytes() as u64, "{freed} < {}", cores.bytes());
        assert_eq!(engine.substrate_bytes(), 0);
        let builds = engine.cache_stats().decomposition_builds;
        let again = engine.solve(&req);
        assert_eq!(engine.cache_stats().decomposition_builds, builds + 1);
        let used = again.stats.substrate;
        assert!(!used.oracle_cache_hit && !used.located_hit);
        assert_eq!(again.vertices, first.vertices);
        assert_eq!(again.density.to_bits(), first.density.to_bits());

        let before = engine.cache_stats();
        let approx = engine
            .request(&Pattern::triangle())
            .method(Method::CoreApp)
            .solve();
        let after = engine.cache_stats();
        assert_eq!(after.decomposition_hits, before.decomposition_hits + 1);
        assert_eq!(after.decomposition_builds, before.decomposition_builds);
        let cold = crate::approx::core_app(&g, &Pattern::triangle());
        assert_eq!(approx.vertices, cold.result.vertices);
        assert_eq!(approx.stats.kmax, Some(cold.kmax));
    }

    /// A batch of pure no-ops leaves epoch and substrates untouched.
    #[test]
    fn noop_apply_keeps_epoch_and_caches() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2)]);
        let engine = DsdEngine::new(g);
        let psi = Pattern::triangle();
        engine.warm(&psi);
        let stats = engine.apply(&[
            GraphUpdate::Insert(0, 1), // present
            GraphUpdate::Delete(0, 3), // absent
            GraphUpdate::Insert(2, 2), // self-loop
        ]);
        assert_eq!(stats.epoch, 0);
        assert_eq!(stats.ignored, 3);
        assert_eq!(engine.epoch(), 0);
        let s = engine.request(&psi).method(Method::PeelApp).solve();
        assert!(
            s.stats.substrate.decomposition_cache_hit,
            "no-op batch must not drop warm substrates"
        );
    }

    /// An oracle no query has built yet is swapped for a fresh one at the
    /// CSR merge: a request still running on the pre-update snapshot may
    /// hold the old `Arc` and build its store against the old graph, and
    /// that store must not be served at the new epoch.
    #[test]
    fn unbuilt_oracle_held_across_a_merge_is_not_served_stale() {
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4), (4, 5)]);
        let engine = DsdEngine::new(g);
        let psi = Pattern::triangle();
        let old = engine.graph();
        let (held, _) = engine.oracle(&engine.snapshot().slot(&pattern_key(&psi)), &psi);
        assert!(held.store_stats().is_none(), "nothing built yet");

        engine.apply(&[GraphUpdate::Insert(2, 3)]);
        let merged = engine.graph();
        assert_eq!(merged.epoch(), 1);
        // The in-flight request builds its store on the old snapshot.
        assert_eq!(held.store(&old).expect("store builds").total_instances(), 2);

        let warm = engine.request(&psi).method(Method::CoreExact).solve();
        let cold = DsdEngine::new(Graph::clone(&merged))
            .request(&psi)
            .method(Method::CoreExact)
            .solve();
        assert_eq!(cold.density, 1.0, "K4 on {{0, 1, 2, 3}}");
        assert_eq!(warm.vertices, cold.vertices);
        assert_eq!(warm.density.to_bits(), cold.density.to_bits());
    }

    /// A real oracle for Ψ that reports a materialized store, so `apply`
    /// repairs it, and panics in that repair; everything else delegates.
    pub(crate) struct RepairPanics(pub(crate) Arc<dyn DensityOracle>);

    impl RepairPanics {
        /// Wraps the oracle an engine would build for `psi`.
        pub(crate) fn oracle(psi: &Pattern) -> Arc<dyn DensityOracle> {
            let inner = oracle_with_policy(psi, Parallelism::serial(), Some(DEFAULT_STORE_BUDGET));
            Arc::new(RepairPanics(Arc::from(inner)))
        }
    }

    impl DensityOracle for RepairPanics {
        fn psi_size(&self) -> usize {
            self.0.psi_size()
        }

        fn degrees(&self, g: &Graph, alive: &VertexSet) -> Vec<u64> {
            self.0.degrees(g, alive)
        }

        fn removal_decrements(
            &self,
            g: &Graph,
            alive: &VertexSet,
            v: VertexId,
        ) -> Vec<(VertexId, u64)> {
            self.0.removal_decrements(g, alive, v)
        }

        fn count(&self, g: &Graph, alive: &VertexSet) -> u64 {
            self.0.count(g, alive)
        }

        fn peeler<'a>(
            &'a self,
            g: &'a Graph,
            alive: &VertexSet,
        ) -> Option<Box<dyn InstancePeeler + 'a>> {
            self.0.peeler(g, alive)
        }

        fn store_stats(&self) -> Option<StoreStats> {
            Some(StoreStats {
                materialized: true,
                ..StoreStats::default()
            })
        }

        fn resident_bytes(&self) -> u64 {
            self.0.resident_bytes()
        }

        fn store(&self, g: &Graph) -> Option<&InstanceStore> {
            self.0.store(g)
        }

        fn repair_for_update(
            &self,
            _: &Graph,
            _: &Graph,
            _: &[(VertexId, VertexId)],
            _: &[(VertexId, VertexId)],
        ) -> SubstrateRepair {
            panic!("injected repair fault");
        }
    }

    impl DsdEngine<'_> {
        /// Puts `oracle` in Ψ's slot of the current epoch, in place of the
        /// one the engine would build.
        pub(crate) fn install_oracle(&self, psi: &Pattern, oracle: Arc<dyn DensityOracle>) {
            let slot = self.current().slot(&pattern_key(psi));
            assert!(slot.oracle.set(oracle).is_ok(), "Ψ's oracle is built");
        }
    }

    /// A panicking `apply` publishes nothing. When the repair of a stored
    /// oracle panics, the epoch stays, requests answer bit-identically to
    /// a cold engine over the old graph, and once the faulty oracle is
    /// evicted the same batch commits and answers like a cold engine over
    /// the new graph.
    #[test]
    fn a_panicking_repair_publishes_nothing() {
        let edges = [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)];
        let g = Graph::from_edges(6, &edges);
        let psi = Pattern::triangle();
        let requests = [
            DsdRequest::new(&psi).method(Method::CoreExact),
            DsdRequest::new(&psi).objective(Objective::TopK(2)),
            DsdRequest::new(&psi).objective(Objective::WithQuery(vec![5])),
        ];
        let assert_answers = |engine: &DsdEngine<'_>, g: &Graph, epoch: u64| {
            let cold = DsdEngine::over(g);
            for req in &requests {
                let (got, want) = (engine.solve(req), cold.solve(req));
                assert_eq!(got.stats.epoch, epoch);
                assert_eq!(got.subgraphs.len(), want.subgraphs.len());
                for (a, b) in got.subgraphs.iter().zip(&want.subgraphs) {
                    assert_eq!(a.vertices, b.vertices, "{req:?}");
                    assert_eq!(a.density.to_bits(), b.density.to_bits(), "{req:?}");
                }
            }
        };

        let engine = DsdEngine::new(g.clone());
        engine.install_oracle(&psi, RepairPanics::oracle(&psi));
        assert_answers(&engine, &g, 0);
        let batch = [GraphUpdate::Insert(1, 3), GraphUpdate::Delete(3, 4)];
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.apply(&batch);
        }));
        assert!(failed.is_err(), "the repair panics");
        assert_eq!(engine.epoch(), 0);
        assert_answers(&engine, &g, 0);

        assert!(engine.evict_substrate(&pattern_key(&psi)) > 0);
        let stats = engine.apply(&batch);
        assert_eq!((stats.epoch, stats.inserted, stats.deleted), (1, 1, 1));
        let mut updated = edges.to_vec();
        updated.retain(|&e| e != (3, 4));
        updated.push((1, 3));
        assert_answers(&engine, &Graph::from_edges(6, &updated), 1);
    }

    /// Borrowed engines copy on write: the first effective apply detaches
    /// the engine's graph from the borrowed CSR.
    #[test]
    fn borrowed_engine_applies_updates_copy_on_write() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let engine = DsdEngine::over(&g);
        let stats = engine.apply(&[GraphUpdate::Insert(1, 2), GraphUpdate::Insert(0, 2)]);
        assert_eq!(stats.inserted, 2);
        assert_eq!(engine.graph().num_edges(), 3);
        assert_eq!(g.num_edges(), 1, "borrowed base graph is untouched");
        let s = engine.request(&Pattern::triangle()).solve();
        assert_eq!(s.vertices, vec![0, 1, 2]);
    }

    /// Forwards flow networks to the engine's lender but keeps no
    /// located-region records, so every request locates afresh.
    struct RecordlessLender<'a>(&'a dyn NetworkLender);

    impl NetworkLender for RecordlessLender<'_> {
        fn take(&self, members: &[VertexId], pinned: &[VertexId]) -> Option<DensityNetwork> {
            self.0.take(members, pinned)
        }

        fn put(&self, members: &[VertexId], pinned: &[VertexId], net: DensityNetwork) {
            self.0.put(members, pinned, net);
        }

        fn located(&self, _: &RegionKey<'_>) -> Option<Located> {
            None
        }

        fn keep_located(&self, _: &RegionKey<'_>, _: Located) {}
    }

    /// Runs `objective`'s CoreExact-family search on `engine`'s caches and
    /// networks, without records: the subgraphs found and the search
    /// stats.
    fn without_records(
        engine: &DsdEngine<'_>,
        psi: &Pattern,
        objective: &Objective,
    ) -> (Vec<DsdResult>, ExactStats) {
        let req = DsdRequest::new(psi).objective(objective.clone());
        let (psi, key) = req.cache_key();
        let lender = EngineLender::new(engine, &key);
        let recordless = RecordlessLender(&lender);
        let s = Substrates::cached(lender.graph(), &psi, &lender, Some(&recordless));
        let config = CoreExactConfig::default();
        match objective {
            Objective::Densest => {
                let (r, stats) = s.core_exact(config);
                (vec![r], stats.exact)
            }
            Objective::TopK(k) => {
                let scan = s.top_k(*k, config).expect("k > 0");
                (scan.subgraphs, scan.exact)
            }
            Objective::WithQuery(q) => {
                let (r, stats, _) = s.densest_with_query(q).expect("a valid query");
                (vec![r], stats)
            }
            _ => unreachable!("only CoreExact-family objectives keep records"),
        }
    }

    /// Two random blocks (0..40 at 30%, 40..80 at 20%) and a few bridges,
    /// so TopK's later rounds locate in a residual core of their own.
    fn two_blocks(seed: u64) -> Graph {
        let mut rng = dsd_graph::testing::XorShift::new(seed);
        let mut edges = Vec::new();
        for (block, percent) in [(0u32..40, 30), (40..80, 20)] {
            for u in block.clone() {
                for v in (u + 1)..block.end {
                    if rng.next() % 100 < percent {
                        edges.push((u, v));
                    }
                }
            }
        }
        for _ in 0..4 {
            edges.push(((rng.next() % 40) as u32, 40 + (rng.next() % 40) as u32));
        }
        Graph::from_edges(80, &edges)
    }

    /// A located-region record changes nothing but the work skipped. An
    /// engine serving Densest, TopK(3) and WithQuery from its records —
    /// the round that locates, the warm repeat that hits, and the round
    /// after an update — returns the answers, density bits, probes,
    /// augment work and network-node series of an engine that locates on
    /// every request.
    #[test]
    fn located_records_leave_answers_and_flow_counters_unchanged() {
        for seed in [3, 17] {
            let g = two_blocks(seed);
            let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
            let query = vec![hub, 79];
            let kept = DsdEngine::new(g.clone());
            let recordless = DsdEngine::new(g.clone());
            for round in 0..4 {
                if round == 2 {
                    let (u, v) = g.edges().nth(seed as usize).unwrap();
                    for engine in [&kept, &recordless] {
                        engine.apply(&[GraphUpdate::Delete(u, v), GraphUpdate::Insert(0, 79)]);
                    }
                }
                for psi in [Pattern::edge(), Pattern::triangle()] {
                    let objectives = [
                        Objective::Densest,
                        Objective::TopK(3),
                        Objective::WithQuery(query.clone()),
                    ];
                    for objective in objectives {
                        let label =
                            format!("seed {seed} round {round} {} {objective:?}", psi.name());
                        let got = kept
                            .request(&psi)
                            .objective(objective.clone())
                            .method(Method::CoreExact)
                            .solve();
                        let (subgraphs, stats) = without_records(&recordless, &psi, &objective);
                        let found: Vec<DsdResult> =
                            subgraphs.into_iter().filter(|r| !r.is_empty()).collect();
                        assert_eq!(got.subgraphs.len(), found.len(), "{label}");
                        for (a, b) in got.subgraphs.iter().zip(&found) {
                            assert_eq!(a.vertices, b.vertices, "{label}");
                            assert_eq!(a.density.to_bits(), b.density.to_bits(), "{label}");
                        }
                        assert_eq!(got.stats.flow_iterations, stats.iterations, "{label}");
                        assert_eq!(got.stats.flow_augment_work, stats.augment_work, "{label}");
                        assert_eq!(got.stats.flow_resolve_hits, stats.resolve_hits, "{label}");
                        assert_eq!(got.stats.network_nodes, stats.network_nodes, "{label}");
                    }
                }
            }
            let (with, without) = (kept.cache_stats(), recordless.cache_stats());
            assert!(with.located_hits > 0 && with.located_misses > 0);
            assert_eq!((without.located_hits, without.located_misses), (0, 0));
            assert_eq!(with.network_hits, without.network_hits);
            assert_eq!(with.network_misses, without.network_misses);
        }
    }
}
