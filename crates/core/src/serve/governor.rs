//! The global substrate governor: one byte budget over every engine.
//!
//! Each engine's substrate cache is grow-only between updates — left
//! alone, a catalog serving many graphs and patterns accumulates the sum
//! of *all* their instance stores and decompositions. The governor turns
//! that into a bounded working set. The pipeline settles it after every
//! job ([`SubstrateGovernor::settle`]): it stamps the `(engine, canonical
//! Ψ)` key the job's query used, folds the cache-resident bytes of every
//! live engine's current epoch, whose slots each know their own size, and
//! while the total is over the budget it evicts the least-recently-used
//! unpinned key by calling [`DsdEngine::evict_substrate`]. It keeps no
//! copy of any size, so updates, merges and dropped engines need no
//! bookkeeping here: their bytes enter or leave at the next fold.
//!
//! A job stamps only its own key, but it may fill another: a CoreApp
//! request for an h-clique with h ≥ 3 reads the classical core numbers
//! from the edge key's slot. That slot is counted and evictable like any
//! other, and, unstamped, it is evicted first under pressure, as are keys
//! warmed outside the pipeline.
//!
//! Substrates are the factorised materialized views of the serving layer:
//! expensive to build, cheap to share, and — because every consumer holds
//! its own `Arc` — always safe to drop from the cache. Eviction severs
//! only the cache's reference; an in-flight request that already resolved
//! its oracle finishes on it untouched, and the bytes return when the
//! last holder drops. [`SubstrateLease`] adds a working-set pin on top:
//! the pipeline pins the key a request is about to use so the LRU never
//! thrashes it mid-request (safety never depends on it, residency does).
//!
//! Lock order: engines never call out. The governor takes an engine's
//! epoch and slot locks (in its fold and in `evict_substrate`) while
//! holding its own mutex, and no engine lock is ever held while the
//! governor's is taken.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError, Weak};

use crate::engine::{DsdEngine, PatternKey};

/// One cache slot: the engine that holds it and its Ψ key.
type SlotKey = (u64, PatternKey);

#[derive(Default)]
struct GovState {
    /// Engines under governance, by id. `Weak`: the governor never keeps
    /// an evicted engine alive. Dead handles are shed on every `attach`
    /// and settlement.
    engines: HashMap<u64, Weak<DsdEngine<'static>>>,
    /// Working-set pins held by in-flight requests ([`SubstrateLease`]).
    pins: HashMap<SlotKey, u32>,
    /// LRU stamps: the tick of the last query settled under each key. An
    /// update settles without stamping, so a repair keeps the stamp.
    stamps: HashMap<SlotKey, u64>,
    /// Keys the governor evicted, pending their rebuild (distinguishes a
    /// governor-induced rebuild from a plain cold build in the counters).
    evicted: HashSet<SlotKey>,
    /// Logical clock for LRU stamps.
    tick: u64,
    /// Max total settled after a job (after eviction — the resident
    /// footprint the budget actually bounds).
    peak: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    rebuilds: u64,
    violations: u64,
}

/// The governor's counters and footprint, read through
/// [`crate::serve::DsdServer::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// Served queries that found their substrate cached.
    pub hits: u64,
    /// Served queries that paid a cold substrate build.
    pub misses: u64,
    /// LRU evictions performed to stay under budget.
    pub evictions: u64,
    /// Of the misses, rebuilds of a key the governor itself evicted —
    /// the thrash signal (a budget far below the working set shows up
    /// here first).
    pub rebuilds: u64,
    /// Settlements where eviction could not get the total under budget
    /// (every remaining key pinned). Zero in a healthy run.
    pub violations: u64,
    /// Cache-resident bytes summed over every live engine, at the time
    /// the stats are read.
    pub resident_bytes: u64,
    /// Max total settled after a job.
    pub peak_bytes: u64,
    /// Cache slots holding bytes, over every live engine.
    pub entries: usize,
}

/// The LRU byte governor over all engines in a catalog.
/// [`crate::serve::DsdServer`] attaches every engine it registers and
/// settles the governor after every job.
pub(crate) struct SubstrateGovernor {
    budget: Option<u64>,
    state: Mutex<GovState>,
}

impl SubstrateGovernor {
    /// A governor enforcing `budget` bytes across all attached engines
    /// (`None` = account and count, never evict).
    pub(crate) fn new(budget: Option<u64>) -> Arc<Self> {
        Arc::new(SubstrateGovernor {
            budget,
            state: Mutex::new(GovState::default()),
        })
    }

    /// Puts `engine` under governance: its bytes enter the next fold, and
    /// its keys become eviction candidates.
    pub(crate) fn attach(&self, engine: &Arc<DsdEngine<'static>>) {
        let mut state = self.state.lock().unwrap();
        state.shed_dead_engines();
        state.engines.insert(engine.id(), Arc::downgrade(engine));
    }

    /// Pins `(engine, key)` against eviction for the lease's lifetime.
    /// Pins nest; the key rejoins the LRU when the last lease drops.
    pub(crate) fn lease(self: &Arc<Self>, engine: u64, key: &PatternKey) -> SubstrateLease {
        let slot = (engine, key.clone());
        let mut state = self.state.lock().unwrap();
        *state.pins.entry(slot.clone()).or_insert(0) += 1;
        drop(state);
        SubstrateLease {
            governor: Arc::clone(self),
            slot,
        }
    }

    /// Current counters, with the footprint folded afresh.
    pub(crate) fn stats(&self) -> GovernorStats {
        let state = self.state.lock().unwrap();
        let (mut resident_bytes, mut entries) = (0, 0);
        state.fold(|_, _, bytes| {
            resident_bytes += bytes;
            entries += 1;
        });
        GovernorStats {
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            rebuilds: state.rebuilds,
            violations: state.violations,
            resident_bytes,
            peak_bytes: state.peak,
            entries,
        }
    }

    /// Settles one finished job. A query that answered passes its
    /// `(engine, key, hit)`: the key `solve` read and filled, and whether
    /// its substrate was cached. It is counted and stamped most recently
    /// used; every other job (an update, a shed or a panicking one)
    /// stamps nothing. Then the bytes of every live engine are folded,
    /// the unpinned keys with the oldest stamps are evicted while the
    /// total is over the budget, and the settled total is recorded as a
    /// peak candidate.
    pub(crate) fn settle(&self, query: Option<(u64, PatternKey, bool)>) {
        let mut state = self.state.lock().unwrap();
        if let Some((engine, key, hit)) = query {
            let slot = (engine, key);
            if hit {
                state.hits += 1;
            } else {
                state.misses += 1;
                if state.evicted.remove(&slot) {
                    state.rebuilds += 1;
                }
            }
            state.tick += 1;
            let tick = state.tick;
            state.stamps.insert(slot, tick);
        }
        state.shed_dead_engines();
        let mut total = 0;
        state.fold(|_, _, bytes| total += bytes);
        if let Some(budget) = self.budget.filter(|&budget| total > budget) {
            // Oldest first; a key no query settled yet (warmed outside the
            // pipeline) counts as oldest of all.
            let mut victims: Vec<(u64, SlotKey, u64)> = Vec::new();
            state.fold(|engine, key, bytes| {
                let slot = (engine, key.clone());
                if !state.pins.contains_key(&slot) {
                    let stamp = state.stamps.get(&slot).copied().unwrap_or(0);
                    victims.push((stamp, slot, bytes));
                }
            });
            victims.sort_unstable();
            let mut victims = victims.into_iter();
            while total > budget {
                let Some((_, slot, bytes)) = victims.next() else {
                    // Everything left is pinned: the in-flight working set
                    // alone exceeds the budget. Count it and stop —
                    // shrinking below the pins would only thrash active
                    // requests.
                    state.violations += 1;
                    break;
                };
                if let Some(engine) = state.engines.get(&slot.0).and_then(Weak::upgrade) {
                    engine.evict_substrate(&slot.1);
                }
                total -= bytes;
                state.evictions += 1;
                state.evicted.insert(slot);
            }
        }
        state.peak = state.peak.max(total);
    }
}

impl GovState {
    /// Calls `visit` with every key a live engine's current epoch holds
    /// bytes for, and those bytes.
    fn fold(&self, mut visit: impl FnMut(u64, &PatternKey, u64)) {
        for (&id, engine) in &self.engines {
            if let Some(engine) = engine.upgrade() {
                engine.visit_slots(|key, bytes| {
                    if bytes > 0 {
                        visit(id, key, bytes);
                    }
                });
            }
        }
    }

    /// Forgets engines that have dropped, with their stamps and eviction
    /// marks. Every reader already treats a dead handle as absent, so this
    /// only bounds the maps by the live catalog.
    fn shed_dead_engines(&mut self) {
        self.engines.retain(|_, engine| engine.strong_count() > 0);
        let live = &self.engines;
        self.stamps.retain(|(id, _), _| live.contains_key(id));
        self.evicted.retain(|(id, _)| live.contains_key(id));
    }
}

/// An eviction pin on one `(engine, Ψ)` key, from
/// [`SubstrateGovernor::lease`]. Dropping it releases the pin.
pub(crate) struct SubstrateLease {
    governor: Arc<SubstrateGovernor>,
    slot: SlotKey,
}

impl Drop for SubstrateLease {
    fn drop(&mut self) {
        // Every update of the state leaves it valid, so a poisoned lock is
        // recovered: a panic here would abort a thread already unwinding.
        let mut state = self
            .governor
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(count) = state.pins.get_mut(&self.slot) {
            *count -= 1;
            if *count == 0 {
                state.pins.remove(&self.slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::pattern_key;
    use crate::serve::{DsdServer, ServeConfig, ServeError, ServeOutcome, Ticket};
    use crate::{DsdRequest, Method, Objective};
    use dsd_graph::{Graph, GraphUpdate};
    use dsd_motif::Pattern;

    /// Re-registering or evicting governed graphs must not grow the
    /// engine map: it holds exactly the live engines.
    #[test]
    fn engine_map_holds_only_live_engines() {
        let governor = SubstrateGovernor::new(None);
        let keep: Vec<_> = (0..3)
            .map(|_| Arc::new(DsdEngine::new(Graph::empty(2))))
            .collect();
        for engine in &keep {
            governor.attach(engine);
        }
        for _ in 0..100 {
            let engine = Arc::new(DsdEngine::new(Graph::from_edges(3, &[(0, 1), (1, 2)])));
            governor.attach(&engine);
        }
        let engines = |g: &SubstrateGovernor| {
            let mut ids: Vec<u64> = g.state.lock().unwrap().engines.keys().copied().collect();
            ids.sort_unstable();
            ids
        };
        let mut live: Vec<u64> = keep.iter().map(|e| e.id()).collect();
        live.sort_unstable();
        // A settlement keeps the live handles and sheds the dropped ones.
        governor.settle(None);
        assert_eq!(engines(&governor), live);
        drop(keep);
        governor.settle(None);
        assert!(engines(&governor).is_empty());
    }

    /// The query variant runs on the edge key whatever Ψ it names, so
    /// that is the key its job pins and settles. A warm repeat, answered
    /// from its located record, is a hit; once the governor evicts the
    /// edge key, the next repeat is a miss and a rebuild.
    #[test]
    fn the_query_variant_settles_under_the_edge_key() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let query = DsdRequest::new(&Pattern::triangle()).objective(Objective::WithQuery(vec![3]));
        let densest = DsdRequest::new(&Pattern::triangle()).method(Method::CoreExact);
        let held = |req: &DsdRequest| {
            let engine = DsdEngine::new(g.clone());
            engine.solve(req);
            engine.substrate_bytes()
        };
        // Room for either key, not both.
        let budget = held(&query).max(held(&densest));
        let server = DsdServer::new(ServeConfig {
            workers: 0,
            substrate_budget: Some(budget),
            ..ServeConfig::default()
        });
        let engine = server.register("g", g.clone());
        let run = |req: &DsdRequest| {
            let ticket = server.submit(req.clone().on("g")).expect("admitted");
            assert!(server.step(), "the submitted job is dispatchable");
            ticket.wait().expect("served");
            server.stats().governor
        };
        let counts = |s: GovernorStats| (s.hits, s.misses, s.rebuilds, s.evictions);

        assert_eq!(counts(run(&query)), (0, 1, 0, 0), "cold");
        {
            let state = server.governor().state.lock().unwrap();
            let stamped: Vec<&SlotKey> = state.stamps.keys().collect();
            assert_eq!(stamped, [&(engine.id(), pattern_key(&Pattern::edge()))]);
        }
        assert_eq!(counts(run(&query)), (1, 1, 0, 0), "a warm repeat hits");
        assert_eq!(
            counts(run(&densest)),
            (1, 2, 0, 1),
            "the edge key is evicted"
        );
        assert_eq!(
            counts(run(&query)),
            (1, 3, 1, 2),
            "the repeat after the eviction misses and rebuilds"
        );
    }

    /// The LRU policy, through a pool-less server: two engines over one
    /// graph, three keys — (a, triangle), (b, triangle), (a, edge) — and a
    /// budget that fits any two of them but not all three. The key settled
    /// least recently is evicted; an update settles without stamping; the
    /// evicted key's next request is a miss and a rebuild; and a pinned
    /// key is skipped, or counted as a violation once nothing else is left.
    #[test]
    fn settling_evicts_the_least_recently_settled_unpinned_key() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
        let (edge, triangle) = (Pattern::edge(), Pattern::triangle());
        let update = vec![GraphUpdate::Insert(1, 5)];
        // What one key holds after its query, and after an update too.
        let held = |psi: &Pattern, updates: &[GraphUpdate]| {
            let engine = DsdEngine::new(g.clone());
            engine.solve(&DsdRequest::new(psi).method(Method::CoreExact));
            engine.apply(updates);
            engine.substrate_bytes()
        };
        let (tri, edge_bytes) = (held(&triangle, &[]), held(&edge, &[]));
        let updated = held(&triangle, &update);
        let budget = (2 * tri).max(tri + edge_bytes);
        assert!(
            tri + updated + edge_bytes > budget,
            "the three keys overflow the budget after the update too: {tri} {edge_bytes} {updated}"
        );

        let server = DsdServer::new(ServeConfig {
            workers: 0,
            substrate_budget: Some(budget),
            ..ServeConfig::default()
        });
        let a = server.register("a", g.clone());
        let b = server.register("b", g.clone());
        let run = |ticket: Result<Ticket, ServeError>| {
            let ticket = ticket.expect("admitted");
            assert!(server.step(), "the submitted job is dispatchable");
            ticket.wait().expect("served")
        };
        let query = |name: &str, psi: &Pattern| {
            run(server.submit(DsdRequest::new(psi).on(name).method(Method::CoreExact)))
        };
        let governed = || server.stats().governor;
        let held_now = || (a.substrate_bytes(), b.substrate_bytes());

        query("a", &triangle);
        query("b", &triangle);
        assert_eq!(governed().evictions, 0, "two keys fit");
        query("a", &edge);
        assert_eq!(governed().evictions, 1);
        assert_eq!(held_now(), (edge_bytes, tri), "(a, triangle) was oldest");

        let applied = run(server.submit_update("b", update.clone()));
        assert!(matches!(applied, ServeOutcome::Updated(_)));
        assert_eq!(held_now(), (edge_bytes, updated));
        let before = governed();
        query("a", &triangle);
        let after = governed();
        assert_eq!(
            (
                after.hits - before.hits,
                after.misses - before.misses,
                after.rebuilds - before.rebuilds
            ),
            (0, 1, 1),
            "the evicted key is rebuilt"
        );
        assert_eq!(after.evictions, 2);
        assert_eq!(
            held_now(),
            (tri + edge_bytes, 0),
            "the update left (b, triangle) older than (a, edge)"
        );

        let governor = server.governor();
        let pin = |engine: &DsdEngine<'static>, psi: &Pattern| {
            governor.lease(engine.id(), &pattern_key(psi))
        };
        let edge_pin = pin(&a, &edge);
        query("b", &triangle);
        assert_eq!(governed().evictions, 3);
        assert_eq!(
            held_now(),
            (edge_bytes, tri),
            "the pinned (a, edge) is skipped"
        );

        let pins = [pin(&a, &triangle), pin(&b, &triangle)];
        query("a", &triangle);
        let stats = governed();
        assert_eq!((stats.evictions, stats.violations), (3, 1));
        assert_eq!(held_now(), (tri + edge_bytes, tri), "every key is pinned");
        assert_eq!(stats.resident_bytes, 2 * tri + edge_bytes);
        assert!(stats.resident_bytes > budget && stats.peak_bytes == stats.resident_bytes);
        drop((pins, edge_pin));
    }
}
