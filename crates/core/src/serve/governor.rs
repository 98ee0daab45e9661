//! The global substrate governor: one byte budget over every engine.
//!
//! Each engine's substrate cache is grow-only between updates — left
//! alone, a catalog serving many graphs and patterns accumulates the sum
//! of *all* their instance stores and decompositions. The governor turns
//! that into a bounded working set: it observes every substrate touch
//! through [`CacheObserver`], keeps an LRU ledger of `(engine, canonical
//! Ψ)` entries with their cache-resident bytes, and when the total
//! crosses the budget it evicts the least-recently-used unpinned entry by
//! calling back into [`DsdEngine::evict_substrate`].
//!
//! Substrates are the factorised materialized views of the serving layer:
//! expensive to build, cheap to share, and — because every consumer holds
//! its own `Arc` — always safe to drop from the cache. Eviction severs
//! only the cache's reference; an in-flight request that already resolved
//! its oracle finishes on it untouched, and the bytes return when the
//! last holder drops. [`SubstrateLease`] adds a working-set pin on top:
//! the pipeline pins the entry a request is about to use so the LRU never
//! thrashes an entry mid-request (the "epoch lease" — safety never
//! depends on it, residency does).
//!
//! Lock order: the governor may take an engine's current-epoch pointer
//! and slot-map locks (via `evict_substrate` and the `key_bytes` read)
//! while holding its own mutex; engines never enter the governor while
//! holding any lock of their own — not even the writer mutex an update
//! holds while it stages the next epoch (see [`CacheObserver`]). One
//! subtlety is handled explicitly: upgrading a [`Weak`] engine handle
//! inside the governor's critical section could make this thread the
//! *last* strong reference — dropping it would run the engine's `Drop`,
//! which calls back into the governor and would self-deadlock. Every
//! method therefore defers dropping upgraded handles until after its
//! guard is released.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, Weak};

use crate::engine::{CacheObserver, DsdEngine, PatternKey};

/// One ledgered cache entry: the engine epoch it belongs to, its
/// cache-resident bytes, and its LRU stamp.
struct Entry {
    epoch: u64,
    bytes: u64,
    last_used: u64,
}

#[derive(Default)]
struct GovState {
    /// Engines under governance, by id. `Weak`: the governor must never
    /// keep an evicted engine alive (its `Drop` is what reports the
    /// bytes back). Dead handles are shed on every `attach` and release.
    engines: HashMap<u64, Weak<DsdEngine<'static>>>,
    /// The ledger: cache-resident bytes per `(engine, canonical Ψ)`.
    entries: HashMap<(u64, PatternKey), Entry>,
    /// Working-set pins held by in-flight requests ([`SubstrateLease`]).
    /// Kept separate from `entries` so a pin outlives ledger churn.
    pins: HashMap<(u64, PatternKey), u32>,
    /// Keys the governor evicted, pending their rebuild (distinguishes a
    /// governor-induced rebuild from a plain cold build in the counters).
    evicted: HashSet<(u64, PatternKey)>,
    /// Logical clock for LRU stamps.
    tick: u64,
    /// Ledger total (Σ `entries[*].bytes`).
    total: u64,
    /// Max ledger total observed at settlement points (after budget
    /// enforcement — the resident footprint the budget actually bounds).
    peak: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    rebuilds: u64,
    violations: u64,
}

/// Cumulative governor counters, from [`SubstrateGovernor::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// Requests served from a governed substrate cache.
    pub hits: u64,
    /// Requests that paid a cold substrate build.
    pub misses: u64,
    /// LRU evictions performed to stay under budget.
    pub evictions: u64,
    /// Of the misses, rebuilds of an entry the governor itself evicted —
    /// the thrash signal (a budget far below the working set shows up
    /// here first).
    pub rebuilds: u64,
    /// Settlement points where eviction could not get the ledger under
    /// budget (every remaining entry pinned). Zero in a healthy run.
    pub violations: u64,
    /// Current ledger total in bytes.
    pub resident_bytes: u64,
    /// Max settled ledger total observed.
    pub peak_bytes: u64,
    /// Live ledger entries.
    pub entries: usize,
}

/// The LRU byte governor over all engines in a catalog. Construct with
/// [`SubstrateGovernor::new`], then [`attach`](Self::attach) every engine
/// ([`crate::serve::DsdServer`] does this on `register`).
pub struct SubstrateGovernor {
    budget: Option<u64>,
    state: Mutex<GovState>,
}

impl SubstrateGovernor {
    /// A governor enforcing `budget` bytes across all attached engines
    /// (`None` = observe and count, never evict).
    pub fn new(budget: Option<u64>) -> Arc<Self> {
        Arc::new(SubstrateGovernor {
            budget,
            state: Mutex::new(GovState::default()),
        })
    }

    /// The configured byte budget.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Puts `engine` under governance: future substrate traffic is
    /// ledgered, and its entries become eviction candidates.
    pub fn attach(self: &Arc<Self>, engine: &Arc<DsdEngine<'static>>) {
        {
            let mut state = self.state.lock().unwrap();
            state.shed_dead_engines();
            state.engines.insert(engine.id(), Arc::downgrade(engine));
        }
        engine.set_cache_observer(Some(Arc::clone(self) as Arc<dyn CacheObserver>));
    }

    /// Pins `(engine, key)` against eviction for the lease's lifetime.
    /// Pins nest; the entry rejoins the LRU when the last lease drops.
    pub fn lease(self: &Arc<Self>, engine: u64, key: PatternKey) -> SubstrateLease {
        {
            let mut state = self.state.lock().unwrap();
            *state.pins.entry((engine, key.clone())).or_insert(0) += 1;
        }
        SubstrateLease {
            governor: Arc::clone(self),
            key: (engine, key),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> GovernorStats {
        let state = self.state.lock().unwrap();
        GovernorStats {
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            rebuilds: state.rebuilds,
            violations: state.violations,
            resident_bytes: state.total,
            peak_bytes: state.peak,
            entries: state.entries.len(),
        }
    }

    /// `(ledger, actual)`: the governor's byte total vs. ground truth —
    /// `substrate_bytes()` summed over every live attached engine. The
    /// two agree at quiescence (no solve or update in flight) as long as
    /// all substrate traffic flows through governed `solve` calls;
    /// mid-build they transiently diverge.
    pub fn reconcile(&self) -> (u64, u64) {
        let (ledger, engines): (u64, Vec<Weak<DsdEngine<'static>>>) = {
            let state = self.state.lock().unwrap();
            (state.total, state.engines.values().cloned().collect())
        };
        // Upgrade outside the lock: summing here may be the last strong
        // reference's drop site, which re-enters the governor.
        let actual = engines
            .iter()
            .filter_map(Weak::upgrade)
            .map(|e| e.substrate_bytes())
            .sum();
        (ledger, actual)
    }

    /// Debug-asserts the ledger matches ground truth. Call only at
    /// quiescent points (after a drain); a no-op in release builds.
    pub fn debug_assert_reconciled(&self) {
        if cfg!(debug_assertions) {
            let (ledger, actual) = self.reconcile();
            assert_eq!(
                ledger, actual,
                "governor ledger drifted from summed substrate_bytes()"
            );
        }
    }

    /// Evicts LRU entries until the ledger fits the budget (if any), then
    /// records the settled total as a peak candidate. Returns
    /// engine handles whose drop must be deferred past the caller's
    /// guard release (see the module docs on the self-deadlock hazard).
    fn enforce(&self, state: &mut GovState) -> Vec<Arc<DsdEngine<'static>>> {
        let mut deferred = Vec::new();
        while self.budget.is_some_and(|budget| state.total > budget) {
            let victim = state
                .entries
                .iter()
                .filter(|(key, _)| state.pins.get(*key).copied().unwrap_or(0) == 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(key, _)| key.clone());
            let Some(key) = victim else {
                // Everything left is pinned: the in-flight working set
                // alone exceeds the budget. Count it and stop — shrinking
                // below the pins would only thrash active requests.
                state.violations += 1;
                break;
            };
            let entry = state.entries.remove(&key).expect("victim is ledgered");
            state.total -= entry.bytes;
            state.evictions += 1;
            if let Some(engine) = state.engines.get(&key.0).and_then(Weak::upgrade) {
                engine.evict_substrate(&key.1);
                state.evicted.insert(key);
                deferred.push(engine);
            }
            // A dead engine's entries are stale bookkeeping; dropping
            // them from the ledger is the whole eviction.
        }
        state.peak = state.peak.max(state.total);
        deferred
    }

    /// Ledgers `(engine, key)` at `epoch` and enforces the budget. The
    /// footprint is read inside the governor's critical section: a value
    /// read outside could go stale against this governor's own concurrent
    /// evictions (record-after-evict would resurrect a dead entry), while
    /// a read under the governor lock cannot, because evictions only
    /// happen under it too. A footprint of 0 (streaming-only substrate,
    /// a dropped cache half, or an epoch that moved on) removes the entry.
    /// `used` stamps the entry most-recently-used; a repair keeps an
    /// existing entry's stamp. Returns the engine handles whose drop must
    /// wait until the caller releases its guard.
    fn record(
        &self,
        state: &mut GovState,
        engine: u64,
        key: &PatternKey,
        epoch: u64,
        used: bool,
    ) -> Vec<Arc<DsdEngine<'static>>> {
        state.tick += 1;
        let tick = state.tick;
        let handle = state.engines.get(&engine).and_then(Weak::upgrade);
        let bytes = handle.as_ref().map_or(0, |e| e.key_bytes(key, epoch));
        let ledger_key = (engine, key.clone());
        if bytes == 0 {
            if let Some(old) = state.entries.remove(&ledger_key) {
                state.total -= old.bytes;
            }
        } else {
            let last_used = match state.entries.get(&ledger_key) {
                Some(e) if !used => e.last_used,
                _ => tick,
            };
            let old = state.entries.insert(
                ledger_key,
                Entry {
                    epoch,
                    bytes,
                    last_used,
                },
            );
            state.total += bytes;
            if let Some(old) = old {
                state.total -= old.bytes;
                debug_assert!(old.epoch <= epoch, "engine epochs only advance");
            }
        }
        let mut deferred = self.enforce(state);
        deferred.extend(handle);
        deferred
    }
}

impl CacheObserver for SubstrateGovernor {
    fn on_substrate_used(&self, engine: u64, key: &PatternKey, epoch: u64, hit: bool) {
        let deferred = {
            let mut state = self.state.lock().unwrap();
            if hit {
                state.hits += 1;
            } else {
                state.misses += 1;
                if state.evicted.remove(&(engine, key.clone())) {
                    state.rebuilds += 1;
                }
            }
            self.record(&mut state, engine, key, epoch, true)
        };
        drop(deferred);
    }

    fn on_substrate_repaired(&self, engine: u64, key: &PatternKey, epoch: u64) {
        // A repair is cache maintenance, not a request: the hit, miss and
        // rebuild counters stay untouched.
        let deferred = {
            let mut state = self.state.lock().unwrap();
            self.record(&mut state, engine, key, epoch, false)
        };
        drop(deferred);
    }

    fn on_engine_release(&self, engine: u64) {
        let mut state = self.state.lock().unwrap();
        // Every ledger entry for this engine is gone wholesale (a batch
        // over the repair ceiling, or the engine dropping).
        let stale: Vec<(u64, PatternKey)> = state
            .entries
            .keys()
            .filter(|(id, _)| *id == engine)
            .cloned()
            .collect();
        for key in stale {
            let entry = state.entries.remove(&key).expect("key just enumerated");
            state.total -= entry.bytes;
        }
        state.evicted.retain(|(id, _)| *id != engine);
        // A dropping engine's strong count is already 0 here, so this
        // sheds its handle; an over-ceiling merge keeps a live one.
        state.shed_dead_engines();
    }
}

impl GovState {
    /// Forgets engines that have dropped. Every reader already treats a
    /// dead handle as absent, so this only bounds the map by the live
    /// catalog.
    fn shed_dead_engines(&mut self) {
        self.engines.retain(|_, engine| engine.strong_count() > 0);
    }
}

/// An eviction pin on one `(engine, Ψ)` substrate entry, from
/// [`SubstrateGovernor::lease`]. Dropping it releases the pin.
pub struct SubstrateLease {
    governor: Arc<SubstrateGovernor>,
    key: (u64, PatternKey),
}

impl Drop for SubstrateLease {
    fn drop(&mut self) {
        let mut state = self.governor.state.lock().unwrap();
        if let Some(count) = state.pins.get_mut(&self.key) {
            *count -= 1;
            if *count == 0 {
                state.pins.remove(&self.key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsd_graph::Graph;

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
        assert_eq!(engines(&governor), live);
        // A live engine's release (an over-ceiling merge) keeps its handle.
        governor.on_engine_release(keep[0].id());
        assert_eq!(engines(&governor), live);
        drop(keep);
        assert!(engines(&governor).is_empty());
    }
}
