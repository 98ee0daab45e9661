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
//! Lock order: the governor may take an engine's cache lock (via
//! `evict_substrate`) while holding its own mutex; engines never enter
//! the governor while holding their locks (see [`CacheObserver`]). One
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
    /// bytes back).
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
}

impl CacheObserver for SubstrateGovernor {
    fn on_substrate_used(&self, engine: u64, key: &PatternKey, epoch: u64, _bytes: u64, hit: bool) {
        let mut deferred;
        {
            let mut state = self.state.lock().unwrap();
            state.tick += 1;
            let tick = state.tick;
            if hit {
                state.hits += 1;
            } else {
                state.misses += 1;
                if state.evicted.remove(&(engine, key.clone())) {
                    state.rebuilds += 1;
                }
            }
            // Re-read the footprint inside the critical section: the
            // engine-side value can go stale against this governor's own
            // concurrent evictions (record-after-evict would resurrect a
            // dead entry); a read under the governor lock cannot, because
            // evictions only happen under it too.
            let handle = state.engines.get(&engine).and_then(Weak::upgrade);
            let bytes = handle.as_ref().map_or(0, |e| e.key_bytes(key, epoch));
            let ledger_key = (engine, key.clone());
            if bytes == 0 {
                // Nothing cache-resident for this key (streaming-only
                // substrate, or the epoch moved on before accounting).
                if let Some(old) = state.entries.remove(&ledger_key) {
                    state.total -= old.bytes;
                }
            } else {
                let old = state.entries.insert(
                    ledger_key,
                    Entry {
                        epoch,
                        bytes,
                        last_used: tick,
                    },
                );
                state.total += bytes;
                if let Some(old) = old {
                    state.total -= old.bytes;
                    debug_assert!(old.epoch <= epoch, "engine epochs only advance");
                }
            }
            deferred = self.enforce(&mut state);
            deferred.extend(handle);
        }
        drop(deferred);
    }

    fn on_substrate_repaired(&self, engine: u64, key: &PatternKey, epoch: u64, _bytes: u64) {
        let mut deferred;
        {
            let mut state = self.state.lock().unwrap();
            state.tick += 1;
            let tick = state.tick;
            // Resize the entry in place at the new epoch — a repair is
            // cache maintenance, not a request, so hit/miss/rebuild
            // counters stay untouched and an already-ledgered entry keeps
            // its LRU stamp. As in `on_substrate_used`, the footprint is
            // re-read inside the critical section; 0 means the key's
            // cache half was dropped rather than repaired (e.g. the
            // decomposition) and the entry falls out.
            let handle = state.engines.get(&engine).and_then(Weak::upgrade);
            let bytes = handle.as_ref().map_or(0, |e| e.key_bytes(key, epoch));
            let ledger_key = (engine, key.clone());
            if bytes == 0 {
                if let Some(old) = state.entries.remove(&ledger_key) {
                    state.total -= old.bytes;
                }
            } else {
                let last_used = state.entries.get(&ledger_key).map_or(tick, |e| e.last_used);
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
            deferred = self.enforce(&mut state);
            deferred.extend(handle);
        }
        drop(deferred);
    }

    fn on_engine_release(&self, engine: u64, _bytes: u64) {
        let mut state = self.state.lock().unwrap();
        // Every ledger entry for this engine is gone wholesale (epoch
        // bump or engine drop) — the per-entry bytes are authoritative,
        // the reported sum is advisory.
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
