//! `Substrates`: the one context every algorithm reads its substrates from.
//!
//! Fang et al. use one paradigm throughout: acquire the (k, Ψ)-core
//! substrates, then locate the answer inside a core (Algorithms 4–6,
//! Lemma 7). A [`Substrates`] value is that acquire step, written once. It
//! holds the graph, Ψ and an optional flow-network lender, and acquires
//! each of two substrates the first time an algorithm reads it:
//!
//! * the **density oracle** for Ψ;
//! * the **(k, Ψ)-core decomposition** (Algorithm 3). The edge pattern's
//!   holds the classical core numbers (CoreApp's γ bounds, the Section-6.3
//!   query variant).
//!
//! [`Substrates::cold`] builds each substrate on first use. The engine's
//! context takes each one from its epoch-keyed caches instead, and records
//! which reads were cache hits and what the decomposition build cost, for
//! the request's [`SolveStats`](crate::engine::SolveStats).
//!
//! Every algorithm has exactly one entry point, a method on `Substrates`
//! defined beside the algorithm: [`Substrates::exact`],
//! [`Substrates::core_exact`], [`Substrates::top_k`],
//! [`Substrates::densest_at_least_k`], [`Substrates::densest_at_most_k`],
//! [`Substrates::densest_with_query`], [`Substrates::peel_app`],
//! [`Substrates::inc_app`], [`Substrates::core_app`] and
//! [`Substrates::gamma_bounds`]. The paper-named free functions
//! (`core_exact(g, psi)` and so on) are one-line calls of those entries on
//! a cold context.
//!
//! ```
//! use dsd_core::{CoreExactConfig, Substrates};
//! use dsd_graph::Graph;
//! use dsd_motif::Pattern;
//!
//! let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
//! let psi = Pattern::triangle();
//! let s = Substrates::cold(&g, &psi);
//! // One decomposition serves both algorithms.
//! let (cds, _) = s.core_exact(CoreExactConfig::default());
//! let peeled = s.peel_app();
//! assert_eq!(cds.vertices, peeled.vertices);
//! ```

use std::cell::{Cell, OnceCell};
use std::sync::Arc;
use std::time::Instant;

use dsd_graph::{Graph, VertexId, VertexSet};
use dsd_motif::pattern::{Pattern, PatternKind};

use crate::clique_core::{decompose, decompose_within, CliqueCoreDecomposition};
use crate::engine::SubstrateUse;
use crate::flownet::{Located, NetworkLender, RegionKey};
use crate::oracle::{oracle_for, DensityOracle, StoreStats};

/// Where an engine-backed [`Substrates`] acquires a substrate it has not
/// read yet: the engine's epoch-keyed caches. Each call reports whether
/// the substrate came out of the cache.
pub(crate) trait SubstrateSource {
    /// The density oracle for Ψ.
    fn oracle(&self, psi: &Pattern) -> (Arc<dyn DensityOracle>, bool);

    /// The (k, Ψ)-core decomposition of `g` through `oracle`, plus the
    /// build time this call paid (0 on a hit).
    fn decomposition(
        &self,
        g: &Graph,
        oracle: &dyn DensityOracle,
    ) -> (Arc<CliqueCoreDecomposition>, bool, u128);

    /// The edge pattern's decomposition of the graph: its core numbers.
    fn edge_cores(&self) -> Arc<CliqueCoreDecomposition>;
}

/// The residual vertex set of a TopK round: `alive` is the graph minus
/// `removed` (ascending), the answers of the earlier rounds.
#[derive(Clone, Copy)]
struct Residual<'a> {
    alive: &'a VertexSet,
    removed: &'a [VertexId],
}

/// The substrates of one graph and one pattern Ψ, each acquired the first
/// time an algorithm reads it (see the module docs).
///
/// A context is single-threaded and lives for one request (or one cold
/// call); it never outlives the graph it reads.
pub struct Substrates<'a> {
    g: &'a Graph,
    psi: &'a Pattern,
    source: Option<&'a dyn SubstrateSource>,
    residual: Option<Residual<'a>>,
    lender: Option<&'a dyn NetworkLender>,
    oracle: OnceCell<Arc<dyn DensityOracle>>,
    decomposition: OnceCell<Arc<CliqueCoreDecomposition>>,
    used: Cell<SubstrateUse>,
    decomposition_nanos: Cell<u128>,
}

impl<'a> Substrates<'a> {
    /// A context that builds each substrate on first use and lends no
    /// flow networks: the cold reference path, free of engine code.
    pub fn cold(g: &'a Graph, psi: &'a Pattern) -> Self {
        Substrates {
            g,
            psi,
            source: None,
            residual: None,
            lender: None,
            oracle: OnceCell::new(),
            decomposition: OnceCell::new(),
            used: Cell::new(SubstrateUse::default()),
            decomposition_nanos: Cell::new(0),
        }
    }

    /// A context that takes each substrate from `source` and borrows flow
    /// networks from `lender`.
    pub(crate) fn cached(
        g: &'a Graph,
        psi: &'a Pattern,
        source: &'a dyn SubstrateSource,
        lender: Option<&'a dyn NetworkLender>,
    ) -> Self {
        Substrates {
            source: Some(source),
            lender,
            ..Substrates::cold(g, psi)
        }
    }

    /// This context with `oracle` as its density oracle in place of the
    /// default one, e.g. to compare a materialized oracle against a
    /// streaming one. Call it before any substrate is read.
    pub fn with_oracle(self, oracle: Arc<dyn DensityOracle>) -> Self {
        Substrates {
            oracle: OnceCell::from(oracle),
            ..self
        }
    }

    /// A context over the same graph, Ψ, oracle and lender for the
    /// residual vertex set `alive`, the graph minus `removed` (ascending)
    /// — TopK's residual rounds. Its decomposition is `g[alive]`'s on the
    /// parent graph, peeled on first read, so a round whose located region
    /// is on record never peels.
    pub(crate) fn residual<'b>(
        &'b self,
        alive: &'b VertexSet,
        removed: &'b [VertexId],
    ) -> Substrates<'b> {
        Substrates {
            oracle: OnceCell::from(Arc::clone(self.oracle_arc())),
            residual: Some(Residual { alive, removed }),
            lender: self.lender,
            ..Substrates::cold(self.g, self.psi)
        }
    }

    /// The vertices this context's graph lacks from the engine's graph:
    /// empty except in a TopK residual round, which always lacks the
    /// earlier rounds' answers.
    pub(crate) fn removed(&self) -> &'a [VertexId] {
        self.residual.map_or(&[], |r| r.removed)
    }

    /// The located-region record for `key`: the lender's when it keeps
    /// one, else `locate()`'s, kept for the next request. Without a lender
    /// every call locates.
    pub(crate) fn located(&self, key: &RegionKey<'_>, locate: impl FnOnce() -> Located) -> Located {
        let Some(lender) = self.lender else {
            return locate();
        };
        if let Some(record) = lender.located(key) {
            self.note(|u| u.located_hit = true);
            return record;
        }
        let record = locate();
        lender.keep_located(key, record.clone());
        record
    }

    /// The graph.
    pub(crate) fn graph(&self) -> &'a Graph {
        self.g
    }

    /// The pattern Ψ.
    pub(crate) fn pattern(&self) -> &'a Pattern {
        self.psi
    }

    /// The density oracle for Ψ.
    pub(crate) fn oracle(&self) -> &dyn DensityOracle {
        self.oracle_arc().as_ref()
    }

    fn oracle_arc(&self) -> &Arc<dyn DensityOracle> {
        self.oracle.get_or_init(|| match self.source {
            Some(source) => {
                let (oracle, hit) = source.oracle(self.psi);
                self.note(|u| u.oracle_cache_hit = hit);
                oracle
            }
            None => Arc::from(oracle_for(self.psi)),
        })
    }

    /// The (k, Ψ)-core decomposition of the graph (of the residual vertex
    /// set, in a TopK residual round).
    pub fn decomposition(&self) -> &CliqueCoreDecomposition {
        self.decomposition_arc()
    }

    fn decomposition_arc(&self) -> &Arc<CliqueCoreDecomposition> {
        self.decomposition.get_or_init(|| {
            let oracle = self.oracle();
            match self.source {
                Some(source) => {
                    let (dec, hit, nanos) = source.decomposition(self.g, oracle);
                    self.note(|u| u.decomposition_cache_hit = hit);
                    self.decomposition_nanos.set(nanos);
                    dec
                }
                None => {
                    let t = Instant::now();
                    let dec = match self.residual {
                        Some(r) => decompose_within(self.g, oracle, r.alive),
                        None => decompose(self.g, oracle),
                    };
                    self.decomposition_nanos.set(t.elapsed().as_nanos());
                    Arc::new(dec)
                }
            }
        })
    }

    /// The classical core numbers: the edge pattern's decomposition, this
    /// context's own when Ψ is the edge, else the engine's or a cold peel.
    pub(crate) fn edge_cores(&self) -> Arc<CliqueCoreDecomposition> {
        if self.psi.kind() == PatternKind::Clique(2) {
            return Arc::clone(self.decomposition_arc());
        }
        match self.source {
            Some(source) => source.edge_cores(),
            None => Arc::new(decompose(self.g, oracle_for(&Pattern::edge()).as_ref())),
        }
    }

    /// The flow-network lender exact searches borrow from, if any.
    pub(crate) fn lender(&self) -> Option<&'a dyn NetworkLender> {
        self.lender
    }

    /// Which substrate reads so far were cache hits.
    pub(crate) fn substrate_use(&self) -> SubstrateUse {
        self.used.get()
    }

    /// Wall time this context spent building the decomposition (0 when it
    /// came out of a cache or was never read).
    pub(crate) fn decomposition_nanos(&self) -> u128 {
        self.decomposition_nanos.get()
    }

    /// kmax of the decomposition, if it has been read.
    pub(crate) fn decomposed_kmax(&self) -> Option<u64> {
        self.decomposition.get().map(|dec| dec.kmax)
    }

    /// Instance-store accounting of the oracle, if it has been read.
    pub(crate) fn store_stats(&self) -> Option<StoreStats> {
        self.oracle.get().and_then(|oracle| oracle.store_stats())
    }

    fn note(&self, f: impl FnOnce(&mut SubstrateUse)) {
        let mut used = self.used.get();
        f(&mut used);
        self.used.set(used);
    }
}
