//! The shared α-search framework behind every exact solver.
//!
//! All of the paper's exact algorithms — `Exact`/`PExact` (Algorithms 1
//! and 8), `CoreExact`/`CorePExact` (Algorithm 4), the Section-6.3 query
//! variant, and the exact fast paths of the size-constrained objectives —
//! reduce to the same skeleton: search a guessed density α, where each
//! probe asks a min-cut decision question ("does some subgraph beat α?")
//! and feasible probes yield a witness subgraph. This module owns the one
//! implementation:
//!
//! * [`DecisionProbe`] — the per-α decision a solver plugs in. Probes own
//!   everything α-independent (the flow network, witness bookkeeping,
//!   CoreExact's shrinking-network restarts) and are free to mutate
//!   themselves on feasible probes;
//! * [`alpha_search`] — the witness-jump loop with the shared gap /
//!   tolerance / step-budget / witness handling, instrumented through
//!   [`ExactStats`];
//! * [`density_gap`] / [`effective_gap`] — Lemma 12's stopping separation
//!   and its tolerance-widened form;
//! * [`NetworkProbe`] — the standard probe over a [`DensityNetwork`]
//!   used by `Exact` and reusable by benches and tests.
//!
//! **Witness jumps.** A feasible probe at α returns its witness *and the
//! witness's exact density* ρ_w > α. The lower bound jumps to ρ_w (an
//! achieved density, not just a beaten guess) and the next probe runs at
//! exactly ρ_w — Dinkelbach's step for fractional programs. An infeasible
//! probe there certifies ρ_w optimal (Lemma 14: nothing strictly beats
//! it), so a search whose first witness is already the optimum ends after
//! two probes instead of bisecting down to Lemma 12's `1/(n(n−1))` gap.
//! Infeasible probes above the lower bound bisect `[lower, upper]` as
//! before. Answers match the pure bisection bit for bit: Ψ-instance counts
//! are supermodular, so at any α below the optimum ρ* a minimal min-cut
//! side of density ρ* is the unique maximal densest subgraph — the same
//! set the bisection's last witness is.
//!
//! Probes run against parametric flow state (see
//! [`crate::flownet::DensityNetwork`] and `dsd_flow::parametric`): only
//! the `v→t` capacities depend on α and they grow monotonically with it,
//! and no probe ever runs below the lower bound, so every probe after the
//! first feasible one warm-resolves from checkpointed flow instead of
//! paying a from-scratch max-flow — the Gallo–Grigoriadis–Tarjan
//! amortization \[29\].

use dsd_flow::ResolveStats;
use dsd_graph::{Graph, VertexId};

use crate::flownet::DensityNetwork;
use crate::oracle::{member_density, DensityOracle};

/// Instrumentation from an α-search (shared by `Exact`, `CoreExact`, the
/// query variant, and the size-constrained exact fast paths).
#[derive(Clone, Debug, Default)]
pub struct ExactStats {
    /// Number of α-search iterations (min-cut probes).
    pub iterations: usize,
    /// Flow-network node count at each iteration (constant for `Exact`,
    /// shrinking for `CoreExact` — the Figure-9 series).
    pub network_nodes: Vec<usize>,
    /// Initial `[l, u]` bounds on α (for `CoreExact`, the bracket after
    /// Pruning1/2: the located lower bound and `kmax`; for the query
    /// variant, its seed probe's α — half a gap below the pinned peel's
    /// bound, but at least x/2 — and `kmax`).
    pub initial_bounds: (f64, f64),
    /// Whether a step budget stopped the search before the gap closed
    /// (the result is then the best witness found, not certified optimal).
    pub budget_exhausted: bool,
    /// Probes served warm by parametric resolve (flow-state reuse)
    /// instead of a from-scratch max-flow.
    pub resolve_hits: usize,
    /// Total augmenting work (edge scans) spent inside the flow solvers,
    /// warm and cold probes alike.
    pub augment_work: u64,
}

impl ExactStats {
    /// Folds a probe sequence's flow-reuse counters into these stats.
    pub fn absorb_flow(&mut self, flow: ResolveStats) {
        self.resolve_hits += flow.resolve_hits;
        self.augment_work += flow.augment_work;
    }

    /// Folds another search's stats into these (used by multi-round
    /// drivers like the top-k scan).
    pub fn merge(&mut self, other: &ExactStats) {
        self.iterations += other.iterations;
        self.network_nodes.extend_from_slice(&other.network_nodes);
        self.budget_exhausted |= other.budget_exhausted;
        self.resolve_hits += other.resolve_hits;
        self.augment_work += other.augment_work;
    }
}

/// The α-search stopping gap `1 / (n(n−1))` (Lemma 12: distinct
/// densities differ by at least this much).
pub fn density_gap(n: usize) -> f64 {
    if n < 2 {
        1.0
    } else {
        1.0 / (n as f64 * (n as f64 - 1.0))
    }
}

/// The effective stopping gap: `max(density_gap(n), tolerance)`. The
/// Lemma-12 default keeps the search certified exact; a larger tolerance
/// trades certified precision for fewer probes. NaN tolerances are
/// rejected in debug builds (they would silently disable the stop
/// condition and then flow into the α edge capacities).
pub fn effective_gap(n: usize, tolerance: Option<f64>) -> f64 {
    let tol = tolerance.unwrap_or(0.0);
    debug_assert!(!tol.is_nan(), "NaN α-search tolerance");
    density_gap(n).max(tol)
}

/// One min-cut decision probe of an α-search.
///
/// `probe(alpha)` answers "does some subgraph strictly beat density α?"
/// and, when one does, returns a witness together with the witness's
/// exact density — computed by the same function that scores the
/// solver's final answer, so the density [`alpha_search`] jumps to is
/// bit-identical to the one reported. A non-empty min cut whose side does
/// not strictly beat α (a floating-point tie at the optimum) is
/// infeasible. Implementations own all per-solver state and behaviour:
/// the flow network and its parametric reuse, witness bookkeeping (e.g.
/// CoreExact evaluating each witness against a global best), and
/// feasibility-triggered mutation (e.g. CoreExact rebuilding a smaller
/// network once the lower bound outgrows the located core).
/// [`alpha_search`] never probes below the current lower bound — the
/// certification probe sits exactly on it — so flow state checkpointed at
/// a feasible probe (whose α is below the lower bound it raised) stays
/// reusable.
pub trait DecisionProbe {
    /// The feasibility witness (typically the subgraph's vertices; `()`
    /// when the probe tracks witnesses itself).
    type Witness;

    /// Decides whether some subgraph strictly beats density `alpha`;
    /// feasible probes return the witness and its density (`> alpha`).
    fn probe(&mut self, alpha: f64) -> Option<(Self::Witness, f64)>;

    /// Current flow-network node count (the Figure-9 instrumentation).
    fn network_nodes(&self) -> usize;
}

/// Where [`alpha_search`] places its first probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FirstProbe {
    /// At the lower bound: a seed bound that is already (nearly) optimal
    /// is certified at once (CoreExact's Algorithm-4 lines 7–9 probe).
    Lower,
    /// At the midpoint of the bracket: from a weak lower bound, witness
    /// jumps would crawl through large low-density cuts first.
    Midpoint,
}

/// Where an α-search ended.
#[derive(Clone, Debug)]
pub struct SearchOutcome<W> {
    /// Final lower bound: the density of `witness`, or the initial lower
    /// bound when no probe was feasible.
    pub lower: f64,
    /// Final upper bound. Equal to `lower` when an infeasible probe at
    /// the lower bound certified it optimal.
    pub upper: f64,
    /// The densest witness found (the last feasible probe's). Once the
    /// search closes at the Lemma-12 gap this *is* the optimum; at a
    /// coarser tolerance it is within that gap of it.
    pub witness: Option<W>,
}

/// The one α-search loop over `[lower, upper]`.
///
/// The first probe runs where `first` says. A feasible probe raises the
/// lower bound to its witness's density and the next probe runs exactly
/// there; an infeasible probe at the lower bound certifies it (the search
/// ends with `upper == lower`); an infeasible probe above it lowers the
/// upper bound and the next probe bisects. The search also stops once
/// `upper − lower < gap`, so the Lemma-12 gap and any wider tolerance
/// bound it exactly as they bound a pure bisection.
///
/// `budget` caps `stats.iterations` *across searches sharing the same
/// stats* (CoreExact's per-component searches share one budget); when it
/// trips, `stats.budget_exhausted` is set and the best witness so far
/// stands. Every probe is counted in `stats` along with the probe's
/// current network size.
pub fn alpha_search<P: DecisionProbe>(
    probe: &mut P,
    bounds: (f64, f64),
    first: FirstProbe,
    gap: f64,
    budget: usize,
    stats: &mut ExactStats,
) -> SearchOutcome<P::Witness> {
    let (mut lower, mut upper) = bounds;
    debug_assert!(!gap.is_nan() && gap > 0.0, "degenerate α-search gap {gap}");
    debug_assert!(
        lower.is_finite() && upper.is_finite(),
        "non-finite α bounds [{lower}, {upper}]"
    );
    let mut alpha = match first {
        FirstProbe::Lower => lower,
        FirstProbe::Midpoint => (lower + upper) / 2.0,
    };
    let mut witness = None;
    while upper - lower >= gap {
        if stats.iterations >= budget {
            stats.budget_exhausted = true;
            break;
        }
        stats.iterations += 1;
        stats.network_nodes.push(probe.network_nodes());
        match probe.probe(alpha) {
            Some((w, rho)) => {
                debug_assert!(rho > alpha, "witness density {rho} does not beat α {alpha}");
                lower = rho;
                alpha = rho;
                witness = Some(w);
            }
            None if alpha == lower => upper = lower,
            None => {
                upper = alpha;
                alpha = (lower + upper) / 2.0;
            }
        }
    }
    SearchOutcome {
        lower,
        upper,
        witness,
    }
}

/// The standard probe over a [`DensityNetwork`]: feasible iff the min-cut
/// source side is non-trivial (Lemma 14) and its Ψ-density — scored by
/// the oracle over `g` — strictly beats α, witnessed by the subgraph's
/// parent-graph vertex ids. Feasible probes checkpoint the network's flow
/// state, so the parametric chain warm-resolves every later probe.
pub struct NetworkProbe<'a> {
    net: &'a mut DensityNetwork,
    g: &'a Graph,
    oracle: &'a dyn DensityOracle,
}

impl<'a> NetworkProbe<'a> {
    /// Wraps a network over `g`'s vertices for one α-search with the given
    /// density oracle.
    pub fn new(net: &'a mut DensityNetwork, g: &'a Graph, oracle: &'a dyn DensityOracle) -> Self {
        NetworkProbe { net, g, oracle }
    }
}

impl DecisionProbe for NetworkProbe<'_> {
    type Witness = Vec<VertexId>;

    fn probe(&mut self, alpha: f64) -> Option<(Vec<VertexId>, f64)> {
        let (g, oracle) = (self.g, self.oracle);
        self.net
            .solve_beating(alpha, |w| member_density(oracle, g, w))
    }

    fn network_nodes(&self) -> usize {
        self.net.num_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A parametric mock of a min-cut probe: candidate subgraphs as
    /// `(instances, vertices)`. A probe at α returns the smallest maximizer
    /// of `instances − α·vertices` when that is positive — what the
    /// minimal min cut of a density network returns — with its density.
    struct Candidates {
        sets: Vec<(u32, u32)>,
        alphas: Vec<f64>,
    }

    impl Candidates {
        /// Nested cuts like a real graph's: a K4 `(6, 4)` (ρ = 1.5) inside
        /// an 8-vertex block `(11, 8)` (ρ = 1.375) inside a sparse
        /// 12-vertex whole `(12, 12)` (ρ = 1).
        fn nested() -> Self {
            Candidates {
                sets: vec![(6, 4), (11, 8), (12, 12)],
                alphas: Vec::new(),
            }
        }
    }

    impl DecisionProbe for Candidates {
        type Witness = usize;

        fn probe(&mut self, alpha: f64) -> Option<(usize, f64)> {
            self.alphas.push(alpha);
            let score = |&(mu, n): &(u32, u32)| mu as f64 - alpha * n as f64;
            let (best, &(mu, n)) = self
                .sets
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| score(a).total_cmp(&score(b)).then(b.1.cmp(&a.1)))?;
            (score(&(mu, n)) > 0.0).then(|| (best, mu as f64 / n as f64))
        }

        fn network_nodes(&self) -> usize {
            42
        }
    }

    #[test]
    fn optimal_first_witness_certifies_in_two_probes() {
        for (bounds, first, alphas) in [
            ((0.0, 2.6), FirstProbe::Midpoint, vec![1.3, 1.5]),
            ((1.375, 4.0), FirstProbe::Lower, vec![1.375, 1.5]),
        ] {
            let mut probe = Candidates::nested();
            let mut stats = ExactStats::default();
            let out = alpha_search(&mut probe, bounds, first, 1e-9, usize::MAX, &mut stats);
            assert_eq!(probe.alphas, alphas, "{first:?}");
            assert_eq!(out.witness, Some(0));
            assert_eq!((out.lower, out.upper), (1.5, 1.5), "certified optimal");
            assert_eq!(stats.iterations, 2);
            assert_eq!(stats.network_nodes, vec![42, 42]);
            assert!(!stats.budget_exhausted);
        }
    }

    #[test]
    fn infeasible_probes_bisect_and_feasible_ones_jump() {
        let mut probe = Candidates::nested();
        let mut stats = ExactStats::default();
        let out = alpha_search(
            &mut probe,
            (0.0, 16.0),
            FirstProbe::Midpoint,
            1e-9,
            usize::MAX,
            &mut stats,
        );
        // Three infeasible halvings, then a jump to the 8-vertex block's
        // density, a jump to the K4's, and the certifying probe there.
        assert_eq!(probe.alphas, vec![8.0, 4.0, 2.0, 1.0, 1.375, 1.5]);
        assert_eq!(out.witness, Some(0));
        assert_eq!((out.lower, out.upper), (1.5, 1.5));
        // From the trivial lower bound the jumps climb the nested cuts.
        let mut probe = Candidates::nested();
        let out = alpha_search(
            &mut probe,
            (0.0, 16.0),
            FirstProbe::Lower,
            1e-9,
            usize::MAX,
            &mut ExactStats::default(),
        );
        assert_eq!(probe.alphas, vec![0.0, 1.0, 1.375, 1.5]);
        assert_eq!(out.witness, Some(0));
    }

    #[test]
    fn budget_stops_the_search_and_is_shared() {
        let mut stats = ExactStats::default();
        let mut probe = Candidates::nested();
        let out = alpha_search(
            &mut probe,
            (0.0, 16.0),
            FirstProbe::Lower,
            1e-9,
            2,
            &mut stats,
        );
        assert!(stats.budget_exhausted);
        assert_eq!(stats.iterations, 2);
        // The best witness so far stands, uncertified.
        assert_eq!(out.witness, Some(1));
        assert_eq!((out.lower, out.upper), (1.375, 16.0));
        // A second search against the same stats gets no probes at all.
        let out2 = alpha_search(
            &mut probe,
            (out.lower, 16.0),
            FirstProbe::Lower,
            1e-9,
            2,
            &mut stats,
        );
        assert_eq!(stats.iterations, 2);
        assert_eq!(probe.alphas.len(), 2);
        assert!(out2.witness.is_none());
    }

    #[test]
    fn tolerance_still_stops_the_search() {
        let mut probe = Candidates::nested();
        let mut stats = ExactStats::default();
        // After the jump to 1.5 the bracket [1.5, 2.6] is inside the
        // tolerance, so no certifying probe runs.
        let out = alpha_search(
            &mut probe,
            (0.0, 2.6),
            FirstProbe::Midpoint,
            1.5,
            usize::MAX,
            &mut stats,
        );
        assert_eq!(probe.alphas, vec![1.3]);
        assert_eq!(out.witness, Some(0));
        assert_eq!((out.lower, out.upper), (1.5, 2.6));
        assert!(!stats.budget_exhausted);
        // A bracket already inside the gap runs no probe.
        let mut probe = Candidates::nested();
        let out = alpha_search(
            &mut probe,
            (1.0, 1.2),
            FirstProbe::Lower,
            0.25,
            usize::MAX,
            &mut stats,
        );
        assert!(probe.alphas.is_empty() && out.witness.is_none());
    }

    #[test]
    fn gap_and_tolerance_compose() {
        assert_eq!(density_gap(1), 1.0);
        assert!((density_gap(10) - 1.0 / 90.0).abs() < 1e-15);
        assert_eq!(effective_gap(10, None), density_gap(10));
        assert_eq!(effective_gap(10, Some(0.25)), 0.25);
        // A tolerance below the Lemma-12 separation never loosens it.
        assert_eq!(effective_gap(10, Some(1e-9)), density_gap(10));
    }
}
