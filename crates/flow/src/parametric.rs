//! Parametric probe driver: one solver allocation + warm `resolve` across
//! a monotone probe sequence.
//!
//! The exact DSD algorithms search a density guess α, and the only
//! α-dependent capacities (`v→t`) are monotone non-decreasing in α. That
//! is exactly the regime of Gallo–Grigoriadis–Tarjan parametric max-flow:
//! a probe at a higher α can keep the previous flow (still feasible) and
//! pay only for the delta, so a whole probe sequence costs amortized
//! about one from-scratch max-flow. [`ParametricSolver`] owns one
//! [`Dinic`] (and its scratch buffers) for such a sequence and counts how
//! much reuse it delivered.

use crate::network::{FlowNetwork, NodeId};
use crate::Dinic;

/// Reuse accounting for a probe sequence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Min-cut probes run through this solver.
    pub probes: usize,
    /// Probes served warm by [`Dinic::resolve`] (flow-state reuse)
    /// instead of a from-scratch solve.
    pub resolve_hits: usize,
    /// Total augmenting work (edge scans) inside the solver, warm and
    /// cold probes alike.
    pub augment_work: u64,
}

impl core::ops::AddAssign for ResolveStats {
    fn add_assign(&mut self, rhs: Self) {
        self.probes += rhs.probes;
        self.resolve_hits += rhs.resolve_hits;
        self.augment_work += rhs.augment_work;
    }
}

/// Owns one Dinic solver across a probe sequence, dispatching each
/// probe to a cold [`solve`](Self::solve) or a warm
/// [`resolve`](Self::resolve) and accumulating [`ResolveStats`].
///
/// The *caller* owns the monotonicity argument: `resolve` is only sound
/// when every capacity change since the network's last probe through this
/// solver was non-decreasing (or the flow state was restored to a
/// checkpoint for which that holds). `dsd-core`'s `DensityNetwork` is the
/// canonical driver.
#[derive(Default)]
pub struct ParametricSolver {
    solver: Dinic,
    /// Whether the network carries a flow produced by this solver
    /// that `resolve` may continue from.
    primed: bool,
    stats: ResolveStats,
}

impl ParametricSolver {
    /// A solver for a fresh probe sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cold probe: resets the network's flow and solves from scratch.
    pub fn solve(&mut self, net: &mut FlowNetwork, s: NodeId, t: NodeId) -> f64 {
        net.reset_flow();
        let w0 = self.solver.work();
        let value = self.solver.max_flow(net, s, t);
        self.stats.probes += 1;
        self.stats.augment_work += self.solver.work() - w0;
        self.primed = true;
        value
    }

    /// Warm probe after monotone non-decreasing capacity changes: keeps
    /// the flow, pays only for the delta. Falls back to a cold
    /// [`solve`](Self::solve) when no prior probe primed the flow state.
    pub fn resolve(&mut self, net: &mut FlowNetwork, s: NodeId, t: NodeId) -> f64 {
        if !self.primed {
            return self.solve(net, s, t);
        }
        let w0 = self.solver.work();
        let value = self.solver.resolve(net, s, t);
        self.stats.probes += 1;
        self.stats.resolve_hits += 1;
        self.stats.augment_work += self.solver.work() - w0;
        value
    }

    /// Reuse accounting accumulated so far.
    pub fn stats(&self) -> ResolveStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeId;

    fn diamond() -> (FlowNetwork, EdgeId, EdgeId) {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 4.0);
        net.add_edge(0, 2, 4.0);
        let a = net.add_edge(1, 3, 1.0);
        let b = net.add_edge(2, 3, 1.0);
        (net, a, b)
    }

    #[test]
    fn sequence_reuses_one_solver() {
        let mut para = ParametricSolver::new();
        let (mut net, a, b) = diamond();
        // First probe is cold even via resolve().
        let f0 = para.resolve(&mut net, 0, 3);
        assert!((f0 - 2.0).abs() < 1e-9);
        assert_eq!(para.stats().resolve_hits, 0);
        // Monotone bumps: warm probes from here on.
        for (step, cap) in [2.0f64, 3.5, 4.0].into_iter().enumerate() {
            net.set_cap(a, cap);
            net.set_cap(b, cap);
            let f = para.resolve(&mut net, 0, 3);
            assert!((f - 2.0 * cap.min(4.0)).abs() < 1e-9, "step {step}: {f}");
        }
        let stats = para.stats();
        assert_eq!(stats.probes, 4);
        assert_eq!(stats.resolve_hits, 3);
        assert!(stats.augment_work > 0);
    }
}
