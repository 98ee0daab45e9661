//! Algorithm 5 (`IncApp`) and Algorithm 6 (`CoreApp`): core-based
//! `1/|VΨ|`-approximations.
//!
//! Both return the `(kmax, Ψ)`-core, which Lemma 8 proves is a
//! `1/|VΨ|`-approximation of the CDS. `IncApp` computes it bottom-up by
//! full core decomposition. `CoreApp` computes it top-down: sort vertices
//! by an upper bound `γ(v, Ψ)` of their clique-core numbers, decompose the
//! subgraph induced by the current top-`|W|` prefix, and double `|W|` until
//! every remaining vertex's `γ` falls below the best `kmax` found —
//! at which point the found core is provably the global one.

use dsd_graph::{Graph, VertexId, VertexSet};
use dsd_motif::binomial;
use dsd_motif::pattern::{Pattern, PatternKind};

use crate::clique_core::peeler_for;
use crate::oracle::{density, DensityOracle};
use crate::substrates::Substrates;
use crate::types::DsdResult;

/// Result of an approximation run: the (kmax, Ψ)-core and its order.
#[derive(Clone, Debug)]
pub struct ApproxResult {
    /// The approximate densest subgraph (the (kmax, Ψ)-core).
    pub result: DsdResult,
    /// The maximum clique-core number found.
    pub kmax: u64,
}

impl ApproxResult {
    /// No subgraph: the graph holds no Ψ instance, so kmax = 0.
    fn empty() -> Self {
        ApproxResult {
            result: DsdResult::empty(),
            kmax: 0,
        }
    }
}

/// Algorithm 5: full decomposition, return the (kmax, Ψ)-core. Builds the
/// substrates cold.
pub fn inc_app(g: &Graph, psi: &Pattern) -> ApproxResult {
    Substrates::cold(g, psi).inc_app()
}

/// The γ(v, Ψ) upper bound of Algorithm 6 line 1, built cold; see
/// [`Substrates::gamma_bounds`].
pub fn gamma_bounds(g: &Graph, psi: &Pattern) -> Vec<u64> {
    Substrates::cold(g, psi).gamma_bounds()
}

/// Algorithm 6: top-down (kmax, Ψ)-core discovery with frontier doubling.
/// Builds the substrates cold.
pub fn core_app(g: &Graph, psi: &Pattern) -> ApproxResult {
    Substrates::cold(g, psi).core_app()
}

/// Initial frontier size of [`Substrates::core_app`]'s doubling schedule
/// (the paper leaves the seed open; doubling makes total work a geometric
/// series regardless).
const CORE_APP_SEED: usize = 64;

impl Substrates<'_> {
    /// Algorithm 5: reads the (kmax, Ψ)-core straight out of this
    /// context's decomposition. Empty when the graph holds no Ψ instance.
    pub fn inc_app(&self) -> ApproxResult {
        let dec = self.decomposition();
        if dec.kmax == 0 {
            return ApproxResult::empty();
        }
        finish(
            self.graph(),
            self.oracle(),
            dec.max_core().to_vec(),
            dec.kmax,
        )
    }

    /// The γ(v, Ψ) upper bound of Algorithm 6 line 1.
    ///
    /// * Cliques: `γ(v) = C(x, h−1)` with `x` the classical core number
    ///   (from the edge pattern's decomposition) — a sound bound on the
    ///   clique-*core* number (the min-degree vertex of the (k, Ψ)-core
    ///   has classical degree ≥ its clique count's support).
    /// * Stars / diamond: the Appendix-D closed forms (or, for diamonds
    ///   whose store the cost rule keeps, the store's columns) make the
    ///   *exact* degree as cheap as any bound, so γ = deg.
    /// * General patterns: γ = exact degree via enumeration (the same cost
    ///   PeelApp pays up front).
    pub fn gamma_bounds(&self) -> Vec<u64> {
        match self.pattern().kind() {
            PatternKind::Clique(h) => self
                .edge_cores()
                .core
                .iter()
                .map(|&x| binomial(x, h as u64 - 1))
                .collect(),
            _ => {
                let g = self.graph();
                self.oracle().degrees(g, &VertexSet::full(g.num_vertices()))
            }
        }
    }

    /// Algorithm 6: top-down (kmax, Ψ)-core discovery with frontier
    /// doubling. Empty when the graph holds no Ψ instance.
    pub fn core_app(&self) -> ApproxResult {
        core_app_seeded(self, CORE_APP_SEED)
    }
}

/// [`Substrates::core_app`] from an initial frontier of `seed` vertices.
fn core_app_seeded(s: &Substrates, seed: usize) -> ApproxResult {
    let (g, oracle) = (s.graph(), s.oracle());
    let gamma = s.gamma_bounds();
    let n = g.num_vertices();
    if n == 0 {
        return ApproxResult::empty();
    }
    // Vertices sorted by γ descending (line 2).
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.sort_unstable_by(|&a, &b| gamma[b as usize].cmp(&gamma[a as usize]));

    let mut w_len = seed.clamp(1, n);
    let mut kmax = 0u64;
    let mut s_star: Vec<VertexId> = Vec::new();

    loop {
        let members = &order[..w_len];
        let mut alive = VertexSet::from_members(n, members);
        // One peeler per frontier: its store alive-counts or closed-form
        // scratch carry across every removal of the cascade.
        let mut peeler = peeler_for(g, oracle, &alive);
        let mut deg = peeler.degrees();
        // Onion peel of G[W] from the running kmax upwards (Algorithm 6
        // lines 7-14). We restart at `kmax` rather than the paper's
        // `kmax + 1`: growing W can grow the (kmax, Ψ)-core without raising
        // kmax, and S* must track the *current* core, not the first-found
        // subset of it (the earlier core stays inside the new one, so the
        // re-peel is never wasted).
        let kl = alive.iter().map(|v| deg[v as usize]).min().unwrap_or(0);
        let mut k = kl.max(kmax).max(1);
        loop {
            // Cascade-remove everything of degree < k.
            let mut queue: Vec<VertexId> = alive.iter().filter(|&v| deg[v as usize] < k).collect();
            while let Some(v) = queue.pop() {
                if !alive.contains(v) {
                    continue;
                }
                peeler.remove(v, &mut |u, amount| {
                    let du = &mut deg[u as usize];
                    debug_assert!(alive.contains(u) && amount <= *du);
                    *du -= amount;
                    if *du < k {
                        queue.push(u);
                    }
                });
                alive.remove(v);
            }
            if alive.is_empty() {
                break;
            }
            if k >= kmax {
                kmax = k;
                s_star = alive.to_vec();
            }
            k += 1;
        }
        if w_len == n {
            break;
        }
        // Stopping criterion (line 4): every vertex outside W has γ < kmax,
        // hence clique-core number < kmax, hence the global core is inside W.
        let max_remaining_gamma = gamma[order[w_len] as usize];
        if max_remaining_gamma < kmax {
            break;
        }
        w_len = (w_len * 2).min(n);
    }

    if kmax == 0 {
        return ApproxResult::empty();
    }
    finish(g, oracle, s_star, kmax)
}

fn finish(
    g: &Graph,
    oracle: &dyn DensityOracle,
    mut vertices: Vec<VertexId>,
    kmax: u64,
) -> ApproxResult {
    vertices.sort_unstable();
    let set = VertexSet::from_members(g.num_vertices(), &vertices);
    let rho = density(oracle, g, &set);
    ApproxResult {
        result: DsdResult {
            vertices,
            density: rho,
        },
        kmax,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clique_core::decompose;
    use crate::exact::exact;
    use crate::oracle::{oracle_for, CliqueOracle};
    use crate::Parallelism;

    fn planted() -> Graph {
        // K7 planted in a 40-vertex sparse ring.
        let mut edges = Vec::new();
        for u in 0..7u32 {
            for v in (u + 1)..7 {
                edges.push((u, v));
            }
        }
        for i in 7..40u32 {
            edges.push((i, if i == 39 { 7 } else { i + 1 }));
            edges.push((i, i % 7));
        }
        Graph::from_edges(40, &edges)
    }

    #[test]
    fn inc_app_and_core_app_agree() {
        let g = planted();
        for psi in [
            Pattern::edge(),
            Pattern::triangle(),
            Pattern::clique(4),
            Pattern::two_star(),
            Pattern::diamond(),
        ] {
            let a = inc_app(&g, &psi);
            let b = core_app(&g, &psi);
            assert_eq!(a.kmax, b.kmax, "{}: kmax", psi.name());
            assert_eq!(
                a.result.vertices,
                b.result.vertices,
                "{}: core set",
                psi.name()
            );
        }
    }

    #[test]
    fn core_app_seed_invariance() {
        let g = planted();
        let psi = Pattern::triangle();
        let s = Substrates::cold(&g, &psi);
        let reference = core_app_seeded(&s, 64);
        for seed in [1, 2, 5, 17, 40, 1000] {
            let r = core_app_seeded(&s, seed);
            assert_eq!(r.kmax, reference.kmax, "seed {seed}");
            assert_eq!(r.result.vertices, reference.result.vertices, "seed {seed}");
        }
    }

    /// The parallel h-clique degree pass decomposes exactly like the
    /// serial oracle, so IncApp's (kmax, Ψ)-core is the same through it.
    #[test]
    fn parallel_clique_oracle_matches_sequential() {
        let g = planted();
        for h in 2..=4usize {
            let seq = inc_app(&g, &Pattern::clique(h));
            for threads in [1, 2, 4] {
                let oracle = CliqueOracle::with_parallelism(h, Parallelism::new(threads));
                let par = decompose(&g, &oracle);
                assert_eq!(par.kmax, seq.kmax, "h {h} threads {threads}");
                let mut core = par.max_core().to_vec();
                core.sort_unstable();
                assert_eq!(core, seq.result.vertices, "h {h} threads {threads}");
            }
        }
    }

    #[test]
    fn core_wider_than_first_frontier_is_fully_returned() {
        // 30 disjoint K5s: the (4, edge)-core is all 150 vertices, far more
        // than the 64-vertex seed frontier. A stale S* from the first
        // frontier would miss most of it (regression test for the
        // frontier-growth bug latent in Algorithm 6's `k > kmax` guard).
        let mut edges = Vec::new();
        for c in 0..30u32 {
            for i in 0..5u32 {
                for j in (i + 1)..5 {
                    edges.push((5 * c + i, 5 * c + j));
                }
            }
        }
        let g = Graph::from_edges(150, &edges);
        let psi = Pattern::edge();
        let a = inc_app(&g, &psi);
        let b = core_app(&g, &psi);
        assert_eq!(a.kmax, 4);
        assert_eq!(b.kmax, 4);
        assert_eq!(a.result.vertices.len(), 150);
        assert_eq!(b.result.vertices, a.result.vertices);
    }

    #[test]
    fn approximation_guarantee() {
        let g = planted();
        for psi in [Pattern::edge(), Pattern::triangle()] {
            let approx = core_app(&g, &psi);
            let (opt, _) = exact(&g, &psi);
            assert!(
                approx.result.density + 1e-9 >= opt.density / psi.vertex_count() as f64,
                "{}",
                psi.name()
            );
        }
    }

    #[test]
    fn theorem1_bounds_on_returned_core() {
        let g = planted();
        let psi = Pattern::triangle();
        let r = core_app(&g, &psi);
        let lower = r.kmax as f64 / 3.0;
        assert!(r.result.density + 1e-9 >= lower);
        assert!(r.result.density <= r.kmax as f64 + 1e-9);
    }

    /// A graph without a Ψ instance has no densest subgraph: both
    /// approximations come back empty, as PeelApp and the exact methods
    /// do, rather than as the whole graph at density 0.
    #[test]
    fn zero_instance_graph_returns_empty() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        for r in [
            core_app(&g, &Pattern::triangle()),
            inc_app(&g, &Pattern::triangle()),
        ] {
            assert_eq!(r.kmax, 0);
            assert!(r.result.is_empty());
            assert_eq!(r.result.density, 0.0);
        }
    }

    #[test]
    fn gamma_is_sound_upper_bound_on_core_numbers() {
        let g = planted();
        for psi in [Pattern::edge(), Pattern::triangle(), Pattern::clique(4)] {
            let gamma = gamma_bounds(&g, &psi);
            let oracle = oracle_for(&psi);
            let dec = decompose(&g, oracle.as_ref());
            for v in g.vertices() {
                assert!(
                    gamma[v as usize] >= dec.core[v as usize],
                    "{}: γ({v}) = {} < core {}",
                    psi.name(),
                    gamma[v as usize],
                    dec.core[v as usize]
                );
            }
        }
    }
}
