//! The paper's headline qualitative claims, checked end-to-end on the
//! dataset stand-ins. These are the assertions EXPERIMENTS.md summarizes:
//! not absolute timings, but the *shapes* — who wins, what shrinks, what
//! the bounds imply.

use dsd::core::{
    core_app, core_exact, decompose, densest_at_least_k, exact, inc_app, oracle_for, peel_app,
    CoreExactConfig, Method, Substrates,
};
use dsd::datasets::{dataset, er};
use dsd::motif::Pattern;

/// Claim (Sec. 6.1 / Fig. 9): CoreExact's flow networks are located in
/// cores and keep shrinking, ending smaller than Exact's whole-graph
/// network.
///
/// Both networks are store-built (factorised, Λ side = triangle rows)
/// rather than Algorithm 1's edge-Λ formulation, which caps the shrink
/// ratio: triangles concentrate inside the core the search locates, so
/// the Λ side shrinks less than the vertex side does. The located
/// network must still be clearly smaller, and must only shrink across
/// Pruning3 restarts.
#[test]
fn flow_networks_shrink_inside_cores() {
    let g = dataset("As-733").unwrap().generate();
    let psi = Pattern::triangle();
    let (_, core_stats) = core_exact(&g, &psi);
    let (_, exact_stats) = exact(&g, &psi);
    let full = exact_stats.network_nodes[0];
    let located = core_stats.exact.network_nodes[0];
    assert!(
        (located as f64) < 0.7 * full as f64,
        "located network {located} not clearly smaller than full network {full}"
    );
    // Monotone non-increase across iterations (rebuilds only shrink).
    for w in core_stats.exact.network_nodes.windows(2) {
        assert!(
            w[1] <= w[0],
            "network grew: {:?}",
            core_stats.exact.network_nodes
        );
    }
}

/// Claim (Fig. 8): CoreExact is faster than Exact on skewed graphs, and
/// both return identical densities. Wall-clock is noisy in debug builds,
/// so we assert the *mechanism*: the total flow-network work (Σ nodes over
/// all min-cut probes) must be far smaller for CoreExact — that product is
/// what the paper's ≥ 4.5× speedup comes from.
#[test]
fn core_exact_beats_exact_on_skewed_graphs() {
    let g = dataset("Ca-HepTh").unwrap().generate();
    let psi = Pattern::triangle();
    let (a, exact_stats) = exact(&g, &psi);
    let (b, core_stats) = core_exact(&g, &psi);
    assert!((a.density - b.density).abs() < 1e-6);
    let exact_work: usize = exact_stats.network_nodes.iter().sum();
    let core_work: usize = core_stats.exact.network_nodes.iter().sum();
    assert!(
        (core_work as f64) < 0.1 * exact_work as f64,
        "CoreExact probed {core_work} network-nodes vs Exact's {exact_work}"
    );
}

/// Claim (Table 3): the decomposition share of CoreExact's time drops as
/// the clique grows.
#[test]
fn decomposition_share_falls_with_h() {
    let g = dataset("As-733").unwrap().generate();
    let share = |h: usize| {
        let (_, stats) = core_exact(&g, &Pattern::clique(h));
        stats.decomposition_nanos as f64 / stats.total_nanos.max(1) as f64
    };
    let s2 = share(2);
    let s4 = share(4);
    assert!(
        s4 < s2 + 0.25,
        "share at h=4 ({s4:.3}) should not dwarf share at h=2 ({s2:.3})"
    );
}

/// Claim (Fig. 11): actual approximation ratios are far above 1/|VΨ| and
/// usually close to 1.
#[test]
fn actual_ratios_beat_theory() {
    let g = dataset("Netscience").unwrap().generate();
    for h in [2usize, 3, 4] {
        let psi = Pattern::clique(h);
        let (opt, _) = core_exact(&g, &psi);
        if opt.density == 0.0 {
            continue;
        }
        let approx = core_app(&g, &psi);
        let ratio = approx.result.density / opt.density;
        assert!(
            ratio > 0.8,
            "h = {h}: actual ratio {ratio:.3} not close to 1"
        );
    }
}

/// Claim (Fig. 13–14): flat ER degrees defeat core pruning — the kmax-core
/// covers most of the graph — while skewed graphs have tiny cores.
#[test]
fn er_core_is_almost_everything() {
    let flat = er::er(4_000, 0.003, 5);
    let core = inc_app(&flat, &Pattern::edge());
    let frac = core.result.len() as f64 / flat.num_vertices() as f64;
    assert!(
        frac > 0.5,
        "ER kmax-core covers only {frac:.2} of the graph"
    );

    let skewed = dataset("As-733").unwrap().generate();
    let score = inc_app(&skewed, &Pattern::edge());
    let sfrac = score.result.len() as f64 / skewed.num_vertices() as f64;
    assert!(sfrac < 0.2, "skewed kmax-core covers {sfrac:.2}");
}

/// Claim (Table 5): clique-densities of the CDS dominate the same measure
/// on the EDS, and the two subgraphs can differ.
#[test]
fn cds_densities_dominate_eds_densities() {
    let g = dataset("Yeast").unwrap().generate();
    let (eds, _) = core_exact(&g, &Pattern::edge());
    let eds_set = dsd::graph::VertexSet::from_members(g.num_vertices(), &eds.vertices);
    for h in [3usize, 4] {
        let psi = Pattern::clique(h);
        let (cds, _) = core_exact(&g, &psi);
        let oracle = oracle_for(&psi);
        let on_eds = dsd::core::density(oracle.as_ref(), &g, &eds_set);
        assert!(cds.density + 1e-9 >= on_eds, "h = {h}");
    }
}

/// Claim (Theorem 1 via stats): kmax/|VΨ| ≤ ρ(kmax-core) ≤ kmax on real
/// stand-ins, making the bounds usable for pruning.
#[test]
fn theorem1_is_tight_enough_to_prune() {
    let g = dataset("Netscience").unwrap().generate();
    let psi = Pattern::triangle();
    let oracle = oracle_for(&psi);
    let dec = decompose(&g, oracle.as_ref());
    let core = dec.max_core();
    let rho = dsd::core::density(oracle.as_ref(), &g, &core);
    assert!(rho + 1e-9 >= dec.kmax as f64 / 3.0);
    assert!(rho <= dec.kmax as f64 + 1e-9);
    // And the located core is small (the whole point of pruning).
    assert!(core.len() < g.num_vertices() / 10);
}

/// Claim (Fig. 10): disabling all prunings never changes the answer, only
/// the cost.
#[test]
fn prunings_are_semantically_transparent() {
    let g = dataset("Yeast").unwrap().generate();
    let psi = Pattern::triangle();
    let reference = core_exact(&g, &psi).0.density;
    let none = CoreExactConfig {
        pruning1: false,
        pruning2: false,
        pruning3: false,
        ..CoreExactConfig::default()
    };
    let (r, _) = Substrates::cold(&g, &psi).core_exact(none);
    assert!((r.density - reference).abs() < 1e-7);
}

/// Future-work extension: the at-least-k densest subgraph interpolates
/// between the unconstrained optimum and the whole graph.
#[test]
fn size_constrained_interpolates() {
    let g = dataset("Yeast").unwrap().generate();
    let psi = Pattern::edge();
    let unconstrained = peel_app(&g, &psi).density;
    let mut last = f64::INFINITY;
    for k in [2usize, 50, 200, 800, g.num_vertices()] {
        let r = densest_at_least_k(&g, &psi, k).unwrap();
        assert!(r.len() >= k);
        assert!(r.density <= unconstrained + 1e-9);
        assert!(r.density <= last + 1e-9, "density must not increase with k");
        last = r.density;
    }
}

/// The one-call API agrees with the underlying algorithms.
#[test]
fn facade_methods_are_consistent() {
    let g = dataset("Yeast").unwrap().generate();
    let psi = Pattern::triangle();
    let a = dsd::core::densest_subgraph(&g, &psi, Method::CoreExact);
    let (b, _) = core_exact(&g, &psi);
    assert_eq!(a.vertices, b.vertices);
}
