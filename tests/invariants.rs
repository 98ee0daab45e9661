//! Property-style invariant tests spanning the whole stack: the paper's
//! theorems must hold on arbitrary graphs. Driven by a deterministic
//! xorshift seed loop (no crates.io access in the container).

use dsd::core::clique_core::decompose_within;
use dsd::core::kcore::k_core_decomposition_within;
use dsd::core::{
    core_app, core_exact, decompose, density, inc_app, k_core_decomposition, nucleus_decomposition,
    oracle_for, peel_app, CliqueCoreDecomposition, KCoreDecomposition,
};
use dsd::graph::testing::XorShift;
use dsd::graph::VertexSet;
use dsd::motif::Pattern;

/// Theorem 1: k/|VΨ| ≤ ρ(Rk, Ψ) ≤ kmax for every (k, Ψ)-core.
#[test]
fn theorem1_bounds_hold() {
    let mut rng = XorShift::new(0x7801);
    for _ in 0..48 {
        let g = rng.random_graph(2, 12, 45);
        for psi in [Pattern::edge(), Pattern::triangle(), Pattern::two_star()] {
            let oracle = oracle_for(&psi);
            let dec = decompose(&g, oracle.as_ref());
            for k in 1..=dec.kmax {
                let core = dec.core_set(k);
                if core.is_empty() {
                    continue;
                }
                let rho = density(oracle.as_ref(), &g, &core);
                assert!(rho + 1e-9 >= k as f64 / psi.vertex_count() as f64);
                assert!(rho <= dec.kmax as f64 + 1e-9);
            }
        }
    }
}

/// Lemma 5: ρopt ≤ kmax.
#[test]
fn rho_opt_bounded_by_kmax() {
    let mut rng = XorShift::new(0x5E11);
    for _ in 0..48 {
        let g = rng.random_graph(2, 10, 45);
        let psi = Pattern::triangle();
        let oracle = oracle_for(&psi);
        let dec = decompose(&g, oracle.as_ref());
        let (opt, _) = core_exact(&g, &psi);
        assert!(opt.density <= dec.kmax as f64 + 1e-9);
    }
}

/// Lemma 7: the CDS is inside the (⌈ρopt⌉, Ψ)-core.
#[test]
fn cds_is_inside_its_core() {
    let mut rng = XorShift::new(0xCD51);
    for _ in 0..48 {
        let g = rng.random_graph(2, 10, 45);
        let psi = Pattern::triangle();
        let oracle = oracle_for(&psi);
        let dec = decompose(&g, oracle.as_ref());
        let (opt, _) = core_exact(&g, &psi);
        if opt.density > 0.0 {
            let k = opt.density.ceil() as u64;
            let core = dec.core_set(k);
            for &v in &opt.vertices {
                assert!(core.contains(v), "CDS vertex {v} outside ({k},Ψ)-core");
            }
        }
    }
}

/// Lemmas 8/10: every approximation is within 1/|VΨ| of optimal.
#[test]
fn approximation_guarantees() {
    let mut rng = XorShift::new(0xA991);
    for _ in 0..48 {
        let g = rng.random_graph(2, 10, 45);
        for psi in [Pattern::edge(), Pattern::triangle(), Pattern::diamond()] {
            let (opt, _) = core_exact(&g, &psi);
            let floor = opt.density / psi.vertex_count() as f64 - 1e-9;
            assert!(
                peel_app(&g, &psi).density >= floor,
                "PeelApp {}",
                psi.name()
            );
            assert!(
                inc_app(&g, &psi).result.density >= floor,
                "IncApp {}",
                psi.name()
            );
            assert!(
                core_app(&g, &psi).result.density >= floor,
                "CoreApp {}",
                psi.name()
            );
        }
    }
}

/// Cores are nested, and every member of the (k, Ψ)-core has inner
/// degree ≥ k.
#[test]
fn core_structure() {
    let mut rng = XorShift::new(0xC02E);
    for _ in 0..48 {
        let g = rng.random_graph(2, 12, 45);
        let psi = Pattern::triangle();
        let oracle = oracle_for(&psi);
        let dec = decompose(&g, oracle.as_ref());
        for k in 1..=dec.kmax {
            let hi = dec.core_set(k);
            let lo = dec.core_set(k - 1);
            for v in hi.iter() {
                assert!(lo.contains(v), "nestedness broken at k={k}");
            }
            let deg = oracle.degrees(&g, &hi);
            for v in hi.iter() {
                assert!(deg[v as usize] >= k, "degree {} < {k}", deg[v as usize]);
            }
        }
    }
}

/// Whether the classical (Batagelj–Zaversnik) decomposition has the core
/// numbers and kmax of the edge pattern's peel.
fn same_cores(classical: &KCoreDecomposition, peeled: &CliqueCoreDecomposition) -> bool {
    let core: Vec<u64> = classical.core.iter().map(|&c| c as u64).collect();
    core == peeled.core && classical.kmax as u64 == peeled.kmax
}

/// The AND-style nucleus decomposition converges to the same core numbers
/// as the peel decomposition, for every clique size. At h = 2 the
/// classical k-core kernel matches the peel too, on the whole graph and on
/// a random induced subgraph: it is the referee the engine's classical
/// core numbers (the edge peel) are held to.
#[test]
fn nucleus_equals_peel_decomposition() {
    let mut rng = XorShift::new(0x91C1);
    let mut pick = XorShift::new(0xA11E);
    for _ in 0..48 {
        let g = rng.random_graph(2, 10, 45);
        for h in 2..=4usize {
            let nuc = nucleus_decomposition(&g, h);
            let oracle = oracle_for(&Pattern::clique(h));
            let dec = decompose(&g, oracle.as_ref());
            assert_eq!(&nuc.core, &dec.core, "h = {h}");
            if h == 2 {
                assert!(same_cores(&k_core_decomposition(&g), &dec));
                let mut alive = VertexSet::full(g.num_vertices());
                for v in g.vertices() {
                    if pick.next().is_multiple_of(3) {
                        alive.remove(v);
                    }
                }
                let within = decompose_within(&g, oracle.as_ref(), &alive);
                let classical = k_core_decomposition_within(&g, &alive);
                assert!(
                    same_cores(&classical, &within),
                    "alive {:?}",
                    alive.to_vec()
                );
            }
        }
    }
}

/// IncApp and CoreApp return the identical (kmax, Ψ)-core.
#[test]
fn inc_app_equals_core_app() {
    let mut rng = XorShift::new(0x1CA9);
    for _ in 0..48 {
        let g = rng.random_graph(2, 12, 45);
        for psi in [Pattern::edge(), Pattern::triangle(), Pattern::two_star()] {
            let a = inc_app(&g, &psi);
            let b = core_app(&g, &psi);
            assert_eq!(a.kmax, b.kmax);
            assert_eq!(&a.result.vertices, &b.result.vertices);
        }
    }
}

/// The peel lower bound ρ′ never exceeds ρopt, and the best residual
/// subgraph really achieves it.
#[test]
fn peel_density_is_achievable_lower_bound() {
    let mut rng = XorShift::new(0x9EE1);
    for _ in 0..48 {
        let g = rng.random_graph(2, 10, 45);
        let psi = Pattern::triangle();
        let oracle = oracle_for(&psi);
        let dec = decompose(&g, oracle.as_ref());
        let (opt, _) = core_exact(&g, &psi);
        assert!(dec.best_density <= opt.density + 1e-9);
        let set = VertexSet::from_members(g.num_vertices(), &dec.best_residual());
        let rho = density(oracle.as_ref(), &g, &set);
        assert!((rho - dec.best_density).abs() < 1e-9);
    }
}
