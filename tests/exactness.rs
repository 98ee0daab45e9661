//! Cross-crate exactness tests: every exact algorithm must agree with
//! brute-force subset enumeration on small random graphs, and the two
//! exact algorithms must agree with each other everywhere. Driven by a
//! deterministic xorshift seed loop (no crates.io access in the container).

use dsd::core::{core_exact, densest_subgraph, exact, oracle_for, Method};
use dsd::graph::testing::XorShift;
use dsd::graph::{Graph, VertexSet};
use dsd::motif::Pattern;

/// Brute-force ρopt over all non-empty vertex subsets.
fn brute_force_opt(g: &Graph, psi: &Pattern) -> f64 {
    let n = g.num_vertices();
    assert!(n <= 12, "brute force is exponential");
    let oracle = oracle_for(psi);
    let mut best = 0.0f64;
    for mask in 1u32..(1u32 << n) {
        let members: Vec<u32> = (0..n as u32).filter(|&v| mask & (1 << v) != 0).collect();
        let set = VertexSet::from_members(n, &members);
        let rho = dsd::core::density(oracle.as_ref(), g, &set);
        best = best.max(rho);
    }
    best
}

#[test]
fn exact_matches_brute_force_for_edges() {
    let mut rng = XorShift::new(0xED6E);
    for _ in 0..64 {
        let g = rng.random_graph(2, 9, 50);
        let psi = Pattern::edge();
        let (r, _) = exact(&g, &psi);
        let want = brute_force_opt(&g, &psi);
        assert!(
            (r.density - want).abs() < 1e-7,
            "got {} want {}",
            r.density,
            want
        );
    }
}

#[test]
fn core_exact_matches_brute_force_for_triangles() {
    let mut rng = XorShift::new(0x7219);
    for _ in 0..64 {
        let g = rng.random_graph(2, 9, 50);
        let psi = Pattern::triangle();
        let (r, _) = core_exact(&g, &psi);
        let want = brute_force_opt(&g, &psi);
        assert!(
            (r.density - want).abs() < 1e-7,
            "got {} want {}",
            r.density,
            want
        );
    }
}

#[test]
fn exact_and_core_exact_agree_on_4cliques() {
    let mut rng = XorShift::new(0x4C11);
    for _ in 0..64 {
        let g = rng.random_graph(2, 10, 50);
        let psi = Pattern::clique(4);
        let (a, _) = exact(&g, &psi);
        let (b, _) = core_exact(&g, &psi);
        assert!((a.density - b.density).abs() < 1e-7);
    }
}

#[test]
fn pexact_matches_brute_force_for_two_star() {
    let mut rng = XorShift::new(0x25A7);
    for _ in 0..64 {
        let g = rng.random_graph(2, 8, 50);
        let psi = Pattern::two_star();
        let (r, _) = exact(&g, &psi);
        let want = brute_force_opt(&g, &psi);
        assert!(
            (r.density - want).abs() < 1e-7,
            "got {} want {}",
            r.density,
            want
        );
    }
}

#[test]
fn core_pexact_matches_brute_force_for_diamond() {
    let mut rng = XorShift::new(0xD1A5);
    for _ in 0..64 {
        let g = rng.random_graph(2, 8, 50);
        let psi = Pattern::diamond();
        let (r, _) = core_exact(&g, &psi);
        let want = brute_force_opt(&g, &psi);
        assert!(
            (r.density - want).abs() < 1e-7,
            "got {} want {}",
            r.density,
            want
        );
    }
}

#[test]
fn pexact_matches_brute_force_for_c3_star() {
    let mut rng = XorShift::new(0xC357);
    for _ in 0..64 {
        let g = rng.random_graph(2, 8, 50);
        let psi = Pattern::c3_star();
        let (r, _) = exact(&g, &psi);
        let want = brute_force_opt(&g, &psi);
        assert!(
            (r.density - want).abs() < 1e-7,
            "got {} want {}",
            r.density,
            want
        );
    }
}

#[test]
fn reported_density_matches_reported_vertices() {
    let mut rng = XorShift::new(0x4E91);
    for _ in 0..64 {
        let g = rng.random_graph(2, 9, 50);
        let psi = Pattern::triangle();
        let r = densest_subgraph(&g, &psi, Method::CoreExact);
        let oracle = oracle_for(&psi);
        let set = VertexSet::from_members(g.num_vertices(), &r.vertices);
        let rho = dsd::core::density(oracle.as_ref(), &g, &set);
        assert!((rho - r.density).abs() < 1e-9);
    }
}

#[test]
fn paper_figure_fixtures_have_their_documented_answers() {
    use dsd::datasets::fixtures;

    // Figure 1(a): EDS = S1 (11/7), triangle-CDS = S2 (1/2).
    let g = fixtures::figure1a();
    let eds = densest_subgraph(&g, &Pattern::edge(), Method::CoreExact);
    assert_eq!(eds.vertices, fixtures::FIGURE1A_S1.to_vec());
    assert!((eds.density - 11.0 / 7.0).abs() < 1e-9);
    let cds = densest_subgraph(&g, &Pattern::triangle(), Method::CoreExact);
    assert_eq!(cds.vertices, fixtures::FIGURE1A_S2.to_vec());
    assert!((cds.density - 0.5).abs() < 1e-9);

    // Figure 2(a): triangle-density 1/3 on {B, C, D}.
    let g2 = fixtures::figure2a();
    let r2 = densest_subgraph(&g2, &Pattern::triangle(), Method::Exact);
    assert_eq!(r2.vertices, vec![1, 2, 3]);
    assert!((r2.density - 1.0 / 3.0).abs() < 1e-9);

    // Figure 6(a): diamond-PDS = the K4 {A, D, E, F} with 3 instances.
    let g6 = fixtures::figure6a();
    let r6 = densest_subgraph(&g6, &Pattern::diamond(), Method::CoreExact);
    assert_eq!(r6.vertices, vec![0, 3, 4, 5]);
    assert!((r6.density - 0.75).abs() < 1e-9);
}
