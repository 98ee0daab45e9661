//! End-to-end pipeline tests: registry datasets → statistics → DSD
//! algorithms, plus edge-case/failure-injection coverage.

use dsd::core::{
    core_app, core_exact, densest_subgraph, densest_with_query, emcore_max_core,
    k_core_decomposition, peel_app, Method,
};
use dsd::datasets::{all_datasets, compute_stats, dataset, DatasetKind};
use dsd::graph::io::{parse_edge_list, to_edge_list_string};
use dsd::graph::Graph;
use dsd::motif::Pattern;

#[test]
fn yeast_standin_full_pipeline() {
    let d = dataset("Yeast").expect("registered");
    let g = d.generate();
    let stats = compute_stats(&g);
    assert_eq!(stats.vertices, 1116);
    // Exact and approximate answers, cross-checked.
    let (opt, meta) = core_exact(&g, &Pattern::triangle());
    let approx = core_app(&g, &Pattern::triangle());
    assert!(approx.result.density <= opt.density + 1e-9);
    assert!(approx.result.density + 1e-9 >= opt.density / 3.0);
    assert!(meta.kmax as f64 >= opt.density);
}

#[test]
fn io_round_trip_preserves_answers() {
    let d = dataset("Netscience").expect("registered");
    let g = d.generate();
    let text = to_edge_list_string(&g);
    let g2 = parse_edge_list(&text).expect("round trip");
    assert_eq!(g, g2);
    let a = densest_subgraph(&g, &Pattern::edge(), Method::CoreExact);
    let b = densest_subgraph(&g2, &Pattern::edge(), Method::CoreExact);
    assert_eq!(a.vertices, b.vertices);
}

#[test]
fn all_registry_datasets_generate() {
    for d in all_datasets() {
        let g = d.generate();
        assert!(g.num_vertices() > 0, "{} generated empty", d.name);
        assert!(g.num_edges() > 0, "{} generated edgeless", d.name);
        if d.kind == DatasetKind::SmallReal {
            assert_eq!(g.num_vertices(), d.paper_vertices, "{}", d.name);
        }
    }
}

#[test]
fn emcore_agrees_with_bottom_up_on_standins() {
    let g = dataset("As-733").unwrap().generate();
    let em = emcore_max_core(&g);
    let classical = k_core_decomposition(&g);
    assert_eq!(em.kmax, classical.kmax as u64);
    assert_eq!(em.result.vertices, classical.max_core().to_vec());
}

#[test]
fn query_variant_on_standin() {
    let g = dataset("Yeast").unwrap().generate();
    let unconstrained = densest_subgraph(&g, &Pattern::edge(), Method::CoreExact);
    // Querying a vertex of the EDS returns the EDS density.
    let inside = unconstrained.vertices[0];
    let r = densest_with_query(&g, &[inside]).unwrap();
    assert!((r.density - unconstrained.density).abs() < 1e-6);
    // Querying any vertex can never beat the unconstrained optimum.
    let r2 = densest_with_query(&g, &[0]).unwrap();
    assert!(r2.density <= unconstrained.density + 1e-9);
    assert!(r2.vertices.contains(&0));
}

// ---- failure injection -----------------------------------------------

#[test]
fn empty_graph_everywhere() {
    let g = Graph::empty(0);
    for method in [
        Method::Exact,
        Method::CoreExact,
        Method::PeelApp,
        Method::IncApp,
    ] {
        let r = densest_subgraph(&g, &Pattern::triangle(), method);
        assert!(r.is_empty(), "{method:?}");
        assert_eq!(r.density, 0.0);
    }
}

#[test]
fn isolated_vertices_only() {
    let g = Graph::empty(7);
    let r = densest_subgraph(&g, &Pattern::edge(), Method::CoreExact);
    assert!(r.is_empty());
    let peel = peel_app(&g, &Pattern::edge());
    assert!(peel.is_empty());
}

#[test]
fn pattern_with_no_instances() {
    // A tree has no cycles and no triangles.
    let g = Graph::from_edges(6, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]);
    for psi in [
        Pattern::triangle(),
        Pattern::diamond(),
        Pattern::two_triangle(),
    ] {
        let r = densest_subgraph(&g, &psi, Method::CoreExact);
        assert!(r.is_empty(), "{}", psi.name());
    }
    // But stars exist everywhere.
    let s = densest_subgraph(&g, &Pattern::two_star(), Method::CoreExact);
    assert!(!s.is_empty());
}

#[test]
fn duplicate_and_self_loop_input() {
    let g = parse_edge_list("0 1\n1 0\n0 0\n1 2\n0 2\n0 2\n").unwrap();
    assert_eq!(g.num_edges(), 3);
    let r = densest_subgraph(&g, &Pattern::triangle(), Method::CoreExact);
    assert_eq!(r.vertices, vec![0, 1, 2]);
    assert!((r.density - 1.0 / 3.0).abs() < 1e-9);
}

#[test]
fn disconnected_graph_picks_denser_component() {
    // Component A: C4 (density 1). Component B: K4 (density 1.5).
    let g = Graph::from_edges(
        8,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (0, 3),
            (4, 5),
            (4, 6),
            (4, 7),
            (5, 6),
            (5, 7),
            (6, 7),
        ],
    );
    let r = densest_subgraph(&g, &Pattern::edge(), Method::CoreExact);
    assert_eq!(r.vertices, vec![4, 5, 6, 7]);
}

#[test]
fn single_edge_graph() {
    let g = Graph::from_edges(2, &[(0, 1)]);
    let r = densest_subgraph(&g, &Pattern::edge(), Method::CoreExact);
    assert_eq!(r.vertices, vec![0, 1]);
    assert!((r.density - 0.5).abs() < 1e-9);
}

#[test]
fn facade_reexports_compose() {
    // The `dsd` facade exposes all five crates coherently.
    let g = dsd::datasets::er::er(50, 0.2, 1);
    let order = dsd::graph::degeneracy_order(&g);
    assert!(order.degeneracy > 0);
    let cliques = dsd::motif::count_cliques(&g, 3);
    let r = densest_subgraph(&g, &Pattern::triangle(), Method::CoreApp);
    if cliques > 0 {
        assert!(r.density > 0.0);
    }
    let mut net = dsd::flow::FlowNetwork::new(2);
    net.add_edge(0, 1, 1.0);
    assert!((dsd::flow::Dinic::new().max_flow(&mut net, 0, 1) - 1.0).abs() < 1e-9);
}
