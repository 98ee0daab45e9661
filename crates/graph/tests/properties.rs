//! Property-style tests of the graph substrate, driven by a deterministic
//! xorshift generator (the container has no crates.io access, so these use
//! seed loops instead of a property-testing framework).

use dsd_graph::testing::XorShift;
use dsd_graph::{connected_components, Graph, GraphBuilder, InducedSubgraph};

/// A random (n, edge-list) pair: n in `2..=max_n`, up to `4n` pairs that may
/// include self-loops and duplicates (the builder's job is to clean them up).
fn random_edges(rng: &mut XorShift, max_n: usize) -> (usize, Vec<(u32, u32)>) {
    let n = 2 + (rng.next() as usize) % (max_n - 1);
    let m = (rng.next() as usize) % (4 * n);
    let edges = (0..m)
        .map(|_| {
            (
                (rng.next() % n as u64) as u32,
                (rng.next() % n as u64) as u32,
            )
        })
        .collect();
    (n, edges)
}

#[test]
fn builder_invariants() {
    let mut rng = XorShift::new(0xB111);
    for _ in 0..128 {
        let (n, edges) = random_edges(&mut rng, 40);
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = b.build();
        let mut half_edge_count = 0usize;
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            half_edge_count += nbrs.len();
            // Sorted + unique.
            for w in nbrs.windows(2) {
                assert!(w[0] < w[1]);
            }
            // No self loops, symmetric.
            for &u in nbrs {
                assert_ne!(u, v);
                assert!(g.has_edge(u, v));
                assert!(g.neighbors(u).contains(&v));
            }
        }
        assert_eq!(half_edge_count, 2 * g.num_edges());
        // Edge count equals the deduplicated canonical pair count.
        let mut canon: Vec<(u32, u32)> = edges
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        canon.sort_unstable();
        canon.dedup();
        assert_eq!(g.num_edges(), canon.len());
    }
}

#[test]
fn induced_subgraph_preserves_inside_edges() {
    let mut rng = XorShift::new(0x5AB2);
    for _ in 0..128 {
        let (n, edges) = random_edges(&mut rng, 30);
        let g = Graph::from_edges(n, &edges);
        // Take every other vertex.
        let members: Vec<u32> = (0..n as u32).step_by(2).collect();
        let sub = InducedSubgraph::new(&g, &members);
        let inside: usize = g.edges().filter(|&(u, v)| u % 2 == 0 && v % 2 == 0).count();
        assert_eq!(sub.graph.num_edges(), inside);
        // Every subgraph edge maps to a parent edge.
        for (u, v) in sub.graph.edges() {
            assert!(g.has_edge(sub.to_parent(u), sub.to_parent(v)));
        }
    }
}

#[test]
fn components_partition() {
    let mut rng = XorShift::new(0xC0C0);
    for _ in 0..128 {
        let (n, edges) = random_edges(&mut rng, 40);
        let g = Graph::from_edges(n, &edges);
        let cc = connected_components(&g);
        for v in g.vertices() {
            assert!(cc.label[v as usize] != u32::MAX);
            for &u in g.neighbors(v) {
                assert_eq!(cc.label[u as usize], cc.label[v as usize]);
            }
        }
        let total: usize = cc.all_members().iter().map(Vec::len).sum();
        assert_eq!(total, n);
    }
}

#[test]
fn io_round_trip() {
    let mut rng = XorShift::new(0x10F1);
    for _ in 0..128 {
        let (n, edges) = random_edges(&mut rng, 25);
        let g = Graph::from_edges(n, &edges);
        let text = dsd_graph::io::to_edge_list_string(&g);
        let g2 = dsd_graph::io::parse_edge_list(&text).unwrap();
        assert_eq!(g, g2);
    }
}
