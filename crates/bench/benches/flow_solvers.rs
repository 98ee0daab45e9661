//! Bench: Dinic min-cut probes and network construction on the paper's
//! density-decision networks. Plain `Instant`-timed harness — no
//! crates.io access, so no criterion.

use dsd_bench::util::report;
use dsd_core::flownet::{build_clique_network, build_edge_network};
use dsd_datasets::chung_lu;
use dsd_graph::VertexId;

fn main() {
    println!("== goldberg_network ==");
    let g = chung_lu::chung_lu(3_000, 12_000, 2.4, 21);
    let members: Vec<VertexId> = g.vertices().collect();
    report("Dinic", 10, || {
        // Rebuild per iteration: solve() mutates the flow state, and a
        // mid-range guess forces real augmentation work.
        let mut net = build_edge_network(&g, &members);
        std::hint::black_box(net.solve(2.0));
    });

    println!("== triangle_network ==");
    let g = chung_lu::chung_lu(2_000, 8_000, 2.4, 22);
    let members: Vec<VertexId> = g.vertices().collect();
    report("Dinic", 10, || {
        let mut net = build_clique_network(&g, &members, 3);
        std::hint::black_box(net.solve(0.5));
    });

    println!("== network_construction ==");
    let g = chung_lu::chung_lu(2_000, 8_000, 2.4, 23);
    let members: Vec<VertexId> = g.vertices().collect();
    report("goldberg", 20, || {
        std::hint::black_box(build_edge_network(&g, &members));
    });
    report("triangle", 20, || {
        std::hint::black_box(build_clique_network(&g, &members, 3));
    });
}
