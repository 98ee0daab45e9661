//! Bench: pattern-densest-subgraph machinery (Figures 15–16 in
//! microbenchmark form), including the construct+ grouping ablation.
//! Plain `Instant`-timed harness — no criterion offline.

use dsd_bench::util::report;
use dsd_core::flownet::build_pattern_network;
use dsd_core::{core_exact, exact, peel_app};
use dsd_datasets::chung_lu;
use dsd_graph::VertexId;
use dsd_motif::Pattern;

fn main() {
    println!("== pattern_exact ==");
    let g = chung_lu::chung_lu(600, 1_800, 2.5, 51);
    for psi in [Pattern::two_star(), Pattern::diamond()] {
        report(&format!("PExact/{}", psi.name()), 5, || {
            std::hint::black_box(exact(&g, &psi));
        });
        report(&format!("CorePExact/{}", psi.name()), 5, || {
            std::hint::black_box(core_exact(&g, &psi));
        });
    }

    println!("== pattern_peel ==");
    let g = chung_lu::chung_lu(1_000, 3_000, 2.5, 52);
    for psi in [Pattern::two_star(), Pattern::diamond(), Pattern::c3_star()] {
        report(psi.name(), 5, || {
            std::hint::black_box(peel_app(&g, &psi));
        });
    }

    // Algorithm 7 (construct+) vs Algorithm 8 networks: grouping shrinks
    // the node count whenever instances share vertex sets.
    println!("== construct_plus_ablation ==");
    let g = chung_lu::chung_lu(800, 3_200, 2.4, 53);
    let members: Vec<VertexId> = g.vertices().collect();
    let psi = Pattern::diamond();
    report("ungrouped_build", 10, || {
        std::hint::black_box(build_pattern_network(&g, &members, &psi, false));
    });
    report("grouped_build", 10, || {
        std::hint::black_box(build_pattern_network(&g, &members, &psi, true));
    });
    report("ungrouped_solve", 10, || {
        let mut net = build_pattern_network(&g, &members, &psi, false);
        std::hint::black_box(net.solve(0.5));
    });
    report("grouped_solve", 10, || {
        let mut net = build_pattern_network(&g, &members, &psi, true);
        std::hint::black_box(net.solve(0.5));
    });
}
