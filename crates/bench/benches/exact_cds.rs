//! Bench: `Exact` vs `CoreExact` — the Figure-8(a-e) headline in
//! microbenchmark form, plus the Figure-10 pruning ablation. Plain
//! `Instant`-timed harness — no criterion offline.

use dsd_bench::util::report;
use dsd_core::{core_exact, exact, CoreExactConfig, Substrates};
use dsd_datasets::chung_lu;
use dsd_motif::Pattern;

fn main() {
    println!("== exact_vs_core_exact ==");
    let g = chung_lu::chung_lu(1_500, 5_000, 2.4, 31);
    for h in [2usize, 3] {
        let psi = Pattern::clique(h);
        report(&format!("Exact/h={h}"), 5, || {
            std::hint::black_box(exact(&g, &psi));
        });
        report(&format!("CoreExact/h={h}"), 5, || {
            std::hint::black_box(core_exact(&g, &psi));
        });
    }

    println!("== core_exact_prunings ==");
    let g = chung_lu::chung_lu(2_000, 7_000, 2.4, 32);
    let psi = Pattern::triangle();
    let variants = [
        ("none", (false, false, false)),
        ("P1", (true, false, false)),
        ("P1+P2", (true, true, false)),
        ("all", (true, true, true)),
    ];
    for (name, (p1, p2, p3)) in variants {
        let config = CoreExactConfig {
            pruning1: p1,
            pruning2: p2,
            pruning3: p3,
            ..CoreExactConfig::default()
        };
        report(name, 5, || {
            std::hint::black_box(Substrates::cold(&g, &psi).core_exact(config));
        });
    }
}
