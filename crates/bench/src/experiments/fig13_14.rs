//! Figures 13–14: exact and approximation CDS algorithms on the three
//! synthetic random-graph families (SSCA, ER, R-MAT).
//!
//! The paper's headline observation: core pruning wins big on SSCA and
//! R-MAT (skewed/planted structure) but barely helps on ER, whose flat
//! degrees make the kmax-core ≈ the whole graph.

use dsd_core::{core_app, core_exact, exact, inc_app, peel_app};
use dsd_datasets::{er, rmat, ssca};
use dsd_graph::Graph;
use dsd_motif::Pattern;

use crate::util::{print_table, secs, time, ExactBudget};

fn graphs(quick: bool) -> Vec<(&'static str, Graph)> {
    if quick {
        vec![
            ("SSCA", ssca::ssca(3_000, 12, 1.5, 11)),
            ("ER", er::er(3_000, 0.004, 12)),
            (
                "R-MAT",
                rmat::rmat(11, 18_000, rmat::RmatParams::default(), 13),
            ),
        ]
    } else {
        vec![
            ("SSCA", dsd_datasets::dataset("SSCA").unwrap().generate()),
            ("ER", dsd_datasets::dataset("ER").unwrap().generate()),
            ("R-MAT", dsd_datasets::dataset("R-MAT").unwrap().generate()),
        ]
    }
}

/// Figure 13: exact algorithms on random graphs.
pub fn run_exact(quick: bool) {
    let hs: Vec<usize> = if quick { vec![2, 3] } else { vec![2, 3, 4] };
    let budget = ExactBudget::default();
    let mut rows = Vec::new();
    for (name, g) in graphs(quick) {
        for &h in &hs {
            let psi = Pattern::clique(h);
            let exact_cell = match budget.admit(&g, h) {
                Ok(()) => {
                    let ((r, _), t) = time(|| exact(&g, &psi));
                    std::hint::black_box(r.density);
                    secs(t)
                }
                Err(reason) => reason,
            };
            let ((core_r, _), core_t) = time(|| core_exact(&g, &psi));
            rows.push(vec![
                name.to_string(),
                format!("{h}-clique"),
                exact_cell,
                secs(core_t),
                format!("{:.4}", core_r.density),
            ]);
        }
    }
    print_table(
        "Figure 13: exact CDS on random graphs (seconds)",
        &["dataset", "Ψ", "Exact", "CoreExact", "ρopt"].map(String::from),
        &rows,
    );
}

/// Figure 14: approximation algorithms on random graphs.
pub fn run_approx(quick: bool) {
    let hs: Vec<usize> = if quick { vec![2, 3] } else { vec![2, 3, 4, 5] };
    let mut rows = Vec::new();
    for (name, g) in graphs(quick) {
        for &h in &hs {
            let psi = Pattern::clique(h);
            let (peel_r, peel_t) = time(|| peel_app(&g, &psi));
            let (inc_r, inc_t) = time(|| inc_app(&g, &psi));
            let (core_r, core_t) = time(|| core_app(&g, &psi));
            assert_eq!(inc_r.kmax, core_r.kmax);
            let core_frac = if g.num_vertices() > 0 {
                core_r.result.len() as f64 / g.num_vertices() as f64
            } else {
                0.0
            };
            rows.push(vec![
                name.to_string(),
                format!("{h}-clique"),
                secs(peel_t),
                secs(inc_t),
                secs(core_t),
                format!("{:.1}%", 100.0 * core_frac),
                format!("{:.4}", peel_r.density.max(core_r.result.density)),
            ]);
        }
    }
    print_table(
        "Figure 14: approximation CDS on random graphs (seconds)",
        &[
            "dataset",
            "Ψ",
            "PeelApp",
            "IncApp",
            "CoreApp",
            "core size/n",
            "ρ̃",
        ]
        .map(String::from),
        &rows,
    );
}
