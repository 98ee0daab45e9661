//! Figure 8: efficiency of exact (a–e) and approximation (f–j) CDS
//! algorithms across h-clique sizes.

use dsd_core::{core_exact, exact, inc_app, nucleus_app, peel_app};
use dsd_datasets::{all_datasets, DatasetKind};
use dsd_motif::Pattern;

use crate::util::{print_table, secs, time, ExactBudget};

/// Figure 8(a–e): `Exact` vs `CoreExact` on the small real datasets.
pub fn run_exact(quick: bool) {
    let hs: Vec<usize> = if quick {
        vec![2, 3, 4]
    } else {
        vec![2, 3, 4, 5, 6]
    };
    let datasets: Vec<_> = all_datasets()
        .into_iter()
        .filter(|d| d.kind == DatasetKind::SmallReal)
        .take(if quick { 3 } else { 5 })
        .collect();
    let budget = ExactBudget::default();
    let mut rows = Vec::new();
    for d in &datasets {
        let g = d.generate();
        for &h in &hs {
            let psi = Pattern::clique(h);
            let (exact_cell, exact_density) = match budget.admit(&g, h) {
                Ok(()) => {
                    let ((r, _), t) = time(|| exact(&g, &psi));
                    (secs(t), Some(r.density))
                }
                Err(reason) => (reason, None),
            };
            let ((core_r, _), core_t) = time(|| core_exact(&g, &psi));
            if let Some(ed) = exact_density {
                assert!(
                    (ed - core_r.density).abs() < 1e-6,
                    "{} h={h}: Exact {} vs CoreExact {}",
                    d.name,
                    ed,
                    core_r.density
                );
            }
            rows.push(vec![
                d.name.to_string(),
                format!("{h}-clique"),
                exact_cell,
                secs(core_t),
                format!("{:.4}", core_r.density),
            ]);
        }
    }
    print_table(
        "Figure 8(a-e): exact CDS algorithms (seconds)",
        &["dataset", "Ψ", "Exact", "CoreExact", "ρopt"].map(String::from),
        &rows,
    );
}

/// Figure 8(f–j): `Nucleus`, `PeelApp`, `IncApp`, `CoreApp` on the large
/// dataset stand-ins.
pub fn run_approx(quick: bool) {
    let hs: Vec<usize> = if quick { vec![2, 3] } else { vec![2, 3, 4, 5] };
    let datasets: Vec<_> = all_datasets()
        .into_iter()
        .filter(|d| d.kind == DatasetKind::LargeReal)
        .take(if quick { 2 } else { 5 })
        .collect();
    let mut rows = Vec::new();
    for d in &datasets {
        let g = d.generate();
        for &h in &hs {
            let psi = Pattern::clique(h);
            // Nucleus materializes every clique; guard like the paper's
            // 2-day bars.
            let nucleus_cell = {
                let alive = dsd_graph::VertexSet::full(g.num_vertices());
                match dsd_motif::kclist::count_cliques_within(&g, h, &alive) {
                    c if c > 4_000_000 => format!("capped: {c} cliques"),
                    _ => {
                        let (r, t) = time(|| nucleus_app(&g, h));
                        std::hint::black_box(r.kmax);
                        secs(t)
                    }
                }
            };
            let (peel_r, peel_t) = time(|| peel_app(&g, &psi));
            let (inc_r, inc_t) = time(|| inc_app(&g, &psi));
            let (core_r, core_t) = time(|| dsd_core::core_app(&g, &psi));
            assert_eq!(inc_r.kmax, core_r.kmax, "{} h={h}", d.name);
            rows.push(vec![
                d.name.to_string(),
                format!("{h}-clique"),
                nucleus_cell,
                secs(peel_t),
                secs(inc_t),
                secs(core_t),
                format!("{:.4}", peel_r.density.max(core_r.result.density)),
            ]);
        }
    }
    print_table(
        "Figure 8(f-j): approximation CDS algorithms (seconds)",
        &[
            "dataset", "Ψ", "Nucleus", "PeelApp", "IncApp", "CoreApp", "ρ̃",
        ]
        .map(String::from),
        &rows,
    );
}
