//! Figures 15–16: pattern-densest-subgraph (PDS) experiments over the
//! Figure-7 pattern menu — exact (PExact vs CorePExact) on the small
//! datasets, approximation (PeelApp/IncApp/CoreApp) on the large ones.

use dsd_core::{core_app, core_exact, exact, inc_app, peel_app};
use dsd_datasets::dataset;
use dsd_graph::{Graph, VertexSet};
use dsd_motif::{pattern_enum, Pattern, PatternKind};

use crate::util::{print_table, secs, time};

/// Cap on materialized pattern instances — combos above it print as capped
/// (the paper's 3-day-timeout bars).
const INSTANCE_CAP: u64 = 2_000_000;

/// Exact PDS materializes the full instance set in its flow network, so
/// every pattern is subject to the cap.
fn admit_exact(g: &Graph, psi: &Pattern) -> Result<(), String> {
    let alive = VertexSet::full(g.num_vertices());
    match pattern_enum::count_instances_capped(g, psi, &alive, INSTANCE_CAP) {
        Some(_) => Ok(()),
        None => Err(format!("capped: >{INSTANCE_CAP} instances")),
    }
}

/// Approximation PDS only needs degrees: stars and diamonds go through the
/// Appendix-D closed forms and never materialize instances, so only
/// general patterns need the cap.
fn admit_approx(g: &Graph, psi: &Pattern) -> Result<(), String> {
    match psi.kind() {
        PatternKind::General => admit_exact(g, psi),
        _ => Ok(()),
    }
}

/// Figure 15: exact PDS algorithms.
pub fn run_exact(quick: bool) {
    let patterns = if quick {
        vec![Pattern::two_star(), Pattern::c3_star(), Pattern::diamond()]
    } else {
        Pattern::figure7()
    };
    let names = if quick {
        vec!["As-733"]
    } else {
        vec!["As-733", "Ca-HepTh"]
    };
    for name in names {
        let d = dataset(name).expect("registry dataset");
        let g = d.generate();
        let mut rows = Vec::new();
        for psi in &patterns {
            match admit_exact(&g, psi).map(|_| ()) {
                Err(reason) => {
                    rows.push(vec![psi.name().into(), reason.clone(), reason, "-".into()]);
                }
                Ok(_) => {
                    let ((pe, _), pe_t) = time(|| exact(&g, psi));
                    let ((ce, _), ce_t) = time(|| core_exact(&g, psi));
                    assert!(
                        (pe.density - ce.density).abs() < 1e-6,
                        "{name} {}: PExact {} vs CorePExact {}",
                        psi.name(),
                        pe.density,
                        ce.density
                    );
                    rows.push(vec![
                        psi.name().into(),
                        secs(pe_t),
                        secs(ce_t),
                        format!("{:.4}", ce.density),
                    ]);
                }
            }
        }
        print_table(
            &format!("Figure 15 ({name}): exact PDS algorithms (seconds)"),
            &["Ψ", "PExact", "CorePExact", "ρopt"].map(String::from),
            &rows,
        );
    }
}

/// Figure 16: approximation PDS algorithms.
pub fn run_approx(quick: bool) {
    let patterns = if quick {
        vec![Pattern::two_star(), Pattern::diamond()]
    } else {
        Pattern::figure7()
    };
    let names = if quick {
        vec!["DBLP"]
    } else {
        vec!["DBLP", "Cit-Patents"]
    };
    for name in names {
        let d = dataset(name).expect("registry dataset");
        let g = d.generate();
        let mut rows = Vec::new();
        for psi in &patterns {
            if let Err(reason) = admit_approx(&g, psi) {
                rows.push(vec![
                    psi.name().into(),
                    reason.clone(),
                    reason.clone(),
                    reason,
                ]);
                continue;
            }
            let (peel_r, peel_t) = time(|| peel_app(&g, psi));
            let (inc_r, inc_t) = time(|| inc_app(&g, psi));
            let (core_r, core_t) = time(|| core_app(&g, psi));
            assert_eq!(inc_r.kmax, core_r.kmax, "{name} {}", psi.name());
            std::hint::black_box(peel_r.density);
            rows.push(vec![
                psi.name().into(),
                secs(peel_t),
                secs(inc_t),
                secs(core_t),
            ]);
        }
        print_table(
            &format!("Figure 16 ({name}): approximation PDS algorithms (seconds)"),
            &["Ψ", "PeelApp", "IncApp", "CoreApp"].map(String::from),
            &rows,
        );
    }
}
