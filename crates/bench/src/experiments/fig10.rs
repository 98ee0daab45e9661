//! Figure 10: the individual effect of CoreExact's three pruning criteria.
//! P1/P2/P3 enable exactly one pruning each; "All" is the full CoreExact.

use dsd_core::{CoreExactConfig, Substrates};
use dsd_datasets::dataset;
use dsd_motif::Pattern;

use crate::util::{print_table, secs, time};

fn config(p1: bool, p2: bool, p3: bool) -> CoreExactConfig {
    CoreExactConfig {
        pruning1: p1,
        pruning2: p2,
        pruning3: p3,
        ..CoreExactConfig::default()
    }
}

/// Runs the Figure-10 pruning ablation.
pub fn run(quick: bool) {
    let hs: Vec<usize> = if quick { vec![2, 3] } else { vec![2, 3, 4, 5] };
    let names = if quick {
        vec!["As-733"]
    } else {
        vec!["As-733", "Ca-HepTh"]
    };
    let variants: [(&str, CoreExactConfig); 5] = [
        ("none", config(false, false, false)),
        ("P1", config(true, false, false)),
        ("P2", config(false, true, false)),
        ("P3", config(false, false, true)),
        ("All", config(true, true, true)),
    ];
    for name in names {
        let d = dataset(name).expect("registry dataset");
        let g = d.generate();
        let mut rows = Vec::new();
        for &h in &hs {
            let psi = Pattern::clique(h);
            let mut row = vec![format!("{h}-clique")];
            let mut reference_density: Option<f64> = None;
            for (_, cfg) in &variants {
                let ((r, _), t) = time(|| Substrates::cold(&g, &psi).core_exact(*cfg));
                if let Some(ref_d) = reference_density {
                    assert!(
                        (r.density - ref_d).abs() < 1e-6,
                        "pruning variant changed the answer on {name} h={h}"
                    );
                } else {
                    reference_density = Some(r.density);
                }
                row.push(secs(t));
            }
            rows.push(row);
        }
        let header: Vec<String> = std::iter::once("Ψ".to_string())
            .chain(variants.iter().map(|(n, _)| n.to_string()))
            .collect();
        print_table(
            &format!("Figure 10 ({name}): pruning ablation (seconds)"),
            &header,
            &rows,
        );
    }
}
