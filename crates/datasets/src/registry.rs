//! The thirteen evaluation datasets (plus the three Appendix-E extras and
//! the repo's own multi-community graph) as named synthetic
//! configurations.
//!
//! Each entry records the paper's reported size (Appendix A, Figure 18),
//! the generator standing in for it, and the scale factor we apply so the
//! whole evaluation runs on one machine. Shapes — who wins, by what
//! factor — are preserved by matching the degree-distribution family; see
//! `DESIGN.md` §3.

use dsd_graph::Graph;

use crate::{chung_lu, er, multi_community, rmat, ssca};

/// Which experiment group a dataset belongs to (mirrors Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetKind {
    /// Small real graphs — exact algorithms run on these (Fig. 8a–e).
    SmallReal,
    /// Large real graphs — approximation algorithms only (Fig. 8f–j).
    LargeReal,
    /// GTgraph-style synthetic random graphs (Fig. 13–14).
    Synthetic,
    /// Appendix-E extras (Fig. 20).
    Extra,
}

/// How a dataset's stand-in graph is generated.
#[derive(Clone, Copy, Debug)]
enum Generator {
    /// Chung–Lu with (n, m, power-law α) plus a planted clique of size
    /// `overlay` on the highest-weight vertices.
    ///
    /// Real graphs are clique-rich — the paper's Figure 18 reports
    /// (kmax, Ψ)-core sizes of 10–944 and Table 5 observes that several
    /// CDS's *are* maximum cliques — while plain Chung–Lu sampling has
    /// vanishing clustering. The overlay (scaled from the reported
    /// triangle-core size, capped so C(overlay, 6) stays enumerable)
    /// restores the dense near-clique the h ≥ 4 experiments revolve
    /// around.
    ChungLu {
        n: usize,
        m: usize,
        alpha: f64,
        overlay: usize,
    },
    /// SSCA planted cliques (n, max clique size, inter-clique edges/vertex).
    Ssca {
        n: usize,
        max_clique: usize,
        inter: f64,
    },
    /// Erdős–Rényi (n, p).
    Er { n: usize, p: f64 },
    /// R-MAT (scale, edge draws).
    Rmat { scale: u32, m: usize },
    /// Multi-community: one planted dense cluster per `block_size` block,
    /// density skewed across blocks.
    MultiCommunity { blocks: usize, block_size: usize },
}

/// A named dataset configuration.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Paper's dataset name.
    pub name: &'static str,
    /// Experiment group.
    pub kind: DatasetKind,
    /// Vertex count reported in the paper.
    pub paper_vertices: usize,
    /// Edge count reported in the paper.
    pub paper_edges: usize,
    /// Power-law α reported in Figure 18 (0 where not applicable).
    pub paper_alpha: f64,
    /// Classical kmax reported in Figure 18.
    pub paper_kmax: usize,
    gen: Generator,
    seed: u64,
}

impl Dataset {
    /// Generates the stand-in graph (deterministic).
    pub fn generate(&self) -> Graph {
        match self.gen {
            Generator::ChungLu {
                n,
                m,
                alpha,
                overlay,
            } => chung_lu::chung_lu_with_clique(n, m, alpha, overlay, self.seed),
            Generator::Ssca {
                n,
                max_clique,
                inter,
            } => ssca::ssca(n, max_clique, inter, self.seed),
            Generator::Er { n, p } => er::er(n, p, self.seed),
            Generator::Rmat { scale, m } => {
                rmat::rmat(scale, m, rmat::RmatParams::default(), self.seed)
            }
            Generator::MultiCommunity { blocks, block_size } => {
                multi_community::multi_community(blocks, block_size, 0.02, 0.05, self.seed).graph
            }
        }
    }

    /// Scale factor versus the paper's graph (1.0 = full size).
    pub fn scale(&self) -> f64 {
        let n = match self.gen {
            Generator::ChungLu { n, .. } => n,
            Generator::Ssca { n, .. } => n,
            Generator::Er { n, .. } => n,
            Generator::Rmat { scale, .. } => 1usize << scale,
            Generator::MultiCommunity { blocks, block_size } => blocks * block_size,
        };
        n as f64 / self.paper_vertices as f64
    }
}

/// All datasets in paper order (Table 2 then Table 6).
pub fn all_datasets() -> Vec<Dataset> {
    use DatasetKind::*;
    use Generator::*;
    vec![
        // -- Real small graphs: full scale --------------------------------
        Dataset {
            name: "Yeast",
            kind: SmallReal,
            paper_vertices: 1116,
            paper_edges: 2148,
            paper_alpha: 2.9769,
            paper_kmax: 3,
            gen: ChungLu {
                n: 1116,
                m: 2148,
                alpha: 2.9769,
                overlay: 10,
            },
            seed: 1,
        },
        Dataset {
            name: "Netscience",
            kind: SmallReal,
            paper_vertices: 1589,
            paper_edges: 2742,
            paper_alpha: 2.4053,
            paper_kmax: 171,
            gen: ChungLu {
                n: 1589,
                m: 2742,
                alpha: 2.4053,
                overlay: 20,
            },
            seed: 2,
        },
        Dataset {
            name: "As-733",
            kind: SmallReal,
            paper_vertices: 1486,
            paper_edges: 3172,
            paper_alpha: 2.7204,
            paper_kmax: 39,
            gen: ChungLu {
                n: 1486,
                m: 3172,
                alpha: 2.7204,
                overlay: 24,
            },
            seed: 3,
        },
        Dataset {
            name: "Ca-HepTh",
            kind: SmallReal,
            paper_vertices: 9877,
            paper_edges: 25998,
            paper_alpha: 2.6472,
            paper_kmax: 456,
            gen: ChungLu {
                n: 9877,
                m: 25998,
                alpha: 2.6472,
                overlay: 24,
            },
            seed: 4,
        },
        Dataset {
            name: "As-Caida",
            kind: SmallReal,
            paper_vertices: 26475,
            paper_edges: 106762,
            paper_alpha: 2.7898,
            paper_kmax: 154,
            gen: ChungLu {
                n: 26475,
                m: 106762,
                alpha: 2.7898,
                overlay: 24,
            },
            seed: 5,
        },
        // -- Real large graphs: scaled down -------------------------------
        Dataset {
            name: "DBLP",
            kind: LargeReal,
            paper_vertices: 425_957,
            paper_edges: 1_049_866,
            paper_alpha: 2.3457,
            paper_kmax: 4175,
            gen: ChungLu {
                n: 42_000,
                m: 104_000,
                alpha: 2.3457,
                overlay: 24,
            },
            seed: 6,
        },
        Dataset {
            name: "Cit-Patents",
            kind: LargeReal,
            paper_vertices: 3_774_768,
            paper_edges: 16_518_948,
            paper_alpha: 2.284,
            paper_kmax: 1465,
            gen: ChungLu {
                n: 38_000,
                m: 166_000,
                alpha: 2.284,
                overlay: 24,
            },
            seed: 7,
        },
        Dataset {
            name: "Friendster",
            kind: LargeReal,
            paper_vertices: 20_145_325,
            paper_edges: 106_570_765,
            paper_alpha: 2.4466,
            paper_kmax: 224_532,
            gen: ChungLu {
                n: 40_000,
                m: 212_000,
                alpha: 2.4466,
                overlay: 24,
            },
            seed: 8,
        },
        Dataset {
            name: "Enwiki-2017",
            kind: LargeReal,
            paper_vertices: 5_409_498,
            paper_edges: 122_008_994,
            paper_alpha: 2.4443,
            paper_kmax: 13_435,
            gen: ChungLu {
                n: 12_000,
                m: 270_000,
                alpha: 2.4443,
                overlay: 24,
            },
            seed: 9,
        },
        Dataset {
            name: "UK-2002",
            kind: LargeReal,
            paper_vertices: 18_520_486,
            paper_edges: 298_113_762,
            paper_alpha: 2.4967,
            paper_kmax: 444_153,
            gen: ChungLu {
                n: 15_000,
                m: 240_000,
                alpha: 2.4967,
                overlay: 24,
            },
            seed: 10,
        },
        // -- Synthetic random graphs (GTgraph families) --------------------
        Dataset {
            name: "SSCA",
            kind: Synthetic,
            paper_vertices: 100_000,
            paper_edges: 3_405_676,
            paper_alpha: 7.2754,
            paper_kmax: 4950,
            gen: Ssca {
                n: 20_000,
                max_clique: 20,
                inter: 2.0,
            },
            seed: 11,
        },
        Dataset {
            name: "ER",
            kind: Synthetic,
            paper_vertices: 100_000,
            paper_edges: 4_837_534,
            paper_alpha: 63.6944,
            paper_kmax: 3,
            gen: Er {
                n: 20_000,
                p: 0.0012,
            },
            seed: 12,
        },
        Dataset {
            name: "R-MAT",
            kind: Synthetic,
            paper_vertices: 100_000,
            paper_edges: 2_571_986,
            paper_alpha: 24.653,
            paper_kmax: 2964,
            gen: Rmat {
                scale: 14,
                m: 120_000,
            },
            seed: 13,
        },
        // Not a paper dataset: one planted dense cluster per block, density
        // skewed so the tail blocks are too sparse to hold the optimum.
        // `paper_*` fields describe the generated graph itself (scale 1.0).
        Dataset {
            name: "MultiComm",
            kind: Synthetic,
            paper_vertices: 2048,
            paper_edges: 21_000,
            paper_alpha: 0.0,
            paper_kmax: 0,
            gen: MultiCommunity {
                blocks: 8,
                block_size: 256,
            },
            seed: 17,
        },
        // -- Appendix-E extras ---------------------------------------------
        Dataset {
            name: "Flickr",
            kind: Extra,
            paper_vertices: 214_698,
            paper_edges: 2_096_306,
            paper_alpha: 2.4,
            paper_kmax: 0,
            gen: ChungLu {
                n: 15_000,
                m: 146_000,
                alpha: 2.4,
                overlay: 20,
            },
            seed: 14,
        },
        Dataset {
            name: "Google",
            kind: Extra,
            paper_vertices: 875_713,
            paper_edges: 4_322_051,
            paper_alpha: 2.5,
            paper_kmax: 0,
            gen: ChungLu {
                n: 30_000,
                m: 148_000,
                alpha: 2.5,
                overlay: 20,
            },
            seed: 15,
        },
        Dataset {
            name: "Foursquare",
            kind: Extra,
            paper_vertices: 2_127_093,
            paper_edges: 8_640_352,
            paper_alpha: 2.5,
            paper_kmax: 0,
            gen: ChungLu {
                n: 30_000,
                m: 122_000,
                alpha: 2.5,
                overlay: 20,
            },
            seed: 16,
        },
    ]
}

/// Looks a dataset up by (case-insensitive) name.
pub fn dataset(name: &str) -> Option<Dataset> {
    all_datasets()
        .into_iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_paper_tables() {
        let all = all_datasets();
        assert_eq!(all.len(), 17);
        assert_eq!(
            all.iter()
                .filter(|d| d.kind == DatasetKind::SmallReal)
                .count(),
            5
        );
        assert_eq!(
            all.iter()
                .filter(|d| d.kind == DatasetKind::LargeReal)
                .count(),
            5
        );
        assert_eq!(
            all.iter()
                .filter(|d| d.kind == DatasetKind::Synthetic)
                .count(),
            4
        );
        assert_eq!(
            all.iter().filter(|d| d.kind == DatasetKind::Extra).count(),
            3
        );
    }

    #[test]
    fn small_datasets_are_full_scale() {
        for d in all_datasets() {
            if d.kind == DatasetKind::SmallReal {
                assert!((d.scale() - 1.0).abs() < 1e-9, "{} not full scale", d.name);
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(dataset("yeast").is_some());
        assert!(dataset("UK-2002").is_some());
        assert!(dataset("multicomm").is_some());
        assert!(dataset("nope").is_none());
    }

    #[test]
    fn generation_hits_size_targets() {
        let d = dataset("Yeast").unwrap();
        let g = d.generate();
        assert_eq!(g.num_vertices(), 1116);
        // Chung–Lu loses some edges to dedup; stay within 20%.
        let m = g.num_edges() as f64;
        assert!((m - 2148.0).abs() < 0.2 * 2148.0, "m = {m}");
    }

    #[test]
    fn generation_is_deterministic() {
        let d = dataset("As-733").unwrap();
        assert_eq!(d.generate(), d.generate());
    }
}
