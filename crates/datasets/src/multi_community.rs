//! Multi-community synthetic: one planted dense cluster per block.
//!
//! `blocks` vertex blocks each hold a planted near-clique whose size
//! *shrinks* block by block, so the density profile across blocks is
//! strictly skewed — block 0 holds the global densest subgraph and the
//! tail blocks are too sparse to compete. Bridges between adjacent
//! blocks keep the graph connected without disturbing the skew.

use dsd_graph::{Graph, GraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A multi-community graph together with its planted ground truth.
#[derive(Clone, Debug)]
pub struct MultiCommunity {
    /// The graph; vertex `v` belongs to block `v / block_size`.
    pub graph: Graph,
    /// The planted dense cluster of each block (sorted, one per block).
    pub communities: Vec<Vec<VertexId>>,
    /// Index of the block holding the densest planted cluster (always 0:
    /// cluster sizes shrink monotonically across blocks).
    pub densest_block: usize,
}

/// Generates `blocks` contiguous blocks of `block_size` vertices, each
/// with a planted near-clique (edge probability 0.95) on its first
/// `block_size/4 - block_index` vertices (floored at 4), a sparse
/// `p_intra` background inside the block, and `⌈p_inter · block_size⌉`
/// random bridge edges between consecutive blocks. Deterministic given
/// `seed`.
pub fn multi_community(
    blocks: usize,
    block_size: usize,
    p_intra: f64,
    p_inter: f64,
    seed: u64,
) -> MultiCommunity {
    assert!(blocks >= 1, "need at least one block");
    assert!(block_size >= 16, "blocks of < 16 vertices cannot skew");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = blocks * block_size;
    let mut b = GraphBuilder::new(n);
    let mut communities = Vec::with_capacity(blocks);
    for blk in 0..blocks {
        let base = blk * block_size;
        let size = (block_size / 4).saturating_sub(blk).max(4);
        for u in 0..size {
            for v in (u + 1)..size {
                if rng.gen::<f64>() < 0.95 {
                    b.add_edge((base + u) as VertexId, (base + v) as VertexId);
                }
            }
        }
        for u in 0..block_size {
            for v in (u + 1)..block_size {
                if rng.gen::<f64>() < p_intra {
                    b.add_edge((base + u) as VertexId, (base + v) as VertexId);
                }
            }
        }
        communities.push((base as VertexId..(base + size) as VertexId).collect());
    }
    let bridges = ((p_inter * block_size as f64).ceil() as usize).max(1);
    for blk in 1..blocks {
        for _ in 0..bridges {
            let u = ((blk - 1) * block_size + rng.gen_range(0..block_size)) as VertexId;
            let v = (blk * block_size + rng.gen_range(0..block_size)) as VertexId;
            b.add_edge(u, v);
        }
    }
    MultiCommunity {
        graph: b.build(),
        communities,
        densest_block: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_edge_density(g: &Graph, members: &[VertexId]) -> f64 {
        let inside = g
            .edges()
            .filter(|&(u, v)| members.contains(&u) && members.contains(&v))
            .count();
        inside as f64 / members.len() as f64
    }

    #[test]
    fn block_zero_holds_the_densest_cluster() {
        let mc = multi_community(4, 64, 0.02, 0.05, 7);
        assert_eq!(mc.graph.num_vertices(), 4 * 64);
        assert_eq!(mc.communities.len(), 4);
        assert_eq!(mc.densest_block, 0);
        let d0 = block_edge_density(&mc.graph, &mc.communities[0]);
        for (blk, community) in mc.communities.iter().enumerate().skip(1) {
            let d = block_edge_density(&mc.graph, community);
            assert!(
                d0 > d,
                "block 0 ({d0:.3}) not denser than block {blk} ({d:.3})"
            );
        }
    }

    #[test]
    fn clusters_shrink_across_blocks() {
        let mc = multi_community(6, 64, 0.01, 0.02, 3);
        for w in mc.communities.windows(2) {
            assert!(w[0].len() > w[1].len());
        }
    }

    #[test]
    fn consecutive_blocks_are_bridged() {
        let mc = multi_community(5, 32, 0.0, 0.1, 11);
        for blk in 1..5usize {
            let crossing = mc
                .graph
                .edges()
                .filter(|&(u, v)| {
                    let (bu, bv) = ((u as usize) / 32, (v as usize) / 32);
                    bu.min(bv) == blk - 1 && bu.max(bv) == blk
                })
                .count();
            assert!(crossing >= 1, "blocks {} and {blk} not bridged", blk - 1);
        }
    }

    #[test]
    fn deterministic() {
        let a = multi_community(4, 64, 0.02, 0.05, 9);
        let b = multi_community(4, 64, 0.02, 0.05, 9);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.communities, b.communities);
    }
}
