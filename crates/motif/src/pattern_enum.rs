//! Backtracking enumeration of non-induced pattern instances.
//!
//! Per the paper's Definition 8 and the automorphism remark below it, a
//! *pattern instance* is a subgraph `S ⊆ G` isomorphic to Ψ, where
//! instances are identified by their **edge set** (automorphic re-mappings
//! of the same subgraph are one instance). An instance is the image of
//! exactly |Aut(Ψ)| injective embeddings; the search checks the
//! Grochow–Kellis symmetry-breaking pairs of [`Pattern::symmetry_pairs`]
//! as it places vertices, so exactly one of them survives. Consequently:
//!
//! * counts and degrees are plain embedding tallies — no `/ |Aut(Ψ)|`;
//! * materialization emits each instance once — no edge-set hash dedup;
//! * anchored enumeration ([`instances_containing`]) pins the anchor at
//!   each pattern vertex in turn, and since the surviving embedding maps
//!   exactly one pattern vertex to the anchor, the runs are disjoint.
//!
//! Enumeration shards cleanly over the first search position: restricting
//! the position-0 candidates to a subset of vertices covers exactly the
//! instances whose surviving embedding puts the pivot there. The first
//! pairs pin the pivot's image to the minimum over its automorphism
//! orbit, an embedding-independent vertex, so shards over disjoint
//! candidate sets ([`for_each_owned_instance_until`]) emit disjoint
//! instance sets with zero cross-shard communication — the store's pattern
//! build fans this out across workers exactly like the clique build.

use dsd_graph::{Graph, VertexId, VertexSet};

use crate::pattern::Pattern;

/// A concrete pattern instance in a host graph.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PatternInstance {
    /// Sorted member vertices.
    pub vertices: Vec<VertexId>,
    /// Sorted canonical edge list (`u < v`) of the instance.
    pub edges: Vec<(VertexId, VertexId)>,
}

/// A group of pattern instances sharing the same vertex set — the node unit
/// of the `construct+` flow network (Algorithm 7).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceGroup {
    /// Sorted member vertices shared by all instances of the group.
    pub vertices: Vec<VertexId>,
    /// Number of instances `|g|` in the group.
    pub count: u64,
}

/// One search position of a compiled search plan.
#[derive(Clone, Debug)]
struct Step {
    /// Pattern vertex placed at this position.
    pv: usize,
    /// Earlier positions whose pattern vertex is adjacent to `pv`.
    adjacent: Vec<usize>,
    /// Earlier positions whose image must be smaller than this one's.
    above: Vec<usize>,
    /// Earlier positions whose image must be larger than this one's.
    below: Vec<usize>,
    /// An earlier position with the same `adjacent` set, whose candidate
    /// list this position scans instead of re-intersecting neighbourhoods
    /// (the two wings of a 2-triangle, the tails of a 3-triangle).
    reuse: Option<usize>,
    /// Whether a later position reuses this one's candidate list, so the
    /// list must be materialized.
    keep: bool,
}

/// Compiles a search order with its edge and symmetry-breaking checks,
/// each attached to the position that places the later of its vertices.
fn compile_plan(p: &Pattern, order: &[usize], pairs: &[(usize, usize)]) -> Vec<Step> {
    let mut pos_of = vec![0usize; order.len()];
    for (i, &pv) in order.iter().enumerate() {
        pos_of[pv] = i;
    }
    let mut steps: Vec<Step> = order
        .iter()
        .enumerate()
        .map(|(i, &pv)| Step {
            pv,
            adjacent: (0..i).filter(|&q| p.has_edge(pv, order[q])).collect(),
            above: pairs
                .iter()
                .filter(|&&(a, b)| b == pv && pos_of[a] < i)
                .map(|&(a, _)| pos_of[a])
                .collect(),
            below: pairs
                .iter()
                .filter(|&&(a, b)| a == pv && pos_of[b] < i)
                .map(|&(_, b)| pos_of[b])
                .collect(),
            reuse: None,
            keep: false,
        })
        .collect();
    for i in 1..steps.len() {
        if let Some(q) = (1..i).find(|&q| steps[q].adjacent == steps[i].adjacent) {
            steps[i].reuse = Some(q);
            steps[q].keep = true;
        }
    }
    steps
}

/// Every search plan of one pattern, memoized on the [`Pattern`].
#[derive(Clone, Debug)]
pub(crate) struct Plans {
    /// Free enumeration along [`Pattern::search_order`].
    free: Vec<Step>,
    /// `anchored[pv]`: enumeration with pattern vertex `pv` placed first.
    anchored: Vec<Vec<Step>>,
}

impl Plans {
    /// Compiles every plan of `p` under its symmetry-breaking `pairs`.
    pub(crate) fn compile(p: &Pattern, pairs: &[(usize, usize)]) -> Plans {
        Plans {
            free: compile_plan(p, &p.search_order(), pairs),
            anchored: (0..p.vertex_count())
                .map(|pv| compile_plan(p, &p.search_order_from(pv), pairs))
                .collect(),
        }
    }
}

/// Backtracking state of one enumeration run.
struct Search<'a, F> {
    g: &'a Graph,
    alive: &'a VertexSet,
    steps: &'a [Step],
    /// Images by search position.
    images: Vec<VertexId>,
    /// Images by pattern vertex id.
    by_pattern: Vec<VertexId>,
    /// Candidate lists by search position, filled for [`Step::keep`]
    /// positions only.
    cands: Vec<Vec<VertexId>>,
    f: F,
}

impl<F: FnMut(&[VertexId]) -> bool> Search<'_, F> {
    /// Places `root` at position 0 (the caller vouches for its liveness)
    /// and extends it; `false` propagates an abort.
    fn root(&mut self, root: VertexId) -> bool {
        self.images[0] = root;
        self.by_pattern[self.steps[0].pv] = root;
        self.extend(1)
    }

    fn extend(&mut self, pos: usize) -> bool {
        let Some(step) = self.steps.get(pos) else {
            return (self.f)(&self.by_pattern);
        };
        let g = self.g;
        // Symmetry breaking bounds the candidate window to (lo, hi).
        let lo = step.above.iter().map(|&q| self.images[q]).max();
        let hi = step
            .below
            .iter()
            .map(|&q| self.images[q])
            .min()
            .unwrap_or(VertexId::MAX);
        let listed = match step.reuse {
            // Position `q`'s list holds exactly the alive common neighbours
            // of this position's adjacent images.
            Some(q) => q,
            None => {
                // Candidates come from the adjacent earlier image of least
                // degree.
                let src = *step
                    .adjacent
                    .iter()
                    .min_by_key(|&&q| g.degree(self.images[q]))
                    .expect("search order keeps patterns connected");
                let around = g.neighbors(self.images[src]);
                if !step.keep {
                    let start = lo.map_or(0, |lo| around.partition_point(|&x| x <= lo));
                    for &cand in &around[start..] {
                        if cand >= hi {
                            break;
                        }
                        if self.fits(step, src, cand)
                            && !self.images[..pos].contains(&cand)
                            && !self.place(pos, cand)
                        {
                            return false;
                        }
                    }
                    return true;
                }
                // A later position reuses the list, so materialize all of
                // it — that position's window may differ from this one's.
                let mut list = std::mem::take(&mut self.cands[pos]);
                list.clear();
                list.extend(
                    around
                        .iter()
                        .copied()
                        .filter(|&cand| self.fits(step, src, cand)),
                );
                self.cands[pos] = list;
                pos
            }
        };
        // The list is ascending, and deeper positions never rewrite it, so
        // it can be indexed while recursing.
        let start = lo.map_or(0, |lo| self.cands[listed].partition_point(|&x| x <= lo));
        for i in start..self.cands[listed].len() {
            let cand = self.cands[listed][i];
            if cand >= hi {
                break;
            }
            if !self.images[..pos].contains(&cand) && !self.place(pos, cand) {
                return false;
            }
        }
        true
    }

    /// Whether `cand`, a neighbour of the image at `src`, is alive and
    /// adjacent to the images at every other position `step` is adjacent to.
    fn fits(&self, step: &Step, src: usize, cand: VertexId) -> bool {
        self.alive.contains(cand)
            && step
                .adjacent
                .iter()
                .all(|&q| q == src || self.g.has_edge(cand, self.images[q]))
    }

    /// Places `cand` at `pos` and extends; `false` propagates an abort.
    fn place(&mut self, pos: usize, cand: VertexId) -> bool {
        self.images[pos] = cand;
        self.by_pattern[self.steps[pos].pv] = cand;
        self.extend(pos + 1)
    }
}

/// Where an enumeration's position-0 candidates come from.
#[derive(Clone, Copy)]
enum Roots<'r> {
    /// Every alive vertex.
    All,
    /// The alive vertices of a shard's candidate list.
    Among(&'r [VertexId]),
    /// Pattern vertex `.0` pinned to graph vertex `.1`, which counts as
    /// alive regardless of the mask.
    Anchor(usize, VertexId),
}

/// Visits one embedding per distinct instance of `p` in `g[alive]` (the
/// one satisfying the symmetry-breaking pairs). `f` receives the image
/// indexed by **pattern vertex id** and returns `false` to abort; the call
/// then returns `false`.
fn for_each_embedding_until<F: FnMut(&[VertexId]) -> bool>(
    g: &Graph,
    p: &Pattern,
    alive: &VertexSet,
    roots: Roots<'_>,
    f: F,
) -> bool {
    let plans = p.plans();
    let steps = match roots {
        Roots::Anchor(pv, _) => &plans.anchored[pv],
        _ => &plans.free,
    };
    let k = p.vertex_count();
    let mut search = Search {
        g,
        alive,
        steps,
        images: vec![0; k],
        by_pattern: vec![0; k],
        cands: vec![Vec::new(); k],
        f,
    };
    match roots {
        Roots::All => alive.iter().all(|v| search.root(v)),
        Roots::Among(list) => list.iter().all(|&v| !alive.contains(v) || search.root(v)),
        Roots::Anchor(_, v) => search.root(v),
    }
}

/// Non-aborting wrapper over [`for_each_embedding_until`].
fn for_each_embedding<F: FnMut(&[VertexId])>(
    g: &Graph,
    p: &Pattern,
    alive: &VertexSet,
    roots: Roots<'_>,
    mut f: F,
) {
    for_each_embedding_until(g, p, alive, roots, |image| {
        f(image);
        true
    });
}

/// Number of pattern instances `μ(G[alive], Ψ)` (Definition 10's numerator).
pub fn count_instances(g: &Graph, p: &Pattern, alive: &VertexSet) -> u64 {
    let mut count = 0u64;
    for_each_embedding(g, p, alive, Roots::All, |_| count += 1);
    count
}

/// Like [`count_instances`] but gives up once more than `cap` instances
/// have been seen, returning `None`. Benchmark harnesses use this to skip
/// pattern/graph combinations whose instance sets would not fit in memory
/// (the analogue of the paper's multi-day timeout bars).
pub fn count_instances_capped(g: &Graph, p: &Pattern, alive: &VertexSet, cap: u64) -> Option<u64> {
    let mut count = 0u64;
    let done = for_each_embedding_until(g, p, alive, Roots::All, |_| {
        count += 1;
        count <= cap
    });
    done.then_some(count)
}

/// Pattern-degree `deg(v, Ψ)` of every vertex of `g[alive]` (Definition 9).
pub fn pattern_degrees(g: &Graph, p: &Pattern, alive: &VertexSet) -> Vec<u64> {
    let mut deg = vec![0u64; g.num_vertices()];
    for_each_embedding(g, p, alive, Roots::All, |image| {
        for &v in image {
            deg[v as usize] += 1;
        }
    });
    deg
}

fn canonical_instance(p: &Pattern, image: &[VertexId]) -> PatternInstance {
    let mut vertices: Vec<VertexId> = image.to_vec();
    vertices.sort_unstable();
    let mut edges: Vec<(VertexId, VertexId)> = p
        .edges()
        .iter()
        .map(|&(a, b)| {
            let (u, v) = (image[a as usize], image[b as usize]);
            (u.min(v), u.max(v))
        })
        .collect();
    edges.sort_unstable();
    PatternInstance { vertices, edges }
}

/// One shard of a distinct-instance enumeration: visits exactly the
/// instances whose symmetry-broken embedding places the pivot (first
/// search position) in `first`, handing the sink the id-sorted member
/// list. The sink returns `false` to abort; the call then returns `false`.
/// This is the emission API the columnar instance store builds on: no
/// intermediate `Vec<Vec<VertexId>>` and no dedup state.
///
/// That pivot image is the minimum image over the pivot's automorphism
/// orbit — the same vertex whichever shard looks — so shards over
/// disjoint `first` sets emit disjoint instance sets, and a partition of
/// the alive vertices covers every instance exactly once.
pub fn for_each_owned_instance_until<F: FnMut(&[VertexId]) -> bool>(
    g: &Graph,
    p: &Pattern,
    alive: &VertexSet,
    first: &[VertexId],
    f: &mut F,
) -> bool {
    let mut members: Vec<VertexId> = Vec::with_capacity(p.vertex_count());
    for_each_embedding_until(g, p, alive, Roots::Among(first), |image| {
        members.clear();
        members.extend_from_slice(image);
        members.sort_unstable();
        f(&members)
    })
}

/// Materializes the distinct pattern instances of `g[alive]`, sorted by
/// edge set.
///
/// Intended for the (small) located cores that exact PDS algorithms build
/// flow networks over.
pub fn instances(g: &Graph, p: &Pattern, alive: &VertexSet) -> Vec<PatternInstance> {
    let mut out = Vec::new();
    for_each_embedding(g, p, alive, Roots::All, |image| {
        out.push(canonical_instance(p, image));
    });
    out.sort_unstable_by(|a, b| a.edges.cmp(&b.edges));
    out
}

/// Visits every distinct instance containing `v` whose other members are
/// all alive (`v` itself may already be dead — this is the decrement step
/// of pattern core decomposition), exactly once each. `f` receives the
/// image indexed by pattern vertex id.
pub fn for_each_instance_containing<F: FnMut(&[VertexId])>(
    g: &Graph,
    p: &Pattern,
    v: VertexId,
    alive: &VertexSet,
    mut f: F,
) {
    for pv in 0..p.vertex_count() {
        for_each_embedding(g, p, alive, Roots::Anchor(pv, v), &mut f);
    }
}

/// Distinct instances containing `v` whose other members are all alive,
/// sorted by edge set (see [`for_each_instance_containing`]).
pub fn instances_containing(
    g: &Graph,
    p: &Pattern,
    v: VertexId,
    alive: &VertexSet,
) -> Vec<PatternInstance> {
    let mut out = Vec::new();
    for_each_instance_containing(g, p, v, alive, |image| {
        out.push(canonical_instance(p, image));
    });
    out.sort_unstable_by(|a, b| a.edges.cmp(&b.edges));
    out
}

/// Groups instances by vertex set (Algorithm 7 line 2).
pub fn group_instances(instances: &[PatternInstance]) -> Vec<InstanceGroup> {
    use std::collections::HashMap;
    let mut groups: HashMap<&[VertexId], u64> = HashMap::new();
    for inst in instances {
        *groups.entry(inst.vertices.as_slice()).or_insert(0) += 1;
    }
    let mut out: Vec<InstanceGroup> = groups
        .into_iter()
        .map(|(vs, count)| InstanceGroup {
            vertices: vs.to_vec(),
            count,
        })
        .collect();
    out.sort_unstable_by(|a, b| a.vertices.cmp(&b.vertices));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsd_graph::GraphBuilder;

    fn full(g: &Graph) -> VertexSet {
        VertexSet::full(g.num_vertices())
    }

    fn k(n: u32) -> Graph {
        let mut b = GraphBuilder::new(n as usize);
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    #[test]
    fn edge_instances_are_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]);
        assert_eq!(count_instances(&g, &Pattern::edge(), &full(&g)), 5);
        let deg = pattern_degrees(&g, &Pattern::edge(), &full(&g));
        assert_eq!(deg, vec![3, 2, 3, 2]);
    }

    #[test]
    fn triangle_counts_match_kclist() {
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (2, 4),
            ],
        );
        let via_pattern = count_instances(&g, &Pattern::triangle(), &full(&g));
        let via_kclist = crate::kclist::count_cliques(&g, 3);
        assert_eq!(via_pattern, via_kclist);
        let dp = pattern_degrees(&g, &Pattern::triangle(), &full(&g));
        let dk = crate::kclist::clique_degrees(&g, 3);
        assert_eq!(dp, dk);
    }

    #[test]
    fn two_star_count_is_wedge_count() {
        // Wedges = Σ C(deg, 2).
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (3, 4)]);
        let expect: u64 = g
            .vertices()
            .map(|v| crate::binomial(g.degree(v) as u64, 2))
            .sum();
        assert_eq!(count_instances(&g, &Pattern::two_star(), &full(&g)), expect);
    }

    #[test]
    fn diamond_in_k4_counts_three_cycles() {
        // K4 contains 3 distinct 4-cycles (one per perfect matching pair).
        let g = k(4);
        assert_eq!(count_instances(&g, &Pattern::diamond(), &full(&g)), 3);
        // Every vertex lies on all 3.
        assert_eq!(
            pattern_degrees(&g, &Pattern::diamond(), &full(&g)),
            vec![3, 3, 3, 3]
        );
    }

    #[test]
    fn paper_figure_6a_diamond_instances() {
        // Figure 6(a)-style fixture: the text tells us the example graph
        // has 4 diamond instances grouped into 2 groups, g1 = {A,B,C,D}
        // (1 instance) and g2 = {A,D,E,F} (3 instances). We realize exactly
        // that: K4 on {A,D,E,F} (3 four-cycles) plus path B-C hung between
        // A and D (one four-cycle A-B-C-D), plus a tail F-G-H.
        let (a, b, c, d, e, f, g_, h) = (0u32, 1, 2, 3, 4, 5, 6, 7);
        let edges = [
            (a, b),
            (b, c),
            (c, d),
            (a, d),
            (a, e),
            (a, f),
            (d, e),
            (d, f),
            (e, f),
            (f, g_),
            (g_, h),
        ];
        let g = Graph::from_edges(8, &edges);
        let p = Pattern::diamond();
        let inst = instances(&g, &p, &full(&g));
        assert_eq!(inst.len(), 4);
        let groups = group_instances(&inst);
        assert_eq!(groups.len(), 2);
        let g1 = groups
            .iter()
            .find(|gr| gr.vertices == vec![a, b, c, d])
            .unwrap();
        let g2 = groups
            .iter()
            .find(|gr| gr.vertices == vec![a, d, e, f])
            .unwrap();
        assert_eq!(g1.count, 1);
        assert_eq!(g2.count, 3);
    }

    #[test]
    fn c3_star_count_in_paw_itself() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3)]);
        assert_eq!(count_instances(&g, &Pattern::c3_star(), &full(&g)), 1);
    }

    #[test]
    fn two_triangle_in_k4() {
        // K4 has C(4,2) = 6 edge choices for the shared edge... but each
        // K4-e subgraph is determined by the *missing* pair: the shared
        // edge of the two triangles connects the degree-3 vertices. For
        // vertex set = all of K4, pick the 2 degree-2 vertices: C(4,2) = 6
        // edge-subsets isomorphic to K4-e.
        let g = k(4);
        assert_eq!(count_instances(&g, &Pattern::two_triangle(), &full(&g)), 6);
    }

    #[test]
    fn instances_containing_anchors() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let p = Pattern::triangle();
        let alive = full(&g);
        let with0 = instances_containing(&g, &p, 0, &alive);
        assert_eq!(with0.len(), 1);
        assert_eq!(with0[0].vertices, vec![0, 1, 2]);
        let with4 = instances_containing(&g, &p, 4, &alive);
        assert!(with4.is_empty());
    }

    #[test]
    fn instances_containing_dead_vertex_still_counts_it() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let mut alive = full(&g);
        alive.remove(0);
        let p = Pattern::triangle();
        let got = instances_containing(&g, &p, 0, &alive);
        assert_eq!(got.len(), 1, "v itself is exempt from the alive mask");
        // But other dead vertices are not.
        alive.remove(1);
        assert!(instances_containing(&g, &p, 0, &alive).is_empty());
    }

    #[test]
    fn alive_mask_restricts_counts() {
        let g = k(5);
        let mut alive = full(&g);
        alive.remove(4);
        assert_eq!(count_instances(&g, &Pattern::triangle(), &alive), 4);
    }

    #[test]
    fn degrees_sum_to_size_times_count() {
        let g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (5, 6),
                (4, 6),
            ],
        );
        for p in Pattern::figure7() {
            let deg = pattern_degrees(&g, &p, &full(&g));
            let total: u64 = deg.iter().sum();
            assert_eq!(
                total,
                p.vertex_count() as u64 * count_instances(&g, &p, &full(&g)),
                "pattern {}",
                p.name()
            );
        }
    }

    #[test]
    fn capped_counting_matches_and_caps() {
        let g = k(6);
        let p = Pattern::triangle();
        let exact = count_instances(&g, &p, &full(&g));
        assert_eq!(count_instances_capped(&g, &p, &full(&g), 1000), Some(exact));
        assert_eq!(
            count_instances_capped(&g, &p, &full(&g), exact),
            Some(exact)
        );
        assert_eq!(count_instances_capped(&g, &p, &full(&g), exact - 1), None);
    }

    /// Every injective embedding of `p` into `g`, with no symmetry
    /// breaking: plain backtracking over pattern vertices `0..k`.
    fn all_embeddings(g: &Graph, p: &Pattern) -> u64 {
        fn rec(g: &Graph, p: &Pattern, image: &mut Vec<VertexId>) -> u64 {
            let pos = image.len();
            if pos == p.vertex_count() {
                return 1;
            }
            let mut total = 0;
            for cand in g.vertices() {
                if !image.contains(&cand)
                    && (0..pos).all(|q| !p.has_edge(pos, q) || g.has_edge(cand, image[q]))
                {
                    image.push(cand);
                    total += rec(g, p, image);
                    image.pop();
                }
            }
            total
        }
        rec(g, p, &mut Vec::new())
    }

    #[test]
    fn symmetry_pairs_admit_one_embedding_per_instance() {
        let mut menu = Pattern::figure7();
        menu.extend([
            Pattern::triangle(),
            Pattern::clique(4),
            Pattern::star(4),
            Pattern::cycle(5),
            Pattern::path(4),
            Pattern::complete_bipartite(2, 3),
        ]);
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..4 {
            let n = 9 + round as usize;
            let mut b = GraphBuilder::new(n);
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if next() % 100 < 45 {
                        b.add_edge(u, v);
                    }
                }
            }
            let g = b.build();
            for p in &menu {
                let embeddings = all_embeddings(&g, p);
                let aut = p.automorphism_count();
                assert_eq!(embeddings % aut, 0, "{} round {round}", p.name());
                assert_eq!(
                    count_instances(&g, p, &full(&g)),
                    embeddings / aut,
                    "{} round {round}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn owned_shards_partition_instances() {
        // Random-ish graph small enough for every figure-7 pattern.
        let mut state = 77u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 16usize;
        let mut b = GraphBuilder::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if next() % 100 < 35 {
                    b.add_edge(u, v);
                }
            }
        }
        let g = b.build();
        let alive = full(&g);
        for p in Pattern::figure7() {
            let mut serial: Vec<Vec<VertexId>> = instances(&g, &p, &alive)
                .into_iter()
                .map(|inst| inst.vertices)
                .collect();
            serial.sort();
            let roots: Vec<VertexId> = alive.iter().collect();
            for shards in [1usize, 2, 3, 5] {
                let mut all: Vec<Vec<VertexId>> = Vec::new();
                for t in 0..shards {
                    let firsts: Vec<VertexId> =
                        roots.iter().copied().skip(t).step_by(shards).collect();
                    for_each_owned_instance_until(&g, &p, &alive, &firsts, &mut |m| {
                        all.push(m.to_vec());
                        true
                    });
                }
                all.sort();
                // Multiset equality: groups with the same vertex set keep
                // their multiplicity, so no dedup here.
                assert_eq!(all, serial, "{} with {shards} shards", p.name());
            }
        }
    }

    #[test]
    fn owned_enumeration_respects_alive_mask_and_abort() {
        let g = k(6);
        let p = Pattern::triangle();
        let mut alive = full(&g);
        alive.remove(5);
        let roots: Vec<VertexId> = alive.iter().collect();
        let mut count = 0u64;
        for t in 0..2 {
            let firsts: Vec<VertexId> = roots.iter().copied().skip(t).step_by(2).collect();
            for_each_owned_instance_until(&g, &p, &alive, &firsts, &mut |_| {
                count += 1;
                true
            });
        }
        assert_eq!(count, crate::binomial(5, 3));
        // Abort stops the shard and reports it.
        let mut seen = 0;
        let done = for_each_owned_instance_until(&g, &p, &alive, &roots, &mut |_| {
            seen += 1;
            seen < 3
        });
        assert!(!done);
        assert_eq!(seen, 3);
    }

    #[test]
    fn no_instances_of_larger_pattern_in_small_graph() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(count_instances(&g, &Pattern::basket(), &full(&g)), 0);
        assert!(instances(&g, &Pattern::basket(), &full(&g)).is_empty());
    }
}
