//! Appendix-D fast paths: star and diamond (loop) pattern degrees.
//!
//! For an x-star, the pattern-degree of `v` decomposes into "v is the
//! centre" and "v is a tail of a neighbouring centre", both closed-form
//! binomials — `O(d)` per vertex instead of enumerating `O(dˣ)` instances.
//! For the diamond (4-cycle), grouping length-2 paths by their far endpoint
//! gives `Σ C(y_w, 2)` in `O(d²)`. The same groupings yield the decrement
//! lists used when a vertex is peeled (Algorithm 3's inner loop), reducing
//! pattern-core decomposition from `O(n·dˣ)` to `O(n·d²)` as the paper
//! notes.
//!
//! Each decrement rule is one kernel (`star_losses`, `diamond_losses`)
//! with two callers: the stateless [`star_decrements`] /
//! [`diamond_decrements`] tally into a hash map sized by the removal's
//! neighbourhood, and the stateful [`StarPeel`] / [`DiamondPeel`] keep
//! dense scratch (for stars the alive degrees, for diamonds alive-only
//! adjacency lists) across every removal of one peel, so a removal
//! allocates nothing.
//!
//! Diamond degrees come from one rank-ordered 4-cycle walk
//! (`FourCycleWalk`), which finds every 4-cycle once from its top and can
//! also list them: the instance store's 4-cycle build runs the same walk,
//! and where the store costs less than the closed-form peel
//! (`dsd_core::oracle::DIAMOND_ROW_COST`), diamonds peel from the store
//! instead of the kernels here.

use std::collections::HashMap;

use dsd_graph::{Graph, VertexId, VertexSet};

use crate::{binomial, rank_key};

/// Alive-restricted degree: number of neighbours of `v` inside `alive`.
#[inline]
fn adeg(g: &Graph, alive: &VertexSet, v: VertexId) -> u64 {
    g.neighbors(v)
        .iter()
        .filter(|&&u| alive.contains(u))
        .count() as u64
}

/// Per-vertex tallies the decrement kernels add into. Zero additions are
/// dropped, so every recorded entry is nonzero.
trait Tally {
    fn add(&mut self, v: VertexId, amount: u64);
    fn get(&self, v: VertexId) -> u64;
    fn for_each(&self, f: impl FnMut(VertexId, u64));
}

impl Tally for HashMap<VertexId, u64> {
    fn add(&mut self, v: VertexId, amount: u64) {
        if amount > 0 {
            *self.entry(v).or_insert(0) += amount;
        }
    }

    fn get(&self, v: VertexId) -> u64 {
        self.get(&v).copied().unwrap_or(0)
    }

    fn for_each(&self, mut f: impl FnMut(VertexId, u64)) {
        for (&v, &amount) in self {
            f(v, amount);
        }
    }
}

/// A peel's reusable tally: dense values plus the list of touched
/// vertices, so a reset costs O(touched) instead of O(n).
#[derive(Clone, Debug)]
struct DenseTally {
    value: Vec<u64>,
    touched: Vec<VertexId>,
}

impl DenseTally {
    fn new(n: usize) -> Self {
        DenseTally {
            value: vec![0; n],
            touched: Vec::new(),
        }
    }

    /// Hands every entry to `sink` in ascending vertex order, then resets.
    fn drain_sorted(&mut self, sink: &mut dyn FnMut(VertexId, u64)) {
        self.touched.sort_unstable();
        for &v in &self.touched {
            sink(v, self.value[v as usize]);
        }
        self.clear();
    }

    fn clear(&mut self) {
        for &v in &self.touched {
            self.value[v as usize] = 0;
        }
        self.touched.clear();
    }
}

impl Tally for DenseTally {
    fn add(&mut self, v: VertexId, amount: u64) {
        if amount > 0 {
            let slot = &mut self.value[v as usize];
            if *slot == 0 {
                self.touched.push(v);
            }
            *slot += amount;
        }
    }

    fn get(&self, v: VertexId) -> u64 {
        self.value[v as usize]
    }

    fn for_each(&self, mut f: impl FnMut(VertexId, u64)) {
        for &v in &self.touched {
            f(v, self.value[v as usize]);
        }
    }
}

/// A one-off tally as the ascending `(vertex, amount)` list.
fn sorted(tally: HashMap<VertexId, u64>) -> Vec<(VertexId, u64)> {
    let mut out: Vec<(VertexId, u64)> = tally.into_iter().collect();
    out.sort_unstable();
    out
}

/// x-star pattern-degrees of all vertices of `g[alive]` (Appendix D.1.1).
///
/// `deg(v) = C(y, x) + Σ_{u ∈ N(v)} C(z_u − 1, x − 1)` with `y`, `z_u`
/// alive-restricted degrees.
pub fn star_degrees(g: &Graph, x: usize, alive: &VertexSet) -> Vec<u64> {
    assert!(x >= 2);
    let x = x as u64;
    let n = g.num_vertices();
    // Precompute alive degrees once: the formula touches each edge twice.
    let degs: Vec<u64> = (0..n as u32)
        .map(|v| {
            if alive.contains(v) {
                adeg(g, alive, v)
            } else {
                0
            }
        })
        .collect();
    let mut out = vec![0u64; n];
    for v in alive.iter() {
        let y = degs[v as usize];
        let mut d = binomial(y, x);
        for &u in g.neighbors(v) {
            if alive.contains(u) {
                d = d.saturating_add(binomial(degs[u as usize].saturating_sub(1), x - 1));
            }
        }
        out[v as usize] = d;
    }
    out
}

/// The x-star decrement kernel (Appendix D.1.2): tallies into `loss` what
/// every other alive vertex loses when `v` leaves `g[alive]`, given the
/// alive-restricted degree `adeg` of every vertex (with `v` still alive).
fn star_losses(
    g: &Graph,
    x: u64,
    alive: &VertexSet,
    v: VertexId,
    adeg: impl Fn(VertexId) -> u64,
    loss: &mut impl Tally,
) {
    let y = adeg(v);
    for &u in g.neighbors(v) {
        if !alive.contains(u) {
            continue;
        }
        let z_u = adeg(u);
        // Stars centred at v with u as a tail, plus stars centred at u with
        // v as a tail.
        loss.add(
            u,
            binomial(y - 1, x - 1).saturating_add(binomial(z_u - 1, x - 1)),
        );
        // Stars centred at u containing both v and w as tails.
        let two_hop = binomial(z_u.saturating_sub(2), x - 2);
        if z_u >= 2 && two_hop > 0 {
            for &w in g.neighbors(u) {
                if w != v && alive.contains(w) {
                    loss.add(w, two_hop);
                }
            }
        }
    }
}

/// Per-vertex pattern-degree losses caused by removing `v` from `g[alive]`
/// for the x-star pattern (Appendix D.1.2). `v` must still be in `alive`.
///
/// Returns `(u, amount)` pairs, ascending, for every *other* vertex whose
/// degree drops; the removed vertex's own loss is simply its current
/// degree.
pub fn star_decrements(
    g: &Graph,
    x: usize,
    alive: &VertexSet,
    v: VertexId,
) -> Vec<(VertexId, u64)> {
    assert!(x >= 2);
    debug_assert!(alive.contains(v), "compute decrements before removing v");
    let mut loss = HashMap::new();
    star_losses(g, x as u64, alive, v, |u| adeg(g, alive, u), &mut loss);
    sorted(loss)
}

/// Diamond (4-cycle) pattern-degrees of all vertices (Appendix D.2.1):
/// `deg(v) = Σ_{w ≠ v} C(|N(v) ∩ N(w)|, 2)` over alive vertices.
///
/// The count-only call of the rank-ordered 4-cycle walk (`FourCycleWalk`),
/// every top walked in turn.
pub fn diamond_degrees(g: &Graph, alive: &VertexSet) -> Vec<u64> {
    let walk = FourCycleWalk::new(g, alive);
    let mut scratch = FourCycleScratch::default();
    let mut deg = vec![0u64; walk.tops()];
    for t in 0..walk.tops() as u32 {
        walk.walk_top(t, &mut scratch, &mut deg, None);
    }
    walk.by_vertex(&deg, g.num_vertices())
}

/// The rank-ordered 4-cycle walk over `g[alive]` (Chiba–Nishizeki), which
/// both counts diamond degrees and lists the cycles.
///
/// Every 4-cycle is found once, from its highest-ranked vertex by the
/// listing rank ([`crate::rank_key`], the one kClist orients by) — its
/// *top* `t`: walk the wedges `t–a–w` with `a`
/// and `w` ranked below `t`, count them per far end `w`, and each pair of
/// wedges to `w` is one cycle, `w` opposite `t` and the two wedges'
/// middles closing it. `t` and `w` gain `C(c_w, 2)`; a second pass over the
/// same wedges gives each middle `a` the `c_w − 1` cycles it shares with
/// `w`, and hands each far end with `c_w ≥ 2` to the caller with its
/// middles — the *wedge group* `(t, w)`, whose `C(c_w, 2)` cycles are its
/// middles' pairs. With neighbour lists sorted by rank every walk is a list
/// prefix, and a hub's long list is only walked from the few vertices
/// ranked above it. Tops are independent, so they shard across workers.
///
/// Vertices are named by rank inside the walk: [`Self::vertex`] maps a
/// rank back to its vertex.
pub(crate) struct FourCycleWalk {
    /// Alive vertices in ascending (degree, id) order: rank → vertex.
    by_rank: Vec<VertexId>,
    /// `lower[start[r]..start[r + 1]]`: the ranks of rank `r`'s alive
    /// neighbours, ascending.
    start: Vec<usize>,
    lower: Vec<u32>,
}

/// Where [`FourCycleWalk::walk_top`] hands each wedge group: its far end
/// and its middles, as ranks.
pub(crate) type WedgeGroups<'a> = &'a mut dyn FnMut(u32, &[u32]);

/// Per-worker scratch for [`FourCycleWalk::walk_top`]: wedge counts per
/// far end and the middles of each wedge group, reused across tops.
#[derive(Default)]
pub(crate) struct FourCycleScratch {
    count: Vec<u32>,
    touched: Vec<u32>,
    /// Group listing: where each far end's middles go in `middles`.
    slot: Vec<u32>,
    middles: Vec<u32>,
}

impl FourCycleWalk {
    /// Ranks the alive vertices of `g` and sorts their alive neighbour
    /// lists by rank.
    pub(crate) fn new(g: &Graph, alive: &VertexSet) -> Self {
        // The listing rank, materialized by a counting sort on degree:
        // ids ascend within a degree.
        let mut first = vec![0usize; g.max_degree() + 2];
        for v in alive.iter() {
            first[g.degree(v) + 1] += 1;
        }
        for d in 1..first.len() {
            first[d] += first[d - 1];
        }
        let mut by_rank: Vec<VertexId> = vec![0; alive.len()];
        for v in alive.iter() {
            let at = &mut first[g.degree(v)];
            by_rank[*at] = v;
            *at += 1;
        }
        debug_assert!(by_rank
            .windows(2)
            .all(|w| rank_key(g, w[0]) < rank_key(g, w[1])));
        let mut rank = vec![0u32; g.num_vertices()];
        for (r, &v) in by_rank.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        let mut start = Vec::with_capacity(by_rank.len() + 1);
        start.push(0);
        for &v in &by_rank {
            let alive_degree = g
                .neighbors(v)
                .iter()
                .filter(|&&u| alive.contains(u))
                .count();
            start.push(start[start.len() - 1] + alive_degree);
        }
        // Each rank appends itself to its neighbours' lists in ascending
        // rank order, so every list comes out sorted with no sort.
        let mut lower = vec![0u32; start[by_rank.len()]];
        let mut fill: Vec<usize> = start[..by_rank.len()].to_vec();
        for (r, &v) in by_rank.iter().enumerate() {
            for &u in g.neighbors(v) {
                if alive.contains(u) {
                    let at = &mut fill[rank[u as usize] as usize];
                    lower[*at] = r as u32;
                    *at += 1;
                }
            }
        }
        FourCycleWalk {
            by_rank,
            start,
            lower,
        }
    }

    /// Number of ranks (alive vertices), each a possible top.
    pub(crate) fn tops(&self) -> usize {
        self.by_rank.len()
    }

    /// The vertex of rank `r`.
    #[inline]
    pub(crate) fn vertex(&self, r: u32) -> VertexId {
        self.by_rank[r as usize]
    }

    /// Rank-indexed values laid out by vertex id over `n` vertices (0 for
    /// vertices outside the walk).
    pub(crate) fn by_vertex(&self, by_rank: &[u64], n: usize) -> Vec<u64> {
        let mut out = vec![0u64; n];
        for (&v, &x) in self.by_rank.iter().zip(by_rank) {
            out[v as usize] = x;
        }
        out
    }

    /// Whether ranks `r` and `s` are adjacent.
    #[inline]
    pub(crate) fn adjacent(&self, r: u32, s: u32) -> bool {
        self.lower[self.start[r as usize]..self.start[r as usize + 1]]
            .binary_search(&s)
            .is_ok()
    }

    /// The ranks below `top` among rank `r`'s neighbours.
    #[inline]
    fn below(&self, r: u32, top: u32) -> &[u32] {
        let list = &self.lower[self.start[r as usize]..self.start[r as usize + 1]];
        &list[..list.partition_point(|&x| x < top)]
    }

    /// Walks the cycles whose top is rank `t`: adds each one's degree
    /// contributions to `deg` (rank-indexed, saturating), hands every
    /// wedge group `(t, w)` to `group` as `(w, middles)` — far ends in
    /// first-wedge order, middles ascending by rank — and returns how many
    /// cycles `t` tops.
    pub(crate) fn walk_top(
        &self,
        t: u32,
        scratch: &mut FourCycleScratch,
        deg: &mut [u64],
        mut group: Option<WedgeGroups<'_>>,
    ) -> u64 {
        let tops = self.tops();
        let FourCycleScratch {
            count,
            touched,
            slot,
            middles,
        } = scratch;
        if count.len() < tops {
            count.resize(tops, 0);
        }
        for &a in self.below(t, t) {
            for &w in self.below(a, t) {
                if count[w as usize] == 0 {
                    touched.push(w);
                }
                count[w as usize] += 1;
            }
        }
        let listing = group.is_some();
        if listing {
            // Lay the groups out back to back, in first-wedge order.
            if slot.len() < tops {
                slot.resize(tops, 0);
            }
            let mut at = 0u32;
            for &w in touched.iter() {
                let c = count[w as usize];
                if c >= 2 {
                    slot[w as usize] = at;
                    at += c;
                }
            }
            middles.resize(at as usize, 0);
        }
        for &a in self.below(t, t) {
            let mut shared = 0u64;
            for &w in self.below(a, t) {
                let c = count[w as usize];
                shared += c as u64 - 1;
                if listing && c >= 2 {
                    middles[slot[w as usize] as usize] = a;
                    slot[w as usize] += 1;
                }
            }
            deg[a as usize] = deg[a as usize].saturating_add(shared);
        }
        let mut from = 0usize;
        let mut all = 0u64;
        for &w in touched.iter() {
            let c = count[w as usize];
            count[w as usize] = 0;
            if c >= 2 {
                let cycles = pairs(c as usize);
                all += cycles;
                deg[w as usize] = deg[w as usize].saturating_add(cycles);
                if let Some(group) = group.as_mut() {
                    group(w, &middles[from..from + c as usize]);
                }
                from += c as usize;
            }
        }
        deg[t as usize] = deg[t as usize].saturating_add(all);
        touched.clear();
        all
    }
}

/// `C(c, 2)`: the cycles of a wedge group with `c` middles.
#[inline]
pub(crate) fn pairs(c: usize) -> u64 {
    let c = c as u64;
    c * c.saturating_sub(1) / 2
}

/// The diamond decrement kernel (Appendix D.2.2), as a two-pass wedge
/// walk from `v` (still in `alive`). Pass one tallies into `wedges` the
/// number `c_w` of alive common neighbours of `v` and every far endpoint
/// `w`; each 4-cycle through `v` is a pair of wedges to one `w`. Pass two
/// re-walks the same wedges: the middle vertex `a` of a wedge to `w`
/// lies on `c_w − 1` dying cycles through `(v, w)`. Far endpoints lose
/// `C(c_w, 2)`.
fn diamond_losses<'n>(
    neighbors: impl Fn(VertexId) -> &'n [VertexId],
    alive: &VertexSet,
    v: VertexId,
    wedges: &mut impl Tally,
    loss: &mut impl Tally,
) {
    let far = |a: VertexId| {
        neighbors(a)
            .iter()
            .copied()
            .filter(move |&w| w != v && alive.contains(w))
    };
    let middles = || neighbors(v).iter().copied().filter(|&a| alive.contains(a));
    for a in middles() {
        for w in far(a) {
            wedges.add(w, 1);
        }
    }
    for a in middles() {
        loss.add(a, far(a).map(|w| wedges.get(w) - 1).sum());
    }
    wedges.for_each(|w, c| loss.add(w, binomial(c, 2)));
}

/// Per-vertex diamond-degree losses caused by removing `v` (Appendix
/// D.2.2). `v` must still be in `alive`.
///
/// For each far endpoint `w` with `c` common alive neighbours: `w` loses
/// `C(c, 2)` and each common neighbour loses `c − 1`. Returns ascending
/// `(u, amount)` pairs.
pub fn diamond_decrements(g: &Graph, alive: &VertexSet, v: VertexId) -> Vec<(VertexId, u64)> {
    debug_assert!(alive.contains(v), "compute decrements before removing v");
    let (mut wedges, mut loss) = (HashMap::new(), HashMap::new());
    diamond_losses(|u| g.neighbors(u), alive, v, &mut wedges, &mut loss);
    sorted(loss)
}

/// Stateful x-star peel of `g[alive]`: keeps the alive set, the alive
/// degrees and a dense loss tally across removals, so each removal costs
/// the kernel's two-hop walk and allocates nothing.
#[derive(Clone, Debug)]
pub struct StarPeel<'g> {
    g: &'g Graph,
    x: usize,
    alive: VertexSet,
    adeg: Vec<u64>,
    loss: DenseTally,
}

impl<'g> StarPeel<'g> {
    /// Starts a peel of `g[alive]` for the x-star.
    pub fn new(g: &'g Graph, x: usize, alive: &VertexSet) -> Self {
        assert!(x >= 2);
        let n = g.num_vertices();
        let adeg = (0..n as VertexId)
            .map(|v| {
                if alive.contains(v) {
                    adeg(g, alive, v)
                } else {
                    0
                }
            })
            .collect();
        StarPeel {
            g,
            x,
            alive: alive.clone(),
            adeg,
            loss: DenseTally::new(n),
        }
    }

    /// Star-degrees of the current (un-removed) subgraph.
    pub fn degrees(&self) -> Vec<u64> {
        star_degrees(self.g, self.x, &self.alive)
    }

    /// Removes `v` (still un-removed), handing `sink` each other vertex's
    /// loss in ascending vertex order.
    pub fn remove(&mut self, v: VertexId, sink: &mut dyn FnMut(VertexId, u64)) {
        debug_assert!(self.alive.contains(v), "vertex already removed");
        let adeg = &self.adeg;
        star_losses(
            self.g,
            self.x as u64,
            &self.alive,
            v,
            |u| adeg[u as usize],
            &mut self.loss,
        );
        self.loss.drain_sorted(sink);
        for &u in self.g.neighbors(v) {
            if self.alive.contains(u) {
                self.adeg[u as usize] -= 1;
            }
        }
        self.alive.remove(v);
    }
}

/// Stateful diamond peel of `g[alive]`: keeps the alive set, dense wedge
/// and loss tallies, and an adjacency copy holding only alive neighbours
/// across removals. A removal costs the kernel's two wedge walks over
/// alive vertices (a hub's list shrinks as its neighbours peel away) plus
/// one pass to drop the removed vertex, and allocates nothing.
///
/// This closed form is the diamond oracle's streaming path: diamonds
/// peel from a materialized 4-cycle store where the store costs less
/// (see `dsd_core::oracle::DIAMOND_ROW_COST`), and here otherwise —
/// seeded through [`Self::with_degrees`] with the degrees the refused
/// store build's walk already counted.
#[derive(Clone, Debug)]
pub struct DiamondPeel<'g> {
    g: &'g Graph,
    alive: VertexSet,
    /// Degrees of `g[alive]` handed in by [`Self::with_degrees`], until
    /// the first removal.
    seeded: Option<Vec<u64>>,
    /// `adj[start[u]..start[u] + len[u]]`: the alive neighbours of `u`.
    start: Vec<usize>,
    len: Vec<u32>,
    adj: Vec<VertexId>,
    wedges: DenseTally,
    loss: DenseTally,
}

impl<'g> DiamondPeel<'g> {
    /// Starts a diamond peel of `g[alive]`.
    pub fn new(g: &'g Graph, alive: &VertexSet) -> Self {
        let n = g.num_vertices();
        let mut start = Vec::with_capacity(n);
        let mut len = vec![0u32; n];
        let mut adj = Vec::new();
        for u in 0..n as VertexId {
            start.push(adj.len());
            if alive.contains(u) {
                adj.extend(g.neighbors(u).iter().filter(|&&w| alive.contains(w)));
                len[u as usize] = (adj.len() - start[u as usize]) as u32;
            }
        }
        DiamondPeel {
            g,
            alive: alive.clone(),
            seeded: None,
            start,
            len,
            adj,
            wedges: DenseTally::new(n),
            loss: DenseTally::new(n),
        }
    }

    /// Starts a diamond peel of `g[alive]` whose degrees were already
    /// counted: `degrees` must equal [`diamond_degrees`]`(g, alive)`, and
    /// [`Self::degrees`] hands them back until the first removal instead
    /// of walking the cycles again.
    pub fn with_degrees(g: &'g Graph, alive: &VertexSet, degrees: Vec<u64>) -> Self {
        debug_assert_eq!(degrees, diamond_degrees(g, alive), "seeded degrees");
        DiamondPeel {
            seeded: Some(degrees),
            ..Self::new(g, alive)
        }
    }

    /// Diamond-degrees of the current (un-removed) subgraph.
    pub fn degrees(&self) -> Vec<u64> {
        match &self.seeded {
            Some(degrees) => degrees.clone(),
            None => diamond_degrees(self.g, &self.alive),
        }
    }

    /// Removes `v` (still un-removed), handing `sink` each other vertex's
    /// loss in ascending vertex order.
    pub fn remove(&mut self, v: VertexId, sink: &mut dyn FnMut(VertexId, u64)) {
        debug_assert!(self.alive.contains(v), "vertex already removed");
        self.seeded = None;
        let (start, len, adj) = (&self.start, &self.len, &self.adj);
        let neighbors = |u: VertexId| {
            let s = start[u as usize];
            &adj[s..s + len[u as usize] as usize]
        };
        diamond_losses(neighbors, &self.alive, v, &mut self.wedges, &mut self.loss);
        self.wedges.clear();
        self.loss.drain_sorted(sink);
        let s = self.start[v as usize];
        for i in s..s + self.len[v as usize] as usize {
            let a = self.adj[i] as usize;
            let list = &mut self.adj[self.start[a]..self.start[a] + self.len[a] as usize];
            let at = list
                .iter()
                .position(|&w| w == v)
                .expect("adjacency is symmetric");
            list.swap(at, list.len() - 1);
            self.len[a] -= 1;
        }
        self.len[v as usize] = 0;
        self.alive.remove(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use crate::pattern_enum::pattern_degrees;
    use dsd_graph::GraphBuilder;

    fn random_graph(seed: u64, n: usize, percent: u64) -> Graph {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if next() % 100 < percent {
                    b.add_edge(u, v);
                }
            }
        }
        b.build()
    }

    #[test]
    fn star_degrees_match_generic_enumeration() {
        for seed in 1..8u64 {
            let g = random_graph(seed, 9, 40);
            let alive = VertexSet::full(9);
            for x in 2..=3usize {
                let fast = star_degrees(&g, x, &alive);
                let slow = pattern_degrees(&g, &Pattern::star(x), &alive);
                assert_eq!(fast, slow, "seed {seed} x {x}");
            }
        }
    }

    #[test]
    fn star_degrees_respect_alive_mask() {
        let g = random_graph(3, 10, 50);
        let mut alive = VertexSet::full(10);
        alive.remove(0);
        alive.remove(5);
        let fast = star_degrees(&g, 2, &alive);
        let slow = pattern_degrees(&g, &Pattern::two_star(), &alive);
        assert_eq!(fast, slow);
        assert_eq!(fast[0], 0);
    }

    #[test]
    fn diamond_degrees_match_generic_enumeration() {
        for seed in 1..8u64 {
            let g = random_graph(seed * 7 + 1, 9, 45);
            let mut alive = VertexSet::full(9);
            for dead in [None, Some(seed as u32 % 9), Some(0)] {
                if let Some(v) = dead {
                    alive.remove(v);
                }
                let fast = diamond_degrees(&g, &alive);
                let slow = pattern_degrees(&g, &Pattern::diamond(), &alive);
                assert_eq!(fast, slow, "seed {seed}, dead {dead:?}");
            }
        }
    }

    #[test]
    fn star_decrements_match_before_after_difference() {
        for seed in 1..6u64 {
            let g = random_graph(seed * 13 + 2, 8, 45);
            for x in 2..=3usize {
                let mut alive = VertexSet::full(8);
                let p = Pattern::star(x);
                for victim in 0..4u32 {
                    if !alive.contains(victim) {
                        continue;
                    }
                    let before = pattern_degrees(&g, &p, &alive);
                    let dec = star_decrements(&g, x, &alive, victim);
                    alive.remove(victim);
                    let after = pattern_degrees(&g, &p, &alive);
                    let mut expect: HashMap<VertexId, u64> = HashMap::new();
                    for v in alive.iter() {
                        let diff = before[v as usize] - after[v as usize];
                        if diff > 0 {
                            expect.insert(v, diff);
                        }
                    }
                    let got: HashMap<VertexId, u64> = dec.into_iter().collect();
                    assert_eq!(got, expect, "seed {seed} x {x} victim {victim}");
                }
            }
        }
    }

    #[test]
    fn diamond_decrements_match_before_after_difference() {
        for seed in 1..6u64 {
            let g = random_graph(seed * 31 + 5, 8, 50);
            let p = Pattern::diamond();
            let mut alive = VertexSet::full(8);
            for victim in 0..4u32 {
                let before = pattern_degrees(&g, &p, &alive);
                let dec = diamond_decrements(&g, &alive, victim);
                alive.remove(victim);
                let after = pattern_degrees(&g, &p, &alive);
                let mut expect: HashMap<VertexId, u64> = HashMap::new();
                for v in alive.iter() {
                    let diff = before[v as usize] - after[v as usize];
                    if diff > 0 {
                        expect.insert(v, diff);
                    }
                }
                let got: HashMap<VertexId, u64> = dec.into_iter().collect();
                assert_eq!(got, expect, "seed {seed} victim {victim}");
            }
        }
    }

    #[test]
    fn peels_match_stateless_decrements_over_full_peels() {
        for seed in 1..6u64 {
            let g = random_graph(seed * 17 + 3, 12, 45);
            let n = g.num_vertices() as u32;
            // A scrambled removal order over every vertex.
            let order: Vec<VertexId> = (0..n).map(|i| (i * 7 + seed as u32) % n).collect();
            let mut alive = VertexSet::full(12);
            alive.remove(order[n as usize - 1]);
            let mut stars: Vec<StarPeel> = (2..=3).map(|x| StarPeel::new(&g, x, &alive)).collect();
            let mut diamond = DiamondPeel::new(&g, &alive);
            for (i, x) in (2..=3usize).enumerate() {
                assert_eq!(stars[i].degrees(), star_degrees(&g, x, &alive));
            }
            assert_eq!(diamond.degrees(), diamond_degrees(&g, &alive));
            for &v in &order[..n as usize - 1] {
                for (i, x) in (2..=3usize).enumerate() {
                    let mut got = Vec::new();
                    stars[i].remove(v, &mut |u, a| got.push((u, a)));
                    assert_eq!(
                        got,
                        star_decrements(&g, x, &alive, v),
                        "seed {seed} x {x} v {v}"
                    );
                }
                let mut got = Vec::new();
                diamond.remove(v, &mut |u, a| got.push((u, a)));
                assert_eq!(got, diamond_decrements(&g, &alive, v), "seed {seed} v {v}");
                alive.remove(v);
            }
        }
    }

    #[test]
    fn star_degree_in_pure_star_graph() {
        // Star with centre 0 and 5 tails: 3-star degree of centre = C(5,3),
        // of each tail = C(4,2).
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let alive = VertexSet::full(6);
        let deg = star_degrees(&g, 3, &alive);
        assert_eq!(deg[0], binomial(5, 3));
        assert_eq!(deg[1], binomial(4, 2));
    }

    #[test]
    fn diamond_degree_in_plain_cycle() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let alive = VertexSet::full(4);
        assert_eq!(diamond_degrees(&g, &alive), vec![1, 1, 1, 1]);
    }
}
