//! The sharded enumeration driver, and the parallel clique-degree pass.
//!
//! Section 6.3 of the paper notes that its approximation solutions
//! parallelize because the underlying (k, Ψ)-core machinery does: the
//! dominant cost is Ψ-instance enumeration, and both enumerators are
//! embarrassingly parallel over root vertices. kClist discovers every
//! clique exactly once, from its lowest-ranked member, and the
//! symmetry-broken pattern search places every instance's pivot on exactly
//! one vertex, and the 4-cycle walk finds every cycle once, from its
//! top. So every parallel Ψ pass — the clique, pattern and 4-cycle store
//! builds and [`clique_degrees_parallel_within`] — hands disjoint root
//! sets to one crate-private driver, `for_each_shard`: each shard owns a
//! private output, and the outputs are merged at the end. Store builds
//! share one `RowQuota`, so their row cap is exact for every shard count.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use dsd_graph::{Graph, VertexId, VertexSet};

use crate::kclist::{CliqueLister, CliqueScratch};

/// Runs `work` once per shard and returns the shard outputs in shard
/// order. Shard `t` of `shards` gets the strided slice `roots[t]`,
/// `roots[t + shards]`, …: root costs are skewed (hubs first in id order
/// would imbalance contiguous chunks; striding mixes them). `shards` is
/// clamped by [`shard_count`]. One shard runs inline on the calling thread
/// over `roots` itself; more run on scoped threads, each collecting its
/// own slice.
pub(crate) fn for_each_shard<T: Send>(
    roots: &[VertexId],
    shards: usize,
    work: impl Fn(&[VertexId]) -> T + Sync,
) -> Vec<T> {
    let shards = shard_count(shards, roots.len());
    if shards == 1 {
        return vec![work(roots)];
    }
    let work = &work;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|t| {
                scope.spawn(move || {
                    let mine: Vec<VertexId> =
                        roots.iter().copied().skip(t).step_by(shards).collect();
                    work(&mine)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|hnd| hnd.join().expect("enumeration shard panicked"))
            .collect()
    })
}

/// Runs a store build's enumeration on [`for_each_shard`] under one shared
/// [`RowQuota`] of `max_rows` rows: `work` admits each of its shard's rows
/// through the shard's [`ShardQuota`]. Returns the shard outputs in shard
/// order, and whether the rows fit.
pub(crate) fn run_capped<T: Send>(
    roots: &[VertexId],
    shards: usize,
    max_rows: u64,
    work: impl Fn(&[VertexId], &mut ShardQuota<'_>) -> T + Sync,
) -> (Vec<T>, bool) {
    let shards = shard_count(shards, roots.len());
    let quota = RowQuota::new(max_rows, shards);
    let outputs = for_each_shard(roots, shards, |mine| work(mine, &mut quota.shard()));
    (outputs, !quota.refused())
}

/// [`run_capped`] for builds whose shards emit one column each: returns
/// the columns concatenated in shard order, or `None` when the rows do not
/// fit.
pub(crate) fn collect_capped<T: Copy + Send>(
    roots: &[VertexId],
    shards: usize,
    max_rows: u64,
    work: impl Fn(&[VertexId], &mut ShardQuota<'_>) -> Vec<T> + Sync,
) -> Option<Vec<T>> {
    let (columns, fits) = run_capped(roots, shards, max_rows, work);
    fits.then(|| concat(columns))
}

/// The shard columns in shard order: a single column moved, not copied.
pub(crate) fn concat<T: Copy>(mut columns: Vec<Vec<T>>) -> Vec<T> {
    match columns.len() {
        1 => columns.pop().expect("one shard"),
        _ => columns.concat(),
    }
}

/// The shard count [`for_each_shard`] runs for `threads` workers over
/// `roots` roots: `threads` clamped to `1..=roots` (1 when there are none).
pub(crate) fn shard_count(threads: usize, roots: usize) -> usize {
    threads.clamp(1, roots.max(1))
}

/// A store build's row cap, shared by its shards: admissions stop at
/// exactly `max_rows`, and a build is refused iff its rows do not fit, for
/// every shard count.
///
/// Shards reserve rows in chunks of `min(chunk, remaining)` — one lock per
/// chunk, not per row — and hand unused rows back when they finish. A
/// shard that finds the cap used up waits for rows to come back, and is
/// refused only once every other shard has finished or is waiting too, so
/// no row stays stranded.
pub(crate) struct RowQuota {
    max_rows: u64,
    chunk: u64,
    shards: usize,
    state: Mutex<QuotaState>,
    wake: Condvar,
}

#[derive(Default)]
struct QuotaState {
    /// Rows reserved by shards.
    taken: u64,
    /// Shards that have finished or are waiting for rows.
    idle: usize,
    refused: bool,
}

impl RowQuota {
    /// A quota of `max_rows` rows for exactly `shards` shards, each
    /// admitting through one [`Self::shard`] handle. Chunks shrink when the cap is tight, so a small quota is
    /// still shared across shards.
    fn new(max_rows: u64, shards: usize) -> Self {
        RowQuota {
            max_rows,
            chunk: 4_096u64.min((max_rows / shards.max(1) as u64).max(1)),
            shards: shards.max(1),
            state: Mutex::default(),
            wake: Condvar::new(),
        }
    }

    /// One shard's admission handle; dropping it hands the unused rows
    /// back and marks the shard finished.
    fn shard(&self) -> ShardQuota<'_> {
        ShardQuota {
            quota: self,
            left: 0,
        }
    }

    /// Whether any shard was refused a row.
    fn refused(&self) -> bool {
        self.lock().refused
    }

    fn lock(&self) -> MutexGuard<'_, QuotaState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reserves the next chunk, waiting while another running shard may
    /// still hand rows back; 0 means the rows do not fit.
    fn reserve(&self) -> u64 {
        let mut state = self.lock();
        while state.taken == self.max_rows {
            // A refused build stays refused: a shard that walks on after
            // its refusal (the 4-cycle walk still counts degrees) is not
            // idle, and must not keep the others waiting.
            if state.refused || state.idle + 1 == self.shards {
                state.refused = true;
                return 0;
            }
            state.idle += 1;
            state = self
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.idle -= 1;
        }
        let got = self.chunk.min(self.max_rows - state.taken);
        state.taken += got;
        got
    }
}

/// A shard's admissions against a shared [`RowQuota`].
pub(crate) struct ShardQuota<'q> {
    quota: &'q RowQuota,
    /// Rows reserved but not yet admitted.
    left: u64,
}

impl ShardQuota<'_> {
    /// Admits one row; `false` means the rows do not fit and the shard
    /// must stop.
    #[inline]
    pub(crate) fn admit(&mut self) -> bool {
        if self.left == 0 {
            self.left = self.quota.reserve();
            if self.left == 0 {
                return false;
            }
        }
        self.left -= 1;
        true
    }
}

impl Drop for ShardQuota<'_> {
    fn drop(&mut self) {
        let mut state = self.quota.lock();
        state.taken -= self.left;
        state.idle += 1;
        self.quota.wake.notify_all();
    }
}

/// Parallel [`crate::clique_degrees`]: identical output, `threads` workers.
pub fn clique_degrees_parallel(g: &Graph, h: usize, threads: usize) -> Vec<u64> {
    clique_degrees_parallel_within(g, h, &VertexSet::full(g.num_vertices()), threads)
}

/// Alive-restricted variant of [`clique_degrees_parallel`]: kClist sharded
/// by root over `for_each_shard`, each shard crediting the members of
/// every clique it lists into a private degree vector. Graphs under 256
/// vertices, and `threads <= 1`, run as one shard on the calling thread.
pub fn clique_degrees_parallel_within(
    g: &Graph,
    h: usize,
    alive: &VertexSet,
    threads: usize,
) -> Vec<u64> {
    assert!(h >= 1);
    let n = g.num_vertices();
    if h == 1 {
        let mut deg = vec![0u64; n];
        for v in alive.iter() {
            deg[v as usize] = 1;
        }
        return deg;
    }
    let lister = CliqueLister::new(g, h, alive);
    let roots: Vec<VertexId> = alive.iter().collect();
    let shards = if n < 256 { 1 } else { threads };
    let mut partials = for_each_shard(&roots, shards, |mine| {
        let mut deg = vec![0u64; n];
        let mut scratch = CliqueScratch::default();
        for &v in mine {
            lister.for_each_rooted_until(v, &mut scratch, &mut |clique| {
                for &member in clique {
                    deg[member as usize] += 1;
                }
                true
            });
        }
        deg
    });
    let mut total = partials.pop().expect("at least one shard");
    for local in partials {
        for (acc, x) in total.iter_mut().zip(local) {
            *acc += x;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kclist::clique_degrees_within;
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
                if next() % 1000 < percent {
                    b.add_edge(u, v);
                }
            }
        }
        b.build()
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = random_graph(3, 400, 25);
        let alive = VertexSet::full(400);
        for h in 2..=4usize {
            let seq = clique_degrees_within(&g, h, &alive);
            for threads in [1, 2, 4, 7] {
                let par = clique_degrees_parallel_within(&g, h, &alive, threads);
                assert_eq!(par, seq, "h = {h}, threads = {threads}");
            }
        }
    }

    #[test]
    fn parallel_respects_alive_mask() {
        let g = random_graph(9, 500, 30);
        let mut alive = VertexSet::full(500);
        for v in (0..500u32).step_by(3) {
            alive.remove(v);
        }
        let seq = clique_degrees_within(&g, 3, &alive);
        let par = clique_degrees_parallel_within(&g, 3, &alive, 4);
        assert_eq!(par, seq);
    }

    #[test]
    fn dense_roots_match_sharded_and_serial() {
        // Dense enough that roots' out-lists run past 64 vertices.
        let g = random_graph(11, 220, 450);
        let alive = VertexSet::full(220);
        for h in 3..=4usize {
            // Serial reference: one lister over every root.
            let lister = crate::kclist::CliqueLister::new(&g, h, &alive);
            let mut scratch = crate::kclist::CliqueScratch::default();
            let mut seq = vec![0u64; 220];
            for v in alive.iter() {
                lister.for_each_rooted_until(v, &mut scratch, &mut |c: &[VertexId]| {
                    for &m in c {
                        seq[m as usize] += 1;
                    }
                    true
                });
            }
            for threads in [2, 5] {
                let par = clique_degrees_parallel_within(&g, h, &alive, threads);
                assert_eq!(par, seq, "h = {h}, threads = {threads}");
            }
        }
    }

    #[test]
    fn small_graphs_fall_back() {
        let g = random_graph(5, 50, 100);
        let seq = crate::kclist::clique_degrees(&g, 3);
        let par = clique_degrees_parallel(&g, 3, 8);
        assert_eq!(par, seq);
    }

    #[test]
    fn h1_counts_alive_vertices() {
        let g = random_graph(7, 300, 10);
        let deg = clique_degrees_parallel(&g, 1, 4);
        assert!(deg.iter().all(|&d| d == 1));
    }

    #[test]
    fn row_quota_admits_exactly_the_cap_under_skew() {
        // One root per shard, naming how many rows that shard emits. The
        // light shards hold most of a chunk each, which the heavy shard
        // needs to fit, and keep it until another shard is waiting for
        // rows or done: rows handed back must reach a waiting shard.
        let needs: Vec<VertexId> = vec![1, 5_000, 9];
        let total = 5_010u64;
        for threads in [1, 3] {
            for (max_rows, fits) in [(total, true), (total - 1, false)] {
                let admitted = Mutex::new(0u64);
                let column = collect_capped(&needs, threads, max_rows, |mine, cap| {
                    let mut rows = 0u64;
                    'emit: for &need in mine {
                        for _ in 0..need {
                            if !cap.admit() {
                                break 'emit;
                            }
                            rows += 1;
                        }
                    }
                    if mine.len() == 1 && rows < 100 {
                        while cap.quota.lock().idle == 0 {
                            thread::yield_now();
                        }
                    }
                    *admitted.lock().unwrap() += rows;
                    vec![rows]
                });
                let ctx = format!("max_rows {max_rows}, threads {threads}");
                assert_eq!(column.is_some(), fits, "{ctx}");
                assert_eq!(admitted.into_inner().unwrap(), total.min(max_rows), "{ctx}");
            }
        }
    }

    #[test]
    fn one_shard_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let roots: Vec<VertexId> = (0..10).collect();
        let ran = for_each_shard(&roots, 1, |mine| (thread::current().id(), mine.len()));
        assert_eq!(ran, vec![(caller, 10)]);
        let strided = for_each_shard(&roots, 3, |mine| mine.to_vec());
        assert_eq!(
            strided,
            vec![vec![0, 3, 6, 9], vec![1, 4, 7], vec![2, 5, 8]]
        );
    }
}
