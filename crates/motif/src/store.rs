//! `InstanceStore`: a columnar, CSR-backed materialization of all
//! Ψ-instances of a graph.
//!
//! The Lemma-6 analysis makes instance enumeration the dominant cost of
//! every Ψ-workload, so the system enumerates **once** and stores the
//! result in two u32-indexed columnar arrays:
//!
//! * **members** — row-major member lists (`rows × |VΨ|`, each row sorted
//!   by vertex id), optionally weighted: rows sharing a vertex set are
//!   merged with a multiplicity column, in the spirit of factorised
//!   representations that store each fact once and index into it;
//! * **incidence** — a CSR from vertex id to the rows containing it
//!   (offsets + row ids, both `u32`).
//!
//! Degrees, counts and peel decrements then become linear scans over these
//! columns instead of repeated subgraph matching. Both builders run on the
//! sharded enumeration driver of [`crate::parallel`], one code path for
//! every worker count (one shard runs inline on the calling thread).
//! h-clique stores shard [`CliqueLister`] by root vertex (every clique is
//! discovered exactly once, from its lowest-ranked member by the crate's
//! (degree, id) listing rank). 4-cycle stores shard the 4-cycle walk of
//! [`crate::special`], on the same rank, by top (every cycle is found once, from its
//! highest-ranked member, which also tops every other cycle on its vertex
//! set). General-pattern stores shard over first-position candidates
//! (see [`crate::for_each_owned_instance_until`]): symmetry breaking
//! reaches each instance through one embedding, whose pivot lands in
//! exactly one shard, so the shard columns concatenate without cross-shard
//! dedup and the grouped result is bit-identical for every worker count.
//!
//! Row and membership counts are guarded against `u32` overflow, and an
//! optional byte budget aborts oversized builds mid-enumeration — both
//! reported as typed [`StoreError`]s so callers can fall back to streaming
//! oracles instead of silently truncating indices. The shards share one
//! row cap, exact for every shard count: a build is refused iff its rows
//! do not fit.
//!
//! Stores are also **repairable** across an edge batch, through one entry
//! per pattern family: [`InstanceStore::repair_cliques`] and
//! [`InstanceStore::repair_pattern`]. Both read the merged post-batch CSR.
//! A removed edge tombstones the rows it kills, found through the
//! incidence CSR with no re-enumeration (general-pattern rows it touches
//! are recounted instead). An inserted edge appends only the instances it
//! creates, by delta enumeration rooted at its endpoints. A warm substrate
//! thus survives updates at per-edge cost instead of re-paying the full
//! build.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Instant;

use dsd_graph::{Graph, InducedSubgraph, VertexId, VertexSet};

use crate::kclist::{CliqueLister, CliqueScratch};
use crate::parallel::{collect_capped, concat, run_capped, shard_count};
use crate::pattern::Pattern;
use crate::pattern_enum;
use crate::special::{pairs, FourCycleScratch, FourCycleWalk};

/// Why a store build was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The instance set cannot be indexed with `u32` offsets: either the
    /// row count or the total membership count (`rows × |VΨ|`) would
    /// exceed `u32::MAX`. Building on would silently truncate incidence
    /// indices, so this is a hard, typed refusal.
    CapacityExceeded {
        /// Rows already emitted when the guard tripped.
        rows: u64,
    },
    /// The store would exceed the caller's byte budget.
    BudgetExceeded {
        /// Bytes the store had committed to when the build aborted.
        bytes: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::CapacityExceeded { rows } => {
                write!(f, "instance store overflows u32 indexing at {rows} rows")
            }
            StoreError::BudgetExceeded { bytes, budget } => {
                write!(f, "instance store needs > {bytes} bytes (budget {budget})")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// A 4-cycle store that [`InstanceStore::four_cycles_within`] refused,
/// with what its walk counted anyway.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FourCycleRefusal {
    /// The store error when the cycles overflow `u32` indexing or the
    /// byte budget; `None` when only the caller's row limit refused them.
    pub error: Option<StoreError>,
    /// The diamond degree of every vertex (0 outside `alive`).
    pub degrees: Vec<u64>,
}

/// Instrumentation for one store build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreBuildStats {
    /// Distinct instances enumerated (before vertex-set grouping).
    pub instances: u64,
    /// Rows after grouping identical vertex sets.
    pub rows: usize,
    /// Total memberships (`rows × |VΨ|`).
    pub memberships: usize,
    /// Resident bytes of the finished store.
    pub bytes: usize,
    /// Wall time of the build (enumeration + column assembly).
    pub build_nanos: u128,
    /// Worker shards used by the enumeration (1 = serial).
    pub shards: usize,
    /// Phase split: nanos building the rank-oriented out-CSR that every
    /// worker shares (for 4-cycles, the walk's rank-sorted neighbour
    /// lists). 0 for general patterns, which enumerate straight off the
    /// graph CSR.
    pub csr_build_nanos: u128,
    /// Phase split: nanos inside enumeration — intersections + emission
    /// into per-worker columns, including the shard concatenation (wall
    /// time of the parallel region).
    pub enumerate_nanos: u128,
    /// Phase split: nanos assembling the finished store — row grouping
    /// and the incidence-CSR build
    /// (`build_nanos − csr_build_nanos − enumerate_nanos`).
    pub assemble_nanos: u128,
}

/// Instrumentation for one in-place store repair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreRepairStats {
    /// Rows tombstoned because a removed edge killed their instances.
    pub rows_tombstoned: usize,
    /// Rows appended for instances the inserted edges created.
    pub rows_appended: usize,
    /// Whether the repair compacted the columns (dead-row fraction passed
    /// [`COMPACT_DEAD_NUM`]/[`COMPACT_DEAD_DEN`]).
    pub compacted: bool,
    /// Wall time of the repair.
    pub repair_nanos: u128,
}

/// Compaction policy: a repair physically drops tombstoned rows once
/// `dead_rows / rows > COMPACT_DEAD_NUM / COMPACT_DEAD_DEN`; below that,
/// tombstones are carried and queries skip them through the mask.
pub const COMPACT_DEAD_NUM: usize = 1;
/// See [`COMPACT_DEAD_NUM`].
pub const COMPACT_DEAD_DEN: usize = 4;

/// Build-time bytes a 4-cycle store charges per cycle beside its columns:
/// each shard's member and weight columns, copied once at concatenation.
const FOUR_CYCLE_TRANSIENT: u64 = 20;

/// Columnar instance storage: CSR-of-members plus CSR-of-incidence.
#[derive(Clone, Debug)]
pub struct InstanceStore {
    psi_size: usize,
    /// Row-major member lists, stride `psi_size`, each row id-sorted.
    members: Vec<VertexId>,
    /// Per-row instance multiplicity; `None` means every row weighs 1
    /// (always the case for cliques, whose vertex sets are unique).
    weights: Option<Vec<u32>>,
    /// `incidence(v) = inc_rows[inc_offsets[v]..inc_offsets[v + 1]]`.
    inc_offsets: Vec<u32>,
    inc_rows: Vec<u32>,
    /// Tombstone mask from in-place repairs. Empty means every row is
    /// live; otherwise `dead.len() == rows()` and `dead[row]` marks a row
    /// whose instances no longer exist in the repaired graph. Dead rows
    /// keep their incidence entries until compaction; every query skips
    /// them through the mask.
    dead: Vec<bool>,
    /// Number of `true` entries in `dead`.
    dead_rows: usize,
}

/// Shared row caps for a build: u32-indexing capacity and the byte budget.
#[derive(Clone, Copy)]
struct RowCaps {
    /// Hard cap: rows beyond this overflow u32 row ids or membership
    /// offsets.
    capacity_rows: u64,
    /// Soft cap from the byte budget (`u64::MAX` when unbudgeted).
    budget_rows: u64,
    budget: u64,
    bytes_per_row: u64,
    base_bytes: u64,
}

impl RowCaps {
    /// `transient_per_row` charges build-time scratch that peaks alongside
    /// the columns (the per-shard column copied at concatenation, the
    /// pattern path's grouping copy, repair's cross-edge dedup entries) so
    /// a refused build cannot itself blow the budget it was refused for.
    fn new(n: usize, psi_size: usize, transient_per_row: u64, budget: Option<u64>) -> Self {
        // Per row: members (4·|VΨ|) + incidence row ids (4·|VΨ|) + a
        // worst-case weight slot (4) + build transients. Offsets are per
        // vertex, not per row.
        let bytes_per_row = 8 * psi_size as u64 + 4 + transient_per_row;
        let base_bytes = 4 * (n as u64 + 1);
        let capacity_rows = (u32::MAX as u64).min(u32::MAX as u64 / psi_size as u64);
        let (budget, budget_rows) = match budget {
            Some(b) => (b, b.saturating_sub(base_bytes) / bytes_per_row),
            None => (u64::MAX, u64::MAX),
        };
        RowCaps {
            capacity_rows,
            budget_rows,
            budget,
            bytes_per_row,
            base_bytes,
        }
    }

    /// Largest row count a build may reach, and the error to report when
    /// `rows` would exceed it.
    fn max_rows(&self) -> u64 {
        self.capacity_rows.min(self.budget_rows)
    }

    /// Refuses the build up front when even the row-independent base
    /// allocation (the incidence offsets, one `u32` per vertex) overflows
    /// the budget — otherwise an instance-free build on a huge graph
    /// would materialize arbitrarily far over budget.
    fn check_base(&self) -> Result<(), StoreError> {
        if self.base_bytes > self.budget {
            Err(StoreError::BudgetExceeded {
                bytes: self.base_bytes,
                budget: self.budget,
            })
        } else {
            Ok(())
        }
    }

    fn error_at(&self, rows: u64) -> StoreError {
        if rows >= self.capacity_rows {
            StoreError::CapacityExceeded { rows }
        } else {
            StoreError::BudgetExceeded {
                // Charge the row that tripped the guard, so the reported
                // need is always strictly over the budget.
                bytes: self.base_bytes + rows.saturating_add(1).saturating_mul(self.bytes_per_row),
                budget: self.budget,
            }
        }
    }
}

impl InstanceStore {
    /// Builds the store of all h-cliques of `g[alive]`, `h >= 2`, sharded
    /// across `threads` workers by root vertex, each clique from its
    /// lowest-ranked member.
    ///
    /// Row order depends on the worker count (each worker's rows are
    /// deterministic and concatenated in worker order), but every query
    /// answered from the store — degrees, counts, decrements, peels — is
    /// row-order invariant, so answers are identical for every `threads`.
    pub fn cliques(
        g: &Graph,
        h: usize,
        alive: &VertexSet,
        threads: usize,
        budget: Option<u64>,
    ) -> Result<(Self, StoreBuildStats), StoreError> {
        assert!(h >= 2, "clique store needs h >= 2");
        let t0 = Instant::now();
        let n = g.num_vertices();
        // Transient: each shard's private column is copied once at merge.
        let caps = RowCaps::new(n, h, 4 * h as u64, budget);
        caps.check_base()?;
        let max_rows = caps.max_rows();
        let lister = CliqueLister::new(g, h, alive);
        let roots: Vec<VertexId> = alive.iter().collect();
        let csr_nanos = t0.elapsed().as_nanos();
        let enum_t0 = Instant::now();

        let shards = shard_count(threads, roots.len());
        let members = collect_capped(&roots, shards, max_rows, |mine, cap| {
            let mut members: Vec<VertexId> = Vec::new();
            let mut scratch = CliqueScratch::default();
            let mut row = [0 as VertexId; 16];
            for &v in mine {
                let done = lister.for_each_rooted_until(v, &mut scratch, &mut |clique| {
                    if !cap.admit() {
                        return false;
                    }
                    push_sorted_row(&mut members, clique, &mut row);
                    true
                });
                if !done {
                    break;
                }
            }
            members
        })
        .ok_or_else(|| caps.error_at(max_rows))?;
        let enum_nanos = enum_t0.elapsed().as_nanos();
        // Clique vertex sets are unique: no grouping pass, unit weights.
        let instances = (members.len() / h) as u64;
        Ok(Self::finish(
            h, members, None, n, instances, shards, csr_nanos, enum_nanos, t0,
        ))
    }

    /// Builds the store of all distinct instances of `psi` in `g[alive]`,
    /// sharded across `threads` workers by first-position candidate (see
    /// [`crate::for_each_owned_instance_until`]): shards emit disjoint
    /// instance sets with no cross-shard dedup, and the grouping pass
    /// sorts rows by content, so the finished store is **bit-identical**
    /// for every worker count. Rows sharing a vertex set are merged into
    /// one weighted row. `threads = 1` runs one shard on the calling thread.
    pub fn pattern(
        g: &Graph,
        psi: &Pattern,
        alive: &VertexSet,
        threads: usize,
        budget: Option<u64>,
    ) -> Result<(Self, StoreBuildStats), StoreError> {
        let t0 = Instant::now();
        let n = g.num_vertices();
        let k = psi.vertex_count();
        // Transient: grouping copies the member column once.
        let caps = RowCaps::new(n, k, 4 * k as u64, budget);
        caps.check_base()?;
        let max_rows = caps.max_rows();

        let roots: Vec<VertexId> = alive.iter().collect();
        let shards = shard_count(threads, roots.len());
        let enum_t0 = Instant::now();
        // Compile the search plans here, not in a worker: a worker would
        // allocate the pattern's long-lived memo in its own malloc arena,
        // which then cannot be trimmed, and the fragmentation measurably
        // raises peak RSS across repeated builds.
        psi.plans();

        // Symmetry breaking makes shard outputs disjoint, so the columns
        // concatenate with no dedup pass.
        let members = collect_capped(&roots, shards, max_rows, |firsts, cap| {
            let mut members: Vec<VertexId> = Vec::new();
            pattern_enum::for_each_owned_instance_until(g, psi, alive, firsts, &mut |inst| {
                if !cap.admit() {
                    return false;
                }
                members.extend_from_slice(inst);
                true
            });
            members
        })
        .ok_or_else(|| caps.error_at(max_rows))?;
        let enum_nanos = enum_t0.elapsed().as_nanos();
        let instances = (members.len() / k) as u64;

        // Group rows with identical vertex sets into one weighted row
        // (Figure 6's instance groups — e.g. the 3 diamonds of a K4).
        // Grouping sorts rows by content, which also erases any
        // shard-emission-order differences.
        let (members, weights) = group_rows(members, k);
        Ok(Self::finish(
            k, members, weights, n, instances, shards, 0, enum_nanos, t0,
        ))
    }

    /// Builds the store of all 4-cycles (diamonds) of `g[alive]` from one
    /// rank-ordered 4-cycle walk, sharded across `threads` workers by
    /// top. Each cycle is found once, from its top, as a pair of middles
    /// in a wedge group. Cycles share a vertex set only in a K4, whose
    /// three come from three groups of one top: the walk lists a K4 once,
    /// as a row of weight 3, so the shard columns concatenate with no
    /// grouping pass. Row order depends on the worker count, the
    /// (members, weight) multiset does not: it equals
    /// [`InstanceStore::pattern`]'s for [`Pattern::diamond`], which reaches
    /// the same rows through the generic symmetry-broken search. Same caps
    /// and errors as the other builders.
    pub fn four_cycles(
        g: &Graph,
        alive: &VertexSet,
        threads: usize,
        budget: Option<u64>,
    ) -> Result<(Self, StoreBuildStats), StoreError> {
        Self::four_cycles_within(g, alive, threads, budget, u64::MAX).map_err(|refusal| {
            refusal
                .error
                .expect("only a store cap refuses a walk without a row limit")
        })
    }

    /// [`InstanceStore::four_cycles`] under a further cap of `row_limit`
    /// instances. The walk groups each top's wedges by far end and counts
    /// a group's `C(c, 2)` cycles before listing any of them, so the caps
    /// are checked on counts; past a cap it drops what it listed and walks
    /// on count-only, and the refusal carries the diamond degrees it
    /// counted (those of [`crate::special::diamond_degrees`]), so a caller
    /// that falls back to the closed-form peel does not walk again.
    pub fn four_cycles_within(
        g: &Graph,
        alive: &VertexSet,
        threads: usize,
        budget: Option<u64>,
        row_limit: u64,
    ) -> Result<(Self, StoreBuildStats), FourCycleRefusal> {
        let t0 = Instant::now();
        let n = g.num_vertices();
        let caps = RowCaps::new(n, 4, FOUR_CYCLE_TRANSIENT, budget);
        let base = caps.check_base();
        let max_rows = match base {
            Ok(()) => caps.max_rows().min(row_limit),
            Err(_) => 0,
        };
        let walk = FourCycleWalk::new(g, alive);
        let tops: Vec<u32> = (0..walk.tops() as u32).collect();
        let csr_nanos = t0.elapsed().as_nanos();
        let enum_t0 = Instant::now();

        let shards = shard_count(threads, tops.len());
        let (outputs, fits) = run_capped(&tops, shards, max_rows, |mine, cap| {
            let mut scratch = FourCycleScratch::default();
            let mut shard = ShardCycles {
                degrees: vec![0u64; walk.tops()],
                ..ShardCycles::default()
            };
            let mut listing = true;
            for &t in mine {
                if !listing {
                    shard.cycles += walk.walk_top(t, &mut scratch, &mut shard.degrees, None);
                    continue;
                }
                let vt = walk.vertex(t);
                let mut list = |w: u32, middles: &[u32]| {
                    if !listing || !(0..pairs(middles.len())).all(|_| cap.admit()) {
                        listing = false;
                        return;
                    }
                    let (vw, chord) = (walk.vertex(w), walk.adjacent(t, w));
                    for (i, &a) in middles.iter().enumerate() {
                        for &b in &middles[i + 1..] {
                            // A vertex set holds a second 4-cycle only
                            // when both of the first's diagonals are
                            // edges, and then it is a K4 holding three:
                            // one in each of its top's groups. List it
                            // once, from the group whose far end ranks
                            // lowest (middles ascend, so `a < b`).
                            let weight = match chord && walk.adjacent(a, b) {
                                true if w > a => continue,
                                true => 3,
                                false => 1,
                            };
                            let mut row = [vt, vw, walk.vertex(a), walk.vertex(b)];
                            row.sort_unstable();
                            shard.members.extend_from_slice(&row);
                            shard.weights.push(weight);
                        }
                    }
                };
                shard.cycles += walk.walk_top(t, &mut scratch, &mut shard.degrees, Some(&mut list));
                if !listing {
                    shard.members = Vec::new();
                    shard.weights = Vec::new();
                }
            }
            shard
        });
        let enum_nanos = enum_t0.elapsed().as_nanos();
        let instances: u64 = outputs.iter().map(|shard| shard.cycles).sum();
        if base.is_err() || !fits {
            let mut degrees = vec![0u64; walk.tops()];
            for shard in &outputs {
                for (sum, &d) in degrees.iter_mut().zip(&shard.degrees) {
                    *sum = sum.saturating_add(d);
                }
            }
            let error = base
                .err()
                .or_else(|| (instances > caps.max_rows()).then(|| caps.error_at(caps.max_rows())));
            return Err(FourCycleRefusal {
                error,
                degrees: walk.by_vertex(&degrees, n),
            });
        }
        let (members, weights): (Vec<_>, Vec<_>) = outputs
            .into_iter()
            .map(|shard| (shard.members, shard.weights))
            .unzip();
        let (members, weights) = (concat(members), concat(weights));
        debug_assert_eq!(weights.iter().map(|&w| w as u64).sum::<u64>(), instances);
        // Unit weights everywhere keep the unweighted representation.
        let weights = weights.iter().any(|&w| w != 1).then_some(weights);
        Ok(Self::finish(
            4, members, weights, n, instances, shards, csr_nanos, enum_nanos, t0,
        ))
    }

    /// Assembles the incidence CSR and the build stats.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        psi_size: usize,
        members: Vec<VertexId>,
        weights: Option<Vec<u32>>,
        n: usize,
        instances: u64,
        shards: usize,
        csr_build_nanos: u128,
        enumerate_nanos: u128,
        t0: Instant,
    ) -> (Self, StoreBuildStats) {
        debug_assert_eq!(members.len() % psi_size, 0);
        let rows = members.len() / psi_size;
        let mut store = InstanceStore {
            psi_size,
            members,
            weights,
            inc_offsets: vec![0u32; n + 1],
            inc_rows: Vec::new(),
            dead: Vec::new(),
            dead_rows: 0,
        };
        store.rebuild_incidence();
        let build_nanos = t0.elapsed().as_nanos();
        let stats = StoreBuildStats {
            instances,
            rows,
            memberships: store.memberships(),
            bytes: store.bytes(),
            build_nanos,
            shards,
            csr_build_nanos,
            enumerate_nanos,
            assemble_nanos: build_nanos
                .saturating_sub(csr_build_nanos)
                .saturating_sub(enumerate_nanos),
        };
        (store, stats)
    }

    /// `|VΨ|`: members per row.
    #[inline]
    pub fn psi_size(&self) -> usize {
        self.psi_size
    }

    /// Number of (grouped) rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.members.len() / self.psi_size
    }

    /// Total memberships across rows.
    #[inline]
    pub fn memberships(&self) -> usize {
        self.members.len()
    }

    /// Id-sorted members of `row`.
    #[inline]
    pub fn members(&self, row: usize) -> &[VertexId] {
        &self.members[row * self.psi_size..(row + 1) * self.psi_size]
    }

    /// Instance multiplicity of `row`.
    #[inline]
    pub fn weight(&self, row: usize) -> u64 {
        match &self.weights {
            Some(w) => w[row] as u64,
            None => 1,
        }
    }

    /// Rows containing vertex `v`.
    #[inline]
    pub fn incidence(&self, v: VertexId) -> &[u32] {
        let lo = self.inc_offsets[v as usize] as usize;
        let hi = self.inc_offsets[v as usize + 1] as usize;
        &self.inc_rows[lo..hi]
    }

    /// Total instance count of the full stored graph.
    pub fn total_instances(&self) -> u64 {
        if self.dead_rows > 0 {
            return (0..self.rows())
                .filter(|&row| !self.dead[row])
                .map(|row| self.weight(row))
                .sum();
        }
        match &self.weights {
            Some(w) => w.iter().map(|&x| x as u64).sum(),
            None => self.rows() as u64,
        }
    }

    /// Resident heap bytes of the columns.
    pub fn bytes(&self) -> usize {
        4 * self.members.len()
            + 4 * self.weights.as_ref().map_or(0, Vec::len)
            + 4 * self.inc_offsets.len()
            + 4 * self.inc_rows.len()
            + self.dead.len()
    }

    /// Whether `row` was tombstoned by an in-place repair.
    #[inline]
    pub fn row_tombstoned(&self, row: usize) -> bool {
        !self.dead.is_empty() && self.dead[row]
    }

    /// Rows not tombstoned.
    #[inline]
    pub fn live_rows(&self) -> usize {
        self.rows() - self.dead_rows
    }

    /// Tombstoned rows currently carried (0 after compaction).
    #[inline]
    pub fn tombstoned_rows(&self) -> usize {
        self.dead_rows
    }

    /// Whether `row` is not tombstoned and every member is alive.
    #[inline]
    pub fn row_live(&self, row: usize, alive: &VertexSet) -> bool {
        !self.row_tombstoned(row) && self.members(row).iter().all(|&v| alive.contains(v))
    }

    /// Per-vertex instance degrees of the stored graph restricted to
    /// `alive` (0 outside).
    pub fn degrees_within(&self, alive: &VertexSet) -> Vec<u64> {
        let mut deg = vec![0u64; self.inc_offsets.len() - 1];
        for row in 0..self.rows() {
            if self.row_live(row, alive) {
                let w = self.weight(row);
                for &v in self.members(row) {
                    deg[v as usize] += w;
                }
            }
        }
        deg
    }

    /// Total live instances under `alive`.
    pub fn count_within(&self, alive: &VertexSet) -> u64 {
        (0..self.rows())
            .filter(|&row| self.row_live(row, alive))
            .map(|row| self.weight(row))
            .sum()
    }

    /// Repairs an h-clique store in place across an edge batch. `g` is
    /// the **post-batch** graph; `inserted` / `removed` are the net edge
    /// changes (no key in both, endpoints within the stored vertex
    /// range — the vertex set itself never changes under edge updates).
    ///
    /// Deletion: an h-clique dies iff it contains both endpoints of a
    /// removed edge, so the rows to tombstone are found by walking one
    /// endpoint's incidence list — no re-enumeration. Insertion: the
    /// h-cliques an edge `{u, v}` creates are exactly `{u, v} ∪ C` for
    /// the (h−2)-cliques `C` of `g[N(u) ∩ N(v) ∩ alive]`; a clique
    /// containing several inserted edges is deduped by canonical member
    /// set, and can never collide with a surviving row (old rows contain
    /// no inserted edge). Every query is a row-order-invariant sum over
    /// live rows, so the repaired store answers **identically** to a
    /// from-scratch rebuild on `g`.
    ///
    /// On `Err` (budget/capacity, same guards as [`InstanceStore::cliques`])
    /// the store may hold partial tombstones and must be discarded — the
    /// caller falls back to a rebuild anyway.
    pub fn repair_cliques(
        &mut self,
        g: &Graph,
        inserted: &[(VertexId, VertexId)],
        removed: &[(VertexId, VertexId)],
        alive: &VertexSet,
        budget: Option<u64>,
    ) -> Result<StoreRepairStats, StoreError> {
        debug_assert!(self.weights.is_none(), "clique stores are unweighted");
        let t0 = Instant::now();
        let h = self.psi_size;
        let mut stats = StoreRepairStats::default();

        for &(u, v) in removed {
            stats.rows_tombstoned += self.tombstone_rows_with_edge(u, v);
        }

        let caps = RowCaps::new(self.inc_offsets.len() - 1, h, 0, budget);
        caps.check_base()?;
        let mut fresh: Vec<VertexId> = Vec::new();
        let mut seen: HashSet<Vec<VertexId>> = HashSet::new();
        let dedup = inserted.len() > 1;
        for &(u, v) in inserted {
            if !alive.contains(u) || !alive.contains(v) {
                continue;
            }
            crate::kclist::for_each_clique_containing_edge(g, h, u, v, alive, |others| {
                let mut row: Vec<VertexId> = Vec::with_capacity(h);
                row.push(u);
                row.push(v);
                row.extend_from_slice(others);
                row.sort_unstable();
                if dedup && !seen.insert(row.clone()) {
                    return;
                }
                fresh.extend_from_slice(&row);
            });
        }
        self.append_rows(fresh, None, &caps, &mut stats)?;
        self.settle(&mut stats);
        stats.repair_nanos = t0.elapsed().as_nanos();
        Ok(stats)
    }

    /// Repairs a general-pattern store in place across an edge batch.
    /// `g` is the post-batch graph and `g_mid` is `g` minus the inserted
    /// edges — equivalently the pre-batch graph minus the removed edges
    /// (pass `g` itself when `inserted` is empty).
    ///
    /// Deletion: only rows containing both endpoints of a removed edge
    /// can lose instances; each such row is **recounted** in `g_mid` —
    /// an instance uses exactly `|VΨ|` distinct vertices, so counting
    /// inside the induced subgraph of the row's member set is exact.
    /// Weight drops to the surviving multiplicity; zero tombstones the
    /// row. Insertion: the instances of `g` split into those of `g_mid`
    /// (already stored, post-recount) and those using ≥ 1 inserted edge,
    /// which are enumerated anchored at the inserted endpoints, deduped
    /// by canonical edge set, grouped by member set, and merged — a
    /// group whose set matches a live row bumps its weight, otherwise it
    /// appends (a set matching only a tombstoned row appends a fresh
    /// row; queries skip the dead twin). Same error contract as
    /// [`InstanceStore::repair_cliques`].
    #[allow(clippy::too_many_arguments)]
    pub fn repair_pattern(
        &mut self,
        g: &Graph,
        g_mid: &Graph,
        psi: &Pattern,
        inserted: &[(VertexId, VertexId)],
        removed: &[(VertexId, VertexId)],
        alive: &VertexSet,
        budget: Option<u64>,
    ) -> Result<StoreRepairStats, StoreError> {
        debug_assert_eq!(psi.vertex_count(), self.psi_size);
        let t0 = Instant::now();
        let k = self.psi_size;
        let mut stats = StoreRepairStats::default();

        let mut touched: Vec<usize> = Vec::new();
        for &(u, v) in removed {
            let lo = self.inc_offsets[u as usize] as usize;
            let hi = self.inc_offsets[u as usize + 1] as usize;
            for idx in lo..hi {
                let row = self.inc_rows[idx] as usize;
                if !self.row_tombstoned(row) && self.members(row).contains(&v) {
                    touched.push(row);
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for &row in &touched {
            let sub = InducedSubgraph::new(g_mid, self.members(row));
            let w = pattern_enum::count_instances(&sub.graph, psi, &VertexSet::full(k));
            if w == 0 {
                self.tombstone(row);
                stats.rows_tombstoned += 1;
            } else if w != self.weight(row) {
                self.set_weight(row, u32::try_from(w).expect("touched-row recount fits u32"));
            }
        }

        let mut seen: HashSet<Vec<(VertexId, VertexId)>> = HashSet::new();
        let mut groups: HashMap<Vec<VertexId>, u32> = HashMap::new();
        for &(u, v) in inserted {
            if !alive.contains(u) || !alive.contains(v) {
                continue;
            }
            let key = (u.min(v), u.max(v));
            for inst in pattern_enum::instances_containing(g, psi, u, alive) {
                if !inst.edges.contains(&key) || !seen.insert(inst.edges) {
                    continue;
                }
                *groups.entry(inst.vertices).or_insert(0) += 1;
            }
        }
        let mut grouped: Vec<(Vec<VertexId>, u32)> = groups.into_iter().collect();
        grouped.sort_unstable();
        let mut fresh_members: Vec<VertexId> = Vec::new();
        let mut fresh_weights: Vec<u32> = Vec::new();
        for (set, count) in grouped {
            if let Some(row) = self.find_live_row(&set) {
                let w = self.weight(row) + count as u64;
                self.set_weight(row, u32::try_from(w).expect("merged weight fits u32"));
            } else {
                fresh_members.extend_from_slice(&set);
                fresh_weights.push(count);
            }
        }

        // Transient: the cross-edge dedup keeps one heap-allocated canonical
        // edge list per new instance (8 bytes/edge + ~48 of set overhead),
        // and grouping copies its member list.
        let dedup_per_row = 8 * psi.edge_count() as u64 + 48 + 4 * k as u64;
        let caps = RowCaps::new(self.inc_offsets.len() - 1, k, dedup_per_row, budget);
        caps.check_base()?;
        self.append_rows(fresh_members, Some(fresh_weights), &caps, &mut stats)?;
        self.settle(&mut stats);
        stats.repair_nanos = t0.elapsed().as_nanos();
        Ok(stats)
    }

    /// Tombstones every live row containing both `u` and `v`, returning
    /// how many died.
    fn tombstone_rows_with_edge(&mut self, u: VertexId, v: VertexId) -> usize {
        let lo = self.inc_offsets[u as usize] as usize;
        let hi = self.inc_offsets[u as usize + 1] as usize;
        let mut died = 0;
        for idx in lo..hi {
            let row = self.inc_rows[idx] as usize;
            if !self.row_tombstoned(row) && self.members(row).contains(&v) {
                self.tombstone(row);
                died += 1;
            }
        }
        died
    }

    /// Marks `row` dead, materializing the mask on first use.
    fn tombstone(&mut self, row: usize) {
        if self.dead.is_empty() {
            self.dead = vec![false; self.rows()];
        }
        if !self.dead[row] {
            self.dead[row] = true;
            self.dead_rows += 1;
        }
    }

    /// Sets `row`'s multiplicity, materializing the weight column when a
    /// non-unit weight first appears.
    fn set_weight(&mut self, row: usize, w: u32) {
        if self.weights.is_none() {
            if w == 1 {
                return;
            }
            self.weights = Some(vec![1u32; self.rows()]);
        }
        self.weights.as_mut().expect("just materialized")[row] = w;
    }

    /// The live row holding exactly `set` (id-sorted), found through the
    /// incidence of its first member. Rows appended by the caller after
    /// the last CSR rebuild are not findable — repair appends only
    /// mutually-distinct sets, so that never aliases.
    fn find_live_row(&self, set: &[VertexId]) -> Option<usize> {
        let v = *set.first()?;
        self.incidence(v)
            .iter()
            .map(|&row| row as usize)
            .find(|&row| !self.row_tombstoned(row) && self.members(row) == set)
    }

    /// Appends repaired rows under the build-time caps (checked against
    /// the **physical** row count — tombstones occupy capacity until
    /// compaction) and records the append in `stats`.
    fn append_rows(
        &mut self,
        fresh_members: Vec<VertexId>,
        fresh_weights: Option<Vec<u32>>,
        caps: &RowCaps,
        stats: &mut StoreRepairStats,
    ) -> Result<(), StoreError> {
        debug_assert_eq!(fresh_members.len() % self.psi_size, 0);
        let new_rows = fresh_members.len() / self.psi_size;
        let total_rows = (self.rows() + new_rows) as u64;
        if total_rows > caps.max_rows() {
            return Err(caps.error_at(total_rows));
        }
        if new_rows == 0 {
            return Ok(());
        }
        let old_rows = self.rows();
        if self.weights.is_none()
            && fresh_weights
                .as_ref()
                .is_some_and(|w| w.iter().any(|&x| x != 1))
        {
            self.weights = Some(vec![1u32; old_rows]);
        }
        self.members.extend_from_slice(&fresh_members);
        if let Some(col) = &mut self.weights {
            match &fresh_weights {
                Some(w) => col.extend_from_slice(w),
                None => col.resize(old_rows + new_rows, 1),
            }
        }
        if !self.dead.is_empty() {
            self.dead.resize(old_rows + new_rows, false);
        }
        stats.rows_appended = new_rows;
        Ok(())
    }

    /// Post-repair housekeeping: compacts once tombstones pass the dead
    /// fraction, else rebuilds the incidence CSR if rows were appended
    /// (a pure-deletion repair keeps the CSR — dead rows stay indexed
    /// and queries skip them through the mask).
    fn settle(&mut self, stats: &mut StoreRepairStats) {
        if self.dead_rows > 0 && self.dead_rows * COMPACT_DEAD_DEN > self.rows() * COMPACT_DEAD_NUM
        {
            self.compact();
            stats.compacted = true;
        } else if stats.rows_appended > 0 {
            self.rebuild_incidence();
        }
    }

    /// Physically drops tombstoned rows and rebuilds the incidence CSR.
    /// A no-op when nothing is tombstoned.
    pub fn compact(&mut self) {
        if self.dead_rows == 0 {
            return;
        }
        let k = self.psi_size;
        let rows = self.rows();
        let mut out = 0usize;
        for row in 0..rows {
            if self.dead[row] {
                continue;
            }
            if out != row {
                self.members.copy_within(row * k..(row + 1) * k, out * k);
                if let Some(w) = &mut self.weights {
                    w[out] = w[row];
                }
            }
            out += 1;
        }
        self.members.truncate(out * k);
        if let Some(w) = &mut self.weights {
            w.truncate(out);
        }
        self.dead = Vec::new();
        self.dead_rows = 0;
        self.rebuild_incidence();
    }

    /// Rebuilds the vertex → row incidence CSR from the current member
    /// column in one counting pass (tombstoned rows keep entries; queries
    /// skip them through the mask).
    fn rebuild_incidence(&mut self) {
        let n = self.inc_offsets.len() - 1;
        let mut inc_offsets = vec![0u32; n + 1];
        for &v in &self.members {
            inc_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            inc_offsets[i + 1] += inc_offsets[i];
        }
        let mut cursor: Vec<u32> = inc_offsets[..n].to_vec();
        let mut inc_rows = vec![0u32; self.members.len()];
        for (row, chunk) in self.members.chunks_exact(self.psi_size).enumerate() {
            for &v in chunk {
                inc_rows[cursor[v as usize] as usize] = row as u32;
                cursor[v as usize] += 1;
            }
        }
        self.inc_offsets = inc_offsets;
        self.inc_rows = inc_rows;
    }
}

/// Appends `clique` to the column in id-sorted order via a fixed scratch
/// row (rank chains arrive in listing-rank order; |VΨ| ≤ 16 covers every
/// practical h — larger cliques fall back to a heap sort row).
fn push_sorted_row(members: &mut Vec<VertexId>, clique: &[VertexId], row: &mut [VertexId; 16]) {
    if clique.len() <= 16 {
        let row = &mut row[..clique.len()];
        row.copy_from_slice(clique);
        row.sort_unstable();
        members.extend_from_slice(row);
    } else {
        let mut big = clique.to_vec();
        big.sort_unstable();
        members.extend_from_slice(&big);
    }
}

/// One shard of a 4-cycle store build: its rows (when it listed to the
/// end), the diamond degrees its tops contribute (rank-indexed) and how
/// many cycles they top.
#[derive(Default)]
struct ShardCycles {
    members: Vec<VertexId>,
    weights: Vec<u32>,
    degrees: Vec<u64>,
    cycles: u64,
}

/// Merges rows with identical member lists, returning the compacted
/// column plus weights (`None` when every row was already unique). Rows
/// come out in ascending lexicographic order.
fn group_rows(members: Vec<VertexId>, k: usize) -> (Vec<VertexId>, Option<Vec<u32>>) {
    let rows = members.len() / k;
    if rows <= 1 {
        return (members, None);
    }
    let mut grouped: Vec<VertexId> = Vec::with_capacity(members.len());
    let mut weights: Vec<u32> = Vec::new();
    let mut push = |row: &[VertexId]| {
        if grouped.len() >= k && &grouped[grouped.len() - k..] == row {
            *weights.last_mut().expect("weight per emitted row") += 1;
        } else {
            grouped.extend_from_slice(row);
            weights.push(1);
        }
    };
    if k <= 4 {
        // Up to four 32-bit members pack into one u128 whose numeric order
        // is the rows' lexicographic order, so the sort compares integers
        // instead of slices through an index.
        let mut keys: Vec<u128> = members
            .chunks_exact(k)
            .map(|row| row.iter().fold(0u128, |key, &v| key << 32 | v as u128))
            .collect();
        drop(members);
        keys.sort_unstable();
        let mut row = [0 as VertexId; 4];
        for key in keys {
            for (i, slot) in row[..k].iter_mut().enumerate() {
                *slot = (key >> (32 * (k - 1 - i))) as VertexId;
            }
            push(&row[..k]);
        }
    } else {
        let mut order: Vec<u32> = (0..rows as u32).collect();
        let row_of = |i: u32| &members[i as usize * k..(i as usize + 1) * k];
        order.sort_unstable_by(|&a, &b| row_of(a).cmp(row_of(b)));
        for &i in &order {
            push(row_of(i));
        }
    }
    if weights.iter().all(|&w| w == 1) {
        // No duplicates: keep the (cheaper) unweighted representation.
        (grouped, None)
    } else {
        (grouped, Some(weights))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kclist;
    use crate::pattern_enum::{count_instances, pattern_degrees};
    use dsd_graph::GraphBuilder;

    fn random_graph(seed: u64, n: usize, per_mille: u64) -> Graph {
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
                if next() % 1000 < per_mille {
                    b.add_edge(u, v);
                }
            }
        }
        b.build()
    }

    #[test]
    fn clique_store_matches_kclist_degrees_and_counts() {
        let g = random_graph(11, 200, 60);
        let alive = VertexSet::full(200);
        for h in 2..=4 {
            for threads in [1, 4] {
                let (store, stats) = InstanceStore::cliques(&g, h, &alive, threads, None).unwrap();
                assert_eq!(store.psi_size(), h);
                assert_eq!(stats.rows, store.rows());
                assert_eq!(store.total_instances(), kclist::count_cliques(&g, h));
                assert_eq!(
                    store.degrees_within(&alive),
                    kclist::clique_degrees(&g, h),
                    "h = {h}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn clique_store_respects_alive_masks_at_build_and_query() {
        let g = random_graph(5, 120, 80);
        let mut alive = VertexSet::full(120);
        for v in (0..120u32).step_by(3) {
            alive.remove(v);
        }
        // Build on the full graph, query masked.
        let (store, _) = InstanceStore::cliques(&g, 3, &VertexSet::full(120), 1, None).unwrap();
        assert_eq!(
            store.degrees_within(&alive),
            kclist::clique_degrees_within(&g, 3, &alive)
        );
        assert_eq!(
            store.count_within(&alive),
            kclist::count_cliques_within(&g, 3, &alive)
        );
        // Build masked: same live content.
        let (masked, _) = InstanceStore::cliques(&g, 3, &alive, 2, None).unwrap();
        assert_eq!(masked.total_instances(), store.count_within(&alive));
    }

    #[test]
    fn pattern_store_groups_and_matches_enumeration() {
        let g = random_graph(23, 40, 300);
        let alive = VertexSet::full(40);
        for psi in [
            Pattern::two_star(),
            Pattern::diamond(),
            Pattern::two_triangle(),
            Pattern::c3_star(),
        ] {
            let (store, stats) = InstanceStore::pattern(&g, &psi, &alive, 1, None).unwrap();
            assert_eq!(store.total_instances(), count_instances(&g, &psi, &alive));
            assert_eq!(stats.instances, store.total_instances());
            assert!(stats.rows <= stats.instances as usize);
            assert_eq!(
                store.degrees_within(&alive),
                pattern_degrees(&g, &psi, &alive),
                "{}",
                psi.name()
            );
        }
    }

    #[test]
    fn diamond_store_in_k4_is_one_weighted_row() {
        let mut b = GraphBuilder::new(4);
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let (store, stats) =
            InstanceStore::pattern(&g, &Pattern::diamond(), &VertexSet::full(4), 1, None).unwrap();
        assert_eq!(stats.instances, 3);
        assert_eq!(store.rows(), 1, "3 diamonds on one vertex set group");
        assert_eq!(store.weight(0), 3);
        assert_eq!(store.members(0), &[0, 1, 2, 3]);
    }

    #[test]
    fn incidence_is_consistent_with_members() {
        let g = random_graph(7, 80, 120);
        let alive = VertexSet::full(80);
        let (store, _) = InstanceStore::cliques(&g, 3, &alive, 3, None).unwrap();
        for v in 0..80u32 {
            for &row in store.incidence(v) {
                assert!(store.members(row as usize).contains(&v));
            }
        }
        let total: usize = (0..80u32).map(|v| store.incidence(v).len()).sum();
        assert_eq!(total, store.memberships());
    }

    #[test]
    fn budget_exceeded_is_typed_and_aborts() {
        let g = random_graph(3, 200, 200);
        let alive = VertexSet::full(200);
        let err = InstanceStore::cliques(&g, 3, &alive, 4, Some(2_000)).unwrap_err();
        match err {
            StoreError::BudgetExceeded { bytes, budget } => {
                assert_eq!(budget, 2_000);
                assert!(bytes >= budget);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // The same graph fits a sane budget.
        assert!(InstanceStore::cliques(&g, 3, &alive, 4, Some(64 << 20)).is_ok());
        // Pattern path hits the same guard.
        let err = InstanceStore::pattern(&g, &Pattern::two_star(), &alive, 1, Some(1_500));
        assert!(matches!(err, Err(StoreError::BudgetExceeded { .. })));
    }

    /// The shards share one row cap, so the budget boundary is the same for
    /// every shard count: a budget of exactly the instance count builds
    /// the same rows on 1 and 4 shards, and one row less refuses both.
    #[test]
    fn row_cap_is_exact_for_every_shard_count() {
        let n = 300;
        let g = random_graph(5, n, 60);
        let alive = VertexSet::full(n);
        let psi = Pattern::two_triangle();
        // The budget whose `max_rows` is exactly `rows`.
        let budget_for = |k: usize, rows: u64| {
            let caps = RowCaps::new(n, k, 4 * k as u64, None);
            let budget = caps.base_bytes + rows * caps.bytes_per_row;
            assert_eq!(
                RowCaps::new(n, k, 4 * k as u64, Some(budget)).max_rows(),
                rows
            );
            budget
        };
        let cliques = kclist::count_cliques(&g, 3);
        let instances = count_instances(&g, &psi, &alive);
        assert!(cliques > 1_000 && instances > 1_000, "cap must span chunks");
        let (clique_budget, pattern_budget) = (budget_for(3, cliques), budget_for(4, instances));
        let sorted_rows = |store: &InstanceStore| {
            let mut rows: Vec<Vec<VertexId>> = (0..store.rows())
                .map(|r| store.members(r).to_vec())
                .collect();
            rows.sort_unstable();
            rows
        };
        let mut reference = None;
        for threads in [1, 4] {
            let (clique_store, stats) =
                InstanceStore::cliques(&g, 3, &alive, threads, Some(clique_budget))
                    .expect("clique rows fit the cap");
            assert_eq!(stats.shards, threads);
            let (pattern_store, _) =
                InstanceStore::pattern(&g, &psi, &alive, threads, Some(pattern_budget))
                    .expect("pattern instances fit the cap");
            assert_eq!(clique_store.total_instances(), cliques);
            assert_eq!(pattern_store.total_instances(), instances);
            let rows = (
                sorted_rows(&clique_store),
                pattern_store.members,
                pattern_store.weights,
            );
            match &reference {
                None => reference = Some(rows),
                Some(reference) => assert_eq!(&rows, reference, "threads = {threads}"),
            }
            assert!(matches!(
                InstanceStore::cliques(&g, 3, &alive, threads, Some(clique_budget - 1)),
                Err(StoreError::BudgetExceeded { .. })
            ));
            assert!(matches!(
                InstanceStore::pattern(&g, &psi, &alive, threads, Some(pattern_budget - 1)),
                Err(StoreError::BudgetExceeded { .. })
            ));
        }
    }

    /// Sorted `(members, weight)` rows: the store's row multiset.
    fn weighted_rows(store: &InstanceStore) -> Vec<(Vec<VertexId>, u64)> {
        let mut rows: Vec<_> = (0..store.rows())
            .map(|r| (store.members(r).to_vec(), store.weight(r)))
            .collect();
        rows.sort_unstable();
        rows
    }

    /// `g` with a `k`-clique planted on every `stride`-th vertex from
    /// `first` on.
    fn with_clique(g: &Graph, k: u32, first: u32, stride: u32) -> Graph {
        let mut b = GraphBuilder::new(g.num_vertices());
        for u in 0..g.num_vertices() as VertexId {
            for &v in g.neighbors(u) {
                if u < v {
                    b.add_edge(u, v);
                }
            }
        }
        for i in 0..k {
            for j in (i + 1)..k {
                b.add_edge(first + i * stride, first + j * stride);
            }
        }
        b.build()
    }

    /// Sparse, K4/K5-rich dense and planted-clique graphs.
    fn four_cycle_graphs() -> Vec<(String, Graph)> {
        let mut out = Vec::new();
        for seed in 1..=3u64 {
            out.push((format!("sparse {seed}"), random_graph(seed, 120, 40)));
            out.push((format!("dense {seed}"), random_graph(seed + 10, 24, 600)));
            let planted = with_clique(&random_graph(seed + 20, 90, 30), 7, seed as u32, 5);
            out.push((format!("planted {seed}"), with_clique(&planted, 5, 40, 3)));
        }
        out
    }

    /// The walk lists exactly the generic diamond store's rows, for every
    /// worker count: the same (members, weight) multiset and instance
    /// count, K4s and K5s (three cycles per vertex set) included.
    #[test]
    fn four_cycle_store_matches_the_generic_diamond_store() {
        let psi = Pattern::diamond();
        let mut weighted = 0;
        for (name, g) in four_cycle_graphs() {
            let alive = VertexSet::full(g.num_vertices());
            let (generic, generic_stats) =
                InstanceStore::pattern(&g, &psi, &alive, 1, None).unwrap();
            assert!(generic.total_instances() > 0, "{name}: cycles to list");
            weighted += usize::from(generic.weights.is_some());
            for threads in [1, 2, 4] {
                let (store, stats) = InstanceStore::four_cycles(&g, &alive, threads, None).unwrap();
                let ctx = format!("{name}, threads {threads}");
                assert_eq!(weighted_rows(&store), weighted_rows(&generic), "{ctx}");
                assert_eq!(stats.instances, generic_stats.instances, "{ctx}");
                assert_eq!(stats.rows, generic_stats.rows, "{ctx}");
                assert_eq!(stats.shards, threads, "{ctx}");
                assert_eq!(store.total_instances(), count_instances(&g, &psi, &alive));
                assert_eq!(
                    store.degrees_within(&alive),
                    crate::special::diamond_degrees(&g, &alive),
                    "{ctx}"
                );
            }
            // A masked build lists the cycles of `g[alive]` only.
            let mut masked = alive.clone();
            for v in (0..g.num_vertices() as VertexId).step_by(4) {
                masked.remove(v);
            }
            let (store, _) = InstanceStore::four_cycles(&g, &masked, 2, None).unwrap();
            let (generic, _) = InstanceStore::pattern(&g, &psi, &masked, 1, None).unwrap();
            assert_eq!(
                weighted_rows(&store),
                weighted_rows(&generic),
                "{name} masked"
            );
        }
        assert!(
            weighted >= 3,
            "vertex sets with several cycles ({weighted})"
        );
    }

    /// The byte cap refuses exactly: a budget of exactly the cycle count
    /// builds on 1, 2 and 4 shards and one row less refuses, and so does a
    /// row limit one under the cycle count. A refusal carries the walk's
    /// diamond degrees.
    #[test]
    fn four_cycle_caps_refuse_exactly_and_keep_the_degrees() {
        let g = with_clique(&random_graph(7, 300, 60), 6, 0, 7);
        let n = g.num_vertices();
        let alive = VertexSet::full(n);
        let cycles = count_instances(&g, &Pattern::diamond(), &alive);
        assert!(cycles > 10_000, "the cap must span chunks ({cycles})");
        let degrees = crate::special::diamond_degrees(&g, &alive);
        let caps = RowCaps::new(n, 4, FOUR_CYCLE_TRANSIENT, None);
        let budget = caps.base_bytes + cycles * caps.bytes_per_row;
        for threads in [1, 2, 4] {
            let (store, _) = InstanceStore::four_cycles(&g, &alive, threads, Some(budget))
                .expect("the cycles fit the cap");
            assert_eq!(store.total_instances(), cycles);
            let refusal =
                InstanceStore::four_cycles_within(&g, &alive, threads, Some(budget - 1), u64::MAX)
                    .unwrap_err();
            assert!(matches!(
                refusal.error,
                Some(StoreError::BudgetExceeded { budget: b, .. }) if b == budget - 1
            ));
            assert_eq!(refusal.degrees, degrees);
            let refusal = InstanceStore::four_cycles_within(&g, &alive, threads, None, cycles - 1)
                .unwrap_err();
            assert_eq!(refusal.error, None, "only the row limit refused");
            assert_eq!(refusal.degrees, degrees);
            assert!(InstanceStore::four_cycles_within(&g, &alive, threads, None, cycles).is_ok());
        }
        // The base allocation is budgeted before any cycle.
        let refusal =
            InstanceStore::four_cycles_within(&g, &alive, 2, Some(100), u64::MAX).unwrap_err();
        assert!(matches!(
            refusal.error,
            Some(StoreError::BudgetExceeded { .. })
        ));
        assert_eq!(refusal.degrees, degrees);
    }

    #[test]
    fn capacity_guard_precedes_budget_and_is_typed() {
        // A real u32 overflow needs > 4 × 10⁹ rows, so pin the guard's
        // arithmetic directly: the capacity cap binds before any byte
        // budget once rows × |VΨ| would overflow u32 offsets.
        let caps = RowCaps::new(100, 8, 0, None);
        assert_eq!(caps.max_rows(), u32::MAX as u64 / 8);
        assert!(matches!(
            caps.error_at(caps.max_rows()),
            StoreError::CapacityExceeded { rows } if rows == u32::MAX as u64 / 8
        ));
        // With a budget tighter than capacity, the budget error wins.
        let caps = RowCaps::new(100, 8, 0, Some(10_000));
        assert!(caps.max_rows() < u32::MAX as u64 / 8);
        assert!(matches!(
            caps.error_at(caps.max_rows()),
            StoreError::BudgetExceeded { budget: 10_000, .. }
        ));
    }

    #[test]
    fn zero_budget_refuses_everything_nonempty() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let alive = VertexSet::full(3);
        assert!(matches!(
            InstanceStore::cliques(&g, 3, &alive, 1, Some(0)),
            Err(StoreError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn base_offsets_allocation_is_budgeted_even_without_instances() {
        // A large instance-free graph: the per-vertex offsets column alone
        // (4·(n+1) bytes) must not blow past the budget just because no
        // row ever trips the per-row cap.
        let g = Graph::empty(10_000);
        let alive = VertexSet::full(10_000);
        let err = InstanceStore::cliques(&g, 3, &alive, 1, Some(1_000)).unwrap_err();
        assert!(matches!(
            err,
            StoreError::BudgetExceeded { bytes, budget: 1_000 } if bytes >= 4 * 10_001
        ));
        assert!(matches!(
            InstanceStore::pattern(&g, &Pattern::two_star(), &alive, 1, Some(1_000)),
            Err(StoreError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn empty_graph_builds_empty_store() {
        let g = Graph::empty(5);
        let (store, stats) =
            InstanceStore::cliques(&g, 3, &VertexSet::full(5), 2, Some(1 << 20)).unwrap();
        assert_eq!(store.rows(), 0);
        assert_eq!(store.total_instances(), 0);
        assert_eq!(stats.memberships, 0);
        assert!(store.bytes() >= 4 * 6, "offsets still resident");
    }

    fn edges_of(g: &Graph) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for u in 0..g.num_vertices() as VertexId {
            for &v in g.neighbors(u) {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    fn with_batch(
        g: &Graph,
        inserted: &[(VertexId, VertexId)],
        removed: &[(VertexId, VertexId)],
    ) -> Graph {
        let mut set: std::collections::BTreeSet<(VertexId, VertexId)> =
            edges_of(g).into_iter().collect();
        for e in removed {
            assert!(set.remove(e), "removed edge {e:?} must exist");
        }
        for &e in inserted {
            assert!(set.insert(e), "inserted edge {e:?} must be absent");
        }
        Graph::from_edges(g.num_vertices(), &set.into_iter().collect::<Vec<_>>())
    }

    type EdgeList = Vec<(VertexId, VertexId)>;

    /// Deterministic mixed batch: every 5th existing edge is removed and
    /// a handful of absent edges are inserted.
    fn mixed_batch(g: &Graph) -> (EdgeList, EdgeList) {
        let removed: Vec<_> = edges_of(g).into_iter().step_by(5).collect();
        let mut inserted = Vec::new();
        let n = g.num_vertices() as VertexId;
        'outer: for u in 0..n {
            for v in (u + 1)..n {
                if !g.has_edge(u, v) {
                    inserted.push((u, v));
                    if inserted.len() == 8 {
                        break 'outer;
                    }
                }
            }
        }
        (inserted, removed)
    }

    #[test]
    fn clique_repair_matches_rebuild() {
        for (seed, n, per_mille) in [(11, 60, 120), (29, 40, 250), (43, 80, 80)] {
            let g = random_graph(seed, n, per_mille);
            let alive = VertexSet::full(n);
            let (inserted, removed) = mixed_batch(&g);
            let g_new = with_batch(&g, &inserted, &removed);
            for h in 2..=4 {
                let (mut store, _) = InstanceStore::cliques(&g, h, &alive, 1, None).unwrap();
                let stats = store
                    .repair_cliques(&g_new, &inserted, &removed, &alive, None)
                    .unwrap();
                let (rebuilt, _) = InstanceStore::cliques(&g_new, h, &alive, 1, None).unwrap();
                assert_eq!(
                    store.total_instances(),
                    rebuilt.total_instances(),
                    "seed {seed}, h = {h}"
                );
                assert_eq!(store.degrees_within(&alive), rebuilt.degrees_within(&alive));
                assert_eq!(store.count_within(&alive), rebuilt.count_within(&alive));
                assert_eq!(store.live_rows(), rebuilt.rows());
                if stats.compacted {
                    assert_eq!(store.tombstoned_rows(), 0);
                }
            }
        }
    }

    #[test]
    fn pattern_repair_matches_rebuild() {
        let g = random_graph(23, 32, 300);
        let alive = VertexSet::full(32);
        let (inserted, removed) = mixed_batch(&g);
        let g_new = with_batch(&g, &inserted, &removed);
        let g_mid = with_batch(&g, &[], &removed);
        for psi in [
            Pattern::two_star(),
            Pattern::diamond(),
            Pattern::two_triangle(),
            Pattern::c3_star(),
        ] {
            let (mut store, _) = InstanceStore::pattern(&g, &psi, &alive, 1, None).unwrap();
            store
                .repair_pattern(&g_new, &g_mid, &psi, &inserted, &removed, &alive, None)
                .unwrap();
            let (rebuilt, _) = InstanceStore::pattern(&g_new, &psi, &alive, 1, None).unwrap();
            assert_eq!(
                store.total_instances(),
                rebuilt.total_instances(),
                "{}",
                psi.name()
            );
            assert_eq!(
                store.degrees_within(&alive),
                rebuilt.degrees_within(&alive),
                "{}",
                psi.name()
            );
        }
    }

    #[test]
    fn pattern_repair_reweights_and_revives_grouped_rows() {
        // K4 holds one diamond row of weight 3; dropping an edge leaves
        // exactly one diamond on the same vertex set (recount, not
        // tombstone); re-inserting it restores weight 3 by merging the 2
        // new instances into the surviving row.
        let mut b = GraphBuilder::new(4);
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                b.add_edge(u, v);
            }
        }
        let k4 = b.build();
        let alive = VertexSet::full(4);
        let psi = Pattern::diamond();
        let (mut store, _) = InstanceStore::pattern(&k4, &psi, &alive, 1, None).unwrap();
        let g_del = with_batch(&k4, &[], &[(0, 1)]);
        store
            .repair_pattern(&g_del, &g_del, &psi, &[], &[(0, 1)], &alive, None)
            .unwrap();
        assert_eq!(store.total_instances(), 1, "K4 minus an edge is a diamond");
        assert_eq!(store.live_rows(), 1);
        store
            .repair_pattern(&k4, &g_del, &psi, &[(0, 1)], &[], &alive, None)
            .unwrap();
        assert_eq!(store.total_instances(), 3);
        assert_eq!(store.live_rows(), 1, "merged back into the grouped row");
        assert_eq!(store.weight(0), 3);
    }

    #[test]
    fn repair_can_tombstone_every_row_then_compacts() {
        // K4 has 4 triangles; removing the disjoint edges {0,1} and {2,3}
        // kills all of them, pushing the dead fraction to 1 > 1/4.
        let mut b = GraphBuilder::new(4);
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                b.add_edge(u, v);
            }
        }
        let k4 = b.build();
        let alive = VertexSet::full(4);
        let (mut store, _) = InstanceStore::cliques(&k4, 3, &alive, 1, None).unwrap();
        assert_eq!(store.rows(), 4);
        let removed = [(0, 1), (2, 3)];
        let g_new = with_batch(&k4, &[], &removed);
        let stats = store
            .repair_cliques(&g_new, &[], &removed, &alive, None)
            .unwrap();
        assert_eq!(stats.rows_tombstoned, 4);
        assert!(stats.compacted);
        assert_eq!(store.rows(), 0);
        assert_eq!(store.live_rows(), 0);
        assert_eq!(store.total_instances(), 0);
        assert_eq!(store.degrees_within(&alive), vec![0; 4]);
        let (rebuilt, _) = InstanceStore::cliques(&g_new, 3, &alive, 1, None).unwrap();
        assert_eq!(rebuilt.rows(), 0);
    }

    #[test]
    fn pure_deletion_repair_keeps_csr_and_queries_skip_dead() {
        let g = random_graph(7, 60, 150);
        let alive = VertexSet::full(60);
        let (mut store, _) = InstanceStore::cliques(&g, 3, &alive, 1, None).unwrap();
        let rows_before = store.rows();
        let removed = [edges_of(&g)[0]];
        let g_new = with_batch(&g, &[], &removed);
        let stats = store
            .repair_cliques(&g_new, &[], &removed, &alive, None)
            .unwrap();
        if !stats.compacted {
            assert_eq!(store.rows(), rows_before, "tombstones carried, not cut");
            assert_eq!(store.tombstoned_rows(), stats.rows_tombstoned);
        }
        let (rebuilt, _) = InstanceStore::cliques(&g_new, 3, &alive, 1, None).unwrap();
        assert_eq!(store.total_instances(), rebuilt.total_instances());
        assert_eq!(store.degrees_within(&alive), rebuilt.degrees_within(&alive));
        // Tombstoned rows are still indexed but never live.
        for row in 0..store.rows() {
            if store.row_tombstoned(row) {
                assert!(!store.row_live(row, &alive));
            }
        }
    }

    #[test]
    fn repair_growth_past_budget_is_typed() {
        // An instance-free store under a budget with room for 5 rows;
        // inserting a K10 creates 120 triangles and must refuse, typed.
        let n = 50;
        let budget = 4 * (n as u64 + 1) + 5 * (8 * 3 + 4);
        let g = Graph::empty(n);
        let alive = VertexSet::full(n);
        let (mut store, _) = InstanceStore::cliques(&g, 3, &alive, 1, Some(budget)).unwrap();
        let mut inserted = Vec::new();
        for u in 0..10u32 {
            for v in (u + 1)..10 {
                inserted.push((u, v));
            }
        }
        let g_new = with_batch(&g, &inserted, &[]);
        let err = store
            .repair_cliques(&g_new, &inserted, &[], &alive, Some(budget))
            .unwrap_err();
        assert!(matches!(err, StoreError::BudgetExceeded { .. }));
        // The same repair under no budget succeeds and matches a rebuild.
        let (mut unbudgeted, _) = InstanceStore::cliques(&g, 3, &alive, 1, None).unwrap();
        unbudgeted
            .repair_cliques(&g_new, &inserted, &[], &alive, None)
            .unwrap();
        assert_eq!(unbudgeted.total_instances(), 120);
    }
}
