//! `dsd_core::serve`: the serving runtime.
//!
//! [`DsdServer`] is the one way to serve many named graphs from one
//! process: it keeps a catalog of live graphs, each behind its own
//! [`crate::DsdEngine`] with warm substrate caches, and runs queries and
//! updates against them through per-graph admission queues and a worker
//! pool. It is built to run *indefinitely* under mixed traffic, which
//! rules out two failure modes of a bare catalog:
//!
//! 1. **Unbounded memory.** Engine caches are grow-only between updates:
//!    every (graph, Ψ) pair a workload ever touches stays resident. The
//!    substrate governor puts one LRU byte budget over all engines —
//!    substrates are treated as the factorised materialized views they
//!    are (expensive to build, cheap to share, first to evict under
//!    pressure), and `Arc` reference counting makes eviction safe for
//!    requests already holding the substrate. After every job the
//!    pipeline settles the governor: it folds the bytes each engine's
//!    current epoch holds and evicts the least-recently-used unpinned
//!    (graph, Ψ) keys while the total is over budget
//!    ([`ServeStats::governor`] reports it). Engines never call out to
//!    the serving layer.
//! 2. **Unbounded latency.** One hot graph's update must not stall every
//!    other graph, and a backlog must not grow without bound. The
//!    pipeline gives each graph its own bounded FIFO (updates barrier
//!    only their own graph), sheds load typed
//!    ([`ServeError::Overloaded`]) instead of queueing without bound, and
//!    enforces per-request deadlines through the α-search step-budget
//!    knob.
//!
//! Substrate work is shared across requests by the engines' build-once
//! caches: concurrent requests for one (graph, Ψ) pay one decomposition
//! build between them. Answers are bit-identical to serial execution for
//! every pinned method; [`crate::Method::Auto`] resolves against the cache
//! state it observes, so pin a method when runs must reproduce bit for
//! bit.
//!
//! ```
//! use dsd_core::serve::{DsdServer, ServeConfig, ServeOutcome};
//! use dsd_core::DsdRequest;
//! use dsd_graph::Graph;
//! use dsd_motif::Pattern;
//!
//! let server = DsdServer::new(ServeConfig {
//!     workers: 2,
//!     queue_depth: 16,
//!     substrate_budget: Some(64 << 20),
//!     ..ServeConfig::default()
//! });
//! let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
//! server.register("toy", g);
//!
//! let ticket = server.submit(DsdRequest::new(&Pattern::triangle()).on("toy")).unwrap();
//! match ticket.wait().unwrap() {
//!     ServeOutcome::Solved(s) => assert_eq!(s.vertices, vec![0, 1, 2, 3]),
//!     ServeOutcome::Updated(_) => unreachable!(),
//! }
//! server.drain();
//! ```

mod governor;
mod pipeline;

pub use governor::GovernorStats;
pub use pipeline::{DsdServer, ServeConfig, ServeError, ServeOutcome, ServeStats, Ticket};
