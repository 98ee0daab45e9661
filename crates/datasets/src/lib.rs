//! `dsd-datasets`: graph generators, paper-figure fixtures, and the
//! synthetic dataset registry.
//!
//! The paper evaluates on ten real graphs (DIP/SNAP/LAW downloads) and
//! three GTgraph synthetic models. Neither the downloads nor GTgraph are
//! available offline, so this crate rebuilds the *distribution families*
//! the evaluation depends on (see `DESIGN.md` §3 for the substitution
//! argument):
//!
//! * [`er`] — Erdős–Rényi G(n, p) (GTgraph "Random");
//! * [`rmat`] — recursive-matrix power-law graphs (GTgraph "R-MAT");
//! * [`ssca`] — planted random-size cliques (GTgraph "SSCA#2");
//! * [`chung_lu`] — power-law degree sequences with a target edge count,
//!   used as stand-ins for the real graphs via their Appendix-A statistics;
//! * [`multi_community()`] — one planted dense cluster per block with a
//!   skewed density profile across blocks;
//! * [`planted`] — dense-subgraph planting plus the case-study generators
//!   (collaboration network for Figure 17, PPI-like motif graph for
//!   Figure 21);
//! * [`fixtures`] — the exact small graphs of Figures 1(a), 2(a), 3, 5 and
//!   6(a) with their hand-checkable answers;
//! * [`registry`] — the thirteen evaluation datasets as named, seeded,
//!   scale-annotated synthetic configurations;
//! * [`stats`] — the Appendix-A statistics table (Figure 18) recomputed on
//!   our stand-ins.
//!
//! Every generator is deterministic given its seed.

pub mod chung_lu;
pub mod er;
pub mod fixtures;
pub mod multi_community;
pub mod planted;
pub mod registry;
pub mod rmat;
pub mod ssca;
pub mod stats;

pub use multi_community::{multi_community, MultiCommunity};
pub use registry::{all_datasets, dataset, Dataset, DatasetKind};
pub use stats::{compute_stats, GraphStats};
