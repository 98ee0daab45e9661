//! Helpers of the densest-subgraph engine benchmark: summary statistics and
//! the in-memory span recorder. The workloads live in the `perfbench`
//! binary; run it as `cargo run --release --manifest-path perfbench/Cargo.toml
//! -- --workload <name> --seed <n> --seconds <s> --trace <0|1>`.

pub mod stats;
pub mod trace;
