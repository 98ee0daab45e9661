//! `Parallelism`: the one worker-count knob shared by everything that
//! spawns threads.
//!
//! Before this type existed, every parallel entry point grew its own
//! ad-hoc `threads: usize` argument (oracles, bench drivers), so the CLI,
//! the benches, and a batch executor could silently disagree about how
//! many workers a process runs. `Parallelism` is that number, validated
//! once: construct it at the edge (CLI flag, engine config), pass it down
//! to the oracles ([`crate::oracle::CliqueOracle::with_parallelism`],
//! [`crate::oracle::MaterializedOracle::with_policy`]), which shard their
//! enumeration passes across it.

/// Worker-count configuration for parallel substrate passes (instance-store
/// builds, h-clique degree passes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// Exactly one worker: every code path is deterministic and
    /// allocation-free of threads. This is the default everywhere.
    pub const fn serial() -> Self {
        Parallelism { threads: 1 }
    }

    /// `threads` workers; 0 is clamped to 1.
    pub const fn new(threads: usize) -> Self {
        Parallelism {
            threads: if threads == 0 { 1 } else { threads },
        }
    }

    /// One worker per hardware thread the OS reports (1 when the query
    /// fails).
    pub fn available() -> Self {
        Parallelism::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The worker count (always ≥ 1).
    pub const fn threads(self) -> usize {
        self.threads
    }

    /// Whether this configuration runs on the caller's thread only.
    pub const fn is_serial(self) -> bool {
        self.threads == 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_and_reports() {
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert_eq!(Parallelism::new(8).threads(), 8);
        assert!(Parallelism::serial().is_serial());
        assert!(!Parallelism::new(2).is_serial());
        assert_eq!(Parallelism::default(), Parallelism::serial());
        assert!(Parallelism::available().threads() >= 1);
    }
}
