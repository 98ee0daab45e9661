//! Bench: store-backed vs streaming (k, Ψ)-core decomposition — the
//! ISSUE-5 acceptance benchmark, on the fig9 h-clique workload (full
//! Algorithm-3 decompositions of the As-Caida stand-in, h ∈ {3, 4}),
//! extended with sharded-build ablations.
//!
//! Both runs drive the *same* shared bucket-queue peel loop; the only
//! difference is the decrement engine. The streaming baseline pays
//! kClist re-enumeration inside every `removal_decrements` call (the
//! pre-substrate behaviour); the materialized run enumerates once into
//! the columnar `InstanceStore` and then peels with O(memberships
//! touched) alive-count bookkeeping — its measured time **includes** the
//! store build, so the comparison is end-to-end.
//!
//! Per-piece ablations (reported, and bit-identity asserted against the
//! default path):
//!
//! * serial store build — isolating the sharded-build win;
//! * 1 vs 4 threads on a general-pattern store build, isolating the
//!   parallel pattern enumeration win.
//!
//! A diamond arm times the 4-cycle store on the same As-Caida stand-in —
//! walk, build and peel — against the closed-form `DiamondOracle` peel,
//! and checks on a 4-cycle-rich G(n, p) that the cost rule refuses the
//! store and the seeded closed form it falls back to decomposes the same.
//!
//! Core numbers, kmax, peel order, and ρ′ must be bit-identical across
//! every configuration, and the default store paths must hold the floors
//! below against streaming.
//!
//! Run with: `cargo bench -p dsd-bench --bench substrate_peel`

use std::time::{Duration, Instant};

use dsd_core::oracle::{
    CliqueOracle, DiamondOracle, GenericPatternOracle, MaterializedOracle, StoreFallback,
};
use dsd_core::{decompose, CliqueCoreDecomposition, DensityOracle, Parallelism};
use dsd_datasets::{dataset, er::er};
use dsd_graph::Graph;
use dsd_motif::Pattern;

fn check_identical(a: &CliqueCoreDecomposition, b: &CliqueCoreDecomposition, ctx: &str) {
    assert_eq!(a.core, b.core, "{ctx}: core numbers diverged");
    assert_eq!(a.kmax, b.kmax, "{ctx}: kmax diverged");
    assert_eq!(a.peel_order, b.peel_order, "{ctx}: peel order diverged");
    assert_eq!(
        a.best_density.to_bits(),
        b.best_density.to_bits(),
        "{ctx}: rho' diverged"
    );
}

fn main() {
    let g = dataset("As-Caida").expect("registry dataset").generate();
    println!(
        "fig9 h-clique workload: As-Caida stand-in, n={} m={}",
        g.num_vertices(),
        g.num_edges()
    );

    let mut total_streaming = Duration::ZERO;
    let mut total_store = Duration::ZERO;
    for h in [3usize, 4] {
        let psi = Pattern::clique(h);

        // Best-of-3 per path keeps the CI assertion off scheduler noise.
        const REPEATS: usize = 3;

        // Streaming baseline: every removal re-enumerates the cliques
        // through the peeled vertex.
        let streaming_oracle = CliqueOracle::new(h);
        let mut streaming = Duration::MAX;
        let mut streaming_dec = None;
        for _ in 0..REPEATS {
            let t = Instant::now();
            let dec = decompose(&g, &streaming_oracle);
            streaming = streaming.min(t.elapsed());
            streaming_dec = Some(dec);
        }
        let streaming_dec = streaming_dec.unwrap();

        // Materialized: one sharded enumeration pass (4 workers) into the
        // columnar store, then an O(memberships) peel. A fresh
        // oracle per repeat, so the measured time always includes the
        // store build — end to end.
        let mut store = Duration::MAX;
        let mut store_outcome = None;
        for _ in 0..REPEATS {
            let store_oracle = MaterializedOracle::with_policy(&psi, Parallelism::new(4), None);
            let t = Instant::now();
            let dec = decompose(&g, &store_oracle);
            store = store.min(t.elapsed());
            store_outcome = Some((dec, store_oracle.store_stats().expect("store was built")));
        }
        let (store_dec, stats) = store_outcome.unwrap();

        // Serial-build ablation (reported, not asserted on time).
        let serial_oracle = MaterializedOracle::with_policy(&psi, Parallelism::serial(), None);
        let t = Instant::now();
        let serial_dec = decompose(&g, &serial_oracle);
        let serial_store = t.elapsed();
        check_identical(&serial_dec, &store_dec, &format!("h = {h}, serial build"));

        check_identical(&streaming_dec, &store_dec, &format!("h = {h}"));
        assert!(stats.materialized, "h = {h}: store must materialize");

        println!(
            "h={h}: kmax={}, {} instances in {} rows ({:.1} KiB, built {:.1} ms)",
            store_dec.kmax,
            stats.build.instances,
            stats.build.rows,
            stats.build.bytes as f64 / 1024.0,
            stats.build.build_nanos as f64 / 1e6,
        );
        println!(
            "  build phases: out-CSR {:.2} ms, enumerate {:.2} ms, assemble {:.2} ms",
            stats.build.csr_build_nanos as f64 / 1e6,
            stats.build.enumerate_nanos as f64 / 1e6,
            stats.build.assemble_nanos as f64 / 1e6,
        );
        println!(
            "  streaming peel:            {:>9.1} ms",
            streaming.as_secs_f64() * 1e3
        );
        println!(
            "  store peel (4 shards):     {:>9.1} ms ({:.2}x)",
            store.as_secs_f64() * 1e3,
            streaming.as_secs_f64() / store.as_secs_f64()
        );
        println!(
            "  store peel (serial build): {:>9.1} ms ({:.2}x)",
            serial_store.as_secs_f64() * 1e3,
            streaming.as_secs_f64() / serial_store.as_secs_f64()
        );
        total_streaming += streaming;
        total_store += store;
    }

    // General-pattern parallel-build ablation: a c3-star decomposition
    // whose store build is the dominant cost, 1 thread vs 4 (the oracle
    // forwards its `Parallelism` into `InstanceStore::pattern`). Best of 3
    // per path, like the clique arms.
    let pg = dataset("As-733").expect("registry dataset").generate();
    let psi = Pattern::c3_star();
    println!(
        "\ngeneral-pattern workload: As-733 stand-in, n={} m={}, psi={}",
        pg.num_vertices(),
        pg.num_edges(),
        psi.name()
    );
    const PATTERN_REPEATS: usize = 3;
    let stream_psi = GenericPatternOracle::new(&psi);
    let mut pattern_streaming = Duration::MAX;
    let mut stream_pattern_dec = None;
    for _ in 0..PATTERN_REPEATS {
        let t = Instant::now();
        stream_pattern_dec = Some(decompose(&pg, &stream_psi));
        pattern_streaming = pattern_streaming.min(t.elapsed());
    }
    let stream_pattern_dec = stream_pattern_dec.unwrap();
    let mut pattern_times = Vec::new();
    let mut pattern_ref: Option<CliqueCoreDecomposition> = None;
    for threads in [1usize, 4] {
        let mut elapsed = Duration::MAX;
        let mut outcome = None;
        for _ in 0..PATTERN_REPEATS {
            let oracle = MaterializedOracle::with_policy(&psi, Parallelism::new(threads), None);
            let t = Instant::now();
            let dec = decompose(&pg, &oracle);
            elapsed = elapsed.min(t.elapsed());
            outcome = Some((dec, oracle.store_stats().expect("pattern store was built")));
        }
        let (dec, stats) = outcome.unwrap();
        assert!(stats.materialized, "pattern store must materialize");
        match &pattern_ref {
            None => {
                check_identical(&dec, &stream_pattern_dec, "c3-star store vs streaming");
                pattern_ref = Some(dec);
            }
            Some(reference) => {
                check_identical(&dec, reference, &format!("c3-star, {threads} threads"))
            }
        }
        println!(
            "  store peel ({threads} thread{}):   {:>9.1} ms ({:.2}x vs streaming; enumerate {:.2} ms)",
            if threads == 1 { "" } else { "s" },
            elapsed.as_secs_f64() * 1e3,
            pattern_streaming.as_secs_f64() / elapsed.as_secs_f64(),
            stats.build.enumerate_nanos as f64 / 1e6,
        );
        pattern_times.push(elapsed);
    }
    println!(
        "  streaming peel:         {:>9.1} ms; 4-thread enumeration {:.2}x vs serial",
        pattern_streaming.as_secs_f64() * 1e3,
        pattern_times[0].as_secs_f64() / pattern_times[1].as_secs_f64(),
    );
    // Symmetry-broken anchored enumeration made the streaming baseline
    // itself ~165x faster (9.3 s to 45–60 ms): each instance is now found
    // once, when its first member is peeled, so a one-shot streaming peel
    // costs about one enumeration pass. The store's build — enumerate plus
    // row grouping — is then about as expensive as the whole streaming
    // peel; it earns its keep across repeat queries and flow networks,
    // not here. Measured 0.99–1.02x in two runs on two cores; the floor
    // keeps the store path within 2x of streaming.
    let pattern_speedup = pattern_streaming.as_secs_f64() / pattern_times[1].as_secs_f64();
    assert!(
        pattern_speedup >= 0.5,
        "materialized c3-star decomposition must stay within 2x of \
         streaming (measured {pattern_speedup:.2}x)"
    );

    // The h-clique aggregate is build-dominated once the peel is
    // store-backed, so the floor tracks the single-core build speed (the
    // sharded build only helps on multi-core runners and CI floors must
    // hold on one core). The streaming baseline peels only Ψ-incident
    // vertices, which cut it to 15–40 ms a pass, about one store build.
    // Measured 1.02–2.70x over 23 runs on two cores (median 1.49x; h = 4
    // alone read 0.76–2.03x); armed at 0.75x, a quarter under the lowest
    // run.
    let speedup = total_streaming.as_secs_f64() / total_store.as_secs_f64();
    println!("\naggregate speedup: {speedup:.2}x (acceptance floor: 0.75x)");
    assert!(
        speedup >= 0.75,
        "materialized decomposition must stay within 4/3 of streaming \
         re-enumeration (measured {speedup:.2}x)"
    );

    diamond_arm(&g);
}

/// Best-of-3 decomposition time of `g` through a fresh oracle per repeat
/// (so a store build is always timed), with the last run's decomposition
/// and oracle.
fn best_of_3<O: DensityOracle>(
    g: &Graph,
    oracle: impl Fn() -> O,
) -> (Duration, CliqueCoreDecomposition, O) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..3 {
        let oracle = oracle();
        let t = Instant::now();
        let dec = decompose(g, &oracle);
        best = best.min(t.elapsed());
        last = Some((dec, oracle));
    }
    let (dec, oracle) = last.expect("three runs");
    (best, dec, oracle)
}

/// The diamond arm: the 4-cycle store — the rank-ordered walk that lists
/// it, its build and the columnar peel — against the closed-form peel on
/// the As-Caida stand-in, where the cost rule keeps the store; then a
/// 4-cycle-rich G(n, p), where the rule refuses it.
fn diamond_arm(g: &Graph) {
    let psi = Pattern::diamond();
    let store_oracle = || MaterializedOracle::with_policy(&psi, Parallelism::new(4), None);
    let (closed, closed_dec, _) = best_of_3(g, || DiamondOracle);
    let (store, store_dec, oracle) = best_of_3(g, store_oracle);
    check_identical(&closed_dec, &store_dec, "diamond store vs closed form");
    let stats = oracle.store_stats().expect("the diamond store was tried");
    assert!(stats.materialized, "the cost rule keeps the As-Caida store");
    let speedup = closed.as_secs_f64() / store.as_secs_f64();
    println!(
        "\ndiamond: {} cycles in {} rows ({:.1} KiB, built {:.1} ms: rank lists \
         {:.2} ms, enumerate {:.2} ms, assemble {:.2} ms)",
        stats.build.instances,
        stats.build.rows,
        stats.build.bytes as f64 / 1024.0,
        stats.build.build_nanos as f64 / 1e6,
        stats.build.csr_build_nanos as f64 / 1e6,
        stats.build.enumerate_nanos as f64 / 1e6,
        stats.build.assemble_nanos as f64 / 1e6,
    );
    println!(
        "  closed-form peel: {:>9.1} ms\n  store peel:       {:>9.1} ms ({speedup:.2}x)",
        closed.as_secs_f64() * 1e3,
        store.as_secs_f64() * 1e3,
    );

    // Past the cost rule: the store is refused and the closed form,
    // seeded with the walk's degrees, decomposes bit-identically.
    let rich = er(800, 0.05, 7);
    let (_, closed_dec, _) = best_of_3(&rich, || DiamondOracle);
    let (fallback, fallback_dec, oracle) = best_of_3(&rich, store_oracle);
    check_identical(
        &closed_dec,
        &fallback_dec,
        "diamond fallback vs closed form",
    );
    let stats = oracle.store_stats().expect("the diamond store was tried");
    assert_eq!(stats.fallback, Some(StoreFallback::Cost), "G(800, 0.05)");
    println!(
        "  G(800, 0.05): store refused by the cost rule, seeded closed form {:.1} ms",
        fallback.as_secs_f64() * 1e3
    );

    // Measured 1.49–2.27x over 11 runs on two cores (median 1.59x); armed
    // at 1.1x, a quarter under the lowest run (1.12x) rounded down.
    assert!(
        speedup >= 1.1,
        "the diamond store must hold its 1.1x floor against the closed form \
         (measured {speedup:.2}x)"
    );
}
