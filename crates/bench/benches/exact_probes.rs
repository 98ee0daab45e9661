//! Bench: parametric resolve vs from-scratch probe sequences — the
//! ISSUE-4 acceptance benchmark, on the fig9 workload (exact α-searches
//! over Figure 9's whole-graph reference networks on the Ca-HepTh
//! stand-in, h ∈ {2, 3, 4}).
//!
//! Both runs drive the *same* shared `alpha_search` loop over the same
//! network construction; the only difference is `set_warm_start`: the
//! parametric run checkpoint/resolves its flow state across probes, the
//! baseline pays a from-scratch max-flow per probe. Answers and probe
//! schedules must be identical, and each search must close within
//! `PROBE_CEILING` probes: the witness-jump search certifies the optimum
//! in 4–5 probes on this workload, where bisecting to Lemma 12's gap took
//! 35–38. The parametric-vs-scratch ratio is printed for the ablation; it
//! sits near 1× now, because only the probes after the first feasible one
//! can resolve warm and a 4–5-probe search has one or two of them.
//!
//! (CoreExact itself is not the probe driver here because on the
//! planted-clique stand-ins its ρ′ lower bound converges the search in
//! one probe — there is no sequence left to amortize. The whole-graph
//! networks are exactly where the paper's "re-solved per guess" cost
//! lived.)
//!
//! A second phase measures the ISSUE-10 factorised warm-network path:
//! repeat exact solves on a warm `DsdEngine` take their density network
//! out of the epoch-keyed network cache — zero instance enumeration,
//! zero network construction, warm parametric resolves only — and must
//! be bit-identical to a from-scratch engine while beating it ≥ 3× in
//! aggregate (CI-asserted).
//!
//! Run with: `cargo bench -p dsd-bench --bench exact_probes`

use std::time::{Duration, Instant};

use dsd_core::flownet::{build_clique_network, build_edge_network, DensityNetwork};
use dsd_core::{
    alpha_search, density_gap, oracle_for, DensityOracle, DsdEngine, ExactStats, FirstProbe,
    Method, NetworkProbe,
};
use dsd_datasets::dataset;
use dsd_graph::{Graph, VertexId, VertexSet};
use dsd_motif::Pattern;

/// Probe ceiling per exact search (any h): the measured
/// 4–5 probes plus one of headroom.
const PROBE_CEILING: usize = 6;

/// Runs one full α-search probe sequence (Exact's schedule: first probe
/// at the midpoint); reports (witness, stats, time).
fn run_search(
    net: &mut DensityNetwork,
    g: &Graph,
    oracle: &dyn DensityOracle,
    bounds: (f64, f64),
    gap: f64,
) -> (Vec<VertexId>, ExactStats, Duration) {
    let mut stats = ExactStats::default();
    let t = Instant::now();
    let outcome = alpha_search(
        &mut NetworkProbe::new(net, g, oracle),
        bounds,
        FirstProbe::Midpoint,
        gap,
        usize::MAX,
        &mut stats,
    );
    let elapsed = t.elapsed();
    let mut witness = outcome.witness.unwrap_or_default();
    witness.sort_unstable();
    stats.absorb_flow(net.probe_stats());
    (witness, stats, elapsed)
}

/// The Figure-9 "iter −1" network for h over the whole graph, plus the
/// Exact α bounds (0, max Ψ-degree).
fn workload(g: &Graph, h: usize) -> (DensityNetwork, (f64, f64)) {
    let members: Vec<VertexId> = g.vertices().collect();
    let psi = Pattern::clique(h);
    let oracle = oracle_for(&psi);
    let alive = VertexSet::full(g.num_vertices());
    let max_deg = oracle.degrees(g, &alive).into_iter().max().unwrap_or(0);
    let net = if h == 2 {
        build_edge_network(g, &members)
    } else {
        build_clique_network(g, &members, h)
    };
    (net, (0.0, max_deg as f64))
}

fn main() {
    let g = dataset("Ca-HepTh").expect("registry dataset").generate();
    println!(
        "fig9 workload: Ca-HepTh stand-in, n={} m={}",
        g.num_vertices(),
        g.num_edges()
    );

    let mut search_scratch = Duration::ZERO;
    let mut search_parametric = Duration::ZERO;
    for h in [2usize, 3, 4] {
        let gap = density_gap(g.num_vertices());
        let oracle = oracle_for(&Pattern::clique(h));
        let (mut warm_net, bounds) = workload(&g, h);
        let (mut cold_net, _) = workload(&g, h);
        cold_net.set_warm_start(false);

        let (w_wit, w_stats, warm) = run_search(&mut warm_net, &g, oracle.as_ref(), bounds, gap);
        let (c_wit, c_stats, cold) = run_search(&mut cold_net, &g, oracle.as_ref(), bounds, gap);

        assert_eq!(w_wit, c_wit, "h={h}: answers diverged");
        assert_eq!(
            w_stats.iterations, c_stats.iterations,
            "h={h}: probe schedules diverged"
        );
        assert_eq!(c_stats.resolve_hits, 0, "baseline must be from-scratch");
        assert!(
            w_stats.resolve_hits > 0,
            "h={h}: parametric run never reused flow state"
        );
        assert!(
            w_stats.iterations <= PROBE_CEILING,
            "h={h}: {} probes exceed the {PROBE_CEILING}-probe ceiling",
            w_stats.iterations
        );

        let speedup = cold.as_secs_f64() / warm.as_secs_f64();
        println!(
            "h={h}: {} probes, {} warm resolves | scratch {:>8.2} ms, \
             parametric {:>8.2} ms, speedup {speedup:.2}x (augment work {} vs {})",
            w_stats.iterations,
            w_stats.resolve_hits,
            cold.as_secs_f64() * 1e3,
            warm.as_secs_f64() * 1e3,
            c_stats.augment_work,
            w_stats.augment_work,
        );
        search_scratch += cold;
        search_parametric += warm;
    }
    let aggregate = search_scratch.as_secs_f64() / search_parametric.as_secs_f64();
    println!(
        "aggregate (h=2..4): scratch {:.2} ms vs parametric {:.2} ms — {aggregate:.2}x",
        search_scratch.as_secs_f64() * 1e3,
        search_parametric.as_secs_f64() * 1e3,
    );

    // ── Phase 2: factorised warm-network engine phase (ISSUE 10) ──────
    //
    // A from-scratch engine pays instance enumeration, the (k, Ψ)-core
    // decomposition, and network construction on every exact solve. A
    // warm engine pays them once: the repeat solve takes its component
    // DensityNetworks out of the epoch-keyed cache (factorised straight
    // from InstanceStore columns on the miss) and only resolves flow.
    // CoreExact is the probe here because on the planted-clique
    // stand-ins its ρ′ bound converges the search in about one probe —
    // construct+resolve cost is exactly what the floor measures.
    println!();
    println!("factorised warm-network phase: repeat engine solves vs from-scratch");
    let mut scratch_total = Duration::ZERO;
    let mut warm_total = Duration::ZERO;
    for h in [2usize, 3, 4] {
        let psi = Pattern::clique(h);

        // From-scratch baseline: fresh engine, full pipeline.
        let t = Instant::now();
        let scratch_engine = DsdEngine::new(g.clone());
        let scratch = scratch_engine
            .request(&psi)
            .method(Method::CoreExact)
            .solve();
        let scratch_time = t.elapsed();

        // Warm engine: first solve populates the store + network caches.
        let engine = DsdEngine::new(g.clone());
        let first = engine.request(&psi).method(Method::CoreExact).solve();
        let after_first = engine.cache_stats();
        assert!(
            after_first.network_misses >= 1,
            "h={h}: first solve never registered a network-cache miss"
        );

        let t = Instant::now();
        let repeat = engine.request(&psi).method(Method::CoreExact).solve();
        let warm_time = t.elapsed();
        let after_repeat = engine.cache_stats();

        // Zero re-enumeration: the instance store was built exactly once
        // across both solves, and the repeat solve took its network out
        // of the cache instead of rebuilding it.
        assert_eq!(
            after_repeat.oracle_builds, 1,
            "h={h}: repeat solve re-enumerated instances"
        );
        assert!(
            after_repeat.network_hits > after_first.network_hits,
            "h={h}: repeat solve rebuilt its density network"
        );

        // Bit-identity across scratch, cold and warm paths.
        assert_eq!(first.vertices, scratch.vertices, "h={h}: cold diverged");
        assert_eq!(
            first.density.to_bits(),
            scratch.density.to_bits(),
            "h={h}: cold density diverged"
        );
        assert_eq!(repeat.vertices, first.vertices, "h={h}: warm diverged");
        assert_eq!(
            repeat.density.to_bits(),
            first.density.to_bits(),
            "h={h}: warm density diverged"
        );

        let speedup = scratch_time.as_secs_f64() / warm_time.as_secs_f64();
        println!(
            "h={h}: scratch {:>8.2} ms, warm repeat {:>8.2} ms, speedup {speedup:.2}x \
             ({} network hits, {:.1} KiB cached)",
            scratch_time.as_secs_f64() * 1e3,
            warm_time.as_secs_f64() * 1e3,
            after_repeat.network_hits,
            engine.network_bytes() as f64 / 1024.0,
        );
        scratch_total += scratch_time;
        warm_total += warm_time;
    }
    let warm_aggregate = scratch_total.as_secs_f64() / warm_total.as_secs_f64();
    println!(
        "aggregate (h=2..4): scratch {:.2} ms vs warm {:.2} ms — {warm_aggregate:.2}x \
         (acceptance floor: 3x)",
        scratch_total.as_secs_f64() * 1e3,
        warm_total.as_secs_f64() * 1e3,
    );
    assert!(
        warm_aggregate >= 3.0,
        "warm network-cache solves fell below the 3x acceptance floor: {warm_aggregate:.2}x"
    );
}
