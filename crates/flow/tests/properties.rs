//! Property-style tests of the max-flow substrate: flows are conserved and
//! capacity-feasible, max-flow equals the capacity of the extracted
//! minimum cut (strong duality), and Dinic — cold and warm — agrees with
//! an independent BFS augmenting-path reference (Edmonds–Karp) kept here,
//! outside the crate. Driven by a deterministic xorshift seed loop (no
//! crates.io access in the container), plus deeper seeded sweeps over the
//! workspace generator (`crates/rand`) that honour the `DSD_PROP_ITERS`
//! knob used by the nightly CI job.

use dsd_flow::{min_cut_source_side, Dinic, EdgeId, FlowNetwork, NodeId, EPS};
use dsd_graph::testing::XorShift;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A network's arcs as `(u, v, cap_uv, cap_vu)`: `cap_vu > 0` adds a
/// folded antiparallel pair, `cap_vu = 0` a plain arc.
#[derive(Clone, Debug)]
struct NetSpec {
    n: usize,
    edges: Vec<(u32, u32, f64, f64)>,
}

fn random_spec(rng: &mut XorShift) -> NetSpec {
    let n = 3 + (rng.next() as usize) % 8;
    let m = 1 + (rng.next() as usize) % 39;
    let edges = (0..m)
        .map(|_| {
            (
                (rng.next() % n as u64) as u32,
                (rng.next() % n as u64) as u32,
                rng.unit_f64() * 20.0,
                0.0,
            )
        })
        .collect();
    NetSpec { n, edges }
}

fn build(spec: &NetSpec) -> FlowNetwork {
    let mut net = FlowNetwork::new(spec.n);
    for &(u, v, cap, back) in &spec.edges {
        if u == v {
            continue;
        }
        if back > 0.0 {
            net.add_edge_pair(u, v, cap, back);
        } else {
            net.add_edge(u, v, cap);
        }
    }
    net
}

/// Sum of capacities crossing from the source side to the rest. Every
/// arc counts: a plain arc's residual twin has capacity 0, and a folded
/// pair's back arc carries its own capacity.
fn cut_capacity(net: &FlowNetwork, side: &[NodeId]) -> f64 {
    let inside = |v: NodeId| side.contains(&v);
    let mut cap = 0.0;
    for v in side {
        for &e in net.out_edges(*v) {
            let edge = net.edge(e);
            if !inside(edge.to) {
                cap += edge.cap;
            }
        }
    }
    cap
}

/// Reference max-flow: Edmonds–Karp (shortest augmenting paths by BFS)
/// from whatever feasible flow `net` already carries. Returns the flow
/// value into `t` afterwards.
fn edmonds_karp(net: &mut FlowNetwork, s: NodeId, t: NodeId) -> f64 {
    let n = net.num_nodes();
    loop {
        let mut parent: Vec<Option<EdgeId>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::from([s]);
        seen[s as usize] = true;
        while let Some(v) = queue.pop_front() {
            for &e in net.out_edges(v) {
                let edge = net.edge(e);
                if edge.residual() > EPS && !seen[edge.to as usize] {
                    seen[edge.to as usize] = true;
                    parent[edge.to as usize] = Some(e);
                    queue.push_back(edge.to);
                }
            }
        }
        if !seen[t as usize] {
            return net.inflow(t);
        }
        let mut path = Vec::new();
        let mut v = t;
        while let Some(e) = parent[v as usize] {
            path.push(e);
            v = net.edge(e ^ 1).to;
        }
        let bottleneck = path
            .iter()
            .map(|&e| net.edge(e).residual())
            .fold(f64::INFINITY, f64::min);
        for &e in &path {
            net.push(e, bottleneck);
        }
    }
}

/// Optimality certificate of a solved network: the flow is capacity-
/// feasible and conserved, `flow` is what reaches the sink, and the
/// extracted min cut separates s from t with capacity equal to `flow`.
fn assert_certified(net: &FlowNetwork, s: NodeId, t: NodeId, flow: f64, ctx: &str) {
    for (_, e, back) in net.edge_pairs() {
        assert!(
            e.flow >= -back.cap - 1e-9 && e.flow <= e.cap + 1e-9,
            "{ctx}: infeasible edge flow {} / caps [{}, {}]",
            e.flow,
            back.cap,
            e.cap
        );
    }
    assert!(net.conserves_flow(s, t), "{ctx}: flow not conserved");
    assert!(
        (net.inflow(t) - flow).abs() < 1e-6,
        "{ctx}: reported {flow} vs sink inflow {}",
        net.inflow(t)
    );
    let side = min_cut_source_side(net, s);
    assert!(side.contains(&s), "{ctx}: cut misses source");
    assert!(!side.contains(&t), "{ctx}: cut contains sink");
    let cap = cut_capacity(net, &side);
    assert!((flow - cap).abs() < 1e-6, "{ctx}: flow {flow} vs cut {cap}");
}

fn prop_iters(default: usize) -> u64 {
    std::env::var("DSD_PROP_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default) as u64
}

/// A seeded random network with `n` in `4..=n_max` and `n..=n * density`
/// edges of capacity in `[0.05, max_cap)`.
fn seeded_spec(rng: &mut StdRng, n_max: usize, density: usize, max_cap: f64) -> NetSpec {
    let n = rng.gen_range(4usize..=n_max);
    let m = rng.gen_range(n..=n * density);
    NetSpec {
        n,
        edges: (0..m)
            .map(|_| {
                (
                    rng.gen_range(0u32..n as u32),
                    rng.gen_range(0u32..n as u32),
                    rng.gen_range(0.05f64..max_cap),
                    0.0,
                )
            })
            .collect(),
    }
}

#[test]
fn flow_is_conserved_and_feasible() {
    let mut rng = XorShift::new(0xC045);
    for _ in 0..256 {
        let spec = random_spec(&mut rng);
        let s: NodeId = 0;
        let t: NodeId = (spec.n - 1) as NodeId;
        let mut net = build(&spec);
        let f = Dinic::new().max_flow(&mut net, s, t);
        assert!(f >= -EPS);
        assert!(net.conserves_flow(s, t));
        // No forward edge exceeds its capacity.
        for v in 0..spec.n as NodeId {
            for &e in net.out_edges(v) {
                if e % 2 == 0 {
                    let edge = net.edge(e);
                    assert!(edge.flow <= edge.cap + 1e-9);
                }
            }
        }
    }
}

/// Strong duality: the extracted source side is a cut of capacity equal to
/// the max flow.
#[test]
fn max_flow_equals_min_cut() {
    let mut rng = XorShift::new(0xD0A1);
    for _ in 0..256 {
        let spec = random_spec(&mut rng);
        let s: NodeId = 0;
        let t: NodeId = (spec.n - 1) as NodeId;
        let mut net = build(&spec);
        let f = Dinic::new().max_flow(&mut net, s, t);
        let side = min_cut_source_side(&net, s);
        assert!(side.contains(&s));
        assert!(!side.contains(&t));
        let cap = cut_capacity(&net, &side);
        assert!((f - cap).abs() < 1e-6, "flow {f} vs cut {cap}");
    }
}

/// Cold equivalence, closed end to end: on larger randomized networks
/// from the workspace's seeded generator, Dinic and the Edmonds–Karp
/// reference agree on the max-flow value, and each run's own flow and
/// extracted min cut certify it. Iteration count honours
/// `DSD_PROP_ITERS`.
#[test]
fn dinic_matches_edmonds_karp_on_seeded_networks() {
    for seed in 0..prop_iters(300) {
        let mut rng = StdRng::seed_from_u64(0xF70A ^ seed);
        let spec = seeded_spec(&mut rng, 24, 6, 25.0);
        let s: NodeId = 0;
        let t: NodeId = (spec.n - 1) as NodeId;
        let mut dinic_net = build(&spec);
        let mut ek_net = build(&spec);
        let f_dinic = Dinic::new().max_flow(&mut dinic_net, s, t);
        let f_ek = edmonds_karp(&mut ek_net, s, t);
        assert!(
            (f_dinic - f_ek).abs() < 1e-6,
            "seed {seed}: dinic {f_dinic} vs edmonds-karp {f_ek}"
        );
        assert_certified(&dinic_net, s, t, f_dinic, &format!("seed {seed} dinic"));
        assert_certified(&ek_net, s, t, f_ek, &format!("seed {seed} edmonds-karp"));
    }
}

/// Folded pairs: on seeded networks where about half the arcs are folded
/// antiparallel pairs (both directions carrying capacity) and the rest
/// are plain, Dinic agrees with Edmonds–Karp on the max-flow value and on
/// the minimal min-cut source side, and both runs certify — the same
/// network with every folded pair split into two plain arcs gives the
/// same value and the same cut side.
#[test]
fn dinic_matches_edmonds_karp_on_folded_networks() {
    let mut folded_pairs = 0;
    for seed in 0..prop_iters(300) {
        let mut rng = StdRng::seed_from_u64(0xF01D ^ seed);
        let mut spec = seeded_spec(&mut rng, 20, 5, 20.0);
        for edge in &mut spec.edges {
            if rng.gen_bool(0.5) {
                edge.3 = rng.gen_range(0.05f64..20.0);
                folded_pairs += 1;
            }
        }
        let s: NodeId = 0;
        let t: NodeId = (spec.n - 1) as NodeId;
        let ctx = format!("seed {seed}");
        let mut dinic_net = build(&spec);
        let mut ek_net = build(&spec);
        let f_dinic = Dinic::new().max_flow(&mut dinic_net, s, t);
        let f_ek = edmonds_karp(&mut ek_net, s, t);
        assert!(
            (f_dinic - f_ek).abs() < 1e-6,
            "{ctx}: dinic {f_dinic} vs edmonds-karp {f_ek}"
        );
        assert_certified(&dinic_net, s, t, f_dinic, &format!("{ctx} dinic"));
        assert_certified(&ek_net, s, t, f_ek, &format!("{ctx} edmonds-karp"));
        let side = min_cut_source_side(&dinic_net, s);
        assert_eq!(side, min_cut_source_side(&ek_net, s), "{ctx}: cut sides");

        let mut split = FlowNetwork::new(spec.n);
        for &(u, v, cap, back) in &spec.edges {
            if u != v {
                split.add_edge(u, v, cap);
                if back > 0.0 {
                    split.add_edge(v, u, back);
                }
            }
        }
        let f_split = Dinic::new().max_flow(&mut split, s, t);
        assert!(
            (f_dinic - f_split).abs() < 1e-6,
            "{ctx}: folded {f_dinic} vs split {f_split}"
        );
        assert_eq!(
            side,
            min_cut_source_side(&split, s),
            "{ctx}: split cut side"
        );
    }
    assert!(folded_pairs > 0);
}

/// Parametric resolve: after monotone non-decreasing capacity bumps,
/// Dinic's warm `resolve` matches a from-scratch Edmonds–Karp solve —
/// value (within fp tolerance) and the extracted minimal min-cut source
/// side (set equality; the reachability-minimal min cut is unique, so it
/// must not depend on how the flow got there) — and the reference
/// continued warm on its own copy agrees too. Every run is certified.
/// Iterations honour `DSD_PROP_ITERS`.
#[test]
fn resolve_matches_cold_solve() {
    for seed in 0..prop_iters(200) {
        let mut rng = StdRng::seed_from_u64(0x6617 ^ seed);
        let spec = seeded_spec(&mut rng, 16, 5, 20.0);
        let s: NodeId = 0;
        let t: NodeId = (spec.n - 1) as NodeId;
        let mut warm = build(&spec);
        let mut ek_warm = build(&spec);
        let mut solver = Dinic::new();
        let _ = solver.max_flow(&mut warm, s, t);
        let _ = edmonds_karp(&mut ek_warm, s, t);
        // Three rounds of monotone bumps, resolving after each.
        for round in 0..3u64 {
            for e in 0..warm.num_edges() as u32 {
                if (seed + e as u64 + round).is_multiple_of(3) {
                    let cap = warm.edge(2 * e).cap + rng.gen_range(0.1f64..8.0);
                    warm.set_cap(2 * e, cap);
                    ek_warm.set_cap(2 * e, cap);
                }
            }
            let ctx = format!("seed {seed} round {round}");
            let f_warm = solver.resolve(&mut warm, s, t);
            let f_ek_warm = edmonds_karp(&mut ek_warm, s, t);
            // Cold reference on an identically-capacitated network.
            let mut cold = warm.clone();
            cold.reset_flow();
            let f_cold = edmonds_karp(&mut cold, s, t);
            for (name, net, f) in [
                ("dinic warm", &warm, f_warm),
                ("edmonds-karp warm", &ek_warm, f_ek_warm),
                ("edmonds-karp cold", &cold, f_cold),
            ] {
                assert_certified(net, s, t, f, &format!("{ctx} {name}"));
                assert!(
                    (f - f_cold).abs() < 1e-6,
                    "{ctx}: {name} {f} vs cold {f_cold}"
                );
                assert_eq!(
                    min_cut_source_side(net, s),
                    min_cut_source_side(&cold, s),
                    "{ctx}: {name} min-cut source side differs from cold"
                );
            }
        }
    }
}

/// Re-solving after reset gives the same value (solver statelessness).
#[test]
fn reset_and_resolve_is_idempotent() {
    let mut rng = XorShift::new(0x1DE2);
    for _ in 0..256 {
        let spec = random_spec(&mut rng);
        let s: NodeId = 0;
        let t: NodeId = (spec.n - 1) as NodeId;
        let mut net = build(&spec);
        let f1 = Dinic::new().max_flow(&mut net, s, t);
        net.reset_flow();
        let f2 = Dinic::new().max_flow(&mut net, s, t);
        assert!((f1 - f2).abs() < 1e-9);
    }
}

/// Warm continuation: after raising a saturated edge's capacity, more
/// augmentation can only increase the flow, and equals a cold solve.
#[test]
fn monotone_capacity_increase_warm_start() {
    let mut rng = XorShift::new(0x3A1C);
    for _ in 0..256 {
        let spec = random_spec(&mut rng);
        let bump = rng.unit_f64() * 10.0;
        let s: NodeId = 0;
        let t: NodeId = (spec.n - 1) as NodeId;
        let mut warm = build(&spec);
        let f1 = Dinic::new().max_flow(&mut warm, s, t);
        // Raise every forward capacity by `bump` and continue augmenting
        // on the existing flow.
        let mut cold = build(&spec);
        for v in 0..spec.n as NodeId {
            let out: Vec<_> = warm.out_edges(v).to_vec();
            for e in out {
                if e % 2 == 0 {
                    let cap = warm.edge(e).cap;
                    warm.set_cap(e, cap + bump);
                    cold.set_cap(e, cap + bump);
                }
            }
        }
        let f_warm_extra = Dinic::new().max_flow(&mut warm, s, t);
        let f_warm_total = f1 + f_warm_extra;
        let f_cold = Dinic::new().max_flow(&mut cold, s, t);
        assert!(f_warm_total + 1e-6 >= f1);
        assert!(
            (f_warm_total - f_cold).abs() < 1e-6,
            "warm {f_warm_total} vs cold {f_cold}"
        );
    }
}
