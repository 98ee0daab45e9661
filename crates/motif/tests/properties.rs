//! Property-style tests of the motif substrate: kClist vs generic pattern
//! enumeration, one emission per instance under symmetry breaking,
//! specialized degree paths, and
//! the parallel degree pass. Driven by a deterministic xorshift seed loop
//! (no crates.io access in the container).

use dsd_graph::testing::XorShift;
use dsd_graph::{Graph, VertexSet};
use dsd_motif::{
    clique_degrees, clique_degrees_parallel, count_cliques, instances, pattern_degrees,
    pattern_enum, special, Pattern,
};

fn full(g: &Graph) -> VertexSet {
    VertexSet::full(g.num_vertices())
}

/// Cliques counted two ways agree: kClist vs generic enumeration.
#[test]
fn kclist_equals_pattern_enumeration() {
    let mut rng = XorShift::new(0xC115);
    for _ in 0..64 {
        let g = rng.random_graph(3, 10, 40);
        for h in 2..=4usize {
            let via_kclist = count_cliques(&g, h);
            let via_pattern = pattern_enum::count_instances(&g, &Pattern::clique(h), &full(&g));
            assert_eq!(via_kclist, via_pattern, "h = {h}");
        }
    }
}

/// Instance materialization emits exactly the counted number of
/// distinct instances.
#[test]
fn instances_len_equals_count() {
    let mut rng = XorShift::new(0x1247);
    for _ in 0..64 {
        let g = rng.random_graph(3, 9, 40);
        for p in [
            Pattern::triangle(),
            Pattern::two_star(),
            Pattern::diamond(),
            Pattern::c3_star(),
            Pattern::two_triangle(),
        ] {
            let count = pattern_enum::count_instances(&g, &p, &full(&g));
            let materialized = instances(&g, &p, &full(&g));
            assert_eq!(materialized.len() as u64, count, "{}", p.name());
            // All instances have distinct edge sets.
            for w in materialized.windows(2) {
                assert!(w[0].edges != w[1].edges);
            }
        }
    }
}

/// Degrees sum to |VΨ| × #instances for every Figure-7 pattern.
#[test]
fn degree_sums() {
    let mut rng = XorShift::new(0xDE65);
    for _ in 0..64 {
        let g = rng.random_graph(3, 9, 40);
        for p in Pattern::figure7() {
            let deg = pattern_degrees(&g, &p, &full(&g));
            let total: u64 = deg.iter().sum();
            let count = pattern_enum::count_instances(&g, &p, &full(&g));
            assert_eq!(total, p.vertex_count() as u64 * count, "{}", p.name());
        }
    }
}

/// The specialized star and diamond degree formulas equal generic
/// enumeration on arbitrary graphs and masks.
#[test]
fn specialized_degrees_match() {
    let mut rng = XorShift::new(0x57A6);
    for _ in 0..64 {
        let g = rng.random_graph(3, 9, 40);
        let kill = (rng.next() % 3) as u32;
        let mut alive = full(&g);
        if (kill as usize) < g.num_vertices() {
            alive.remove(kill);
        }
        for x in 2..=3usize {
            assert_eq!(
                special::star_degrees(&g, x, &alive),
                pattern_degrees(&g, &Pattern::star(x), &alive),
                "star x = {x}"
            );
        }
        assert_eq!(
            special::diamond_degrees(&g, &alive),
            pattern_degrees(&g, &Pattern::diamond(), &alive)
        );
    }
}

/// Parallel clique degrees equal the sequential pass.
#[test]
fn parallel_degrees_match() {
    let mut rng = XorShift::new(0x9A51);
    for _ in 0..64 {
        let g = rng.random_graph(3, 10, 40);
        for h in 2..=4usize {
            assert_eq!(
                clique_degrees_parallel(&g, h, 3),
                clique_degrees(&g, h),
                "h = {h}"
            );
        }
    }
}

/// Capped counting agrees with exact counting when under the cap.
#[test]
fn capped_counting_agrees() {
    let mut rng = XorShift::new(0xCA99);
    for _ in 0..64 {
        let g = rng.random_graph(3, 9, 40);
        let p = Pattern::triangle();
        let exact = pattern_enum::count_instances(&g, &p, &full(&g));
        assert_eq!(
            pattern_enum::count_instances_capped(&g, &p, &full(&g), u64::MAX),
            Some(exact)
        );
    }
}
