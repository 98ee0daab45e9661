//! Deterministic test-support RNG and graph generator shared by the
//! workspace's property-style tests (the container has no crates.io
//! access, so there is no external property-testing framework; tests
//! drive themselves with seed loops).

use crate::{Graph, GraphBuilder};

/// Deterministic xorshift64 stream. Not statistically strong and not for
/// production use — exactly enough to fuzz small graph/network shapes
/// reproducibly.
pub struct XorShift(u64);

impl XorShift {
    /// Creates a stream from a non-zero-coerced seed.
    pub fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    /// The next raw 64-bit value.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in [0, 1).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// An Erdős–Rényi-style random graph: vertex count uniform in
    /// `min_n..=max_n`, each pair an edge with probability
    /// `edge_percent`/100.
    pub fn random_graph(&mut self, min_n: usize, max_n: usize, edge_percent: u64) -> Graph {
        assert!(min_n >= 1 && min_n <= max_n);
        let n = min_n + (self.next() as usize) % (max_n - min_n + 1);
        let mut b = GraphBuilder::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if self.next() % 100 < edge_percent {
                    b.add_edge(u, v);
                }
            }
        }
        b.build()
    }
}

/// `g` plus a pendant star: a new hub joined to vertex 0 and to `leaves`
/// new leaves. The star closes no cycle, so it adds no instance of any
/// pattern with a cycle; it only adds degree (the hub's grows with
/// `leaves`).
pub fn with_pendant_star(g: &Graph, leaves: usize) -> Graph {
    let n = g.num_vertices();
    let hub = n as u32;
    let mut b = GraphBuilder::new(n + 1 + leaves);
    for (u, v) in g.edges() {
        b.add_edge(u, v);
    }
    if n > 0 {
        b.add_edge(0, hub);
    }
    for leaf in 0..leaves as u32 {
        b.add_edge(hub, hub + 1 + leaf);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::XorShift;

    #[test]
    fn deterministic_and_in_range() {
        let mut a = XorShift::new(5);
        let mut b = XorShift::new(5);
        for _ in 0..50 {
            assert_eq!(a.next(), b.next());
            let f = a.unit_f64();
            assert!((0.0..1.0).contains(&f));
            b.unit_f64();
        }
        // Zero seed is coerced, not a fixed point.
        let mut z = XorShift::new(0);
        assert_ne!(z.next(), 0);
    }
}
