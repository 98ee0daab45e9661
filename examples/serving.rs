//! Serving: one `DsdServer` holding several named graphs, answering a
//! mixed stream of requests across worker threads.
//!
//! The server is the deployment shape for the paper's algorithms: its
//! catalog keeps each dataset's substrates warm between requests, and its
//! workers share them through each engine's build-once cache, so a mixed
//! workload pays each (graph, Ψ) substrate once.
//!
//! Run with: `cargo run --release --example serving`

use dsd::datasets::planted;
use dsd::prelude::*;

fn main() {
    let server = DsdServer::new(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });

    // Register two datasets; each gets its own engine + substrate cache.
    let collab = planted::collaboration_network(12, 10, 4, 8, 42);
    let ppi = planted::ppi_like(42);
    println!(
        "catalog: collab (n={}, m={}), ppi (n={}, m={})",
        collab.num_vertices(),
        collab.num_edges(),
        ppi.num_vertices(),
        ppi.num_edges()
    );
    let engines = [
        server.register("collab", collab),
        server.register("ppi", ppi),
    ];
    assert_eq!(server.list(), vec!["collab".to_string(), "ppi".to_string()]);

    // A mixed workload: both graphs, two patterns, several objectives.
    let tri = Pattern::triangle();
    let star = Pattern::two_star();
    let requests = vec![
        DsdRequest::new(&tri).on("collab"),
        DsdRequest::new(&tri)
            .on("collab")
            .objective(Objective::TopK(3)),
        DsdRequest::new(&star).on("collab"),
        DsdRequest::new(&tri).on("ppi"),
        DsdRequest::new(&tri)
            .on("ppi")
            .objective(Objective::AtLeastK(12)),
        DsdRequest::new(&star).on("ppi"),
    ];
    let tickets: Vec<_> = requests
        .into_iter()
        .map(|req| server.submit(req).expect("the queues have room"))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        match ticket.wait() {
            Ok(ServeOutcome::Solved(s)) => println!(
                "#{i}: {:?} via {:?} -> density {:.3}, {} vertices",
                s.objective,
                s.method,
                s.density,
                s.len()
            ),
            Ok(ServeOutcome::Updated(_)) => unreachable!("a query ticket"),
            Err(e) => println!("#{i}: error: {e}"),
        }
    }

    // A request for a graph nobody registered is refused at submit,
    // without disturbing the rest of the traffic.
    assert!(matches!(
        server.submit(DsdRequest::new(&tri).on("missing")),
        Err(ServeError::UnknownGraph(_))
    ));

    // Two graphs × two patterns, but only the triangle requests build a
    // (k, Ψ)-core decomposition here (the 2-star requests are Densest via
    // Auto → they may resolve to CoreExact or the decomposition-free
    // CoreApp), so builds ≤ 4, however the workers interleaved.
    let (builds, hits) = engines.iter().fold((0, 0), |(b, h), e| {
        let cs = e.cache_stats();
        (b + cs.decomposition_builds, h + cs.decomposition_hits)
    });
    println!("substrates: {builds} decomposition builds + {hits} hits");
    assert!(builds <= 4);
    drop(engines);

    // The catalog is dynamic: evicting a dataset frees its substrates once
    // in-flight requests drain.
    server.drain();
    server.evict("ppi");
    assert_eq!(server.list(), vec!["collab".to_string()]);
    println!("evicted ppi; catalog now {:?}", server.list());
}
