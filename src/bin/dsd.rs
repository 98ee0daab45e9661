//! `dsd` — command-line densest subgraph discovery, driven by the
//! cache-reusing `DsdEngine` and the `DsdServer` serving runtime.
//!
//! ```text
//! dsd <edge-list-file> [--psi <pattern>] [--method <method>]
//!                      [--objective <objective>] [--tolerance <t>]
//!                      [--budget <probes>] [--query v1,v2,...]
//!                      [--threads <n>] [--substrate-budget <bytes>]
//!                      [--stats]
//! dsd batch|serve <request-file> [--workers <n>] [--budget <bytes>]
//!                                [--substrate-budget <bytes>]
//!                                [--queue-depth <n>] [--deadline-ms <n>]
//!                                [--deadline-probes <n>]
//!
//! patterns:   edge | triangle | clique:<h> (2..=64) | star:<x> (2..=63) |
//!             2-star | 3-star | c3-star | diamond | 2-triangle |
//!             3-triangle | basket
//! methods:    auto (default) | exact | core-exact | peel | inc-app | core-app
//! objectives: densest (default) | top-k:<k> | at-least:<k> | at-most:<k>
//! ```
//!
//! Reads a whitespace edge list (`# comments` allowed, `# n <N>` header
//! optional) and prints the solution plus the engine's solve statistics.
//! `--query` runs the Section-6.3 variant (edge density, must contain the
//! given vertices). `--stats` prints the Figure-18-style statistics
//! instead. `--threads` sets the worker count for parallel substrate
//! passes (default 1). `--substrate-budget` caps the bytes the Ψ instance
//! store may occupy (suffixes `k`/`m`/`g` accepted, `0` disables
//! materialization, `unlimited` lifts the cap); oversized substrates
//! transparently fall back to streaming enumeration.
//!
//! # Request files
//!
//! `dsd batch` and `dsd serve` are two names for one command: it serves a
//! whole request file through one `DsdServer`. The file holds one
//! directive per line (`#` comments and blank lines allowed):
//!
//! ```text
//! # register a named graph from an edge-list file
//! graph <name> <edge-list-file>
//! # issue a request against a registered graph (same flags as above)
//! req <name> [--psi <pattern>] [--objective <objective>] [--method <m>]
//!            [--tolerance <t>] [--budget <probes>] [--query v1,v2,...]
//! # apply edge updates to a registered graph in place: +u:v inserts the
//! # edge {u, v}, -u:v deletes it
//! update <name> [+u:v | -u:v]...
//! ```
//!
//! Jobs stream into per-graph admission queues in file order. An `update`
//! barriers only its own graph's queue: requests above it see the old
//! graph, requests below it the new one (in-place Ψ-store repair, epoch
//! bump, no re-registration), while other graphs' traffic flows on.
//! Re-registering a name first waits out everything queued above it.
//! `--workers` (also spelled `--threads`, default 2) threads pull across
//! graphs, sharing substrate work through each engine's build-once cache.
//! `--budget` is a byte budget enforced *globally* by the substrate
//! governor: after every job it sums the bytes each graph's caches hold
//! and, while over budget, evicts the least-recently-used (graph, Ψ)
//! substrates, which rebuild on demand; `--substrate-budget` caps each
//! engine's instance store as above. `--queue-depth` bounds each graph's
//! queue; when a queue fills, the command waits out its oldest pending
//! job rather than dropping requests. `--deadline-ms` attaches a deadline to every
//! job (expired jobs are shed at dispatch) and `--deadline-probes`
//! additionally clamps each deadlined query's α-search probe count.
//!
//! Results print in file order. Malformed directives, failed and invalid
//! requests are reported on stderr and make the exit code 1, but never
//! stop the rest of the file: every valid request still prints its
//! solution. A closing summary reports throughput, total flow probes,
//! and the governor's and flow-network caches' counters.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use dsd::core::{
    parse_byte_budget, ApplyStats, DsdEngine, DsdRequest, DsdServer, GraphUpdate, Method,
    Objective, Outcome, Parallelism, ServeConfig, ServeError, ServeOutcome, Ticket,
};
use dsd::datasets::compute_stats;
use dsd::graph::io::read_edge_list;
use dsd::graph::Graph;
use dsd::motif::Pattern;

fn parse_pattern(s: &str) -> Option<Pattern> {
    match s {
        "edge" => Some(Pattern::edge()),
        "triangle" => Some(Pattern::triangle()),
        "2-star" => Some(Pattern::two_star()),
        "3-star" => Some(Pattern::three_star()),
        "c3-star" => Some(Pattern::c3_star()),
        "diamond" => Some(Pattern::diamond()),
        "2-triangle" => Some(Pattern::two_triangle()),
        "3-triangle" => Some(Pattern::three_triangle()),
        "basket" => Some(Pattern::basket()),
        other => {
            // A pattern has at most 64 vertices: h for a clique, x + 1
            // for a star.
            if let Some(h) = other.strip_prefix("clique:") {
                h.parse()
                    .ok()
                    .filter(|h| (2..=64).contains(h))
                    .map(Pattern::clique)
            } else if let Some(x) = other.strip_prefix("star:") {
                x.parse()
                    .ok()
                    .filter(|x| (2..=63).contains(x))
                    .map(Pattern::star)
            } else {
                None
            }
        }
    }
}

fn parse_method(s: &str) -> Option<Method> {
    match s {
        "auto" => Some(Method::Auto),
        "exact" => Some(Method::Exact),
        "core-exact" => Some(Method::CoreExact),
        "peel" => Some(Method::PeelApp),
        "inc-app" => Some(Method::IncApp),
        "core-app" => Some(Method::CoreApp),
        _ => None,
    }
}

fn parse_objective(s: &str) -> Option<Objective> {
    if s == "densest" {
        return Some(Objective::Densest);
    }
    let parse_k = |rest: &str| rest.parse::<usize>().ok().filter(|&k| k >= 1);
    if let Some(rest) = s.strip_prefix("top-k:") {
        return parse_k(rest).map(Objective::TopK);
    }
    if let Some(rest) = s.strip_prefix("at-least:") {
        return parse_k(rest).map(Objective::AtLeastK);
    }
    if let Some(rest) = s.strip_prefix("at-most:") {
        return parse_k(rest).map(Objective::AtMostK);
    }
    None
}

/// Renders one `SolveStats.store` entry for the CLI.
fn store_line(store: &dsd::core::StoreStats) -> String {
    if store.materialized {
        format!(
            "substrate: {} instances in {} rows ({} memberships), {:.1} KiB, \
             built in {:.3} ms on {} shard(s) \
             [out-CSR {:.3} ms, enumerate {:.3} ms, assemble {:.3} ms]",
            store.build.instances,
            store.build.rows,
            store.build.memberships,
            store.build.bytes as f64 / 1024.0,
            store.build.build_nanos as f64 / 1e6,
            store.build.shards,
            store.build.csr_build_nanos as f64 / 1e6,
            store.build.enumerate_nanos as f64 / 1e6,
            store.build.assemble_nanos as f64 / 1e6
        )
    } else {
        format!(
            "substrate: streaming fallback ({})",
            match store.fallback {
                Some(dsd::core::StoreFallback::Budget) => "store over byte budget",
                Some(dsd::core::StoreFallback::Capacity) => "store over u32 capacity",
                Some(dsd::core::StoreFallback::Cost) => "closed form cheaper than the store",
                None => "not attempted",
            }
        )
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dsd <edge-list-file> [--psi <pattern>] [--method <method>] \
         [--objective <objective>] [--tolerance <t>] [--budget <probes>] \
         [--query v1,v2,...] [--threads <n>] \
         [--substrate-budget <bytes>] [--stats]\n\
         \x20      dsd batch|serve <request-file> [--workers <n>] [--budget <bytes>] \
         [--substrate-budget <bytes>] [--queue-depth <n>] [--deadline-ms <n>] \
         [--deadline-probes <n>]"
    );
    ExitCode::FAILURE
}

fn load_graph(path: &str) -> Result<Graph, String> {
    File::open(path)
        .map_err(|e| e.to_string())
        .and_then(|f| read_edge_list(BufReader::new(f)).map_err(|e| e.to_string()))
}

/// Parses one `req <graph> [flags...]` directive into a routed request.
fn parse_req_directive(tokens: &[&str]) -> Result<DsdRequest, String> {
    let graph = tokens.first().ok_or("req needs a graph name")?;
    Ok(parse_request_flags(&tokens[1..])?.on(*graph))
}

/// Parses the request flags `--psi`, `--method`, `--objective`,
/// `--tolerance`, `--budget` and `--query` into a request, shared by
/// `dsd <file>` and the `req` directive.
fn parse_request_flags(tokens: &[&str]) -> Result<DsdRequest, String> {
    let mut psi = Pattern::edge();
    let mut objective = Objective::Densest;
    let mut method = Method::Auto;
    let mut tolerance: Option<f64> = None;
    let mut budget: Option<usize> = None;

    let mut it = tokens.iter();
    while let Some(&flag) = it.next() {
        let mut value = || -> Result<&str, String> {
            it.next().copied().ok_or(format!("{flag} needs a value"))
        };
        match flag {
            "--psi" => {
                let v = value()?;
                psi = parse_pattern(v).ok_or(format!("unknown pattern {v:?}"))?;
            }
            "--objective" => {
                let v = value()?;
                objective = parse_objective(v).ok_or(format!("unknown objective {v:?}"))?;
            }
            "--method" => {
                let v = value()?;
                method = parse_method(v).ok_or(format!("unknown method {v:?}"))?;
            }
            "--tolerance" => {
                let v = value()?;
                tolerance = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|t| *t >= 0.0)
                        .ok_or(format!("bad --tolerance {v:?}"))?,
                );
            }
            "--budget" => {
                let v = value()?;
                budget = Some(v.parse().map_err(|_| format!("bad --budget {v:?}"))?);
            }
            "--query" => {
                let v = value()?;
                let parsed: Result<Vec<u32>, _> = v.split(',').map(str::parse).collect();
                match parsed {
                    Ok(vs) if !vs.is_empty() => objective = Objective::WithQuery(vs),
                    _ => return Err(format!("bad --query list {v:?}")),
                }
            }
            other => return Err(format!("unknown req flag {other:?}")),
        }
    }
    let mut req = DsdRequest::new(&psi).objective(objective).method(method);
    if let Some(t) = tolerance {
        req = req.tolerance(t);
    }
    if let Some(b) = budget {
        req = req.step_budget(b);
    }
    Ok(req)
}

/// Parses one `+u:v` / `-u:v` update token.
fn parse_update_token(token: &str) -> Result<GraphUpdate, String> {
    let (insert, rest) = match token.split_at_checked(1) {
        Some(("+", rest)) => (true, rest),
        Some(("-", rest)) => (false, rest),
        _ => return Err(format!("update token {token:?} must start with + or -")),
    };
    let Some((u, v)) = rest.split_once(':') else {
        return Err(format!(
            "update token {token:?} needs the form +u:v or -u:v"
        ));
    };
    match (u.parse::<u32>(), v.parse::<u32>()) {
        (Ok(u), Ok(v)) if insert => Ok(GraphUpdate::Insert(u, v)),
        (Ok(u), Ok(v)) => Ok(GraphUpdate::Delete(u, v)),
        _ => Err(format!("bad vertex ids in update token {token:?}")),
    }
}

/// Parses one `update <graph> <tokens...>` directive.
fn parse_update_directive(tokens: &[&str]) -> Result<(String, Vec<GraphUpdate>), String> {
    let graph = tokens.first().ok_or("update needs a graph name")?;
    if tokens.len() == 1 {
        return Err("update needs at least one +u:v / -u:v token".into());
    }
    let updates = tokens[1..]
        .iter()
        .map(|t| parse_update_token(t))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((graph.to_string(), updates))
}

fn print_update(name: &str, st: &ApplyStats) {
    println!(
        "updated {name}: +{} -{} (~{} no-ops), epoch {}, \
         substrates {} repaired / {} rebuilt{}",
        st.inserted,
        st.deleted,
        st.ignored,
        st.epoch,
        st.substrates_repaired,
        st.substrates_rebuilt,
        if st.csr_deferred {
            " (merge deferred to the next query)"
        } else {
            ""
        },
    );
}

/// A submitted job awaiting its result: either the global request index
/// (queries) or the target graph's name (updates).
enum PendingJob {
    Query(usize),
    Update(String),
}

/// Running totals over the settled jobs of one request file.
#[derive(Default)]
struct Tally {
    failed: usize,
    flow_probes: usize,
    flow_resolve_hits: usize,
}

/// Redeems the oldest pending ticket, printing its result in submission
/// order. Returns `false` when nothing is pending.
fn settle_one(
    pending: &mut std::collections::VecDeque<(PendingJob, Ticket)>,
    tally: &mut Tally,
) -> bool {
    let Some((job, ticket)) = pending.pop_front() else {
        return false;
    };
    match (job, ticket.wait()) {
        (PendingJob::Query(i), Ok(ServeOutcome::Solved(s))) if s.outcome == Outcome::Invalid => {
            tally.failed += 1;
            eprintln!("#{i}: invalid request: {:?}", s.objective);
        }
        (PendingJob::Query(i), Ok(ServeOutcome::Solved(s))) => {
            tally.flow_probes += s.stats.flow_iterations;
            tally.flow_resolve_hits += s.stats.flow_resolve_hits;
            println!(
                "#{i}: {:?} via {:?}: density {:.6}, {} vertices [{:?}] (epoch {})",
                s.objective,
                s.method,
                s.density,
                s.len(),
                s.guarantee,
                s.stats.epoch
            );
        }
        (PendingJob::Update(name), Ok(ServeOutcome::Updated(st))) => print_update(&name, &st),
        (PendingJob::Update(_), Ok(ServeOutcome::Solved(_))) => unreachable!("update ticket"),
        (PendingJob::Query(i), Err(e)) => {
            tally.failed += 1;
            eprintln!("#{i}: error: {e}");
        }
        (PendingJob::Update(name), Err(e)) => {
            tally.failed += 1;
            eprintln!("update {name}: error: {e}");
        }
        (PendingJob::Query(_), Ok(ServeOutcome::Updated(_))) => unreachable!("query ticket"),
    }
    true
}

/// Submits through the admission controller with backpressure: a full
/// queue waits out the oldest pending job (or briefly yields when none
/// is pending) instead of dropping the request.
fn submit_with_backpressure(
    mut submit: impl FnMut() -> Result<Ticket, ServeError>,
    pending: &mut std::collections::VecDeque<(PendingJob, Ticket)>,
    tally: &mut Tally,
) -> Result<Ticket, ServeError> {
    loop {
        match submit() {
            Err(ServeError::Overloaded { .. }) => {
                if !settle_one(pending, tally) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            other => return other,
        }
    }
}

/// Serves a request file: the command behind both `dsd batch` and `dsd serve`;
/// `mode` is the subcommand name, used only to label the output.
fn run_requests(mode: &str, args: &[String]) -> ExitCode {
    let mut file: Option<&str> = None;
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--budget" => match it.next().and_then(|s| parse_byte_budget(s)) {
                Some(b) => config.substrate_budget = b,
                None => {
                    eprintln!("bad --budget");
                    return usage();
                }
            },
            "--substrate-budget" => match it.next().and_then(|s| parse_byte_budget(s)) {
                Some(b) => config.store_budget = b,
                None => {
                    eprintln!("bad --substrate-budget");
                    return usage();
                }
            },
            flag @ ("--workers" | "--threads") => {
                match it.next().and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => config.workers = n,
                    _ => {
                        eprintln!("bad {flag}");
                        return usage();
                    }
                }
            }
            "--queue-depth" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.queue_depth = n,
                _ => {
                    eprintln!("bad --queue-depth");
                    return usage();
                }
            },
            "--deadline-ms" => match it.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(ms) => config.deadline = Some(std::time::Duration::from_millis(ms)),
                None => {
                    eprintln!("bad --deadline-ms");
                    return usage();
                }
            },
            "--deadline-probes" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) => config.deadline_step_budget = n,
                None => {
                    eprintln!("bad --deadline-probes");
                    return usage();
                }
            },
            other if !other.starts_with("--") && file.is_none() => file = Some(other),
            _ => return usage(),
        }
    }
    let Some(path) = file else { return usage() };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{mode}: {} workers, queue depth {}, budget {}",
        config.workers,
        config.queue_depth,
        match config.substrate_budget {
            Some(b) => format!("{:.1} KiB", b as f64 / 1024.0),
            None => "unlimited".into(),
        }
    );
    let t0 = std::time::Instant::now();
    let server = DsdServer::new(config);
    let mut pending: std::collections::VecDeque<(PendingJob, Ticket)> =
        std::collections::VecDeque::new();
    let mut next_index = 0usize;
    let mut tally = Tally::default();
    let mut bad_directives = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let mut fail = |msg: String| {
            eprintln!("{path}:{}: {msg}", lineno + 1);
            bad_directives += 1;
        };
        match tokens[0] {
            "graph" => {
                let [_, name, file] = tokens[..] else {
                    fail("graph needs: graph <name> <edge-list-file>".into());
                    continue;
                };
                match load_graph(file) {
                    Ok(g) => {
                        // Re-registration swaps the engine under the
                        // queue; drain so everything above this line
                        // still ran against the old graph.
                        if server.engine(name).is_some() {
                            while settle_one(&mut pending, &mut tally) {}
                            server.drain();
                        }
                        println!(
                            "registered {name}: {} vertices, {} edges",
                            g.num_vertices(),
                            g.num_edges()
                        );
                        server.register(name, g);
                    }
                    Err(e) => fail(format!("failed to read {file}: {e}")),
                }
            }
            "req" => match parse_req_directive(&tokens[1..]) {
                Ok(req) => {
                    let submitted = submit_with_backpressure(
                        || server.submit(req.clone()),
                        &mut pending,
                        &mut tally,
                    );
                    match submitted {
                        Ok(ticket) => {
                            pending.push_back((PendingJob::Query(next_index), ticket));
                            next_index += 1;
                        }
                        Err(e) => fail(format!("submit failed: {e}")),
                    }
                }
                Err(e) => fail(e),
            },
            "update" => match parse_update_directive(&tokens[1..]) {
                Ok((name, updates)) => {
                    let submitted = submit_with_backpressure(
                        || server.submit_update(name.clone(), updates.clone()),
                        &mut pending,
                        &mut tally,
                    );
                    match submitted {
                        Ok(ticket) => pending.push_back((PendingJob::Update(name), ticket)),
                        Err(e) => fail(format!("update submit failed: {e}")),
                    }
                }
                Err(e) => fail(e),
            },
            other => fail(format!("unknown directive {other:?}")),
        }
    }
    while settle_one(&mut pending, &mut tally) {}
    server.drain();

    let stats = server.stats();
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "{mode}: {} jobs in {:.3} s ({:.0} jobs/s), {} shed overloaded, {} shed on deadline, \
         {} flow probes ({} warm resolves)",
        stats.completed,
        wall,
        stats.completed as f64 / wall.max(1e-9),
        stats.shed_overload,
        stats.shed_deadline,
        tally.flow_probes,
        tally.flow_resolve_hits,
    );
    let g = &stats.governor;
    println!(
        "governor: {} hits / {} misses, {} evictions ({} rebuilds), \
         {:.1} KiB resident (peak {:.1} KiB), {} budget violations",
        g.hits,
        g.misses,
        g.evictions,
        g.rebuilds,
        g.resident_bytes as f64 / 1024.0,
        g.peak_bytes as f64 / 1024.0,
        g.violations,
    );
    // Flow-network cache totals across every registered engine (networks
    // are budgeted and evicted alongside the stores, but their hit/miss
    // traffic is engine-side, not governor-side).
    let mut network_hits = 0usize;
    let mut network_misses = 0usize;
    let mut network_bytes = 0u64;
    for engine in server.list().iter().filter_map(|name| server.engine(name)) {
        let cs = engine.cache_stats();
        network_hits += cs.network_hits;
        network_misses += cs.network_misses;
        network_bytes += engine.network_bytes();
    }
    println!(
        "networks: {network_hits} cache hits / {network_misses} misses, {:.1} KiB cached",
        network_bytes as f64 / 1024.0
    );

    if tally.failed > 0 || bad_directives > 0 {
        eprintln!(
            "{} jobs failed, {bad_directives} malformed directives",
            tally.failed
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(mode @ ("batch" | "serve")) = args.first().map(String::as_str) {
        return run_requests(mode, &args[1..]);
    }
    let mut file: Option<&str> = None;
    let mut request_flags: Vec<&str> = Vec::new();
    let mut threads = 1usize;
    let mut substrate_budget: Option<Option<u64>> = None;
    let mut stats = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            flag @ ("--psi" | "--method" | "--objective" | "--tolerance" | "--budget"
            | "--query") => {
                request_flags.push(flag);
                request_flags.extend(it.next().map(String::as_str));
            }
            "--threads" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = n,
                _ => {
                    eprintln!("bad --threads");
                    return usage();
                }
            },
            "--substrate-budget" => match it.next().and_then(|s| parse_byte_budget(s)) {
                Some(b) => substrate_budget = Some(b),
                None => {
                    eprintln!("bad --substrate-budget");
                    return usage();
                }
            },
            "--stats" => stats = true,
            other if !other.starts_with("--") && file.is_none() => {
                file = Some(other);
            }
            _ => return usage(),
        }
    }
    let request = match parse_request_flags(&request_flags) {
        Ok(req) => req,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let Some(path) = file else { return usage() };
    let g = match load_graph(path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    if stats {
        let s = compute_stats(&g);
        println!(
            "components: {}, pseudo-diameter: {}, power-law α: {:.3}, max degree: {}",
            s.num_ccs, s.pseudo_diameter, s.power_law_alpha, s.max_degree
        );
        return ExitCode::SUCCESS;
    }

    let psi = request.psi();
    if matches!(request.objective_ref(), Objective::WithQuery(_)) && psi.vertex_count() != 2 {
        eprintln!(
            "note: --query computes edge density (Section 6.3 variant); --psi {} is ignored",
            psi.name()
        );
    }
    let mut engine = DsdEngine::new(g).with_parallelism(Parallelism::new(threads));
    if let Some(b) = substrate_budget {
        engine = engine.with_substrate_budget(b);
    }
    let solution = engine.solve(&request);

    if solution.outcome == Outcome::Invalid {
        eprintln!("invalid request: {:?}", solution.objective);
        return ExitCode::FAILURE;
    }
    // The query variant is defined on edge density regardless of Ψ — label
    // its output accordingly instead of with the requested pattern.
    let density_label = if matches!(solution.objective, Objective::WithQuery(_)) {
        "edge"
    } else {
        psi.name()
    };
    println!(
        "{}-densest ({:?}) via {:?}: density {:.6}, {} vertices [{:?}]",
        density_label,
        solution.objective,
        solution.method,
        solution.density,
        solution.len(),
        solution.guarantee,
    );
    for (i, sub) in solution.subgraphs.iter().enumerate() {
        if solution.subgraphs.len() > 1 {
            println!(
                "#{} (density {:.6}): {:?}",
                i + 1,
                sub.density,
                sub.vertices
            );
        } else {
            println!("vertices: {:?}", sub.vertices);
        }
    }
    let st = &solution.stats;
    println!(
        "solve: {:.3} ms total, {:.3} ms decomposition, {} flow probes \
         ({} warm resolves, {} augment work)",
        st.total_nanos as f64 / 1e6,
        st.decomposition_nanos as f64 / 1e6,
        st.flow_iterations,
        st.flow_resolve_hits,
        st.flow_augment_work,
    );
    if let Some(store) = &st.store {
        println!("{}", store_line(store));
    }
    ExitCode::SUCCESS
}
