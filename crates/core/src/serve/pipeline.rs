//! The serving runtime: a governed catalog of named graphs and the
//! admission-controlled request pipeline in front of it.
//!
//! [`DsdServer`] keeps one map from graph name to (engine, queue) under a
//! single state mutex and runs a hand-rolled thread+channel runtime over
//! it (the workspace is dependency-free — plain `std::sync` primitives,
//! no async executor): one bounded FIFO queue per registered graph, a
//! shared worker pool pulling across the queues round-robin, and
//! per-ticket completion channels.
//!
//! The scheduling rules, in order of importance:
//!
//! * **Per-graph FIFO, cross-graph freedom.** Queries on one graph run
//!   concurrently; an update barriers *only its own graph's queue* — it
//!   dispatches once that graph's in-flight queries drain, runs alone,
//!   and later same-graph jobs wait behind it. Other graphs' traffic
//!   flows the whole time.
//! * **Bounded admission.** Each graph queue holds at most
//!   [`ServeConfig::queue_depth`] jobs; a submit beyond that is shed
//!   immediately with [`ServeError::Overloaded`] instead of growing an
//!   unbounded backlog — the caller owns the retry policy.
//! * **Deadlines shed at dispatch.** A job whose deadline passed while
//!   queued is failed with [`ServeError::DeadlineExceeded`] without
//!   running; a job dispatched in time may additionally have its
//!   α-search probe count clamped ([`ServeConfig::deadline_step_budget`])
//!   so one slow exact solve cannot blow through its deadline unbounded
//!   (the answer then degrades to [`crate::Guarantee::Heuristic`], never
//!   to a wrong density).

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dsd_graph::{Graph, GraphUpdate};

use crate::engine::{ApplyStats, DsdEngine, DsdRequest, PatternKey, Solution};
use crate::oracle::DEFAULT_STORE_BUDGET;
use crate::serve::governor::{GovernorStats, SubstrateGovernor};

/// Sizing and policy knobs for a [`DsdServer`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads pulling jobs across all graph queues. `0` spawns
    /// none — jobs then only run via [`DsdServer::step`] or
    /// [`DsdServer::drain`] on the calling thread, which tests use to
    /// drive the pipeline deterministically.
    pub workers: usize,
    /// Max queued jobs per graph; submits beyond this shed with
    /// [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Global substrate byte budget enforced by the governor across every
    /// registered engine (`None` = account but never evict). It bounds
    /// the bytes settled after each served job; an engine solved or
    /// warmed directly, outside the pipeline, is neither counted as a hit
    /// or miss nor evicted until the next job settles.
    pub substrate_budget: Option<u64>,
    /// Per-engine instance-store byte budget for graphs registered on
    /// this server (`None` = unlimited, `Some(0)` = never materialize;
    /// see [`DsdEngine::with_substrate_budget`]).
    pub store_budget: Option<u64>,
    /// Deadline attached to every submitted job, measured from submit
    /// (`None` = jobs never expire).
    pub deadline: Option<Duration>,
    /// When a deadline is set, clamp each query's α-search to at most
    /// this many min-cut probes (0 = no clamp; deadlines then only shed
    /// jobs still queued at expiry).
    pub deadline_step_budget: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            substrate_budget: None,
            store_budget: Some(DEFAULT_STORE_BUDGET),
            deadline: None,
            deadline_step_budget: 0,
        }
    }
}

/// Why the pipeline refused or failed a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The graph's queue is full; retry after backoff.
    Overloaded {
        /// The saturated graph.
        graph: String,
        /// Its configured queue depth.
        depth: usize,
    },
    /// The job names a graph the server does not hold.
    UnknownGraph(String),
    /// The request was never routed ([`DsdRequest::on`] was not called).
    Unrouted,
    /// The job's deadline passed before a worker could start it.
    DeadlineExceeded,
    /// The server shut down before the job ran.
    ShutDown,
    /// The job panicked; the message is the panic's. The graph keeps
    /// serving: an engine publishes an update's epoch only once the whole
    /// update has succeeded.
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { graph, depth } => {
                write!(f, "queue for graph {graph:?} is full ({depth} jobs)")
            }
            ServeError::UnknownGraph(name) => {
                write!(f, "no graph named {name:?} in the catalog")
            }
            ServeError::Unrouted => {
                write!(f, "request names no graph (build it with .on(name))")
            }
            ServeError::DeadlineExceeded => write!(f, "deadline passed before dispatch"),
            ServeError::ShutDown => write!(f, "server shut down before the job ran"),
            ServeError::Internal(message) => write!(f, "job panicked: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What a completed job produced.
#[derive(Clone, Debug)]
pub enum ServeOutcome {
    /// A query's solution (boxed: a `Solution` is large next to the
    /// other variant and tickets move outcomes through channels).
    Solved(Box<Solution>),
    /// An update batch's apply stats.
    Updated(ApplyStats),
}

impl ServeOutcome {
    /// The solution, if this was a query.
    pub fn solution(self) -> Option<Solution> {
        match self {
            ServeOutcome::Solved(s) => Some(*s),
            ServeOutcome::Updated(_) => None,
        }
    }
}

/// A claim on one submitted job's result; redeem with [`Ticket::wait`].
pub struct Ticket {
    rx: mpsc::Receiver<Result<ServeOutcome, ServeError>>,
}

impl Ticket {
    /// Blocks until the job completes (or the server drops it).
    pub fn wait(self) -> Result<ServeOutcome, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShutDown))
    }

    /// Non-blocking poll; `None` while the job is still pending.
    pub fn poll(&self) -> Option<Result<ServeOutcome, ServeError>> {
        self.rx.try_recv().ok()
    }
}

/// Pipeline-level counters, from [`DsdServer::stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs admitted to a queue.
    pub submitted: u64,
    /// Jobs that ran to completion (success or in-run failure).
    pub completed: u64,
    /// Submits shed with [`ServeError::Overloaded`].
    pub shed_overload: u64,
    /// Jobs shed at dispatch with [`ServeError::DeadlineExceeded`].
    pub shed_deadline: u64,
    /// Jobs currently queued across all graphs.
    pub queued: usize,
    /// Jobs currently executing.
    pub in_flight: usize,
    /// The governor's counters, with its footprint folded when read.
    pub governor: GovernorStats,
}

enum JobKind {
    Query(DsdRequest),
    Update(Vec<GraphUpdate>),
}

struct Job {
    graph: String,
    kind: JobKind,
    tx: mpsc::Sender<Result<ServeOutcome, ServeError>>,
    deadline: Option<Instant>,
}

/// One registered graph: its engine and its FIFO queue.
struct GraphEntry {
    engine: Arc<DsdEngine<'static>>,
    /// Tells this registration apart from earlier ones under the same
    /// name, so a job settles only on the entry it was dispatched from.
    generation: u64,
    jobs: VecDeque<Job>,
    running_queries: usize,
    update_running: bool,
}

/// A job taken off its queue, with the engine and registration it runs
/// against.
struct Dispatched {
    job: Job,
    engine: Arc<DsdEngine<'static>>,
    generation: u64,
}

#[derive(Default)]
struct PipeState {
    graphs: HashMap<String, GraphEntry>,
    /// Round-robin dispatch order over `graphs`.
    order: Vec<String>,
    cursor: usize,
    /// Generations handed out by `register` so far.
    registrations: u64,
    queued: usize,
    in_flight: usize,
    shutdown: bool,
    submitted: u64,
    completed: u64,
    shed_overload: u64,
    shed_deadline: u64,
}

struct Shared {
    governor: Arc<SubstrateGovernor>,
    config: ServeConfig,
    state: Mutex<PipeState>,
    /// Workers park here when no job is dispatchable.
    work: Condvar,
    /// [`DsdServer::drain`] parks here until the pipeline is empty.
    idle: Condvar,
}

/// The serving runtime: a catalog of named graphs, each behind its own
/// governed [`DsdEngine`], plus the admission-controlled worker pipeline.
/// See the module docs for the scheduling rules.
///
/// All methods take `&self`; the server is `Send + Sync`.
pub struct DsdServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl DsdServer {
    /// Builds the runtime and spawns its worker pool.
    pub fn new(config: ServeConfig) -> Self {
        let governor = SubstrateGovernor::new(config.substrate_budget);
        let shared = Arc::new(Shared {
            governor,
            config,
            state: Mutex::new(PipeState::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..shared.config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        DsdServer { shared, workers }
    }

    /// Registers (or replaces) a graph and returns its engine. The engine
    /// is attached to the governor and gets its own FIFO queue. Replacing
    /// a graph moves its queued jobs onto the new engine; jobs already
    /// running finish on the old one, whose bytes the governor counts
    /// until the last holder drops it.
    pub fn register(&self, name: impl Into<String>, graph: Graph) -> Arc<DsdEngine<'static>> {
        let name = name.into();
        let engine =
            Arc::new(DsdEngine::new(graph).with_substrate_budget(self.shared.config.store_budget));
        self.shared.governor.attach(&engine);
        let mut state = self.shared.state.lock().unwrap();
        state.registrations += 1;
        let generation = state.registrations;
        let (jobs, replaced) = match state.graphs.remove(&name) {
            Some(old) => (old.jobs, Some(old.engine)),
            None => {
                state.order.push(name.clone());
                (VecDeque::new(), None)
            }
        };
        state.graphs.insert(
            name,
            GraphEntry {
                engine: Arc::clone(&engine),
                generation,
                jobs,
                running_queries: 0,
                update_running: false,
            },
        );
        drop(state);
        // Dropped outside the state lock: freeing a replaced engine's
        // caches need not stall the pipeline.
        drop(replaced);
        engine
    }

    /// Removes a graph; returns whether it was present. Queued jobs for
    /// it fail with [`ServeError::UnknownGraph`]; the governor counts its
    /// engine's bytes until the last in-flight holder drops it.
    pub fn evict(&self, name: &str) -> bool {
        let mut state = self.shared.state.lock().unwrap();
        let Some(mut entry) = state.graphs.remove(name) else {
            return false;
        };
        state.queued -= entry.jobs.len();
        for job in entry.jobs.drain(..) {
            let _ = job.tx.send(Err(ServeError::UnknownGraph(name.to_string())));
        }
        state.order.retain(|g| g != name);
        state.cursor = 0;
        notify_if_idle(&self.shared, &state);
        drop(state);
        // A pool-less drain waiting on `work` re-checks the queue count.
        self.shared.work.notify_all();
        drop(entry);
        true
    }

    /// The engine serving `name`, if registered.
    pub fn engine(&self, name: &str) -> Option<Arc<DsdEngine<'static>>> {
        let state = self.shared.state.lock().unwrap();
        state
            .graphs
            .get(name)
            .map(|entry| Arc::clone(&entry.engine))
    }

    /// Sorted names of all registered graphs.
    pub fn list(&self) -> Vec<String> {
        let mut names = self.shared.state.lock().unwrap().order.clone();
        names.sort_unstable();
        names
    }

    /// The governor enforcing the global substrate budget.
    #[cfg(test)]
    pub(crate) fn governor(&self) -> &Arc<SubstrateGovernor> {
        &self.shared.governor
    }

    /// Current pipeline + governor counters.
    pub fn stats(&self) -> ServeStats {
        let state = self.shared.state.lock().unwrap();
        ServeStats {
            submitted: state.submitted,
            completed: state.completed,
            shed_overload: state.shed_overload,
            shed_deadline: state.shed_deadline,
            queued: state.queued,
            in_flight: state.in_flight,
            governor: self.shared.governor.stats(),
        }
    }

    /// Enqueues a routed query. Fails fast (without queueing) when the
    /// graph is unknown or its queue is full.
    pub fn submit(&self, req: DsdRequest) -> Result<Ticket, ServeError> {
        let Some(name) = req.graph_name() else {
            return Err(ServeError::Unrouted);
        };
        let name = name.to_string();
        self.enqueue(name, JobKind::Query(req))
    }

    /// Enqueues an update batch for `name`. It obeys the same admission
    /// control as queries and barriers only that graph's queue.
    pub fn submit_update(
        &self,
        name: impl Into<String>,
        updates: Vec<GraphUpdate>,
    ) -> Result<Ticket, ServeError> {
        self.enqueue(name.into(), JobKind::Update(updates))
    }

    fn enqueue(&self, name: String, kind: JobKind) -> Result<Ticket, ServeError> {
        let deadline = self.shared.config.deadline.map(|d| Instant::now() + d);
        let (tx, rx) = mpsc::channel();
        let mut state = self.shared.state.lock().unwrap();
        if state.shutdown {
            return Err(ServeError::ShutDown);
        }
        let depth = self.shared.config.queue_depth;
        let Some(entry) = state.graphs.get_mut(&name) else {
            return Err(ServeError::UnknownGraph(name));
        };
        if entry.jobs.len() >= depth {
            state.shed_overload += 1;
            return Err(ServeError::Overloaded { graph: name, depth });
        }
        entry.jobs.push_back(Job {
            graph: name,
            kind,
            tx,
            deadline,
        });
        state.queued += 1;
        state.submitted += 1;
        drop(state);
        self.shared.work.notify_one();
        Ok(Ticket { rx })
    }

    /// Runs at most one queued job on the calling thread; returns whether
    /// one was dispatchable. With `workers: 0` this and [`Self::drain`] are
    /// the only engines of progress — tests use them to sequence the
    /// pipeline deterministically.
    pub fn step(&self) -> bool {
        let job = {
            let mut state = self.shared.state.lock().unwrap();
            match take_next(&mut state) {
                Some(job) => job,
                None => return false,
            }
        };
        run_job(&self.shared, job);
        true
    }

    /// Blocks until every queued and in-flight job has completed, each
    /// with the governor settled. With `workers: 0` the calling thread
    /// runs the queued jobs itself.
    pub fn drain(&self) {
        let pooled = !self.workers.is_empty();
        let mut state = self.shared.state.lock().unwrap();
        while state.queued > 0 || state.in_flight > 0 {
            if !pooled {
                if let Some(job) = take_next(&mut state) {
                    drop(state);
                    run_job(&self.shared, job);
                    state = self.shared.state.lock().unwrap();
                    continue;
                }
            }
            // Without a pool, the queued jobs wait behind one that another
            // thread is stepping; its completion signals `work` while jobs
            // stay queued.
            let wake = if !pooled && state.queued > 0 {
                &self.shared.work
            } else {
                &self.shared.idle
            };
            state = wake.wait(state).unwrap();
        }
    }

    /// Stops the pipeline: queued jobs fail with [`ServeError::ShutDown`],
    /// in-flight jobs finish, workers exit.
    pub fn shutdown(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
            let mut dropped = 0;
            for entry in state.graphs.values_mut() {
                dropped += entry.jobs.len();
                for job in entry.jobs.drain(..) {
                    let _ = job.tx.send(Err(ServeError::ShutDown));
                }
            }
            state.queued -= dropped;
        }
        self.shared.work.notify_all();
        self.shared.idle.notify_all();
        // Jobs catch their own panics, so a worker that still panicked
        // has nothing left to report; this also runs in `Drop`, where a
        // second panic would abort.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for DsdServer {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Picks the next dispatchable job round-robin across graph queues,
/// updating the dispatch bookkeeping. The per-graph rules: a graph with a
/// running update dispatches nothing; a front-of-queue query dispatches
/// any time; a front-of-queue update dispatches only once the graph's
/// in-flight queries drain (and never jumps the FIFO — later same-graph
/// jobs wait behind it).
fn take_next(state: &mut PipeState) -> Option<Dispatched> {
    let graphs = state.order.len();
    for i in 0..graphs {
        let at = (state.cursor + i) % graphs;
        let name = &state.order[at];
        let entry = state.graphs.get_mut(name).expect("order tracks graphs");
        if entry.update_running {
            continue;
        }
        let is_update = match entry.jobs.front() {
            Some(job) => matches!(job.kind, JobKind::Update(_)),
            None => continue,
        };
        if is_update {
            if entry.running_queries > 0 {
                continue;
            }
            entry.update_running = true;
        } else {
            entry.running_queries += 1;
        }
        let job = entry.jobs.pop_front().expect("front just inspected");
        let next = Dispatched {
            job,
            engine: Arc::clone(&entry.engine),
            generation: entry.generation,
        };
        state.queued -= 1;
        state.in_flight += 1;
        state.cursor = (at + 1) % graphs;
        return Some(next);
    }
    None
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(job) = take_next(&mut state) {
                    break job;
                }
                state = shared.work.wait(state).unwrap();
            }
        };
        run_job(shared, job);
    }
}

/// Executes one dispatched job, then settles the governor and the
/// pipeline bookkeeping before the ticket is answered. A panicking job
/// fails with [`ServeError::Internal`].
fn run_job(shared: &Shared, dispatched: Dispatched) {
    let Dispatched {
        job:
            Job {
                graph,
                kind,
                tx,
                deadline,
            },
        engine,
        generation,
    } = dispatched;
    let expired = deadline.is_some_and(|d| Instant::now() > d);
    let settle = Settle {
        shared,
        graph,
        generation,
        update: matches!(kind, JobKind::Update(_)),
        expired,
    };

    let (result, query) = if expired {
        (Err(ServeError::DeadlineExceeded), None)
    } else {
        // Unwind safety: a query only fills build-once caches of the epoch
        // it holds, and an update publishes its epoch in one swap at the
        // end, so a panic leaves the engine as it was.
        match panic::catch_unwind(AssertUnwindSafe(|| {
            execute(shared, &engine, kind, deadline)
        })) {
            Ok((outcome, query)) => (Ok(outcome), query),
            Err(panic) => (Err(ServeError::Internal(panic_message(panic))), None),
        }
    };
    let id = engine.id();
    // Dropped outside the state lock: if the graph was evicted or
    // replaced meanwhile, this is the engine's last holder, and its bytes
    // leave before the governor folds.
    drop(engine);
    shared
        .governor
        .settle(query.map(|(key, hit)| (id, key, hit)));
    drop(settle);
    let _ = tx.send(result);
}

/// Runs one job that is still within its deadline. A query pins its
/// [`DsdRequest::cache_key`] while it runs and returns it, with whether
/// the substrate was cached, for the governor to settle.
fn execute(
    shared: &Shared,
    engine: &DsdEngine<'static>,
    kind: JobKind,
    deadline: Option<Instant>,
) -> (ServeOutcome, Option<(PatternKey, bool)>) {
    match kind {
        JobKind::Query(mut req) => {
            let cap = shared.config.deadline_step_budget;
            if deadline.is_some() && cap > 0 {
                let cap = req.step_budget_limit().map_or(cap, |b| b.min(cap));
                req = req.step_budget(cap);
            }
            let (_, key) = req.cache_key();
            let _lease = shared.governor.lease(engine.id(), &key);
            let solution = engine.solve(&req);
            let used = solution.stats.substrate;
            let hit = used.oracle_cache_hit || used.located_hit;
            (ServeOutcome::Solved(Box::new(solution)), Some((key, hit)))
        }
        JobKind::Update(updates) => (ServeOutcome::Updated(engine.apply(&updates)), None),
    }
}

/// The text of a caught panic.
fn panic_message(panic: Box<dyn Any + Send>) -> String {
    match panic.downcast::<String>() {
        Ok(message) => *message,
        Err(panic) => match panic.downcast_ref::<&str>() {
            Some(message) => message.to_string(),
            None => "non-string panic payload".to_string(),
        },
    }
}

/// Settles one dispatched job's pipeline bookkeeping when dropped — also
/// when the job unwinds — so its graph's queue and [`DsdServer::drain`]
/// never wait on a job that is gone.
struct Settle<'a> {
    shared: &'a Shared,
    graph: String,
    generation: u64,
    update: bool,
    expired: bool,
}

impl Drop for Settle<'_> {
    fn drop(&mut self) {
        let shared = self.shared;
        let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.in_flight -= 1;
        if self.expired {
            state.shed_deadline += 1;
        } else {
            state.completed += 1;
        }
        // Settle only on the registration the job ran against: after an
        // evict or re-register the name may hold a new entry that never
        // counted this job.
        if let Some(entry) = state
            .graphs
            .get_mut(&self.graph)
            .filter(|entry| entry.generation == self.generation)
        {
            if self.update {
                entry.update_running = false;
            } else {
                entry.running_queries -= 1;
            }
        }
        // Finishing can unblock a barriered update (or the jobs behind one);
        // wake the pool to re-scan.
        if state.queued > 0 {
            shared.work.notify_all();
        }
        notify_if_idle(shared, &state);
    }
}

fn notify_if_idle(shared: &Shared, state: &PipeState) {
    if state.queued == 0 && state.in_flight == 0 {
        shared.idle.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::RepairPanics;
    use crate::oracle::{oracle_for, DensityOracle};
    use crate::Method;
    use dsd_graph::{VertexId, VertexSet};
    use dsd_motif::Pattern;

    /// A job that panics fails alone: the update whose repair panics
    /// returns [`ServeError::Internal`], the next query on that graph is
    /// answered on the epoch it had, and `drain` returns.
    #[test]
    fn a_panicking_update_fails_its_job_and_keeps_the_graph_serving() {
        let server = DsdServer::new(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
        let psi = Pattern::triangle();
        let engine = server.register("g", g.clone());
        engine.install_oracle(&psi, RepairPanics::oracle(&psi));
        let query = || DsdRequest::new(&psi).on("g").method(Method::CoreExact);
        // Asserts each job dispatches, so a wedged queue fails the test
        // instead of hanging it.
        let run = |ticket: Result<Ticket, ServeError>| {
            let ticket = ticket.expect("admitted");
            assert!(server.step(), "the submitted job is dispatchable");
            ticket.wait()
        };

        run(server.submit(query())).expect("the warm-up query is answered");
        let update = run(server.submit_update("g", vec![GraphUpdate::Insert(1, 3)]));
        assert!(
            matches!(&update, Err(ServeError::Internal(m)) if m == "injected repair fault"),
            "{update:?}"
        );
        let answered = run(server.submit(query()))
            .expect("the graph keeps serving")
            .solution()
            .expect("a query");
        let cold = DsdEngine::new(g).solve(&query());
        assert_eq!(answered.stats.epoch, 0);
        assert_eq!(answered.vertices, cold.vertices);
        assert_eq!(answered.density.to_bits(), cold.density.to_bits());
        let stats = server.stats();
        assert_eq!((stats.in_flight, stats.queued, stats.completed), (0, 0, 3));
        server.drain();
    }

    /// A streaming oracle for Ψ whose first read blocks until the test
    /// lets it go, so the query reading it provably stays in flight.
    struct Held {
        inner: Box<dyn DensityOracle>,
        hold: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
    }

    impl Held {
        fn read(&self) -> &dyn DensityOracle {
            let held = self.hold.lock().unwrap().take();
            if let Some((arrived, release)) = held {
                arrived.send(()).unwrap();
                let _ = release.recv();
            }
            self.inner.as_ref()
        }
    }

    impl DensityOracle for Held {
        fn psi_size(&self) -> usize {
            self.read().psi_size()
        }

        fn degrees(&self, g: &Graph, alive: &VertexSet) -> Vec<u64> {
            self.read().degrees(g, alive)
        }

        fn removal_decrements(
            &self,
            g: &Graph,
            alive: &VertexSet,
            v: VertexId,
        ) -> Vec<(VertexId, u64)> {
            self.read().removal_decrements(g, alive, v)
        }
    }

    /// A query still running on an evicted graph settles on the
    /// registration it ran against, never on a newer one under the same
    /// name: after evict + re-register, updates and queries on the new
    /// graph dispatch normally. Driven with `workers: 0` and a deadline,
    /// so a wedged queue fails the test instead of hanging it.
    #[test]
    fn reregistration_during_an_in_flight_query_keeps_the_new_queue_live() {
        let server = Arc::new(DsdServer::new(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        }));
        let toy = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]);
        let psi = Pattern::triangle();
        let old = server.register("g", toy.clone());
        let (arrived_tx, arrived) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let held = Held {
            inner: oracle_for(&psi),
            hold: Mutex::new(Some((arrived_tx, release_rx))),
        };
        old.install_oracle(&psi, Arc::new(held));
        let q = || DsdRequest::new(&psi).on("g").method(Method::CoreExact);

        let first = server.submit(q()).unwrap();
        let stepper = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.step())
        };
        arrived.recv().expect("the query reached the engine");
        assert_eq!(server.stats().in_flight, 1);
        assert!(server.evict("g"));
        server.register("g", toy);
        drop(release);
        assert!(
            stepper
                .join()
                .expect("settling the old query must not panic"),
            "the stepper ran the query"
        );
        let first = first.wait().unwrap().solution().unwrap();
        assert_eq!((first.vertices.len(), first.stats.epoch), (4, 0));

        let update = server
            .submit_update("g", vec![GraphUpdate::Insert(3, 5)])
            .unwrap();
        let after = server.submit(q()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut outcomes = Vec::new();
        for ticket in [update, after] {
            let outcome = loop {
                if let Some(outcome) = ticket.poll() {
                    break outcome.expect("job ran");
                }
                assert!(
                    Instant::now() < deadline,
                    "the re-registered graph's queue is wedged: {:?}",
                    server.stats()
                );
                server.step();
            };
            outcomes.push(outcome);
        }
        assert!(matches!(outcomes[0], ServeOutcome::Updated(_)));
        let after = outcomes.pop().unwrap().solution().unwrap();
        assert_eq!(after.stats.epoch, 1, "the query ran after the update");
        let stats = server.stats();
        assert_eq!((stats.queued, stats.in_flight), (0, 0));
    }
}
