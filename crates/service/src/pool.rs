//! A fixed-size pool of worker threads, each owning one [`QueryEngine`],
//! fed from a bounded queue with reject-on-full admission control.
//!
//! The engine is deliberately single-threaded (all scratch is
//! epoch-stamped and reused across queries), so concurrency comes from
//! *replication*: `N` workers each build a private engine against the
//! shared graph and drain a common queue. Submitting to a full queue
//! fails immediately with [`ServiceError::Overloaded`] rather than
//! building an unbounded backlog — the caller (or its client) decides
//! whether to retry.
//!
//! ## Graph epochs
//!
//! Every job carries the [`GraphEpoch`] pinned at admission, and each
//! worker keeps its engine attached to the epoch of the job it is
//! running: when a popped job's epoch differs, the worker parks the
//! engine (releasing its pin) and retargets it onto the new epoch's
//! graph. Weight updates never change the node count, so the engine's
//! `n`-sized scratch carries over untouched and a swap costs no
//! allocation — warmed scratch (and the zero-alloc steady state)
//! survives every epoch for the life of the worker. Pins are taken in
//! admission order and publishes are monotonic, so the queue is
//! monotone in epoch id and a worker retargets at most once per swap.
//!
//! ## Target rows
//!
//! Before running a query of an algorithm that reads target bounds, the
//! worker attaches its pinned epoch's exact row for the query's target
//! set, building it on the set's second sighting (see the `rows`
//! module). Looking up a held row does not allocate.
//!
//! ## Reply-slot integrity
//!
//! A worker that dies between popping a job and filling its reply slot
//! would strand the submitter (and, through the single-flight cache,
//! every later request for the same key). Queries run under
//! `catch_unwind`, and a scope guard backstops the slot besides: whatever
//! unwinds, the slot fills and waiters observe a retryable error.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kpj_core::{Algorithm, Deadline, KpjResult, ParkedEngine, QueryEngine};
use kpj_graph::{Graph, NodeId, Reduction};
use kpj_landmark::LandmarkIndex;
use kpj_obs::Stage;

use crate::epoch::{EpochCell, GraphEpoch};
use crate::flight::FlightRecorder;
use crate::metrics::{algorithm_index, event, gauge, Metrics, SLOW_SHED_US};
use crate::rows::{serve_row, Sightings, TargetRows};
use crate::ServiceError;

/// One KPJ query as submitted to the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// Which of the paper's algorithms to run.
    pub algorithm: Algorithm,
    /// Source nodes (GKPJ when more than one).
    pub sources: Vec<NodeId>,
    /// Target category.
    pub targets: Vec<NodeId>,
    /// Number of paths requested.
    pub k: usize,
    /// Optional per-query budget; `Some(0)` expires immediately.
    pub timeout_ms: Option<u64>,
}

impl QueryRequest {
    /// The deadline implied by `timeout_ms`, anchored at "now".
    pub fn deadline(&self) -> Deadline {
        match self.timeout_ms {
            Some(ms) => Deadline::after(Duration::from_millis(ms)),
            None => Deadline::none(),
        }
    }
}

/// Pool sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Worker-thread count; `0` means one per available CPU.
    pub workers: usize,
    /// Maximum queued (not yet running) requests before admission
    /// control rejects with [`ServiceError::Overloaded`].
    pub queue_capacity: usize,
    /// Unused: the engine runs every query on one thread. Kept only
    /// because `perfbench/src/setup.rs` still sets it; the next change
    /// to that benchmark deletes the field.
    pub par_threads_max: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 0,
            queue_capacity: 128,
            par_threads_max: 0,
        }
    }
}

impl PoolConfig {
    /// `workers` with the `0 = auto` rule applied.
    pub fn effective_workers(&self) -> usize {
        resolve_workers(self.workers)
    }
}

/// Resolve a `0 = one per available CPU` worker count.
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Observability attachments for the pool. Workers own the engines, so
/// everything that reads engine-side state (span traces, per-query work
/// counters) has to happen on the worker thread — these hooks are how
/// the service hands that work down.
#[derive(Clone)]
pub struct PoolHooks {
    /// Per-(algorithm, stage) histogram + work-counter registry. Workers
    /// drain each query's span trace into it and absorb [`kpj_core`]
    /// `QueryStats` counters.
    pub metrics: Option<Arc<Metrics>>,
    /// Slow-query flight recorder; consulted after every successful
    /// query with the engine-side latency.
    pub flight: Option<Arc<FlightRecorder>>,
    /// Trace 1-in-N queries (`0` disables tracing entirely).
    pub trace_sample: u32,
    /// Chaos hook: called on the worker thread right before each query
    /// executes, inside the panic isolation boundary. Tests (and fault
    /// drills) inject panics here to prove a dying worker can neither
    /// strand its submitter nor wedge a single-flight cache key.
    pub fault: Option<FaultHook>,
}

/// Shared chaos-injection callback (see [`PoolHooks::fault`]).
pub type FaultHook = Arc<dyn Fn(&QueryRequest) + Send + Sync>;

impl Default for PoolHooks {
    fn default() -> Self {
        PoolHooks {
            metrics: None,
            flight: None,
            trace_sample: 1,
            fault: None,
        }
    }
}

/// Write-once reply slot shared between a worker and the submitter.
struct ReplySlot {
    result: Mutex<Option<Result<KpjResult, ServiceError>>>,
    done: Condvar,
}

impl ReplySlot {
    fn new() -> Arc<ReplySlot> {
        Arc::new(ReplySlot {
            result: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn fill(&self, value: Result<KpjResult, ServiceError>) {
        let mut slot = self.result.lock().unwrap();
        if slot.is_none() {
            *slot = Some(value);
            self.done.notify_all();
        }
    }
}

/// Handle to a submitted query; [`wait`](JobHandle::wait) blocks until
/// the worker publishes the result.
pub struct JobHandle {
    slot: Arc<ReplySlot>,
}

impl JobHandle {
    /// Block until the query completes and take its result.
    pub fn wait(self) -> Result<KpjResult, ServiceError> {
        let mut guard = self.slot.result.lock().unwrap();
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = self.slot.done.wait(guard).unwrap();
        }
    }
}

/// Fills the reply slot with a retryable error if the job span unwinds
/// before a real result lands. `fill` is write-once, so on the normal
/// path this drop is a no-op.
struct SlotGuard(Arc<ReplySlot>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.fill(Err(ServiceError::Internal(
            "worker died before replying".to_string(),
        )));
    }
}

struct Job {
    request: QueryRequest,
    slot: Arc<ReplySlot>,
    submitted: Instant,
    /// The graph version pinned at admission; the query runs to
    /// completion on it even if newer epochs publish meanwhile.
    epoch: Arc<GraphEpoch>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    capacity: usize,
    executed: AtomicU64,
    /// Workers currently executing a job (the `busy_workers` gauge).
    busy: AtomicUsize,
    /// Mirror of [`PoolHooks::metrics`], reachable from the pop sites so
    /// the `queue_depth` gauge tracks both ends of the queue.
    metrics: Option<Arc<Metrics>>,
    /// Target sets seen without a row, and the row-build single flight.
    sightings: Sightings,
}

impl Shared {
    /// Mirror the queue depth into the gauge layer. Callers hold the
    /// queue lock, so the gauge moves monotonically with the queue.
    fn note_queue_depth(&self, depth: usize) {
        if let Some(metrics) = &self.metrics {
            metrics.gauges().set(gauge::QUEUE_DEPTH, depth as i64);
        }
    }
}

/// The worker pool. Dropping it drains the queue (already-admitted
/// queries still run), then joins every worker.
pub struct EnginePool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    worker_count: usize,
    epochs: Arc<EpochCell>,
}

impl EnginePool {
    /// Spawn `config` workers over a shared graph and optional landmark
    /// index. Each worker constructs its own [`QueryEngine`] (with its
    /// own scratch) inside its thread.
    pub fn new(
        graph: Arc<Graph>,
        landmarks: Option<Arc<LandmarkIndex>>,
        config: PoolConfig,
    ) -> EnginePool {
        EnginePool::with_hooks(graph, landmarks, config, PoolHooks::default())
    }

    /// [`new`](EnginePool::new) with observability hooks attached.
    pub fn with_hooks(
        graph: Arc<Graph>,
        landmarks: Option<Arc<LandmarkIndex>>,
        config: PoolConfig,
        hooks: PoolHooks,
    ) -> EnginePool {
        EnginePool::with_hooks_reduced(graph, landmarks, None, config, hooks)
    }

    /// [`with_hooks`](EnginePool::with_hooks) for a reduced graph: every
    /// worker engine expands answer paths through `reduction`, so results
    /// leave the pool in original node ids.
    pub fn with_hooks_reduced(
        graph: Arc<Graph>,
        landmarks: Option<Arc<LandmarkIndex>>,
        reduction: Option<Arc<Reduction>>,
        config: PoolConfig,
        hooks: PoolHooks,
    ) -> EnginePool {
        let worker_count = config.effective_workers();
        let epochs = Arc::new(EpochCell::new_reduced(graph, landmarks, reduction));
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            executed: AtomicU64::new(0),
            busy: AtomicUsize::new(0),
            metrics: hooks.metrics.clone(),
            sightings: Sightings::default(),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let epochs = Arc::clone(&epochs);
                let hooks = hooks.clone();
                std::thread::Builder::new()
                    .name(format!("kpj-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &epochs, &hooks))
                    .expect("spawn pool worker")
            })
            .collect();
        EnginePool {
            shared,
            workers,
            worker_count,
            epochs,
        }
    }

    /// Number of worker threads actually running.
    pub fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// Queries executed (not rejected) so far — used by tests to prove
    /// single-flight deduplication reached the pool exactly once.
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Jobs admitted but not yet popped by a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().jobs.len()
    }

    /// Queued-request limit behind admission control.
    pub fn queue_capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Workers currently executing a job.
    pub fn busy(&self) -> usize {
        self.shared.busy.load(Ordering::Relaxed)
    }

    /// The epoch cell: pin for admission, inspect for liveness.
    pub fn epochs(&self) -> &Arc<EpochCell> {
        &self.epochs
    }

    /// Publish the next epoch (see [`EpochCell::publish`]) and wake
    /// every parked worker, so none of them keeps a superseded epoch
    /// pinned through an idle warm engine.
    pub fn publish(
        &self,
        graph: Arc<Graph>,
        landmarks: Option<Arc<LandmarkIndex>>,
        reduction: Option<Arc<Reduction>>,
        rows: TargetRows,
        touched_edges: usize,
    ) -> Arc<GraphEpoch> {
        let next = self
            .epochs
            .publish(graph, landmarks, reduction, rows, touched_edges);
        self.shared.not_empty.notify_all();
        next
    }

    /// Submit a query pinned to the current epoch. Returns
    /// [`ServiceError::Overloaded`] when the queue is at capacity and
    /// [`ServiceError::ShuttingDown`] after the pool starts tearing down.
    pub fn submit(&self, request: QueryRequest) -> Result<JobHandle, ServiceError> {
        self.submit_pinned(request, self.epochs.pin())
    }

    /// Submit a query pinned to a specific epoch (normally the one the
    /// caller pinned at admission, so the cache key and the executing
    /// graph can never disagree).
    pub fn submit_pinned(
        &self,
        request: QueryRequest,
        epoch: Arc<GraphEpoch>,
    ) -> Result<JobHandle, ServiceError> {
        let slot = ReplySlot::new();
        {
            let mut state = self.shared.state.lock().unwrap();
            if state.closed {
                return Err(ServiceError::ShuttingDown);
            }
            if state.jobs.len() >= self.shared.capacity {
                if let Some(metrics) = &self.shared.metrics {
                    metrics.record_event(
                        event::ADMISSION_REJECT,
                        [state.jobs.len() as u64, self.shared.capacity as u64, 0, 0],
                    );
                }
                return Err(ServiceError::Overloaded);
            }
            state.jobs.push_back(Job {
                request,
                slot: Arc::clone(&slot),
                submitted: Instant::now(),
                epoch,
            });
            self.shared.note_queue_depth(state.jobs.len());
        }
        self.shared.not_empty.notify_one();
        Ok(JobHandle { slot })
    }

    /// Convenience: submit and block for the result.
    pub fn run(&self, request: QueryRequest) -> Result<KpjResult, ServiceError> {
        self.submit(request)?.wait()
    }
}

impl Drop for EnginePool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.closed = true;
        }
        self.shared.not_empty.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn build_engine<'g>(
    graph: &'g Graph,
    landmarks: Option<&'g LandmarkIndex>,
    reduction: Option<&'g Reduction>,
    hooks: &PoolHooks,
) -> QueryEngine<'g> {
    let mut engine = QueryEngine::new(graph);
    if let Some(idx) = landmarks {
        engine = engine.with_landmarks(idx);
    }
    if let Some(red) = reduction {
        engine = engine.with_reduction(red);
    }
    engine.set_trace_sampling(hooks.trace_sample);
    engine
}

/// Drain the engine's span ring and the query's work counters into the
/// registry, then hand a genuinely slow query to the flight recorder.
/// Runs *before* the reply slot fills so that by the time a caller
/// observes the answer, its metrics and any flight record exist.
#[allow(clippy::too_many_arguments)]
fn observe_query(
    engine: &QueryEngine<'_>,
    graph: &Graph,
    reduction: Option<&Reduction>,
    hooks: &PoolHooks,
    request: &QueryRequest,
    queue_wait: Duration,
    exec: Duration,
    result: &KpjResult,
) {
    if let Some(metrics) = &hooks.metrics {
        let registry = metrics.registry();
        let alg = algorithm_index(request.algorithm);
        registry.record(alg, Stage::QueueWait, queue_wait);
        let (older, newer) = engine.trace_spans();
        for span in older.iter().chain(newer) {
            registry.record_ns(alg, span.stage, span.dur_ns);
        }
        metrics.absorb_stats(request.algorithm, &result.stats);
        if let Some(red) = reduction {
            // Interior nodes can only appear in an answer via chain
            // re-expansion, so counting them measures how much of the
            // reduced-away graph this query's paths passed through.
            let hops: usize = result
                .paths
                .iter()
                .map(|p| p.nodes.iter().filter(|&&n| red.is_interior(n)).count())
                .sum();
            metrics.gauges().set(gauge::EXPAND_HOPS, hops as i64);
        }
    }
    if let Some(flight) = &hooks.flight {
        let dumped = flight
            .maybe_record(graph, request, exec, engine.trace_spans(), result)
            .is_some();
        if let (true, Some(metrics)) = (dumped, &hooks.metrics) {
            metrics.record_event(
                event::FLIGHT_DUMP,
                [
                    algorithm_index(request.algorithm) as u64,
                    exec.as_micros() as u64,
                    flight.written(),
                    0,
                ],
            );
        }
    }
}

/// Record a worker shedding a superseded epoch: the `shed_wait_us` gauge
/// tracks how long the retired graph lingered after being replaced, and
/// sheds that out-stay [`SLOW_SHED_US`] earn an extra `slow_shed` event —
/// the signal that idle workers are holding memory hostage.
fn note_shed(hooks: &PoolHooks, epoch: &GraphEpoch) {
    let Some(metrics) = &hooks.metrics else {
        return;
    };
    let wait_us = epoch
        .superseded_elapsed()
        .map_or(0, |d| d.as_micros() as u64);
    metrics.gauges().set(gauge::SHED_WAIT_US, wait_us as i64);
    metrics.record_event(event::EPOCH_SHED, [epoch.id(), wait_us, 0, 0]);
    if wait_us > SLOW_SHED_US {
        metrics.record_event(event::SLOW_SHED, [epoch.id(), wait_us, 0, 0]);
    }
}

/// Pop the next job, or `None` once the queue is drained and closed.
fn pop_job(shared: &Shared) -> Option<Job> {
    let mut state = shared.state.lock().unwrap();
    loop {
        if let Some(job) = state.jobs.pop_front() {
            shared.note_queue_depth(state.jobs.len());
            return Some(job);
        }
        if state.closed {
            return None;
        }
        state = shared.not_empty.wait(state).unwrap();
    }
}

/// What an engine-holding worker should do next.
enum Next {
    /// Run this job (same or different epoch — caller checks).
    Job(Job),
    /// Queue is idle and the held epoch is superseded: drop the warm
    /// engine so the old graph can retire, then wait epoch-free.
    Shed,
    /// Pool is shutting down.
    Closed,
}

/// Like [`pop_job`], but refuses to park while pinning a superseded
/// epoch: an idle worker's warm engine must not keep a retired graph
/// alive indefinitely. Publishers nudge the queue condvar so sleeping
/// workers re-run this check.
fn next_job(shared: &Shared, epochs: &EpochCell, held: &GraphEpoch) -> Next {
    let mut state = shared.state.lock().unwrap();
    loop {
        if let Some(job) = state.jobs.pop_front() {
            shared.note_queue_depth(state.jobs.len());
            return Next::Job(job);
        }
        if state.closed {
            return Next::Closed;
        }
        if epochs.current_id() != held.id() {
            return Next::Shed;
        }
        state = shared.not_empty.wait(state).unwrap();
    }
}

fn worker_loop(shared: &Shared, epochs: &EpochCell, hooks: &PoolHooks) {
    // A job popped under one epoch's engine that belongs to the next
    // epoch; carried across the retarget below.
    let mut carry: Option<Job> = None;
    // The engine's warm scratch between epochs, detached from any graph.
    let mut parked: Option<ParkedEngine> = None;
    // Pooled normalized-target-set buffer for the row lookup.
    let mut row_key: Vec<NodeId> = Vec::new();
    'epoch: loop {
        let mut job = match carry.take().or_else(|| pop_job(shared)) {
            Some(job) => job,
            None => return,
        };
        // The engine borrows this stack-local pin, so it can never
        // outlive the epoch's graph; dropping the engine at the end of
        // the scope releases the worker's share of the pin.
        let epoch = Arc::clone(&job.epoch);
        let graph: &Graph = epoch.graph();
        let landmarks: Option<&LandmarkIndex> = epoch.landmarks().map(Arc::as_ref);
        let reduction: Option<&Reduction> = epoch.reduction().map(Arc::as_ref);
        let mut engine = match parked.take() {
            Some(warm) => warm.retarget(graph, landmarks, reduction),
            None => build_engine(graph, landmarks, reduction, hooks),
        };
        loop {
            shared.executed.fetch_add(1, Ordering::Relaxed);
            let queue_wait = job.submitted.elapsed();
            // Whatever happens below — including panics outside the
            // catch_unwind, e.g. in an engine rebuild — the submitter
            // gets an answer.
            let guard = SlotGuard(Arc::clone(&job.slot));
            let r = &job.request;
            shared.busy.fetch_add(1, Ordering::Relaxed);
            if let Some(metrics) = &hooks.metrics {
                metrics.gauges().add(gauge::BUSY_WORKERS, 1);
            }
            let started = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(fault) = &hooks.fault {
                    fault(r);
                }
                let deadline = r.deadline();
                // Algorithms that read target bounds get the epoch's exact
                // row for their target set — held, or built right here on
                // the set's second sighting (the `rows` module). The build
                // cannot be cancelled, so a query with a timeout never
                // builds.
                let row = if r.algorithm.reads_target_bounds() {
                    serve_row(
                        &epoch,
                        &r.targets,
                        &mut row_key,
                        &shared.sightings,
                        r.timeout_ms.is_none(),
                        hooks.metrics.as_deref(),
                    )
                } else {
                    None
                };
                engine.set_target_row(row);
                let result =
                    engine.query_multi_deadline(r.algorithm, &r.sources, &r.targets, r.k, deadline);
                // Inside the isolation boundary on purpose: a panicking
                // metrics sink or flight recorder must not strand the
                // submitter either.
                if let Ok(result) = &result {
                    observe_query(
                        &engine,
                        graph,
                        reduction,
                        hooks,
                        r,
                        queue_wait,
                        started.elapsed(),
                        result,
                    );
                }
                result
            }));
            shared.busy.fetch_sub(1, Ordering::Relaxed);
            if let Some(metrics) = &hooks.metrics {
                metrics.gauges().add(gauge::BUSY_WORKERS, -1);
            }
            match outcome {
                Ok(result) => job.slot.fill(result.map_err(ServiceError::Query)),
                Err(_) => {
                    // The engine's epoch-stamped scratch may be
                    // mid-update; rebuild it rather than trust a
                    // half-written state.
                    job.slot
                        .fill(Err(ServiceError::Internal("query panicked".to_string())));
                    engine = build_engine(graph, landmarks, reduction, hooks);
                }
            }
            drop(guard); // no-op: the slot is filled on every path above
            job = match next_job(shared, epochs, &epoch) {
                Next::Job(next) => {
                    if Arc::ptr_eq(&next.epoch, &epoch) {
                        next
                    } else {
                        // Epoch switch: retarget the engine onto the new
                        // graph. The queue is monotone in epoch id, so
                        // this happens at most once per published update.
                        carry = Some(next);
                        parked = Some(engine.park());
                        continue 'epoch;
                    }
                }
                Next::Shed => {
                    note_shed(hooks, &epoch);
                    parked = Some(engine.park());
                    continue 'epoch;
                }
                Next::Closed => return,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_graph::GraphBuilder;

    fn diamond() -> Arc<Graph> {
        let mut b = GraphBuilder::new(4);
        b.add_bidirectional(0, 1, 1).unwrap();
        b.add_bidirectional(1, 2, 1).unwrap();
        b.add_bidirectional(0, 3, 2).unwrap();
        b.add_bidirectional(3, 2, 2).unwrap();
        Arc::new(b.build())
    }

    fn request(k: usize) -> QueryRequest {
        QueryRequest {
            algorithm: Algorithm::IterBoundI,
            sources: vec![0],
            targets: vec![2],
            k,
            timeout_ms: None,
        }
    }

    #[test]
    fn pool_answers_queries() {
        let pool = EnginePool::new(
            diamond(),
            None,
            PoolConfig {
                workers: 2,
                queue_capacity: 8,
                ..Default::default()
            },
        );
        assert_eq!(pool.worker_count(), 2);
        let result = pool.run(request(2)).unwrap();
        let lengths: Vec<u64> = result.paths.iter().map(|p| p.length).collect();
        assert_eq!(lengths, vec![2, 4]);
        assert_eq!(pool.executed(), 1);
    }

    #[test]
    fn zero_workers_means_available_parallelism() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
        let pool = EnginePool::new(
            diamond(),
            None,
            PoolConfig {
                workers: 0,
                queue_capacity: 8,
                ..Default::default()
            },
        );
        assert!(pool.worker_count() >= 1);
        assert!(pool.run(request(1)).is_ok());
    }

    #[test]
    fn bad_query_surfaces_engine_error() {
        let pool = EnginePool::new(
            diamond(),
            None,
            PoolConfig {
                workers: 1,
                queue_capacity: 8,
                ..Default::default()
            },
        );
        let mut bad = request(1);
        bad.sources = vec![99];
        match pool.run(bad) {
            Err(ServiceError::Query(kpj_core::QueryError::SourceOutOfRange(99))) => {}
            other => panic!("expected SourceOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn worker_hooks_populate_the_stage_registry() {
        let metrics = Arc::new(Metrics::new());
        let pool = EnginePool::with_hooks(
            diamond(),
            None,
            PoolConfig {
                workers: 1,
                queue_capacity: 8,
                ..Default::default()
            },
            PoolHooks {
                metrics: Some(Arc::clone(&metrics)),
                ..Default::default()
            },
        );
        pool.run(request(2)).unwrap();
        let idx = algorithm_index(Algorithm::IterBoundI);
        // Queue wait is measured by the worker itself.
        assert_eq!(
            metrics.registry().histogram(idx, Stage::QueueWait).count(),
            1
        );
        // Work counters travel from the engine's QueryStats into the
        // registry on the worker thread.
        let snap = metrics.snapshot();
        assert!(snap.heap_pops > 0, "heap pops not absorbed: {snap}");
        // Engine-side spans land in their per-stage histograms too.
        assert!(
            metrics.registry().histogram(idx, Stage::SptBuild).count() > 0
                || metrics
                    .registry()
                    .histogram(idx, Stage::DeviationRound)
                    .count()
                    > 0,
            "no engine spans reached the registry"
        );
    }

    #[test]
    fn flight_dump_events_match_the_files_written() {
        // Threshold 0 makes every query slow; a cap of 1 lets exactly one
        // through. Queries past the cap write no file, so they must not
        // journal a dump either.
        let dir = std::env::temp_dir().join(format!("kpj-pool-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = FlightRecorder::new(&dir, Duration::ZERO)
            .unwrap()
            .with_max_records(1);
        let metrics = Arc::new(Metrics::new());
        let pool = EnginePool::with_hooks(
            diamond(),
            None,
            PoolConfig {
                workers: 1,
                queue_capacity: 8,
                ..Default::default()
            },
            PoolHooks {
                metrics: Some(Arc::clone(&metrics)),
                flight: Some(Arc::new(recorder)),
                ..Default::default()
            },
        );
        for k in 1..=3 {
            pool.run(request(k)).unwrap();
        }
        let files = crate::flight::list_records(&dir).unwrap();
        assert_eq!(files.len(), 1, "{files:?}");
        let dumps: Vec<_> = metrics
            .journal()
            .tail(64)
            .into_iter()
            .filter(|e| e.kind == event::FLIGHT_DUMP)
            .collect();
        assert_eq!(dumps.len(), 1, "{dumps:?}");
        assert_eq!(dumps[0].args[2], 1, "files written so far");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_query_reports_and_worker_recovers() {
        // A fault injected at the same point a panicking metrics sink
        // would fire (after pop, before fill) must produce a retryable
        // error — not a stranded submitter — and the single worker must
        // keep serving afterwards.
        let poison = 3usize;
        let pool = EnginePool::with_hooks(
            diamond(),
            None,
            PoolConfig {
                workers: 1,
                queue_capacity: 8,
                ..Default::default()
            },
            PoolHooks {
                fault: Some(Arc::new(move |r: &QueryRequest| {
                    if r.k == poison {
                        panic!("injected worker fault");
                    }
                })),
                ..Default::default()
            },
        );
        match pool.run(request(poison)) {
            Err(ServiceError::Internal(msg)) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected Internal, got {other:?}"),
        }
        // Same worker, fresh engine: still answers.
        assert_eq!(pool.run(request(2)).unwrap().paths.len(), 2);
        assert_eq!(pool.executed(), 2);
    }

    #[test]
    fn epoch_swap_retargets_workers_and_pins_run_to_completion() {
        let graph = diamond();
        let pool = EnginePool::new(
            Arc::clone(&graph),
            None,
            PoolConfig {
                workers: 2,
                queue_capacity: 16,
                ..Default::default()
            },
        );
        assert_eq!(pool.run(request(1)).unwrap().paths.path(0).length, 2);

        // Pin the old epoch the way an admitted query would, then publish
        // a version where the short route costs 50.
        let old_pin = pool.epochs().pin();
        let (updated, _) = graph
            .with_updated_weights(&[kpj_graph::WeightUpdate {
                from: 0,
                to: 1,
                weight: 50,
            }])
            .unwrap();
        pool.publish(Arc::new(updated), None, None, TargetRows::default(), 1);

        // New submissions see the new weights...
        assert_eq!(pool.run(request(1)).unwrap().paths.path(0).length, 4);
        // ...while a job explicitly pinned to the old epoch still runs on
        // the old graph.
        let handle = pool
            .submit_pinned(request(1), Arc::clone(&old_pin))
            .unwrap();
        assert_eq!(handle.wait().unwrap().paths.path(0).length, 2);
        drop(old_pin);
        // Idle workers shed superseded engines (the publish nudged them;
        // the pinned job's worker sheds as soon as its queue goes idle) —
        // poll briefly for the old epoch to retire.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.epochs().live_epochs() > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.epochs().live_epochs(), 1);
    }

    #[test]
    fn queued_work_completes_on_drop() {
        let pool = EnginePool::new(
            diamond(),
            None,
            PoolConfig {
                workers: 1,
                queue_capacity: 64,
                ..Default::default()
            },
        );
        // The diamond holds exactly two simple 0→2 paths.
        let handles: Vec<JobHandle> = (0..16).map(|_| pool.submit(request(3)).unwrap()).collect();
        drop(pool);
        for h in handles {
            assert_eq!(h.wait().unwrap().paths.len(), 2);
        }
    }
}
