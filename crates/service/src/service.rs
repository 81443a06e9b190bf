//! [`KpjService`]: the query-serving facade combining the engine pool,
//! the single-flight result cache, per-query deadlines and the metrics
//! registry. The TCP server and the in-process batch API are both thin
//! wrappers over [`KpjService::execute`].

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use kpj_core::{KpjResult, QueryError};
use kpj_graph::{
    EdgeDelta, Graph, IdTranslation, NodeRemap, Reduction, TranslateError, WeightUpdate,
};
use kpj_landmark::LandmarkIndex;
use kpj_obs::Stage;

use crate::cache::{CacheKey, Lookup, ResultCache};
use crate::epoch::GraphEpoch;
use crate::flight::FlightRecorder;
use crate::metrics::{algorithm_index, event, gauge, Metrics, MetricsSnapshot};
use crate::pool::{EnginePool, PoolConfig, PoolHooks, QueryRequest};
use crate::rows::RowSpare;
use crate::ServiceError;

/// A completed query answer, shared (via `Arc`) between the result cache
/// and every caller that hit it.
///
/// Besides the [`KpjResult`] itself (reachable through `Deref`), the
/// answer memoizes its JSON wire encoding: the first front-end that needs
/// the response body renders it once, straight off the flat
/// [`PathSet`](kpj_graph::PathSet) — and every later cache hit serves the
/// very same bytes. A cache hit therefore copies no paths at all: not into
/// a result clone (the `Arc` is shared) and not into an encoder (the body
/// string is shared too).
pub struct Answer {
    result: KpjResult,
    /// When the graph was locality-reordered at rest (v2 storage), path
    /// nodes are internal ids; the wire body translates them back to the
    /// external (original) ids the client speaks. `None` = identity.
    remap: Option<Arc<NodeRemap>>,
    /// Lazily rendered body fields, `[without paths, with paths]`.
    body: [OnceLock<String>; 2],
}

impl Answer {
    /// Wrap a freshly computed result.
    pub fn new(result: KpjResult) -> Answer {
        Answer::with_remap(result, None)
    }

    /// Wrap a result computed on a reordered graph; `remap` translates
    /// its internal path nodes back to external ids on the wire.
    pub fn with_remap(result: KpjResult, remap: Option<Arc<NodeRemap>>) -> Answer {
        Answer {
            result,
            remap,
            body: [OnceLock::new(), OnceLock::new()],
        }
    }

    /// The underlying result (also available through `Deref`).
    pub fn result(&self) -> &KpjResult {
        &self.result
    }

    /// The JSON response fields that follow `"ok":true` — everything but
    /// the per-request `id` envelope: `count`, `lengths`, optionally
    /// `paths`, and `stats`. Rendered at most once per variant; repeat
    /// calls (cache hits) return the same interned string.
    pub fn wire_body(&self, want_paths: bool) -> &str {
        self.body[usize::from(want_paths)].get_or_init(|| self.render_body(want_paths))
    }

    /// Serialize by walking the flat path storage directly — no
    /// intermediate owned paths, no JSON value tree.
    fn render_body(&self, want_paths: bool) -> String {
        let paths = &self.result.paths;
        let mut out = String::with_capacity(64 + paths.total_nodes() * 4);
        write!(out, "\"count\":{}", paths.len()).unwrap();
        out.push_str(",\"lengths\":[");
        for (i, p) in paths.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{}", p.length).unwrap();
        }
        out.push(']');
        if want_paths {
            out.push_str(",\"paths\":[");
            for (i, p) in paths.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                for (j, &n) in p.nodes.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let n = self.remap.as_ref().map_or(n, |r| r.to_external(n));
                    write!(out, "{n}").unwrap();
                }
                out.push(']');
            }
            out.push(']');
        }
        // One serializer for every QueryStats field — the wire `stats`
        // block and the metrics registry can never drift apart again.
        out.push_str(",\"stats\":");
        self.result.stats.write_json(&mut out);
        out
    }
}

impl std::ops::Deref for Answer {
    type Target = KpjResult;

    fn deref(&self) -> &KpjResult {
        &self.result
    }
}

impl std::fmt::Debug for Answer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Answer")
            .field("result", &self.result)
            .finish_non_exhaustive()
    }
}

/// Service-level configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Engine-pool sizing.
    pub pool: PoolConfig,
    /// Result-cache capacity in completed entries; `0` disables caching
    /// (every request goes to the pool).
    pub cache_capacity: usize,
    /// Trace 1-in-N queries through the engine span tracer (`0` turns
    /// span recording off; work counters and queue-wait are always on).
    pub trace_sample: u32,
    /// Latency threshold for the slow-query flight recorder; `None`
    /// disables recording.
    pub slow_query_ms: Option<u64>,
    /// Directory the flight recorder writes `.kpjcase` files into.
    /// `None` means `kpj-flight-records` under the working directory.
    pub flight_dir: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            pool: PoolConfig::default(),
            cache_capacity: 1024,
            trace_sample: 1,
            slow_query_ms: None,
            flight_dir: None,
        }
    }
}

/// How many times `execute` re-tries after a *shared* flight it was
/// waiting on fails. The owner's failure (deadline, overload) is not
/// necessarily ours — we get a fresh attempt, but a bounded one.
const SHARED_RETRIES: usize = 2;

/// A thread-safe KPJ query service over one graph.
pub struct KpjService {
    pool: EnginePool,
    cache: Option<ResultCache>,
    metrics: Arc<Metrics>,
    flight: Option<Arc<FlightRecorder>>,
    /// The id-space boundary: how external (client-visible) node ids map
    /// to the engine's ids — identity, a locality-reorder permutation, or
    /// a graph reduction (DESIGN.md §15).
    translation: IdTranslation,
    /// Serializes weight-update batches (each must see the previous
    /// one's epoch) and holds the previous epoch's buffers for the next
    /// batch to write over. Queries never take this lock.
    updater: Mutex<Option<Spare>>,
}

/// The second buffer of the update double buffer: the epoch before the
/// current one, plus exactly what changed between the two. Once every
/// query pinned to that epoch has finished, its graph, landmark index
/// and target rows are referenced only from here, and the next batch
/// brings them up to date and writes itself into them instead of copying
/// the current epoch wholesale (DESIGN.md §14, §18).
struct Spare {
    /// Id of the epoch the change lists below lead to. A spare whose
    /// `current` is no longer the serving epoch is useless and dropped.
    current: u64,
    graph: Arc<Graph>,
    landmarks: Option<Arc<LandmarkIndex>>,
    /// The batch that turned `graph` into the current epoch's graph.
    deltas: Vec<EdgeDelta>,
    /// Flat table indices where `landmarks` may differ from the current
    /// epoch's tables (the journal of the repair that produced them).
    journal: Vec<usize>,
    /// The previous epoch's target rows, each with its own journal.
    rows: Vec<RowSpare>,
}

/// What a published weight-update batch did, as reported to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The epoch now serving (unchanged if the batch was a no-op).
    pub epoch: u64,
    /// Distinct edges whose weight actually changed.
    pub changed: usize,
    /// Landmark and target-row repair wall time, µs (0 for a no-op or
    /// with neither).
    pub repair_us: u64,
    /// Nodes whose distance was recomputed, summed over landmark and
    /// target rows.
    pub affected_nodes: u64,
    /// Completed cache entries from older epochs reaped at publish.
    pub cache_purged: usize,
}

impl KpjService {
    /// Build a service over `graph` (and an optional landmark index —
    /// without one every algorithm runs in its `-NL` variant).
    pub fn new(
        graph: Arc<Graph>,
        landmarks: Option<Arc<LandmarkIndex>>,
        config: ServiceConfig,
    ) -> KpjService {
        KpjService::new_reduced(graph, landmarks, None, config)
    }

    /// [`new`](KpjService::new) over a *reduced* graph (v2 `--reduce`
    /// storage): clients keep speaking original node ids — endpoints map
    /// through the reduction at admission, answers come back re-expanded
    /// to original ids by the worker engines, and weight updates on
    /// contracted chain interiors are translated to shortcut updates
    /// (with the prefix sums repaired) before the epoch publish.
    pub fn new_reduced(
        graph: Arc<Graph>,
        landmarks: Option<Arc<LandmarkIndex>>,
        reduction: Option<Arc<Reduction>>,
        config: ServiceConfig,
    ) -> KpjService {
        let metrics = Arc::new(Metrics::new());
        let flight = config.slow_query_ms.and_then(|ms| {
            let dir = config.flight_dir.as_deref().unwrap_or("kpj-flight-records");
            match FlightRecorder::new(dir, Duration::from_millis(ms)) {
                Ok(rec) => Some(Arc::new(rec)),
                Err(e) => {
                    // A broken record directory must not stop serving.
                    eprintln!("flight recorder disabled: cannot create {dir}: {e}");
                    None
                }
            }
        });
        let hooks = PoolHooks {
            metrics: Some(Arc::clone(&metrics)),
            flight: flight.clone(),
            trace_sample: config.trace_sample,
            ..Default::default()
        };
        let translation = match &reduction {
            Some(red) => IdTranslation::Reduce(Arc::clone(red)),
            None => IdTranslation::Identity,
        };
        KpjService {
            pool: EnginePool::with_hooks_reduced(graph, landmarks, reduction, config.pool, hooks),
            cache: (config.cache_capacity > 0).then(|| {
                ResultCache::with_metrics(config.cache_capacity, Some(Arc::clone(&metrics)))
            }),
            metrics,
            flight,
            translation,
            updater: Mutex::new(None),
        }
    }

    /// Install the node-id permutation of a locality-reordered graph
    /// (v2 storage). Clients keep speaking *original* ids: requests are
    /// translated to internal ids before cache/engine, and path nodes are
    /// translated back in the wire body. Call before sharing the service;
    /// an identity permutation is dropped (no per-query work). Mutually
    /// exclusive with a reduction (the storage format enforces this: a
    /// reorder of a reduced graph is folded into the reduction offline).
    pub fn set_remap(&mut self, remap: Arc<NodeRemap>) {
        assert!(
            self.translation.reduction().is_none(),
            "a reduced service folds reorders into its reduction"
        );
        self.translation = if remap.is_identity() {
            IdTranslation::Identity
        } else {
            IdTranslation::Remap(remap)
        };
    }

    /// The id-space boundary this service translates across.
    pub fn translation(&self) -> &IdTranslation {
        &self.translation
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The flight recorder, when slow-query recording is enabled.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// Convenience snapshot of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The engine pool (exposed for tests and capacity introspection).
    pub fn pool(&self) -> &EnginePool {
        &self.pool
    }

    /// Pin and return the currently serving epoch.
    pub fn current_epoch(&self) -> Arc<GraphEpoch> {
        self.pool.epochs().pin()
    }

    /// Apply a batch of edge-weight updates and publish the result as a
    /// new graph epoch. In-flight and already-admitted queries finish on
    /// the epoch they pinned; queries admitted after this returns see the
    /// new weights. The whole batch is validated before anything is
    /// built, so a rejected batch changes nothing. Node ids are external
    /// (client-visible) ids when a remap is installed.
    ///
    /// A batch whose updates all match the current weights is a no-op:
    /// no epoch is published and the cache keeps its entries.
    ///
    /// The new epoch is written into the buffers of the one before the
    /// current epoch when that epoch has retired (no query pins it any
    /// more): only the entries changed since are copied over, so the
    /// cost follows the batch. While it is still pinned — or for the
    /// initial, memory-mapped epoch — the current epoch is copied whole.
    pub fn apply_update(&self, updates: &[WeightUpdate]) -> Result<UpdateOutcome, ServiceError> {
        // The repair-queue gauge counts batches waiting on or holding the
        // updater lock; the guard keeps it balanced across every exit.
        self.metrics.gauges().add(gauge::REPAIR_QUEUE, 1);
        let _depth = RepairQueueGuard(&self.metrics);
        let mut spare_slot = self
            .updater
            .lock()
            .expect("updater lock poisoned: an earlier batch panicked");
        let base = self.pool.epochs().pin();
        let translate_started = Instant::now();
        let translated: Vec<WeightUpdate>;
        // A reduced graph may need its expansion prefix sums replaced
        // (an update hit a contracted chain's interior).
        let mut next_reduction: Option<Arc<Reduction>> = None;
        let updates: &[WeightUpdate] = match &self.translation {
            IdTranslation::Identity => updates,
            IdTranslation::Remap(remap) => {
                translated = updates
                    .iter()
                    .map(|u| {
                        let internal = |node| {
                            remap.to_internal(node).ok_or_else(|| {
                                ServiceError::Update(format!("node {node} out of range"))
                            })
                        };
                        Ok(WeightUpdate {
                            from: internal(u.from)?,
                            to: internal(u.to)?,
                            weight: u.weight,
                        })
                    })
                    .collect::<Result<_, ServiceError>>()?;
                &translated
            }
            IdTranslation::Reduce(_) => {
                // Updates arrive in *original* ids. Edges surviving in the
                // reduced graph pass through; edges interior to a
                // contracted chain become an update of the covering
                // shortcut's total weight plus repaired prefix sums —
                // no full re-reduction. Updates on pruned edges are
                // dropped (they cannot influence any V_S/V_T answer).
                //
                // Translate against the *epoch's* reduction, not the
                // construction-time one: an earlier interior update may
                // have replaced the prefix sums, and hop weights are
                // derived from them. (The node mapping itself never
                // changes, so query translation can stay epoch-free.)
                let red = base
                    .reduction()
                    .expect("epochs of a reduced service carry its reduction");
                let t = red
                    .translate_updates(base.graph(), updates)
                    .map_err(|e| ServiceError::Update(e.to_string()))?;
                next_reduction = t.reduction.map(Arc::new);
                translated = t.updates;
                &translated
            }
        };
        let translate_us = translate_started.elapsed().as_micros() as u64;
        // `try_unwrap` succeeds exactly when the spare's epoch has retired:
        // the epoch and its pins were the only other owners.
        let (spare_graph, spare_landmarks, stale, mut journal, spare_rows) =
            match spare_slot.take().filter(|spare| spare.current == base.id()) {
                Some(spare) => (
                    Arc::try_unwrap(spare.graph).ok().filter(Graph::is_owned),
                    spare
                        .landmarks
                        .and_then(|index| Arc::try_unwrap(index).ok())
                        .filter(|index| !index.is_mapped()),
                    spare.deltas,
                    spare.journal,
                    spare.rows,
                ),
                None => (None, None, Vec::new(), Vec::new(), Vec::new()),
            };
        let reused =
            spare_graph.is_some() && (base.landmarks().is_none() || spare_landmarks.is_some());
        // A rejected batch drops the spare; the next one copies.
        let (graph, deltas) = base
            .graph()
            .with_updated_weights_reusing(updates, spare_graph.map(|g| (g, &stale[..])))
            .map_err(|e| ServiceError::Update(e.to_string()))?;
        if deltas.is_empty() && next_reduction.is_none() {
            // Nothing to publish, and `graph` now equals the current
            // epoch's graph: keep it as the spare with nothing stale.
            // The landmark and row spares were not touched and keep their
            // journals.
            *spare_slot = Some(Spare {
                current: base.id(),
                graph: Arc::new(graph),
                landmarks: spare_landmarks.map(Arc::new),
                deltas: Vec::new(),
                journal,
                rows: spare_rows,
            });
            return Ok(UpdateOutcome {
                epoch: base.id(),
                changed: 0,
                repair_us: 0,
                affected_nodes: 0,
                cache_purged: 0,
            });
        }
        let repair_started = Instant::now();
        let (landmarks, landmark_affected) = match base.landmarks() {
            Some(index) => {
                let (repaired, stats) =
                    index.repaired_reusing(&graph, &deltas, spare_landmarks, &mut journal);
                (Some(Arc::new(repaired)), stats.affected_nodes)
            }
            None => (None, 0),
        };
        // Every row the serving epoch holds moves on to the next one.
        let (rows, row_spares, row_affected) = base.rows().repaired(&graph, &deltas, spare_rows);
        let affected_nodes = landmark_affected + row_affected;
        let repair = repair_started.elapsed();
        let changed = deltas.len();
        let reduction = next_reduction.or_else(|| base.reduction().cloned());
        let epoch = self
            .pool
            .publish(Arc::new(graph), landmarks, reduction, rows, changed);
        self.metrics
            .gauges()
            .set(gauge::TARGET_ROWS, epoch.rows().len() as i64);
        // The epoch just superseded becomes the next batch's spare.
        *spare_slot = Some(Spare {
            current: epoch.id(),
            graph: Arc::clone(base.graph()),
            landmarks: base.landmarks().cloned(),
            deltas,
            journal,
            rows: row_spares,
        });
        // Entries keyed to older epochs are already unreachable (the
        // epoch id is part of the cache key); reap them eagerly.
        let purge_started = Instant::now();
        let cache_purged = self
            .cache
            .as_ref()
            .map_or(0, |cache| cache.purge_stale(epoch.id()));
        let purge_us = purge_started.elapsed().as_micros() as u64;
        self.metrics.record_update(changed as u64, repair, reused);
        self.metrics.record_event(
            event::EPOCH_PUBLISHED,
            [
                epoch.id(),
                changed as u64,
                affected_nodes,
                cache_purged as u64,
            ],
        );
        self.metrics.record_event(
            event::UPDATE_APPLIED,
            [
                epoch.id(),
                translate_us,
                repair.as_micros() as u64,
                purge_us,
            ],
        );
        Ok(UpdateOutcome {
            epoch: epoch.id(),
            changed,
            repair_us: repair.as_micros() as u64,
            affected_nodes,
            cache_purged,
        })
    }

    /// Execute one query end-to-end: cache lookup (with single-flight
    /// dedup), pool admission, deadline enforcement, metrics.
    pub fn execute(&self, request: &QueryRequest) -> Result<Arc<Answer>, ServiceError> {
        let started = Instant::now();
        let out = match self.translate(request) {
            Ok(Some(internal)) => self.execute_inner(&internal, started),
            Ok(None) => self.execute_inner(request, started),
            Err(e) => Err(e),
        };
        // End-to-end service latency, successful or not, per algorithm.
        self.metrics
            .record_stage(request.algorithm, Stage::Total, started.elapsed());
        out
    }

    /// Rewrite a request's external node ids to engine (reordered or
    /// reduced) ids. `Ok(None)` means the translation is the identity —
    /// serve the request as-is. A node that was contracted or pruned away
    /// by reduction surfaces as the same out-of-range error an unknown id
    /// would: either way no engine node answers to it.
    fn translate(&self, request: &QueryRequest) -> Result<Option<QueryRequest>, ServiceError> {
        if self.translation.is_identity() {
            return Ok(None);
        }
        let to_engine = |node, err: fn(u32) -> QueryError| {
            self.translation.to_engine(node).map_err(|e| match e {
                TranslateError::OutOfRange { .. } | TranslateError::Contracted { .. } => {
                    ServiceError::Query(err(node))
                }
            })
        };
        let mut internal = request.clone();
        for s in &mut internal.sources {
            *s = to_engine(*s, QueryError::SourceOutOfRange)?;
        }
        for t in &mut internal.targets {
            *t = to_engine(*t, QueryError::TargetOutOfRange)?;
        }
        Ok(Some(internal))
    }

    fn execute_inner(
        &self,
        request: &QueryRequest,
        started: Instant,
    ) -> Result<Arc<Answer>, ServiceError> {
        let Some(cache) = &self.cache else {
            return self.compute_recorded(request, started, self.pool.epochs().pin());
        };
        for _ in 0..=SHARED_RETRIES {
            // Pin the epoch per attempt (a retry after a failed shared
            // flight should run on the *current* graph) and scope the
            // cache key to it: the answer served can only ever come from
            // the graph version this request was admitted on.
            let epoch = self.pool.epochs().pin();
            let key = CacheKey::new(
                epoch.id(),
                request.algorithm,
                &request.sources,
                &request.targets,
                request.k,
            );
            let probe = Instant::now();
            let looked = cache.lookup(&key);
            self.metrics
                .record_stage(request.algorithm, Stage::CacheLookup, probe.elapsed());
            match looked {
                Lookup::Hit(value) => {
                    self.metrics.record_cache_hit();
                    self.metrics
                        .record_query(started.elapsed(), true, value.paths.len() as u64);
                    return Ok(value);
                }
                Lookup::Shared(flight) => {
                    self.metrics.record_cache_shared();
                    match flight.wait() {
                        Ok(value) => {
                            self.metrics.record_query(
                                started.elapsed(),
                                true,
                                value.paths.len() as u64,
                            );
                            return Ok(value);
                        }
                        // The owner failed; loop for a fresh attempt.
                        Err(_) => continue,
                    }
                }
                Lookup::Miss(token) => {
                    self.metrics.record_cache_miss();
                    return match self.compute_recorded(request, started, epoch) {
                        Ok(value) => {
                            token.complete(Arc::clone(&value));
                            Ok(value)
                        }
                        Err(e) => {
                            token.fail(e.clone());
                            Err(e)
                        }
                    };
                }
            }
        }
        // Every attempt rode a flight whose owner failed.
        Err(ServiceError::Internal(
            "shared flight kept failing".to_string(),
        ))
    }

    /// Run on the pool (pinned to `epoch`, the same one the cache key was
    /// scoped to) and fold the outcome into the metrics.
    fn compute_recorded(
        &self,
        request: &QueryRequest,
        started: Instant,
        epoch: Arc<GraphEpoch>,
    ) -> Result<Arc<Answer>, ServiceError> {
        let handle = match self.pool.submit_pinned(request.clone(), epoch) {
            Ok(handle) => handle,
            Err(e) => {
                if matches!(e, ServiceError::Overloaded) {
                    self.metrics.record_rejected();
                }
                return Err(e);
            }
        };
        match handle.wait() {
            Ok(result) => {
                // Work counters were already absorbed by the worker that
                // ran the query (it knows the span trace too).
                self.metrics
                    .record_query(started.elapsed(), true, result.paths.len() as u64);
                Ok(Arc::new(Answer::with_remap(
                    result,
                    self.translation.output_remap().cloned(),
                )))
            }
            Err(e) => {
                if matches!(e, ServiceError::Query(QueryError::DeadlineExceeded)) {
                    self.metrics.record_deadline_exceeded();
                    self.metrics.record_event(
                        event::DEADLINE_EXPIRED,
                        [
                            algorithm_index(request.algorithm) as u64,
                            request.k as u64,
                            request.timeout_ms.unwrap_or(0),
                            0,
                        ],
                    );
                }
                self.metrics.record_query(started.elapsed(), false, 0);
                Err(e)
            }
        }
    }

    /// Sample the gauges that are cheaper to read than to maintain —
    /// epoch lifecycle and cache occupancy. The wire layer calls this
    /// before rendering a status snapshot or Prometheus exposition, so
    /// pull-style scrapes always see fresh values without the query path
    /// paying to keep them fresh.
    pub fn refresh_gauges(&self) {
        let gauges = self.metrics.gauges();
        let epochs = self.pool.epochs();
        gauges.set(gauge::LIVE_EPOCHS, epochs.live_epochs() as i64);
        let pin = epochs.pin();
        gauges.set(gauge::EPOCH_ID, pin.id() as i64);
        gauges.set(gauge::TARGET_ROWS, pin.rows().len() as i64);
        // Everything holding the current epoch beyond the cell's own Arc
        // and our probe pin is an admitted query or a worker engine.
        let pins = Arc::strong_count(&pin).saturating_sub(2);
        gauges.set(gauge::EPOCH_PINS, pins as i64);
        drop(pin);
        if let Some(cache) = &self.cache {
            let occupancy = cache.occupancy();
            let ready: usize = occupancy.iter().map(|&(r, _)| r).sum();
            let pending: usize = occupancy.iter().map(|&(_, p)| p).sum();
            gauges.set(gauge::CACHE_ENTRIES, ready as i64);
            gauges.set(gauge::CACHE_WAITERS, pending as i64);
        }
        gauges.set(gauge::QUEUE_DEPTH, self.pool.queue_depth() as i64);
    }

    /// The result cache, when caching is enabled (exposed for the status
    /// verb's per-shard occupancy detail).
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }
}

/// Balances the `repair_queue` gauge on every exit from `apply_update`.
struct RepairQueueGuard<'a>(&'a Metrics);

impl Drop for RepairQueueGuard<'_> {
    fn drop(&mut self) {
        self.0.gauges().add(gauge::REPAIR_QUEUE, -1);
    }
}
