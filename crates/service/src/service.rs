//! [`KpjService`]: the query-serving facade combining the engine pool,
//! the single-flight result cache, per-query deadlines and the metrics
//! registry. The TCP server and the in-process batch API are both thin
//! wrappers over [`KpjService::execute`].

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use kpj_core::{KpjResult, QueryError, SourceLb, TargetsLb};
use kpj_graph::{
    EdgeDelta, Graph, IdTranslation, Length, NodeId, NodeRemap, PathSet, Reduction, TranslateError,
    WeightUpdate,
};
use kpj_landmark::{LandmarkIndex, RepairScratch};
use kpj_obs::Stage;

use crate::cache::{CacheKey, Lookup, ResultCache, Verdict, RING_BATCHES};
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
///
/// It also memoizes its served-graph arcs, which the cache's
/// revalidation across update batches reads.
pub struct Answer {
    result: KpjResult,
    /// When the graph was locality-reordered at rest (v2 storage), path
    /// nodes are internal ids; the wire body translates them back to the
    /// external (original) ids the client speaks. `None` = identity.
    remap: Option<Arc<NodeRemap>>,
    /// Lazily rendered body fields, `[without paths, with paths]`.
    body: [OnceLock<String>; 2],
    /// Lazily collected [`served_arcs`](Answer::served_arcs).
    arcs: OnceLock<Box<[(NodeId, NodeId)]>>,
}

impl Answer {
    /// Wrap a freshly computed result.
    pub fn new(result: KpjResult) -> Answer {
        Answer::with_remap(result, None)
    }

    /// Wrap a result computed on a reordered graph; `remap` translates
    /// its internal path nodes back to external ids on the wire.
    pub fn with_remap(mut result: KpjResult, remap: Option<Arc<NodeRemap>>) -> Answer {
        // The path buffers grew by doubling; an answer the cache keeps
        // for many batches should not carry that slack.
        result.paths.shrink_to_fit();
        Answer {
            result,
            remap,
            body: [OnceLock::new(), OnceLock::new()],
            arcs: OnceLock::new(),
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

    /// The distinct arcs of the served graph the answer's paths use,
    /// sorted. Path nodes are engine ids, except on a reduced graph
    /// (`reduction`), where paths come back expanded to original ids: there
    /// the arcs join consecutive nodes the reduction kept, and chain
    /// interiors are skipped. Collected on first use and kept.
    pub fn served_arcs(&self, reduction: Option<&Reduction>) -> &[(NodeId, NodeId)] {
        self.arcs.get_or_init(|| {
            let mut arcs = Vec::new();
            for path in self.result.paths.iter() {
                let mut prev = None;
                for &node in path.nodes {
                    let Some(v) = reduction.map_or(Some(node), |r| r.to_reduced(node)) else {
                        continue;
                    };
                    if let Some(u) = prev {
                        arcs.push((u, v));
                    }
                    prev = Some(v);
                }
            }
            arcs.sort_unstable();
            arcs.dedup();
            arcs.into_boxed_slice()
        })
    }

    /// Serialize by walking the flat path storage directly — no
    /// intermediate owned paths, no JSON value tree. The body's size is
    /// summed from digit counts first, so that its buffer is allocated
    /// once at its exact size: a cached body carries no slack, and no
    /// reallocation leaves a fragment behind (shrinking a grown buffer
    /// did, and measurably slowed the cache-hit path). The integers are
    /// then written by [`push_decimal`], not through `fmt`.
    fn render_body(&self, want_paths: bool) -> String {
        // One serializer for every QueryStats field — the wire `stats`
        // block and the metrics registry can never drift apart again.
        let mut stats = String::new();
        self.result.stats.write_json(&mut stats);
        let paths = &self.result.paths;
        let node = |n: NodeId| self.remap.as_ref().map_or(n, |r| r.to_external(n));
        // Commas between `count` items.
        let commas = |count: usize| count.saturating_sub(1);
        let mut size = "\"count\":".len() + decimal_len(paths.len() as u64);
        size += ",\"lengths\":[]".len() + commas(paths.len());
        size += paths.iter().map(|p| decimal_len(p.length)).sum::<usize>();
        if want_paths {
            size += ",\"paths\":[]".len() + commas(paths.len());
            for p in paths.iter() {
                size += "[]".len() + commas(p.nodes.len());
                size += p
                    .nodes
                    .iter()
                    .map(|&n| decimal_len(u64::from(node(n))))
                    .sum::<usize>();
            }
        }
        size += ",\"stats\":".len() + stats.len();

        let mut out = String::with_capacity(size);
        out.push_str("\"count\":");
        push_decimal(&mut out, paths.len() as u64);
        out.push_str(",\"lengths\":[");
        for (i, p) in paths.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_decimal(&mut out, p.length);
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
                    push_decimal(&mut out, u64::from(node(n)));
                }
                out.push(']');
            }
            out.push(']');
        }
        out.push_str(",\"stats\":");
        out.push_str(&stats);
        debug_assert_eq!(out.len(), size);
        out
    }
}

/// Decimal digits of `v`.
fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Append `v` in decimal.
fn push_decimal(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
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
    /// one's epoch) and holds what one batch leaves the next: the
    /// previous epoch's buffers and the repair kernel's scratch. Queries
    /// never take this lock.
    updater: Mutex<Updater>,
    /// The deltas of the last [`RING_BATCHES`] published batches, which
    /// cached answers from older epochs are revalidated against.
    ring: RwLock<DeltaRing>,
}

/// The served-graph deltas of the last [`RING_BATCHES`] published
/// batches, oldest first. Holds no epoch: an entry that pinned one would
/// keep the update double buffer's spare from ever retiring.
#[derive(Default)]
struct DeltaRing {
    /// `(epoch, deltas)`: the batch that turned epoch `epoch - 1` into
    /// `epoch`. Epoch ids are consecutive.
    batches: VecDeque<(u64, Vec<EdgeDelta>)>,
}

impl DeltaRing {
    fn push(&mut self, epoch: u64, deltas: Vec<EdgeDelta>) {
        if self.batches.len() == RING_BATCHES as usize {
            self.batches.pop_front();
        }
        self.batches.push_back((epoch, deltas));
    }

    /// Every delta of the batches that lead from epoch `from` to epoch
    /// `to`, or `None` when the ring does not hold all of them.
    fn between(&self, from: u64, to: u64) -> Option<impl Iterator<Item = &EdgeDelta> + Clone> {
        let first = self.batches.front()?.0;
        let last = self.batches.back()?.0;
        if from >= to || from + 1 < first || to > last {
            return None;
        }
        let range = (from + 1 - first) as usize..(to + 1 - first) as usize;
        Some(self.batches.range(range).flat_map(|(_, deltas)| deltas))
    }
}

/// The revalidation rule (DESIGN.md §14). An answer that was a top-k
/// before `deltas` is still one after them when
///
/// * (a) no changed arc lies on its paths (`arcs`, sorted), so every
///   path kept its length, and
/// * (b) every arc `(u, v)` that got cheaper can only carry paths at least
///   as long as the k-th: `through(d) = lb(S, u) + w' + lb(v, V_T) ≥ L_k`.
///
/// Arcs that got dearer and lie on no answer path only lengthen other
/// paths. An answer with fewer than `k` paths fails (b) on any cheaper
/// arc, which errs on the safe side. `bounds` builds `through` and runs
/// only when some arc got cheaper.
fn judge<'d, B>(
    arcs: &[(NodeId, NodeId)],
    paths: &PathSet,
    k: usize,
    deltas: impl Iterator<Item = &'d EdgeDelta> + Clone,
    bounds: impl FnOnce() -> B,
) -> Verdict
where
    B: Fn(&EdgeDelta) -> Length,
{
    if deltas
        .clone()
        .any(|d| arcs.binary_search(&(d.from, d.to)).is_ok())
    {
        return Verdict::OnPath;
    }
    let mut cheaper = deltas.filter(|d| d.new_weight < d.old_weight).peekable();
    if cheaper.peek().is_none() {
        return Verdict::Kept;
    }
    let Some(kth) = paths.last().filter(|_| paths.len() >= k) else {
        return Verdict::Decrease;
    };
    let through = bounds();
    if cheaper.all(|d| through(d) >= kth.length) {
        Verdict::Kept
    } else {
        Verdict::Decrease
    }
}

/// The state update batches hand on to each other under the updater lock.
#[derive(Default)]
struct Updater {
    /// The previous epoch's buffers, when the last batch published.
    spare: Option<Spare>,
    /// The repair kernel's region list, stack and queue, reused by
    /// every batch.
    scratch: RepairScratch,
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

/// How long an update batch waits for the last pins on the spare's epoch
/// to drop before it copies the current epoch instead. A query still
/// running there is usually close to done (in road-churn runs on a
/// 2-vCPU host every wait ended within 2.5 ms), while a copy costs
/// several ms and leaves its freed buffers behind in the allocator: each
/// one raised road-churn's resident memory for good.
const SPARE_GRACE: Duration = Duration::from_millis(5);

impl Spare {
    /// Wait up to [`SPARE_GRACE`] for the spare's epoch to retire, that
    /// is, for the spare to hold the only reference to its graph. A
    /// memory-mapped graph is never written into, so it is not waited
    /// for.
    fn await_retired(self) -> Spare {
        let deadline = Instant::now() + SPARE_GRACE;
        while self.graph.is_owned()
            && Arc::strong_count(&self.graph) > 1
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_micros(50));
        }
        self
    }
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
    /// Completed cache entries reaped at publish because they fell more
    /// than the delta ring's length behind.
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
            updater: Mutex::new(Updater::default()),
            ring: RwLock::new(DeltaRing::default()),
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
        let mut updater = self
            .updater
            .lock()
            .expect("updater lock poisoned: an earlier batch panicked");
        let Updater {
            spare: spare_slot,
            scratch,
        } = &mut *updater;
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
        let translate = translate_started.elapsed();
        // `try_unwrap` succeeds exactly when the spare's epoch has retired:
        // the epoch and its pins were the only other owners.
        let (spare_graph, spare_landmarks, stale, mut journal, spare_rows) = match spare_slot
            .take()
            .filter(|spare| spare.current == base.id())
            .map(Spare::await_retired)
        {
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
                    index.repaired_reusing(&graph, &deltas, spare_landmarks, &mut journal, scratch);
                (Some(Arc::new(repaired)), stats.affected_nodes)
            }
            None => (None, 0),
        };
        // Every row the serving epoch holds moves on to the next one.
        let (rows, row_spares, row_affected) =
            base.rows().repaired(&graph, &deltas, spare_rows, scratch);
        let affected_nodes = landmark_affected + row_affected;
        let repair = repair_started.elapsed();
        let changed = deltas.len();
        let reduction = next_reduction.or_else(|| base.reduction().cloned());
        // The batch joins the ring before its epoch publishes, so a query
        // pinned on the new epoch always finds it.
        self.ring
            .write()
            .expect("delta ring lock poisoned")
            .push(base.id() + 1, deltas.clone());
        let epoch = self
            .pool
            .publish(Arc::new(graph), landmarks, reduction, rows, changed);
        debug_assert_eq!(epoch.id(), base.id() + 1, "batches publish one at a time");
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
        // Entries the ring no longer covers can never be served again.
        let purge_started = Instant::now();
        let cache_purged = self
            .cache
            .as_ref()
            .map_or(0, |cache| cache.purge_stale(epoch.id()));
        let purge_us = purge_started.elapsed().as_micros() as u64;
        self.metrics
            .record_update(changed as u64, translate, repair, reused);
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
                translate.as_micros() as u64,
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
        let key = CacheKey::new(
            request.algorithm,
            &request.sources,
            &request.targets,
            request.k,
        );
        for _ in 0..=SHARED_RETRIES {
            // Pin the epoch per attempt (a retry after a failed shared
            // flight should run on the *current* graph). The answer served
            // is always a correct one on this epoch: computed on it, or
            // revalidated across the batches since it was.
            let epoch = self.pool.epochs().pin();
            let probe = Instant::now();
            let looked = cache.lookup(&key, epoch.id(), |answer, valid_at| {
                self.revalidate(&key, answer, valid_at, &epoch)
            });
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

    /// Judge a cached `answer`, correct on epoch `valid_at`, against the
    /// ring's batches up to the pinned `epoch`, with that epoch's lower
    /// bounds: its landmarks from the sources, and its exact row for the
    /// target set where one is held, else its landmarks. Runs with no
    /// cache lock held.
    fn revalidate(
        &self,
        key: &CacheKey,
        answer: &Answer,
        valid_at: u64,
        epoch: &GraphEpoch,
    ) -> Verdict {
        let ring = self.ring.read().expect("delta ring lock poisoned");
        let Some(deltas) = ring.between(valid_at, epoch.id()) else {
            return Verdict::TooOld;
        };
        let arcs = answer.served_arcs(self.translation.reduction().map(|r| &**r));
        let row = epoch.rows().lookup(key.targets());
        judge(arcs, &answer.paths, key.k(), deltas, || {
            let landmarks = epoch.landmarks().map(|index| &**index);
            let from_sources = SourceLb::new(landmarks, key.sources());
            let to_targets = match (&row, landmarks) {
                (Some(row), _) => TargetsLb::Exact(row.dist()),
                (None, Some(index)) => TargetsLb::Alt(index.for_targets(key.targets())),
                (None, None) => TargetsLb::Zero,
            };
            move |d: &EdgeDelta| {
                from_sources
                    .lb(d.from)
                    .saturating_add(Length::from(d.new_weight))
                    .saturating_add(to_targets.lb(d.to))
            }
        })
    }

    /// Run on the pool (pinned to `epoch`, the one the request pinned for
    /// its cache lookup) and fold the outcome into the metrics.
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

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_core::Algorithm;
    use kpj_graph::GraphBuilder;

    /// The body as `fmt` renders it, field by field: the reference the
    /// hand-rolled writer must match byte for byte.
    fn fmt_body(answer: &Answer, want_paths: bool) -> String {
        let paths = &answer.result.paths;
        let join = |items: Vec<String>| items.join(",");
        let mut out = format!(
            "\"count\":{},\"lengths\":[{}]",
            paths.len(),
            join(paths.iter().map(|p| format!("{}", p.length)).collect())
        );
        if want_paths {
            let node = |n: NodeId| answer.remap.as_ref().map_or(n, |r| r.to_external(n));
            let rendered = paths
                .iter()
                .map(|p| {
                    format!(
                        "[{}]",
                        join(p.nodes.iter().map(|&n| format!("{}", node(n))).collect())
                    )
                })
                .collect();
            out += &format!(",\"paths\":[{}]", join(rendered));
        }
        let mut stats = String::new();
        answer.result.stats.write_json(&mut stats);
        out + ",\"stats\":" + &stats
    }

    #[test]
    fn wire_body_matches_the_fmt_rendering_byte_for_byte() {
        let n = 12_345u32;
        let mut paths = PathSet::new();
        paths.push(&[0, 9, 10], 0);
        paths.push(&[99, 100, 999, 1_000, n - 1], 9);
        paths.push(&[7], 10);
        paths.push(&[12_000, 5, 1], u64::from(u32::MAX) * 4);
        paths.push(&[], u64::MAX - 1);
        let stats = kpj_core::QueryStats {
            final_tau: 1_234_567,
            ..Default::default()
        };
        // Reversal sends small ids to five-digit ones and back.
        let reversed = NodeRemap::from_old_to_new((0..n).rev().collect()).unwrap();
        for remap in [None, Some(Arc::new(reversed))] {
            for paths in [paths.clone(), PathSet::new()] {
                let answer = Answer::with_remap(KpjResult { paths, stats }, remap.clone());
                for want_paths in [false, true] {
                    let body = answer.render_body(want_paths);
                    assert_eq!(body, fmt_body(&answer, want_paths));
                    assert_eq!(body.len(), body.capacity(), "exact-size buffer");
                    assert_eq!(answer.wire_body(want_paths), body);
                }
            }
        }
    }

    /// `0→1→5` (length 2), `0→2→5` (4), `0→3→4→5` (30), and an arc
    /// `6→7` no path from 0 reaches.
    fn service() -> KpjService {
        let mut b = GraphBuilder::new(8);
        for (u, v, w) in [
            (0, 1, 1),
            (1, 5, 1),
            (0, 2, 2),
            (2, 5, 2),
            (0, 3, 10),
            (3, 4, 10),
            (4, 5, 10),
            (6, 7, 1),
        ] {
            b.add_edge(u, v, w).unwrap();
        }
        let config = ServiceConfig {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 8,
                ..Default::default()
            },
            cache_capacity: 16,
            ..ServiceConfig::default()
        };
        KpjService::new(Arc::new(b.build()), None, config)
    }

    /// The top-2 lengths from 0 to 5.
    fn top2(svc: &KpjService) -> Vec<Length> {
        let request = QueryRequest {
            algorithm: Algorithm::IterBound,
            sources: vec![0],
            targets: vec![5],
            k: 2,
            timeout_ms: None,
        };
        svc.execute(&request).unwrap().paths.lengths()
    }

    fn update(svc: &KpjService, edges: &[(NodeId, NodeId, u32)]) {
        let updates: Vec<WeightUpdate> = edges
            .iter()
            .map(|&(from, to, weight)| WeightUpdate { from, to, weight })
            .collect();
        svc.apply_update(&updates).unwrap();
    }

    /// `[kept, on_path, decrease, too_old]` and the cache misses so far.
    fn counts(svc: &KpjService) -> ([u64; 4], u64) {
        let s = svc.snapshot();
        (s.revalidations, s.cache_misses)
    }

    #[test]
    fn an_untouched_answer_is_kept_across_batches() {
        let svc = service();
        assert_eq!(top2(&svc), [2, 4]);
        // Dearer off-path arc, then a cheaper one that still cannot
        // undercut L_k = 4 (w' = 5 with zero bounds on either side).
        update(&svc, &[(0, 3, 20)]);
        update(&svc, &[(3, 4, 5)]);
        assert_eq!(top2(&svc), [2, 4]);
        assert_eq!(counts(&svc), ([1, 0, 0, 0], 1));
        // Re-stamped: a repeat on the same epoch is a plain hit.
        assert_eq!(top2(&svc), [2, 4]);
        assert_eq!(counts(&svc), ([1, 0, 0, 0], 1));
    }

    #[test]
    fn a_change_on_an_answer_path_is_rejected() {
        let svc = service();
        assert_eq!(top2(&svc), [2, 4]);
        update(&svc, &[(6, 7, 3)]);
        update(&svc, &[(1, 5, 3)]);
        assert_eq!(top2(&svc), [4, 4]);
        assert_eq!(counts(&svc), ([0, 1, 0, 0], 2));
    }

    #[test]
    fn a_decrease_that_may_undercut_the_kth_path_is_rejected() {
        let svc = service();
        assert_eq!(top2(&svc), [2, 4]);
        update(&svc, &[(0, 3, 0), (3, 4, 0), (4, 5, 1)]);
        assert_eq!(top2(&svc), [1, 2]);
        assert_eq!(counts(&svc), ([0, 0, 1, 0], 2));
    }

    #[test]
    fn an_answer_outlives_exactly_the_ring() {
        let svc = service();
        assert_eq!(top2(&svc), [2, 4]);
        // Every batch makes the off-path arc dearer.
        let mut weight = 1;
        let mut churn = |batches: u64| {
            for _ in 0..batches {
                weight += 1;
                update(&svc, &[(6, 7, weight)]);
            }
        };
        // RING_BATCHES batches later the entry still revalidates...
        churn(RING_BATCHES);
        assert_eq!(svc.cache().unwrap().len(), 1);
        assert_eq!(top2(&svc), [2, 4]);
        assert_eq!(counts(&svc), ([1, 0, 0, 0], 1));
        // ...one more unread batch than that and publish reaps it.
        churn(RING_BATCHES + 1);
        assert!(svc.cache().unwrap().is_empty());
        assert_eq!(top2(&svc), [2, 4]);
        assert_eq!(counts(&svc), ([1, 0, 0, 0], 2));
    }

    #[test]
    fn judge_reads_the_bounds_only_for_a_cheaper_arc() {
        let mut paths = PathSet::new();
        paths.push(&[0, 1, 5], 2);
        paths.push(&[0, 2, 5], 4);
        let arcs = [(0, 1), (0, 2), (1, 5), (2, 5)];
        let delta = |from, to, old_weight, new_weight| EdgeDelta {
            from,
            to,
            old_weight,
            new_weight,
        };
        let no_bounds = || -> fn(&EdgeDelta) -> Length { panic!("bounds built") };
        let dearer = [delta(0, 3, 10, 20)];
        assert_eq!(
            judge(&arcs, &paths, 2, dearer.iter(), no_bounds),
            Verdict::Kept
        );
        let on_path = [delta(0, 3, 10, 20), delta(2, 5, 2, 9)];
        assert_eq!(
            judge(&arcs, &paths, 2, on_path.iter(), no_bounds),
            Verdict::OnPath
        );
        let cheaper = [delta(3, 4, 10, 1)];
        // lb(S,3) + 1 + lb(4,T) against L_k = 4.
        for (lb, verdict) in [(3, Verdict::Kept), (2, Verdict::Decrease)] {
            let through = || move |d: &EdgeDelta| lb + Length::from(d.new_weight);
            assert_eq!(judge(&arcs, &paths, 2, cheaper.iter(), through), verdict);
        }
        // Fewer than k paths: any cheaper arc fails.
        assert_eq!(
            judge(&arcs, &paths, 3, cheaper.iter(), no_bounds),
            Verdict::Decrease
        );
    }
}
