//! Aggregated serving metrics: lock-free counters, per-(algorithm, stage)
//! latency histograms in a [`StageRegistry`], and per-algorithm engine
//! work counters mirroring [`QueryStats`]. One [`Metrics`] instance is
//! shared (via `Arc`) by the pool workers, the cache, and the wire layer;
//! reads take a consistent-enough [`MetricsSnapshot`] without stopping the
//! world, and [`Metrics::render_prometheus`] exposes the full matrix in
//! the Prometheus text format.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use kpj_core::{Algorithm, QueryStats};
pub use kpj_obs::Histogram;
use kpj_obs::{EventJournal, EventKind, GaugeSet, Stage, StageRegistry, MAX_EVENT_ARGS};

use crate::cache::Verdict;

/// Indices into [`QueryStats::FIELD_NAMES`] for the counters surfaced in
/// [`MetricsSnapshot`]. Kept next to a compile-time length check so a
/// reordering of the field table cannot silently skew the snapshot.
mod field {
    pub const TARGET_ROW: usize = 16;
    pub const SP: usize = 0;
    pub const LB: usize = 1;
    pub const TESTLB: usize = 2;
    pub const SETTLED: usize = 4;
    pub const RELAXED: usize = 5;
    pub const SUBSPACES: usize = 7;
    pub const HEAP_POPS: usize = 8;
    pub const LB_PRUNES: usize = 9;
    pub const SUBSPACES_SKIPPED: usize = 10;
    pub const TAU_UPDATES: usize = 11;
}

const _: () = {
    assert!(QueryStats::FIELD_NAMES.len() == 17);
};

/// Indices into the service's [`GaugeSet`] — the system-state gauges
/// threaded through the epoch lifecycle, pool admission, cache shards
/// and storage layer. Kept in one table (next to [`GAUGE_NAMES`]) so a
/// hot-path gauge update is a single indexed atomic store.
pub mod gauge {
    /// Epochs not yet retired (1 when idle).
    pub const LIVE_EPOCHS: usize = 0;
    /// Id of the currently serving epoch.
    pub const EPOCH_ID: usize = 1;
    /// Queries currently pinning the serving epoch (sampled).
    pub const EPOCH_PINS: usize = 2;
    /// How long the most recent epoch shed lagged its supersession, µs
    /// (the peak is the worst shed latency seen).
    pub const SHED_WAIT_US: usize = 3;
    /// Update batches waiting for or holding the updater lock.
    pub const REPAIR_QUEUE: usize = 4;
    /// Jobs sitting in the admission queue right now.
    pub const QUEUE_DEPTH: usize = 5;
    /// Workers currently executing a query.
    pub const BUSY_WORKERS: usize = 6;
    /// Completed entries resident across all cache shards (sampled).
    pub const CACHE_ENTRIES: usize = 7;
    /// Single-flight slots other requests may be waiting on (sampled).
    pub const CACHE_WAITERS: usize = 8;
    /// Ready entries evicted by LRU pressure (monotone).
    pub const CACHE_EVICTIONS: usize = 9;
    /// Bytes served zero-copy from an mmap'd store file (0 = heap).
    pub const MMAP_BYTES: usize = 10;
    /// Interior nodes re-expanded into the last query's answer paths
    /// (the peak is the heaviest expansion seen). 0 without a reduction.
    pub const EXPAND_HOPS: usize = 11;
    /// Exact target rows held by the serving epoch.
    pub const TARGET_ROWS: usize = 12;
    /// Number of gauges.
    pub const COUNT: usize = 13;
}

/// Gauge names, indexed by the [`gauge`] constants.
pub const GAUGE_NAMES: [&str; gauge::COUNT] = [
    "live_epochs",
    "epoch_id",
    "epoch_pins",
    "shed_wait_us",
    "repair_queue",
    "queue_depth",
    "busy_workers",
    "cache_entries",
    "cache_waiters",
    "cache_evictions",
    "mmap_bytes",
    "expand_hops",
    "target_rows",
];

/// Kind ids for the service's [`EventJournal`] taxonomy. Argument
/// meanings live in [`EVENT_KINDS`]; both tables are index-aligned.
pub mod event {
    /// A weight-update batch published a new epoch:
    /// `{epoch, changed, affected_nodes, cache_purged}`.
    pub const EPOCH_PUBLISHED: u16 = 0;
    /// Timing breakdown of the same batch:
    /// `{epoch, translate_us, repair_us, purge_us}`.
    pub const UPDATE_APPLIED: u16 = 1;
    /// An idle worker dropped a superseded epoch: `{epoch, wait_us}`.
    pub const EPOCH_SHED: u16 = 2;
    /// A shed lagged its supersession past the slow threshold:
    /// `{epoch, wait_us}`.
    pub const SLOW_SHED: u16 = 3;
    /// Admission control rejected a request: `{queue_depth, capacity}`.
    pub const ADMISSION_REJECT: u16 = 4;
    /// A query failed its deadline: `{algorithm, k, timeout_ms}`.
    pub const DEADLINE_EXPIRED: u16 = 5;
    /// The flight recorder dumped a slow query:
    /// `{algorithm, exec_us, written_total}`.
    pub const FLIGHT_DUMP: u16 = 6;
    /// A worker built an exact target row on a set's second sighting:
    /// `{epoch, targets, build_us, rows}` (`rows` held afterwards).
    pub const ROW_BUILT: u16 = 7;
}

/// The service's event schema, indexed by the [`event`] constants.
pub const EVENT_KINDS: [EventKind; 8] = [
    EventKind {
        name: "epoch_published",
        fields: ["epoch", "changed", "affected_nodes", "cache_purged"],
    },
    EventKind {
        name: "update_applied",
        fields: ["epoch", "translate_us", "repair_us", "purge_us"],
    },
    EventKind {
        name: "epoch_shed",
        fields: ["epoch", "wait_us", "", ""],
    },
    EventKind {
        name: "slow_shed",
        fields: ["epoch", "wait_us", "", ""],
    },
    EventKind {
        name: "admission_reject",
        fields: ["queue_depth", "capacity", "", ""],
    },
    EventKind {
        name: "deadline_expired",
        fields: ["algorithm", "k", "timeout_ms", ""],
    },
    EventKind {
        name: "flight_dump",
        fields: ["algorithm", "exec_us", "written_total", ""],
    },
    EventKind {
        name: "row_built",
        fields: ["epoch", "targets", "build_us", "rows"],
    },
];

/// Events retained by the in-memory journal before overwrite.
pub const JOURNAL_CAPACITY: usize = 256;

/// Sheds lagging their supersession by more than this are journalled as
/// [`event::SLOW_SHED`] — an idle worker kept a retired graph alive.
pub const SLOW_SHED_US: u64 = 100_000;

/// Dense index of an algorithm in [`Algorithm::ALL`] — the row index of
/// its registry cells.
pub fn algorithm_index(alg: Algorithm) -> usize {
    Algorithm::ALL
        .iter()
        .position(|&a| a == alg)
        .expect("Algorithm::ALL is exhaustive")
}

/// Shared serving-layer metrics registry.
pub struct Metrics {
    queries: AtomicU64,
    failures: AtomicU64,
    rejected: AtomicU64,
    deadline_exceeded: AtomicU64,
    cache_hits: AtomicU64,
    cache_shared: AtomicU64,
    cache_misses: AtomicU64,
    /// Revalidations of cached answers across update batches, indexed by
    /// [`Verdict`].
    revalidations: [AtomicU64; 4],
    paths_returned: AtomicU64,
    /// Weight-update batches published as new graph epochs.
    epoch_swaps: AtomicU64,
    /// Distinct edges whose weight changed across all published batches.
    edges_updated: AtomicU64,
    /// Published batches written into the retired previous epoch's
    /// buffers (`[0]`) or into a full copy of the current one (`[1]`).
    update_buffers: [AtomicU64; 2],
    /// Exact target rows built on a set's second sighting.
    target_row_builds: AtomicU64,
    /// End-to-end latency over every query regardless of algorithm (the
    /// per-algorithm split lives in `registry` under [`Stage::Total`]).
    latency: Histogram,
    /// Time spent translating each published batch into engine ids
    /// (through a remap or a reduction).
    translate: Histogram,
    /// Time spent repairing landmark tables per published batch.
    repair: Histogram,
    /// Per-(algorithm, stage) histograms + per-algorithm work counters.
    registry: StageRegistry,
    /// System-state gauges ([`gauge`] indices).
    gauges: GaugeSet,
    /// Structured event ring ([`event`] kinds).
    journal: EventJournal,
    /// Construction instant — the monotonic base for `uptime_s`, so
    /// scrapers can detect a restart between scrapes.
    started: Instant,
    /// Bumped per [`snapshot`](Metrics::snapshot), so two snapshots with
    /// identical counters are still distinguishable.
    snapshot_seq: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh, all-zero registry with one row per [`Algorithm::ALL`] entry
    /// and one work counter per [`QueryStats::FIELD_NAMES`] entry.
    pub fn new() -> Metrics {
        Metrics {
            queries: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_shared: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            revalidations: Default::default(),
            paths_returned: AtomicU64::new(0),
            epoch_swaps: AtomicU64::new(0),
            edges_updated: AtomicU64::new(0),
            update_buffers: [AtomicU64::new(0), AtomicU64::new(0)],
            target_row_builds: AtomicU64::new(0),
            latency: Histogram::default(),
            translate: Histogram::default(),
            repair: Histogram::default(),
            registry: StageRegistry::new(
                Algorithm::ALL.iter().map(|a| a.name()).collect(),
                QueryStats::FIELD_NAMES.to_vec(),
            ),
            gauges: GaugeSet::new(GAUGE_NAMES.to_vec()),
            journal: EventJournal::new(JOURNAL_CAPACITY, EVENT_KINDS.to_vec()),
            started: Instant::now(),
            snapshot_seq: AtomicU64::new(0),
        }
    }

    /// The system-state gauges (see the [`gauge`] index constants).
    pub fn gauges(&self) -> &GaugeSet {
        &self.gauges
    }

    /// The structured event journal (see the [`event`] kind constants).
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Record one structured event. Allocation-free — safe anywhere on
    /// the hot path.
    pub fn record_event(&self, kind: u16, args: [u64; MAX_EVENT_ARGS]) {
        self.journal.record(kind, args);
    }

    /// Whole seconds since this registry (in practice: the server) was
    /// constructed.
    pub fn uptime_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The per-(algorithm, stage) registry.
    pub fn registry(&self) -> &StageRegistry {
        &self.registry
    }

    /// Record a completed query (success or engine failure) and its
    /// end-to-end latency as observed by the service.
    pub fn record_query(&self, latency: Duration, ok: bool, paths: u64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        self.paths_returned.fetch_add(paths, Ordering::Relaxed);
        self.latency.record(latency);
    }

    /// Record one stage duration for an algorithm.
    pub fn record_stage(&self, alg: Algorithm, stage: Stage, latency: Duration) {
        self.registry.record(algorithm_index(alg), stage, latency);
    }

    /// Record an admission-control rejection (queue full).
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a query that failed its deadline.
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a cache hit served from a completed entry.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a request that piggybacked on an in-flight computation.
    pub fn record_cache_shared(&self) {
        self.cache_shared.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a cache miss (the request will compute).
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record how the revalidation of a cached answer across update
    /// batches ended.
    pub fn record_revalidation(&self, verdict: Verdict) {
        self.revalidations[verdict as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one query's engine-side stats into that algorithm's work
    /// counters.
    pub fn absorb_stats(&self, alg: Algorithm, s: &QueryStats) {
        self.registry
            .add_counters(algorithm_index(alg), &s.field_values());
    }

    /// Record a published weight-update batch: how many distinct edges it
    /// touched, how long its translation into engine ids and the
    /// landmark and target-row repair took (zero when the service holds
    /// neither), and whether its epoch reused the retired previous
    /// epoch's buffers or copied the current one.
    pub fn record_update(&self, edges: u64, translate: Duration, repair: Duration, reused: bool) {
        self.epoch_swaps.fetch_add(1, Ordering::Relaxed);
        self.edges_updated.fetch_add(edges, Ordering::Relaxed);
        self.update_buffers[usize::from(!reused)].fetch_add(1, Ordering::Relaxed);
        self.translate.record(translate);
        self.repair.record(repair);
    }

    /// Record one exact target row built by a worker.
    pub fn record_row_built(&self) {
        self.target_row_builds.fetch_add(1, Ordering::Relaxed);
    }

    /// The landmark-repair latency histogram.
    pub fn repair(&self) -> &Histogram {
        &self.repair
    }

    /// The end-to-end latency histogram (e.g. for extra quantiles).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Render every metric in the Prometheus text exposition format: the
    /// full (algorithm, stage) histogram matrix, the per-algorithm work
    /// counters, and the service-level event counters.
    pub fn render_prometheus(&self, out: &mut String) {
        self.registry.render_prometheus(out);
        out.push_str(
            "# HELP kpj_service_events_total Service-level request outcomes.\n\
             # TYPE kpj_service_events_total counter\n",
        );
        for (event, value) in [
            ("queries", self.queries.load(Ordering::Relaxed)),
            ("failures", self.failures.load(Ordering::Relaxed)),
            ("rejected", self.rejected.load(Ordering::Relaxed)),
            (
                "deadline_exceeded",
                self.deadline_exceeded.load(Ordering::Relaxed),
            ),
            ("cache_hits", self.cache_hits.load(Ordering::Relaxed)),
            ("cache_shared", self.cache_shared.load(Ordering::Relaxed)),
            ("cache_misses", self.cache_misses.load(Ordering::Relaxed)),
            (
                "paths_returned",
                self.paths_returned.load(Ordering::Relaxed),
            ),
            ("epoch_swaps", self.epoch_swaps.load(Ordering::Relaxed)),
            ("edges_updated", self.edges_updated.load(Ordering::Relaxed)),
        ] {
            let _ = writeln!(out, "kpj_service_events_total{{event=\"{event}\"}} {value}");
        }
        out.push_str(
            "# HELP kpj_cache_revalidations_total Cached answers from an older epoch judged against the update batches since, by verdict.\n\
             # TYPE kpj_cache_revalidations_total counter\n",
        );
        for (verdict, counter) in Verdict::ALL.iter().zip(&self.revalidations) {
            let _ = writeln!(
                out,
                "kpj_cache_revalidations_total{{verdict=\"{}\"}} {}",
                verdict.name(),
                counter.load(Ordering::Relaxed)
            );
        }
        out.push_str(
            "# HELP kpj_update_buffers_total Published update batches by where the new epoch was written: the retired previous epoch's buffers (reused) or a full copy of the current one (copied).\n\
             # TYPE kpj_update_buffers_total counter\n",
        );
        for (path, counter) in ["reused", "copied"].iter().zip(&self.update_buffers) {
            let _ = writeln!(
                out,
                "kpj_update_buffers_total{{path=\"{path}\"}} {}",
                counter.load(Ordering::Relaxed)
            );
        }
        out.push_str(
            "# HELP kpj_target_rows Exact target-distance rows held by the serving epoch.\n\
             # TYPE kpj_target_rows gauge\n",
        );
        let _ = writeln!(
            out,
            "kpj_target_rows {}",
            self.gauges.get(gauge::TARGET_ROWS)
        );
        out.push_str(
            "# HELP kpj_target_row_builds_total Exact target rows built on a target set's second sighting.\n\
             # TYPE kpj_target_row_builds_total counter\n",
        );
        let _ = writeln!(
            out,
            "kpj_target_row_builds_total {}",
            self.target_row_builds.load(Ordering::Relaxed)
        );
        out.push_str(
            "# HELP kpj_target_row_reads_total Queries answered with an exact target row instead of the landmark bound.\n\
             # TYPE kpj_target_row_reads_total counter\n",
        );
        let _ = writeln!(
            out,
            "kpj_target_row_reads_total {}",
            self.registry.counter_total(field::TARGET_ROW)
        );
        out.push_str(
            "# HELP kpj_landmark_repair_us Landmark and target-row repair time per published update batch.\n\
             # TYPE kpj_landmark_repair_us gauge\n",
        );
        for (stat, value) in [
            ("count", self.repair.count()),
            ("mean", self.repair.mean_us()),
            ("max", self.repair.max_us()),
        ] {
            let _ = writeln!(out, "kpj_landmark_repair_us{{stat=\"{stat}\"}} {value}");
        }
        out.push_str(
            "# HELP kpj_update_translate_us Time to translate a published update batch into engine ids.\n\
             # TYPE kpj_update_translate_us gauge\n",
        );
        for (stat, value) in [
            ("mean", self.translate.mean_us()),
            ("max", self.translate.max_us()),
        ] {
            let _ = writeln!(out, "kpj_update_translate_us{{stat=\"{stat}\"}} {value}");
        }
        out.push_str(
            "# HELP kpj_uptime_seconds Seconds since the server started; a reset means a restart.\n\
             # TYPE kpj_uptime_seconds gauge\n",
        );
        let _ = writeln!(out, "kpj_uptime_seconds {}", self.uptime_s());
        out.push_str(
            "# HELP kpj_snapshot_seq Snapshots taken since start; resets with the process.\n\
             # TYPE kpj_snapshot_seq counter\n",
        );
        let _ = writeln!(
            out,
            "kpj_snapshot_seq {}",
            self.snapshot_seq.load(Ordering::Relaxed)
        );
        self.gauges.render_prometheus(
            "kpj_system_gauge",
            "Live system state (current value and high-water mark per gauge).",
            out,
        );
        out.push_str(
            "# HELP kpj_journal_events_total Structured events recorded to / dropped from the in-memory journal.\n\
             # TYPE kpj_journal_events_total counter\n",
        );
        for (outcome, value) in [
            ("recorded", self.journal.recorded()),
            ("dropped", self.journal.dropped()),
        ] {
            let _ = writeln!(
                out,
                "kpj_journal_events_total{{outcome=\"{outcome}\"}} {value}"
            );
        }
    }

    /// Take a point-in-time snapshot. Counters are read individually with
    /// relaxed ordering; totals may be off by in-flight updates, which is
    /// fine for monitoring. Work counters are summed across algorithms.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            uptime_s: self.uptime_s(),
            snapshot_seq: self.snapshot_seq.fetch_add(1, Ordering::Relaxed) + 1,
            queries: self.queries.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_shared: self.cache_shared.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            revalidations: std::array::from_fn(|i| self.revalidations[i].load(Ordering::Relaxed)),
            paths_returned: self.paths_returned.load(Ordering::Relaxed),
            epoch_swaps: self.epoch_swaps.load(Ordering::Relaxed),
            edges_updated: self.edges_updated.load(Ordering::Relaxed),
            buffers_reused: self.update_buffers[0].load(Ordering::Relaxed),
            buffers_copied: self.update_buffers[1].load(Ordering::Relaxed),
            target_rows: self.gauges.get(gauge::TARGET_ROWS).max(0) as u64,
            target_row_builds: self.target_row_builds.load(Ordering::Relaxed),
            target_row_reads: self.registry.counter_total(field::TARGET_ROW),
            translate_mean_us: self.translate.mean_us(),
            translate_max_us: self.translate.max_us(),
            repair_mean_us: self.repair.mean_us(),
            repair_max_us: self.repair.max_us(),
            latency_count: self.latency.count(),
            latency_mean_us: self.latency.mean_us(),
            latency_p50_us: self.latency.quantile_us(0.50).unwrap_or(0),
            latency_p99_us: self.latency.quantile_us(0.99).unwrap_or(0),
            latency_max_us: self.latency.max_us(),
            shortest_path_computations: self.registry.counter_total(field::SP),
            lower_bound_computations: self.registry.counter_total(field::LB),
            testlb_calls: self.registry.counter_total(field::TESTLB),
            nodes_settled: self.registry.counter_total(field::SETTLED),
            edges_relaxed: self.registry.counter_total(field::RELAXED),
            subspaces_created: self.registry.counter_total(field::SUBSPACES),
            heap_pops: self.registry.counter_total(field::HEAP_POPS),
            lb_prunes: self.registry.counter_total(field::LB_PRUNES),
            subspaces_skipped: self.registry.counter_total(field::SUBSPACES_SKIPPED),
            tau_updates: self.registry.counter_total(field::TAU_UPDATES),
        }
    }
}

/// Point-in-time copy of every served metric.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Whole seconds the server has been up. Monotonic per process: a
    /// scraper seeing this shrink knows the server restarted (and every
    /// counter below reset) between scrapes.
    pub uptime_s: u64,
    /// 1-based sequence number of this snapshot. Also resets with the
    /// process, so `(uptime_s, snapshot_seq)` orders snapshots across
    /// restarts where raw counters would silently rewind.
    pub snapshot_seq: u64,
    /// Queries that ran to completion (including engine failures).
    pub queries: u64,
    /// Completed queries that returned an error.
    pub failures: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Queries that exceeded their deadline.
    pub deadline_exceeded: u64,
    /// Cache hits on completed entries.
    pub cache_hits: u64,
    /// Requests that joined an in-flight identical query.
    pub cache_shared: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Revalidations of older-epoch cache entries, indexed by
    /// [`Verdict`]: kept, on_path, decrease, too_old.
    pub revalidations: [u64; 4],
    /// Total paths returned to clients.
    pub paths_returned: u64,
    /// Weight-update batches published as new graph epochs.
    pub epoch_swaps: u64,
    /// Distinct edges changed across all published batches.
    pub edges_updated: u64,
    /// Published batches written into the retired previous epoch.
    pub buffers_reused: u64,
    /// Published batches written into a full copy of the current epoch
    /// (the previous one was still pinned, or memory-mapped).
    pub buffers_copied: u64,
    /// Exact target rows the serving epoch held when the `target_rows`
    /// gauge was last set.
    pub target_rows: u64,
    /// Exact target rows built.
    pub target_row_builds: u64,
    /// Queries answered with an exact target row.
    pub target_row_reads: u64,
    /// Mean time to translate a published batch into engine ids, µs.
    pub translate_mean_us: u64,
    /// Worst batch translation time, µs.
    pub translate_max_us: u64,
    /// Mean landmark-repair time per published batch, µs.
    pub repair_mean_us: u64,
    /// Worst landmark-repair time, µs.
    pub repair_max_us: u64,
    /// Latency observations recorded.
    pub latency_count: u64,
    /// Mean end-to-end latency, µs.
    pub latency_mean_us: u64,
    /// Approximate median latency, µs.
    pub latency_p50_us: u64,
    /// Approximate 99th-percentile latency, µs.
    pub latency_p99_us: u64,
    /// Worst observed latency, µs.
    pub latency_max_us: u64,
    /// Summed engine stat: shortest-path computations.
    pub shortest_path_computations: u64,
    /// Summed engine stat: lower-bound computations.
    pub lower_bound_computations: u64,
    /// Summed engine stat: `TestLB` invocations.
    pub testlb_calls: u64,
    /// Summed engine stat: nodes settled.
    pub nodes_settled: u64,
    /// Summed engine stat: edges relaxed.
    pub edges_relaxed: u64,
    /// Summed engine stat: subspaces created.
    pub subspaces_created: u64,
    /// Summed engine stat: heap pops across every priority queue.
    pub heap_pops: u64,
    /// Summed engine stat: frontier entries discarded by a lower bound.
    pub lb_prunes: u64,
    /// Summed engine stat: subspaces dropped without a search.
    pub subspaces_skipped: u64,
    /// Summed engine stat: τ-tightening rounds.
    pub tau_updates: u64,
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "uptime_s={} snapshot_seq={}",
            self.uptime_s, self.snapshot_seq
        )?;
        writeln!(
            f,
            "queries={} failures={} rejected={} deadline_exceeded={}",
            self.queries, self.failures, self.rejected, self.deadline_exceeded
        )?;
        let [kept, on_path, decrease, too_old] = self.revalidations;
        writeln!(
            f,
            "cache: hits={} shared={} misses={} revalidated: kept={kept} on_path={on_path} decrease={decrease} too_old={too_old}",
            self.cache_hits, self.cache_shared, self.cache_misses
        )?;
        writeln!(
            f,
            "updates: epoch_swaps={} edges_updated={} buffers: reused={} copied={} translate_us: mean={} max={} repair_us: mean={} max={}",
            self.epoch_swaps,
            self.edges_updated,
            self.buffers_reused,
            self.buffers_copied,
            self.translate_mean_us,
            self.translate_max_us,
            self.repair_mean_us,
            self.repair_max_us
        )?;
        writeln!(
            f,
            "target_rows: held={} builds={} reads={}",
            self.target_rows, self.target_row_builds, self.target_row_reads
        )?;
        writeln!(
            f,
            "latency_us: mean={} p50={} p99={} max={} (n={})",
            self.latency_mean_us,
            self.latency_p50_us,
            self.latency_p99_us,
            self.latency_max_us,
            self.latency_count
        )?;
        write!(
            f,
            "engine: sp={} lb={} testlb={} settled={} relaxed={} subspaces={} \
             heap_pops={} lb_prunes={} subspaces_skipped={} tau_updates={}",
            self.shortest_path_computations,
            self.lower_bound_computations,
            self.testlb_calls,
            self.nodes_settled,
            self.edges_relaxed,
            self.subspaces_created,
            self.heap_pops,
            self.lb_prunes,
            self.subspaces_skipped,
            self.tau_updates
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_index_matches_registry_rows() {
        let m = Metrics::new();
        for (i, alg) in Algorithm::ALL.into_iter().enumerate() {
            assert_eq!(algorithm_index(alg), i);
            assert_eq!(m.registry().algorithms()[i], alg.name());
        }
        assert_eq!(m.registry().counter_names(), QueryStats::FIELD_NAMES);
    }

    #[test]
    fn snapshot_reflects_recorded_events() {
        let m = Metrics::new();
        m.record_query(Duration::from_micros(10), true, 20);
        m.record_query(Duration::from_millis(2), false, 0);
        m.record_rejected();
        m.record_deadline_exceeded();
        m.record_cache_hit();
        m.record_cache_shared();
        m.record_cache_miss();
        let stats = QueryStats {
            nodes_settled: 7,
            shortest_path_computations: 3,
            heap_pops: 11,
            subspaces_skipped: 2,
            ..Default::default()
        };
        m.absorb_stats(Algorithm::Da, &stats);
        m.absorb_stats(Algorithm::IterBoundI, &stats);
        let s = m.snapshot();
        assert_eq!(s.queries, 2);
        assert_eq!(s.failures, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.deadline_exceeded, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_shared, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.paths_returned, 20);
        assert_eq!(s.latency_count, 2);
        assert_eq!(s.nodes_settled, 14);
        assert_eq!(s.shortest_path_computations, 6);
        assert_eq!(s.heap_pops, 22);
        assert_eq!(s.subspaces_skipped, 4);
        assert!(s.latency_p99_us >= 2000);
        // The per-algorithm split is preserved underneath the totals.
        let da = algorithm_index(Algorithm::Da);
        assert_eq!(m.registry().counter(da, field::HEAP_POPS), 11);
        let text = s.to_string();
        assert!(text.contains("queries=2"));
        assert!(text.contains("heap_pops=22"));
    }

    #[test]
    fn stage_recording_lands_in_the_right_cell() {
        let m = Metrics::new();
        m.record_stage(
            Algorithm::BestFirst,
            Stage::QueueWait,
            Duration::from_micros(30),
        );
        let idx = algorithm_index(Algorithm::BestFirst);
        assert_eq!(m.registry().histogram(idx, Stage::QueueWait).count(), 1);
        assert_eq!(m.registry().histogram(idx, Stage::Total).count(), 0);
    }

    #[test]
    fn prometheus_exposition_covers_service_events() {
        let m = Metrics::new();
        m.record_query(Duration::from_micros(5), true, 1);
        m.record_cache_miss();
        m.record_revalidation(Verdict::Decrease);
        let mut text = String::new();
        m.render_prometheus(&mut text);
        assert!(text.contains("kpj_service_events_total{event=\"queries\"} 1"));
        assert!(text.contains("kpj_service_events_total{event=\"cache_misses\"} 1"));
        assert!(text.contains("kpj_cache_revalidations_total{verdict=\"decrease\"} 1"));
        assert!(text.contains("kpj_cache_revalidations_total{verdict=\"too_old\"} 0"));
        assert!(text.contains("kpj_stage_duration_seconds_bucket{algorithm=\"DA\""));
    }
}
