//! kpj-service — a concurrent query-serving layer over the KPJ engines.
//!
//! The algorithm crates answer one query at a time on one thread; this
//! crate turns them into a *service*:
//!
//! | Module | Provides |
//! |---|---|
//! | [`pool`] | [`EnginePool`]: N worker threads, each owning a private [`kpj_core::QueryEngine`], fed from a bounded queue with reject-on-full admission control |
//! | [`rows`] | [`TargetRows`]: exact `d(v, V_T)` rows for recurring target sets, built on a set's second sighting, held per epoch within [`ROW_BUDGET`] and repaired with every update |
//! | [`cache`] | [`ResultCache`]: sharded LRU over completed results with single-flight deduplication of concurrent identical queries on one epoch, serving an older epoch's answer only once it is revalidated against the update batches since |
//! | [`service`] | [`KpjService`]: cache → pool → deadline → metrics composition, the one call-site the front-ends share |
//! | [`metrics`] | [`Metrics`]: atomic counters, per-(algorithm, stage) latency histograms in a [`kpj_obs::StageRegistry`], per-algorithm engine [`kpj_core::QueryStats`] counters, the system-state [`kpj_obs::GaugeSet`] + structured [`kpj_obs::EventJournal`], Prometheus text exposition |
//! | [`flight`] | [`FlightRecorder`]: dumps queries slower than a threshold as replayable `.kpjcase` files with their span traces |
//! | [`wire`] | the newline-delimited JSON protocol (pure string → string) |
//! | [`server`] | the blocking TCP front-end (`kpj-serve` binary) |
//! | [`json`] | minimal JSON parser/writer (the build is offline; no serde) |
//!
//! Deadlines ride on [`kpj_core::Deadline`]: the engine polls
//! cooperatively and returns [`kpj_core::QueryError::DeadlineExceeded`]
//! without poisoning its reusable scratch.
//!
//! ```
//! use std::sync::Arc;
//! use kpj_core::Algorithm;
//! use kpj_graph::GraphBuilder;
//! use kpj_service::{KpjService, QueryRequest, ServiceConfig};
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_bidirectional(0, 1, 2).unwrap();
//! b.add_bidirectional(1, 2, 2).unwrap();
//! let service = KpjService::new(Arc::new(b.build()), None, ServiceConfig::default());
//!
//! let request = QueryRequest {
//!     algorithm: Algorithm::IterBoundI,
//!     sources: vec![0],
//!     targets: vec![2],
//!     k: 1,
//!     timeout_ms: Some(1_000),
//! };
//! let result = service.execute(&request).unwrap();
//! assert_eq!(result.paths.path(0).length, 4);
//! let again = service.execute(&request).unwrap();   // served from cache
//! assert_eq!(service.snapshot().cache_hits, 1);
//! assert_eq!(again.paths.path(0).length, 4);
//! assert!(Arc::ptr_eq(&result, &again));          // no result copy on a hit
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod epoch;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod rows;
pub mod server;
pub mod service;
pub mod wire;

pub use cache::{CacheKey, InFlight, Lookup, ResultCache, SharedFlight};
pub use epoch::{EpochCell, GraphEpoch};
pub use flight::FlightRecorder;
pub use metrics::{
    algorithm_index, event, gauge, Histogram, Metrics, MetricsSnapshot, EVENT_KINDS, GAUGE_NAMES,
    JOURNAL_CAPACITY, SLOW_SHED_US,
};
pub use pool::{resolve_workers, EnginePool, JobHandle, PoolConfig, PoolHooks, QueryRequest};
pub use rows::{Sightings, TargetRows, ROW_BUDGET};
pub use server::serve;
pub use service::{Answer, KpjService, ServiceConfig, UpdateOutcome};

/// Errors surfaced by the serving layer. `Clone` so single-flight can
/// broadcast one failure to every waiter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission control rejected the request: the queue is full.
    Overloaded,
    /// The pool is tearing down; no new work is accepted.
    ShuttingDown,
    /// The engine rejected or failed the query (including
    /// [`kpj_core::QueryError::DeadlineExceeded`]).
    Query(kpj_core::QueryError),
    /// A weight-update batch was rejected (unknown node or edge); the
    /// serving state is unchanged.
    Update(String),
    /// A worker panicked or an in-flight computation was abandoned.
    Internal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded => write!(f, "service overloaded: queue is full"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Query(e) => write!(f, "{e}"),
            ServiceError::Update(msg) => write!(f, "bad update: {msg}"),
            ServiceError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<kpj_core::QueryError> for ServiceError {
    fn from(e: kpj_core::QueryError) -> Self {
        ServiceError::Query(e)
    }
}
