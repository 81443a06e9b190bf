//! kpj-obs — the observability substrate shared by every kpj layer.
//!
//! The paper's evaluation (§7) explains KPJ performance through *internal*
//! quantities — shortest-path computations, lower-bound prunes, τ
//! tightenings — not wall time alone. This crate provides the plumbing to
//! surface those quantities from a serving stack without taxing the hot
//! path:
//!
//! | Module | Provides |
//! |---|---|
//! | [`trace`] | [`QueryTrace`]: a pre-allocated per-worker span ring buffer recording stage-scoped timings, switched off at runtime by a sampling rate of 0 |
//! | [`histogram`] | [`Histogram`]: fixed-bucket log-linear latency histogram with approximate quantiles (moved here from `kpj-service`) |
//! | [`registry`] | [`StageRegistry`]: histograms keyed by (algorithm, stage) plus per-algorithm work counters, rendered as Prometheus text |
//! | [`gauge`] | [`GaugeSet`]: lock-free named gauges with set/add/high-water semantics, rendered as a Prometheus gauge family |
//! | [`journal`] | [`EventJournal`]: a fixed-capacity preallocated ring of structured events with a drop counter, drained as JSONL |
//! | [`promlint`] | [`promlint::lint`]: a strict validator for the Prometheus text format, so tests can prove expositions stay scrapable |
//!
//! The crate deliberately depends on nothing: `kpj-graph`, `kpj-sp`,
//! `kpj-core` and `kpj-service` can all use it. Algorithm names and
//! counter names are caller-supplied `&'static str`s, so the registry
//! never needs to know what an `Algorithm` is.
//!
//! # Zero-allocation contract
//!
//! [`QueryTrace`] allocates its ring buffer once at construction;
//! [`QueryTrace::begin`], [`QueryTrace::start`] and [`QueryTrace::record`]
//! never allocate, so a warmed engine traced at sampling rate 1 still
//! answers queries with zero heap allocations (enforced by
//! `kpj-core/tests/alloc_count.rs`). The same contract covers the
//! system-state half: [`GaugeSet::set`]/[`GaugeSet::add`] and
//! [`EventJournal::record`] are pure atomics over storage allocated at
//! construction (enforced by `kpj-service/tests/journal_alloc.rs`).

#![warn(missing_docs)]

pub mod gauge;
pub mod histogram;
pub mod journal;
pub mod promlint;
pub mod registry;
pub mod trace;

pub use gauge::GaugeSet;
pub use histogram::Histogram;
pub use journal::{EventJournal, EventKind, JournalEvent, MAX_EVENT_ARGS};
pub use registry::StageRegistry;
pub use trace::{QueryTrace, SpanRecord, Stage, Tick};
