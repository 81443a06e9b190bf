//! Epoch/RCU-style graph versioning: live weight updates with zero query
//! downtime.
//!
//! A [`GraphEpoch`] is one immutable published version of the serving
//! state — graph plus (repaired) landmark index — and the exact target
//! rows built on it ([`TargetRows`], the one part that grows while the
//! epoch serves; see the `rows` module). Queries **pin** the
//! current epoch at admission ([`EpochCell::pin`], a lock-guarded
//! `Arc::clone`, no allocation) and run to completion on it; the updater
//! builds the next version off to the side and **publishes** it with an
//! atomic pointer swap. A published epoch is never mutated, so readers
//! need no fences beyond the `RwLock` read, and an old epoch **retires**
//! the moment its last pinned query drops its `Arc` — classic RCU with
//! reference counts standing in for the grace period. The updater keeps
//! the previous epoch's graph and tables and, once they have retired
//! (no reader can reach them any more), writes the next version into
//! them instead of copying the current one (`KpjService::apply_update`).
//!
//! The epoch id is also the cache-coherence token: a cached answer
//! records the newest epoch it is known to be correct on, and a request
//! that pinned a newer epoch is served it only after revalidating it
//! against the update batches in between (the `cache` module, DESIGN.md
//! §14).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

use kpj_graph::{Graph, Reduction};
use kpj_landmark::LandmarkIndex;

use crate::rows::TargetRows;

/// One immutable published version of the serving state.
pub struct GraphEpoch {
    id: u64,
    graph: Arc<Graph>,
    landmarks: Option<Arc<LandmarkIndex>>,
    /// When the graph is a reduced one (v2 `--reduce` storage), the
    /// [`Reduction`] every worker engine expands answer paths through.
    /// Versioned with the epoch because an interior-chain weight update
    /// replaces the expansion prefix sums along with the graph.
    reduction: Option<Arc<Reduction>>,
    /// Exact target rows on this epoch's graph: repaired from the
    /// previous epoch at publish, joined by rows built while serving.
    rows: TargetRows,
    /// Distinct edges whose weight changed between the previous epoch and
    /// this one (0 for the initial epoch) — the update's blast radius,
    /// surfaced in update responses and metrics.
    touched_edges: usize,
    /// Live-epoch gauge shared with the [`EpochCell`]; decremented on
    /// drop so tests and metrics can watch retirement happen.
    live: Arc<AtomicUsize>,
    /// Stamped (once, by the publisher, inside the swap's write lock)
    /// the moment a newer epoch replaced this one. Lets idle workers
    /// report how long a superseded graph lingered before they shed it.
    superseded: OnceLock<Instant>,
}

impl GraphEpoch {
    fn new(
        id: u64,
        graph: Arc<Graph>,
        landmarks: Option<Arc<LandmarkIndex>>,
        reduction: Option<Arc<Reduction>>,
        rows: TargetRows,
        touched_edges: usize,
        live: Arc<AtomicUsize>,
    ) -> Arc<GraphEpoch> {
        live.fetch_add(1, Ordering::Relaxed);
        Arc::new(GraphEpoch {
            id,
            graph,
            landmarks,
            reduction,
            rows,
            touched_edges,
            live,
            superseded: OnceLock::new(),
        })
    }

    /// Monotonically increasing version number (the initial epoch is 0).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The graph this epoch serves.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The landmark index this epoch serves (already repaired for its
    /// graph), if the service has one.
    pub fn landmarks(&self) -> Option<&Arc<LandmarkIndex>> {
        self.landmarks.as_ref()
    }

    /// The reduction this epoch's graph was produced by, if any.
    pub fn reduction(&self) -> Option<&Arc<Reduction>> {
        self.reduction.as_ref()
    }

    /// The exact target rows this epoch serves.
    pub fn rows(&self) -> &TargetRows {
        &self.rows
    }

    /// Distinct edges changed relative to the previous epoch.
    pub fn touched_edges(&self) -> usize {
        self.touched_edges
    }

    /// Time since a newer epoch replaced this one, or `None` while it is
    /// still current. The publisher stamps the outgoing epoch inside the
    /// swap, so "how stale is the graph I'm about to shed?" is answerable
    /// without any clock reads on the query path.
    pub fn superseded_elapsed(&self) -> Option<Duration> {
        self.superseded.get().map(Instant::elapsed)
    }
}

impl Drop for GraphEpoch {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for GraphEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphEpoch")
            .field("id", &self.id)
            .field("touched_edges", &self.touched_edges)
            .finish_non_exhaustive()
    }
}

/// The swap point: holds the current epoch and hands out pins.
pub struct EpochCell {
    current: RwLock<Arc<GraphEpoch>>,
    live: Arc<AtomicUsize>,
}

impl EpochCell {
    /// Wrap the initial serving state as epoch 0.
    pub fn new(graph: Arc<Graph>, landmarks: Option<Arc<LandmarkIndex>>) -> EpochCell {
        EpochCell::new_reduced(graph, landmarks, None)
    }

    /// [`new`](EpochCell::new) for a reduced graph: every epoch carries
    /// the reduction so worker engines expand answers transparently.
    pub fn new_reduced(
        graph: Arc<Graph>,
        landmarks: Option<Arc<LandmarkIndex>>,
        reduction: Option<Arc<Reduction>>,
    ) -> EpochCell {
        let live = Arc::new(AtomicUsize::new(0));
        let first = GraphEpoch::new(
            0,
            graph,
            landmarks,
            reduction,
            TargetRows::default(),
            0,
            Arc::clone(&live),
        );
        EpochCell {
            current: RwLock::new(first),
            live,
        }
    }

    /// Pin the current epoch: the returned `Arc` keeps its graph and
    /// landmark tables alive for as long as the caller holds it. This is
    /// a read-lock plus a refcount increment — **no allocation** — so
    /// the per-query zero-alloc gate holds across it.
    pub fn pin(&self) -> Arc<GraphEpoch> {
        Arc::clone(&self.current.read().unwrap())
    }

    /// The current epoch id without pinning.
    pub fn current_id(&self) -> u64 {
        self.current.read().unwrap().id
    }

    /// Publish the next epoch — its graph, landmark index, reduction (a
    /// chain-interior weight update may have rewritten prefix sums) and
    /// the target rows repaired for its graph — and return it. The swap
    /// is atomic with respect to [`pin`](EpochCell::pin): a concurrent
    /// query gets either the old epoch or the new one, intact — never a
    /// mix. Callers serialize their *builds* (the service holds an
    /// updater lock); this method only serializes the swap itself.
    pub fn publish(
        &self,
        graph: Arc<Graph>,
        landmarks: Option<Arc<LandmarkIndex>>,
        reduction: Option<Arc<Reduction>>,
        rows: TargetRows,
        touched_edges: usize,
    ) -> Arc<GraphEpoch> {
        let mut current = self.current.write().unwrap();
        let next = GraphEpoch::new(
            current.id + 1,
            graph,
            landmarks,
            reduction,
            rows,
            touched_edges,
            Arc::clone(&self.live),
        );
        let _ = current.superseded.set(Instant::now());
        *current = Arc::clone(&next);
        next
    }

    /// Number of epochs not yet retired (published minus dropped). An
    /// idle service sits at 1; it grows only while old epochs still have
    /// pinned queries in flight.
    pub fn live_epochs(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_graph::GraphBuilder;

    fn tiny() -> Arc<Graph> {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1).unwrap();
        Arc::new(b.build())
    }

    #[test]
    fn pins_survive_publish_and_epochs_retire_on_drop() {
        let cell = EpochCell::new(tiny(), None);
        assert_eq!(cell.current_id(), 0);
        assert_eq!(cell.live_epochs(), 1);

        let pinned = cell.pin();
        let next_graph = tiny();
        let published = cell.publish(
            Arc::clone(&next_graph),
            None,
            None,
            TargetRows::default(),
            3,
        );
        assert_eq!(published.id(), 1);
        assert_eq!(published.touched_edges(), 3);
        assert_eq!(cell.current_id(), 1);
        // The old epoch is still alive: `pinned` holds it.
        assert_eq!(cell.live_epochs(), 2);
        assert_eq!(pinned.id(), 0);
        drop(pinned);
        assert_eq!(cell.live_epochs(), 1, "old epoch retires with its last pin");

        // New pins see the new epoch (and its graph identity).
        let fresh = cell.pin();
        assert_eq!(fresh.id(), 1);
        assert!(Arc::ptr_eq(fresh.graph(), &next_graph));
    }

    #[test]
    fn publish_ids_are_sequential() {
        let cell = EpochCell::new(tiny(), None);
        for expect in 1..=5 {
            let e = cell.publish(tiny(), None, None, TargetRows::default(), 0);
            assert_eq!(e.id(), expect);
        }
        assert_eq!(cell.current_id(), 5);
        assert_eq!(cell.live_epochs(), 1, "unpinned epochs retire immediately");
    }
}
