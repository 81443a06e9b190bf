//! Exact target rows in the serving layer (DESIGN.md §18).
//!
//! A KPJ target set is a *category*, and a serving stream sends the same
//! category again and again. For such a set one exact row `d(v, V_T)`
//! ([`TargetRow`]) replaces the per-query landmark Eq. (2) bound of every
//! algorithm that reads target bounds, and is worth keeping:
//!
//! * **Where rows live.** Every [`GraphEpoch`](crate::GraphEpoch) holds a
//!   [`TargetRows`] set of at most [`ROW_BUDGET`] rows built on its
//!   graph. Rows join while the epoch serves; an update batch repairs
//!   every row of the serving epoch into the next one
//!   (`KpjService::apply_update`), double-buffered like the landmark
//!   tables.
//! * **When a row is built.** The pool keeps a fixed-size table of
//!   target-set [`Sightings`]. A worker about to run a query that reads
//!   target bounds looks for a row; without one it records a sighting,
//!   and on the set's second sighting builds the row itself, on the
//!   query's pinned epoch, and answers with it ([`serve_row`]). One build
//!   runs at a time: queries arriving meanwhile use Eq. (2) and never
//!   wait for it. A query with a timeout never builds (the build cannot
//!   be cancelled), so it only reads rows and counts sightings.
//! * **Budget.** Rows are never evicted: once [`ROW_BUDGET`] sets hold a
//!   row, further sets are answered with Eq. (2).
//! * **Sealing.** The update batch that repairs an epoch's rows into the
//!   next epoch seals the set first, under its write lock. A row built
//!   on a sealed epoch would not move on, so it answers its own query
//!   only and the set keeps its sightings: the next query on the new
//!   epoch builds again at once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use kpj_graph::{EdgeDelta, Graph, NodeId};
use kpj_landmark::{RepairScratch, TargetRow};

use crate::epoch::GraphEpoch;
use crate::metrics::{event, gauge, Metrics};

/// Most rows one epoch holds: `4 × n × 8` bytes, 3.4 MB on CAL.
pub const ROW_BUDGET: usize = 4;

/// Entries of the direct-mapped sighting table.
const SIGHTING_SLOTS: usize = 64;

/// The exact target rows one epoch serves (see the module docs).
#[derive(Default)]
pub struct TargetRows {
    held: RwLock<Held>,
}

#[derive(Default)]
struct Held {
    rows: Vec<Arc<TargetRow>>,
    /// Set once an update batch took `rows` to repair into the next
    /// epoch; no row joins after that.
    sealed: bool,
}

impl TargetRows {
    fn read(&self) -> RwLockReadGuard<'_, Held> {
        self.held
            .read()
            .expect("target rows lock poisoned: a row insert panicked")
    }

    fn write(&self) -> RwLockWriteGuard<'_, Held> {
        self.held
            .write()
            .expect("target rows lock poisoned: a row insert panicked")
    }

    /// Rows held.
    pub fn len(&self) -> usize {
        self.read().rows.len()
    }

    /// True when no row is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row for a normalized (sorted, deduplicated) target set, if
    /// held. A read-lock, at most [`ROW_BUDGET`] slice compares and a
    /// refcount bump — **no allocation**.
    pub fn lookup(&self, targets: &[NodeId]) -> Option<Arc<TargetRow>> {
        let held = self.read();
        held.rows.iter().find(|r| r.targets() == targets).cloned()
    }

    /// Every held row.
    pub fn rows(&self) -> Vec<Arc<TargetRow>> {
        self.read().rows.clone()
    }

    /// Whether a new row could still join: a slot is free and no update
    /// batch has sealed the set.
    fn has_room(&self) -> bool {
        let held = self.read();
        !held.sealed && held.rows.len() < ROW_BUDGET
    }

    /// Hold `row`; false when the set is already held, the budget is
    /// full, or the set is sealed.
    fn insert(&self, row: Arc<TargetRow>) -> bool {
        let mut held = self.write();
        if held.sealed
            || held.rows.len() >= ROW_BUDGET
            || held.rows.iter().any(|r| r.targets() == row.targets())
        {
            return false;
        }
        held.rows.push(row);
        true
    }

    /// Seal this set and repair every row into the next epoch's set for
    /// `updated` (the post-batch graph). `spares` are the previous
    /// epoch's rows as returned by the last call: a row whose spare has
    /// retired is written into it through its journal instead of a fresh
    /// copy. The repair kernel works in `scratch`. Returns the next set,
    /// the spares for the next batch, and the nodes whose distance was
    /// recomputed.
    pub(crate) fn repaired(
        &self,
        updated: &Graph,
        deltas: &[EdgeDelta],
        mut spares: Vec<RowSpare>,
        scratch: &mut RepairScratch,
    ) -> (TargetRows, Vec<RowSpare>, u64) {
        let rows = {
            let mut held = self.write();
            held.sealed = true;
            held.rows.clone()
        };
        let mut next = Vec::with_capacity(rows.len());
        let mut next_spares = Vec::with_capacity(rows.len());
        let mut affected = 0;
        for row in rows {
            // Rows are never evicted and a set is held once per epoch, so
            // a spare of the same set is the version this row was
            // repaired from, and its journal leads here.
            let matched = spares.iter().position(|s| s.old.targets() == row.targets());
            let (spare, mut journal) = match matched {
                Some(i) => {
                    let s = spares.swap_remove(i);
                    (Arc::try_unwrap(s.old).ok(), s.journal)
                }
                None => (None, Vec::new()),
            };
            let (repaired, stats) =
                row.repaired_reusing(updated, deltas, spare, &mut journal, scratch);
            affected += stats.affected_nodes;
            next.push(Arc::new(repaired));
            next_spares.push(RowSpare { old: row, journal });
        }
        let rows = TargetRows {
            held: RwLock::new(Held {
                rows: next,
                sealed: false,
            }),
        };
        (rows, next_spares, affected)
    }
}

impl std::fmt::Debug for TargetRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TargetRows")
            .field("len", &self.len())
            .finish()
    }
}

/// The previous epoch's version of one row, kept so the next batch can
/// write into it once that epoch retires (the row half of the update
/// double buffer).
pub(crate) struct RowSpare {
    /// The previous epoch's row.
    old: Arc<TargetRow>,
    /// Entries where `old` may differ from the current epoch's row of
    /// the same set.
    journal: Vec<usize>,
}

/// The pool's fixed-size record of target sets seen without a row, plus
/// the single-flight flag for row builds. Each
/// [`EnginePool`](crate::EnginePool) owns one; its workers consult it
/// through [`serve_row`].
pub struct Sightings {
    /// Direct-mapped `(fingerprint, sightings)`; a colliding set simply
    /// takes the entry over.
    table: Mutex<[(u64, u32); SIGHTING_SLOTS]>,
    building: AtomicBool,
}

impl Default for Sightings {
    fn default() -> Self {
        Sightings {
            table: Mutex::new([(0, 0); SIGHTING_SLOTS]),
            building: AtomicBool::new(false),
        }
    }
}

/// Clears the single-flight flag when a build ends, however it ends.
struct BuildGuard<'a>(&'a AtomicBool);

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl Sightings {
    fn table(&self) -> MutexGuard<'_, [(u64, u32); SIGHTING_SLOTS]> {
        self.table
            .lock()
            .expect("sighting table lock poisoned: a sighting panicked")
    }

    /// Record one sighting of the set with fingerprint `key`; returns
    /// how often it has been seen.
    fn sight(&self, key: u64) -> u32 {
        let mut table = self.table();
        let entry = &mut table[(key % SIGHTING_SLOTS as u64) as usize];
        if entry.0 == key {
            entry.1 = entry.1.saturating_add(1);
        } else {
            *entry = (key, 1);
        }
        entry.1
    }

    /// Drop the set's entry (it got its row).
    fn forget(&self, key: u64) {
        let mut table = self.table();
        let entry = &mut table[(key % SIGHTING_SLOTS as u64) as usize];
        if entry.0 == key {
            *entry = (0, 0);
        }
    }

    /// Claim the one build slot, or `None` while another build runs.
    /// The flag guards no data of its own (the row is published through
    /// the epoch's lock); Acquire here pairs with the guard's Release
    /// store so a new build starts after the previous one ended.
    fn try_begin_build(&self) -> Option<BuildGuard<'_>> {
        (!self.building.swap(true, Ordering::Acquire)).then(|| BuildGuard(&self.building))
    }
}

/// Fingerprint of a normalized target set (FxHash-style fold).
fn fingerprint(targets: &[NodeId]) -> u64 {
    targets.iter().fold(targets.len() as u64, |h, &v| {
        (h.rotate_left(5) ^ u64::from(v)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    })
}

/// The row a worker should attach before running a query with these
/// `targets` on `epoch` — `None` for "answer with Eq. (2)". Normalizes
/// the set into `key` (a pooled buffer), reads a held row, and otherwise
/// records a sighting and, on the second one and if `may_build`, builds
/// the row on `epoch` (single flight) and answers with it. Callers only
/// ask for algorithms that read target bounds, and pass `may_build =
/// false` for a query with a deadline. Once `key` is warm a held row is
/// found without allocating.
pub fn serve_row(
    epoch: &GraphEpoch,
    targets: &[NodeId],
    key: &mut Vec<NodeId>,
    sightings: &Sightings,
    may_build: bool,
    metrics: Option<&Metrics>,
) -> Option<Arc<TargetRow>> {
    key.clear();
    key.extend_from_slice(targets);
    key.sort_unstable();
    key.dedup();
    let graph = epoch.graph();
    // Out-of-range targets fail in the engine; no row for them.
    if key.last().is_none_or(|&t| t as usize >= graph.node_count()) {
        return None;
    }
    let rows = epoch.rows();
    if let Some(row) = rows.lookup(key) {
        return Some(row);
    }
    let fingerprint = fingerprint(key);
    if sightings.sight(fingerprint) < 2 || !may_build || !rows.has_room() {
        return None;
    }
    let _build = sightings.try_begin_build()?;
    // Another worker may have finished this very build meanwhile.
    if let Some(row) = rows.lookup(key) {
        return Some(row);
    }
    let started = Instant::now();
    let row = Arc::new(TargetRow::build(graph, key));
    let build_us = started.elapsed().as_micros() as u64;
    if !rows.insert(Arc::clone(&row)) {
        // An update batch sealed the epoch during the build: the row
        // serves this query only, and the set keeps its sightings.
        return Some(row);
    }
    sightings.forget(fingerprint);
    if let Some(metrics) = metrics {
        let held = rows.len() as u64;
        metrics.record_row_built();
        metrics.gauges().set(gauge::TARGET_ROWS, held as i64);
        metrics.record_event(
            event::ROW_BUILT,
            [epoch.id(), key.len() as u64, build_us, held],
        );
    }
    Some(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_graph::{GraphBuilder, WeightUpdate};

    fn line(n: u32) -> Arc<Graph> {
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n - 1 {
            b.add_bidirectional(v, v + 1, 1 + v % 3).unwrap();
        }
        Arc::new(b.build())
    }

    fn reweighted(g: &Graph, from: NodeId, weight: u32) -> (Graph, Vec<EdgeDelta>) {
        g.with_updated_weights(&[WeightUpdate {
            from,
            to: from + 1,
            weight,
        }])
        .unwrap()
    }

    #[test]
    fn second_sighting_builds_and_later_queries_read() {
        let cell = crate::EpochCell::new(line(12), None);
        let epoch = cell.pin();
        let sightings = Sightings::default();
        let mut key = Vec::new();
        assert!(serve_row(&epoch, &[9, 3, 9], &mut key, &sightings, true, None).is_none());
        let built = serve_row(&epoch, &[3, 9], &mut key, &sightings, true, None).expect("built");
        assert_eq!(built.targets(), &[3, 9]);
        assert_eq!(*built, TargetRow::build(epoch.graph(), &[3, 9]));
        let read = serve_row(&epoch, &[9, 3], &mut key, &sightings, true, None).expect("held");
        assert!(Arc::ptr_eq(&built, &read));
        assert_eq!(epoch.rows().len(), 1);
        // Out-of-range and empty sets never get a row.
        for bad in [&[99u32][..], &[]] {
            for _ in 0..3 {
                assert!(serve_row(&epoch, bad, &mut key, &sightings, true, None).is_none());
            }
        }
    }

    #[test]
    fn a_query_that_may_not_build_only_reads_and_sights() {
        let cell = crate::EpochCell::new(line(12), None);
        let epoch = cell.pin();
        let sightings = Sightings::default();
        let mut key = Vec::new();
        for _ in 0..3 {
            assert!(serve_row(&epoch, &[4], &mut key, &sightings, false, None).is_none());
        }
        assert!(epoch.rows().is_empty());
        // Its sightings count: the next query that may build does.
        let built = serve_row(&epoch, &[4], &mut key, &sightings, true, None).expect("built");
        let read = serve_row(&epoch, &[4], &mut key, &sightings, false, None).expect("held");
        assert!(Arc::ptr_eq(&built, &read));
    }

    #[test]
    fn a_running_build_is_not_waited_for() {
        let cell = crate::EpochCell::new(line(8), None);
        let epoch = cell.pin();
        let sightings = Sightings::default();
        let mut key = Vec::new();
        let guard = sightings.try_begin_build().expect("free");
        for _ in 0..3 {
            assert!(serve_row(&epoch, &[5], &mut key, &sightings, true, None).is_none());
        }
        drop(guard);
        assert!(serve_row(&epoch, &[5], &mut key, &sightings, true, None).is_some());
    }

    #[test]
    fn a_full_budget_refuses_new_sets() {
        let g = line(16);
        let rows = TargetRows::default();
        for t in 0..ROW_BUDGET as u32 {
            assert!(rows.has_room());
            assert!(rows.insert(Arc::new(TargetRow::build(&g, &[t]))));
        }
        assert!(
            !rows.insert(Arc::new(TargetRow::build(&g, &[0]))),
            "held once"
        );
        assert!(!rows.has_room());
        assert!(!rows.insert(Arc::new(TargetRow::build(&g, &[10]))));
        assert!(rows.lookup(&[10]).is_none());
        assert!((0..ROW_BUDGET as u32).all(|t| rows.lookup(&[t]).is_some()));
        assert_eq!(rows.len(), ROW_BUDGET);
    }

    #[test]
    fn a_row_built_on_a_superseded_epoch_is_not_held_and_the_set_keeps_its_sightings() {
        let cell = crate::EpochCell::new(line(12), None);
        let old = cell.pin();
        let sightings = Sightings::default();
        let mut key = Vec::new();
        assert!(serve_row(&old, &[3, 9], &mut key, &sightings, true, None).is_none());
        // An update batch repairs the old epoch's rows and publishes.
        let (g1, deltas) = reweighted(old.graph(), 4, 9);
        let (rows, _, _) =
            old.rows()
                .repaired(&g1, &deltas, Vec::new(), &mut RepairScratch::default());
        cell.publish(Arc::new(g1), None, None, rows, deltas.len());
        // A query still pinned to the old epoch does not build there...
        assert!(serve_row(&old, &[3, 9], &mut key, &sightings, true, None).is_none());
        // ...and a build that was already running when the batch sealed
        // the set cannot join it.
        let late = Arc::new(TargetRow::build(old.graph(), &[3, 9]));
        assert!(!old.rows().insert(late));
        assert!(old.rows().is_empty());
        // The set kept its sightings: its first query on the new epoch
        // builds, and the row is held there.
        let new = cell.pin();
        let built = serve_row(&new, &[3, 9], &mut key, &sightings, true, None).expect("built");
        assert_eq!(*built, TargetRow::build(new.graph(), &[3, 9]));
        assert_eq!(new.rows().len(), 1);
    }

    #[test]
    fn repair_carries_rows_and_reuses_retired_spares() {
        let g = line(10);
        let rows = TargetRows::default();
        assert!(rows.insert(Arc::new(TargetRow::build(&g, &[2, 7]))));
        let mut graph = (*g).clone();
        let (mut current, mut spares) = (rows, Vec::new());
        let mut buffers = Vec::new();
        let mut scratch = RepairScratch::default();
        for round in 0..4u32 {
            let (next_graph, deltas) = reweighted(&graph, 4, 10 + round);
            let (next, next_spares, _) =
                current.repaired(&next_graph, &deltas, spares, &mut scratch);
            assert!(!current.has_room(), "repair seals the set it reads");
            let row = next.lookup(&[2, 7]).expect("carried");
            assert_eq!(
                *row,
                TargetRow::build(&next_graph, &[2, 7]),
                "round {round}"
            );
            // The first batch copies; from then on every row is written
            // into the buffer of the version two epochs back.
            buffers.push(row.dist().as_ptr());
            let r = round as usize;
            if r >= 2 {
                assert_eq!(buffers[r], buffers[r - 2], "round {round} copied");
            }
            drop(row);
            // Retire the previous epoch's set: its rows now live only in
            // the spares, so the next round writes into them.
            drop(current);
            current = next;
            spares = next_spares;
            graph = next_graph;
        }
    }

    #[test]
    fn a_spare_is_matched_by_target_set() {
        let g = line(10);
        let first = TargetRows::default();
        assert!(first.insert(Arc::new(TargetRow::build(&g, &[2, 7]))));
        assert!(first.insert(Arc::new(TargetRow::build(&g, &[0]))));
        let (g1, deltas) = reweighted(&g, 4, 9);
        let (second, spares, _) =
            first.repaired(&g1, &deltas, Vec::new(), &mut RepairScratch::default());
        drop(first);
        let spare_buffers: Vec<_> = spares.iter().map(|s| s.old.dist().as_ptr()).collect();
        // A set that joined the second epoch has no spare and is copied.
        assert!(second.insert(Arc::new(TargetRow::build(&g1, &[5]))));
        let (g2, deltas) = reweighted(&g1, 5, 9);
        let (third, _, _) = second.repaired(&g2, &deltas, spares, &mut RepairScratch::default());
        for (set, spare) in [(&[2u32, 7][..], Some(0)), (&[0], Some(1)), (&[5], None)] {
            let row = third.lookup(set).unwrap();
            assert_eq!(*row, TargetRow::build(&g2, set), "{set:?}");
            let reused = spare.map(|i| spare_buffers[i]);
            assert_eq!(
                reused == Some(row.dist().as_ptr()),
                spare.is_some(),
                "{set:?}"
            );
        }
    }
}
