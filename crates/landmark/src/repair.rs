//! Incremental landmark-table repair after a batch of edge-weight
//! changes — bounded Dijkstra from the changed edges instead of a full
//! rebuild, bit-identical to rebuilding every row from scratch.
//!
//! ## Why repair must keep the landmark *set*
//!
//! [`SelectionStrategy::Farthest`](crate::SelectionStrategy) breaks ties
//! with the selection RNG, so re-running selection on the updated graph
//! could pick different landmarks even for a tiny weight change. Repair
//! therefore carries the existing landmark ids over verbatim and only
//! fixes their distance rows; the full-rebuild reference
//! ([`LandmarkIndex::rebuilt`]) does the same, which is what makes
//! bit-identity a meaningful oracle check (distances are unique scalars —
//! unlike paths there are no tie representatives to normalize).
//!
//! ## The per-row algorithm (Ramalingam–Reps style)
//!
//! For one landmark `s` with old distance row `d`:
//!
//! 1. **Affected region** `R`: every node whose old distance might be
//!    stale-low after a weight *increase*. Seeded at the heads of
//!    increased edges that were tight (`d[u] + w_old == d[v]`), then grown
//!    along edges tight under the old weights. This overapproximates the
//!    truly affected set (a node with an untouched alternative support is
//!    re-settled to the same value), but never misses: any shortest path
//!    that used an increased edge continues from its head along old tight
//!    edges. The landmark itself is never affected (`d[s] = 0` always).
//!    Only the tail of a changed edge can have an out-edge whose old
//!    weight differs from the graph's, so only there is the batch
//!    searched for it.
//! 2. Reset `d[v] = ∞` for `v ∈ R` and queue, writing each into the row
//!    as a tentative label, (a) the best boundary value
//!    `min d[u] + w_new(u→v)` over in-edges of each `v ∈ R` from outside
//!    `R`, and (b) `d[u] + w_new` for every *decreased* edge with tail
//!    outside `R`.
//! 3. Run Dijkstra to fixpoint over the whole graph (decreases may
//!    propagate beyond `R`) on a monotone radix queue. Initial distances
//!    are valid upper bounds — outside `R` the new distance can only be
//!    ≤ the old one — so this is plain Dijkstra with warm-started bounds
//!    and reproduces exactly the distance field a from-scratch run would
//!    compute. A node is queued once per strict improvement of its
//!    label, and a popped entry that is no longer its node's label is
//!    skipped.
//!
//! ## Either direction, any seed set
//!
//! The same three phases repair a [`TargetRow`] — the exact distances
//! `d(v, V_T)` *to* a target set. That row is a backward search seeded
//! with every target at 0, so the repair walks in-edges where a landmark
//! row walks out-edges, reads each changed edge head-first, and treats
//! every seed (not just one landmark) as never affected. One
//! implementation serves both, so both stay bit-identical to their
//! rebuilds ([`TargetRow::rebuilt`], [`LandmarkIndex::rebuilt`]).
//!
//! Cost is proportional to the perturbed region plus its frontier, not to
//! the graph: the sustained-update experiments in `EXPERIMENTS.md` show
//! the repair/rebuild gap this buys on road-like graphs.
//!
//! Rows are repaired in place in the output tables, which are either a
//! fresh copy of the input's (`O(|L|·n)`, [`LandmarkIndex::repaired`]) or
//! a retired earlier version brought up to date through the journal of
//! entries it is stale on ([`LandmarkIndex::repaired_reusing`]) — then
//! nothing in the call is proportional to the table size.

use kpj_graph::{EdgeDelta, Graph, Length, NodeId, INFINITE_LENGTH};
use kpj_heap::RadixHeap;
use kpj_sp::{DenseDijkstra, Direction};

use crate::{LandmarkIndex, TargetRow};

/// Work counters from one [`LandmarkIndex::repaired`] call, for metrics
/// and the repair-vs-rebuild experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Rows repaired (= number of landmarks).
    pub rows: usize,
    /// Nodes placed in the affected region across all rows.
    pub affected_nodes: u64,
    /// Heap pops that settled a node across all rows.
    pub settled_nodes: u64,
}

/// Working memory of the repair kernel that a caller repairing batch
/// after batch (the service's updater) keeps and passes to every
/// `repaired_reusing` call: the region list, the DFS stack and the radix
/// queue, whose capacities settle after a few batches. The two `n`-sized
/// flag arrays are not kept; each call allocates and frees its own
/// (DESIGN.md §14 has the memory measurement behind that).
#[derive(Debug, Default)]
pub struct RepairScratch {
    /// Nodes currently flagged in `in_region` (for cheap reset).
    region: Vec<NodeId>,
    /// DFS stack for growing `R`.
    stack: Vec<NodeId>,
    /// Dijkstra queue over tentative labels, lazy deletion.
    heap: RadixHeap<NodeId>,
}

/// One call's node flags, shared by its rows: [`repair_row`] clears
/// every flag it sets before it returns.
struct NodeFlags {
    /// Membership flags for the affected region `R`.
    in_region: Vec<bool>,
    /// Flags the tail, in walk direction, of every changed arc: only
    /// there can an arc's pre-batch weight differ from the graph's.
    changed_tail: Vec<bool>,
}

impl NodeFlags {
    fn new(n: usize) -> Self {
        NodeFlags {
            in_region: vec![false; n],
            changed_tail: vec![false; n],
        }
    }
}

/// The weight an edge copy had *before* the batch: the delta's pre-batch
/// effective (minimum) weight for changed pairs, the copy's own weight
/// otherwise. `deltas` must be sorted by `(from, to)`.
fn old_weight(deltas: &[EdgeDelta], from: NodeId, to: NodeId, current: u32) -> u32 {
    match deltas.binary_search_by_key(&(from, to), |d| (d.from, d.to)) {
        Ok(i) => deltas[i].old_weight,
        Err(_) => current,
    }
}

/// The batch's real changes, sorted and deduplicated by `(from, to)` —
/// the form [`repair_row`] expects.
fn normalized_deltas(deltas: &[EdgeDelta]) -> Vec<EdgeDelta> {
    let mut sorted: Vec<EdgeDelta> = deltas
        .iter()
        .copied()
        .filter(|d| d.old_weight != d.new_weight)
        .collect();
    sorted.sort_unstable_by_key(|d| (d.from, d.to));
    sorted.dedup_by_key(|d| (d.from, d.to));
    sorted
}

/// Repair one distance row in place. The row holds shortest distances
/// from the `seeds` (sorted; each at distance 0) along `direction`:
/// forward from one landmark for landmark tables, backward from every
/// target for a [`TargetRow`](crate::TargetRow). Every entry written is
/// pushed to `written` as a flat table index (`base + v`), so a later
/// version can be brought up to date from this one by copying just those
/// entries: region resets when they are reset, and every other write at
/// the settle that fixes its final value (each tentative label is
/// eventually popped at its last value, so no write escapes the list).
#[allow(clippy::too_many_arguments)]
fn repair_row(
    g: &Graph,
    deltas: &[EdgeDelta],
    direction: Direction,
    seeds: &[NodeId],
    dist: &mut [Length],
    base: usize,
    s: &mut RepairScratch,
    f: &mut NodeFlags,
    written: &mut Vec<usize>,
) -> (u64, u64) {
    debug_assert!(deltas
        .windows(2)
        .all(|w| (w[0].from, w[0].to) < (w[1].from, w[1].to)));
    debug_assert!(seeds.windows(2).all(|w| w[0] < w[1]));
    // A delta's edge as the search walks it: (tail, head) in `direction`.
    let ends = |d: &EdgeDelta| match direction {
        Direction::Forward => (d.from, d.to),
        Direction::Backward => (d.to, d.from),
    };
    // The pre-batch weight of the edge the search walks from `u` to `x`.
    let walked_old_weight = |u: NodeId, x: NodeId, current: u32| match direction {
        Direction::Forward => old_weight(deltas, u, x, current),
        Direction::Backward => old_weight(deltas, x, u, current),
    };
    for d in deltas {
        f.changed_tail[ends(d).0 as usize] = true;
    }
    // Phase 1: grow the affected region from increased tight edges.
    s.region.clear();
    s.stack.clear();
    // Seeds sit at distance 0 by definition and are never affected.
    let mark = |v: NodeId, s: &mut RepairScratch, f: &mut NodeFlags| {
        if !f.in_region[v as usize] && seeds.binary_search(&v).is_err() {
            f.in_region[v as usize] = true;
            s.region.push(v);
            s.stack.push(v);
        }
    };
    for d in deltas {
        let (tail, head) = ends(d);
        let dt = dist[tail as usize];
        if d.new_weight > d.old_weight
            && dt != INFINITE_LENGTH
            && dt + d.old_weight as Length == dist[head as usize]
        {
            mark(head, s, f);
        }
    }
    while let Some(u) = s.stack.pop() {
        let du = dist[u as usize];
        if du == INFINITE_LENGTH {
            continue;
        }
        let changed = f.changed_tail[u as usize];
        for e in direction.edges(g, u) {
            let w_old = if changed {
                walked_old_weight(u, e.to, e.weight)
            } else {
                e.weight
            };
            if du + w_old as Length == dist[e.to as usize] {
                mark(e.to, s, f);
            }
        }
    }
    for d in deltas {
        f.changed_tail[ends(d).0 as usize] = false;
    }
    let affected = s.region.len() as u64;
    // Phase 2: reset the region, then label and queue its boundary.
    s.heap.clear();
    for &v in &s.region {
        dist[v as usize] = INFINITE_LENGTH;
        written.push(base + v as usize);
    }
    for &v in &s.region {
        let mut best = INFINITE_LENGTH;
        // Edges reaching `v` in the search direction: `e.to` is the node
        // the search would come from.
        for e in direction.reversed().edges(g, v) {
            let u = e.to;
            if f.in_region[u as usize] {
                continue;
            }
            let du = dist[u as usize];
            if du != INFINITE_LENGTH {
                best = best.min(du + e.weight as Length);
            }
        }
        if best != INFINITE_LENGTH {
            dist[v as usize] = best;
            s.heap.push(best, v);
        }
    }
    for d in deltas {
        let (tail, head) = ends(d);
        if d.new_weight < d.old_weight && !f.in_region[tail as usize] {
            let dt = dist[tail as usize];
            if dt != INFINITE_LENGTH {
                let cand = dt + d.new_weight as Length;
                if cand < dist[head as usize] {
                    dist[head as usize] = cand;
                    s.heap.push(cand, head);
                }
            }
        }
    }
    // Phase 3: Dijkstra to fixpoint. Labels are tentative: a node is
    // queued once per strict improvement, and an entry whose key is no
    // longer its node's label is stale.
    let mut settled = 0u64;
    while let Some((d, v)) = s.heap.pop() {
        if d != dist[v as usize] {
            continue;
        }
        written.push(base + v as usize);
        settled += 1;
        for e in direction.edges(g, v) {
            let cand = d + e.weight as Length;
            if cand < dist[e.to as usize] {
                dist[e.to as usize] = cand;
                s.heap.push(cand, e.to);
            }
        }
    }
    for &v in &s.region {
        f.in_region[v as usize] = false;
    }
    (affected, settled)
}

impl LandmarkIndex {
    /// Repair the distance tables against `updated` (the post-batch graph)
    /// given the batch's [`EdgeDelta`]s, keeping the landmark set. The
    /// result is **bit-identical** to [`LandmarkIndex::rebuilt`] on the
    /// same graph — the oracle's interleaving mode enforces exactly that
    /// after every applied batch.
    pub fn repaired(&self, updated: &Graph, deltas: &[EdgeDelta]) -> (LandmarkIndex, RepairStats) {
        self.repaired_reusing(
            updated,
            deltas,
            None,
            &mut Vec::new(),
            &mut RepairScratch::default(),
        )
    }

    /// [`repaired`](LandmarkIndex::repaired) that repairs into `spare`
    /// instead of a fresh copy of the `|L| × n` tables, working in the
    /// caller's `scratch`.
    ///
    /// `spare` is a retired earlier version of this index (same landmark
    /// set and node count, heap-backed tables). `journal` is in/out: on
    /// entry it lists the flat table indices where `spare` differs from
    /// `self` — the journal the repair that produced `self` returned —
    /// and only those entries are copied over before the rows are
    /// repaired in place. On return it lists every entry this repair
    /// wrote (region resets and settles, duplicates possible), which is
    /// exactly what the next call needs to bring the result's own
    /// predecessor (`self`) up to date. Without a usable spare the tables
    /// are copied and the entry journal is ignored.
    pub fn repaired_reusing(
        &self,
        updated: &Graph,
        deltas: &[EdgeDelta],
        spare: Option<LandmarkIndex>,
        journal: &mut Vec<usize>,
        scratch: &mut RepairScratch,
    ) -> (LandmarkIndex, RepairStats) {
        let n = self.node_count();
        assert_eq!(
            n,
            updated.node_count(),
            "weight updates never change topology"
        );
        let sorted = normalized_deltas(deltas);
        let mut stats = RepairStats {
            rows: self.landmarks().len(),
            ..RepairStats::default()
        };
        let current = self.tables();
        let spare = spare.filter(|old| {
            old.node_count == n && old.landmarks == self.landmarks && !old.is_mapped()
        });
        let mut next = match spare {
            Some(mut old) => {
                let tables = old.tables.as_mut_slice().expect("heap-backed spare");
                for &i in journal.iter() {
                    tables[i] = current[i];
                }
                debug_assert!(
                    old == *self,
                    "patched spare differs from the current landmark tables"
                );
                old
            }
            None => LandmarkIndex::from_parts(self.landmarks().to_vec(), current.to_vec(), n),
        };
        journal.clear();
        if !sorted.is_empty() {
            let tables = next
                .tables
                .as_mut_slice()
                .expect("fresh or heap-backed spare");
            let mut flags = NodeFlags::new(n);
            for (l, &source) in self.landmarks().iter().enumerate() {
                let row = &mut tables[l * n..(l + 1) * n];
                let (affected, settled) = repair_row(
                    updated,
                    &sorted,
                    Direction::Forward,
                    std::slice::from_ref(&source),
                    row,
                    l * n,
                    scratch,
                    &mut flags,
                    journal,
                );
                stats.affected_nodes += affected;
                stats.settled_nodes += settled;
            }
        }
        (next, stats)
    }

    /// Rebuild every distance row from scratch on `g`, keeping the
    /// landmark set — the reference [`LandmarkIndex::repaired`] must match
    /// bit-for-bit.
    pub fn rebuilt(&self, g: &Graph) -> LandmarkIndex {
        let n = self.node_count();
        assert_eq!(n, g.node_count(), "weight updates never change topology");
        let mut tables = Vec::with_capacity(self.landmarks().len() * n);
        for &l in self.landmarks() {
            tables.extend(DenseDijkstra::from_source(g, l).into_dist());
        }
        LandmarkIndex::from_parts(self.landmarks().to_vec(), tables, n)
    }
}

impl TargetRow {
    /// Repair the row against `updated` (the post-batch graph) given the
    /// batch's [`EdgeDelta`]s. The result is **bit-identical** to
    /// [`TargetRow::rebuilt`] on the same graph.
    pub fn repaired(&self, updated: &Graph, deltas: &[EdgeDelta]) -> (TargetRow, RepairStats) {
        self.repaired_reusing(
            updated,
            deltas,
            None,
            &mut Vec::new(),
            &mut RepairScratch::default(),
        )
    }

    /// [`repaired`](TargetRow::repaired) that repairs into `spare`, a
    /// retired earlier version of this row, instead of a fresh copy,
    /// working in the caller's `scratch` —
    /// the same journal contract as
    /// [`LandmarkIndex::repaired_reusing`]: on entry `journal` lists the
    /// entries where `spare` may differ from `self`, on return the
    /// entries this repair wrote. A spare for another target set or node
    /// count is ignored (the row is copied).
    pub fn repaired_reusing(
        &self,
        updated: &Graph,
        deltas: &[EdgeDelta],
        spare: Option<TargetRow>,
        journal: &mut Vec<usize>,
        scratch: &mut RepairScratch,
    ) -> (TargetRow, RepairStats) {
        let n = self.node_count();
        assert_eq!(
            n,
            updated.node_count(),
            "weight updates never change topology"
        );
        let sorted = normalized_deltas(deltas);
        let mut stats = RepairStats {
            rows: 1,
            ..RepairStats::default()
        };
        let spare = spare.filter(|old| old.dist.len() == n && old.targets == self.targets);
        let mut next = match spare {
            Some(mut old) => {
                for &i in journal.iter() {
                    old.dist[i] = self.dist[i];
                }
                debug_assert!(
                    old == *self,
                    "patched spare differs from the current target row"
                );
                old
            }
            None => self.clone(),
        };
        journal.clear();
        if !sorted.is_empty() {
            let (affected, settled) = repair_row(
                updated,
                &sorted,
                Direction::Backward,
                &next.targets,
                &mut next.dist,
                0,
                scratch,
                &mut NodeFlags::new(n),
                journal,
            );
            stats.affected_nodes = affected;
            stats.settled_nodes = settled;
        }
        (next, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_graph::{GraphBuilder, WeightUpdate};

    use crate::SelectionStrategy;

    /// Deterministic pseudo-random road-like graph: a `w × h` grid with
    /// jittered weights plus a few long chords.
    fn grid(w: u32, h: u32, seed: u64) -> Graph {
        let n = (w * h) as usize;
        let mut b = GraphBuilder::new(n);
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for y in 0..h {
            for x in 0..w {
                let v = y * w + x;
                if x + 1 < w {
                    let wt = (rng() % 9 + 1) as u32;
                    b.add_bidirectional(v, v + 1, wt).unwrap();
                }
                if y + 1 < h {
                    let wt = (rng() % 9 + 1) as u32;
                    b.add_bidirectional(v, v + w, wt).unwrap();
                }
            }
        }
        for _ in 0..(n / 8) {
            let u = (rng() % n as u64) as u32;
            let v = (rng() % n as u64) as u32;
            if u != v {
                b.add_edge(u, v, (rng() % 30 + 5) as u32).unwrap();
            }
        }
        b.build()
    }

    fn random_batch(g: &Graph, seed: u64, count: usize) -> Vec<WeightUpdate> {
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = g.node_count() as u64;
        let mut batch = Vec::new();
        while batch.len() < count {
            let u = (rng() % n) as NodeId;
            let edges = g.out_edges(u);
            if edges.is_empty() {
                continue;
            }
            let e = edges[(rng() % edges.len() as u64) as usize];
            // Mix of sharp increases, decreases, and small jitters.
            let w = match rng() % 4 {
                0 => e.weight.saturating_mul(3) + 1,
                1 => (e.weight / 3).max(1),
                2 => e.weight + 1,
                _ => e.weight.saturating_sub(1).max(1),
            };
            batch.push(WeightUpdate {
                from: u,
                to: e.to,
                weight: w,
            });
        }
        batch
    }

    #[test]
    fn repair_is_bit_identical_to_rebuild_across_batches() {
        let mut g = grid(9, 7, 0xA5A5);
        let mut idx = LandmarkIndex::build(&g, 4, SelectionStrategy::Farthest, 42);
        for round in 0..12u64 {
            let batch = random_batch(&g, 0xBEEF ^ round, 5);
            let (g2, deltas) = g.with_updated_weights(&batch).unwrap();
            let (repaired, stats) = idx.repaired(&g2, &deltas);
            let rebuilt = idx.rebuilt(&g2);
            assert_eq!(
                repaired.landmarks(),
                idx.landmarks(),
                "repair must keep the landmark set"
            );
            assert_eq!(
                repaired.tables(),
                rebuilt.tables(),
                "round {round}: repaired tables diverge from rebuild"
            );
            assert_eq!(stats.rows, 4);
            g = g2;
            idx = repaired;
        }
    }

    #[test]
    fn repair_into_the_previous_version_matches_rebuild() {
        // Double-buffered walk: version k+1 is always written into the
        // buffers of version k-1, patched through the journal.
        let mut g = grid(9, 7, 0x5EED);
        let mut idx = LandmarkIndex::build(&g, 4, SelectionStrategy::Farthest, 42);
        let mut spare: Option<(Graph, LandmarkIndex)> = None;
        let (mut stale, mut journal) = (Vec::new(), Vec::new());
        let mut scratch = RepairScratch::default();
        for round in 0..16u64 {
            let batch = random_batch(&g, 0xF00D ^ round, 1 + round as usize % 6);
            let (graph_spare, index_spare) = spare.take().unzip();
            let (g2, deltas) = g
                .with_updated_weights_reusing(&batch, graph_spare.map(|old| (old, &stale[..])))
                .unwrap();
            let (next, _) =
                idx.repaired_reusing(&g2, &deltas, index_spare, &mut journal, &mut scratch);
            assert_eq!(
                next.tables(),
                idx.rebuilt(&g2).tables(),
                "round {round}: repair into spare diverges from rebuild"
            );
            // Entries outside the journal were not touched.
            let mut touched = vec![false; next.tables().len()];
            for &i in &journal {
                touched[i] = true;
            }
            for (i, (a, b)) in next.tables().iter().zip(idx.tables()).enumerate() {
                assert!(
                    touched[i] || a == b,
                    "round {round}: entry {i} changed unjournaled"
                );
            }
            spare = Some((
                std::mem::replace(&mut g, g2),
                std::mem::replace(&mut idx, next),
            ));
            stale = deltas;
        }
    }

    #[test]
    fn disconnecting_region_goes_infinite_and_comes_back() {
        // 0 -> 1 -> 2, plus detour 0 -> 2 that starts worse.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        b.add_edge(0, 2, 10).unwrap();
        let g = b.build();
        let idx = LandmarkIndex::build(&g, 1, SelectionStrategy::Random, 7);
        // Sharp increase reroutes through the detour.
        let (g2, deltas) = g
            .with_updated_weights(&[WeightUpdate {
                from: 1,
                to: 2,
                weight: 100,
            }])
            .unwrap();
        let (repaired, _) = idx.repaired(&g2, &deltas);
        assert_eq!(repaired.tables(), idx.rebuilt(&g2).tables());
        // And a decrease that restores the original route.
        let (g3, deltas) = g2
            .with_updated_weights(&[WeightUpdate {
                from: 1,
                to: 2,
                weight: 2,
            }])
            .unwrap();
        let (repaired2, _) = repaired.repaired(&g3, &deltas);
        assert_eq!(repaired2.tables(), repaired.rebuilt(&g3).tables());
    }

    #[test]
    fn empty_delta_batch_is_a_cheap_identity() {
        let g = grid(4, 4, 9);
        let idx = LandmarkIndex::build(&g, 2, SelectionStrategy::Farthest, 1);
        let (repaired, stats) = idx.repaired(&g, &[]);
        assert_eq!(repaired.tables(), idx.tables());
        assert_eq!(stats.affected_nodes, 0);
        assert_eq!(stats.settled_nodes, 0);
    }

    #[test]
    fn zero_weight_edges_repair_exactly() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0).unwrap();
        b.add_edge(1, 2, 0).unwrap();
        b.add_edge(2, 3, 4).unwrap();
        b.add_edge(0, 3, 9).unwrap();
        let g = b.build();
        let idx = LandmarkIndex::build(&g, 1, SelectionStrategy::Random, 3);
        let (g2, deltas) = g
            .with_updated_weights(&[
                WeightUpdate {
                    from: 2,
                    to: 3,
                    weight: 20,
                },
                WeightUpdate {
                    from: 1,
                    to: 2,
                    weight: 1,
                },
            ])
            .unwrap();
        let (repaired, _) = idx.repaired(&g2, &deltas);
        assert_eq!(repaired.tables(), idx.rebuilt(&g2).tables());
    }

    /// A changed arc inside another increased arc's region: `A = 0→1`
    /// rises from 0 to 7 and its region grows over the zero-weight `1→2`
    /// into node 2, whose out-arc `B = 2→3` falls from 4 to 0 in the same
    /// batch. Growing the region must test `B`'s tightness under its
    /// *pre-batch* weight (`0 + 4 == d[3]`), or node 3 keeps its stale 4
    /// although every route to it now costs 7. Built once forward (a
    /// landmark row from 0) and once as its mirror image (a target row to
    /// 0), where a changed arc's walked tail is its head, and repaired in
    /// one scratch shared by both directions.
    #[test]
    fn changed_arc_inside_an_increased_arcs_region_uses_its_old_weight() {
        let arcs = [
            (0, 1, 0),
            (1, 2, 0),
            (2, 3, 4),
            (3, 4, 0),
            (0, 3, 20),
            (0, 4, 30),
        ];
        let batch = [
            WeightUpdate {
                from: 0,
                to: 1,
                weight: 7,
            },
            WeightUpdate {
                from: 2,
                to: 3,
                weight: 0,
            },
        ];
        let build = |mirror: bool| {
            let mut b = GraphBuilder::new(5);
            for &(u, v, w) in &arcs {
                let (u, v) = if mirror { (v, u) } else { (u, v) };
                b.add_edge(u, v, w).unwrap();
            }
            b.build()
        };
        let mirrored = |batch: &[WeightUpdate]| -> Vec<WeightUpdate> {
            batch
                .iter()
                .map(|u| WeightUpdate {
                    from: u.to,
                    to: u.from,
                    weight: u.weight,
                })
                .collect()
        };
        let mut scratch = RepairScratch::default();

        let g = build(false);
        let idx =
            LandmarkIndex::from_parts(vec![0], DenseDijkstra::from_source(&g, 0).into_dist(), 5);
        assert_eq!(idx.tables(), &[0, 0, 0, 4, 4]);
        let (g2, deltas) = g.with_updated_weights(&batch).unwrap();
        let (repaired, _) = idx.repaired_reusing(&g2, &deltas, None, &mut Vec::new(), &mut scratch);
        assert_eq!(repaired.tables(), &[0, 7, 7, 7, 7]);
        assert_eq!(repaired.tables(), idx.rebuilt(&g2).tables());

        let g = build(true);
        let row = TargetRow::build(&g, &[0]);
        assert_eq!(row.dist(), &[0, 0, 0, 4, 4]);
        let (g2, deltas) = g.with_updated_weights(&mirrored(&batch)).unwrap();
        let (repaired, _) = row.repaired_reusing(&g2, &deltas, None, &mut Vec::new(), &mut scratch);
        assert_eq!(repaired.dist(), &[0, 7, 7, 7, 7]);
        assert_eq!(repaired, row.rebuilt(&g2));
    }

    /// Repair `row` through `batch` both ways — into a fresh copy and
    /// into the retired `spare` patched through `journal` — and demand
    /// both equal a rebuild. Returns the updated graph and row, and
    /// leaves `spare`/`journal` ready for the next call.
    fn step_target_row(
        g: &Graph,
        row: &TargetRow,
        batch: &[WeightUpdate],
        spare: &mut Option<TargetRow>,
        journal: &mut Vec<usize>,
        what: &str,
    ) -> (Graph, TargetRow) {
        let (g2, deltas) = g.with_updated_weights(batch).unwrap();
        let rebuilt = row.rebuilt(&g2);
        let (fresh, stats) = row.repaired(&g2, &deltas);
        assert_eq!(
            fresh, rebuilt,
            "{what}: repaired copy diverges from rebuild"
        );
        assert_eq!(stats.rows, 1);
        let (reused, _) = row.repaired_reusing(
            &g2,
            &deltas,
            spare.take(),
            journal,
            &mut RepairScratch::default(),
        );
        assert_eq!(reused, rebuilt, "{what}: repair into spare diverges");
        for (i, (a, b)) in reused.dist().iter().zip(row.dist()).enumerate() {
            assert!(
                a == b || journal.contains(&i),
                "{what}: entry {i} changed unjournaled"
            );
        }
        *spare = Some(row.clone());
        (g2, reused)
    }

    #[test]
    fn target_row_repair_is_bit_identical_to_rebuild_across_batches() {
        let mut g = grid(9, 7, 0x7A6E);
        let mut row = TargetRow::build(&g, &[62, 3, 40, 3, 17]);
        assert_eq!(row.targets(), &[3, 17, 40, 62]);
        let (mut spare, mut journal) = (None, Vec::new());
        for round in 0..24u64 {
            // random_batch mixes sharp increases, decreases and jitters.
            let batch = random_batch(&g, 0x7A6E ^ round, 1 + round as usize % 7);
            let (g2, next) = step_target_row(
                &g,
                &row,
                &batch,
                &mut spare,
                &mut journal,
                &format!("round {round}"),
            );
            g = g2;
            row = next;
        }
    }

    #[test]
    fn target_row_survives_disconnect_and_reconnect() {
        // 0 -> 1 -> 2 -> {3}, a detour 0 -> 4 -> 3, and node 5 that
        // reaches no target at all (its entry stays infinite).
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        b.add_edge(0, 4, 5).unwrap();
        b.add_edge(4, 3, 5).unwrap();
        b.add_edge(3, 5, 1).unwrap();
        let g = b.build();
        let row = TargetRow::build(&g, &[3]);
        let (mut spare, mut journal) = (None, Vec::new());
        let cut = |w| {
            vec![
                WeightUpdate {
                    from: 1,
                    to: 2,
                    weight: w,
                },
                WeightUpdate {
                    from: 4,
                    to: 3,
                    weight: w,
                },
            ]
        };
        // Cut both routes (as far as weights can), then restore them.
        let (g2, row2) = step_target_row(&g, &row, &cut(u32::MAX), &mut spare, &mut journal, "cut");
        assert!(row2.dist()[0] > u32::MAX as Length);
        assert_eq!(row2.dist()[5], INFINITE_LENGTH);
        let (_, row3) = step_target_row(&g2, &row2, &cut(1), &mut spare, &mut journal, "restore");
        assert_eq!(row3.dist()[0], 3);
    }

    #[test]
    fn target_row_with_zero_weights_repairs_exactly() {
        // Zero-weight edges put non-target nodes at distance 0; they must
        // be repaired like any other node while the targets stay fixed.
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 0).unwrap();
        b.add_edge(1, 2, 0).unwrap();
        b.add_edge(2, 5, 3).unwrap();
        b.add_edge(3, 4, 0).unwrap();
        b.add_edge(0, 4, 7).unwrap();
        b.add_edge(4, 5, 0).unwrap();
        let g = b.build();
        let row = TargetRow::build(&g, &[5, 4]);
        let (mut spare, mut journal) = (None, Vec::new());
        let mut state = (g, row);
        for (i, batch) in [
            vec![WeightUpdate {
                from: 4,
                to: 5,
                weight: 6,
            }],
            vec![WeightUpdate {
                from: 1,
                to: 2,
                weight: 9,
            }],
            vec![
                WeightUpdate {
                    from: 2,
                    to: 5,
                    weight: 0,
                },
                WeightUpdate {
                    from: 1,
                    to: 2,
                    weight: 0,
                },
            ],
            vec![WeightUpdate {
                from: 3,
                to: 4,
                weight: 2,
            }],
        ]
        .iter()
        .enumerate()
        {
            state = step_target_row(
                &state.0,
                &state.1,
                batch,
                &mut spare,
                &mut journal,
                &format!("batch {i}"),
            );
        }
        assert_eq!(state.1.dist()[0], 0);
    }
}
