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
//! 2. Reset `d[v] = ∞` for `v ∈ R` and seed a heap with (a) the best
//!    boundary value `min d[u] + w_new(u→v)` over in-edges of each
//!    `v ∈ R` from outside `R`, and (b) `d[u] + w_new` for every
//!    *decreased* edge with tail outside `R`.
//! 3. Run Dijkstra to fixpoint over the whole graph (decreases may
//!    propagate beyond `R`). Initial distances are valid upper bounds —
//!    outside `R` the new distance can only be ≤ the old one — so this is
//!    plain Dijkstra with warm-started bounds and reproduces exactly the
//!    distance field a from-scratch run would compute.
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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kpj_graph::{EdgeDelta, Graph, Length, NodeId, INFINITE_LENGTH};
use kpj_sp::DenseDijkstra;

use crate::LandmarkIndex;

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

/// Reusable per-row scratch so an `|L|`-row repair allocates `O(n)` once.
struct RowScratch {
    /// Membership bitmap for the affected region `R`.
    in_region: Vec<bool>,
    /// Nodes currently flagged in `in_region` (for cheap reset).
    region: Vec<NodeId>,
    /// BFS stack for growing `R`.
    stack: Vec<NodeId>,
    /// Lazy-deletion Dijkstra heap.
    heap: BinaryHeap<Reverse<(Length, NodeId)>>,
}

impl RowScratch {
    fn new(n: usize) -> Self {
        RowScratch {
            in_region: vec![false; n],
            region: Vec::new(),
            stack: Vec::new(),
            heap: BinaryHeap::new(),
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

/// Repair one distance row in place. Every entry written — region resets
/// and settles — is pushed to `written` as a flat table index
/// (`base + v`), so a later version can be brought up to date from this
/// one by copying just those entries.
fn repair_row(
    g: &Graph,
    deltas: &[EdgeDelta],
    source: NodeId,
    dist: &mut [Length],
    base: usize,
    s: &mut RowScratch,
    written: &mut Vec<usize>,
) -> (u64, u64) {
    debug_assert!(deltas
        .windows(2)
        .all(|w| (w[0].from, w[0].to) < (w[1].from, w[1].to)));
    // Phase 1: grow the affected region from increased tight edges.
    s.region.clear();
    s.stack.clear();
    let mark = |v: NodeId, s: &mut RowScratch| {
        if v != source && !s.in_region[v as usize] {
            s.in_region[v as usize] = true;
            s.region.push(v);
            s.stack.push(v);
        }
    };
    for d in deltas {
        let du = dist[d.from as usize];
        if d.new_weight > d.old_weight
            && du != INFINITE_LENGTH
            && du + d.old_weight as Length == dist[d.to as usize]
        {
            mark(d.to, s);
        }
    }
    while let Some(u) = s.stack.pop() {
        let du = dist[u as usize];
        if du == INFINITE_LENGTH {
            continue;
        }
        for e in g.out_edges(u) {
            let w_old = old_weight(deltas, u, e.to, e.weight);
            if du + w_old as Length == dist[e.to as usize] {
                mark(e.to, s);
            }
        }
    }
    let affected = s.region.len() as u64;
    // Phase 2: reset the region and seed the heap.
    s.heap.clear();
    for &v in &s.region {
        dist[v as usize] = INFINITE_LENGTH;
        written.push(base + v as usize);
    }
    for &v in &s.region {
        let mut best = INFINITE_LENGTH;
        for e in g.in_edges(v) {
            let u = e.to; // reverse view: `to` holds the tail
            if s.in_region[u as usize] {
                continue;
            }
            let du = dist[u as usize];
            if du != INFINITE_LENGTH {
                best = best.min(du + e.weight as Length);
            }
        }
        if best != INFINITE_LENGTH {
            s.heap.push(Reverse((best, v)));
        }
    }
    for d in deltas {
        if d.new_weight < d.old_weight && !s.in_region[d.from as usize] {
            let du = dist[d.from as usize];
            if du != INFINITE_LENGTH {
                let cand = du + d.new_weight as Length;
                if cand < dist[d.to as usize] {
                    s.heap.push(Reverse((cand, d.to)));
                }
            }
        }
    }
    // Phase 3: Dijkstra to fixpoint with warm-started upper bounds.
    let mut settled = 0u64;
    while let Some(Reverse((d, v))) = s.heap.pop() {
        if d >= dist[v as usize] {
            continue;
        }
        dist[v as usize] = d;
        written.push(base + v as usize);
        settled += 1;
        for e in g.out_edges(v) {
            let cand = d + e.weight as Length;
            if cand < dist[e.to as usize] {
                s.heap.push(Reverse((cand, e.to)));
            }
        }
    }
    for &v in &s.region {
        s.in_region[v as usize] = false;
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
        self.repaired_reusing(updated, deltas, None, &mut Vec::new())
    }

    /// [`repaired`](LandmarkIndex::repaired) that repairs into `spare`
    /// instead of a fresh copy of the `|L| × n` tables.
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
    ) -> (LandmarkIndex, RepairStats) {
        let n = self.node_count();
        assert_eq!(
            n,
            updated.node_count(),
            "weight updates never change topology"
        );
        let mut sorted: Vec<EdgeDelta> = deltas
            .iter()
            .copied()
            .filter(|d| d.old_weight != d.new_weight)
            .collect();
        sorted.sort_unstable_by_key(|d| (d.from, d.to));
        sorted.dedup_by_key(|d| (d.from, d.to));
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
            let mut scratch = RowScratch::new(n);
            for (l, &source) in self.landmarks().iter().enumerate() {
                let row = &mut tables[l * n..(l + 1) * n];
                let (affected, settled) =
                    repair_row(updated, &sorted, source, row, l * n, &mut scratch, journal);
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
        for round in 0..16u64 {
            let batch = random_batch(&g, 0xF00D ^ round, 1 + round as usize % 6);
            let (graph_spare, index_spare) = spare.take().unzip();
            let (g2, deltas) = g
                .with_updated_weights_reusing(&batch, graph_spare.map(|old| (old, &stale[..])))
                .unwrap();
            let (next, _) = idx.repaired_reusing(&g2, &deltas, index_spare, &mut journal);
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
}
