//! The incremental shortest-path tree `SPT_I` (§5.3, Alg. 7).
//!
//! `SPT_I` is a *forward* SPT from the source side, grown lazily: the
//! initial phase is the A\* computing the first shortest path (stopping at
//! the first settled destination), and afterwards [`SptiStore::grow`] keeps
//! settling nodes while the frontier key `d_s(v) + lb(v, V_T)` is at most
//! the current threshold τ. Prop. 5.2 then guarantees `SPT_I` contains
//! every node of every source→`V_T` path of length ≤ τ, which lets the
//! reverse-graph subspace searches prune all nodes outside `SPT_I` and use
//! the *exact* `d_s(v)` as the source-side bound.
//!
//! The queue `Q_T` persists across `grow` calls within one query; a reset
//! is `O(touched)`. It is a monotone [`RadixHeap`] with lazy deletion, not
//! a decrease-key heap. That is sound because every [`TargetsLb`] (zero,
//! landmark ALT, exact target row) is *consistent*, the same property the
//! closed-set A\* already relies on: relaxing a settled node's out-edge
//! never yields a key below the settled node's own, so pushed keys never
//! drop below the last popped one. An improved label pushes a second
//! entry; a node's entries pop cheapest first, and the cheapest carries
//! its current label, so every later entry of a node finds it settled and
//! is skipped. The queue is drained — and `SPT_I` `complete` — when no
//! entry of an unsettled node is left.

use kpj_graph::scratch::{TimestampedMap, TimestampedSet};
use kpj_graph::{Graph, Length, NodeId, PathId, PathStore, INFINITE_LENGTH};
use kpj_heap::RadixHeap;
use kpj_sp::NO_PARENT;

use crate::bounds::TargetsLb;
use crate::pseudo_tree::ROOT;
use crate::search_core::FoundPath;
use crate::stats::QueryStats;

/// Engine-owned `SPT_I` state (see module docs).
#[derive(Debug)]
pub(crate) struct SptiStore {
    /// `Q_T`, keyed `d_s(v) + lb(v, V_T)`; may hold stale entries of
    /// settled nodes.
    heap: RadixHeap<NodeId>,
    /// Exact `d_s(v) = δ(sources, v)` for settled nodes; tentative labels
    /// for frontier nodes.
    dist: TimestampedMap<Length>,
    parent: TimestampedMap<NodeId>,
    settled: TimestampedSet,
    /// `D`: destinations currently inside `SPT_I` (Alg. 7 line 4).
    dest_in_spt: Vec<NodeId>,
    /// The frontier is exhausted: `SPT_I` covers everything reachable.
    complete: bool,
    settled_count: usize,
}

impl SptiStore {
    pub(crate) fn new(n: usize) -> Self {
        SptiStore {
            heap: RadixHeap::new(),
            dist: TimestampedMap::new(n, INFINITE_LENGTH),
            parent: TimestampedMap::new(n, NO_PARENT),
            settled: TimestampedSet::new(n),
            dest_in_spt: Vec::new(),
            complete: false,
            settled_count: 0,
        }
    }

    /// Phase 1 (initial `SPT_I`): A\* from the sources until the first
    /// destination settles; that settles the query's shortest path, which
    /// is returned as a reverse-orientation [`FoundPath`] (anchored at the
    /// virtual-target root). `None` when `V_T` is unreachable — the store
    /// is then `complete` and empty of destinations.
    pub(crate) fn init(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        target_set: &TimestampedSet,
        to_targets: &TargetsLb<'_>,
        path_store: &mut PathStore,
        stats: &mut QueryStats,
    ) -> Option<FoundPath> {
        self.heap.clear();
        self.dist.reset();
        self.parent.reset();
        self.settled.clear();
        self.dest_in_spt.clear();
        self.complete = false;
        self.settled_count = 0;

        for &s in sources {
            let h = to_targets.lb(s);
            if h == INFINITE_LENGTH {
                continue;
            }
            if self.dist.get(s as usize) > 0 {
                self.dist.set(s as usize, 0);
                self.heap.push(h, s);
            }
        }

        loop {
            let Some((_, u)) = self.pop_live() else {
                self.complete = true;
                stats.nodes_settled += self.settled_count;
                return None;
            };
            self.settle(g, u, target_set, to_targets);
            if target_set.contains(u as usize) {
                stats.nodes_settled += self.settled_count;
                return Some(self.initial_found_path(path_store, u));
            }
        }
    }

    /// Alg. 7: settle while the frontier key is ≤ `tau`.
    pub(crate) fn grow(
        &mut self,
        g: &Graph,
        tau: Length,
        target_set: &TimestampedSet,
        to_targets: &TargetsLb<'_>,
        stats: &mut QueryStats,
    ) {
        let before = self.settled_count;
        loop {
            match self.pop_live() {
                None => {
                    self.complete = true;
                    break;
                }
                // The radix heap has no peek: the first entry above τ is
                // popped and queued back, which is legal as its key is
                // the last popped one.
                Some((key, u)) if key > tau => {
                    self.heap.push(key, u);
                    break;
                }
                Some((_, u)) => self.settle(g, u, target_set, to_targets),
            }
        }
        stats.nodes_settled += self.settled_count - before;
    }

    /// Pop the cheapest entry of an unsettled node, discarding the stale
    /// entries of settled ones; `None` once the queue is drained.
    fn pop_live(&mut self) -> Option<(Length, NodeId)> {
        while let Some((key, u)) = self.heap.pop() {
            if !self.settled.contains(u as usize) {
                debug_assert!(key >= self.dist.get(u as usize));
                return Some((key, u));
            }
        }
        None
    }

    /// Settle `u`, relaxing its out-edges.
    fn settle(
        &mut self,
        g: &Graph,
        u: NodeId,
        target_set: &TimestampedSet,
        to_targets: &TargetsLb<'_>,
    ) {
        self.settled.insert(u as usize);
        self.settled_count += 1;
        if target_set.contains(u as usize) {
            self.dest_in_spt.push(u);
        }
        let du = self.dist.get(u as usize);
        for e in g.out_edges(u) {
            let w = e.to as usize;
            if self.settled.contains(w) {
                continue;
            }
            let nd = du.saturating_add(e.weight as Length);
            if nd < self.dist.get(w) {
                let h = to_targets.lb(e.to);
                if h == INFINITE_LENGTH {
                    continue;
                }
                self.dist.set(w, nd);
                self.parent.set(w, u);
                self.heap.push(nd.saturating_add(h), e.to);
            }
        }
    }

    /// The reverse-orientation initial path ending at destination `d`.
    fn initial_found_path(&self, path_store: &mut PathStore, d: NodeId) -> FoundPath {
        let total = self.dist.get(d as usize);
        // Walk parents back to the source: d, …, s — which *is* the tree
        // orientation (virtual target root first), so the chain goes into
        // the arena in walk order with cumulative lengths from the virtual
        // target side. Under the virtual root the whole chain is suffix.
        let mut id: Option<PathId> = None;
        let mut count = 0u32;
        let mut cur = d;
        loop {
            id = Some(path_store.push(id, cur, total - self.dist.get(cur as usize)));
            count += 1;
            let p = self.parent.get(cur as usize);
            if p == NO_PARENT {
                break;
            }
            cur = p;
        }
        FoundPath {
            tail: id.expect("chain has at least one node"),
            length: total,
            vertex: ROOT,
            suffix_len: count,
        }
    }

    /// Exact `d_s(v)` if `v` is in `SPT_I`.
    #[inline]
    pub(crate) fn exact_dist(&self, v: NodeId) -> Option<Length> {
        if self.settled.contains(v as usize) {
            Some(self.dist.get(v as usize))
        } else {
            None
        }
    }

    /// True once the frontier is exhausted (`SPT_I` is maximal).
    #[inline]
    pub(crate) fn is_complete(&self) -> bool {
        self.complete
    }

    /// The destinations currently inside `SPT_I` (the set `D` of Alg. 7).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn destinations(&self) -> &[NodeId] {
        &self.dest_in_spt
    }

    /// Number of nodes in `SPT_I`.
    pub(crate) fn len(&self) -> usize {
        self.settled_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_graph::GraphBuilder;

    /// 0—1—2—3 line (unit weights) plus branch 1—4 (weight 5), 4—5 (5).
    fn fixture() -> (Graph, TimestampedSet) {
        let mut b = GraphBuilder::new(6);
        for i in 0..3u32 {
            b.add_bidirectional(i, i + 1, 1).unwrap();
        }
        b.add_bidirectional(1, 4, 5).unwrap();
        b.add_bidirectional(4, 5, 5).unwrap();
        let g = b.build();
        let mut ts = TimestampedSet::new(6);
        ts.insert(3);
        ts.insert(5);
        (g, ts)
    }

    /// Full chain nodes (tree orientation: destination-first).
    fn chain_nodes(ps: &PathStore, f: &FoundPath) -> Vec<NodeId> {
        ps.materialize(f.tail).nodes
    }

    /// The suffix pairs `(node, cumulative length)` read from the arena.
    fn suffix(ps: &PathStore, f: &FoundPath) -> Vec<(NodeId, Length)> {
        let mut out = Vec::new();
        let mut cur = Some(f.tail);
        for _ in 0..f.suffix_len {
            let id = cur.unwrap();
            out.push((ps.node(id), ps.length(id)));
            cur = ps.parent(id);
        }
        out.reverse();
        out
    }

    #[test]
    fn init_finds_shortest_path_in_reverse_orientation() {
        let (g, ts) = fixture();
        let mut store = SptiStore::new(6);
        let mut ps = PathStore::new();
        let mut stats = QueryStats::default();
        let f = store
            .init(&g, &[0], &ts, &TargetsLb::Zero, &mut ps, &mut stats)
            .expect("path");
        assert_eq!(chain_nodes(&ps, &f), vec![3, 2, 1, 0]);
        assert_eq!(f.length, 3);
        assert_eq!(suffix(&ps, &f), vec![(3, 0), (2, 1), (1, 2), (0, 3)]);
        assert_eq!(store.destinations(), &[3]);
        assert!(!store.is_complete());
        assert_eq!(store.exact_dist(0), Some(0));
        assert_eq!(store.exact_dist(3), Some(3));
        assert_eq!(store.exact_dist(5), None);
    }

    #[test]
    fn grow_extends_to_tau_and_completes() {
        let (g, ts) = fixture();
        let mut store = SptiStore::new(6);
        let mut ps = PathStore::new();
        let mut stats = QueryStats::default();
        store
            .init(&g, &[0], &ts, &TargetsLb::Zero, &mut ps, &mut stats)
            .unwrap();
        // Node 4 is at d_s = 6, node 5 at 11 (keys with zero bounds).
        // One below node 4's key it stays out, and the entry popped to
        // see that is queued back for the next call.
        for _ in 0..2 {
            store.grow(&g, 5, &ts, &TargetsLb::Zero, &mut stats);
            assert_eq!(store.exact_dist(4), None);
            assert_eq!(store.len(), 4);
            assert!(!store.is_complete());
        }
        store.grow(&g, 6, &ts, &TargetsLb::Zero, &mut stats);
        assert_eq!(store.exact_dist(4), Some(6));
        assert_eq!(store.exact_dist(5), None);
        store.grow(&g, 100, &ts, &TargetsLb::Zero, &mut stats);
        assert_eq!(store.exact_dist(5), Some(11));
        assert!(store.is_complete());
        assert_eq!(store.destinations(), &[3, 5]);
        assert_eq!(store.len(), 6);
    }

    #[test]
    fn unreachable_targets_complete_with_none() {
        let mut b = GraphBuilder::new(3);
        b.add_bidirectional(0, 1, 1).unwrap();
        let g = b.build();
        let mut ts = TimestampedSet::new(3);
        ts.insert(2);
        let mut store = SptiStore::new(3);
        let mut ps = PathStore::new();
        let mut stats = QueryStats::default();
        assert!(store
            .init(&g, &[0], &ts, &TargetsLb::Zero, &mut ps, &mut stats)
            .is_none());
        assert!(store.is_complete());
        assert!(store.destinations().is_empty());
    }

    #[test]
    fn multi_source_init_uses_nearest_source() {
        let (g, ts) = fixture();
        let mut store = SptiStore::new(6);
        let mut ps = PathStore::new();
        let mut stats = QueryStats::default();
        let f = store
            .init(&g, &[0, 2], &ts, &TargetsLb::Zero, &mut ps, &mut stats)
            .expect("path");
        assert_eq!(chain_nodes(&ps, &f), vec![3, 2]);
        assert_eq!(f.length, 1);

        // Sources 4 and 0, with 4 listed twice: every source stays at 0.
        let mut stats = QueryStats::default();
        let f = store
            .init(&g, &[4, 0, 4], &ts, &TargetsLb::Zero, &mut ps, &mut stats)
            .expect("path");
        assert_eq!(chain_nodes(&ps, &f), vec![3, 2, 1, 0]);
        assert_eq!(f.length, 3);
        store.grow(&g, 100, &ts, &TargetsLb::Zero, &mut stats);
        assert!(store.is_complete());
        assert_eq!(store.exact_dist(4), Some(0));
        assert_eq!(store.exact_dist(5), Some(5));
        assert_eq!(store.exact_dist(1), Some(1));
        assert_eq!(store.len(), 6);
        assert_eq!(stats.nodes_settled, 6);
    }

    #[test]
    fn stale_queue_entries_are_skipped() {
        // 0→1 (10), 0→2 (1), 2→1 (1), 1→3 (100): node 1 is queued at
        // 10, then improved via 2 and queued again at 2. Its first pop
        // settles it on the improved label.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 10).unwrap();
        b.add_edge(0, 2, 1).unwrap();
        b.add_edge(2, 1, 1).unwrap();
        b.add_edge(1, 3, 100).unwrap();
        let g = b.build();
        let mut ts = TimestampedSet::new(4);
        ts.insert(3);
        let mut store = SptiStore::new(4);
        let mut ps = PathStore::new();
        let mut stats = QueryStats::default();
        let f = store
            .init(&g, &[0], &ts, &TargetsLb::Zero, &mut ps, &mut stats)
            .expect("path");
        // The stale entry of node 1 (key 10) pops between the settles of
        // 1 and 3 and changes neither the tree nor the count.
        assert_eq!(chain_nodes(&ps, &f), vec![3, 1, 2, 0]);
        assert_eq!(f.length, 102);
        assert_eq!(store.exact_dist(1), Some(2));
        assert_eq!(store.len(), 4);
        assert_eq!(stats.nodes_settled, 4);
    }

    #[test]
    fn complete_once_only_stale_entries_remain() {
        // The previous test's graph without 1→3: once the target 1
        // settles, the queue holds nothing but node 1's stale entry.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 10).unwrap();
        b.add_edge(0, 2, 1).unwrap();
        b.add_edge(2, 1, 1).unwrap();
        let g = b.build();
        let mut ts = TimestampedSet::new(3);
        ts.insert(1);
        let mut store = SptiStore::new(3);
        let mut ps = PathStore::new();
        let mut stats = QueryStats::default();
        let f = store
            .init(&g, &[0], &ts, &TargetsLb::Zero, &mut ps, &mut stats)
            .expect("path");
        assert_eq!(f.length, 2);
        assert!(!store.is_complete());
        // τ = 5 is below the stale key, yet the drain proves the tree
        // maximal.
        store.grow(&g, 5, &ts, &TargetsLb::Zero, &mut stats);
        assert!(store.is_complete());
        assert_eq!(store.len(), 3);
        assert_eq!(stats.nodes_settled, 3);
    }

    #[test]
    fn source_in_targets_gives_trivial_reverse_path() {
        let (g, mut ts) = fixture();
        ts.insert(0);
        let mut store = SptiStore::new(6);
        let mut ps = PathStore::new();
        let mut stats = QueryStats::default();
        let f = store
            .init(&g, &[0], &ts, &TargetsLb::Zero, &mut ps, &mut stats)
            .expect("path");
        assert_eq!(chain_nodes(&ps, &f), vec![0]);
        assert_eq!(f.length, 0);
        assert_eq!(suffix(&ps, &f), vec![(0, 0)]);
    }
}
