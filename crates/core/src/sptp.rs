//! The partial shortest-path tree `SPT_P` (§5.2, Alg. 6).
//!
//! `PartialSPT` is the A\* search computing the query's *initial* shortest
//! path from the source side to `V_T`, run on the reverse graph from all of
//! `V_T` (multi-source, 0-initial) with the source-side landmark bound
//! `lb(s, w)` as heuristic — and instrumented to *keep* every settled node.
//! For settled `v` the label is the exact `δ(v, V_T)` (Prop. 5.1), giving a
//! tighter `lb(v, V_T)` than Eq. (2) for the rest of the query; for other
//! nodes Eq. (2) remains the fallback.
//!
//! The store is owned by the engine and reset per query in `O(1)`
//! (epoch-stamped arrays), so — as the paper stresses — `SPT_P` really is a
//! by-product of work the query does anyway.

use kpj_graph::scratch::{TimestampedMap, TimestampedSet};
use kpj_graph::{Graph, Length, NodeId, PathId, PathStore, INFINITE_LENGTH};
use kpj_heap::IndexedMinHeap;
use kpj_sp::NO_PARENT;

use crate::bounds::SourceLb;
use crate::pseudo_tree::{PseudoTree, ROOT, VIRTUAL_NODE};
use crate::search_core::FoundPath;
use crate::stats::QueryStats;

/// Engine-owned `SPT_P` scratch (see module docs).
#[derive(Debug)]
pub(crate) struct SptpStore {
    heap: IndexedMinHeap<Length>,
    /// Exact `δ(v, V_T)` for settled nodes.
    dist: TimestampedMap<Length>,
    /// Next hop of the shortest `v → V_T` path (tree parent).
    parent: TimestampedMap<NodeId>,
    settled: TimestampedSet,
    settled_count: usize,
}

impl SptpStore {
    pub(crate) fn new(n: usize) -> Self {
        SptpStore {
            heap: IndexedMinHeap::new(n),
            dist: TimestampedMap::new(n, INFINITE_LENGTH),
            parent: TimestampedMap::new(n, NO_PARENT),
            settled: TimestampedSet::new(n),
            settled_count: 0,
        }
    }

    /// Alg. 6: run the initial-path A\* and retain the partial SPT.
    ///
    /// `source_set` marks the goal side (the query sources); `tree` must be
    /// the freshly created forward pseudo-tree (its root tells us whether
    /// the source is real or a GKPJ virtual node). Returns the initial
    /// shortest path as a [`FoundPath`] anchored at the tree root, or
    /// `None` when `V_T` is unreachable.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        &mut self,
        g: &Graph,
        targets: &[NodeId],
        source_set: &TimestampedSet,
        source_lb: &SourceLb<'_>,
        path_store: &mut PathStore,
        tree: &PseudoTree,
        stats: &mut QueryStats,
    ) -> Option<FoundPath> {
        self.heap.clear();
        self.dist.reset();
        self.parent.reset();
        self.settled.clear();
        self.settled_count = 0;

        for &t in targets {
            let h = source_lb.lb(t);
            if h == INFINITE_LENGTH {
                continue;
            }
            if self.dist.get(t as usize) > 0 {
                self.dist.set(t as usize, 0);
                self.heap.push_or_decrease(t as usize, h);
            }
        }

        let mut goal: Option<NodeId> = None;
        while let Some((u, _)) = self.heap.pop() {
            self.settled.insert(u);
            self.settled_count += 1;
            let du = self.dist.get(u);
            if source_set.contains(u) {
                goal = Some(u as NodeId);
                break;
            }
            for e in g.in_edges(u as NodeId) {
                let w = e.to as usize;
                if self.settled.contains(w) {
                    continue;
                }
                let nd = du.saturating_add(e.weight as Length);
                if nd < self.dist.get(w) {
                    let h = source_lb.lb(e.to);
                    if h == INFINITE_LENGTH {
                        continue;
                    }
                    self.dist.set(w, nd);
                    self.parent.set(w, u as NodeId);
                    self.heap.push_or_decrease(w, nd.saturating_add(h));
                }
            }
        }
        stats.nodes_settled += self.settled_count;
        stats.spt_nodes = stats.spt_nodes.max(self.settled_count);

        let s = goal?;
        // Forward path s → … → d along SPT parents, pushed into the arena
        // with cumulative lengths measured from the source side. The walk
        // order (s first, then its SPT parents towards `V_T`) is already
        // the tree orientation, so no staging buffer is needed.
        let total = self.dist.get(s as usize);
        let mut id: Option<PathId> = None;
        let mut count = 0u32;
        let mut cur = s;
        loop {
            id = Some(path_store.push(id, cur, total - self.dist.get(cur as usize)));
            count += 1;
            let p = self.parent.get(cur as usize);
            if p == NO_PARENT {
                break;
            }
            cur = p;
        }
        let skip = u32::from(tree.node(ROOT) != VIRTUAL_NODE);
        Some(FoundPath {
            tail: id.expect("chain has at least one node"),
            length: total,
            vertex: ROOT,
            suffix_len: count - skip,
        })
    }

    /// Exact `δ(v, V_T)` if `v` is in the partial SPT.
    #[inline]
    pub(crate) fn exact_dist(&self, v: NodeId) -> Option<Length> {
        if self.settled.contains(v as usize) {
            Some(self.dist.get(v as usize))
        } else {
            None
        }
    }

    /// Number of nodes in the partial SPT.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn len(&self) -> usize {
        self.settled_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_graph::GraphBuilder;

    /// 0—1—2—3 line (unit weights) plus a far branch 1—4—5.
    fn fixture() -> Graph {
        let mut b = GraphBuilder::new(6);
        for i in 0..3u32 {
            b.add_bidirectional(i, i + 1, 1).unwrap();
        }
        b.add_bidirectional(1, 4, 10).unwrap();
        b.add_bidirectional(4, 5, 10).unwrap();
        b.build()
    }

    fn source_set(n: usize, s: NodeId) -> TimestampedSet {
        let mut set = TimestampedSet::new(n);
        set.insert(s as usize);
        set
    }

    /// Full chain nodes (source-first) of a build() result.
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
    fn builds_initial_path_and_exact_distances() {
        let g = fixture();
        let mut store = SptpStore::new(6);
        let mut ps = PathStore::new();
        let tree = PseudoTree::new(0);
        let ss = source_set(6, 0);
        let mut stats = QueryStats::default();
        let f = store
            .build(&g, &[3], &ss, &SourceLb::Zero, &mut ps, &tree, &mut stats)
            .expect("path exists");
        assert_eq!(chain_nodes(&ps, &f), vec![0, 1, 2, 3]);
        assert_eq!(f.length, 3);
        assert_eq!(suffix(&ps, &f), vec![(1, 1), (2, 2), (3, 3)]);
        // Settled nodes carry exact δ(v, {3}).
        assert_eq!(store.exact_dist(3), Some(0));
        assert_eq!(store.exact_dist(2), Some(1));
        assert_eq!(store.exact_dist(0), Some(3));
        // The far branch was never settled (Dijkstra stops at the source).
        assert_eq!(store.exact_dist(5), None);
        assert!(store.len() >= 4);
        assert_eq!(stats.spt_nodes, store.len());
    }

    #[test]
    fn unreachable_targets_yield_none() {
        let mut b = GraphBuilder::new(3);
        b.add_bidirectional(0, 1, 1).unwrap();
        let g = b.build();
        let mut store = SptpStore::new(3);
        let mut ps = PathStore::new();
        let tree = PseudoTree::new(0);
        let ss = source_set(3, 0);
        let mut stats = QueryStats::default();
        assert!(store
            .build(&g, &[2], &ss, &SourceLb::Zero, &mut ps, &tree, &mut stats)
            .is_none());
    }

    #[test]
    fn multi_target_picks_nearest() {
        let g = fixture();
        let mut store = SptpStore::new(6);
        let mut ps = PathStore::new();
        let tree = PseudoTree::new(0);
        let ss = source_set(6, 0);
        let mut stats = QueryStats::default();
        let f = store
            .build(
                &g,
                &[3, 1],
                &ss,
                &SourceLb::Zero,
                &mut ps,
                &tree,
                &mut stats,
            )
            .expect("path exists");
        assert_eq!(chain_nodes(&ps, &f), vec![0, 1]);
        assert_eq!(f.length, 1);
    }

    #[test]
    fn virtual_root_includes_seed_in_suffix() {
        let g = fixture();
        let mut store = SptpStore::new(6);
        let mut ps = PathStore::new();
        let tree = PseudoTree::new(VIRTUAL_NODE);
        let mut ss = TimestampedSet::new(6);
        ss.insert(2);
        ss.insert(5);
        let mut stats = QueryStats::default();
        let f = store
            .build(&g, &[3], &ss, &SourceLb::Zero, &mut ps, &tree, &mut stats)
            .expect("path exists");
        assert_eq!(chain_nodes(&ps, &f), vec![2, 3]);
        assert_eq!(suffix(&ps, &f), vec![(2, 0), (3, 1)]);
    }

    #[test]
    fn source_equal_to_target_gives_trivial_path() {
        let g = fixture();
        let mut store = SptpStore::new(6);
        let mut ps = PathStore::new();
        let tree = PseudoTree::new(2);
        let ss = source_set(6, 2);
        let mut stats = QueryStats::default();
        let f = store
            .build(&g, &[2], &ss, &SourceLb::Zero, &mut ps, &tree, &mut stats)
            .expect("trivial path");
        assert_eq!(chain_nodes(&ps, &f), vec![2]);
        assert_eq!(f.length, 0);
        assert_eq!(f.suffix_len, 0);
    }
}
