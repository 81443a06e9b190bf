//! Whole-graph (multi-source) Dijkstra with dense output arrays.

use kpj_graph::{Graph, Length, NodeId, INFINITE_LENGTH};
use kpj_heap::RadixHeap;

use crate::Direction;

/// Parent sentinel: the node is a search root or unreached.
pub const NO_PARENT: NodeId = NodeId::MAX;

/// Result of a whole-graph Dijkstra: dense `δ` and parent arrays.
///
/// With `Direction::Forward` and a single source `s`, `dist[v] = δ(s, v)`.
/// With `Direction::Backward` and sources `V_T` (all at distance 0),
/// `dist[v] = δ(v, V_T) = min_{t ∈ V_T} δ(v, t)` — exactly the distance to
/// the paper's virtual target node — and following `parent` pointers from
/// `v` walks the shortest forward path from `v` towards its nearest target.
///
/// # Parent rule
///
/// Call `u` a *tight predecessor* of `v` if `dist[u] + w(u, v) = dist[v]`
/// along an expanded arc. A reached node whose final distance came from a
/// source's initial distance is a *root* and keeps [`NO_PARENT`]. Every
/// other node `v` with a tight predecessor at a strictly smaller distance
/// (a positive-weight tight arc) gets the tight predecessor with the
/// smallest `(dist, id)`. Those parents follow from the distance row alone,
/// whatever order the queue pops equal keys in.
///
/// The one exception is a node whose only tight predecessors sit at its
/// own distance, behind zero-weight arcs. There the `(dist, id)` rule could
/// close a cycle of zero-weight arcs, so such a node keeps the first tight
/// predecessor settled, which depends on the queue's order among equal keys.
#[derive(Debug, Clone)]
pub struct DenseDijkstra {
    direction: Direction,
    dist: Vec<Length>,
    parent: Vec<NodeId>,
    heap: RadixHeap<NodeId>,
}

impl DenseDijkstra {
    /// Run Dijkstra over the whole graph from `sources` (each with an
    /// initial distance, normally 0) expanding edges in `direction`.
    ///
    /// Runs until the queue is exhausted, with a monotone radix heap. Each
    /// relaxation queues at most one entry, and an entry moves to a strictly
    /// lower bucket each time it is redistributed, so the search costs
    /// `O(m · log C)` for path lengths below `C` (at most `64 m` moves) and
    /// `O(n + m)` memory. For bounded / early-terminating searches use
    /// [`Searcher`](crate::Searcher) instead.
    pub fn run(
        g: &Graph,
        direction: Direction,
        sources: impl IntoIterator<Item = (NodeId, Length)>,
    ) -> Self {
        let n = g.node_count();
        let mut this = DenseDijkstra {
            direction,
            dist: vec![INFINITE_LENGTH; n],
            parent: vec![NO_PARENT; n],
            heap: RadixHeap::new(),
        };
        this.search(g, sources);
        this
    }

    /// Re-run the search in place, reusing the distance/parent arrays and
    /// the heap's buckets — no allocations once a run of the same query has
    /// grown them. This is what lets a pooled engine rebuild its per-query
    /// SPT without paying three `O(n)` allocations per query.
    pub fn rerun(
        &mut self,
        g: &Graph,
        direction: Direction,
        sources: impl IntoIterator<Item = (NodeId, Length)>,
    ) {
        let n = g.node_count();
        if self.dist.len() != n {
            self.dist = vec![INFINITE_LENGTH; n];
            self.parent = vec![NO_PARENT; n];
        } else {
            self.dist.fill(INFINITE_LENGTH);
            self.parent.fill(NO_PARENT);
        }
        self.heap.clear();
        self.direction = direction;
        self.search(g, sources);
    }

    fn search(&mut self, g: &Graph, sources: impl IntoIterator<Item = (NodeId, Length)>) {
        for (s, d0) in sources {
            if d0 < self.dist[s as usize] {
                self.dist[s as usize] = d0;
                self.heap.push(d0, s);
            }
        }
        while let Some((du, u)) = self.heap.pop() {
            // Lazy deletion: an entry whose key no longer matches the
            // node's distance was superseded by a later, smaller push.
            if du != self.dist[u as usize] {
                continue;
            }
            for e in self.direction.edges(g, u) {
                let nd = du.saturating_add(e.weight as Length);
                let v = e.to as usize;
                let dv = self.dist[v];
                if nd < dv {
                    self.dist[v] = nd;
                    self.parent[v] = u;
                    self.heap.push(nd, e.to);
                } else if nd == dv && du < dv {
                    // Another positive-weight tight predecessor: keep the
                    // (dist, id)-smallest. Roots keep NO_PARENT.
                    let p = self.parent[v];
                    if p != NO_PARENT && (du, u) < (self.dist[p as usize], p) {
                        self.parent[v] = u;
                    }
                }
            }
        }
    }

    /// Convenience: single forward source at distance 0.
    pub fn from_source(g: &Graph, s: NodeId) -> Self {
        Self::run(g, Direction::Forward, [(s, 0)])
    }

    /// Convenience: backward multi-source from `targets` at distance 0, i.e.
    /// distances **to** the target set along forward edges.
    pub fn to_targets(g: &Graph, targets: &[NodeId]) -> Self {
        Self::run(g, Direction::Backward, targets.iter().map(|&t| (t, 0)))
    }

    /// The direction this search expanded.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Distance of `v` ([`INFINITE_LENGTH`] if unreached).
    #[inline]
    pub fn dist(&self, v: NodeId) -> Length {
        self.dist[v as usize]
    }

    /// True if `v` was reached.
    #[inline]
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v as usize] != INFINITE_LENGTH
    }

    /// The node `v` was settled from ([`NO_PARENT`] for roots/unreached),
    /// chosen by the [parent rule](DenseDijkstra#parent-rule).
    ///
    /// For a backward search this is the *next hop* of the shortest forward
    /// path from `v` to the target set.
    #[inline]
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v as usize]
    }

    /// Borrow the full distance array (index = node id).
    pub fn dist_slice(&self) -> &[Length] {
        &self.dist
    }

    /// Consume into the distance array (for landmark tables).
    pub fn into_dist(self) -> Vec<Length> {
        self.dist
    }

    /// The node chain from `v` following parent pointers until a root.
    ///
    /// * Forward search: the shortest path `source → v`, returned in
    ///   source-first order.
    /// * Backward search: the shortest path `v → nearest target`, returned
    ///   in `v`-first order.
    ///
    /// Returns `None` if `v` was not reached.
    pub fn path_chain(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.reached(v) {
            return None;
        }
        let mut chain = vec![v];
        let mut cur = v;
        while self.parent[cur as usize] != NO_PARENT {
            cur = self.parent[cur as usize];
            chain.push(cur);
        }
        if self.direction == Direction::Forward {
            chain.reverse();
        }
        Some(chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_graph::GraphBuilder;

    /// 0 →1→ 1 →1→ 2 →1→ 3, plus shortcut 0 →5→ 3 and an unreachable node 4.
    fn chain_graph() -> Graph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        b.add_edge(0, 3, 5).unwrap();
        b.build()
    }

    #[test]
    fn forward_single_source() {
        let g = chain_graph();
        let d = DenseDijkstra::from_source(&g, 0);
        assert_eq!(d.dist(0), 0);
        assert_eq!(d.dist(1), 1);
        assert_eq!(d.dist(2), 2);
        assert_eq!(d.dist(3), 3); // chain beats the 5-weight shortcut
        assert!(!d.reached(4));
        assert_eq!(d.dist(4), INFINITE_LENGTH);
        assert_eq!(d.path_chain(3), Some(vec![0, 1, 2, 3]));
        assert_eq!(d.path_chain(4), None);
        assert_eq!(d.parent(0), NO_PARENT);
    }

    #[test]
    fn backward_multi_source_gives_distance_to_target_set() {
        let g = chain_graph();
        let d = DenseDijkstra::to_targets(&g, &[3, 1]);
        assert_eq!(d.dist(0), 1); // 0 → 1 (target)
        assert_eq!(d.dist(1), 0);
        assert_eq!(d.dist(2), 1); // 2 → 3 (target)
        assert_eq!(d.dist(3), 0);
        // Next-hop semantics: from 2 the next hop toward the targets is 3.
        assert_eq!(d.parent(2), 3);
        assert_eq!(d.path_chain(2), Some(vec![2, 3]));
        assert_eq!(d.path_chain(0), Some(vec![0, 1]));
    }

    #[test]
    fn multi_source_with_offsets() {
        let g = chain_graph();
        // Source 0 at offset 10, source 1 at offset 0: node 2 should prefer 1.
        let d = DenseDijkstra::run(&g, Direction::Forward, [(0, 10), (1, 0)]);
        assert_eq!(d.dist(2), 1);
        assert_eq!(d.dist(0), 10);
        assert_eq!(d.dist(3), 2);
    }

    #[test]
    fn matches_bellman_ford_on_random_graph() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 60u32;
        let mut b = GraphBuilder::new(n as usize);
        for _ in 0..400 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            b.add_edge(u, v, rng.gen_range(0..100)).unwrap();
        }
        let g = b.build();

        // Reference: Bellman–Ford.
        let s = 0u32;
        let mut ref_dist = vec![INFINITE_LENGTH; n as usize];
        ref_dist[s as usize] = 0;
        for _ in 0..n {
            let mut changed = false;
            for u in g.nodes() {
                if ref_dist[u as usize] == INFINITE_LENGTH {
                    continue;
                }
                for e in g.out_edges(u) {
                    let nd = ref_dist[u as usize] + e.weight as Length;
                    if nd < ref_dist[e.to as usize] {
                        ref_dist[e.to as usize] = nd;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let d = DenseDijkstra::from_source(&g, s);
        assert_eq!(d.dist_slice(), ref_dist.as_slice());
    }

    #[test]
    fn path_chain_is_consistent_with_distances() {
        let g = chain_graph();
        let d = DenseDijkstra::from_source(&g, 0);
        let chain = d.path_chain(3).unwrap();
        let len: Length = chain
            .windows(2)
            .map(|w| g.edge_weight(w[0], w[1]).unwrap() as Length)
            .sum();
        assert_eq!(len, d.dist(3));
    }

    #[test]
    fn rerun_reuses_arrays_and_matches_fresh_run() {
        let g = chain_graph();
        let mut d = DenseDijkstra::from_source(&g, 0);
        d.rerun(&g, Direction::Backward, [(3, 0), (1, 0)]);
        let fresh = DenseDijkstra::to_targets(&g, &[3, 1]);
        assert_eq!(d.dist_slice(), fresh.dist_slice());
        assert_eq!(d.direction(), Direction::Backward);
        assert_eq!(d.parent(2), 3);
        // And back again: stale backward state must not leak through.
        d.rerun(&g, Direction::Forward, [(0, 0)]);
        assert_eq!(d.dist(3), 3);
        assert_eq!(d.path_chain(3), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn zero_weight_edges_are_fine() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0).unwrap();
        b.add_edge(1, 2, 0).unwrap();
        let g = b.build();
        let d = DenseDijkstra::from_source(&g, 0);
        assert_eq!(d.dist(2), 0);
    }
}
