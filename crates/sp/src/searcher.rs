//! Reusable constrained, bounded best-first search (Dijkstra / A\*).

use kpj_graph::scratch::{TimestampedMap, TimestampedSet};
use kpj_graph::{EdgeRef, Graph, Length, NodeId, INFINITE_LENGTH};
use kpj_heap::IndexedKaryHeap;

use crate::{Direction, NO_PARENT};

/// Frontier-heap arity of the hot search loop. Dijkstra/A\* is
/// decrease-key-heavy (`sift_up`: one comparison per level), so a wider,
/// shallower heap wins over binary; 4 measured best (1.17× over binary)
/// on a Dijkstra-shaped push/decrease/pop replay against arities 2, 4
/// and 8. Binary [`kpj_heap::IndexedMinHeap`] remains the workspace
/// default for the colder queues.
const SEARCH_HEAP_ARITY: usize = 4;

/// How many settles elapse between polls of the `cancel` hook of
/// [`Searcher::search_ctl`]. A power of two so the check compiles to a
/// mask; small enough that deadline overshoot stays in the microsecond
/// range even on dense graphs.
pub const CANCEL_POLL_STRIDE: usize = 64;

/// Per-node admissibility/heuristic verdict, produced by the `estimate`
/// callback of [`Searcher::search`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimate {
    /// A lower bound on the remaining distance from this node to the goal
    /// (0 turns the search into plain Dijkstra). The node is enqueued iff
    /// `g + bound ≤ τ` when a threshold τ is set.
    Bound(Length),
    /// The node provably cannot reach the goal (e.g. a landmark proves
    /// `δ = ∞`). It is skipped *without* counting as a threshold prune.
    Unreachable,
    /// The node is temporarily inadmissible (e.g. not yet in the incremental
    /// SPT of §5.3). It is skipped and *does* count as a threshold prune,
    /// because a larger τ might admit it later.
    Deferred,
}

/// How a [`Searcher::search`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A goal node was settled at the given distance; its chain can be read
    /// with [`Searcher::chain_to_root`] until the next search.
    Found {
        /// The goal node that was settled.
        node: NodeId,
        /// Its final (constrained) distance from the nearest source.
        dist: Length,
    },
    /// The frontier emptied, but at least one node was pruned by the
    /// threshold τ (or deferred): the goal may still be reachable with a
    /// larger τ. This is `TestLB` returning "ω(sp(S)) > τ".
    ExhaustedBounded,
    /// The frontier emptied and nothing was τ-pruned or deferred: the
    /// constrained space simply contains no path to the goal. Callers drop
    /// the subspace instead of retrying forever (see DESIGN.md §3).
    ExhaustedComplete,
    /// The cancel hook fired mid-search (deadline / cooperative
    /// cancellation). Distance labels are partial; the caller must
    /// discard the query's results.
    Aborted,
}

/// Heap discipline of a [`Searcher::search`] run.
///
/// The settle-once search is only allowed to trust a settled node's label
/// when its expansion order is compatible with the heuristic:
///
/// * [`Astar`](SearchOrder::Astar) orders the heap by `g + h` — maximal
///   pruning, but **requires a consistent heuristic** (`h(u) ≤ ω(u,v) +
///   h(v)`; landmark/ALT bounds and exact-distance oracles qualify).
///   With a merely admissible `h` it can settle the goal at a
///   suboptimal distance.
/// * [`Dijkstra`](SearchOrder::Dijkstra) orders the heap by `g` alone and
///   uses `h` only to prune `g + h > τ` frontier entries. Correct for
///   **any admissible** `h`, at the cost of a larger exploration area.
///   This is what the mixed exact/fallback bounds of `SPT_P` (§5.2)
///   need: exact partial-SPT distances next to Eq. (2) fallbacks are
///   admissible but not consistent across the SPT boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchOrder {
    /// Order by `g + h` (requires consistent heuristic).
    #[default]
    Astar,
    /// Order by `g`; heuristic prunes only. Safe for inconsistent `h`.
    Dijkstra,
}

/// A reusable constrained best-first search.
///
/// One instance holds all scratch arrays for a node universe of size `n`;
/// every call to [`search`](Searcher::search) resets them in `O(1)`.
/// Constraints are supplied per call:
///
/// * `edge_filter(u, e)` — structural constraint: return `false` to forbid
///   the edge (subspace prefix nodes, excluded edge sets `X_u`).
/// * `estimate(v)` — heuristic / admissibility verdict (see [`Estimate`]).
/// * `is_goal(v)` — goal predicate, tested when a node is *settled* (its
///   distance is then final, as in Alg. 5 line 5).
/// * `bound` — the threshold τ of `TestLB`; `None` means unbounded.
#[derive(Debug)]
pub struct Searcher {
    heap: IndexedKaryHeap<Length, SEARCH_HEAP_ARITY>,
    dist: TimestampedMap<Length>,
    parent: TimestampedMap<NodeId>,
    settled: TimestampedSet,
    settled_count: usize,
    relaxed_edges: usize,
    pruned_count: usize,
}

impl Searcher {
    /// A searcher over node ids `0..n`.
    pub fn new(n: usize) -> Self {
        Searcher {
            heap: IndexedKaryHeap::new(n),
            dist: TimestampedMap::new(n, INFINITE_LENGTH),
            parent: TimestampedMap::new(n, NO_PARENT),
            settled: TimestampedSet::new(n),
            settled_count: 0,
            relaxed_edges: 0,
            pruned_count: 0,
        }
    }

    /// Node universe size.
    pub fn capacity(&self) -> usize {
        self.settled.capacity()
    }

    /// Run a search. See the type-level docs for the callback contracts.
    ///
    /// `sources` seed the queue with initial distances (normally one node at
    /// the subspace prefix length, or a whole target set at 0). Sources are
    /// themselves subject to `estimate` and `bound`.
    ///
    /// Equivalent to [`search_ctl`](Searcher::search_ctl) with
    /// [`SearchOrder::Astar`] and no cancel hook.
    #[allow(clippy::too_many_arguments)]
    pub fn search(
        &mut self,
        g: &Graph,
        direction: Direction,
        sources: impl IntoIterator<Item = (NodeId, Length)>,
        edge_filter: impl FnMut(NodeId, EdgeRef) -> bool,
        estimate: impl FnMut(NodeId) -> Estimate,
        is_goal: impl FnMut(NodeId) -> bool,
        bound: Option<Length>,
    ) -> SearchOutcome {
        self.search_ctl(
            g,
            direction,
            sources,
            edge_filter,
            estimate,
            is_goal,
            bound,
            SearchOrder::Astar,
            || false,
        )
    }

    /// [`search`](Searcher::search) with full control: an explicit heap
    /// [`SearchOrder`] and a cooperative `cancel` hook, polled every
    /// [`CANCEL_POLL_STRIDE`] settled nodes. When `cancel` returns `true`
    /// the run stops with [`SearchOutcome::Aborted`] and all labels of the
    /// run must be treated as garbage.
    #[allow(clippy::too_many_arguments)]
    pub fn search_ctl(
        &mut self,
        g: &Graph,
        direction: Direction,
        sources: impl IntoIterator<Item = (NodeId, Length)>,
        mut edge_filter: impl FnMut(NodeId, EdgeRef) -> bool,
        mut estimate: impl FnMut(NodeId) -> Estimate,
        mut is_goal: impl FnMut(NodeId) -> bool,
        bound: Option<Length>,
        order: SearchOrder,
        mut cancel: impl FnMut() -> bool,
    ) -> SearchOutcome {
        self.heap.clear();
        self.dist.reset();
        self.parent.reset();
        self.settled.clear();
        self.settled_count = 0;
        self.relaxed_edges = 0;
        let mut prunes = 0usize;

        // Returns the heap key for an admissible node: f = g + h under
        // Astar order, plain g under Dijkstra order (h still prunes).
        let mut admit = |v: NodeId, d: Length, prunes: &mut usize| -> Option<Length> {
            match estimate(v) {
                Estimate::Bound(h) => {
                    let f = d.saturating_add(h);
                    match bound {
                        Some(tau) if f > tau => {
                            *prunes += 1;
                            None
                        }
                        _ => Some(match order {
                            SearchOrder::Astar => f,
                            SearchOrder::Dijkstra => d,
                        }),
                    }
                }
                Estimate::Unreachable => None,
                Estimate::Deferred => {
                    *prunes += 1;
                    None
                }
            }
        };

        let outcome = 'run: {
            for (s, d0) in sources {
                if d0 < self.dist.get(s as usize) {
                    if let Some(f) = admit(s, d0, &mut prunes) {
                        self.dist.set(s as usize, d0);
                        self.heap.push_or_decrease(s as usize, f);
                    }
                }
            }

            while let Some((u, _f)) = self.heap.pop() {
                let u_node = u as NodeId;
                self.settled.insert(u);
                self.settled_count += 1;
                if self.settled_count.is_multiple_of(CANCEL_POLL_STRIDE) && cancel() {
                    break 'run SearchOutcome::Aborted;
                }
                let du = self.dist.get(u);
                if is_goal(u_node) {
                    break 'run SearchOutcome::Found {
                        node: u_node,
                        dist: du,
                    };
                }
                for &e in direction.edges(g, u_node) {
                    self.relaxed_edges += 1;
                    let v = e.to as usize;
                    if self.settled.contains(v) || !edge_filter(u_node, e) {
                        continue;
                    }
                    let nd = du.saturating_add(e.weight as Length);
                    if nd < self.dist.get(v) {
                        if let Some(f) = admit(e.to, nd, &mut prunes) {
                            self.dist.set(v, nd);
                            self.parent.set(v, u_node);
                            self.heap.push_or_decrease(v, f);
                        }
                    }
                }
            }

            if prunes > 0 {
                SearchOutcome::ExhaustedBounded
            } else {
                SearchOutcome::ExhaustedComplete
            }
        };
        self.pruned_count = prunes;
        outcome
    }

    /// The (final, if settled) distance label of `v` from the last search.
    #[inline]
    pub fn dist(&self, v: NodeId) -> Length {
        self.dist.get(v as usize)
    }

    /// True if `v` was settled in the last search.
    #[inline]
    pub fn is_settled(&self, v: NodeId) -> bool {
        self.settled.contains(v as usize)
    }

    /// Number of nodes settled in the last search (the paper's exploration
    /// area `n'`).
    pub fn settled_count(&self) -> usize {
        self.settled_count
    }

    /// Number of edges relaxed in the last search (`m'`).
    pub fn relaxed_edges(&self) -> usize {
        self.relaxed_edges
    }

    /// Number of frontier entries the last search discarded because of
    /// the threshold τ or a [`Estimate::Deferred`] verdict — the paper's
    /// lower-bound prunes. 0 after [`SearchOutcome::ExhaustedComplete`].
    pub fn pruned_count(&self) -> usize {
        self.pruned_count
    }

    /// The parent pointer of `v` from the last search ([`NO_PARENT`] for
    /// seeds and unlabeled nodes). The allocation-free primitive behind
    /// [`chain_to_root`](Searcher::chain_to_root).
    #[inline]
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent.get(v as usize)
    }

    /// The parent-pointer chain `v, parent(v), …, root` from the last
    /// search, pushed into `buf` (`v` first). Returns the number of nodes
    /// pushed. Allocation-free when `buf` has capacity.
    ///
    /// # Panics
    /// Panics if `v` carries no label from the last search.
    pub fn extend_chain_to_root(&self, v: NodeId, buf: &mut Vec<NodeId>) -> usize {
        assert!(
            self.dist.is_set(v as usize),
            "node {v} was not labeled in the last search"
        );
        let before = buf.len();
        buf.push(v);
        let mut cur = v;
        while self.parent.get(cur as usize) != NO_PARENT {
            cur = self.parent.get(cur as usize);
            buf.push(cur);
        }
        buf.len() - before
    }

    /// The parent-pointer chain `v, parent(v), …, root` from the last
    /// search (so: reversed path for `Direction::Forward` searches).
    ///
    /// # Panics
    /// Panics if `v` carries no label from the last search.
    pub fn chain_to_root(&self, v: NodeId) -> Vec<NodeId> {
        assert!(
            self.dist.is_set(v as usize),
            "node {v} was not labeled in the last search"
        );
        let mut chain = vec![v];
        let mut cur = v;
        while self.parent.get(cur as usize) != NO_PARENT {
            cur = self.parent.get(cur as usize);
            chain.push(cur);
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_graph::GraphBuilder;

    /// 0→1→2→3 with weights 1,2,3 and a shortcut 0→3 (weight 10).
    fn g() -> Graph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 2).unwrap();
        b.add_edge(2, 3, 3).unwrap();
        b.add_edge(0, 3, 10).unwrap();
        b.build()
    }

    fn dijkstra_to(
        s: &mut Searcher,
        graph: &Graph,
        from: NodeId,
        to: NodeId,
        bound: Option<Length>,
    ) -> SearchOutcome {
        s.search(
            graph,
            Direction::Forward,
            [(from, 0)],
            |_, _| true,
            |_| Estimate::Bound(0),
            |v| v == to,
            bound,
        )
    }

    #[test]
    fn finds_shortest_path_and_chain() {
        let graph = g();
        let mut s = Searcher::new(graph.node_count());
        let out = dijkstra_to(&mut s, &graph, 0, 3, None);
        assert_eq!(out, SearchOutcome::Found { node: 3, dist: 6 });
        let mut chain = s.chain_to_root(3);
        chain.reverse();
        assert_eq!(chain, vec![0, 1, 2, 3]);
        assert!(s.settled_count() >= 4);
    }

    #[test]
    fn goal_at_source_is_found_immediately() {
        let graph = g();
        let mut s = Searcher::new(graph.node_count());
        let out = dijkstra_to(&mut s, &graph, 2, 2, None);
        assert_eq!(out, SearchOutcome::Found { node: 2, dist: 0 });
        assert_eq!(s.chain_to_root(2), vec![2]);
    }

    #[test]
    fn unreachable_goal_is_exhausted_complete() {
        let graph = g();
        let mut s = Searcher::new(graph.node_count());
        let out = dijkstra_to(&mut s, &graph, 0, 4, None);
        assert_eq!(out, SearchOutcome::ExhaustedComplete);
    }

    #[test]
    fn bound_prunes_and_reports_bounded() {
        let graph = g();
        let mut s = Searcher::new(graph.node_count());
        // True distance is 6; τ = 4 must yield ExhaustedBounded.
        let out = dijkstra_to(&mut s, &graph, 0, 3, Some(4));
        assert_eq!(out, SearchOutcome::ExhaustedBounded);
        // τ = 6 admits the goal exactly (Alg. 5 line 10 keeps f ≤ τ).
        let out = dijkstra_to(&mut s, &graph, 0, 3, Some(6));
        assert_eq!(out, SearchOutcome::Found { node: 3, dist: 6 });
    }

    #[test]
    fn edge_filter_excludes_edges() {
        let graph = g();
        let mut s = Searcher::new(graph.node_count());
        // Forbid the edge 1→2: only the shortcut remains.
        let out = s.search(
            &graph,
            Direction::Forward,
            [(0, 0)],
            |u, e| !(u == 1 && e.to == 2),
            |_| Estimate::Bound(0),
            |v| v == 3,
            None,
        );
        assert_eq!(out, SearchOutcome::Found { node: 3, dist: 10 });
    }

    #[test]
    fn heuristic_guides_astar_to_same_answer() {
        let graph = g();
        // Exact remaining distances to node 3 (a perfect, consistent h).
        let h = [6u64, 5, 3, 0, u64::MAX];
        let mut s = Searcher::new(graph.node_count());
        let out = s.search(
            &graph,
            Direction::Forward,
            [(0, 0)],
            |_, _| true,
            |v| {
                if h[v as usize] == u64::MAX {
                    Estimate::Unreachable
                } else {
                    Estimate::Bound(h[v as usize])
                }
            },
            |v| v == 3,
            None,
        );
        assert_eq!(out, SearchOutcome::Found { node: 3, dist: 6 });
        // A perfect heuristic settles only the path nodes.
        assert_eq!(s.settled_count(), 4);
    }

    #[test]
    fn deferred_counts_as_bounded() {
        let graph = g();
        let mut s = Searcher::new(graph.node_count());
        // Defer node 1 — only the shortcut remains, but pruning must be
        // reported even though a path was *not* found under the bound.
        let out = s.search(
            &graph,
            Direction::Forward,
            [(0, 0)],
            |_, _| true,
            |v| {
                if v == 1 {
                    Estimate::Deferred
                } else {
                    Estimate::Bound(0)
                }
            },
            |v| v == 3,
            Some(7),
        );
        assert_eq!(out, SearchOutcome::ExhaustedBounded);
    }

    #[test]
    fn unreachable_estimate_does_not_mark_bounded() {
        let graph = g();
        let mut s = Searcher::new(graph.node_count());
        // Node 4 is never reached anyway; marking 3 unreachable and asking
        // for goal 3 exhausts with Complete (no τ-prunes happened).
        let out = s.search(
            &graph,
            Direction::Forward,
            [(0, 0)],
            |_, _| true,
            |v| {
                if v == 3 {
                    Estimate::Unreachable
                } else {
                    Estimate::Bound(0)
                }
            },
            |v| v == 3,
            None,
        );
        assert_eq!(out, SearchOutcome::ExhaustedComplete);
    }

    #[test]
    fn backward_search_reaches_sources_of_edges() {
        let graph = g();
        let mut s = Searcher::new(graph.node_count());
        let out = s.search(
            &graph,
            Direction::Backward,
            [(3, 0)],
            |_, _| true,
            |_| Estimate::Bound(0),
            |v| v == 0,
            None,
        );
        assert_eq!(out, SearchOutcome::Found { node: 0, dist: 6 });
        // Chain from 0 to root 3 is the forward path 0,1,2,3.
        assert_eq!(s.chain_to_root(0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn multi_source_uses_nearest_source() {
        let graph = g();
        let mut s = Searcher::new(graph.node_count());
        let out = s.search(
            &graph,
            Direction::Forward,
            [(0, 100), (2, 0)],
            |_, _| true,
            |_| Estimate::Bound(0),
            |v| v == 3,
            None,
        );
        assert_eq!(out, SearchOutcome::Found { node: 3, dist: 3 });
    }

    #[test]
    fn dijkstra_order_survives_inconsistent_heuristic() {
        // 0→2 (10), 2→3 (100), 0→1 (1), 1→2 (1): true 0–3 distance is
        // 102 via 0→1→2→3. h(1)=101 is exact, h(2)=0 a weak fallback —
        // admissible but inconsistent across 1→2 (101 > 1 + 0). Under
        // Astar order node 2 is settled at f=10 with suboptimal g=10
        // before node 1 (f=102) can relax it to g=2, so the settle-once
        // search returns 110. Dijkstra order must return the true 102.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 2, 10).unwrap();
        b.add_edge(2, 3, 100).unwrap();
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        let graph = b.build();
        let h = [0u64, 101, 0, 0];
        let mut s = Searcher::new(graph.node_count());
        let run = |s: &mut Searcher, order| {
            s.search_ctl(
                &graph,
                Direction::Forward,
                [(0, 0)],
                |_, _| true,
                |v| Estimate::Bound(h[v as usize]),
                |v| v == 3,
                Some(200),
                order,
                || false,
            )
        };
        assert_eq!(
            run(&mut s, SearchOrder::Astar),
            SearchOutcome::Found { node: 3, dist: 110 }
        );
        assert_eq!(
            run(&mut s, SearchOrder::Dijkstra),
            SearchOutcome::Found { node: 3, dist: 102 }
        );
    }

    #[test]
    fn dijkstra_order_still_prunes_by_bound() {
        let graph = g();
        let mut s = Searcher::new(graph.node_count());
        let out = s.search_ctl(
            &graph,
            Direction::Forward,
            [(0, 0)],
            |_, _| true,
            |_| Estimate::Bound(0),
            |v| v == 3,
            Some(4),
            SearchOrder::Dijkstra,
            || false,
        );
        assert_eq!(out, SearchOutcome::ExhaustedBounded);
    }

    #[test]
    fn cancel_hook_aborts_search() {
        // A long chain so the poll stride is crossed.
        let n = CANCEL_POLL_STRIDE * 4;
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as NodeId, (i + 1) as NodeId, 1).unwrap();
        }
        let graph = b.build();
        let mut s = Searcher::new(graph.node_count());
        let out = s.search_ctl(
            &graph,
            Direction::Forward,
            [(0, 0)],
            |_, _| true,
            |_| Estimate::Bound(0),
            |v| v as usize == n - 1,
            None,
            SearchOrder::Astar,
            || true,
        );
        assert_eq!(out, SearchOutcome::Aborted);
        // The scratch is reset by the next search: results stay correct.
        let out = s.search(
            &graph,
            Direction::Forward,
            [(0, 0)],
            |_, _| true,
            |_| Estimate::Bound(0),
            |v| v as usize == n - 1,
            None,
        );
        assert_eq!(
            out,
            SearchOutcome::Found {
                node: (n - 1) as NodeId,
                dist: (n - 1) as Length
            }
        );
    }

    #[test]
    fn scratch_reuse_is_clean_across_searches() {
        let graph = g();
        let mut s = Searcher::new(graph.node_count());
        dijkstra_to(&mut s, &graph, 0, 3, None);
        let out = dijkstra_to(&mut s, &graph, 1, 3, None);
        assert_eq!(out, SearchOutcome::Found { node: 3, dist: 5 });
        let mut chain = s.chain_to_root(3);
        chain.reverse();
        assert_eq!(chain, vec![1, 2, 3]);
        assert!(!s.dist.is_set(0));
    }
}
