//! Direction-agnostic subspace machinery shared by every algorithm:
//! subspace shortest-path search (`CompSP` / `TestLB` / candidate paths),
//! subspace lower bounds (`CompLB` / `CompLB-SPTI`), and path assembly /
//! division plumbing.
//!
//! A *mode* fixes the orientation once per query:
//!
//! * **forward** (`DA`, `DA-SPT`, `BestFirst`, `IterBound`, `IterBound-SPTP`):
//!   the tree root is the source side (a real source or the GKPJ virtual
//!   source), searches expand out-edges, and the goal set is `V_T`.
//! * **reverse** (`IterBound-SPTI`, §5.3): the tree root is the virtual
//!   target `t`, searches expand in-edges, and the goal set is the source
//!   set `V_S` (usually `{s}`).
//!
//! Everything below is parameterized by [`Direction`], the root fan-out set
//! (sources forward / targets reverse; virtual edges weigh 0), and the goal
//! set, so the two orientations share one implementation.
//!
//! Path data model: a found path is never materialized into an owned
//! `Vec<NodeId>` on the hot path. Producers push the search chain into the
//! query's [`PathStore`] arena and hand around a Copy [`FoundPath`] handle;
//! division reads the suffix straight out of the arena
//! ([`PseudoTree::divide_from_store`]) and emission rebuilds the node
//! sequence into a pooled buffer ([`emit_found`]).

use kpj_graph::scratch::TimestampedSet;
use kpj_graph::{Graph, Length, NodeId, PathId, PathRef, PathSet, PathStore, INFINITE_LENGTH};
use kpj_heap::MinHeap;
use kpj_obs::{QueryTrace, Stage};
use kpj_sp::{Direction, Estimate, SearchOrder, SearchOutcome, Searcher};

use crate::deadline::Deadline;
use crate::pseudo_tree::{PseudoTree, VertexId, ROOT, VIRTUAL_NODE};
use crate::stats::QueryStats;

/// Consumer of result paths, in non-decreasing length order.
///
/// `nodes` is borrowed from the caller's emission buffer — sinks copy what
/// they keep. [`emit`](PathSink::emit) returns `false` to stop the query
/// early — the anytime interface behind [`QueryEngine::query_visit`]
/// (`QueryEngine` collects into a bounded [`PathSet`] through the same
/// trait).
///
/// [`QueryEngine::query_visit`]: crate::QueryEngine::query_visit
pub(crate) trait PathSink {
    /// Deliver the next path; return `true` to keep the query running.
    fn emit(&mut self, nodes: &[NodeId], length: Length) -> bool;
}

/// The standard sink: collect up to `k` paths into a caller-owned
/// [`PathSet`] (flat storage — one copy into pooled buffers, no per-path
/// allocation at steady state).
pub(crate) struct CollectSink<'a> {
    pub out: &'a mut PathSet,
    pub k: usize,
}

impl PathSink for CollectSink<'_> {
    fn emit(&mut self, nodes: &[NodeId], length: Length) -> bool {
        debug_assert!(self.out.len() < self.k);
        self.out.push(nodes, length);
        self.out.len() < self.k
    }
}

/// Adapter for user callbacks with a `k` cap.
pub(crate) struct VisitSink<F: for<'a> FnMut(PathRef<'a>) -> bool> {
    pub f: F,
    pub remaining: usize,
}

impl<F: for<'a> FnMut(PathRef<'a>) -> bool> PathSink for VisitSink<F> {
    fn emit(&mut self, nodes: &[NodeId], length: Length) -> bool {
        debug_assert!(self.remaining > 0);
        self.remaining -= 1;
        (self.f)(PathRef { nodes, length }) && self.remaining > 0
    }
}

/// A path found in a subspace, ready for emission and division: a Copy
/// handle into the query's [`PathStore`].
///
/// The arena chain ending at [`tail`](FoundPath::tail) holds the *search
/// chain* in tree orientation — from the subspace seed (the subspace
/// vertex's node, or a fan-out endpoint under a virtual root) to the goal
/// node — with each entry's `length` the cumulative path length up to and
/// including that node. The tree prefix above the vertex is not duplicated
/// here; emission walks it out of the [`PseudoTree`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct FoundPath {
    /// Arena entry of the goal-side end of the search chain.
    pub tail: PathId,
    /// Total length `ω(P)`.
    pub length: Length,
    /// The vertex whose subspace this path was found in.
    pub vertex: VertexId,
    /// How many entries, walking back from `tail`, form the suffix *after*
    /// the vertex — what [`PseudoTree::divide_from_store`] consumes. Equals
    /// the chain node count minus one for a real-rooted chain (the seed is
    /// the vertex's own node), or the full count under a virtual root.
    pub suffix_len: u32,
}

/// Result of a subspace search.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SubspaceSearch {
    /// The subspace's shortest path (always when unbounded and non-empty;
    /// when bounded, only if `ω(sp(S)) ≤ τ` — Lemma 5.1).
    Found(FoundPath),
    /// Bounded run proved `ω(sp(S)) > τ`.
    Bounded,
    /// The subspace contains no path at all — drop it (DESIGN.md §3).
    Empty,
    /// The query deadline fired mid-search; the caller must stop the query
    /// and discard its results.
    Aborted,
}

/// Per-query context shared by the subspace primitives.
pub(crate) struct SubspaceCtx<'q> {
    /// The graph.
    pub g: &'q Graph,
    /// Search orientation (see module docs).
    pub direction: Direction,
    /// Root fan-out endpoints reached by 0-weight virtual edges: the
    /// sources (forward) or the targets (reverse). Only consulted when the
    /// tree root is virtual.
    pub fanout: &'q [NodeId],
    /// Membership set of the goal side (`V_T` forward, `V_S` reverse).
    pub goal_set: &'q TimestampedSet,
    /// Number of goal-side nodes (`|V_T|` forward / `|V_S|` reverse);
    /// used for the single-goal terminal-subspace optimization.
    pub goal_count: usize,
    /// Heap discipline of the subspace searches. Must be
    /// [`SearchOrder::Dijkstra`] whenever the query's estimate is
    /// admissible but not consistent (`IterBound-SPT_P`'s mix of exact
    /// partial-SPT distances and Eq. (2) fallbacks).
    pub order: SearchOrder,
    /// The query's deadline, polled inside every subspace search and at
    /// the paradigm loop heads. [`Deadline::none()`] disables it.
    pub deadline: Deadline,
}

/// Mutable scratch for the subspace primitives, owned by the engine. All
/// buffers keep their capacity across queries, so a warmed engine runs the
/// subspace machinery without heap allocation.
pub(crate) struct SubspaceScratch {
    /// The shared constrained searcher.
    pub searcher: Searcher,
    /// Prefix membership marks, re-marked per primitive call.
    pub prefix_set: TimestampedSet,
    /// Seed list of the current subspace search.
    pub seed_buf: Vec<(NodeId, Length)>,
    /// Parent-chain staging (goal → seed) during assembly.
    pub chain_buf: Vec<NodeId>,
    /// Node buffer the emitted path is rebuilt into.
    pub emit_buf: Vec<NodeId>,
    /// Vertices affected by the last division.
    pub affected: Vec<VertexId>,
    /// Pooled candidate heap of the deviation baselines (taken with
    /// `mem::take` for the duration of a run, then put back).
    pub dev_heap: MinHeap<Length, FoundPath>,
    /// Pooled subspace queue of the best-first / iter-bound paradigms.
    pub para_heap: MinHeap<Length, QueueEntry>,
    /// The query tracer: a pre-allocated span ring, threaded here so every
    /// primitive and paradigm can record stage spans without new
    /// parameters.
    pub trace: QueryTrace,
}

impl SubspaceScratch {
    pub(crate) fn new(n: usize) -> Self {
        SubspaceScratch {
            searcher: Searcher::new(n),
            prefix_set: TimestampedSet::new(n),
            seed_buf: Vec::new(),
            chain_buf: Vec::new(),
            emit_buf: Vec::new(),
            affected: Vec::new(),
            dev_heap: MinHeap::new(),
            para_heap: MinHeap::new(),
            trace: QueryTrace::new(kpj_obs::trace::DEFAULT_SPAN_CAPACITY),
        }
    }
}

/// A subspace queue entry, the paper's `⟨S, lb(S), P⟩` triple with the
/// key in the heap: the subspace's vertex, its shortest path once known,
/// and the oracle generation its lower-bound key was computed at (see
/// `SubspaceOracle::generation`; always 0 where bounds never grow).
pub(crate) type QueueEntry = (VertexId, Option<FoundPath>, u32);

/// Mark the prefix nodes of `vertex` into `prefix_set`.
fn mark_prefix(tree: &PseudoTree, vertex: VertexId, prefix_set: &mut TimestampedSet) {
    prefix_set.clear();
    for n in tree.prefix_nodes(vertex) {
        prefix_set.insert(n as usize);
    }
}

/// `CompLB` (Alg. 3) / `CompLB-SPTI` (Alg. 8): a lower bound on the length
/// of every path in the subspace at `vertex`, from one-hop look-ahead:
/// `min over valid continuations (u,v): ω(prefix) + ω(u,v) + lb_num(v)`,
/// additionally admitting the prefix itself when it already ends on the
/// goal side and has not been emitted (a case Alg. 3 misses — DESIGN.md §3).
///
/// Returns [`INFINITE_LENGTH`] when the subspace is provably empty.
pub(crate) fn comp_lb(
    ctx: &SubspaceCtx<'_>,
    scratch: &mut SubspaceScratch,
    tree: &PseudoTree,
    vertex: VertexId,
    lb_num: &mut impl FnMut(NodeId) -> Length,
    stats: &mut QueryStats,
) -> Length {
    stats.lower_bound_computations += 1;
    mark_prefix(tree, vertex, &mut scratch.prefix_set);
    let u = tree.node(vertex);
    let plen = tree.prefix_len(vertex);
    let mut lb = INFINITE_LENGTH;
    if u != VIRTUAL_NODE && ctx.goal_set.contains(u as usize) && !tree.emitted(vertex) {
        lb = plen;
    }
    if u == VIRTUAL_NODE {
        for &f in ctx.fanout {
            if !tree.is_excluded(vertex, f) {
                lb = lb.min(lb_num(f));
            }
        }
    } else {
        for e in ctx.direction.edges(ctx.g, u) {
            if scratch.prefix_set.contains(e.to as usize) || tree.is_excluded(vertex, e.to) {
                continue;
            }
            lb = lb.min(
                plen.saturating_add(e.weight as Length)
                    .saturating_add(lb_num(e.to)),
            );
        }
    }
    lb
}

/// `CompSP` (unbounded, `bound = None`) and `TestLB` (Alg. 5,
/// `bound = Some(τ)`) in one: the constrained best-first search inside the
/// subspace at `vertex`. On success the found chain is pushed into `store`.
///
/// `estimate` supplies the heuristic / admissibility verdict per node (see
/// [`Estimate`]); `Estimate::Deferred` implements the `SPT_I` pruning of
/// §5.3 and keeps the outcome `Bounded` so the subspace is retried at a
/// larger τ.
#[allow(clippy::too_many_arguments)]
pub(crate) fn subspace_search(
    ctx: &SubspaceCtx<'_>,
    scratch: &mut SubspaceScratch,
    store: &mut PathStore,
    tree: &PseudoTree,
    vertex: VertexId,
    estimate: &mut impl FnMut(NodeId) -> Estimate,
    bound: Option<Length>,
    stats: &mut QueryStats,
) -> SubspaceSearch {
    if bound.is_some() {
        stats.testlb_calls += 1;
    } else {
        stats.shortest_path_computations += 1;
    }
    mark_prefix(tree, vertex, &mut scratch.prefix_set);
    let u = tree.node(vertex);
    let plen = tree.prefix_len(vertex);
    let allow_trivial = !tree.emitted(vertex);

    // Seeds: the vertex itself, or — for a virtual root — the non-excluded
    // fan-out endpoints across 0-weight virtual edges.
    scratch.seed_buf.clear();
    if u == VIRTUAL_NODE {
        scratch.seed_buf.extend(
            ctx.fanout
                .iter()
                .filter(|&&f| !tree.is_excluded(vertex, f))
                .map(|&f| (f, 0)),
        );
    } else {
        scratch.seed_buf.push((u, plen));
    }

    // Span only the full CompSP runs: bounded TestLB probes are numerous
    // and cheap, and timing each would eat the <2% tracing budget.
    let tick = if bound.is_none() {
        Some(scratch.trace.start())
    } else {
        None
    };
    let prefix_set = &scratch.prefix_set;
    let goal_set = ctx.goal_set;
    let deadline = ctx.deadline;
    let outcome = scratch.searcher.search_ctl(
        ctx.g,
        ctx.direction,
        scratch.seed_buf.iter().copied(),
        |from, e| {
            !prefix_set.contains(e.to as usize) && (from != u || !tree.is_excluded(vertex, e.to))
        },
        &mut *estimate,
        |v| goal_set.contains(v as usize) && (v != u || allow_trivial),
        bound,
        ctx.order,
        || deadline.expired(),
    );
    stats.nodes_settled += scratch.searcher.settled_count();
    stats.edges_relaxed += scratch.searcher.relaxed_edges();
    // Every settle popped the search heap once.
    stats.heap_pops += scratch.searcher.settled_count();
    stats.lb_prunes += scratch.searcher.pruned_count();
    if let Some(tick) = tick {
        scratch.trace.record(Stage::SpSearch, tick);
    }

    match outcome {
        SearchOutcome::Found { node, dist } => {
            SubspaceSearch::Found(assemble(scratch, store, tree, vertex, node, dist))
        }
        SearchOutcome::ExhaustedBounded => {
            stats.testlb_bounded += 1;
            SubspaceSearch::Bounded
        }
        SearchOutcome::ExhaustedComplete => {
            // The subspace is provably pathless: callers drop it.
            stats.subspaces_skipped += 1;
            SubspaceSearch::Empty
        }
        SearchOutcome::Aborted => SubspaceSearch::Aborted,
    }
}

/// Push the searcher's chain for goal node `goal` (settled at `dist`) into
/// the arena and return the [`FoundPath`] handle, relative to the subspace
/// at `vertex`.
fn assemble(
    scratch: &mut SubspaceScratch,
    store: &mut PathStore,
    tree: &PseudoTree,
    vertex: VertexId,
    goal: NodeId,
    dist: Length,
) -> FoundPath {
    let u = tree.node(vertex);
    scratch.chain_buf.clear();
    // chain_buf: goal, …, seed (seed == u for real vertices; a fan-out
    // endpoint for a virtual root).
    let count = scratch
        .searcher
        .extend_chain_to_root(goal, &mut scratch.chain_buf);
    // Arena chains are parent-linked towards the seed, so push seed-first.
    let mut id: Option<PathId> = None;
    for &x in scratch.chain_buf.iter().rev() {
        id = Some(store.push(id, x, scratch.searcher.dist(x)));
    }
    let skip = u32::from(u != VIRTUAL_NODE);
    FoundPath {
        tail: id.expect("chain has at least one node"),
        length: dist,
        vertex,
        suffix_len: count as u32 - skip,
    }
}

/// Divide the subspace of `found` into `scratch.affected` (the vertices to
/// (re)enqueue), skipping provably useless emitted-terminal subspaces when
/// the goal side is a single node — such a subspace could only extend
/// *through* that node back to itself, which is never simple.
pub(crate) fn divide_subspace(
    ctx: &SubspaceCtx<'_>,
    scratch: &mut SubspaceScratch,
    store: &PathStore,
    tree: &mut PseudoTree,
    found: FoundPath,
    stats: &mut QueryStats,
) {
    scratch.affected.clear();
    tree.divide_from_store(
        found.vertex,
        store,
        found.tail,
        found.suffix_len,
        &mut scratch.affected,
    );
    stats.subspaces_created += scratch.affected.len().saturating_sub(1);
    if ctx.goal_count == 1 {
        let affected = &mut scratch.affected;
        let before = affected.len();
        affected.retain(|&v| !tree.emitted(v));
        stats.subspaces_skipped += before - affected.len();
    }
}

/// Rebuild `found`'s full node sequence (tree prefix + arena chain) into
/// `scratch.emit_buf` and deliver it to `sink`. Safe to call after
/// [`divide_subspace`] — division only appends tree vertices, never
/// rewrites the prefix chain. Returns the sink's continue/stop verdict.
pub(crate) fn emit_found(
    scratch: &mut SubspaceScratch,
    store: &PathStore,
    tree: &PseudoTree,
    found: FoundPath,
    reverse_output: bool,
    sink: &mut dyn PathSink,
) -> bool {
    let buf = &mut scratch.emit_buf;
    buf.clear();
    // Chain, goal side first.
    let mut cur = Some(found.tail);
    while let Some(id) = cur {
        buf.push(store.node(id));
        cur = store.parent(id);
    }
    // Tree prefix strictly above the vertex (the chain already holds the
    // vertex's own node for real-rooted subspaces; a virtual-rooted
    // subspace is the root and has no prefix).
    if found.vertex != ROOT {
        buf.extend(tree.prefix_nodes(tree.parent(found.vertex)));
    }
    // buf is now the full path in *reversed* tree orientation — which is
    // exactly source-first for reverse mode (SPT_I); forward mode flips.
    if !reverse_output {
        buf.reverse();
    }
    sink.emit(buf, found.length)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pseudo_tree::ROOT;
    use kpj_graph::GraphBuilder;

    /// Line 0-1-2-3 (unit weights, bidirectional) with targets {3}.
    fn fixture() -> (Graph, TimestampedSet) {
        let mut b = GraphBuilder::new(4);
        for i in 0..3u32 {
            b.add_bidirectional(i, i + 1, 1).unwrap();
        }
        let g = b.build();
        let mut goal = TimestampedSet::new(4);
        goal.insert(3);
        (g, goal)
    }

    fn zero_est(_: NodeId) -> Estimate {
        Estimate::Bound(0)
    }

    /// Materialize a [`FoundPath`]'s full node sequence for assertions.
    fn found_nodes(
        scratch: &mut SubspaceScratch,
        store: &PathStore,
        tree: &PseudoTree,
        found: FoundPath,
        reverse_output: bool,
    ) -> (Vec<NodeId>, Length) {
        struct Grab(Vec<NodeId>, Length);
        impl PathSink for Grab {
            fn emit(&mut self, nodes: &[NodeId], length: Length) -> bool {
                self.0 = nodes.to_vec();
                self.1 = length;
                false
            }
        }
        let mut grab = Grab(Vec::new(), 0);
        emit_found(scratch, store, tree, found, reverse_output, &mut grab);
        (grab.0, grab.1)
    }

    /// The suffix pairs `(node, cumulative length)` read from the arena.
    fn found_suffix(store: &PathStore, found: FoundPath) -> Vec<(NodeId, Length)> {
        let mut out = Vec::new();
        let mut cur = Some(found.tail);
        for _ in 0..found.suffix_len {
            let id = cur.unwrap();
            out.push((store.node(id), store.length(id)));
            cur = store.parent(id);
        }
        out.reverse();
        out
    }

    #[test]
    fn comp_sp_finds_path_and_assembles_suffix() {
        let (g, goal_set) = fixture();
        let ctx = SubspaceCtx {
            g: &g,
            direction: Direction::Forward,
            fanout: &[],
            goal_set: &goal_set,
            goal_count: 1,
            order: SearchOrder::Astar,
            deadline: Deadline::none(),
        };
        let mut scratch = SubspaceScratch::new(4);
        let mut store = PathStore::new();
        let tree = PseudoTree::new(0);
        let mut stats = QueryStats::default();
        let r = subspace_search(
            &ctx,
            &mut scratch,
            &mut store,
            &tree,
            ROOT,
            &mut zero_est,
            None,
            &mut stats,
        );
        let SubspaceSearch::Found(f) = r else {
            panic!("expected Found, got {r:?}")
        };
        let (nodes, length) = found_nodes(&mut scratch, &store, &tree, f, false);
        assert_eq!(nodes, vec![0, 1, 2, 3]);
        assert_eq!(length, 3);
        assert_eq!(f.length, 3);
        assert_eq!(found_suffix(&store, f), vec![(1, 1), (2, 2), (3, 3)]);
        assert_eq!(stats.shortest_path_computations, 1);
    }

    #[test]
    fn testlb_bounded_vs_found_vs_empty() {
        let (g, goal_set) = fixture();
        let ctx = SubspaceCtx {
            g: &g,
            direction: Direction::Forward,
            fanout: &[],
            goal_set: &goal_set,
            goal_count: 1,
            order: SearchOrder::Astar,
            deadline: Deadline::none(),
        };
        let mut scratch = SubspaceScratch::new(4);
        let mut store = PathStore::new();
        let tree = PseudoTree::new(0);
        let mut stats = QueryStats::default();
        let r = subspace_search(
            &ctx,
            &mut scratch,
            &mut store,
            &tree,
            ROOT,
            &mut zero_est,
            Some(2),
            &mut stats,
        );
        assert!(matches!(r, SubspaceSearch::Bounded), "{r:?}");
        let r = subspace_search(
            &ctx,
            &mut scratch,
            &mut store,
            &tree,
            ROOT,
            &mut zero_est,
            Some(3),
            &mut stats,
        );
        assert!(matches!(r, SubspaceSearch::Found(_)), "{r:?}");

        // Unreachable goal set: search a tree rooted at an isolated node.
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1, 1).unwrap(); // keep node 1 non-trivial
        let g2 = b.build();
        let mut goal2 = TimestampedSet::new(2);
        goal2.insert(1);
        let ctx2 = SubspaceCtx {
            g: &g2,
            direction: Direction::Forward,
            fanout: &[],
            goal_set: &goal2,
            goal_count: 1,
            order: SearchOrder::Astar,
            deadline: Deadline::none(),
        };
        let tree2 = PseudoTree::new(0);
        let r = subspace_search(
            &ctx2,
            &mut scratch,
            &mut store,
            &tree2,
            ROOT,
            &mut zero_est,
            Some(100),
            &mut stats,
        );
        assert!(matches!(r, SubspaceSearch::Empty), "{r:?}");
    }

    #[test]
    fn emitted_vertex_suppresses_trivial_path() {
        let (g, mut goal_set) = fixture();
        goal_set.insert(0); // source is also a target
        let ctx = SubspaceCtx {
            g: &g,
            direction: Direction::Forward,
            fanout: &[],
            goal_set: &goal_set,
            goal_count: 2,
            order: SearchOrder::Astar,
            deadline: Deadline::none(),
        };
        let mut scratch = SubspaceScratch::new(4);
        let mut store = PathStore::new();
        let mut tree = PseudoTree::new(0);
        let mut stats = QueryStats::default();
        // First search finds the zero-length trivial path (0).
        let r = subspace_search(
            &ctx,
            &mut scratch,
            &mut store,
            &tree,
            ROOT,
            &mut zero_est,
            None,
            &mut stats,
        );
        let SubspaceSearch::Found(f) = r else {
            panic!("{r:?}")
        };
        let (nodes, length) = found_nodes(&mut scratch, &store, &tree, f, false);
        assert_eq!(nodes, vec![0]);
        assert_eq!(length, 0);
        assert_eq!(f.suffix_len, 0);
        // Divide (marks ROOT emitted) and search again: now the next path.
        divide_subspace(&ctx, &mut scratch, &store, &mut tree, f, &mut stats);
        let r = subspace_search(
            &ctx,
            &mut scratch,
            &mut store,
            &tree,
            ROOT,
            &mut zero_est,
            None,
            &mut stats,
        );
        let SubspaceSearch::Found(f2) = r else {
            panic!("{r:?}")
        };
        let (nodes, _) = found_nodes(&mut scratch, &store, &tree, f2, false);
        assert_eq!(nodes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn virtual_root_fanout_seeds_and_assembly() {
        let (g, goal_set) = fixture();
        let fanout = [0u32, 2];
        let ctx = SubspaceCtx {
            g: &g,
            direction: Direction::Forward,
            fanout: &fanout,
            goal_set: &goal_set,
            goal_count: 1,
            order: SearchOrder::Astar,
            deadline: Deadline::none(),
        };
        let mut scratch = SubspaceScratch::new(4);
        let mut store = PathStore::new();
        let tree = PseudoTree::new(VIRTUAL_NODE);
        let mut stats = QueryStats::default();
        let r = subspace_search(
            &ctx,
            &mut scratch,
            &mut store,
            &tree,
            ROOT,
            &mut zero_est,
            None,
            &mut stats,
        );
        let SubspaceSearch::Found(f) = r else {
            panic!("{r:?}")
        };
        // Nearer source 2 wins: path 2 → 3.
        let (nodes, length) = found_nodes(&mut scratch, &store, &tree, f, false);
        assert_eq!(nodes, vec![2, 3]);
        assert_eq!(length, 1);
        assert_eq!(found_suffix(&store, f), vec![(2, 0), (3, 1)]);
    }

    #[test]
    fn excluded_fanout_is_not_seeded() {
        let (g, goal_set) = fixture();
        let fanout = [0u32, 2];
        let ctx = SubspaceCtx {
            g: &g,
            direction: Direction::Forward,
            fanout: &fanout,
            goal_set: &goal_set,
            goal_count: 1,
            order: SearchOrder::Astar,
            deadline: Deadline::none(),
        };
        let mut scratch = SubspaceScratch::new(4);
        let mut store = PathStore::new();
        let mut tree = PseudoTree::new(VIRTUAL_NODE);
        // Simulate having taken first-hop 2 already.
        let mut affected = Vec::new();
        tree.divide(ROOT, &[(2, 0), (3, 1)], &mut affected);
        let mut stats = QueryStats::default();
        let r = subspace_search(
            &ctx,
            &mut scratch,
            &mut store,
            &tree,
            ROOT,
            &mut zero_est,
            None,
            &mut stats,
        );
        let SubspaceSearch::Found(f) = r else {
            panic!("{r:?}")
        };
        let (nodes, length) = found_nodes(&mut scratch, &store, &tree, f, false);
        assert_eq!(nodes, vec![0, 1, 2, 3]);
        assert_eq!(length, 3);
    }

    #[test]
    fn comp_lb_one_hop_bound_and_trivial() {
        let (g, goal_set) = fixture();
        let ctx = SubspaceCtx {
            g: &g,
            direction: Direction::Forward,
            fanout: &[],
            goal_set: &goal_set,
            goal_count: 1,
            order: SearchOrder::Astar,
            deadline: Deadline::none(),
        };
        let mut scratch = SubspaceScratch::new(4);
        let tree = PseudoTree::new(0);
        let mut stats = QueryStats::default();
        // lb_num = exact remaining distances: lb must equal true sp length.
        let exact = [3u64, 2, 1, 0];
        let lb = comp_lb(
            &ctx,
            &mut scratch,
            &tree,
            ROOT,
            &mut |v| exact[v as usize],
            &mut stats,
        );
        assert_eq!(lb, 3);
        // With zero bounds: one-hop look-ahead gives weight of first edge.
        let lb0 = comp_lb(&ctx, &mut scratch, &tree, ROOT, &mut |_| 0, &mut stats);
        assert_eq!(lb0, 1);

        // Trivial membership: root at a goal node, not yet emitted.
        let tree3 = PseudoTree::new(3);
        let lb3 = comp_lb(&ctx, &mut scratch, &tree3, ROOT, &mut |_| 0, &mut stats);
        assert_eq!(lb3, 0);
    }

    #[test]
    fn reverse_direction_search_reaches_sources() {
        let (g, _) = fixture();
        let mut goal = TimestampedSet::new(4);
        goal.insert(0); // goal side = source {0}
        let fanout = [3u32]; // virtual target fan-out = V_T
        let ctx = SubspaceCtx {
            g: &g,
            direction: Direction::Backward,
            fanout: &fanout,
            goal_set: &goal,
            goal_count: 1,
            order: SearchOrder::Astar,
            deadline: Deadline::none(),
        };
        let mut scratch = SubspaceScratch::new(4);
        let mut store = PathStore::new();
        let tree = PseudoTree::new(VIRTUAL_NODE);
        let mut stats = QueryStats::default();
        let r = subspace_search(
            &ctx,
            &mut scratch,
            &mut store,
            &tree,
            ROOT,
            &mut zero_est,
            None,
            &mut stats,
        );
        let SubspaceSearch::Found(f) = r else {
            panic!("{r:?}")
        };
        // Tree orientation: target-first; flipped on output.
        let (nodes, _) = found_nodes(&mut scratch, &store, &tree, f, false);
        assert_eq!(nodes, vec![3, 2, 1, 0]);
        let (nodes, length) = found_nodes(&mut scratch, &store, &tree, f, true);
        assert_eq!(nodes, vec![0, 1, 2, 3]);
        assert_eq!(length, 3);
    }

    #[test]
    fn divide_subspace_skips_single_goal_terminals() {
        let (g, goal_set) = fixture();
        let ctx = SubspaceCtx {
            g: &g,
            direction: Direction::Forward,
            fanout: &[],
            goal_set: &goal_set,
            goal_count: 1,
            order: SearchOrder::Astar,
            deadline: Deadline::none(),
        };
        let mut scratch = SubspaceScratch::new(4);
        let mut store = PathStore::new();
        let mut tree = PseudoTree::new(0);
        let mut stats = QueryStats::default();
        let r = subspace_search(
            &ctx,
            &mut scratch,
            &mut store,
            &tree,
            ROOT,
            &mut zero_est,
            None,
            &mut stats,
        );
        let SubspaceSearch::Found(f) = r else {
            panic!("{r:?}")
        };
        divide_subspace(&ctx, &mut scratch, &store, &mut tree, f, &mut stats);
        // Path 0-1-2-3 creates vertices for 1,2,3 plus re-queues ROOT; the
        // terminal (emitted, single goal) is skipped → ROOT, v1, v2.
        assert_eq!(scratch.affected.len(), 3);
        assert_eq!(scratch.affected[0], ROOT);
        assert_eq!(stats.subspaces_created, 3);
    }

    #[test]
    fn emission_after_division_from_interior_vertex() {
        // Regression for the divide-before-emit ordering: emission reads
        // the tree prefix after divide has appended new vertices.
        let (g, goal_set) = fixture();
        let ctx = SubspaceCtx {
            g: &g,
            direction: Direction::Forward,
            fanout: &[],
            goal_set: &goal_set,
            goal_count: 1,
            order: SearchOrder::Astar,
            deadline: Deadline::none(),
        };
        let mut scratch = SubspaceScratch::new(4);
        let mut store = PathStore::new();
        let mut tree = PseudoTree::new(0);
        let mut stats = QueryStats::default();
        let r = subspace_search(
            &ctx,
            &mut scratch,
            &mut store,
            &tree,
            ROOT,
            &mut zero_est,
            None,
            &mut stats,
        );
        let SubspaceSearch::Found(f) = r else {
            panic!("{r:?}")
        };
        divide_subspace(&ctx, &mut scratch, &store, &mut tree, f, &mut stats);
        let (nodes, length) = found_nodes(&mut scratch, &store, &tree, f, false);
        assert_eq!(nodes, vec![0, 1, 2, 3]);
        assert_eq!(length, 3);
    }
}
