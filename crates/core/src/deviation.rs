//! The deviation-paradigm baselines (§3): `DA` (Alg. 1, Yen's paradigm
//! [28] applied to the virtual-target reduction of [15]) and `DA-SPT`
//! (the state of the art for KSP [14, 15, 24], which builds a full reverse
//! shortest-path tree online and uses it both as an exact A\* potential and
//! for the Pascoal/Gao "concatenate-with-SPT-tail" early termination).
//!
//! Both maintain, for *every* pseudo-tree vertex, its candidate path — the
//! shortest path in the vertex's subspace — eagerly (Lemma 3.1). That is
//! exactly the `O(k·n)` shortest-path computations the best-first paradigm
//! avoids, and the reason these serve as the paper's baselines.
//!
//! Candidates are Copy [`FoundPath`] arena handles; the candidate heap
//! holds handles, not node vectors, so maintaining `O(k·n)` eager
//! candidates costs no per-candidate allocation.

use kpj_graph::scratch::{TimestampedMap, TimestampedSet};
use kpj_graph::{Length, NodeId, PathId, PathStore, INFINITE_LENGTH};
use kpj_heap::IndexedMinHeap;
use kpj_obs::Stage;
use kpj_sp::{DenseDijkstra, Estimate, NO_PARENT};

use crate::pseudo_tree::{PseudoTree, VertexId, ROOT, VIRTUAL_NODE};
use crate::search_core::{
    divide_subspace, emit_found, subspace_search, FoundPath, PathSink, SubspaceCtx,
    SubspaceScratch, SubspaceSearch,
};
use crate::stats::QueryStats;

/// Which deviation baseline to run.
#[derive(Clone, Copy)]
pub(crate) enum DeviationMode<'a> {
    /// `DA` [28, 15]: plain constrained Dijkstra per candidate.
    Plain,
    /// Pascoal's optimization [24]: try the single best one-hop splice
    /// onto the full reverse SPT; if the spliced path is simple it is the
    /// candidate in `O(path)` time, otherwise fall back to a full
    /// constrained (SPT-guided) shortest-path computation.
    Pascoal(&'a DenseDijkstra),
    /// Gao et al.'s improvement [14, 15] (`DA-SPT`, the state of the art):
    /// run the constrained A\* and test the splice at *every* settled
    /// node, stopping at the first simple completion.
    Gao(&'a DenseDijkstra),
}

impl<'a> DeviationMode<'a> {
    fn spt(&self) -> Option<&'a DenseDijkstra> {
        match *self {
            DeviationMode::Plain => None,
            DeviationMode::Pascoal(s) | DeviationMode::Gao(s) => Some(s),
        }
    }
}

/// Scratch for the `DA-SPT` candidate search (engine-owned).
#[derive(Debug)]
pub(crate) struct CandidateScratch {
    heap: IndexedMinHeap<Length>,
    dist: TimestampedMap<Length>,
    parent: TimestampedMap<NodeId>,
    settled: TimestampedSet,
    /// Marks the search chain during tail-simplicity tests.
    chain_mark: TimestampedSet,
}

impl CandidateScratch {
    pub(crate) fn new(n: usize) -> Self {
        CandidateScratch {
            heap: IndexedMinHeap::new(n),
            dist: TimestampedMap::new(n, INFINITE_LENGTH),
            parent: TimestampedMap::new(n, NO_PARENT),
            settled: TimestampedSet::new(n),
            chain_mark: TimestampedSet::new(n),
        }
    }
}

/// Run `DA` (`spt = None`) or `DA-SPT` (`spt = Some(full reverse SPT)`).
///
/// The full reverse SPT for `DA-SPT` is built by the engine (reusing its
/// pooled [`DenseDijkstra`]) — the paper's "full SPT built online", whose
/// construction cost dominates exactly when the k paths are short.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_deviation(
    ctx: &SubspaceCtx<'_>,
    scratch: &mut SubspaceScratch,
    cand: &mut CandidateScratch,
    store: &mut PathStore,
    tree: &mut PseudoTree,
    mode: DeviationMode<'_>,
    sink: &mut dyn PathSink,
    stats: &mut QueryStats,
) {
    let mut c = std::mem::take(&mut scratch.dev_heap);
    c.clear();
    if let Some(f) = candidate(ctx, scratch, cand, store, tree, mode, ROOT, stats) {
        c.push(f.length, f);
    }
    let mut more = true;
    while more {
        if ctx.deadline.expired() {
            break;
        }
        let Some((_, found)) = c.pop() else { break };
        stats.heap_pops += 1;
        let tick = scratch.trace.start();
        divide_subspace(ctx, scratch, store, tree, found, stats);
        more = emit_found(scratch, store, tree, found, false, sink);
        // Alg. 1 line 6: recompute/compute candidates for every vertex of
        // the chosen path from the deviation vertex to the destination.
        // (Even when the sink stops us, the divide above has already
        // happened; skipping the candidate recomputation is safe because
        // the loop exits.)
        if more {
            let affected = std::mem::take(&mut scratch.affected);
            for &v in &affected {
                if let Some(f) = candidate(ctx, scratch, cand, store, tree, mode, v, stats) {
                    c.push(f.length, f);
                }
            }
            scratch.affected = affected;
        }
        scratch.trace.record(Stage::DeviationRound, tick);
    }
    scratch.dev_heap = c;
    if let Some(spt) = mode.spt() {
        let reached = spt
            .dist_slice()
            .iter()
            .filter(|&&d| d != INFINITE_LENGTH)
            .count();
        stats.spt_nodes = stats.spt_nodes.max(reached);
    }
}

/// Compute `c(u)`: the shortest path in the subspace at `vertex`.
#[allow(clippy::too_many_arguments)]
fn candidate(
    ctx: &SubspaceCtx<'_>,
    scratch: &mut SubspaceScratch,
    cand: &mut CandidateScratch,
    store: &mut PathStore,
    tree: &PseudoTree,
    mode: DeviationMode<'_>,
    vertex: VertexId,
    stats: &mut QueryStats,
) -> Option<FoundPath> {
    match mode {
        DeviationMode::Plain => {
            // Plain constrained Dijkstra (DA computes candidates "by
            // traversing the graph exhaustively").
            match subspace_search(
                ctx,
                scratch,
                store,
                tree,
                vertex,
                &mut |_| Estimate::Bound(0),
                None,
                stats,
            ) {
                SubspaceSearch::Found(f) => Some(f),
                _ => None,
            }
        }
        DeviationMode::Pascoal(spt) => candidate_with_spt(
            ctx, scratch, cand, store, tree, spt, vertex, /*lazy=*/ false, stats,
        ),
        DeviationMode::Gao(spt) => candidate_with_spt(
            ctx, scratch, cand, store, tree, spt, vertex, /*lazy=*/ true, stats,
        ),
    }
}

/// The SPT-guided candidate search: constrained A\* from the vertex using
/// the exact SPT distances `δ(v, V_T)` as potential, settling nodes in
/// order of total completed length.
///
/// With `lazy_test = true` (Gao et al. — `DA-SPT`) the SPT-tail splice is
/// tested at *every* settled node and the search stops at the first simple
/// completion. With `lazy_test = false` (Pascoal) only the seed's splice
/// is tested in `O(1)`-ish; on failure the search degenerates to a full
/// constrained computation that terminates at a settled destination.
#[allow(clippy::too_many_arguments)]
fn candidate_with_spt(
    ctx: &SubspaceCtx<'_>,
    scratch: &mut SubspaceScratch,
    cand: &mut CandidateScratch,
    store: &mut PathStore,
    tree: &PseudoTree,
    spt: &DenseDijkstra,
    vertex: VertexId,
    lazy_test: bool,
    stats: &mut QueryStats,
) -> Option<FoundPath> {
    stats.shortest_path_computations += 1;
    scratch.prefix_set.clear();
    for n in tree.prefix_nodes(vertex) {
        scratch.prefix_set.insert(n as usize);
    }
    let u = tree.node(vertex);
    let plen = tree.prefix_len(vertex);
    let allow_trivial = !tree.emitted(vertex);

    cand.heap.clear();
    cand.dist.reset();
    cand.parent.reset();
    cand.settled.clear();

    // Seed exactly like `subspace_search`.
    if u == VIRTUAL_NODE {
        for &f in ctx.fanout {
            if !tree.is_excluded(vertex, f) && spt.reached(f) {
                cand.dist.set(f as usize, 0);
                cand.heap.push_or_decrease(f as usize, spt.dist(f));
            }
        }
    } else if spt.reached(u) {
        cand.dist.set(u as usize, plen);
        cand.heap
            .push_or_decrease(u as usize, plen.saturating_add(spt.dist(u)));
    }

    let mut settled_count = 0usize;
    let mut relaxed = 0usize;
    let mut first_pop = true;
    let result = loop {
        let Some((vu, _)) = cand.heap.pop() else {
            break None;
        };
        let v = vu as NodeId;
        cand.settled.insert(vu);
        settled_count += 1;
        if settled_count.is_multiple_of(kpj_sp::CANCEL_POLL_STRIDE) && ctx.deadline.expired() {
            break None;
        }
        let dv = cand.dist.get(vu);

        // Splice test: Gao tests every settled node; Pascoal only the
        // first pop(s) (the seeds — after that the splice test is off and
        // the search runs to a settled destination). A tail starting at
        // the subspace vertex itself must respect the excluded set X_u.
        let test_splice = lazy_test || first_pop;
        first_pop = false;
        if test_splice {
            if let Some(tail_len) = tail_len_if_simple(scratch, cand, spt, v) {
                let uses_excluded =
                    v == u && tail_len >= 2 && tree.is_excluded(vertex, spt.parent(v));
                let trivial = v == u && tail_len == 1 && dv == plen;
                if !uses_excluded && (!trivial || allow_trivial) {
                    break Some(assemble_with_tail(
                        scratch, cand, store, tree, spt, vertex, v, dv, tail_len,
                    ));
                }
            }
        } else if ctx.goal_set.contains(vu) && (v != u || allow_trivial) {
            // Pascoal fallback: plain goal test at settled destinations.
            break Some(assemble_with_tail(
                scratch, cand, store, tree, spt, vertex, v, dv, 1,
            ));
        }

        // Relax constrained out-edges (forward mode only — the deviation
        // baselines never run on the reverse graph).
        for e in ctx.g.out_edges(v) {
            relaxed += 1;
            let w = e.to as usize;
            if cand.settled.contains(w)
                || scratch.prefix_set.contains(w)
                || (v == u && tree.is_excluded(vertex, e.to))
                || !spt.reached(e.to)
            {
                continue;
            }
            let nd = dv.saturating_add(e.weight as Length);
            if nd < cand.dist.get(w) {
                cand.dist.set(w, nd);
                cand.parent.set(w, v);
                cand.heap
                    .push_or_decrease(w, nd.saturating_add(spt.dist(e.to)));
            }
        }
    };
    stats.nodes_settled += settled_count;
    stats.edges_relaxed += relaxed;
    stats.heap_pops += settled_count;
    if result.is_none() {
        // Heap exhausted (or deadline): the subspace holds no simple path,
        // so it is dropped without ever entering the candidate queue.
        stats.subspaces_skipped += 1;
    }
    result
}

/// If the SPT tail of `v` (its shortest path to `V_T`) is node-disjoint
/// from the current search chain and subspace prefix, return its node
/// count (including `v` itself).
fn tail_len_if_simple(
    scratch: &SubspaceScratch,
    cand: &mut CandidateScratch,
    spt: &DenseDijkstra,
    v: NodeId,
) -> Option<usize> {
    debug_assert!(spt.reached(v));
    // Mark the chain v → … → seed.
    cand.chain_mark.clear();
    let mut cur = v;
    loop {
        cand.chain_mark.insert(cur as usize);
        let p = cand.parent.get(cur as usize);
        if p == NO_PARENT {
            break;
        }
        cur = p;
    }
    // Walk the SPT tail, rejecting any overlap beyond v itself.
    let mut len = 1;
    let mut cur = v;
    loop {
        let p = spt.parent(cur);
        if p == NO_PARENT {
            break;
        }
        if cand.chain_mark.contains(p as usize) || scratch.prefix_set.contains(p as usize) {
            return None;
        }
        len += 1;
        cur = p;
    }
    Some(len)
}

/// Push chain(seed → v) + SPT tail(v → V_T) into the arena and return the
/// [`FoundPath`] handle. `tail_len` counts the tail nodes including `v`.
#[allow(clippy::too_many_arguments)]
fn assemble_with_tail(
    scratch: &mut SubspaceScratch,
    cand: &CandidateScratch,
    store: &mut PathStore,
    tree: &PseudoTree,
    spt: &DenseDijkstra,
    vertex: VertexId,
    v: NodeId,
    dv: Length,
    tail_len: usize,
) -> FoundPath {
    let u = tree.node(vertex);
    let total = dv.saturating_add(spt.dist(v));

    // chain_buf: v → … → seed; pushed into the arena seed-first.
    scratch.chain_buf.clear();
    scratch.chain_buf.push(v);
    let mut cur = v;
    while cand.parent.get(cur as usize) != NO_PARENT {
        cur = cand.parent.get(cur as usize);
        scratch.chain_buf.push(cur);
    }
    let chain_len = scratch.chain_buf.len();
    let mut id: Option<PathId> = None;
    for &x in scratch.chain_buf.iter().rev() {
        id = Some(store.push(id, x, cand.dist.get(x as usize)));
    }
    // SPT tail after v, cumulative lengths measured from the path start.
    let mut cur = v;
    for _ in 1..tail_len {
        cur = spt.parent(cur);
        id = Some(store.push(id, cur, total - spt.dist(cur)));
    }

    let skip = usize::from(u != VIRTUAL_NODE);
    FoundPath {
        tail: id.expect("chain has at least one node"),
        length: total,
        vertex,
        suffix_len: (chain_len - skip + tail_len - 1) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_graph::{Graph, GraphBuilder, PathSet};

    /// Diamond with a detour: paths 0→1→3 (3), 0→2→3 (7), 0→1→2→3 (8).
    fn fixture() -> (Graph, TimestampedSet) {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 3, 2).unwrap();
        b.add_edge(0, 2, 3).unwrap();
        b.add_edge(2, 3, 4).unwrap();
        b.add_edge(1, 2, 3).unwrap();
        let g = b.build();
        let mut ts = TimestampedSet::new(4);
        ts.insert(3);
        (g, ts)
    }

    fn run(spt_mode: bool, k: usize) -> PathSet {
        let (g, ts) = fixture();
        let ctx = SubspaceCtx {
            g: &g,
            direction: kpj_sp::Direction::Forward,
            fanout: &[],
            goal_set: &ts,
            goal_count: 1,
            order: kpj_sp::SearchOrder::Astar,
            deadline: crate::deadline::Deadline::none(),
        };
        let mut scratch = SubspaceScratch::new(4);
        let mut cand = CandidateScratch::new(4);
        let mut store = PathStore::new();
        let mut tree = PseudoTree::new(0);
        let mut stats = QueryStats::default();
        let spt = spt_mode.then(|| DenseDijkstra::to_targets(&g, &[3]));
        let mode = match &spt {
            None => DeviationMode::Plain,
            Some(s) => DeviationMode::Gao(s),
        };
        let mut out = PathSet::new();
        let mut sink = crate::search_core::CollectSink { out: &mut out, k };
        run_deviation(
            &ctx,
            &mut scratch,
            &mut cand,
            &mut store,
            &mut tree,
            mode,
            &mut sink,
            &mut stats,
        );
        out
    }

    #[test]
    fn da_enumerates_in_order() {
        let paths = run(false, 5);
        assert_eq!(paths.lengths(), vec![3, 7, 8]);
        assert_eq!(paths.path(0).nodes, [0, 1, 3]);
        assert_eq!(paths.path(2).nodes, [0, 1, 2, 3]);
    }

    #[test]
    fn da_spt_matches_da() {
        let a = run(false, 5);
        let b = run(true, 5);
        assert_eq!(a.lengths(), b.lengths());
        assert_eq!(a.len(), b.len());
        for p in &b {
            assert!(p.is_simple());
        }
    }

    #[test]
    fn da_spt_tail_rejection_forces_detour() {
        // Graph where the SPT tail of an early settled node collides with
        // the prefix, forcing the candidate search deeper:
        // 0→1→2→3 plus 1→4→2 detour; target {3}; after the first path
        // 0-1-2-3 is chosen, the subspace at vertex 1 excludes edge (1,2);
        // its candidate must be 0-1-4-2-3 even though the SPT tail of 4
        // goes through 2 (which is fine) — while the tail of 1 (1→2→3)
        // is excluded.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        b.add_edge(1, 4, 5).unwrap();
        b.add_edge(4, 2, 5).unwrap();
        let g = b.build();
        let mut ts = TimestampedSet::new(5);
        ts.insert(3);
        let ctx = SubspaceCtx {
            g: &g,
            direction: kpj_sp::Direction::Forward,
            fanout: &[],
            goal_set: &ts,
            goal_count: 1,
            order: kpj_sp::SearchOrder::Astar,
            deadline: crate::deadline::Deadline::none(),
        };
        let mut scratch = SubspaceScratch::new(5);
        let mut cand = CandidateScratch::new(5);
        let mut store = PathStore::new();
        let mut tree = PseudoTree::new(0);
        let mut stats = QueryStats::default();
        let spt = DenseDijkstra::to_targets(&g, &[3]);
        let mut out = PathSet::new();
        let mut sink = crate::search_core::CollectSink {
            out: &mut out,
            k: 3,
        };
        run_deviation(
            &ctx,
            &mut scratch,
            &mut cand,
            &mut store,
            &mut tree,
            DeviationMode::Gao(&spt),
            &mut sink,
            &mut stats,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out.path(0).nodes, [0, 1, 2, 3]);
        assert_eq!(out.path(1).nodes, [0, 1, 4, 2, 3]);
        assert_eq!(out.path(1).length, 12);
    }

    #[test]
    fn pascoal_agrees_with_gao() {
        let (g, ts) = fixture();
        let ctx = SubspaceCtx {
            g: &g,
            direction: kpj_sp::Direction::Forward,
            fanout: &[],
            goal_set: &ts,
            goal_count: 1,
            order: kpj_sp::SearchOrder::Astar,
            deadline: crate::deadline::Deadline::none(),
        };
        let spt = DenseDijkstra::to_targets(&g, &[3]);
        let mut lens = Vec::new();
        for mode in [DeviationMode::Pascoal(&spt), DeviationMode::Gao(&spt)] {
            let mut scratch = SubspaceScratch::new(4);
            let mut cand = CandidateScratch::new(4);
            let mut store = PathStore::new();
            let mut tree = PseudoTree::new(0);
            let mut stats = QueryStats::default();
            let mut out = PathSet::new();
            let mut sink = crate::search_core::CollectSink {
                out: &mut out,
                k: 5,
            };
            run_deviation(
                &ctx,
                &mut scratch,
                &mut cand,
                &mut store,
                &mut tree,
                mode,
                &mut sink,
                &mut stats,
            );
            lens.push(out.lengths());
        }
        assert_eq!(lens[0], lens[1]);
        assert_eq!(lens[0], vec![3, 7, 8]);
    }

    #[test]
    fn stats_reflect_deviation_eagerness() {
        let (g, ts) = fixture();
        let ctx = SubspaceCtx {
            g: &g,
            direction: kpj_sp::Direction::Forward,
            fanout: &[],
            goal_set: &ts,
            goal_count: 1,
            order: kpj_sp::SearchOrder::Astar,
            deadline: crate::deadline::Deadline::none(),
        };
        let mut scratch = SubspaceScratch::new(4);
        let mut cand = CandidateScratch::new(4);
        let mut store = PathStore::new();
        let mut tree = PseudoTree::new(0);
        let mut stats = QueryStats::default();
        let mut out = PathSet::new();
        let mut sink = crate::search_core::CollectSink {
            out: &mut out,
            k: 2,
        };
        run_deviation(
            &ctx,
            &mut scratch,
            &mut cand,
            &mut store,
            &mut tree,
            DeviationMode::Plain,
            &mut sink,
            &mut stats,
        );
        // DA computes a candidate for every subspace it creates.
        assert!(stats.shortest_path_computations >= 3);
    }
}
