//! The two search paradigms on top of the subspace machinery:
//!
//! * [`run_best_first`] — Alg. 2: subspaces are enqueued with cheap lower
//!   bounds (`CompLB`) and their shortest paths are computed lazily, only
//!   when a subspace reaches the front of the queue.
//! * [`run_iter_bound`] — Alg. 4: like BestFirst, but a popped unsolved
//!   subspace is first probed with `TestLB` under an iteratively enlarged
//!   threshold τ (`τ' = max(⌈α·base⌉, base+1)` with
//!   `base = max(lb(S), Q.top().key)`), so full shortest-path searches are
//!   replaced by cheap bounded probes wherever possible. One deviation
//!   from the paper (DESIGN.md): when the oracle's bounds have grown since
//!   the subspace was keyed — `SPT_I` only — its `CompLB` is recomputed
//!   before the probe, and a risen bound sends it back to the queue
//!   unprobed.
//!
//! Both are generic over a [`SubspaceOracle`], which supplies the numeric
//! one-hop bounds for `CompLB`, the per-node [`Estimate`]s for the
//! searches, and — for the `SPT_I` approach — the hook that grows the
//! incremental SPT to τ before each probe. This is how `BestFirst`,
//! `IterBound`, `IterBound-SPT_P`, `IterBound-SPT_I` and all their
//! no-landmark variants share one implementation each.
//!
//! The subspace queue holds [`QueueEntry`] triples — Copy arena handles,
//! not node vectors — and is pooled on the engine scratch, so the
//! paradigm loops allocate nothing at steady state.

use kpj_graph::{Length, NodeId, PathStore, INFINITE_LENGTH};
use kpj_heap::MinHeap;
use kpj_obs::Stage;
use kpj_sp::Estimate;

use crate::pseudo_tree::{PseudoTree, VertexId, ROOT};
use crate::search_core::{
    comp_lb, divide_subspace, emit_found, subspace_search, FoundPath, PathSink, QueueEntry,
    SubspaceCtx, SubspaceScratch, SubspaceSearch,
};
use crate::stats::QueryStats;

/// Bound provider driving the paradigm loops (see module docs).
pub(crate) trait SubspaceOracle {
    /// Numeric lower bound used by `CompLB` one-hop look-ahead: a lower
    /// bound on the remaining distance from `v` to the goal side.
    fn lb_num(&self, v: NodeId) -> Length;
    /// Admissibility / heuristic verdict for the subspace searches.
    fn estimate(&self, v: NodeId) -> Estimate;
    /// Grow incremental structures so that every path of length ≤ `tau` is
    /// covered (no-op except for `SPT_I`).
    fn prepare_tau(&mut self, _tau: Length, _stats: &mut QueryStats) {}
    /// A stamp that changes whenever [`lb_num`](Self::lb_num) may have
    /// risen: a `CompLB` computed at an older generation can be re-keyed
    /// tighter. Constant (0) for oracles whose bounds never change.
    fn generation(&self) -> u32 {
        0
    }
    /// Size of the oracle's SPT, for [`QueryStats::spt_nodes`].
    fn spt_nodes(&self) -> usize {
        0
    }
}

/// The paper's landmark-only oracle (`BestFirst`, `IterBound`): Eq. (2)
/// bounds (or zero without landmarks).
pub(crate) struct PlainOracle<F: Fn(NodeId) -> Length> {
    pub lb: F,
}

impl<F: Fn(NodeId) -> Length> SubspaceOracle for PlainOracle<F> {
    #[inline]
    fn lb_num(&self, v: NodeId) -> Length {
        (self.lb)(v)
    }
    #[inline]
    fn estimate(&self, v: NodeId) -> Estimate {
        match (self.lb)(v) {
            INFINITE_LENGTH => Estimate::Unreachable,
            h => Estimate::Bound(h),
        }
    }
}

/// Search the subspace at `vertex` once (`bound = None` for the
/// best-first paradigm's unbounded `CompSP`, `Some(τ)` for iter-bound's
/// `TestLB` probe) and push the outcome back. Returns `true` if the search
/// aborted on the deadline (the caller stops).
#[allow(clippy::too_many_arguments)]
fn search_and_push<O: SubspaceOracle>(
    ctx: &SubspaceCtx<'_>,
    scratch: &mut SubspaceScratch,
    store: &mut PathStore,
    tree: &PseudoTree,
    oracle: &O,
    vertex: VertexId,
    bound: Option<Length>,
    q: &mut MinHeap<Length, QueueEntry>,
    stats: &mut QueryStats,
) -> bool {
    match subspace_search(
        ctx,
        scratch,
        store,
        tree,
        vertex,
        &mut |v| oracle.estimate(v),
        bound,
        stats,
    ) {
        SubspaceSearch::Found(f) => q.push(f.length, (vertex, Some(f), oracle.generation())),
        SubspaceSearch::Bounded => {
            q.push(
                bound.expect("bounded outcome implies a bound"),
                (vertex, None, oracle.generation()),
            );
        }
        SubspaceSearch::Empty => {}
        SubspaceSearch::Aborted => return true,
    }
    false
}

/// Alg. 2. Streams paths into `sink` in non-decreasing length order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_best_first<O: SubspaceOracle>(
    ctx: &SubspaceCtx<'_>,
    scratch: &mut SubspaceScratch,
    store: &mut PathStore,
    tree: &mut PseudoTree,
    oracle: &mut O,
    sink: &mut dyn PathSink,
    reverse_output: bool,
    stats: &mut QueryStats,
) {
    let mut q = std::mem::take(&mut scratch.para_heap);
    q.clear();
    let lb0 = comp_lb(ctx, scratch, tree, ROOT, &mut |v| oracle.lb_num(v), stats);
    if lb0 != INFINITE_LENGTH {
        q.push(lb0, (ROOT, None, oracle.generation()));
    }
    let mut more = true;
    while more {
        if ctx.deadline.expired() {
            break;
        }
        let Some((_, (vertex, payload, _))) = q.pop() else {
            break;
        };
        stats.heap_pops += 1;
        match payload {
            Some(found) => {
                more = emit(
                    ctx,
                    scratch,
                    store,
                    tree,
                    oracle,
                    found,
                    &mut q,
                    sink,
                    reverse_output,
                    stats,
                );
            }
            // An unsolved subspace at the front: one CompSP, its shortest
            // path goes back into the queue.
            None => {
                if search_and_push(
                    ctx, scratch, store, tree, &*oracle, vertex, None, &mut q, stats,
                ) {
                    break;
                }
            }
        }
    }
    scratch.para_heap = q;
    stats.spt_nodes = stats.spt_nodes.max(oracle.spt_nodes());
}

/// Alg. 4. `init` is the query's first shortest path when the caller
/// already computed it as a by-product (`SPT_P`/`SPT_I` construction);
/// otherwise it is computed here with an unbounded subspace search.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_iter_bound<O: SubspaceOracle>(
    ctx: &SubspaceCtx<'_>,
    scratch: &mut SubspaceScratch,
    store: &mut PathStore,
    tree: &mut PseudoTree,
    oracle: &mut O,
    sink: &mut dyn PathSink,
    alpha: f64,
    init: Option<FoundPath>,
    reverse_output: bool,
    stats: &mut QueryStats,
) {
    debug_assert!(alpha > 1.0, "α must exceed 1 (got {alpha})");
    let init = init.or_else(|| {
        match subspace_search(
            ctx,
            scratch,
            store,
            tree,
            ROOT,
            &mut |v| oracle.estimate(v),
            None,
            stats,
        ) {
            SubspaceSearch::Found(f) => Some(f),
            _ => None,
        }
    });
    let Some(first) = init else {
        stats.spt_nodes = stats.spt_nodes.max(oracle.spt_nodes());
        return;
    };
    let mut q = std::mem::take(&mut scratch.para_heap);
    q.clear();
    q.push(first.length, (ROOT, Some(first), oracle.generation()));

    let mut more = true;
    while more {
        if ctx.deadline.expired() {
            break;
        }
        let Some((key, (vertex, payload, keyed_at))) = q.pop() else {
            break;
        };
        stats.heap_pops += 1;
        match payload {
            Some(found) => {
                more = emit(
                    ctx,
                    scratch,
                    store,
                    tree,
                    oracle,
                    found,
                    &mut q,
                    sink,
                    reverse_output,
                    stats,
                );
            }
            None => {
                // Line 9: enlarge τ from the subspace's own bound and the
                // best other bound in the queue.
                let tau = next_tau(key.max(q.peek_key().unwrap_or(key)), alpha);
                stats.tau_updates += 1;
                stats.final_tau = stats.final_tau.max(tau);
                // `prepare_tau` is where SPT_I regrows its tree — SPT
                // build time, not search time.
                let tick = scratch.trace.start();
                oracle.prepare_tau(tau, stats);
                scratch.trace.record(Stage::SptBuild, tick);
                // Re-key (not in Alg. 4): a key computed before the
                // oracle's bounds last grew may be loose — under SPT_I,
                // Alg. 8 line 5–6 keys most deviations of the first
                // division on the landmark bound lb(s, x), which the
                // exact d_s(x) of the grown tree dominates. The new bound
                // is still a lower bound on the subspace, and keys only
                // rise, so the loop still terminates.
                let generation = oracle.generation();
                if keyed_at != generation {
                    let lb = comp_lb(ctx, scratch, tree, vertex, &mut |x| oracle.lb_num(x), stats);
                    if lb == INFINITE_LENGTH {
                        stats.subspaces_skipped += 1;
                        continue;
                    }
                    if lb > key {
                        q.push(lb, (vertex, None, generation));
                        continue;
                    }
                }
                // One TestLB probe under τ.
                if search_and_push(
                    ctx,
                    scratch,
                    store,
                    tree,
                    &*oracle,
                    vertex,
                    Some(tau),
                    &mut q,
                    stats,
                ) {
                    break;
                }
            }
        }
    }
    scratch.para_heap = q;
    stats.spt_nodes = stats.spt_nodes.max(oracle.spt_nodes());
}

/// τ' = max(⌈α·base⌉, base+1): the paper's geometric growth, made strictly
/// increasing under integer lengths. (`f64` rounding is harmless: any
/// τ' > base preserves correctness, and real lengths stay far below 2^53.)
pub(crate) fn next_tau(base: Length, alpha: f64) -> Length {
    let scaled = (base as f64 * alpha).ceil() as Length;
    scaled.max(base.saturating_add(1))
}

/// Shared emission step: divide the subspace, lower-bound and enqueue the
/// affected subspaces (Alg. 2 lines 6–10), then deliver the path. Returns
/// the sink's continue/stop verdict.
#[allow(clippy::too_many_arguments)]
fn emit<O: SubspaceOracle>(
    ctx: &SubspaceCtx<'_>,
    scratch: &mut SubspaceScratch,
    store: &mut PathStore,
    tree: &mut PseudoTree,
    oracle: &mut O,
    found: FoundPath,
    q: &mut MinHeap<Length, QueueEntry>,
    sink: &mut dyn PathSink,
    reverse_output: bool,
    stats: &mut QueryStats,
) -> bool {
    let tick = scratch.trace.start();
    let emitted_len = found.length;
    divide_subspace(ctx, scratch, store, tree, found, stats);
    let affected = std::mem::take(&mut scratch.affected);
    for &v in &affected {
        let lb = comp_lb(ctx, scratch, tree, v, &mut |x| oracle.lb_num(x), stats);
        if lb != INFINITE_LENGTH {
            // Line 9 of Alg. 2: no path in a sub-subspace can be shorter
            // than the path just removed from it.
            q.push(lb.max(emitted_len), (v, None, oracle.generation()));
        } else {
            // A provably empty sub-subspace never enters the queue.
            stats.subspaces_skipped += 1;
        }
    }
    scratch.affected = affected;
    let more = emit_found(scratch, store, tree, found, reverse_output, sink);
    scratch.trace.record(Stage::DeviationRound, tick);
    more
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_tau_grows_strictly_and_geometrically() {
        assert_eq!(next_tau(0, 1.1), 1);
        assert_eq!(next_tau(10, 1.1), 11);
        // f64 rounding may land on either side of the exact product; any
        // value ≥ ⌈α·base⌉ − 1 and > base preserves correctness.
        let t = next_tau(100, 1.1);
        assert!((110..=111).contains(&t), "{t}");
        let t = next_tau(100, 1.5);
        assert!((150..=151).contains(&t), "{t}");
        assert!(next_tau(Length::MAX - 1, 1.1) >= Length::MAX - 1);
    }

    /// Alg. 2 and Alg. 4 search a subspace only when it reaches the
    /// front of the queue. A chain 0→1→2→3→4 (unit arcs) with one detour
    /// i→(5+i)→4 per chain node, priced so that deviating at i costs 8, 7,
    /// 6 and 5 in total: under an exact target row every `CompLB` is the
    /// subspace's true shortest length, so the top-2 `[4, 5]` needs the
    /// initial search plus one search of the deviation at 3 — the three
    /// dearer deviations stay unsearched in the queue.
    #[test]
    fn loops_search_only_the_popped_subspace() {
        use crate::{Algorithm, QueryEngine};
        use kpj_graph::GraphBuilder;
        use kpj_landmark::TargetRow;
        use std::sync::Arc;

        let mut b = GraphBuilder::new(9);
        for i in 0..4u32 {
            b.add_edge(i, i + 1, 1).unwrap();
            b.add_edge(i, 5 + i, 1).unwrap();
            b.add_edge(5 + i, 4, 7 - 2 * i).unwrap();
        }
        let g = b.build();
        let row = Arc::new(TargetRow::build(&g, &[4]));
        let mut engine = QueryEngine::new(&g).with_target_row(row);

        let r = engine.query(Algorithm::BestFirst, 0, &[4], 2).unwrap();
        assert_eq!(r.paths.lengths(), [4, 5]);
        assert_eq!(r.stats.target_row, 1);
        assert_eq!(r.stats.shortest_path_computations, 2, "{:?}", r.stats);

        let r = engine.query(Algorithm::IterBound, 0, &[4], 2).unwrap();
        assert_eq!(r.paths.lengths(), [4, 5]);
        assert_eq!(r.stats.testlb_calls, 1, "{:?}", r.stats);
    }

    /// IterBound-SPT_I re-keys a subspace against the grown `SPT_I`
    /// before probing it. A chain 0→1→2→3→4 (arcs of 25) with one detour
    /// 0→(5+i)→(i+1) per chain arc, priced so that deviating into node
    /// i+1 costs 104, 103, 102 and 101 in total. `SPT_I`'s initial A\*
    /// stops on the length-100 chain, so the first division keys all four
    /// deviations on the zero source bound of the unsettled detour nodes:
    /// 100 each, after the Alg. 2 line 9 clamp. The first pop grows
    /// `SPT_I` to τ = 110, which settles every detour node; re-keyed on
    /// exact `d_s`, each deviation goes back at its true length unprobed,
    /// and the top-2 `[100, 101]` costs one TestLB probe. Probing on the
    /// first-division keys, as Alg. 4 does, costs four: every deviation
    /// is probed once at key 100.
    #[test]
    fn spti_rekeys_loose_subspaces_instead_of_probing_them() {
        use crate::{Algorithm, QueryEngine};
        use kpj_graph::GraphBuilder;
        use kpj_landmark::TargetRow;
        use std::sync::Arc;

        let mut b = GraphBuilder::new(9);
        for i in 0..4u32 {
            b.add_edge(i, i + 1, 25).unwrap();
            b.add_edge(0, 5 + i, 28 + 24 * i).unwrap();
            b.add_edge(5 + i, i + 1, 1).unwrap();
        }
        let g = b.build();
        let row = Arc::new(TargetRow::build(&g, &[4]));
        let mut engine = QueryEngine::new(&g).with_target_row(row);

        let r = engine.query(Algorithm::IterBoundI, 0, &[4], 2).unwrap();
        assert_eq!(r.paths.lengths(), [100, 101]);
        assert_eq!(r.stats.target_row, 1);
        assert_eq!(r.stats.testlb_calls, 1, "{:?}", r.stats);

        // Every path, each deviation probed exactly once.
        let r = engine.query(Algorithm::IterBoundI, 0, &[4], 5).unwrap();
        assert_eq!(r.paths.lengths(), [100, 101, 102, 103, 104]);
        assert_eq!(r.stats.testlb_calls, 4, "{:?}", r.stats);
        assert_eq!(r.stats.testlb_bounded, 0, "{:?}", r.stats);
    }
}
