//! The `Sidetrack` engine (beyond the paper): Kurz–Mutzel-style
//! sidetrack-edge enumeration (arXiv:1601.02867) adapted to the KPJ
//! subspace framework.
//!
//! # Idea
//!
//! Eppstein-family KSSP algorithms observe that any `s → V_T` path is the
//! shortest-path tree walk plus a sequence of *sidetrack edges* — edges
//! `(u, v)` that leave the reverse shortest-path tree. The deviation
//! baselines (`DA`, `DA-SPT`) spend their time running one constrained
//! Dijkstra per deviation; Kurz–Mutzel instead *scan* the sidetrack edges
//! available at each deviation point and splice the SPT suffix below the
//! chosen sidetrack, so the common case does **zero** graph search per
//! emitted path.
//!
//! This module grafts that idea onto the paper's subspace machinery:
//!
//! 1. Build the full reverse SPT from `V_T` once (`DenseDijkstra`,
//!    pooled on the engine with the `DA-SPT` baselines' scratch). Its
//!    distances `d(v) = δ(v, V_T)` are exact, so landmark bounds are
//!    never consulted.
//! 2. Keep the paper's pseudo-tree of subspaces, but *resolve* a popped
//!    subspace lazily: scan its allowed first-hop (sidetrack) edges
//!    `(u, v)`; the cheapest candidate `ω(prefix) + ω(u,v) + d(v)` is an
//!    exact lower bound on every path in the subspace (`d` is exact).
//! 3. If the SPT tree path below the best candidate is disjoint from the
//!    subspace prefix, splicing it on *achieves* the bound — the subspace
//!    shortest path is assembled straight out of SPT parent pointers with
//!    no search at all (`stats.sidetrack_splices`).
//! 4. Only when the suffix collides with the prefix (the deviation must
//!    detour around its own history) does a constrained search run — and
//!    then τ-bounded (`next_tau`, the paper's §5 machinery) with the
//!    exact SPT distance as a consistent A* heuristic
//!    (`stats.sidetrack_repairs`).
//!
//! Paths stay in the implicit representation throughout: a found path is
//! a `Copy` [`FoundPath`] handle into the query's [`PathStore`] prefix
//! arena — the sidetrack suffix is pushed as arena entries, never as an
//! owned `Vec`. A warmed engine resolves, emits and divides without heap
//! allocation.
//!
//! # Correctness
//!
//! * The reverse SPT is seeded with every target at distance 0 under
//!   strict relaxation, so tree paths stop at the *first* target and
//!   interior tree nodes are never targets — the same goal semantics as
//!   the subspace searches.
//! * SPT tree paths are simple; the splice test additionally rejects any
//!   suffix touching the prefix (including `u` itself), so spliced paths
//!   are simple end to end.
//! * Every queue key is a true lower bound of its subspace (candidate
//!   scan for unresolved entries, exact length for resolved ones), and a
//!   resolved path's length never undercuts the key it was enqueued at —
//!   so the best-first pop order emits paths in non-decreasing length
//!   order by the same argument as `BestFirst` (Theorem 4.2).

use kpj_graph::{Length, PathId, PathStore, INFINITE_LENGTH};
use kpj_obs::Stage;
use kpj_sp::{DenseDijkstra, Estimate, NO_PARENT};

use crate::paradigms::next_tau;
use crate::pseudo_tree::{PseudoTree, VertexId, ROOT, VIRTUAL_NODE};
use crate::search_core::{
    comp_lb, divide_subspace, emit_found, subspace_search, FoundPath, PathSink, SubspaceCtx,
    SubspaceScratch, SubspaceSearch,
};
use crate::stats::QueryStats;

/// Outcome of resolving one subspace by sidetrack scanning.
enum Resolution {
    /// The subspace's shortest path, assembled with zero search (the
    /// trivial prefix-path or a clean SPT splice).
    Spliced(FoundPath),
    /// The best sidetrack's SPT suffix collided with the prefix; the
    /// carried length is the scan's exact lower bound for the repair τ.
    Collision(Length),
    /// No sidetrack candidate at all — the subspace is empty.
    Empty,
}

/// Resolve the subspace at `vertex`: scan its sidetrack candidates and
/// splice the cheapest SPT suffix if it is prefix-disjoint.
fn resolve(
    ctx: &SubspaceCtx<'_>,
    scratch: &mut SubspaceScratch,
    store: &mut PathStore,
    tree: &PseudoTree,
    spt: &DenseDijkstra,
    vertex: VertexId,
    stats: &mut QueryStats,
) -> Resolution {
    scratch.prefix_set.clear();
    for n in tree.prefix_nodes(vertex) {
        scratch.prefix_set.insert(n as usize);
    }
    let u = tree.node(vertex);
    let plen = tree.prefix_len(vertex);

    // Candidate scan — the mirror of `comp_lb`, but remembering *which*
    // first hop attains the minimum. Strict `<` keeps the earliest
    // minimum, matching `comp_lb`'s trivial-first tie order.
    let mut best_cost = INFINITE_LENGTH;
    let mut best_hop = NO_PARENT;
    let trivial_ok =
        u != VIRTUAL_NODE && ctx.goal_set.contains(u as usize) && !tree.emitted(vertex);
    if trivial_ok {
        best_cost = plen;
    }
    if u == VIRTUAL_NODE {
        for &f in ctx.fanout {
            stats.sidetracks_scanned += 1;
            if tree.is_excluded(vertex, f) {
                continue;
            }
            // Virtual edges weigh 0: the candidate is d(f) itself.
            if spt.dist(f) < best_cost {
                best_cost = spt.dist(f);
                best_hop = f;
            }
        }
    } else {
        for e in ctx.direction.edges(ctx.g, u) {
            stats.sidetracks_scanned += 1;
            if scratch.prefix_set.contains(e.to as usize) || tree.is_excluded(vertex, e.to) {
                continue;
            }
            let cost = plen
                .saturating_add(e.weight as Length)
                .saturating_add(spt.dist(e.to));
            if cost < best_cost {
                best_cost = cost;
                best_hop = e.to;
            }
        }
    }

    if best_cost == INFINITE_LENGTH {
        return Resolution::Empty;
    }
    if best_hop == NO_PARENT {
        // The prefix itself is the subspace's shortest path.
        stats.sidetrack_splices += 1;
        let tail = store.push(None, u, plen);
        return Resolution::Spliced(FoundPath {
            tail,
            length: plen,
            vertex,
            suffix_len: 0,
        });
    }

    // Splice test: walk the SPT tree path below the chosen sidetrack. Any
    // prefix node on it means the bound is not attained by splicing.
    // (`best_hop` itself was already checked against the prefix above.)
    let mut tail_len = 1u32;
    let mut cur = best_hop;
    loop {
        let p = spt.parent(cur);
        if p == NO_PARENT {
            break;
        }
        if scratch.prefix_set.contains(p as usize) {
            return Resolution::Collision(best_cost);
        }
        tail_len += 1;
        cur = p;
    }

    // Clean: assemble seed + sidetrack head + SPT suffix straight into
    // the arena. Cumulative length at a suffix node x is
    // `best_cost − d(x)` (everything after x is exactly x's tree path).
    stats.sidetrack_splices += 1;
    let mut id: Option<PathId> = None;
    if u != VIRTUAL_NODE {
        id = Some(store.push(None, u, plen));
    }
    id = Some(store.push(id, best_hop, best_cost - spt.dist(best_hop)));
    let mut cur = best_hop;
    for _ in 1..tail_len {
        cur = spt.parent(cur);
        id = Some(store.push(id, cur, best_cost - spt.dist(cur)));
    }
    Resolution::Spliced(FoundPath {
        tail: id.expect("chain has at least the sidetrack head"),
        length: best_cost,
        vertex,
        suffix_len: tail_len,
    })
}

/// The sidetrack main loop: best-first over subspaces like `BestFirst`,
/// but with splice resolution instead of an unconditional `CompSP`, and
/// τ-bounded repair searches instead of unbounded ones.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sidetrack(
    ctx: &SubspaceCtx<'_>,
    scratch: &mut SubspaceScratch,
    store: &mut PathStore,
    tree: &mut PseudoTree,
    spt: &DenseDijkstra,
    sink: &mut dyn PathSink,
    alpha: f64,
    stats: &mut QueryStats,
) {
    debug_assert!(alpha > 1.0, "α must exceed 1 (got {alpha})");
    let mut q = std::mem::take(&mut scratch.para_heap);
    q.clear();
    let lb0 = comp_lb(ctx, scratch, tree, ROOT, &mut |v| spt.dist(v), stats);
    if lb0 != INFINITE_LENGTH {
        q.push(lb0, (ROOT, None, 0));
    }
    let mut more = true;
    while more {
        if ctx.deadline.expired() {
            break;
        }
        let Some((key, (vertex, payload, _))) = q.pop() else {
            break;
        };
        stats.heap_pops += 1;
        match payload {
            Some(found) => {
                // Emission step, shared shape with the other paradigms:
                // divide, re-enqueue the affected subspaces at their exact
                // candidate bounds, deliver.
                let tick = scratch.trace.start();
                let emitted_len = found.length;
                divide_subspace(ctx, scratch, store, tree, found, stats);
                let affected = std::mem::take(&mut scratch.affected);
                for &v in &affected {
                    let lb = comp_lb(ctx, scratch, tree, v, &mut |x| spt.dist(x), stats);
                    if lb != INFINITE_LENGTH {
                        q.push(lb.max(emitted_len), (v, None, 0));
                    } else {
                        stats.subspaces_skipped += 1;
                    }
                }
                scratch.affected = affected;
                more = emit_found(scratch, store, tree, found, false, sink);
                scratch.trace.record(Stage::DeviationRound, tick);
            }
            None => match resolve(ctx, scratch, store, tree, spt, vertex, stats) {
                Resolution::Spliced(f) => q.push(f.length, (vertex, Some(f), 0)),
                Resolution::Empty => {
                    stats.subspaces_skipped += 1;
                }
                Resolution::Collision(lb) => {
                    stats.sidetrack_repairs += 1;
                    // §5-style iterative bounding for the rare repair: τ
                    // grows geometrically from the best knowledge at hand
                    // (this subspace's exact scan bound and the best
                    // other bound in the queue).
                    let base = key.max(lb).max(q.peek_key().unwrap_or(lb));
                    let tau = next_tau(base, alpha);
                    stats.tau_updates += 1;
                    stats.final_tau = stats.final_tau.max(tau);
                    match subspace_search(
                        ctx,
                        scratch,
                        store,
                        tree,
                        vertex,
                        &mut |v| match spt.dist(v) {
                            INFINITE_LENGTH => Estimate::Unreachable,
                            d => Estimate::Bound(d),
                        },
                        Some(tau),
                        stats,
                    ) {
                        SubspaceSearch::Found(f) => q.push(f.length, (vertex, Some(f), 0)),
                        SubspaceSearch::Bounded => q.push(tau, (vertex, None, 0)),
                        SubspaceSearch::Empty => {}
                        SubspaceSearch::Aborted => break,
                    }
                }
            },
        }
    }
    scratch.para_heap = q;
}

#[cfg(test)]
mod tests {
    use crate::{Algorithm, QueryEngine};
    use kpj_graph::{GraphBuilder, Length};

    /// Line 0-1-2-3 plus a dead-side spur 1-4 and an expensive escape
    /// 4-3: after emitting 0-1-2-3, the deviation at node 1 has best
    /// sidetrack (1,4) whose SPT suffix runs 4 → 1 → 2 → 3 — straight
    /// back through the prefix — forcing a repair search that finds
    /// 0-1-4-3.
    fn collision_graph() -> kpj_graph::Graph {
        let mut b = GraphBuilder::new(5);
        b.add_bidirectional(0, 1, 1).unwrap();
        b.add_bidirectional(1, 2, 1).unwrap();
        b.add_bidirectional(2, 3, 1).unwrap();
        b.add_bidirectional(1, 4, 1).unwrap();
        b.add_bidirectional(4, 3, 10).unwrap();
        b.build()
    }

    #[test]
    fn splice_fast_path_matches_da_without_repairs() {
        // Paper-style graph where every deviation's SPT suffix is clean.
        let mut b = GraphBuilder::new(8);
        b.add_bidirectional(0, 7, 2).unwrap();
        b.add_bidirectional(7, 6, 3).unwrap();
        b.add_bidirectional(0, 2, 3).unwrap();
        b.add_bidirectional(2, 5, 3).unwrap();
        b.add_bidirectional(2, 6, 4).unwrap();
        b.add_bidirectional(2, 3, 5).unwrap();
        b.add_bidirectional(2, 4, 2).unwrap();
        b.add_bidirectional(4, 5, 2).unwrap();
        let g = b.build();
        let h = [3u32, 5, 6];
        let mut engine = QueryEngine::new(&g);
        let want = engine.query(Algorithm::Da, 0, &h, 10).unwrap();
        let got = engine.query(Algorithm::Sidetrack, 0, &h, 10).unwrap();
        assert_eq!(got.paths.lengths(), want.paths.lengths());
        assert!(got.stats.sidetrack_splices > 0);
        assert!(got.stats.sidetracks_scanned > 0);
        for p in &got.paths {
            p.validate(&g).unwrap();
            assert!(p.is_simple());
        }
    }

    #[test]
    fn prefix_collision_forces_repair_search() {
        let g = collision_graph();
        let mut engine = QueryEngine::new(&g);
        let r = engine.ksp(Algorithm::Sidetrack, 0, 3, 5).unwrap();
        let lens: Vec<Length> = r.paths.lengths();
        let want = engine.ksp(Algorithm::Da, 0, 3, 5).unwrap();
        assert_eq!(lens, want.paths.lengths());
        assert_eq!(lens[0], 3); // 0-1-2-3
        assert!(lens.contains(&12)); // 0-1-4-3, found by repair
        assert!(r.stats.sidetrack_repairs > 0, "{:?}", r.stats);
        assert!(r.stats.testlb_calls > 0);
        for p in &r.paths {
            p.validate(&g).unwrap();
            assert!(p.is_simple());
        }
    }

    #[test]
    fn trivial_prefix_path_is_a_zero_search_splice() {
        let g = collision_graph();
        let mut engine = QueryEngine::new(&g);
        // Source inside the target category: the zero-length path must be
        // resolved by the trivial branch (no sidetrack head at all).
        let r = engine.query(Algorithm::Sidetrack, 1, &[1, 3], 3).unwrap();
        assert_eq!(r.paths.path(0).nodes, [1]);
        assert_eq!(r.paths.path(0).length, 0);
        assert!(r.stats.sidetrack_splices > 0);
        let want = engine.query(Algorithm::Da, 1, &[1, 3], 3).unwrap();
        assert_eq!(r.paths.lengths(), want.paths.lengths());
    }

    #[test]
    fn exhausts_simple_paths_when_k_is_oversized() {
        // Exactly three simple 0→3 paths exist in the collision graph:
        // 0-1-2-3 (3), 0-1-4-3 (12), 0-1-2-... none via 2-3 twice — plus
        // 0-1-4-3 uses the expensive escape. Ask for far more.
        let g = collision_graph();
        let mut engine = QueryEngine::new(&g);
        let r = engine.ksp(Algorithm::Sidetrack, 0, 3, 50).unwrap();
        let want = engine.ksp(Algorithm::Da, 0, 3, 50).unwrap();
        assert_eq!(r.paths.lengths(), want.paths.lengths());
        assert!(r.paths.len() < 50, "finite simple-path supply");
    }

    #[test]
    fn multi_source_virtual_root_fanout_splices() {
        let g = collision_graph();
        let mut engine = QueryEngine::new(&g);
        let r = engine
            .query_multi(Algorithm::Sidetrack, &[0, 4], &[3], 6)
            .unwrap();
        let want = engine.query_multi(Algorithm::Da, &[0, 4], &[3], 6).unwrap();
        assert_eq!(r.paths.lengths(), want.paths.lengths());
        for p in &r.paths {
            assert!(p.source() == 0 || p.source() == 4);
            assert_eq!(p.destination(), 3);
        }
    }

    #[test]
    fn landmarks_do_not_change_sidetrack_answers() {
        use kpj_landmark::{LandmarkIndex, SelectionStrategy};
        let g = collision_graph();
        let idx = LandmarkIndex::build(&g, 3, SelectionStrategy::Farthest, 7);
        let mut plain = QueryEngine::new(&g);
        let mut lm = QueryEngine::new(&g).with_landmarks(&idx);
        let a = plain.ksp(Algorithm::Sidetrack, 0, 3, 5).unwrap();
        let b = lm.ksp(Algorithm::Sidetrack, 0, 3, 5).unwrap();
        // The engine ignores landmark bounds entirely — bit-identical
        // paths *and* work counters.
        assert_eq!(a.paths, b.paths);
        assert_eq!(a.stats, b.stats);
    }
}
