//! Property-based tests for the shortest-path substrate: every search
//! implementation is checked against `DenseDijkstra` (itself unit-tested
//! against Bellman–Ford), and the bounded-search contract (the substrate
//! half of the paper's Lemma 5.1) is verified directly.

use kpj_graph::{Graph, GraphBuilder, Length, NodeId, INFINITE_LENGTH};
use kpj_sp::{DenseDijkstra, Direction, Estimate, SearchOutcome, Searcher, NO_PARENT};
use proptest::collection::vec;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Spec {
    n: u32,
    edges: Vec<(u32, u32, u32)>,
}

fn spec() -> impl Strategy<Value = Spec> {
    (2..25u32).prop_flat_map(|n| {
        vec((0..n, 0..n, 0..100u32), 1..90).prop_map(move |edges| Spec { n, edges })
    })
}

fn build(s: &Spec) -> Graph {
    let mut b = GraphBuilder::new(s.n as usize);
    for &(u, v, w) in &s.edges {
        if u != v {
            b.add_edge(u, v, w).unwrap();
        }
    }
    b.build()
}

proptest! {
    /// Unconstrained Searcher with zero heuristic = Dijkstra.
    #[test]
    fn searcher_matches_dense(s in spec(), src in 0..25u32, dst in 0..25u32) {
        let g = build(&s);
        let src = src % s.n;
        let dst = dst % s.n;
        let dense = DenseDijkstra::from_source(&g, src);
        let mut searcher = Searcher::new(g.node_count());
        let out = searcher.search(
            &g,
            Direction::Forward,
            [(src, 0)],
            |_, _| true,
            |_| Estimate::Bound(0),
            |v| v == dst,
            None,
        );
        match out {
            SearchOutcome::Found { node, dist } => {
                prop_assert_eq!(node, dst);
                prop_assert_eq!(dist, dense.dist(dst));
                // The chain must realize the distance.
                let chain = searcher.chain_to_root(dst);
                let len: Length = chain
                    .windows(2)
                    .map(|w| g.edge_weight(w[1], w[0]).unwrap() as Length)
                    .sum();
                prop_assert_eq!(len, dist);
            }
            _ => prop_assert!(!dense.reached(dst)),
        }
    }

    /// Bounded-search contract (substrate Lemma 5.1): with bound τ the
    /// search finds the target iff δ ≤ τ, and never reports
    /// `ExhaustedComplete` when it merely ran out of budget.
    #[test]
    fn bounded_search_contract(s in spec(), src in 0..25u32, dst in 0..25u32, tau in 0..300u64) {
        let g = build(&s);
        let src = src % s.n;
        let dst = dst % s.n;
        let dense = DenseDijkstra::from_source(&g, src);
        let mut searcher = Searcher::new(g.node_count());
        let out = searcher.search(
            &g,
            Direction::Forward,
            [(src, 0)],
            |_, _| true,
            |_| Estimate::Bound(0),
            |v| v == dst,
            Some(tau),
        );
        let true_dist = dense.dist(dst);
        match out {
            SearchOutcome::Found { dist, .. } => {
                prop_assert_eq!(dist, true_dist);
                prop_assert!(dist <= tau);
            }
            SearchOutcome::ExhaustedBounded => {
                // Either truly beyond τ, or unreachable but with some
                // frontier pruned at τ (both are honest "> τ" answers).
                prop_assert!(true_dist > tau);
            }
            SearchOutcome::ExhaustedComplete => {
                prop_assert!(!dense.reached(dst));
            }
            SearchOutcome::Aborted => {
                prop_assert!(false, "no cancel hook was installed");
            }
        }
    }

    /// Backward searches compute distances on the reverse graph.
    #[test]
    fn backward_matches_reversed_dense(s in spec(), src in 0..25u32) {
        let g = build(&s);
        let src = src % s.n;
        // Distances *to* src along forward edges.
        let dense = DenseDijkstra::run(&g, Direction::Backward, [(src, 0)]);
        let mut searcher = Searcher::new(g.node_count());
        for goal in g.nodes() {
            let out = searcher.search(
                &g,
                Direction::Backward,
                [(src, 0)],
                |_, _| true,
                |_| Estimate::Bound(0),
                |v| v == goal,
                None,
            );
            match out {
                SearchOutcome::Found { dist, .. } => prop_assert_eq!(dist, dense.dist(goal)),
                _ => prop_assert!(!dense.reached(goal)),
            }
        }
    }

    /// A consistent non-zero heuristic (exact distances) never changes the
    /// answer, only the exploration.
    #[test]
    fn perfect_heuristic_preserves_answers(s in spec(), src in 0..25u32, dst in 0..25u32) {
        let g = build(&s);
        let src = src % s.n;
        let dst = dst % s.n;
        // Exact remaining distances to dst.
        let to_dst = DenseDijkstra::run(&g, Direction::Backward, [(dst, 0)]);
        let mut plain = Searcher::new(g.node_count());
        let plain_out = plain.search(
            &g, Direction::Forward, [(src, 0)], |_, _| true, |_| Estimate::Bound(0),
            |v| v == dst, None,
        );
        let mut astar = Searcher::new(g.node_count());
        let astar_out = astar.search(
            &g, Direction::Forward, [(src, 0)], |_, _| true,
            |v| {
                if to_dst.reached(v) {
                    Estimate::Bound(to_dst.dist(v))
                } else {
                    Estimate::Unreachable
                }
            },
            |v| v == dst, None,
        );
        match (plain_out, astar_out) {
            (SearchOutcome::Found { dist: a, .. }, SearchOutcome::Found { dist: b, .. }) => {
                prop_assert_eq!(a, b);
                prop_assert!(astar.settled_count() <= plain.settled_count());
            }
            (SearchOutcome::Found { .. }, other) => prop_assert!(false, "A* lost the path: {:?}", other),
            (_, SearchOutcome::Found { .. }) => prop_assert!(false, "A* hallucinated a path"),
            _ => {}
        }
    }
}

/// Tie-heavy graphs: weights in `0..4`, so zero-weight arcs, zero-weight
/// cycles and equal-length alternatives are common.
fn tie_spec() -> impl Strategy<Value = Spec> {
    (2..30u32).prop_flat_map(|n| {
        vec((0..n, 0..n, 0..4u32), 1..120).prop_map(move |edges| Spec { n, edges })
    })
}

/// Multi-source Bellman–Ford expanding `direction`'s arcs.
fn bellman_ford(g: &Graph, direction: Direction, sources: &[(NodeId, Length)]) -> Vec<Length> {
    let mut dist = vec![INFINITE_LENGTH; g.node_count()];
    for &(s, d0) in sources {
        dist[s as usize] = dist[s as usize].min(d0);
    }
    loop {
        let mut changed = false;
        for u in g.nodes() {
            if dist[u as usize] == INFINITE_LENGTH {
                continue;
            }
            for e in direction.edges(g, u) {
                let nd = dist[u as usize] + e.weight as Length;
                if nd < dist[e.to as usize] {
                    dist[e.to as usize] = nd;
                    changed = true;
                }
            }
        }
        if !changed {
            return dist;
        }
    }
}

/// What `DenseDijkstra`'s parent rule demands of one node, recomputed
/// from the distance row alone.
enum ParentRule {
    /// Unreached, or a root: `NO_PARENT`.
    None,
    /// The `(dist, id)`-smallest tight predecessor at a smaller distance.
    Exactly(NodeId),
    /// Only zero-weight tight predecessors at the node's own distance: the
    /// parent must be one of them.
    ZeroWeightTight,
}

fn parent_rule(
    g: &Graph,
    direction: Direction,
    dist: &[Length],
    sources: &[(NodeId, Length)],
    v: NodeId,
) -> ParentRule {
    let dv = dist[v as usize];
    if dv == INFINITE_LENGTH || sources.iter().any(|&(s, d0)| s == v && d0 == dv) {
        return ParentRule::None;
    }
    let mut best: Option<(Length, NodeId)> = None;
    for u in g.nodes() {
        let du = dist[u as usize];
        let tight = du < dv
            && direction
                .edges(g, u)
                .iter()
                .any(|e| e.to == v && du + e.weight as Length == dv);
        if tight {
            best = Some(best.map_or((du, u), |b| b.min((du, u))));
        }
    }
    best.map_or(ParentRule::ZeroWeightTight, |(_, u)| ParentRule::Exactly(u))
}

proptest! {
    /// On tie-heavy graphs with zero weights, multi-source offsets and
    /// both directions: distances equal Bellman–Ford, every parent obeys
    /// the `(dist, id)` rule, every parent chain ends at a root after
    /// exactly `dist` of arc weight, and a pooled `rerun` reproduces the
    /// fresh tree.
    #[test]
    fn dense_parents_follow_the_tie_rule(
        s in tie_spec(),
        sources in vec((0..30u32, 0..3u64), 1..4),
        backward in any::<bool>(),
    ) {
        let g = build(&s);
        let direction = if backward { Direction::Backward } else { Direction::Forward };
        let sources: Vec<(NodeId, Length)> =
            sources.into_iter().map(|(v, d0)| (v % s.n, d0)).collect();
        let d = DenseDijkstra::run(&g, direction, sources.iter().copied());
        let dist = bellman_ford(&g, direction, &sources);
        prop_assert_eq!(d.dist_slice(), dist.as_slice());
        // A pooled rerun after another search gives exactly the fresh tree.
        let mut pooled = DenseDijkstra::run(&g, direction.reversed(), [(0, 0)]);
        pooled.rerun(&g, direction, sources.iter().copied());
        prop_assert_eq!(pooled.dist_slice(), d.dist_slice());
        for v in g.nodes() {
            prop_assert_eq!(pooled.parent(v), d.parent(v));
        }

        for v in g.nodes() {
            let p = d.parent(v);
            match parent_rule(&g, direction, &dist, &sources, v) {
                ParentRule::None => prop_assert_eq!(p, NO_PARENT),
                ParentRule::Exactly(u) => prop_assert_eq!(p, u),
                ParentRule::ZeroWeightTight => {
                    prop_assert!(p != NO_PARENT, "node {} lost its parent", v);
                    prop_assert_eq!(dist[p as usize], dist[v as usize]);
                    prop_assert!(direction
                        .edges(&g, p)
                        .iter()
                        .any(|e| e.to == v && e.weight == 0));
                }
            }
            // The chain is acyclic and realises the distance.
            if d.reached(v) {
                let mut cur = v;
                let mut len: Length = 0;
                for _ in 0..=g.node_count() {
                    let p = d.parent(cur);
                    if p == NO_PARENT {
                        break;
                    }
                    len += direction
                        .edges(&g, p)
                        .iter()
                        .filter(|e| e.to == cur)
                        .map(|e| e.weight as Length)
                        .min()
                        .unwrap();
                    cur = p;
                }
                prop_assert_eq!(d.parent(cur), NO_PARENT, "parent cycle through {}", v);
                prop_assert_eq!(len + dist[cur as usize], dist[v as usize]);
            }
        }
    }
}
