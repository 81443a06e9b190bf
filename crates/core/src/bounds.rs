//! Lower-bound oracles used by the query algorithms.
//!
//! Two directions of bounds appear in the paper:
//!
//! * **towards the targets** — `lb(v, V_T)` (Eq. (2)); used as the A\*
//!   heuristic of every forward search and as the `SPT_I` growth key.
//! * **from the source side** — `lb(s, v)` (single source) or
//!   `lb(V_S, v) = max_w ( δ(w,v) − max_{s ∈ V_S} δ(w,s) )` (GKPJ virtual
//!   source); used by the reverse-graph searches of the `SPT_I` approach
//!   and as the heuristic of `PartialSPT` (Alg. 6).
//!
//! Every oracle has a `Zero` variant implementing §6's "computing without
//! landmark": all estimates degrade to 0 and A\* becomes Dijkstra.
//!
//! Beyond the paper, the towards-the-targets oracle can also be *exact*:
//! a [`TargetRow`](kpj_landmark::TargetRow) kept for a recurring target
//! set holds `d(v, V_T)` itself ([`TargetsLb::Exact`]).

use kpj_graph::{Length, NodeId, INFINITE_LENGTH};
use kpj_landmark::{LandmarkIndex, QueryBounds};

/// Lower bounds `lb(v, V_T)` towards the destination side.
#[derive(Debug, Clone)]
pub enum TargetsLb<'q> {
    /// No landmarks: every bound is 0 (§6, the `-NL` variants).
    Zero,
    /// Landmark Eq. (2) bounds, preprocessed for one target set.
    Alt(QueryBounds<'q>),
    /// The exact distances `d(v, V_T)` of a target row built for this
    /// very target set — the tightest admissible, consistent bound.
    Exact(&'q [Length]),
}

impl TargetsLb<'_> {
    /// `lb(v, V_T)`; [`INFINITE_LENGTH`] when `V_T` is provably
    /// unreachable from `v`.
    #[inline]
    pub fn lb(&self, v: NodeId) -> Length {
        match self {
            TargetsLb::Zero => 0,
            TargetsLb::Alt(qb) => qb.lb_to_targets(v),
            TargetsLb::Exact(dist) => dist[v as usize],
        }
    }
}

/// Lower bounds `lb(source side, v)` from the source side.
#[derive(Debug, Clone)]
pub enum SourceLb<'q> {
    /// No landmarks: every bound is 0.
    Zero,
    /// Single source `s`: `lb(s, v)` straight from the landmark index.
    Single(&'q LandmarkIndex, NodeId),
    /// GKPJ virtual source over `V_S`: per-landmark `max_{s} δ(w, s)` is
    /// precomputed once per query (`O(|L|·|V_S|)`), after which each bound
    /// costs `O(|L|)` — the virtual-source analogue of Eq. (2).
    Multi {
        /// The offline landmark index.
        index: &'q LandmarkIndex,
        /// `max_dist[l] = max_{s ∈ V_S} δ(w_l, s)`; [`INFINITE_LENGTH`]
        /// when some source is unreachable from the landmark (the landmark
        /// then proves nothing and is skipped).
        max_dist: Vec<Length>,
    },
}

impl<'q> SourceLb<'q> {
    /// Build the oracle for a source specification.
    pub fn new(index: Option<&'q LandmarkIndex>, sources: &[NodeId]) -> Self {
        Self::new_reusing(index, sources, Vec::new())
    }

    /// [`new`](SourceLb::new) with the multi-source table written into a
    /// caller-pooled buffer (get it back with
    /// [`into_buffer`](SourceLb::into_buffer)), so a warmed engine sets up
    /// GKPJ bounds without allocating.
    pub fn new_reusing(
        index: Option<&'q LandmarkIndex>,
        sources: &[NodeId],
        mut buf: Vec<Length>,
    ) -> Self {
        match (index, sources) {
            (None, _) => SourceLb::Zero,
            (Some(idx), [s]) => SourceLb::Single(idx, *s),
            (Some(idx), _) => {
                buf.clear();
                buf.extend((0..idx.len()).map(|l| {
                    sources
                        .iter()
                        .map(|&s| idx.landmark_distance(l, s))
                        .max()
                        .unwrap_or(INFINITE_LENGTH)
                }));
                SourceLb::Multi {
                    index: idx,
                    max_dist: buf,
                }
            }
        }
    }

    /// The multi-source buffer, if this oracle owns one.
    pub fn into_buffer(self) -> Option<Vec<Length>> {
        match self {
            SourceLb::Multi { max_dist, .. } => Some(max_dist),
            SourceLb::Zero | SourceLb::Single(..) => None,
        }
    }

    /// A lower bound on `min_{s ∈ V_S} δ(s, v)`; [`INFINITE_LENGTH`] when
    /// `v` is provably unreachable from every source.
    #[inline]
    pub fn lb(&self, v: NodeId) -> Length {
        match self {
            SourceLb::Zero => 0,
            SourceLb::Single(idx, s) => idx.lower_bound(*s, v),
            SourceLb::Multi { index, max_dist } => {
                let mut lb: Length = 0;
                for (l, &ms) in max_dist.iter().enumerate() {
                    if ms == INFINITE_LENGTH {
                        continue;
                    }
                    let dv = index.landmark_distance(l, v);
                    if dv == INFINITE_LENGTH {
                        // Every source is reachable from this landmark, so
                        // if v were reachable from some source the landmark
                        // would reach v through it.
                        return INFINITE_LENGTH;
                    }
                    lb = lb.max(dv.saturating_sub(ms));
                }
                lb
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_graph::{Graph, GraphBuilder};
    use kpj_landmark::SelectionStrategy;
    use kpj_sp::DenseDijkstra;

    fn path_graph(n: u32) -> Graph {
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_bidirectional(i, i + 1, (i + 1) % 5 + 1).unwrap();
        }
        b.build()
    }

    #[test]
    fn exact_oracle_reads_the_row() {
        let g = path_graph(6);
        let row = kpj_landmark::TargetRow::build(&g, &[4]);
        let exact = TargetsLb::Exact(row.dist());
        let d = DenseDijkstra::to_targets(&g, &[4]);
        for v in g.nodes() {
            assert_eq!(exact.lb(v), d.dist(v));
        }
    }

    #[test]
    fn zero_oracles_return_zero() {
        assert_eq!(TargetsLb::Zero.lb(3), 0);
        let s = SourceLb::new(None, &[1, 2]);
        assert_eq!(s.lb(3), 0);
    }

    #[test]
    fn single_source_lb_is_valid() {
        let g = path_graph(10);
        let idx = LandmarkIndex::build(&g, 3, SelectionStrategy::Farthest, 1);
        let s = 2u32;
        let oracle = SourceLb::new(Some(&idx), &[s]);
        let d = DenseDijkstra::from_source(&g, s);
        for v in g.nodes() {
            assert!(oracle.lb(v) <= d.dist(v), "lb({s},{v}) too large");
        }
    }

    #[test]
    fn multi_source_lb_is_valid_and_sometimes_positive() {
        let g = path_graph(12);
        let idx = LandmarkIndex::build(&g, 4, SelectionStrategy::Farthest, 2);
        let sources = [0u32, 1];
        let oracle = SourceLb::new(Some(&idx), &sources);
        let best: Vec<_> = {
            let d0 = DenseDijkstra::from_source(&g, 0);
            let d1 = DenseDijkstra::from_source(&g, 1);
            g.nodes().map(|v| d0.dist(v).min(d1.dist(v))).collect()
        };
        let mut any_positive = false;
        for v in g.nodes() {
            let lb = oracle.lb(v);
            assert!(
                lb <= best[v as usize],
                "lb(VS,{v}) = {lb} exceeds true {}",
                best[v as usize]
            );
            any_positive |= lb > 0;
        }
        assert!(
            any_positive,
            "bound should not be trivially zero everywhere"
        );
    }

    #[test]
    fn multi_source_detects_unreachable() {
        // Two components: sources in one, v in the other.
        let mut b = GraphBuilder::new(4);
        b.add_bidirectional(0, 1, 1).unwrap();
        b.add_bidirectional(2, 3, 1).unwrap();
        let g = b.build();
        let idx = LandmarkIndex::build(&g, 2, SelectionStrategy::Farthest, 3);
        let oracle = SourceLb::new(Some(&idx), &[0, 1]);
        assert_eq!(oracle.lb(2), INFINITE_LENGTH);
    }
}
