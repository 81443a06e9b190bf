//! Shortest-path algorithms for the `kpj` workspace.
//!
//! Three pieces:
//!
//! * [`DenseDijkstra`] — whole-graph (multi-source) Dijkstra producing dense
//!   distance/parent arrays. Used offline (landmark tables), per query for
//!   the `DA-SPT` baseline's full reverse shortest-path tree, and by the
//!   workload generator (sorting nodes by `δ(v, V_T)`).
//! * [`Searcher`] — a reusable, constrained, optionally bounded best-first
//!   search (Dijkstra/A\* depending on the supplied heuristic). One
//!   `Searcher` instance powers all of the paper's per-query searches:
//!   `CompSP` (A\* in a subspace), `TestLB` (Alg. 5, with threshold τ),
//!   candidate-path computations of the deviation baselines, and
//!   `PartialSPT`'s initial A\*.
//! * [`Direction`] — forward/backward edge selection so every search can run
//!   on the reverse graph without materializing it.
//!
//! All scratch state is epoch-stamped (see `kpj_graph::scratch`), so reuse
//! across thousands of searches per query costs `O(1)` per reset.

#![warn(missing_docs)]

mod dense;
mod searcher;

pub use dense::{DenseDijkstra, NO_PARENT};
pub use searcher::{Estimate, SearchOrder, SearchOutcome, Searcher, CANCEL_POLL_STRIDE};

use kpj_graph::{EdgeRef, Graph, NodeId};

/// Which adjacency a search expands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Expand out-edges: distances are *from* the source(s).
    Forward,
    /// Expand in-edges: distances are *to* the source(s) along forward edges.
    Backward,
}

impl Direction {
    /// The adjacency list of `u` in this direction.
    #[inline]
    pub fn edges(self, g: &Graph, u: NodeId) -> &[EdgeRef] {
        match self {
            Direction::Forward => g.out_edges(u),
            Direction::Backward => g.in_edges(u),
        }
    }

    /// The opposite direction.
    #[inline]
    pub fn reversed(self) -> Direction {
        match self {
            Direction::Forward => Direction::Backward,
            Direction::Backward => Direction::Forward,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_graph::GraphBuilder;

    #[test]
    fn direction_selects_adjacency() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(2, 1, 2).unwrap();
        let g = b.build();
        assert_eq!(Direction::Forward.edges(&g, 0).len(), 1);
        assert_eq!(Direction::Forward.edges(&g, 1).len(), 0);
        assert_eq!(Direction::Backward.edges(&g, 1).len(), 2);
        assert_eq!(Direction::Forward.reversed(), Direction::Backward);
        assert_eq!(Direction::Backward.reversed(), Direction::Forward);
    }
}
