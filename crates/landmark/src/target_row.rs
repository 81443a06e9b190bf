//! Exact target-distance rows: `d(v, V_T)` for every node `v` and one
//! target set `V_T`.
//!
//! A KPJ target set is a *category*, and a serving stream sends the same
//! category again and again. One backward Dijkstra from the whole set
//! (`O(m + n log n)`, `n × 8` bytes) then gives every later query on that
//! set the exact remaining distance in place of the landmark Eq. (2)
//! bound — the tightest admissible, consistent A\* heuristic there is.
//! Rows are repaired per update batch by the same code as landmark rows
//! (see the `repair` module).

use kpj_graph::{Graph, Length, NodeId};
use kpj_sp::DenseDijkstra;

/// The exact distances `d(v, V_T)` from every node to one normalized
/// (sorted, deduplicated) target set, on one graph version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetRow {
    /// The target set, sorted and deduplicated.
    pub(crate) targets: Vec<NodeId>,
    /// `dist[v] = min_{t ∈ V_T} δ(v, t)`; `INFINITE_LENGTH` when no
    /// target is reachable from `v`.
    pub(crate) dist: Vec<Length>,
}

impl TargetRow {
    /// Build the row for `targets` on `g` (normalizing the set first).
    ///
    /// # Panics
    /// Panics if a target is not a node of `g`.
    pub fn build(g: &Graph, targets: &[NodeId]) -> TargetRow {
        let mut targets = targets.to_vec();
        targets.sort_unstable();
        targets.dedup();
        let dist = DenseDijkstra::to_targets(g, &targets).into_dist();
        TargetRow { targets, dist }
    }

    /// Rebuild the row from scratch on `g` for the same target set — the
    /// reference [`TargetRow::repaired`] must match bit-for-bit.
    pub fn rebuilt(&self, g: &Graph) -> TargetRow {
        TargetRow::build(g, &self.targets)
    }

    /// The normalized target set this row answers for.
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// The row itself: `dist()[v] = d(v, V_T)`.
    pub fn dist(&self) -> &[Length] {
        &self.dist
    }

    /// Node universe size the row was built for.
    pub fn node_count(&self) -> usize {
        self.dist.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_graph::{GraphBuilder, INFINITE_LENGTH};

    #[test]
    fn build_normalizes_and_matches_dijkstra() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 2).unwrap();
        b.add_edge(1, 2, 3).unwrap();
        b.add_edge(3, 2, 1).unwrap();
        let g = b.build();
        let row = TargetRow::build(&g, &[2, 1, 2]);
        assert_eq!(row.targets(), &[1, 2]);
        assert_eq!(row.dist(), &[2, 0, 0, 1, INFINITE_LENGTH]);
        assert_eq!(row.node_count(), 5);
        assert_eq!(row.rebuilt(&g), row);
    }
}
