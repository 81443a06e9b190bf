//! Edge-weight updates: derive a new immutable [`Graph`] from an existing
//! one with a batch of weight changes applied.
//!
//! A [`Graph`] never mutates in place — it may be backed by a read-only
//! memory mapping, and concurrent queries hold shared references into its
//! CSR arrays. Live weight updates therefore produce a brand-new graph
//! with identical topology and the new weights spliced into **both** the
//! forward and reverse views, which the service publishes as the next
//! epoch while in-flight queries finish on the old one.
//!
//! The new version's edge arrays come from one of two places. The plain
//! path copies every edge into fresh owned sections. The recycling path
//! ([`Graph::with_updated_weights_reusing`]) takes a retired earlier
//! version nobody references any more, copies over only the adjacency
//! ranges that changed since, and writes the batch into it — a double
//! buffer whose cost follows the batch, not `m`.
//!
//! ## Parallel edges
//!
//! The format permits parallel `u → v` edges. Shortest-path computations
//! only ever observe the cheapest copy ([`Graph::edge_weight`] takes the
//! min), so an update addresses the *pair* `(u, v)` and sets every
//! parallel copy to the new weight — the only semantics under which the
//! forward and reverse views (and the distances derived from them) cannot
//! drift apart. The reported [`EdgeDelta::old_weight`] is accordingly the
//! pre-batch minimum over the copies, which is exactly the value distance
//! repair needs (see `kpj-landmark`).

use crate::csr::Graph;
use crate::types::{NodeId, Weight};

/// One requested weight change: set every `from → to` edge to `weight`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightUpdate {
    /// Tail of the edge.
    pub from: NodeId,
    /// Head of the edge.
    pub to: NodeId,
    /// The new weight.
    pub weight: Weight,
}

/// One applied change, with the before/after weights the incremental
/// distance-repair algorithms need (`old` is the pre-batch minimum over
/// parallel copies — the only weight shortest paths ever observed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeDelta {
    /// Tail of the edge.
    pub from: NodeId,
    /// Head of the edge.
    pub to: NodeId,
    /// Effective weight before the batch.
    pub old_weight: Weight,
    /// Effective weight after the batch.
    pub new_weight: Weight,
}

/// Errors applying a weight-update batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateError {
    /// An update references a node id outside the graph.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the graph.
        node_count: usize,
    },
    /// An update references a `(from, to)` pair with no edge. Updates
    /// change weights only — they never create or delete topology, so an
    /// unknown edge is a caller error, not an upsert.
    NoSuchEdge {
        /// Tail of the missing edge.
        from: NodeId,
        /// Head of the missing edge.
        to: NodeId,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::NodeOutOfRange { node, node_count } => write!(
                f,
                "update references node {node}, graph has {node_count} nodes"
            ),
            UpdateError::NoSuchEdge { from, to } => {
                write!(f, "no edge {from} -> {to} to update")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

impl Graph {
    /// Apply a batch of weight updates copy-on-write: returns a new graph
    /// with identical topology and the new weights in both CSR views,
    /// plus one [`EdgeDelta`] per distinct `(from, to)` pair actually
    /// changed (no-op updates — every copy of the pair already carries
    /// the new weight — are dropped; when a pair appears several times in
    /// one batch the last write wins and `old_weight` is still the
    /// pre-batch value). A delta may carry `old_weight == new_weight`:
    /// normalizing parallel copies to their current minimum changes no
    /// distance but does change the graph, and callers deciding whether
    /// to publish must treat it as a change.
    ///
    /// The batch is atomic: any invalid entry fails the whole call and
    /// `self` is untouched (it always is — this never mutates in place).
    pub fn with_updated_weights(
        &self,
        updates: &[WeightUpdate],
    ) -> Result<(Graph, Vec<EdgeDelta>), UpdateError> {
        self.with_updated_weights_reusing(updates, None)
    }

    /// [`with_updated_weights`](Graph::with_updated_weights) that writes
    /// the new version into `spare` instead of a fresh copy of every edge.
    ///
    /// `spare` is `(old, stale)`: a retired earlier version of this graph
    /// (same topology, heap-backed — see [`Graph::is_owned`]) and the
    /// deltas of the batch that turned `old` into `self`. Only the
    /// adjacency ranges those deltas touched are copied over from `self`
    /// before the batch is written in place, so the cost is the two batches'
    /// degree sum rather than `O(m)`. A spare that is mapped or of another
    /// shape is dropped and the edges are copied as usual; a rejected
    /// batch drops the spare too.
    pub fn with_updated_weights_reusing(
        &self,
        updates: &[WeightUpdate],
        spare: Option<(Graph, &[EdgeDelta])>,
    ) -> Result<(Graph, Vec<EdgeDelta>), UpdateError> {
        let n = self.node_count();
        // Validate the whole batch before writing anything.
        for u in updates {
            for node in [u.from, u.to] {
                if node as usize >= n {
                    return Err(UpdateError::NodeOutOfRange {
                        node,
                        node_count: n,
                    });
                }
            }
            if self.edge_weight(u.from, u.to).is_none() {
                return Err(UpdateError::NoSuchEdge {
                    from: u.from,
                    to: u.to,
                });
            }
        }
        let (out_offsets, fwd, in_offsets, rev) = self.sections();
        let range = |offsets: &[u32], v: NodeId| {
            offsets[v as usize] as usize..offsets[v as usize + 1] as usize
        };
        let spare = spare.filter(|(old, _)| {
            old.is_owned() && old.node_count() == n && old.edge_count() == self.edge_count()
        });
        let mut next = match spare {
            Some((mut old, stale)) => {
                let (out_edges, in_edges) = old.edges_mut().expect("owned spare");
                for d in stale {
                    let (f, r) = (range(out_offsets, d.from), range(in_offsets, d.to));
                    out_edges[f.clone()].copy_from_slice(&fwd[f]);
                    in_edges[r.clone()].copy_from_slice(&rev[r]);
                }
                debug_assert!(
                    old.sections() == self.sections(),
                    "patched spare differs from the current graph"
                );
                old
            }
            None => Graph::from_csr(
                out_offsets.into(),
                fwd.into(),
                in_offsets.into(),
                rev.into(),
            ),
        };
        let (out_edges, in_edges) = next.edges_mut().expect("fresh or owned spare");
        // Batches are small (tens to thousands); a linear-probe delta list
        // keeps this dependency-free and deterministic.
        let mut deltas: Vec<EdgeDelta> = Vec::new();
        for u in updates {
            match deltas.iter_mut().find(|d| d.from == u.from && d.to == u.to) {
                Some(d) => d.new_weight = u.weight,
                None => deltas.push(EdgeDelta {
                    from: u.from,
                    to: u.to,
                    // Pre-batch effective weight: min over parallel copies.
                    old_weight: self.edge_weight(u.from, u.to).expect("validated above"),
                    new_weight: u.weight,
                }),
            }
            let mut touched_fwd = 0usize;
            for e in &mut out_edges[range(out_offsets, u.from)] {
                if e.to == u.to {
                    e.weight = u.weight;
                    touched_fwd += 1;
                }
            }
            let mut touched_rev = 0usize;
            for e in &mut in_edges[range(in_offsets, u.to)] {
                if e.to == u.from {
                    e.weight = u.weight;
                    touched_rev += 1;
                }
            }
            // Both views enumerate the same edge multiset, so the copy
            // counts must agree; `from_sections` validated that at load.
            debug_assert_eq!(touched_fwd, touched_rev);
            debug_assert!(touched_fwd > 0, "edge existence validated above");
        }
        // A delta is real when any *copy* of the pair changed, not merely
        // the effective minimum: normalizing parallel copies {2, 9} to 2
        // leaves every distance intact but is still observable — k-shortest
        // enumeration walks the raw adjacency, so the non-min copy's paths
        // change length. Such deltas carry `old_weight == new_weight`
        // (effective no-op) and distance repair skips them; callers must
        // still publish the new graph.
        deltas.retain(|d| {
            let r = range(out_offsets, d.from);
            out_edges[r.clone()]
                .iter()
                .zip(&fwd[r])
                .any(|(new, old)| new.to == d.to && new.weight != old.weight)
        });
        Ok((next, deltas))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> Graph {
        // 0 -> 1 (2), 0 -> 2 (5), 1 -> 3 (2), 2 -> 3 (1), parallel 0 -> 1 (9)
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 2).unwrap();
        b.add_edge(0, 2, 5).unwrap();
        b.add_edge(1, 3, 2).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        b.add_edge(0, 1, 9).unwrap();
        b.build()
    }

    #[test]
    fn updates_both_views_and_reports_deltas() {
        let g = diamond();
        let (g2, deltas) = g
            .with_updated_weights(&[WeightUpdate {
                from: 0,
                to: 2,
                weight: 1,
            }])
            .unwrap();
        assert_eq!(g.edge_weight(0, 2), Some(5), "original untouched");
        assert_eq!(g2.edge_weight(0, 2), Some(1));
        assert!(g2.in_edges(2).iter().any(|e| e.to == 0 && e.weight == 1));
        assert_eq!(
            deltas,
            vec![EdgeDelta {
                from: 0,
                to: 2,
                old_weight: 5,
                new_weight: 1
            }]
        );
        // Topology is untouched.
        assert_eq!(g.node_count(), g2.node_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        assert_eq!(g.sections().0, g2.sections().0);
    }

    #[test]
    fn parallel_copies_all_change_together() {
        let g = diamond();
        let (g2, deltas) = g
            .with_updated_weights(&[WeightUpdate {
                from: 0,
                to: 1,
                weight: 4,
            }])
            .unwrap();
        let copies: Vec<Weight> = g2
            .out_edges(0)
            .iter()
            .filter(|e| e.to == 1)
            .map(|e| e.weight)
            .collect();
        assert_eq!(copies, vec![4, 4]);
        let rev: Vec<Weight> = g2
            .in_edges(1)
            .iter()
            .filter(|e| e.to == 0)
            .map(|e| e.weight)
            .collect();
        assert_eq!(rev, vec![4, 4]);
        // old_weight is the pre-batch minimum (2), not either raw copy.
        assert_eq!(deltas[0].old_weight, 2);
        assert_eq!(deltas[0].new_weight, 4);
    }

    #[test]
    fn last_write_wins_and_noops_are_dropped() {
        let g = diamond();
        let batch = [
            WeightUpdate {
                from: 1,
                to: 3,
                weight: 7,
            },
            WeightUpdate {
                from: 1,
                to: 3,
                weight: 2, // back to the original weight
            },
        ];
        let (g2, deltas) = g.with_updated_weights(&batch).unwrap();
        assert_eq!(g2.edge_weight(1, 3), Some(2));
        assert!(deltas.is_empty(), "net no-op produces no delta");
    }

    #[test]
    fn normalizing_parallel_copies_to_the_min_is_still_a_change() {
        // 0 -> 1 has copies {2, 9}; setting the pair to 2 leaves the
        // effective (min) weight at 2 but rewrites the 9-copy, which
        // k-shortest enumeration observes — the delta must survive so the
        // caller publishes the new graph.
        let g = diamond();
        let (g2, deltas) = g
            .with_updated_weights(&[WeightUpdate {
                from: 0,
                to: 1,
                weight: 2,
            }])
            .unwrap();
        assert_eq!(
            deltas,
            vec![EdgeDelta {
                from: 0,
                to: 1,
                old_weight: 2,
                new_weight: 2
            }]
        );
        let copies: Vec<Weight> = g2
            .out_edges(0)
            .iter()
            .filter(|e| e.to == 1)
            .map(|e| e.weight)
            .collect();
        assert_eq!(copies, vec![2, 2]);
        // A single-copy pair set to its current weight stays a true no-op.
        let (_, deltas) = g
            .with_updated_weights(&[WeightUpdate {
                from: 0,
                to: 2,
                weight: 5,
            }])
            .unwrap();
        assert!(deltas.is_empty());
    }

    #[test]
    fn rejects_missing_edges_and_bad_nodes() {
        let g = diamond();
        assert_eq!(
            g.with_updated_weights(&[WeightUpdate {
                from: 3,
                to: 0,
                weight: 1
            }])
            .unwrap_err(),
            UpdateError::NoSuchEdge { from: 3, to: 0 }
        );
        assert_eq!(
            g.with_updated_weights(&[WeightUpdate {
                from: 9,
                to: 0,
                weight: 1
            }])
            .unwrap_err(),
            UpdateError::NodeOutOfRange {
                node: 9,
                node_count: 4
            }
        );
    }
}
