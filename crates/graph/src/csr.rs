//! Compressed-sparse-row graph representation with a reverse view.

use crate::error::GraphError;
use crate::section::SectionBuf;
use crate::types::{NodeId, Weight};

/// One outgoing (or incoming) edge as seen from a node.
///
/// `#[repr(C)]` pins the layout to `{to: u32, weight: u32}` little-endian
/// pairs so the v2 binary format (`kpj-store`) can reinterpret file bytes as
/// `[EdgeRef]` without a parse pass.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// The other endpoint: the head for out-edges, the tail for in-edges.
    pub to: NodeId,
    /// Weight of the edge.
    pub weight: Weight,
}

/// An immutable weighted directed graph in CSR form.
///
/// Both the forward adjacency (out-edges) and the reverse adjacency
/// (in-edges) are stored; the reverse view is required by the `DA-SPT`
/// baseline (full reverse SPT), by `PartialSPT` (Alg. 6 runs "in the reverse
/// graph of G") and by the `IterBound-SPTI` search (§5.3 "runs on the
/// reverse graph of G").
///
/// Construct via [`GraphBuilder`](crate::GraphBuilder) or the readers in
/// [`io`](crate::io).
#[derive(Debug, Clone)]
pub struct Graph {
    // Forward CSR.
    out_offsets: SectionBuf<u32>,
    out_edges: SectionBuf<EdgeRef>,
    // Reverse CSR.
    in_offsets: SectionBuf<u32>,
    in_edges: SectionBuf<EdgeRef>,
}

impl Graph {
    pub(crate) fn from_csr(
        out_offsets: Box<[u32]>,
        out_edges: Box<[EdgeRef]>,
        in_offsets: Box<[u32]>,
        in_edges: Box<[EdgeRef]>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), in_offsets.len());
        debug_assert_eq!(out_edges.len(), in_edges.len());
        Graph {
            out_offsets: out_offsets.into(),
            out_edges: out_edges.into(),
            in_offsets: in_offsets.into(),
            in_edges: in_edges.into(),
        }
    }

    /// Assemble a graph from externally produced CSR sections (owned or
    /// memory-mapped), validating every structural invariant the accessors
    /// rely on. This is the entry point the zero-copy v2 loader uses: the
    /// checks run in `O(n + m)` with **no allocation**, so a cold open stays
    /// a bounds-check sweep over the mapped bytes rather than a parse.
    ///
    /// Invariants enforced:
    /// * both offset arrays are non-empty, equal-length, start at 0, end at
    ///   the matching edge count, and are monotone non-decreasing;
    /// * the forward and reverse views agree on `m`;
    /// * every edge endpoint is `< n`.
    pub fn from_sections(
        out_offsets: SectionBuf<u32>,
        out_edges: SectionBuf<EdgeRef>,
        in_offsets: SectionBuf<u32>,
        in_edges: SectionBuf<EdgeRef>,
    ) -> Result<Self, GraphError> {
        let bad = |message: String| GraphError::Parse { line: 0, message };
        if out_offsets.is_empty() || in_offsets.is_empty() {
            return Err(bad("offset arrays must have n+1 entries".into()));
        }
        if out_offsets.len() != in_offsets.len() {
            return Err(bad(format!(
                "forward/reverse node counts disagree: {} vs {}",
                out_offsets.len() - 1,
                in_offsets.len() - 1
            )));
        }
        if out_edges.len() != in_edges.len() {
            return Err(bad(format!(
                "forward/reverse edge counts disagree: {} vs {}",
                out_edges.len(),
                in_edges.len()
            )));
        }
        let n = out_offsets.len() - 1;
        if n >= u32::MAX as usize || out_edges.len() > u32::MAX as usize {
            return Err(bad("graph too large for u32 id space".into()));
        }
        for (name, offsets, edges) in [
            ("out", &out_offsets, &out_edges),
            ("in", &in_offsets, &in_edges),
        ] {
            if offsets[0] != 0 {
                return Err(bad(format!("{name}_offsets[0] must be 0")));
            }
            if offsets[n] as usize != edges.len() {
                return Err(bad(format!(
                    "{name}_offsets end ({}) does not match edge count ({})",
                    offsets[n],
                    edges.len()
                )));
            }
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(bad(format!("{name}_offsets not monotone")));
            }
            if let Some(e) = edges.iter().find(|e| e.to as usize >= n) {
                return Err(GraphError::NodeOutOfRange {
                    node: e.to as u64,
                    node_count: n as u64,
                });
            }
        }
        Ok(Graph {
            out_offsets,
            out_edges,
            in_offsets,
            in_edges,
        })
    }

    /// True if every CSR array is backed by a memory mapping rather than
    /// heap memory (the zero-copy load property; asserted by tests).
    pub fn is_fully_mapped(&self) -> bool {
        self.out_offsets.is_mapped()
            && self.out_edges.is_mapped()
            && self.in_offsets.is_mapped()
            && self.in_edges.is_mapped()
    }

    /// True if every CSR array lives on the heap rather than in a mapping:
    /// a uniquely owned such graph can be recycled as the buffer of a
    /// later version ([`Graph::with_updated_weights_reusing`]).
    pub fn is_owned(&self) -> bool {
        !(self.out_offsets.is_mapped()
            || self.out_edges.is_mapped()
            || self.in_offsets.is_mapped()
            || self.in_edges.is_mapped())
    }

    /// Mutable `(out_edges, in_edges)` of an owned graph; the offsets
    /// (the topology) stay read-only.
    pub(crate) fn edges_mut(&mut self) -> Option<(&mut [EdgeRef], &mut [EdgeRef])> {
        Some((
            self.out_edges.as_mut_slice()?,
            self.in_edges.as_mut_slice()?,
        ))
    }

    /// The raw CSR sections `(out_offsets, out_edges, in_offsets, in_edges)`
    /// — what the v2 writer serializes.
    pub fn sections(&self) -> (&[u32], &[EdgeRef], &[u32], &[EdgeRef]) {
        (
            &self.out_offsets,
            &self.out_edges,
            &self.in_offsets,
            &self.in_edges,
        )
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of directed edges `m = |E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_edges.len()
    }

    /// Iterator over all node ids `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count() as NodeId
    }

    /// Outgoing edges of `u` as a slice (empty if `u` has none).
    ///
    /// # Panics
    /// Panics if `u >= n`.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> &[EdgeRef] {
        let lo = self.out_offsets[u as usize] as usize;
        let hi = self.out_offsets[u as usize + 1] as usize;
        &self.out_edges[lo..hi]
    }

    /// Incoming edges of `u`: each [`EdgeRef::to`] is the *tail* of an edge
    /// `to → u` with the given weight.
    ///
    /// # Panics
    /// Panics if `u >= n`.
    #[inline]
    pub fn in_edges(&self, u: NodeId) -> &[EdgeRef] {
        let lo = self.in_offsets[u as usize] as usize;
        let hi = self.in_offsets[u as usize + 1] as usize;
        &self.in_edges[lo..hi]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_edges(u).len()
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.in_edges(u).len()
    }

    /// The weight of the minimum-weight edge `u → v`, if any such edge exists.
    ///
    /// Linear in `deg(u)`; used by tests and path validation, not by the hot
    /// query paths.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.out_edges(u)
            .iter()
            .filter(|e| e.to == v)
            .map(|e| e.weight)
            .min()
    }

    /// True if the graph contains at least one edge `u → v`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Sum of all edge weights; useful as a finite upper bound on any simple
    /// path length (no simple path can use an edge twice).
    pub fn total_weight(&self) -> u64 {
        self.out_edges.iter().map(|e| e.weight as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn diamond() -> crate::Graph {
        // 0 → 1 → 3, 0 → 2 → 3 and a back edge 3 → 0.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 3, 2).unwrap();
        b.add_edge(0, 2, 3).unwrap();
        b.add_edge(2, 3, 4).unwrap();
        b.add_edge(3, 0, 5).unwrap();
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(3), 1);
        assert_eq!(g.in_degree(0), 1);
    }

    #[test]
    fn forward_and_reverse_views_agree() {
        let g = diamond();
        // Every out-edge (u, v, w) must appear as in-edge (v, u, w).
        for u in g.nodes() {
            for e in g.out_edges(u) {
                assert!(
                    g.in_edges(e.to)
                        .iter()
                        .any(|r| r.to == u && r.weight == e.weight),
                    "missing reverse edge for {u} -> {}",
                    e.to
                );
            }
        }
        let fwd: usize = g.nodes().map(|u| g.out_degree(u)).sum();
        let rev: usize = g.nodes().map(|u| g.in_degree(u)).sum();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn edge_weight_picks_minimum_parallel_edge() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 9).unwrap();
        b.add_edge(0, 1, 4).unwrap();
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(4));
        assert_eq!(g.edge_weight(1, 0), None);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn total_weight_sums_all_edges() {
        assert_eq!(diamond().total_weight(), 1 + 2 + 3 + 4 + 5);
    }

    #[test]
    fn isolated_nodes_have_empty_adjacency() {
        let g = GraphBuilder::new(3).build();
        for u in g.nodes() {
            assert!(g.out_edges(u).is_empty());
            assert!(g.in_edges(u).is_empty());
        }
    }

    #[test]
    fn from_sections_accepts_builder_output() {
        let g = diamond();
        let (oo, oe, io_, ie) = g.sections();
        let g2 = crate::Graph::from_sections(
            oo.to_vec().into(),
            oe.to_vec().into(),
            io_.to_vec().into(),
            ie.to_vec().into(),
        )
        .unwrap();
        for u in g.nodes() {
            assert_eq!(g.out_edges(u), g2.out_edges(u));
            assert_eq!(g.in_edges(u), g2.in_edges(u));
        }
        assert!(!g2.is_fully_mapped());
    }

    #[test]
    fn from_sections_rejects_broken_invariants() {
        use crate::{EdgeRef, Graph};
        let edge = |to, weight| EdgeRef { to, weight };
        // Non-monotone offsets.
        let r = Graph::from_sections(
            vec![0u32, 2, 1].into(),
            vec![edge(1, 1), edge(0, 1)].into(),
            vec![0u32, 1, 2].into(),
            vec![edge(1, 1), edge(0, 1)].into(),
        );
        assert!(r.is_err(), "non-monotone offsets accepted");
        // End offset disagrees with edge count.
        let r = Graph::from_sections(
            vec![0u32, 1, 3].into(),
            vec![edge(1, 1), edge(0, 1)].into(),
            vec![0u32, 1, 2].into(),
            vec![edge(1, 1), edge(0, 1)].into(),
        );
        assert!(r.is_err(), "bad end offset accepted");
        // Edge target out of range.
        let r = Graph::from_sections(
            vec![0u32, 1, 2].into(),
            vec![edge(1, 1), edge(7, 1)].into(),
            vec![0u32, 1, 2].into(),
            vec![edge(1, 1), edge(0, 1)].into(),
        );
        assert!(matches!(r, Err(crate::GraphError::NodeOutOfRange { .. })));
        // Forward/reverse disagree on m.
        let r = Graph::from_sections(
            vec![0u32, 1, 2].into(),
            vec![edge(1, 1), edge(0, 1)].into(),
            vec![0u32, 0, 1].into(),
            vec![edge(1, 1)].into(),
        );
        assert!(r.is_err(), "m mismatch accepted");
        // Empty offsets.
        let r = Graph::from_sections(vec![].into(), vec![].into(), vec![].into(), vec![].into());
        assert!(r.is_err(), "empty offsets accepted");
    }
}
