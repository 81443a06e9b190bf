//! [`PathSet`]: a flat, arena-backed collection of result paths, and
//! [`PathRef`], the borrowed view handed to consumers.
//!
//! A query's answer is `k` paths. Holding them as `Vec<Path>` costs two
//! heap allocations per path (the `Vec<NodeId>` plus the outer slot
//! growth); a [`PathSet`] instead packs every node sequence into one
//! shared buffer with `(start, len, length)` spans, so a warmed-up set
//! absorbs a whole answer without touching the allocator.

use crate::csr::Graph;
use crate::path::{validate_nodes, Path};
use crate::types::{Length, NodeId};

/// A borrowed view of one path inside a [`PathSet`] (or any node slice).
///
/// `Copy`, so it can be passed around freely; convert to an owned
/// [`Path`] with [`PathRef::to_path`] at trust boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathRef<'a> {
    /// The node sequence, source first.
    pub nodes: &'a [NodeId],
    /// Total weight of the constituent edges.
    pub length: Length,
}

impl<'a> PathRef<'a> {
    /// Source node `v_1`.
    ///
    /// # Panics
    /// Panics on an empty node sequence (never produced by this workspace).
    pub fn source(&self) -> NodeId {
        *self.nodes.first().expect("path has at least one node")
    }

    /// Destination node `v_l`.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("path has at least one node")
    }

    /// Number of edges (`l − 1`).
    pub fn edge_count(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// True if all nodes are distinct (Def. in §2: a *simple* path).
    /// Quadratic in the (short) path length, but allocation-free.
    pub fn is_simple(&self) -> bool {
        self.nodes
            .iter()
            .enumerate()
            .all(|(i, v)| !self.nodes[..i].contains(v))
    }

    /// Same check as [`Path::validate`], without materializing.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        validate_nodes(g, self.nodes, self.length)
    }

    /// Copy into an owned [`Path`].
    pub fn to_path(&self) -> Path {
        Path {
            nodes: self.nodes.to_vec(),
            length: self.length,
        }
    }
}

impl std::fmt::Display for PathRef<'_> {
    /// `v0 -> v1 -> … (length L)`, identical to [`Path`]'s format.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, v) in self.nodes.iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, " (length {})", self.length)
    }
}

/// One span of the flat node buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
    length: Length,
}

/// An ordered collection of paths in one flat buffer.
///
/// ```
/// use kpj_graph::PathSet;
/// let mut set = PathSet::new();
/// set.push(&[0, 1, 2], 7);
/// set.push(&[0, 3], 9);
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.path(0).nodes, [0, 1, 2]);
/// let lengths: Vec<u64> = set.iter().map(|p| p.length).collect();
/// assert_eq!(lengths, vec![7, 9]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathSet {
    nodes: Vec<NodeId>,
    spans: Vec<Span>,
}

impl PathSet {
    /// An empty set.
    pub fn new() -> PathSet {
        PathSet::default()
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no paths are held.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total node count summed over every path (the flat buffer's size) —
    /// e.g. for pre-sizing serialization buffers.
    pub fn total_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Release the buffers' spare capacity, for a set kept long after
    /// it was filled.
    pub fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
        self.spans.shrink_to_fit();
    }

    /// Drop all paths, keeping both allocations.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.spans.clear();
    }

    /// Append a path (copies `nodes` into the flat buffer).
    ///
    /// # Panics
    /// Panics if the flat buffer grows past `u32::MAX` nodes.
    pub fn push(&mut self, nodes: &[NodeId], length: Length) {
        let start = u32::try_from(self.nodes.len()).expect("PathSet overflow");
        let len = u32::try_from(nodes.len()).expect("path too long");
        self.nodes.extend_from_slice(nodes);
        self.spans.push(Span { start, len, length });
    }

    /// The `i`-th path.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    pub fn path(&self, i: usize) -> PathRef<'_> {
        let s = self.spans[i];
        PathRef {
            nodes: &self.nodes[s.start as usize..(s.start + s.len) as usize],
            length: s.length,
        }
    }

    /// The `i`-th path, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<PathRef<'_>> {
        (i < self.spans.len()).then(|| self.path(i))
    }

    /// The first (shortest) path, if any.
    pub fn first(&self) -> Option<PathRef<'_>> {
        self.get(0)
    }

    /// The last (k-th) path, if any.
    pub fn last(&self) -> Option<PathRef<'_>> {
        self.len().checked_sub(1).map(|i| self.path(i))
    }

    /// Iterate over the paths in rank order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = PathRef<'_>> {
        (0..self.len()).map(|i| self.path(i))
    }

    /// The length column (handy for agreement checks).
    pub fn lengths(&self) -> Vec<Length> {
        self.spans.iter().map(|s| s.length).collect()
    }

    /// Materialize every path (the owned-`Path` bridge).
    pub fn to_paths(&self) -> Vec<Path> {
        self.iter().map(|p| p.to_path()).collect()
    }
}

impl<'a> IntoIterator for &'a PathSet {
    type Item = PathRef<'a>;
    type IntoIter = PathSetIter<'a>;

    fn into_iter(self) -> PathSetIter<'a> {
        PathSetIter { set: self, next: 0 }
    }
}

/// Iterator over a [`PathSet`]'s paths.
#[derive(Debug, Clone)]
pub struct PathSetIter<'a> {
    set: &'a PathSet,
    next: usize,
}

impl<'a> Iterator for PathSetIter<'a> {
    type Item = PathRef<'a>;

    fn next(&mut self) -> Option<PathRef<'a>> {
        let item = self.set.get(self.next)?;
        self.next += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.set.len() - self.next;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for PathSetIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn push_and_index() {
        let mut s = PathSet::new();
        s.push(&[0, 1, 2], 3);
        s.push(&[5], 0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.path(0).nodes, [0, 1, 2]);
        assert_eq!(s.path(0).length, 3);
        assert_eq!(s.path(1).nodes, [5]);
        assert_eq!(s.first().unwrap().length, 3);
        assert_eq!(s.last().unwrap().length, 0);
        assert_eq!(s.get(2), None);
    }

    #[test]
    fn iteration_orders_and_counts() {
        let mut s = PathSet::new();
        for i in 0..4u64 {
            s.push(&[i as NodeId], i);
        }
        assert_eq!(s.lengths(), vec![0, 1, 2, 3]);
        let via_for: Vec<Length> = (&s).into_iter().map(|p| p.length).collect();
        assert_eq!(via_for, vec![0, 1, 2, 3]);
        assert_eq!(s.iter().len(), 4);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = PathSet::new();
        s.push(&[0, 1, 2, 3], 9);
        let cap = s.nodes.capacity();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.nodes.capacity(), cap);
    }

    #[test]
    fn ref_accessors_and_simplicity() {
        let p = PathRef {
            nodes: &[3, 1, 4],
            length: 9,
        };
        assert_eq!(p.source(), 3);
        assert_eq!(p.destination(), 4);
        assert_eq!(p.edge_count(), 2);
        assert!(p.is_simple());
        assert!(!PathRef {
            nodes: &[0, 1, 0],
            length: 0
        }
        .is_simple());
        assert_eq!(p.to_string(), "3 -> 1 -> 4 (length 9)");
        assert_eq!(p.to_path().nodes, vec![3, 1, 4]);
    }

    #[test]
    fn ref_validate_matches_path_validate() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 2).unwrap();
        b.add_edge(1, 2, 3).unwrap();
        let g = b.build();
        let good = PathRef {
            nodes: &[0, 1, 2],
            length: 5,
        };
        assert!(good.validate(&g).is_ok());
        let bad = PathRef {
            nodes: &[0, 2],
            length: 1,
        };
        assert!(bad.validate(&g).unwrap_err().contains("missing edge"));
    }
}
