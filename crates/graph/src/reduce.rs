//! Offline graph reduction: degree-2 chain contraction plus V_S/V_T
//! reachability pruning, after Yamane–Kitajima's GR approach (see
//! PAPERS.md). Road networks are dominated by corridors of degree-2
//! nodes that no *simple* path can branch off of; contracting each
//! corridor into a single shortcut edge — and dropping every node that
//! cannot lie on any `V_S → V_T` path — shrinks the search graph the
//! KPJ engines run on while preserving the exact top-k answer.
//!
//! ## Exactness
//!
//! The workspace's path semantics make two normalizations free:
//!
//! * **Parallel edges** collapse to their minimum-weight copy. Paths are
//!   deduplicated by node sequence and a hop's length is
//!   [`Graph::edge_weight`] (the min over copies), so no answer can
//!   observe a non-min copy.
//! * **Self-loops** are dropped: a simple path never uses one.
//!
//! On the normalized graph, a node `c` with exactly one in-neighbour `a`
//! and one out-neighbour `b` (`a ≠ b ≠ c`) — or the bidirectional twin
//! case, in/out-neighbour set exactly `{a, b}` — lies on a `V_S → V_T`
//! simple path only as the interior of an `a → c → b` hop pair. It is
//! contracted into a shortcut `a → b` carrying an **expansion chain**:
//! the interior original node ids plus prefix weights (cumulative
//! distance from the chain's tail), so re-expansion recovers the
//! original node sequence and per-hop weights exactly. Contraction is
//! skipped when the shortcut pair already exists (the reduced graph must
//! stay normalized — one edge per pair — or two distinct original node
//! sequences would alias one reduced hop) or when the chain's total
//! weight would overflow the `u32` edge-weight domain.
//!
//! ## Id spaces
//!
//! A [`Reduction`] is a partial bijection `original ↔ reduced`. The
//! expansion chains store **original** ids, so an expanded path is
//! already in the original (external) id space — a reduced store file
//! never carries a separate `NodeRemap`; locality reordering of the
//! reduced graph is folded into the reduction via
//! [`Reduction::remapped`]. See `DESIGN.md` §15.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use crate::csr::{EdgeRef, Graph};
use crate::remap::NodeRemap;
use crate::section::SectionBuf;
use crate::types::NodeId;
use crate::update::WeightUpdate;

/// Sentinel in `orig_to_red` / the interior map: node was removed (pruned
/// or contracted) / node is not an interior.
pub const REDUCED_REMOVED: u32 = u32::MAX;

/// The mapping produced by [`reduce`]: which original nodes survive,
/// what they are called in the reduced graph, and — per reduced edge —
/// the chain of contracted original nodes the edge stands for.
///
/// Expansion data is stored struct-of-arrays, indexed by the reduced
/// graph's **forward CSR edge index**, so it serializes directly as
/// page-aligned v2 sections and loads zero-copy.
pub struct Reduction {
    /// `original id → reduced id`, [`REDUCED_REMOVED`] if removed.
    orig_to_red: SectionBuf<u32>,
    /// `reduced id → original id`; length is the reduced node count.
    red_to_orig: SectionBuf<u32>,
    /// Per forward edge of the reduced graph: `exp_offsets[e]..exp_offsets[e+1]`
    /// indexes the interior slice in `exp_nodes`/`exp_prefix`. Length is
    /// `edge_count + 1`; empty range ⇒ the edge is an original edge.
    exp_offsets: SectionBuf<u32>,
    /// Interior **original** node ids, tail→head order per chain.
    exp_nodes: SectionBuf<u32>,
    /// `exp_prefix[i]`: distance from the chain's tail to `exp_nodes[i]`.
    /// The distance to the chain's head is the shortcut edge's weight.
    exp_prefix: SectionBuf<u32>,
    /// Lazy: `original id → one reduced edge index whose chain contains
    /// it` ([`REDUCED_REMOVED`] if not an interior). Built on first
    /// update translation; a bidirectional interior also lives in the
    /// stored edge's twin, which lookups must check. It depends only on
    /// topology, so clones and the copies [`translate_updates`] makes
    /// share one map: a batch that rewrote prefix sums does not make the
    /// next batch rebuild it.
    ///
    /// [`translate_updates`]: Reduction::translate_updates
    interior_of: Arc<OnceLock<Box<[u32]>>>,
}

impl Clone for Reduction {
    fn clone(&self) -> Self {
        Reduction {
            orig_to_red: self.orig_to_red.clone(),
            red_to_orig: self.red_to_orig.clone(),
            exp_offsets: self.exp_offsets.clone(),
            exp_nodes: self.exp_nodes.clone(),
            exp_prefix: self.exp_prefix.clone(),
            interior_of: Arc::clone(&self.interior_of),
        }
    }
}

impl PartialEq for Reduction {
    fn eq(&self, other: &Self) -> bool {
        self.orig_to_red == other.orig_to_red
            && self.red_to_orig == other.red_to_orig
            && self.exp_offsets == other.exp_offsets
            && self.exp_nodes == other.exp_nodes
            && self.exp_prefix == other.exp_prefix
    }
}

impl Eq for Reduction {}

impl std::fmt::Debug for Reduction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reduction")
            .field("original_nodes", &self.original_node_count())
            .field("reduced_nodes", &self.reduced_node_count())
            .field("shortcuts", &self.shortcut_count())
            .field("interiors", &self.interior_count())
            .finish()
    }
}

/// Borrowed reduction sections in serialization order:
/// `(orig_to_red, red_to_orig, exp_offsets, exp_nodes, exp_prefix)`.
pub type ReductionSections<'a> = (&'a [u32], &'a [u32], &'a [u32], &'a [u32], &'a [u32]);

/// A reduced graph together with the [`Reduction`] that produced it.
pub struct Reduced {
    /// The contracted, pruned, normalized graph the engines run on.
    pub graph: Graph,
    /// The original ↔ reduced mapping plus expansion chains.
    pub reduction: Reduction,
}

/// Errors from [`Reduction::translate_updates`] or
/// [`Reduction::from_sections`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReduceError {
    /// An update references a node id outside the *original* graph.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the original graph.
        node_count: usize,
    },
    /// An update references a `(from, to)` pair that is neither a kept
    /// edge nor a hop of any contracted chain.
    NoSuchEdge {
        /// Tail of the missing edge.
        from: NodeId,
        /// Head of the missing edge.
        to: NodeId,
    },
    /// Applying the update would push a contracted chain's total weight
    /// past `u32::MAX`, which the shortcut edge cannot represent.
    WeightOverflow {
        /// Tail of the updated hop.
        from: NodeId,
        /// Head of the updated hop.
        to: NodeId,
    },
    /// Serialized reduction sections are inconsistent with each other or
    /// with the reduced graph they were loaded against.
    Corrupt(String),
}

impl std::fmt::Display for ReduceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReduceError::NodeOutOfRange { node, node_count } => write!(
                f,
                "update references node {node}, original graph has {node_count} nodes"
            ),
            ReduceError::NoSuchEdge { from, to } => {
                write!(f, "no edge {from} -> {to} in the original graph")
            }
            ReduceError::WeightOverflow { from, to } => write!(
                f,
                "updating hop {from} -> {to} overflows its chain's u32 total weight"
            ),
            ReduceError::Corrupt(msg) => write!(f, "corrupt reduction sections: {msg}"),
        }
    }
}

impl std::error::Error for ReduceError {}

/// A weight-update batch translated into the reduced id space by
/// [`Reduction::translate_updates`].
pub struct TranslatedUpdates {
    /// Updates to apply to the **reduced** graph (kept-edge updates plus
    /// one per touched contracted shortcut, carrying the new total).
    pub updates: Vec<WeightUpdate>,
    /// A replacement [`Reduction`] with repaired expansion prefix sums,
    /// present iff the batch hit a chain interior.
    pub reduction: Option<Reduction>,
    /// Updates silently dropped because an endpoint was pruned away: a
    /// pruned edge cannot lie on any `V_S → V_T` path, so no answer the
    /// reduced graph can produce observes its weight.
    pub dropped: usize,
}

impl Reduction {
    /// Node count of the original graph.
    pub fn original_node_count(&self) -> usize {
        self.orig_to_red.len()
    }

    /// Node count of the reduced graph.
    pub fn reduced_node_count(&self) -> usize {
        self.red_to_orig.len()
    }

    /// Number of original nodes absorbed into expansion chains.
    pub fn interior_count(&self) -> usize {
        // Bidirectional twins both list the interior; count distinct.
        self.exp_nodes.len()
    }

    /// Number of reduced edges that are contracted shortcuts.
    pub fn shortcut_count(&self) -> usize {
        self.exp_offsets.windows(2).filter(|w| w[1] > w[0]).count()
    }

    /// Map an original node id to its reduced id, `None` if the node was
    /// pruned or contracted away.
    pub fn to_reduced(&self, original: NodeId) -> Option<NodeId> {
        match self.orig_to_red.get(original as usize) {
            Some(&r) if r != REDUCED_REMOVED => Some(r),
            _ => None,
        }
    }

    /// Map a reduced node id back to its original id.
    ///
    /// # Panics
    /// If `reduced` is out of range for the reduced graph.
    pub fn to_original(&self, reduced: NodeId) -> NodeId {
        self.red_to_orig[reduced as usize]
    }

    /// True if the original node was absorbed into some expansion chain
    /// (as opposed to pruned or kept).
    pub fn is_interior(&self, original: NodeId) -> bool {
        self.interior_map()[original as usize] != REDUCED_REMOVED
    }

    /// The raw SoA sections, in serialization order:
    /// `(orig_to_red, red_to_orig, exp_offsets, exp_nodes, exp_prefix)`.
    pub fn sections(&self) -> ReductionSections<'_> {
        (
            &self.orig_to_red,
            &self.red_to_orig,
            &self.exp_offsets,
            &self.exp_nodes,
            &self.exp_prefix,
        )
    }

    /// True if every section is a zero-copy view into a mapping.
    pub fn is_fully_mapped(&self) -> bool {
        self.orig_to_red.is_mapped()
            && self.red_to_orig.is_mapped()
            && self.exp_offsets.is_mapped()
            && self.exp_nodes.is_mapped()
            && self.exp_prefix.is_mapped()
    }

    /// Reassemble a reduction from (possibly memory-mapped) sections,
    /// validating consistency against the **reduced** graph `g` in
    /// `O(n + m + interiors)` with no allocation.
    pub fn from_sections(
        orig_to_red: SectionBuf<u32>,
        red_to_orig: SectionBuf<u32>,
        exp_offsets: SectionBuf<u32>,
        exp_nodes: SectionBuf<u32>,
        exp_prefix: SectionBuf<u32>,
        g: &Graph,
    ) -> Result<Self, ReduceError> {
        let corrupt = |msg: String| ReduceError::Corrupt(msg);
        let n_orig = orig_to_red.len();
        let n_red = red_to_orig.len();
        if n_red != g.node_count() {
            return Err(corrupt(format!(
                "red_to_orig has {n_red} entries, reduced graph has {} nodes",
                g.node_count()
            )));
        }
        if n_red > n_orig {
            return Err(corrupt(format!(
                "reduced node count {n_red} exceeds original {n_orig}"
            )));
        }
        if exp_offsets.len() != g.edge_count() + 1 {
            return Err(corrupt(format!(
                "exp_offsets has {} entries, want edge_count + 1 = {}",
                exp_offsets.len(),
                g.edge_count() + 1
            )));
        }
        if exp_offsets.first() != Some(&0) {
            return Err(corrupt("exp_offsets does not start at 0".into()));
        }
        if exp_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(corrupt("exp_offsets is not monotone".into()));
        }
        let interiors = *exp_offsets.last().expect("len >= 1") as usize;
        if exp_nodes.len() != interiors || exp_prefix.len() != interiors {
            return Err(corrupt(format!(
                "expansion arrays have {} / {} entries, offsets end at {interiors}",
                exp_nodes.len(),
                exp_prefix.len()
            )));
        }
        let mut kept = 0usize;
        for (o, &r) in orig_to_red.iter().enumerate() {
            if r == REDUCED_REMOVED {
                continue;
            }
            kept += 1;
            if red_to_orig.get(r as usize) != Some(&(o as u32)) {
                return Err(corrupt(format!(
                    "orig_to_red[{o}] = {r} but red_to_orig does not map back"
                )));
            }
        }
        if kept != n_red {
            return Err(corrupt(format!(
                "orig_to_red keeps {kept} nodes, red_to_orig lists {n_red}"
            )));
        }
        let edges = g.sections().1;
        for (e, w) in exp_offsets.windows(2).enumerate() {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            if lo == hi {
                continue;
            }
            let total = edges[e].weight;
            let mut prev = 0u32;
            for i in lo..hi {
                let node = exp_nodes[i] as usize;
                if node >= n_orig || orig_to_red[node] != REDUCED_REMOVED {
                    return Err(corrupt(format!(
                        "edge {e} interior {} is not a removed original node",
                        exp_nodes[i]
                    )));
                }
                let p = exp_prefix[i];
                if p < prev || p > total {
                    return Err(corrupt(format!(
                        "edge {e} prefix {p} not in [{prev}, {total}]"
                    )));
                }
                prev = p;
            }
        }
        Ok(Reduction {
            orig_to_red,
            red_to_orig,
            exp_offsets,
            exp_nodes,
            exp_prefix,
            interior_of: Arc::default(),
        })
    }

    /// Forward-CSR edge index of the (unique, normalized) reduced edge
    /// `u → v`, if it exists.
    pub fn pair_index(g: &Graph, u: NodeId, v: NodeId) -> Option<usize> {
        let base = g.sections().0[u as usize] as usize;
        g.out_edges(u)
            .iter()
            .position(|e| e.to == v)
            .map(|i| base + i)
    }

    fn exp_range(&self, e: usize) -> (usize, usize) {
        (
            self.exp_offsets[e] as usize,
            self.exp_offsets[e + 1] as usize,
        )
    }

    /// Interior original node ids of the reduced edge `u → v`
    /// (tail→head), empty if the hop is an original edge or absent.
    pub fn expand_hop(&self, g: &Graph, u: NodeId, v: NodeId) -> &[u32] {
        match Self::pair_index(g, u, v) {
            Some(e) => {
                let (lo, hi) = self.exp_range(e);
                &self.exp_nodes[lo..hi]
            }
            None => &[],
        }
    }

    /// Expand a reduced-id node sequence into the original id space,
    /// splicing each shortcut's interior chain between its endpoints.
    /// Reuses `out` (cleared first): zero allocations once its capacity
    /// has warmed up.
    pub fn expand_path(&self, g: &Graph, reduced: &[NodeId], out: &mut Vec<NodeId>) {
        out.clear();
        let Some((&first, rest)) = reduced.split_first() else {
            return;
        };
        out.push(self.to_original(first));
        let mut prev = first;
        for &v in rest {
            if let Some(e) = Self::pair_index(g, prev, v) {
                let (lo, hi) = self.exp_range(e);
                out.extend_from_slice(&self.exp_nodes[lo..hi]);
            }
            out.push(self.to_original(v));
            prev = v;
        }
    }

    fn interior_map(&self) -> &[u32] {
        self.interior_of.get_or_init(|| {
            let mut map = vec![REDUCED_REMOVED; self.orig_to_red.len()].into_boxed_slice();
            for (e, w) in self.exp_offsets.windows(2).enumerate() {
                for i in w[0] as usize..w[1] as usize {
                    let node = self.exp_nodes[i] as usize;
                    if map[node] == REDUCED_REMOVED {
                        map[node] = e as u32;
                    }
                }
            }
            map
        })
    }

    /// Tail node of forward edge `e`: the reduced node whose out-range
    /// contains `e` (binary search over the offset array).
    fn edge_tail(g: &Graph, e: usize) -> NodeId {
        let offsets = g.sections().0;
        // partition_point gives the first node whose range starts past e.
        (offsets.partition_point(|&o| o as usize <= e) - 1) as NodeId
    }

    /// The reverse-direction twin of edge `e` (edge `head → tail` with a
    /// nonempty chain), if the contraction was bidirectional.
    fn twin_shortcut(&self, g: &Graph, e: usize) -> Option<usize> {
        let tail = Self::edge_tail(g, e);
        let head = g.sections().1[e].to;
        let t = Self::pair_index(g, head, tail)?;
        let (lo, hi) = self.exp_range(t);
        (lo < hi).then_some(t)
    }

    /// Locate original hop `a → b` inside chain of edge `e`: returns the
    /// position `j` such that the chain node sequence `s` (tail, interiors,
    /// head — all original ids) has `s[j] == a && s[j+1] == b`.
    fn hop_in_chain(&self, g: &Graph, e: usize, a: NodeId, b: NodeId) -> Option<usize> {
        let tail = self.to_original(Self::edge_tail(g, e));
        let head = self.to_original(g.sections().1[e].to);
        let (lo, hi) = self.exp_range(e);
        let len = hi - lo;
        let seq = |j: usize| -> NodeId {
            if j == 0 {
                tail
            } else if j <= len {
                self.exp_nodes[lo + j - 1]
            } else {
                head
            }
        };
        (0..=len).find(|&j| seq(j) == a && seq(j + 1) == b)
    }

    /// Translate a weight-update batch from the **original** id space to
    /// the reduced graph `g`:
    ///
    /// * both endpoints kept, plain edge → passed through in reduced ids;
    /// * a hop interior to a contracted chain → the chain's prefix sums
    ///   are repaired copy-on-write and one update per touched shortcut
    ///   (carrying its new total) is emitted — no re-reduction;
    /// * either endpoint pruned → counted in `dropped` and ignored (a
    ///   pruned edge cannot affect any answer the keep set can ask for);
    /// * anything else → [`ReduceError::NoSuchEdge`].
    ///
    /// Like [`Graph::with_updated_weights`], the batch is atomic: any
    /// invalid entry fails the whole call.
    pub fn translate_updates(
        &self,
        g: &Graph,
        updates: &[WeightUpdate],
    ) -> Result<TranslatedUpdates, ReduceError> {
        let n_orig = self.orig_to_red.len();
        let mut out: Vec<WeightUpdate> = Vec::new();
        let mut dropped = 0usize;
        // Copy-on-write prefix array plus running totals per touched
        // shortcut, so repeated hits on one chain compose correctly.
        let mut prefix: Option<Vec<u32>> = None;
        let mut totals: Vec<(usize, u32)> = Vec::new();
        let pruned = |node: NodeId| {
            self.orig_to_red[node as usize] == REDUCED_REMOVED
                && self.interior_map()[node as usize] == REDUCED_REMOVED
        };
        for u in updates {
            for node in [u.from, u.to] {
                if node as usize >= n_orig {
                    return Err(ReduceError::NodeOutOfRange {
                        node,
                        node_count: n_orig,
                    });
                }
            }
            if u.from == u.to {
                // Reduction drops self-loops — a simple path can never
                // traverse one, so no answer observes their weight. The
                // dropped loop leaves no trace to validate against, so
                // any self-loop update is accepted as a no-op.
                dropped += 1;
                continue;
            }
            let (ra, rb) = (
                self.orig_to_red[u.from as usize],
                self.orig_to_red[u.to as usize],
            );
            if ra != REDUCED_REMOVED && rb != REDUCED_REMOVED {
                match Self::pair_index(g, ra, rb) {
                    Some(e) if self.exp_range(e).0 == self.exp_range(e).1 => {
                        out.push(WeightUpdate {
                            from: ra,
                            to: rb,
                            weight: u.weight,
                        });
                        continue;
                    }
                    // A kept→kept pair that is a shortcut (or absent)
                    // was never an original edge: the no-collision rule
                    // forbids contracting onto an existing pair.
                    _ => {
                        return Err(ReduceError::NoSuchEdge {
                            from: u.from,
                            to: u.to,
                        })
                    }
                }
            }
            // At least one endpoint is gone: interior hop or pruned edge.
            let mut located = None;
            'search: for x in [u.from, u.to] {
                let e0 = self.interior_map()[x as usize];
                if e0 == REDUCED_REMOVED {
                    continue;
                }
                for e in std::iter::once(e0 as usize).chain(self.twin_shortcut(g, e0 as usize)) {
                    if let Some(hop) = self.hop_in_chain(g, e, u.from, u.to) {
                        located = Some((e, hop));
                        break 'search;
                    }
                }
            }
            let Some((e, hop)) = located else {
                if pruned(u.from) || pruned(u.to) {
                    dropped += 1;
                    continue;
                }
                return Err(ReduceError::NoSuchEdge {
                    from: u.from,
                    to: u.to,
                });
            };
            let pf = prefix.get_or_insert_with(|| self.exp_prefix.to_vec());
            let total = match totals.iter_mut().find(|(te, _)| *te == e) {
                Some(entry) => entry,
                None => {
                    totals.push((e, g.sections().1[e].weight));
                    totals.last_mut().expect("just pushed")
                }
            };
            let (lo, hi) = self.exp_range(e);
            let len = hi - lo;
            // Chain distances: d(0) = 0, d(j) = prefix[j-1] for interior
            // positions, d(len+1) = the running total.
            let d = |pf: &[u32], j: usize| -> u64 {
                if j == 0 {
                    0
                } else if j <= len {
                    pf[lo + j - 1] as u64
                } else {
                    total.1 as u64
                }
            };
            let old_hop = d(pf, hop + 1) - d(pf, hop);
            let diff = u.weight as i64 - old_hop as i64;
            let new_total = total.1 as i64 + diff;
            if !(0..=u32::MAX as i64).contains(&new_total) {
                return Err(ReduceError::WeightOverflow {
                    from: u.from,
                    to: u.to,
                });
            }
            for j in (hop + 1)..=len {
                pf[lo + j - 1] = (pf[lo + j - 1] as i64 + diff) as u32;
            }
            total.1 = new_total as u32;
        }
        // Emit one reduced-space update per touched shortcut.
        for &(e, total) in &totals {
            out.push(WeightUpdate {
                from: Self::edge_tail(g, e),
                to: g.sections().1[e].to,
                weight: total,
            });
        }
        let reduction = prefix.map(|pf| Reduction {
            orig_to_red: self.orig_to_red.clone(),
            red_to_orig: self.red_to_orig.clone(),
            exp_offsets: self.exp_offsets.clone(),
            exp_nodes: self.exp_nodes.clone(),
            exp_prefix: pf.into(),
            interior_of: Arc::clone(&self.interior_of),
        });
        Ok(TranslatedUpdates {
            updates: out,
            reduction,
            dropped,
        })
    }

    /// Fold a locality reorder of the reduced graph into the reduction:
    /// `old_g` is the reduced graph this reduction describes, `remap`
    /// renames its nodes (`to_internal`), `new_g` is the reordered
    /// reduced graph. The result maps original ids straight to the new
    /// reduced ids — reduced store files carry no separate remap.
    ///
    /// # Panics
    /// If `remap`/`new_g` are inconsistent with `old_g` (every old edge
    /// must exist under the renamed endpoints).
    pub fn remapped(&self, old_g: &Graph, remap: &NodeRemap, new_g: &Graph) -> Reduction {
        let rename = |old: NodeId| -> NodeId {
            remap
                .to_internal(old)
                .expect("remap covers every reduced node")
        };
        let mut orig_to_red = self.orig_to_red.to_vec();
        for r in orig_to_red.iter_mut() {
            if *r != REDUCED_REMOVED {
                *r = rename(*r);
            }
        }
        let n_red = self.red_to_orig.len();
        let mut red_to_orig = vec![0u32; n_red];
        for (old, &orig) in self.red_to_orig.iter().enumerate() {
            red_to_orig[rename(old as NodeId) as usize] = orig;
        }
        // Re-bucket expansion slices into the new graph's edge order.
        let m = new_g.edge_count();
        let mut ranges: Vec<(u32, u32)> = vec![(0, 0); m];
        for (e, w) in self.exp_offsets.windows(2).enumerate() {
            if w[0] == w[1] {
                continue;
            }
            let u = rename(Self::edge_tail(old_g, e));
            let v = rename(old_g.sections().1[e].to);
            let ne = Self::pair_index(new_g, u, v).expect("reordered graph keeps every edge");
            ranges[ne] = (w[0], w[1]);
        }
        let mut exp_offsets = Vec::with_capacity(m + 1);
        let mut exp_nodes = Vec::with_capacity(self.exp_nodes.len());
        let mut exp_prefix = Vec::with_capacity(self.exp_prefix.len());
        exp_offsets.push(0u32);
        for &(lo, hi) in &ranges {
            exp_nodes.extend_from_slice(&self.exp_nodes[lo as usize..hi as usize]);
            exp_prefix.extend_from_slice(&self.exp_prefix[lo as usize..hi as usize]);
            exp_offsets.push(exp_nodes.len() as u32);
        }
        Reduction {
            orig_to_red: orig_to_red.into(),
            red_to_orig: red_to_orig.into(),
            exp_offsets: exp_offsets.into(),
            exp_nodes: exp_nodes.into(),
            exp_prefix: exp_prefix.into(),
            interior_of: Arc::default(),
        }
    }
}

/// Working adjacency entry during contraction. `exp` indexes the
/// interim expansion table, `u32::MAX` for original edges.
struct WEdge {
    to: u32,
    weight: u32,
    exp: u32,
}

const NO_EXP: u32 = u32::MAX;

/// Reachability sweep: every node reachable from `set` following the
/// chosen direction.
fn reach(g: &Graph, set: &[NodeId], forward: bool) -> Vec<bool> {
    let n = g.node_count();
    let mut seen = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    for &s in set {
        if !seen[s as usize] {
            seen[s as usize] = true;
            stack.push(s);
        }
    }
    while let Some(u) = stack.pop() {
        let edges = if forward {
            g.out_edges(u)
        } else {
            g.in_edges(u)
        };
        for e in edges {
            if !seen[e.to as usize] {
                seen[e.to as usize] = true;
                stack.push(e.to);
            }
        }
    }
    seen
}

/// Reduce `g` for queries whose sources come from `v_s` and targets from
/// `v_t`: prune nodes that cannot lie on any `v_s → v_t` path (nodes in
/// the keep set `v_s ∪ v_t` are always kept), normalize parallel edges
/// to their min copy, drop self-loops, then contract degree-2 chains.
/// An empty `v_s`/`v_t` disables the corresponding reachability prune
/// (queries may then start/end anywhere among kept nodes).
///
/// # Panics
/// If a keep node is out of range for `g`.
pub fn reduce(g: &Graph, v_s: &[NodeId], v_t: &[NodeId]) -> Reduced {
    let n = g.node_count();
    let mut keep = vec![false; n];
    for &v in v_s.iter().chain(v_t) {
        assert!(
            (v as usize) < n,
            "keep node {v} out of range for {n}-node graph"
        );
        keep[v as usize] = true;
    }
    // --- V_S / V_T pruning -------------------------------------------
    let mut alive = vec![true; n];
    if !v_s.is_empty() {
        let r = reach(g, v_s, true);
        for (a, r) in alive.iter_mut().zip(&r) {
            *a &= *r;
        }
    }
    if !v_t.is_empty() {
        let r = reach(g, v_t, false);
        for (a, r) in alive.iter_mut().zip(&r) {
            *a &= *r;
        }
    }
    for (a, k) in alive.iter_mut().zip(&keep) {
        *a |= *k;
    }
    // --- normalized working adjacency --------------------------------
    // Per-pair min copy, no self-loops, dead endpoints dropped. `inn`
    // mirrors `out` (same weight + expansion id per edge).
    let mut out: Vec<Vec<WEdge>> = Vec::with_capacity(n);
    for u in 0..n {
        let mut row: Vec<WEdge> = Vec::new();
        if alive[u] {
            let mut targets: Vec<(u32, u32)> = g
                .out_edges(u as NodeId)
                .iter()
                .filter(|e| alive[e.to as usize] && e.to as usize != u)
                .map(|e| (e.to, e.weight))
                .collect();
            targets.sort_unstable();
            for (to, weight) in targets {
                match row.last_mut() {
                    Some(last) if last.to == to => {} // non-min parallel copy
                    _ => row.push(WEdge {
                        to,
                        weight,
                        exp: NO_EXP,
                    }),
                }
            }
        }
        out.push(row);
    }
    let mut inn: Vec<Vec<WEdge>> = (0..n).map(|_| Vec::new()).collect();
    for (u, row) in out.iter().enumerate() {
        for e in row {
            inn[e.to as usize].push(WEdge {
                to: u as u32,
                weight: e.weight,
                exp: e.exp,
            });
        }
    }
    // --- chain contraction -------------------------------------------
    let mut exps: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    let mut removed = vec![false; n];
    let mut queued = vec![false; n];
    let mut queue: VecDeque<u32> = VecDeque::new();
    for u in 0..n {
        if alive[u] && !keep[u] {
            queued[u] = true;
            queue.push_back(u as u32);
        }
    }
    // Build the concatenated chain for shortcut a→…→c→…→b out of the
    // halves' expansions (NO_EXP = empty) and the first half's weight.
    let cat = |exps: &[(Vec<u32>, Vec<u32>)], e1: u32, w1: u32, c: u32, e2: u32| {
        let empty: (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        let h1 = if e1 == NO_EXP {
            &empty
        } else {
            &exps[e1 as usize]
        };
        let h2 = if e2 == NO_EXP {
            &empty
        } else {
            &exps[e2 as usize]
        };
        let mut nodes = Vec::with_capacity(h1.0.len() + 1 + h2.0.len());
        let mut prefix = Vec::with_capacity(nodes.capacity());
        nodes.extend_from_slice(&h1.0);
        prefix.extend_from_slice(&h1.1);
        nodes.push(c);
        prefix.push(w1);
        nodes.extend_from_slice(&h2.0);
        prefix.extend(h2.1.iter().map(|&p| p + w1));
        (nodes, prefix)
    };
    let drop_edge = |rows: &mut [Vec<WEdge>], u: u32, to: u32| {
        let row = &mut rows[u as usize];
        let i = row
            .iter()
            .position(|e| e.to == to)
            .expect("edge present in both mirrors");
        row.remove(i);
    };
    while let Some(c) = queue.pop_front() {
        let ci = c as usize;
        queued[ci] = false;
        if removed[ci] || keep[ci] || !alive[ci] {
            continue;
        }
        enum Plan {
            Directed { a: u32, b: u32 },
            Bidi { a: u32, b: u32 },
        }
        let plan = match (inn[ci].len(), out[ci].len()) {
            (1, 1) if inn[ci][0].to != out[ci][0].to => Plan::Directed {
                a: inn[ci][0].to,
                b: out[ci][0].to,
            },
            (2, 2) => {
                let mut i = [inn[ci][0].to, inn[ci][1].to];
                let mut o = [out[ci][0].to, out[ci][1].to];
                i.sort_unstable();
                o.sort_unstable();
                if i == o && i[0] != i[1] {
                    Plan::Bidi { a: i[0], b: i[1] }
                } else {
                    continue;
                }
            }
            _ => continue,
        };
        let find = |row: &[WEdge], to: u32| -> (u32, u32) {
            let e = row.iter().find(|e| e.to == to).expect("neighbour edge");
            (e.weight, e.exp)
        };
        let has_pair =
            |out: &[Vec<WEdge>], u: u32, v: u32| out[u as usize].iter().any(|e| e.to == v);
        let requeue: [Option<u32>; 2];
        match plan {
            Plan::Directed { a, b } => {
                let (w1, e1) = find(&inn[ci], a); // a → c
                let (w2, e2) = find(&out[ci], b); // c → b
                let total = w1 as u64 + w2 as u64;
                if total > u32::MAX as u64 || has_pair(&out, a, b) {
                    continue;
                }
                let (nodes, prefix) = cat(&exps, e1, w1, c, e2);
                let x = exps.len() as u32;
                exps.push((nodes, prefix));
                drop_edge(&mut out, a, c);
                drop_edge(&mut inn, c, a);
                drop_edge(&mut out, c, b);
                drop_edge(&mut inn, b, c);
                out[a as usize].push(WEdge {
                    to: b,
                    weight: total as u32,
                    exp: x,
                });
                inn[b as usize].push(WEdge {
                    to: a,
                    weight: total as u32,
                    exp: x,
                });
                removed[ci] = true;
                requeue = [Some(a), Some(b)];
            }
            Plan::Bidi { a, b } => {
                let (wac, eac) = find(&inn[ci], a); // a → c
                let (wcb, ecb) = find(&out[ci], b); // c → b
                let (wbc, ebc) = find(&inn[ci], b); // b → c
                let (wca, eca) = find(&out[ci], a); // c → a
                let t_ab = wac as u64 + wcb as u64;
                let t_ba = wbc as u64 + wca as u64;
                if t_ab > u32::MAX as u64
                    || t_ba > u32::MAX as u64
                    || has_pair(&out, a, b)
                    || has_pair(&out, b, a)
                {
                    continue;
                }
                let (n_ab, p_ab) = cat(&exps, eac, wac, c, ecb);
                let (n_ba, p_ba) = cat(&exps, ebc, wbc, c, eca);
                let x_ab = exps.len() as u32;
                exps.push((n_ab, p_ab));
                let x_ba = exps.len() as u32;
                exps.push((n_ba, p_ba));
                drop_edge(&mut out, a, c);
                drop_edge(&mut out, b, c);
                drop_edge(&mut out, c, a);
                drop_edge(&mut out, c, b);
                drop_edge(&mut inn, c, a);
                drop_edge(&mut inn, c, b);
                drop_edge(&mut inn, a, c);
                drop_edge(&mut inn, b, c);
                out[a as usize].push(WEdge {
                    to: b,
                    weight: t_ab as u32,
                    exp: x_ab,
                });
                inn[b as usize].push(WEdge {
                    to: a,
                    weight: t_ab as u32,
                    exp: x_ab,
                });
                out[b as usize].push(WEdge {
                    to: a,
                    weight: t_ba as u32,
                    exp: x_ba,
                });
                inn[a as usize].push(WEdge {
                    to: b,
                    weight: t_ba as u32,
                    exp: x_ba,
                });
                removed[ci] = true;
                requeue = [Some(a), Some(b)];
            }
        }
        for v in requeue.into_iter().flatten() {
            let vi = v as usize;
            if !keep[vi] && !removed[vi] && !queued[vi] {
                queued[vi] = true;
                queue.push_back(v);
            }
        }
    }
    // --- compact to CSR ----------------------------------------------
    let mut orig_to_red = vec![REDUCED_REMOVED; n];
    let mut red_to_orig: Vec<u32> = Vec::new();
    for u in 0..n {
        if alive[u] && !removed[u] {
            orig_to_red[u] = red_to_orig.len() as u32;
            red_to_orig.push(u as u32);
        }
    }
    let n_red = red_to_orig.len();
    let m_red: usize = red_to_orig.iter().map(|&o| out[o as usize].len()).sum();
    let mut out_offsets = Vec::with_capacity(n_red + 1);
    let mut out_edges: Vec<EdgeRef> = Vec::with_capacity(m_red);
    let mut exp_offsets = Vec::with_capacity(m_red + 1);
    let mut exp_nodes: Vec<u32> = Vec::new();
    let mut exp_prefix: Vec<u32> = Vec::new();
    out_offsets.push(0u32);
    exp_offsets.push(0u32);
    for &o in &red_to_orig {
        // Deterministic edge order regardless of contraction history.
        out[o as usize].sort_unstable_by_key(|e| e.to);
        for e in &out[o as usize] {
            out_edges.push(EdgeRef {
                to: orig_to_red[e.to as usize],
                weight: e.weight,
            });
            if e.exp != NO_EXP {
                let (nodes, prefix) = &exps[e.exp as usize];
                exp_nodes.extend_from_slice(nodes);
                exp_prefix.extend_from_slice(prefix);
            }
            exp_offsets.push(exp_nodes.len() as u32);
        }
        out_offsets.push(out_edges.len() as u32);
    }
    // Reverse CSR by counting sort over heads.
    let mut in_deg = vec![0u32; n_red];
    for e in &out_edges {
        in_deg[e.to as usize] += 1;
    }
    let mut in_offsets = Vec::with_capacity(n_red + 1);
    in_offsets.push(0u32);
    for d in &in_deg {
        in_offsets.push(in_offsets.last().unwrap() + d);
    }
    let mut cursor: Vec<u32> = in_offsets[..n_red].to_vec();
    let mut in_edges = vec![EdgeRef { to: 0, weight: 0 }; m_red];
    for u in 0..n_red {
        let (lo, hi) = (out_offsets[u] as usize, out_offsets[u + 1] as usize);
        for e in &out_edges[lo..hi] {
            let slot = cursor[e.to as usize] as usize;
            cursor[e.to as usize] += 1;
            in_edges[slot] = EdgeRef {
                to: u as u32,
                weight: e.weight,
            };
        }
    }
    let graph = Graph::from_csr(
        out_offsets.into_boxed_slice(),
        out_edges.into_boxed_slice(),
        in_offsets.into_boxed_slice(),
        in_edges.into_boxed_slice(),
    );
    let reduction = Reduction {
        orig_to_red: orig_to_red.into(),
        red_to_orig: red_to_orig.into(),
        exp_offsets: exp_offsets.into(),
        exp_nodes: exp_nodes.into(),
        exp_prefix: exp_prefix.into(),
        interior_of: Arc::default(),
    };
    Reduced { graph, reduction }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn corridor(n: u32) -> Graph {
        // 0 ↔ 1 ↔ … ↔ n-1, weights i+1 on hop i in both directions.
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_bidirectional(i, i + 1, i + 1).unwrap();
        }
        b.build()
    }

    #[test]
    fn bidirectional_corridor_contracts_to_endpoints() {
        let g = corridor(5);
        let red = reduce(&g, &[0], &[4]);
        assert_eq!(red.graph.node_count(), 2);
        assert_eq!(red.graph.edge_count(), 2);
        let r = &red.reduction;
        assert_eq!(r.to_reduced(0), Some(0));
        assert_eq!(r.to_reduced(4), Some(1));
        assert_eq!(r.to_reduced(2), None);
        assert!(r.is_interior(2));
        // Total weight 1+2+3+4 = 10 both ways.
        assert_eq!(red.graph.edge_weight(0, 1), Some(10));
        assert_eq!(red.graph.edge_weight(1, 0), Some(10));
        assert_eq!(r.expand_hop(&red.graph, 0, 1), &[1, 2, 3]);
        assert_eq!(r.expand_hop(&red.graph, 1, 0), &[3, 2, 1]);
        let mut out = Vec::new();
        r.expand_path(&red.graph, &[0, 1], &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        r.expand_path(&red.graph, &[1, 0], &mut out);
        assert_eq!(out, vec![4, 3, 2, 1, 0]);
        // Prefix sums: distance from tail to each interior.
        let e = Reduction::pair_index(&red.graph, 0, 1).unwrap();
        let (lo, hi) = r.exp_range(e);
        assert_eq!(&r.sections().4[lo..hi], &[1, 3, 6]);
    }

    #[test]
    fn directed_chain_contracts() {
        // 0 → 1 → 2 → 3 plus a direct return edge 3 → 0.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 5).unwrap();
        b.add_edge(1, 2, 7).unwrap();
        b.add_edge(2, 3, 2).unwrap();
        b.add_edge(3, 0, 1).unwrap();
        let g = b.build();
        let red = reduce(&g, &[0], &[3]);
        assert_eq!(red.graph.node_count(), 2);
        assert_eq!(red.graph.edge_weight(0, 1), Some(14));
        assert_eq!(
            red.reduction.expand_hop(&red.graph, 0, 1),
            &[1, 2],
            "interior chain in tail→head order"
        );
    }

    #[test]
    fn existing_shortcut_pair_blocks_contraction() {
        // Triangle 0 → 1 → 2 with a direct 0 → 2: contracting 1 would
        // alias two distinct node sequences onto the pair (0, 2).
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        b.add_edge(0, 2, 5).unwrap();
        let g = b.build();
        let red = reduce(&g, &[0], &[2]);
        assert_eq!(red.graph.node_count(), 3, "node 1 must survive");
        assert_eq!(red.reduction.shortcut_count(), 0);
    }

    #[test]
    fn self_loops_and_parallel_edges_normalize_away() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 4).unwrap();
        b.add_edge(0, 1, 2).unwrap(); // parallel, min copy 2
        b.add_edge(1, 1, 9).unwrap(); // self-loop on the chain node
        b.add_edge(1, 2, 3).unwrap();
        let g = b.build();
        let red = reduce(&g, &[0], &[2]);
        assert_eq!(red.graph.node_count(), 2);
        assert_eq!(red.graph.edge_weight(0, 1), Some(5), "2 + 3 via min copy");
        assert_eq!(red.reduction.expand_hop(&red.graph, 0, 1), &[1]);
    }

    #[test]
    fn unreachable_regions_are_pruned_but_keep_nodes_survive() {
        // 0 → 1 → 2; 3 → 4 disconnected; 5 isolated but kept.
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        b.add_edge(3, 4, 1).unwrap();
        let g = b.build();
        let red = reduce(&g, &[0, 5], &[2]);
        let r = &red.reduction;
        assert!(r.to_reduced(3).is_none());
        assert!(r.to_reduced(4).is_none());
        assert!(r.to_reduced(5).is_some(), "keep nodes are never pruned");
        // Node 1 is a directed degree-2 interior and contracts away.
        assert_eq!(red.graph.node_count(), 3); // 0, 2, 5
        assert!(r.is_interior(1));
    }

    #[test]
    fn cycle_back_to_the_same_neighbour_is_not_contracted() {
        // 0 → 1 → 0: node 1 has in {0} and out {0}; contraction would
        // create a self-loop shortcut.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 0, 1).unwrap();
        let g = b.build();
        let red = reduce(&g, &[0], &[0]);
        assert_eq!(red.graph.node_count(), 2);
        assert_eq!(red.reduction.shortcut_count(), 0);
    }

    #[test]
    fn translate_direct_interior_pruned_and_missing() {
        // Corridor 0..=4 kept at {0, 4}, plus a pruned appendage 5 → 2
        // (cannot be reached from 0) and a kept-pair direct edge 0 → 4.
        let mut b = GraphBuilder::new(6);
        for i in 0..4u32 {
            b.add_bidirectional(i, i + 1, 10).unwrap();
        }
        b.add_edge(5, 2, 1).unwrap();
        b.add_edge(0, 4, 100).unwrap();
        let g = b.build();
        let red = reduce(&g, &[0], &[4]);
        let (rg, r) = (&red.graph, &red.reduction);
        // Direct edge 0 → 4 blocks contraction onto (0, 4)? No: the
        // corridor is bidirectional so contraction targets both (0,4)
        // and (4,0); (0,4) exists ⇒ the last chain node survives.
        // Whatever the final shape, updates must round-trip:
        let t = r
            .translate_updates(
                rg,
                &[WeightUpdate {
                    from: 0,
                    to: 4,
                    weight: 50,
                }],
            )
            .unwrap();
        assert_eq!(t.updates.len(), 1);
        assert!(t.reduction.is_none());
        assert_eq!(t.dropped, 0);
        // Interior hop 1 → 2 (some chain contains it).
        let t = r
            .translate_updates(
                rg,
                &[WeightUpdate {
                    from: 1,
                    to: 2,
                    weight: 25,
                }],
            )
            .unwrap();
        assert!(t.reduction.is_some(), "prefix repair expected");
        assert_eq!(t.dropped, 0);
        // Pruned edge 5 → 2 is dropped silently.
        let t = r
            .translate_updates(
                rg,
                &[WeightUpdate {
                    from: 5,
                    to: 2,
                    weight: 1,
                }],
            )
            .unwrap();
        assert_eq!(t.dropped, 1);
        assert!(t.updates.is_empty());
        // A pair that never existed errors.
        assert!(matches!(
            r.translate_updates(
                rg,
                &[WeightUpdate {
                    from: 0,
                    to: 3,
                    weight: 1
                }]
            ),
            Err(ReduceError::NoSuchEdge { from: 0, to: 3 })
        ));
        assert!(matches!(
            r.translate_updates(
                rg,
                &[WeightUpdate {
                    from: 9,
                    to: 0,
                    weight: 1
                }]
            ),
            Err(ReduceError::NodeOutOfRange { node: 9, .. })
        ));
    }

    #[test]
    fn interior_update_repairs_prefix_sums_exactly() {
        let g = corridor(5); // hops 1, 2, 3, 4
        let red = reduce(&g, &[0], &[4]);
        let (rg, r) = (&red.graph, &red.reduction);
        // Set hop 2 → 3 (weight 3) to 30 — applies to both directions'
        // chains? No: updates are directed; 2 → 3 lives in the 0→4 chain
        // at hop index 2 and in the 4→0 chain as... the 4→0 chain walks
        // 4, 3, 2, 1, 0 — its hops are (3,2), (2,1), (1,0) reversed:
        // hop (2,3) does NOT appear there. Only the forward chain moves.
        let t = r
            .translate_updates(
                rg,
                &[WeightUpdate {
                    from: 2,
                    to: 3,
                    weight: 30,
                }],
            )
            .unwrap();
        assert_eq!(t.dropped, 0);
        assert_eq!(t.updates.len(), 1);
        let u = t.updates[0];
        // Forward shortcut total: 1 + 2 + 30 + 4 = 37.
        assert_eq!(u.weight, 37);
        let nr = t.reduction.unwrap();
        let e = Reduction::pair_index(rg, u.from, u.to).unwrap();
        let (lo, hi) = nr.exp_range(e);
        assert_eq!(&nr.sections().4[lo..hi], &[1, 3, 33]);
        // And the untouched reverse chain keeps its prefixes.
        let t2 = nr
            .translate_updates(
                rg,
                &[WeightUpdate {
                    from: 3,
                    to: 2,
                    weight: 7,
                }],
            )
            .unwrap();
        let u2 = t2.updates[0];
        assert_eq!(u2.weight, 1 + 2 + 7 + 4); // reverse hops 4,3,(3→2 now 7),1...
    }

    #[test]
    fn translated_copies_share_the_interior_map() {
        let g = corridor(7);
        let red = reduce(&g, &[0], &[6]);
        let (rg, r) = (&red.graph, &red.reduction);
        let hop = |from, to, weight| WeightUpdate { from, to, weight };
        let t = r.translate_updates(rg, &[hop(2, 3, 30)]).unwrap();
        let next = t.reduction.expect("an interior hop rewrites prefix sums");
        assert!(r.interior_of.get().is_some(), "translation built the map");
        assert!(Arc::ptr_eq(&r.interior_of, &next.interior_of));
        let copy = next.clone();
        assert!(Arc::ptr_eq(&r.interior_of, &copy.interior_of));
        // The next interior batch, on the updated graph, translates as it
        // does on a fresh copy that builds its own map.
        let (rg2, _) = rg.with_updated_weights(&t.updates).unwrap();
        let (a, b, c, d, e) = next.sections();
        let fresh = Reduction::from_sections(
            a.to_vec().into(),
            b.to_vec().into(),
            c.to_vec().into(),
            d.to_vec().into(),
            e.to_vec().into(),
            &rg2,
        )
        .unwrap();
        assert!(fresh.interior_of.get().is_none());
        let batch = [hop(4, 5, 9), hop(5, 4, 2), hop(1, 2, 6)];
        let shared = next.translate_updates(&rg2, &batch).unwrap();
        let own = fresh.translate_updates(&rg2, &batch).unwrap();
        assert_eq!(shared.updates, own.updates);
        assert_eq!(shared.dropped, own.dropped);
        assert_eq!(shared.reduction, own.reduction);
        let shared_next = shared.reduction.expect("interior batch");
        assert!(Arc::ptr_eq(&r.interior_of, &shared_next.interior_of));
        assert!(!Arc::ptr_eq(&r.interior_of, &fresh.interior_of));
    }

    #[test]
    fn reverse_chain_update_totals_are_exact() {
        let g = corridor(5);
        let red = reduce(&g, &[0], &[4]);
        let (rg, r) = (&red.graph, &red.reduction);
        // Reverse chain 4 → 3 → 2 → 1 → 0 hops: (4,3)=4, (3,2)=3,
        // (2,1)=2, (1,0)=1. Update (3,2) to 7: total 4+7+2+1 = 14.
        let t = r
            .translate_updates(
                rg,
                &[WeightUpdate {
                    from: 3,
                    to: 2,
                    weight: 7,
                }],
            )
            .unwrap();
        assert_eq!(t.updates.len(), 1);
        assert_eq!(t.updates[0].weight, 14);
    }

    #[test]
    fn chain_total_overflow_is_rejected() {
        let g = corridor(5);
        let red = reduce(&g, &[0], &[4]);
        assert!(matches!(
            red.reduction.translate_updates(
                &red.graph,
                &[WeightUpdate {
                    from: 1,
                    to: 2,
                    weight: u32::MAX
                }]
            ),
            Err(ReduceError::WeightOverflow { from: 1, to: 2 })
        ));
    }

    #[test]
    fn contraction_skips_overflowing_totals() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, u32::MAX - 1).unwrap();
        b.add_edge(1, 2, 2).unwrap();
        let g = b.build();
        let red = reduce(&g, &[0], &[2]);
        assert_eq!(
            red.graph.node_count(),
            3,
            "u32 overflow blocks the shortcut"
        );
    }

    #[test]
    fn sections_round_trip_through_from_sections() {
        let g = corridor(7);
        let red = reduce(&g, &[0], &[6]);
        let (a, b, c, d, e) = red.reduction.sections();
        let back = Reduction::from_sections(
            a.to_vec().into(),
            b.to_vec().into(),
            c.to_vec().into(),
            d.to_vec().into(),
            e.to_vec().into(),
            &red.graph,
        )
        .unwrap();
        assert_eq!(back, red.reduction);
        // Corrupt: truncate red_to_orig.
        assert!(Reduction::from_sections(
            a.to_vec().into(),
            b[..1].to_vec().into(),
            c.to_vec().into(),
            d.to_vec().into(),
            e.to_vec().into(),
            &red.graph,
        )
        .is_err());
    }

    #[test]
    fn remapped_folds_a_reorder_into_the_reduction() {
        // Corridor with a stub so the reduced graph has 3 nodes to permute.
        let mut b = GraphBuilder::new(6);
        for i in 0..4u32 {
            b.add_bidirectional(i, i + 1, 1).unwrap();
        }
        b.add_bidirectional(4, 5, 1).unwrap();
        let g = b.build();
        let red = reduce(&g, &[0, 5], &[4]);
        let n_red = red.graph.node_count();
        // Reverse permutation as the "reorder".
        let old_to_new: Vec<u32> = (0..n_red as u32).rev().collect();
        let remap = NodeRemap::from_old_to_new(old_to_new.clone()).unwrap();
        // Build the permuted graph by hand.
        let mut nb = GraphBuilder::new(n_red);
        let (offs, edges, _, _) = red.graph.sections();
        for u in 0..n_red {
            for e in &edges[offs[u] as usize..offs[u + 1] as usize] {
                nb.add_edge(old_to_new[u], old_to_new[e.to as usize], e.weight)
                    .unwrap();
            }
        }
        let ng = nb.build();
        let nr = red.reduction.remapped(&red.graph, &remap, &ng);
        // Expansion must be preserved under renaming.
        let mut want = Vec::new();
        let mut got = Vec::new();
        for u in 0..n_red as u32 {
            for e in red.graph.out_edges(u) {
                red.reduction.expand_path(&red.graph, &[u, e.to], &mut want);
                nr.expand_path(
                    &ng,
                    &[old_to_new[u as usize], old_to_new[e.to as usize]],
                    &mut got,
                );
                assert_eq!(want, got, "hop {u} -> {}", e.to);
            }
        }
        assert_eq!(
            nr.to_reduced(0),
            Some(old_to_new[red.reduction.to_reduced(0).unwrap() as usize])
        );
    }

    #[test]
    fn empty_keep_sets_disable_pruning() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1).unwrap();
        let g = b.build();
        let red = reduce(&g, &[], &[]);
        assert_eq!(red.graph.node_count(), 3, "no pruning without keep sets");
    }
}
