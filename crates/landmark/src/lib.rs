//! Landmark (ALT) lower-bound index — §4.2 of the paper.
//!
//! A landmark set `L ⊆ V` with precomputed forward distance tables
//! `δ(w, ·)` for every `w ∈ L` yields, via the triangle inequality
//! `δ(w, u) + δ(u, v) ≥ δ(w, v)`, the lower bound
//!
//! ```text
//! lb(u, v) = max_{w ∈ L} ( δ(w, v) − δ(w, u) )        (clamped at 0)
//! ```
//!
//! For a whole destination set `V_T` the paper's Eq. (2) first collapses the
//! per-landmark distances to the *virtual target* `t`:
//! `δ(w, t) = min_{v ∈ V_T} δ(w, v)`, computed once per query in
//! `O(|L|·|V_T|)`, after which each `lb(u, V_T)` costs `O(|L|)`. The naive
//! Eq. (1) (`min_v max_w …`, `O(|L|·|V_T|)` per estimate) is kept as
//! [`QueryBounds::lb_to_targets_eq1`] for the tightness/throughput ablation.
//!
//! The index is built offline ([`LandmarkIndex::build`]) in
//! `O(|L|·(m + n log n))` with `O(|L|·n)` space, exactly as stated in the
//! paper's "Remarks & Time Complexity".
//!
//! Beside the landmark tables the crate keeps the other kind of distance
//! row a server amortizes over a query stream: a [`TargetRow`], the exact
//! `d(v, V_T)` for one recurring target set. Both kinds are repaired
//! after a weight-update batch by the same code (the `repair` module).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod repair;
mod target_row;

pub use repair::{RepairScratch, RepairStats};
pub use target_row::TargetRow;

use kpj_graph::{Graph, GraphError, Length, NodeId, SectionBuf, INFINITE_LENGTH};
use kpj_sp::DenseDijkstra;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How landmarks are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// The paper's method (following Goldberg and Harrelson, SODA'05): pick a
    /// random start node, take the
    /// farthest node from it as the first landmark, then iteratively add
    /// the node farthest from the current landmark set.
    Farthest,
    /// Uniformly random landmarks (baseline for the ablation).
    Random,
}

/// The offline landmark index: `|L|` forward distance tables.
///
/// The tables are a [`SectionBuf`]: heap-backed when built online,
/// zero-copy views into an mmap'd v2 graph file when loaded by `kpj-store`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LandmarkIndex {
    landmarks: Vec<NodeId>,
    /// Row-major `|L| × n`: `tables[l * n + v] = δ(landmarks[l], v)`.
    tables: SectionBuf<Length>,
    node_count: usize,
}

impl LandmarkIndex {
    /// Build an index with `count` landmarks (capped at `n`).
    ///
    /// `seed` makes the random start (and `Random` strategy) reproducible.
    pub fn build(g: &Graph, count: usize, strategy: SelectionStrategy, seed: u64) -> Self {
        let n = g.node_count();
        let count = count.min(n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut landmarks: Vec<NodeId> = Vec::with_capacity(count);
        let mut tables: Vec<Length> = Vec::with_capacity(count * n);

        if n == 0 || count == 0 {
            return Self::from_parts(landmarks, tables, n);
        }

        match strategy {
            SelectionStrategy::Random => {
                let mut chosen = vec![false; n];
                while landmarks.len() < count {
                    let v = rng.gen_range(0..n);
                    if !chosen[v] {
                        chosen[v] = true;
                        landmarks.push(v as NodeId);
                    }
                }
                for &l in &landmarks {
                    tables.extend(DenseDijkstra::from_source(g, l).into_dist());
                }
            }
            SelectionStrategy::Farthest => {
                // min_dist[v] = distance from the landmark set to v
                // (∞ ranks as farthest, so other components get covered).
                let start = rng.gen_range(0..n) as NodeId;
                let d0 = DenseDijkstra::from_source(g, start).into_dist();
                let first = farthest(&d0, &mut rng);
                let min_dist_first = DenseDijkstra::from_source(g, first).into_dist();
                let mut min_dist = min_dist_first.clone();
                landmarks.push(first);
                tables.extend(min_dist_first);
                while landmarks.len() < count {
                    let next = farthest(&min_dist, &mut rng);
                    if landmarks.contains(&next) {
                        // Whole graph already at distance 0 from the set:
                        // no farther node exists, stop early.
                        break;
                    }
                    let d = DenseDijkstra::from_source(g, next).into_dist();
                    for (m, &dv) in min_dist.iter_mut().zip(&d) {
                        *m = (*m).min(dv);
                    }
                    landmarks.push(next);
                    tables.extend(d);
                }
            }
        }
        Self::from_parts(landmarks, tables, n)
    }

    /// The chosen landmark nodes.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Number of landmarks `|L|`.
    pub fn len(&self) -> usize {
        self.landmarks.len()
    }

    /// True if the index has no landmarks (all bounds degrade to 0).
    pub fn is_empty(&self) -> bool {
        self.landmarks.is_empty()
    }

    /// Node universe size the index was built for.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The distance table row of landmark `l` (`δ(w_l, ·)`).
    #[inline]
    fn row(&self, l: usize) -> &[Length] {
        &self.tables[l * self.node_count..(l + 1) * self.node_count]
    }

    /// `δ(w_l, v)` for the `l`-th landmark — the raw table entry. Exposed
    /// so callers can derive custom bound combinations (e.g. the GKPJ
    /// virtual-source bound `max_w ( δ(w,v) − max_{s ∈ V_S} δ(w,s) )`).
    #[inline]
    pub fn landmark_distance(&self, l: usize, v: NodeId) -> Length {
        self.row(l)[v as usize]
    }

    /// `lb(u, v)`: a lower bound on `δ(u, v)`.
    ///
    /// Per-landmark terms: with `δ(w,u) = ∞` the landmark proves nothing
    /// (skipped); with `δ(w,u) < ∞` but `δ(w,v) = ∞`, `v` is provably
    /// unreachable from `u` (else `w` would reach it through `u`) and the
    /// bound is [`INFINITE_LENGTH`].
    pub fn lower_bound(&self, u: NodeId, v: NodeId) -> Length {
        let mut lb: Length = 0;
        for l in 0..self.landmarks.len() {
            let row = self.row(l);
            let du = row[u as usize];
            if du == INFINITE_LENGTH {
                continue;
            }
            let dv = row[v as usize];
            if dv == INFINITE_LENGTH {
                return INFINITE_LENGTH;
            }
            lb = lb.max(dv.saturating_sub(du));
        }
        lb
    }

    /// Reassemble an index from freshly computed raw parts.
    pub(crate) fn from_parts(
        landmarks: Vec<NodeId>,
        tables: Vec<Length>,
        node_count: usize,
    ) -> Self {
        debug_assert_eq!(tables.len(), landmarks.len() * node_count);
        LandmarkIndex {
            landmarks,
            tables: tables.into(),
            node_count,
        }
    }

    /// Reassemble an index from validated raw parts, e.g. landmark ids
    /// parsed from a v2 file header plus a zero-copy mapped table section.
    pub fn from_raw(
        landmarks: Vec<NodeId>,
        tables: SectionBuf<Length>,
        node_count: usize,
    ) -> Result<Self, GraphError> {
        let bad = |message: String| GraphError::Parse { line: 0, message };
        if tables.len() != landmarks.len() * node_count {
            return Err(bad(format!(
                "landmark table has {} entries, want |L|·n = {}·{}",
                tables.len(),
                landmarks.len(),
                node_count
            )));
        }
        if let Some(&l) = landmarks.iter().find(|&&l| l as usize >= node_count) {
            return Err(GraphError::NodeOutOfRange {
                node: l as u64,
                node_count: node_count as u64,
            });
        }
        Ok(LandmarkIndex {
            landmarks,
            tables,
            node_count,
        })
    }

    /// The raw row-major `|L| × n` distance table (what the v2 writer
    /// serializes).
    pub fn tables(&self) -> &[Length] {
        &self.tables
    }

    /// True if the distance tables are backed by a memory mapping.
    pub fn is_mapped(&self) -> bool {
        self.tables.is_mapped()
    }

    /// Per-query preprocessing for a destination set: computes
    /// `δ(w, t) = min_{v ∈ V_T} δ(w, v)` for every landmark in
    /// `O(|L| · |V_T|)` (the paper's initialization phase).
    pub fn for_targets(&self, targets: &[NodeId]) -> QueryBounds<'_> {
        self.for_targets_reusing(targets, Vec::new())
    }

    /// [`for_targets`](LandmarkIndex::for_targets) into a caller-pooled
    /// buffer (cleared first; get it back with
    /// [`QueryBounds::into_buffer`]), so a warmed engine builds its
    /// per-query bounds without allocating.
    pub fn for_targets_reusing(
        &self,
        targets: &[NodeId],
        mut dist_to_t: Vec<Length>,
    ) -> QueryBounds<'_> {
        dist_to_t.clear();
        dist_to_t.extend((0..self.landmarks.len()).map(|l| {
            let row = self.row(l);
            targets
                .iter()
                .map(|&v| row[v as usize])
                .min()
                .unwrap_or(INFINITE_LENGTH)
        }));
        QueryBounds {
            index: self,
            dist_to_t,
        }
    }
}

/// Index of the maximum value, breaking ties randomly; `∞` ranks highest.
fn farthest(dist: &[Length], rng: &mut SmallRng) -> NodeId {
    let mut best = 0usize;
    let mut ties = 1u32;
    for (i, &d) in dist.iter().enumerate().skip(1) {
        if d > dist[best] {
            best = i;
            ties = 1;
        } else if d == dist[best] {
            ties += 1;
            if rng.gen_range(0..ties) == 0 {
                best = i;
            }
        }
    }
    best as NodeId
}

/// Per-query lower-bound oracle for one destination set (Eq. (2)).
#[derive(Debug, Clone)]
pub struct QueryBounds<'a> {
    index: &'a LandmarkIndex,
    /// `dist_to_t[l] = δ(w_l, t)`.
    dist_to_t: Vec<Length>,
}

impl QueryBounds<'_> {
    /// Eq. (2): `lb(u, V_T) = max_w ( δ(w, t) − δ(w, u) )` in `O(|L|)`.
    ///
    /// Returns [`INFINITE_LENGTH`] when some landmark proves `V_T`
    /// unreachable from `u`, and 0 when no landmark proves anything.
    pub fn lb_to_targets(&self, u: NodeId) -> Length {
        let mut lb: Length = 0;
        for (l, &dt) in self.dist_to_t.iter().enumerate() {
            let du = self.index.row(l)[u as usize];
            if du == INFINITE_LENGTH {
                continue;
            }
            if dt == INFINITE_LENGTH {
                return INFINITE_LENGTH;
            }
            lb = lb.max(dt.saturating_sub(du));
        }
        lb
    }

    /// Eq. (1): `lb(u, V_T) = min_{v ∈ V_T} lb(u, v)` in `O(|L| · |V_T|)`.
    ///
    /// Tighter than Eq. (2) but too slow for hot loops (the paper's reason
    /// for introducing Eq. (2)); kept for the ablation benchmark.
    pub fn lb_to_targets_eq1(&self, u: NodeId, targets: &[NodeId]) -> Length {
        targets
            .iter()
            .map(|&v| self.index.lower_bound(u, v))
            .min()
            .unwrap_or(INFINITE_LENGTH)
    }

    /// The underlying offline index.
    pub fn index(&self) -> &LandmarkIndex {
        self.index
    }

    /// Give back the per-landmark buffer for the next
    /// [`LandmarkIndex::for_targets_reusing`].
    pub fn into_buffer(self) -> Vec<Length> {
        self.dist_to_t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_graph::GraphBuilder;

    fn grid3x3() -> Graph {
        // 3×3 bidirectional grid, unit weights.
        let mut b = GraphBuilder::new(9);
        for r in 0..3u32 {
            for c in 0..3u32 {
                let v = r * 3 + c;
                if c + 1 < 3 {
                    b.add_bidirectional(v, v + 1, 1).unwrap();
                }
                if r + 1 < 3 {
                    b.add_bidirectional(v, v + 3, 1).unwrap();
                }
            }
        }
        b.build()
    }

    fn true_dist(g: &Graph, u: NodeId, v: NodeId) -> Length {
        DenseDijkstra::from_source(g, u).dist(v)
    }

    #[test]
    fn bounds_are_valid_lower_bounds() {
        let g = grid3x3();
        for strategy in [SelectionStrategy::Farthest, SelectionStrategy::Random] {
            let idx = LandmarkIndex::build(&g, 3, strategy, 7);
            assert_eq!(idx.len(), 3);
            for u in g.nodes() {
                for v in g.nodes() {
                    assert!(
                        idx.lower_bound(u, v) <= true_dist(&g, u, v),
                        "lb({u},{v}) exceeds true distance ({strategy:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn landmark_to_anywhere_bound_is_exact() {
        let g = grid3x3();
        let idx = LandmarkIndex::build(&g, 2, SelectionStrategy::Farthest, 1);
        // From a landmark itself the bound must equal the true distance.
        let w = idx.landmarks()[0];
        for v in g.nodes() {
            assert_eq!(idx.lower_bound(w, v), true_dist(&g, w, v));
        }
    }

    #[test]
    fn eq2_matches_definition_and_is_dominated_by_eq1() {
        let g = grid3x3();
        let idx = LandmarkIndex::build(&g, 3, SelectionStrategy::Farthest, 3);
        let targets = [2u32, 6];
        let qb = idx.for_targets(&targets);
        for u in g.nodes() {
            let true_to_set = targets.iter().map(|&t| true_dist(&g, u, t)).min().unwrap();
            let lb2 = qb.lb_to_targets(u);
            let lb1 = qb.lb_to_targets_eq1(u, &targets);
            assert!(lb2 <= true_to_set, "Eq.(2) must lower-bound δ(u, V_T)");
            assert!(lb1 <= true_to_set, "Eq.(1) must lower-bound δ(u, V_T)");
            assert!(lb2 <= lb1, "Eq.(2) is never tighter than Eq.(1)");
        }
    }

    #[test]
    fn unreachable_targets_give_infinite_bound() {
        // Two components: 0-1 and 2-3.
        let mut b = GraphBuilder::new(4);
        b.add_bidirectional(0, 1, 1).unwrap();
        b.add_bidirectional(2, 3, 1).unwrap();
        let g = b.build();
        // Farthest selection jumps across components, so with 2 landmarks
        // both components hold one.
        let idx = LandmarkIndex::build(&g, 2, SelectionStrategy::Farthest, 5);
        let qb = idx.for_targets(&[3]);
        assert_eq!(qb.lb_to_targets(0), INFINITE_LENGTH);
        assert!(qb.lb_to_targets(2) <= 1);
    }

    #[test]
    fn empty_target_set_is_unreachable() {
        let g = grid3x3();
        let idx = LandmarkIndex::build(&g, 2, SelectionStrategy::Farthest, 5);
        let qb = idx.for_targets(&[]);
        assert_eq!(qb.lb_to_targets(0), INFINITE_LENGTH);
        assert_eq!(qb.lb_to_targets_eq1(0, &[]), INFINITE_LENGTH);
    }

    #[test]
    fn zero_landmarks_degrade_to_zero_bounds() {
        let g = grid3x3();
        let idx = LandmarkIndex::build(&g, 0, SelectionStrategy::Farthest, 5);
        assert!(idx.is_empty());
        assert_eq!(idx.lower_bound(0, 8), 0);
        let qb = idx.for_targets(&[8]);
        assert_eq!(qb.lb_to_targets(0), 0);
    }

    #[test]
    fn farthest_selection_spreads_landmarks() {
        let g = grid3x3();
        let idx = LandmarkIndex::build(&g, 2, SelectionStrategy::Farthest, 11);
        let [a, b] = [idx.landmarks()[0], idx.landmarks()[1]];
        // In a 3×3 grid two farthest-selected landmarks are ≥ 2 apart.
        assert!(true_dist(&g, a, b) >= 2, "landmarks {a},{b} too close");
    }

    #[test]
    fn count_capped_at_node_count() {
        let g = grid3x3();
        let idx = LandmarkIndex::build(&g, 100, SelectionStrategy::Random, 2);
        assert!(idx.len() <= 9);
    }

    #[test]
    fn build_is_deterministic_for_a_seed() {
        let g = grid3x3();
        let a = LandmarkIndex::build(&g, 4, SelectionStrategy::Farthest, 9);
        let b = LandmarkIndex::build(&g, 4, SelectionStrategy::Farthest, 9);
        assert_eq!(a.landmarks(), b.landmarks());
    }

    #[test]
    fn from_raw_validates_shape() {
        let g = grid3x3();
        let idx = LandmarkIndex::build(&g, 2, SelectionStrategy::Farthest, 1);
        let rebuilt = LandmarkIndex::from_raw(
            idx.landmarks().to_vec(),
            idx.tables().to_vec().into(),
            idx.node_count(),
        )
        .unwrap();
        assert_eq!(rebuilt, idx);
        assert!(LandmarkIndex::from_raw(vec![0], vec![1, 2, 3].into(), 9).is_err());
        assert!(LandmarkIndex::from_raw(vec![99], vec![0; 9].into(), 9).is_err());
    }
}
