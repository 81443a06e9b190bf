//! The public query engine: one long-lived object per graph that answers
//! KPJ / KSP / GKPJ queries with any of [`Algorithm::ALL`] — the paper's
//! seven algorithms plus the sidetrack-based `Sidetrack` engine.

use std::sync::Arc;

use kpj_graph::scratch::TimestampedSet;
use kpj_graph::{Graph, Length, NodeId, PathRef, PathSet, PathStore, Reduction, INFINITE_LENGTH};
use kpj_landmark::{LandmarkIndex, TargetRow};
use kpj_obs::{SpanRecord, Stage};
use kpj_sp::{DenseDijkstra, Direction, Estimate, SearchOrder};

use crate::bounds::{SourceLb, TargetsLb};
use crate::deadline::Deadline;
use crate::deviation::{run_deviation, CandidateScratch, DeviationMode};
use crate::paradigms::{run_best_first, run_iter_bound, PlainOracle, SubspaceOracle};
use crate::pseudo_tree::{PseudoTree, VIRTUAL_NODE};
use crate::search_core::{CollectSink, PathSink, SubspaceCtx, SubspaceScratch, VisitSink};
use crate::sidetrack::run_sidetrack;
use crate::spti::SptiStore;
use crate::sptp::SptpStore;
use crate::stats::QueryStats;

/// The algorithms evaluated in the paper (§7), plus the beyond-the-paper
/// sidetrack engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Deviation baseline `DA` [28, 15]: eager candidate paths via plain
    /// constrained Dijkstra.
    Da,
    /// Deviation baseline `DA-SPT` [14, 15]: eager candidates guided by a
    /// full online reverse SPT with Gao et al.'s iterative simplicity
    /// test (the state of the art the paper compares against).
    DaSpt,
    /// Pascoal's precursor [24] of `DA-SPT`: one `O(1)`-ish splice test
    /// per candidate, full constrained search on failure. Not plotted in
    /// the paper's figures but discussed in §3; kept for completeness.
    DaSptPascoal,
    /// `BestFirst` (§4): lazy shortest-path computation ordered by `CompLB`
    /// lower bounds.
    BestFirst,
    /// `IterBound` (§5.1): BestFirst plus iterative τ-tightening `TestLB`.
    IterBound,
    /// `IterBound-SPT_P` (§5.2): IterBound with the partial SPT built as a
    /// by-product of the initial shortest-path computation.
    IterBoundP,
    /// `IterBound-SPT_I` (§5.3): the flagship — search on the reverse graph
    /// pruned to an incrementally grown forward SPT.
    IterBoundI,
    /// Beyond the paper: Kurz–Mutzel-style sidetrack enumeration
    /// (arXiv:1601.02867) adapted to KPJ. One full reverse SPT, then each
    /// subspace is resolved by scanning its allowed first-hop "sidetrack"
    /// edges and splicing the cheapest onto the SPT suffix — zero search
    /// on the fast path, a τ-bounded repair search (with the exact SPT
    /// distances as a perfect heuristic) only when the suffix collides
    /// with the prefix.
    Sidetrack,
}

impl Algorithm {
    /// All algorithms, in the paper's presentation order (the
    /// beyond-the-paper sidetrack engine last). The single source of
    /// truth for every per-algorithm surface: differential oracles,
    /// metrics series, bench matrices and wire parsing all iterate this.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::Da,
        Algorithm::DaSpt,
        Algorithm::DaSptPascoal,
        Algorithm::BestFirst,
        Algorithm::IterBound,
        Algorithm::IterBoundP,
        Algorithm::IterBoundI,
        Algorithm::Sidetrack,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Da => "DA",
            Algorithm::DaSpt => "DA-SPT",
            Algorithm::DaSptPascoal => "DA-Pascoal",
            Algorithm::BestFirst => "BestFirst",
            Algorithm::IterBound => "IterBound",
            Algorithm::IterBoundP => "IterBoundP",
            Algorithm::IterBoundI => "IterBoundI",
            Algorithm::Sidetrack => "Sidetrack",
        }
    }

    /// True for the algorithms that read `lb(v, V_T)` ([`TargetsLb`]):
    /// `BestFirst` and the `IterBound` family. Only these can use an
    /// exact target row (see [`QueryEngine::set_target_row`]); the
    /// deviation baselines and `Sidetrack` never consult the bound.
    pub fn reads_target_bounds(&self) -> bool {
        matches!(
            self,
            Algorithm::BestFirst
                | Algorithm::IterBound
                | Algorithm::IterBoundP
                | Algorithm::IterBoundI
        )
    }
}

/// Result of one query: the paths (non-decreasing length, each simple,
/// source-side first) and the work counters.
///
/// Paths live in a flat [`PathSet`] — iterate [`PathRef`]s borrowed from
/// it, or bridge to owned [`Path`](kpj_graph::Path)s with
/// [`PathSet::to_paths`] where a self-contained value is needed.
#[derive(Debug, Clone)]
pub struct KpjResult {
    /// Up to `k` shortest simple paths; fewer when the graph does not
    /// contain `k` simple paths between the query endpoints.
    pub paths: PathSet,
    /// Instrumentation counters (see [`QueryStats`]).
    pub stats: QueryStats,
}

/// Errors for malformed queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A source node id is ≥ the graph's node count.
    SourceOutOfRange(NodeId),
    /// A target node id is ≥ the graph's node count.
    TargetOutOfRange(NodeId),
    /// The query supplied no source nodes at all.
    NoSources,
    /// The query's [`Deadline`] passed before it completed; partial
    /// results are discarded (the engine's scratch stays reusable).
    DeadlineExceeded,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    /// Case-insensitive; accepts the paper's names with or without the
    /// hyphen ("DA-SPT"/"daspt", "IterBoundP", …).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
            "da" => Ok(Algorithm::Da),
            "daspt" => Ok(Algorithm::DaSpt),
            "dapascoal" | "dasptpascoal" | "pascoal" => Ok(Algorithm::DaSptPascoal),
            "bestfirst" => Ok(Algorithm::BestFirst),
            "iterbound" => Ok(Algorithm::IterBound),
            "iterboundp" | "iterboundsptp" => Ok(Algorithm::IterBoundP),
            "iterboundi" | "iterboundspti" => Ok(Algorithm::IterBoundI),
            "sidetrack" => Ok(Algorithm::Sidetrack),
            other => {
                let valid = Algorithm::ALL.map(|a| a.name().to_ascii_lowercase());
                Err(format!(
                    "unknown algorithm `{other}` (valid: {})",
                    valid.join(", ")
                ))
            }
        }
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::SourceOutOfRange(v) => write!(f, "source node {v} out of range"),
            QueryError::TargetOutOfRange(v) => write!(f, "target node {v} out of range"),
            QueryError::NoSources => write!(f, "query has no source nodes"),
            QueryError::DeadlineExceeded => write!(f, "query deadline exceeded"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A reusable query processor for one graph.
///
/// Holds all per-query scratch (epoch-stamped, reset in `O(1)`), the
/// per-query path arena, the optional landmark index and target row, and
/// the `α` parameter of the iteratively bounding approaches. A warmed-up
/// engine answers queries without heap allocation when driven through
/// [`query_multi_into`](QueryEngine::query_multi_into) — with or without
/// landmarks and a target row (the per-query bound tables are pooled
/// too). Dropping the landmark index (never calling
/// [`with_landmarks`](QueryEngine::with_landmarks)) yields the paper's
/// `-NL` (no-landmark) variants of every algorithm.
///
/// ```
/// use kpj_graph::GraphBuilder;
/// use kpj_core::{Algorithm, QueryEngine};
///
/// let mut b = GraphBuilder::new(4);
/// b.add_bidirectional(0, 1, 1).unwrap();
/// b.add_bidirectional(1, 2, 1).unwrap();
/// b.add_bidirectional(1, 3, 5).unwrap();
/// let g = b.build();
/// let mut engine = QueryEngine::new(&g);
/// // Top-2 shortest paths from node 0 to the "category" {2, 3}.
/// let r = engine.query(Algorithm::IterBoundI, 0, &[2, 3], 2).unwrap();
/// assert_eq!(r.paths.len(), 2);
/// assert_eq!(r.paths.path(0).nodes, [0, 1, 2]);
/// assert_eq!(r.paths.path(1).nodes, [0, 1, 3]);
/// ```
pub struct QueryEngine<'g> {
    g: &'g Graph,
    landmarks: Option<&'g LandmarkIndex>,
    /// When `g` is a reduced graph: the mapping whose expansion chains
    /// every emitted path is spliced through, so callers only ever see
    /// original-id node sequences (see `kpj_graph::reduce`).
    reduction: Option<&'g Reduction>,
    /// An exact `d(v, V_T)` row for one target set on `g`, read by the
    /// queries that match it (see [`QueryEngine::set_target_row`]).
    row: Option<Arc<TargetRow>>,
    warm: ParkedEngine,
}

/// Everything a [`QueryEngine`] owns besides the graph it answers on:
/// its knobs and all per-query scratch. The scratch is sized by `n`,
/// epoch-stamped and reset per query, and borrows nothing, so it stays
/// valid for any graph with the same node count — in particular for
/// every weight-updated version of one graph. [`QueryEngine::park`]
/// detaches it; [`ParkedEngine::retarget`] attaches it to the next
/// version without re-allocating a single `n`-sized buffer.
pub struct ParkedEngine {
    node_count: usize,
    alpha: f64,
    scratch: SubspaceScratch,
    cand: CandidateScratch,
    target_set: TimestampedSet,
    source_set: TimestampedSet,
    sptp: SptpStore,
    spti: SptiStore,
    /// The per-query path arena (reset per query, capacity kept).
    store: PathStore,
    /// The per-query pseudo-tree (reset per query, capacity kept).
    tree: PseudoTree,
    /// Pooled sorted/deduped endpoint buffers.
    src_buf: Vec<NodeId>,
    tgt_buf: Vec<NodeId>,
    /// Pooled per-landmark bound tables: Eq. (2)'s `δ(w, t)` and the
    /// GKPJ virtual source's `max_s δ(w, s)`.
    target_lb_buf: Vec<Length>,
    source_lb_buf: Vec<Length>,
    /// Pooled re-expansion buffer (original-id node sequence of the
    /// path being emitted); kept across queries like every scratch.
    expand_buf: Vec<NodeId>,
    /// Pooled full-SPT scratch for the `DA-SPT` baselines.
    spt_scratch: Option<DenseDijkstra>,
}

impl ParkedEngine {
    /// Attach the warm state to `g` (plus its landmark index and
    /// reduction, if any). Knobs — `α` and trace sampling — carry over;
    /// every scratch buffer is reused as is. A target row never carries
    /// over: it belongs to one graph version.
    ///
    /// # Panics
    /// Panics if `g`'s node count differs from the one the scratch was
    /// sized for, or if the index/reduction does not match `g`.
    pub fn retarget<'h>(
        self,
        g: &'h Graph,
        landmarks: Option<&'h LandmarkIndex>,
        reduction: Option<&'h Reduction>,
    ) -> QueryEngine<'h> {
        assert_eq!(
            self.node_count,
            g.node_count(),
            "engine scratch was sized for another graph"
        );
        let mut engine = QueryEngine {
            g,
            landmarks: None,
            reduction: None,
            row: None,
            warm: self,
        };
        if let Some(idx) = landmarks {
            engine = engine.with_landmarks(idx);
        }
        if let Some(red) = reduction {
            engine = engine.with_reduction(red);
        }
        engine
    }
}

/// [`PathSink`] adapter interposed by [`QueryEngine::query_core`] when a
/// [`Reduction`] is attached: rewrites each emitted reduced-id node
/// sequence into the original-id sequence (splicing expansion chains)
/// before forwarding. Lengths pass through unchanged — a shortcut's
/// weight is exactly the sum of its chain's original hops.
struct ExpandSink<'a, 'g> {
    inner: &'a mut dyn PathSink,
    g: &'g Graph,
    red: &'g Reduction,
    buf: Vec<NodeId>,
}

impl PathSink for ExpandSink<'_, '_> {
    fn emit(&mut self, nodes: &[NodeId], length: Length) -> bool {
        self.red.expand_path(self.g, nodes, &mut self.buf);
        self.inner.emit(&self.buf, length)
    }
}

impl<'g> QueryEngine<'g> {
    /// An engine without landmarks (all algorithms run in `-NL` mode).
    pub fn new(g: &'g Graph) -> Self {
        let n = g.node_count();
        QueryEngine {
            g,
            landmarks: None,
            reduction: None,
            row: None,
            warm: ParkedEngine {
                node_count: n,
                alpha: 1.1,
                scratch: SubspaceScratch::new(n),
                cand: CandidateScratch::new(n),
                target_set: TimestampedSet::new(n),
                source_set: TimestampedSet::new(n),
                sptp: SptpStore::new(n),
                spti: SptiStore::new(n),
                store: PathStore::new(),
                tree: PseudoTree::new(VIRTUAL_NODE),
                src_buf: Vec::new(),
                tgt_buf: Vec::new(),
                target_lb_buf: Vec::new(),
                source_lb_buf: Vec::new(),
                expand_buf: Vec::new(),
                spt_scratch: None,
            },
        }
    }

    /// Attach an offline landmark index (must be built for this graph).
    ///
    /// # Panics
    /// Panics if the index was built for a different node count.
    pub fn with_landmarks(mut self, idx: &'g LandmarkIndex) -> Self {
        assert_eq!(
            idx.node_count(),
            self.g.node_count(),
            "landmark index does not match the graph"
        );
        self.landmarks = Some(idx);
        self
    }

    /// Attach the [`Reduction`] that produced this engine's (reduced)
    /// graph. Queries then take reduced-id endpoints but every emitted
    /// path is transparently re-expanded to the original node sequence
    /// (with the original length — shortcut weights are exact sums), so
    /// results are bit-identical to running on the unreduced graph.
    ///
    /// # Panics
    /// Panics if the reduction's reduced node count does not match the
    /// graph.
    pub fn with_reduction(mut self, red: &'g Reduction) -> Self {
        assert_eq!(
            red.reduced_node_count(),
            self.g.node_count(),
            "reduction does not match the graph"
        );
        self.reduction = Some(red);
        self
    }

    /// Builder form of [`set_target_row`](QueryEngine::set_target_row).
    pub fn with_target_row(mut self, row: Arc<TargetRow>) -> Self {
        self.set_target_row(Some(row));
        self
    }

    /// Offer an exact target-distance row built on this engine's graph.
    /// A query of an algorithm that reads target bounds
    /// ([`Algorithm::reads_target_bounds`]) whose normalized (sorted,
    /// deduplicated) target set equals the row's reads `lb(v, V_T)` from
    /// it ([`TargetsLb::Exact`]) instead of the landmark Eq. (2) bound,
    /// and reports `target_row = 1` in its stats. Every other query runs
    /// exactly as without the row, so a row for another set can never
    /// change an answer. Swapping rows never allocates.
    ///
    /// The bound only steers the search: lengths are unchanged, but among
    /// paths of exactly equal length the engine may return a different
    /// representative than with Eq. (2).
    ///
    /// # Panics
    /// Panics if the row was built for a different node count.
    pub fn set_target_row(&mut self, row: Option<Arc<TargetRow>>) {
        if let Some(row) = &row {
            assert_eq!(
                row.node_count(),
                self.g.node_count(),
                "target row does not match the graph"
            );
        }
        self.row = row;
    }

    /// Set the τ growth factor `α > 1` (default 1.1, the paper's choice).
    ///
    /// # Panics
    /// Panics unless `α > 1`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 1.0, "α must exceed 1");
        self.warm.alpha = alpha;
        self
    }

    /// The graph this engine answers queries on.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Detach the engine from its graph, keeping every scratch buffer
    /// warm (see [`ParkedEngine`]). The target row, if any, is released.
    pub fn park(self) -> ParkedEngine {
        self.warm
    }

    /// Move the warm engine onto another graph with the same node count —
    /// typically the next weight-updated version of its graph — together
    /// with that graph's landmark index and reduction. Equivalent to
    /// building a fresh engine with the same knobs, minus the `O(n)`
    /// allocations: answers are identical, and a warmed engine keeps
    /// answering allocation-free.
    pub fn retarget<'h>(
        self,
        g: &'h Graph,
        landmarks: Option<&'h LandmarkIndex>,
        reduction: Option<&'h Reduction>,
    ) -> QueryEngine<'h> {
        self.park().retarget(g, landmarks, reduction)
    }

    /// True if the engine uses landmark lower bounds.
    pub fn has_landmarks(&self) -> bool {
        self.landmarks.is_some()
    }

    /// Trace one query in every `every` (0 disables tracing, 1 — the
    /// default — traces every query). Span recording is pre-allocated and
    /// allocation-free either way.
    pub fn set_trace_sampling(&mut self, every: u32) {
        self.warm.scratch.trace.set_sampling(every);
    }

    /// The span trace of the most recent (sampled) query, oldest first,
    /// as two contiguous halves of the span ring. Empty when the query
    /// was not sampled.
    pub fn trace_spans(&self) -> (&[SpanRecord], &[SpanRecord]) {
        self.warm.scratch.trace.spans()
    }

    /// Spans evicted from the trace ring by the most recent query (0
    /// unless the query recorded more than the ring capacity).
    pub fn trace_dropped(&self) -> u64 {
        self.warm.scratch.trace.dropped()
    }

    /// A KPJ query `{s, T, k}` (§2): top-`k` shortest simple paths from
    /// `source` to any node of `targets`.
    pub fn query(
        &mut self,
        alg: Algorithm,
        source: NodeId,
        targets: &[NodeId],
        k: usize,
    ) -> Result<KpjResult, QueryError> {
        self.query_multi(alg, &[source], targets, k)
    }

    /// A KSP query `{s, t, k}` (Def. 3.1): the KPJ special case with a
    /// singleton category.
    pub fn ksp(
        &mut self,
        alg: Algorithm,
        source: NodeId,
        target: NodeId,
        k: usize,
    ) -> Result<KpjResult, QueryError> {
        self.query_multi(alg, &[source], &[target], k)
    }

    /// A GKPJ query `{S, T, k}` (§6): both endpoints are categories. The
    /// virtual source/target nodes of the paper's reduction are handled
    /// implicitly (no graph mutation).
    pub fn query_multi(
        &mut self,
        alg: Algorithm,
        sources: &[NodeId],
        targets: &[NodeId],
        k: usize,
    ) -> Result<KpjResult, QueryError> {
        self.query_multi_deadline(alg, sources, targets, k, Deadline::none())
    }

    /// [`query_multi`](QueryEngine::query_multi) with a wall-clock budget.
    ///
    /// The deadline is polled cooperatively (inside every subspace search
    /// and at the paradigm loop heads); once it passes, the query stops
    /// and returns [`QueryError::DeadlineExceeded`]. The engine's scratch
    /// state is *not* poisoned — the next query on this engine runs
    /// normally. With [`Deadline::none()`] this is exactly `query_multi`.
    pub fn query_multi_deadline(
        &mut self,
        alg: Algorithm,
        sources: &[NodeId],
        targets: &[NodeId],
        k: usize,
        deadline: Deadline,
    ) -> Result<KpjResult, QueryError> {
        let mut paths = PathSet::new();
        let stats = self.query_multi_into(alg, sources, targets, k, deadline, &mut paths)?;
        Ok(KpjResult { paths, stats })
    }

    /// The allocation-free core of
    /// [`query_multi_deadline`](QueryEngine::query_multi_deadline):
    /// collect the answer into a caller-owned [`PathSet`] (cleared first).
    ///
    /// A warmed-up engine — with or without landmarks and a target row —
    /// answering a repeat-shaped query through this entry point performs
    /// zero heap allocations: all per-query state (path arena,
    /// pseudo-tree, heaps, endpoint and bound buffers) is pooled on the
    /// engine, and `out` reuses its flat buffers.
    pub fn query_multi_into(
        &mut self,
        alg: Algorithm,
        sources: &[NodeId],
        targets: &[NodeId],
        k: usize,
        deadline: Deadline,
        out: &mut PathSet,
    ) -> Result<QueryStats, QueryError> {
        out.clear();
        let mut stats = QueryStats::default();
        {
            let mut sink = CollectSink { out, k };
            self.query_core(alg, sources, targets, k, deadline, &mut sink, &mut stats)?;
        }
        // A query that produced its full answer (k paths, or exhausted the
        // graph before the clock ran out — the loops stop *at* expiry) is
        // only failed if the deadline actually cut it short: the loops
        // break on expiry, so an expired clock here means truncation.
        if deadline.expired() && out.len() < k {
            return Err(QueryError::DeadlineExceeded);
        }
        Ok(stats)
    }

    /// Anytime variant of [`query_multi`](QueryEngine::query_multi):
    /// `on_path` receives each result path as soon as it is proven to be
    /// the next-shortest, in non-decreasing length order, and can stop the
    /// query early by returning [`ControlFlow::Break`]. At most `k` paths
    /// are delivered. The [`PathRef`] borrows the engine's emission buffer
    /// — copy ([`PathRef::to_path`]) what outlives the callback. Returns
    /// the work counters.
    ///
    /// ```
    /// # use kpj_graph::GraphBuilder;
    /// # use kpj_core::{Algorithm, QueryEngine};
    /// # use std::ops::ControlFlow;
    /// # let mut b = GraphBuilder::new(3);
    /// # b.add_bidirectional(0, 1, 1).unwrap();
    /// # b.add_bidirectional(1, 2, 1).unwrap();
    /// # let g = b.build();
    /// let mut engine = QueryEngine::new(&g);
    /// let mut first = None;
    /// engine
    ///     .query_visit(Algorithm::IterBoundI, 0, &[2], 10, |p| {
    ///         first = Some(p.to_path()); // keep only the first, then stop
    ///         ControlFlow::Break(())
    ///     })
    ///     .unwrap();
    /// assert_eq!(first.unwrap().length, 2);
    /// ```
    ///
    /// [`ControlFlow::Break`]: std::ops::ControlFlow::Break
    pub fn query_multi_visit(
        &mut self,
        alg: Algorithm,
        sources: &[NodeId],
        targets: &[NodeId],
        k: usize,
        on_path: impl FnMut(PathRef<'_>) -> std::ops::ControlFlow<()>,
    ) -> Result<QueryStats, QueryError> {
        self.query_multi_visit_deadline(alg, sources, targets, k, Deadline::none(), on_path)
    }

    /// [`query_multi_visit`](QueryEngine::query_multi_visit) with a
    /// wall-clock budget and *anytime* semantics: deadline expiry is not
    /// an error — delivery simply stops, and the returned [`QueryStats`]
    /// describe the work done up to the cut (callers count the paths they
    /// received). This is the observability hook for expiry landing
    /// mid-deviation: `stats.subspaces_created` shows how far the
    /// deviation loop got before the clock ran out.
    pub fn query_multi_visit_deadline(
        &mut self,
        alg: Algorithm,
        sources: &[NodeId],
        targets: &[NodeId],
        k: usize,
        deadline: Deadline,
        mut on_path: impl FnMut(PathRef<'_>) -> std::ops::ControlFlow<()>,
    ) -> Result<QueryStats, QueryError> {
        let mut stats = QueryStats::default();
        let mut sink = VisitSink {
            f: |p: PathRef<'_>| on_path(p) == std::ops::ControlFlow::Continue(()),
            remaining: k,
        };
        self.query_core(alg, sources, targets, k, deadline, &mut sink, &mut stats)?;
        Ok(stats)
    }

    /// Single-source convenience for
    /// [`query_multi_visit`](QueryEngine::query_multi_visit).
    pub fn query_visit(
        &mut self,
        alg: Algorithm,
        source: NodeId,
        targets: &[NodeId],
        k: usize,
        on_path: impl FnMut(PathRef<'_>) -> std::ops::ControlFlow<()>,
    ) -> Result<QueryStats, QueryError> {
        self.query_multi_visit(alg, &[source], targets, k, on_path)
    }

    /// Validation, endpoint dedup into pooled buffers, bound setup and
    /// dispatch — shared by the collecting and visiting entry points.
    #[allow(clippy::too_many_arguments)]
    fn query_core(
        &mut self,
        alg: Algorithm,
        sources: &[NodeId],
        targets: &[NodeId],
        k: usize,
        deadline: Deadline,
        sink: &mut dyn PathSink,
        stats: &mut QueryStats,
    ) -> Result<(), QueryError> {
        let n = self.g.node_count() as u64;
        if sources.is_empty() {
            return Err(QueryError::NoSources);
        }
        if let Some(&v) = sources.iter().find(|&&v| v as u64 >= n) {
            return Err(QueryError::SourceOutOfRange(v));
        }
        if let Some(&v) = targets.iter().find(|&&v| v as u64 >= n) {
            return Err(QueryError::TargetOutOfRange(v));
        }
        if targets.is_empty() || k == 0 {
            return Ok(());
        }
        self.warm.scratch.trace.begin();

        let mut src = std::mem::take(&mut self.warm.src_buf);
        src.clear();
        src.extend_from_slice(sources);
        src.sort_unstable();
        src.dedup();
        let mut tgt = std::mem::take(&mut self.warm.tgt_buf);
        tgt.clear();
        tgt.extend_from_slice(targets);
        tgt.sort_unstable();
        tgt.dedup();

        self.warm.target_set.clear();
        for &t in &tgt {
            self.warm.target_set.insert(t as usize);
        }
        self.warm.source_set.clear();
        for &s in &src {
            self.warm.source_set.insert(s as usize);
        }

        let tick = self.warm.scratch.trace.start();
        // A local handle (a refcount bump) so the bound can borrow the row
        // while the dispatch below borrows the engine mutably.
        let row = self
            .row
            .clone()
            .filter(|row| alg.reads_target_bounds() && row.targets() == &tgt[..]);
        let to_targets = match (&row, self.landmarks) {
            (Some(row), _) => {
                stats.target_row = 1;
                TargetsLb::Exact(row.dist())
            }
            (None, Some(idx)) => TargetsLb::Alt(
                idx.for_targets_reusing(&tgt, std::mem::take(&mut self.warm.target_lb_buf)),
            ),
            (None, None) => TargetsLb::Zero,
        };
        let from_sources = SourceLb::new_reusing(
            self.landmarks,
            &src,
            std::mem::take(&mut self.warm.source_lb_buf),
        );
        self.warm.scratch.trace.record(Stage::LandmarkBounds, tick);

        let mut store = std::mem::take(&mut self.warm.store);
        store.reset();
        let mut tree = std::mem::take(&mut self.warm.tree);
        match self.reduction {
            // Reduced graph: splice contracted chains back into every
            // emitted path before the caller's sink sees it. The buffer
            // is pooled on the engine, so warmed queries stay
            // allocation-free.
            Some(red) => {
                let mut expander = ExpandSink {
                    inner: sink,
                    g: self.g,
                    red,
                    buf: std::mem::take(&mut self.warm.expand_buf),
                };
                self.dispatch(
                    alg,
                    &src,
                    &tgt,
                    &to_targets,
                    &from_sources,
                    &mut store,
                    &mut tree,
                    &mut expander,
                    deadline,
                    stats,
                );
                self.warm.expand_buf = expander.buf;
            }
            None => self.dispatch(
                alg,
                &src,
                &tgt,
                &to_targets,
                &from_sources,
                &mut store,
                &mut tree,
                sink,
                deadline,
                stats,
            ),
        }
        self.warm.store = store;
        self.warm.tree = tree;
        if let TargetsLb::Alt(bounds) = to_targets {
            self.warm.target_lb_buf = bounds.into_buffer();
        }
        if let Some(buf) = from_sources.into_buffer() {
            self.warm.source_lb_buf = buf;
        }
        self.warm.src_buf = src;
        self.warm.tgt_buf = tgt;
        Ok(())
    }

    /// Route a validated, deduplicated query to its mode.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        alg: Algorithm,
        sources: &[NodeId],
        targets: &[NodeId],
        to_targets: &TargetsLb<'_>,
        from_sources: &SourceLb<'_>,
        store: &mut PathStore,
        tree: &mut PseudoTree,
        sink: &mut dyn PathSink,
        deadline: Deadline,
        stats: &mut QueryStats,
    ) {
        match alg {
            Algorithm::Da
            | Algorithm::DaSpt
            | Algorithm::DaSptPascoal
            | Algorithm::BestFirst
            | Algorithm::IterBound
            | Algorithm::IterBoundP => self.run_forward(
                alg,
                sources,
                targets,
                to_targets,
                from_sources,
                store,
                tree,
                sink,
                deadline,
                stats,
            ),
            Algorithm::IterBoundI => self.run_reverse(
                sources,
                targets,
                to_targets,
                from_sources,
                store,
                tree,
                sink,
                deadline,
                stats,
            ),
            // The sidetrack engine needs no landmark bounds: its reverse
            // SPT gives *exact* remaining distances, which dominate any
            // Eq. (2) estimate.
            Algorithm::Sidetrack => {
                self.run_sidetrack(sources, targets, store, tree, sink, deadline, stats)
            }
        }
    }

    /// Forward-mode algorithms: the pseudo-tree is rooted at the source
    /// side and searches expand out-edges towards `V_T`.
    #[allow(clippy::too_many_arguments)]
    fn run_forward(
        &mut self,
        alg: Algorithm,
        sources: &[NodeId],
        targets: &[NodeId],
        to_targets: &TargetsLb<'_>,
        from_sources: &SourceLb<'_>,
        store: &mut PathStore,
        tree: &mut PseudoTree,
        sink: &mut dyn PathSink,
        deadline: Deadline,
        stats: &mut QueryStats,
    ) {
        match sources {
            [s] => tree.reset(*s),
            _ => tree.reset(VIRTUAL_NODE),
        }
        let ctx = SubspaceCtx {
            g: self.g,
            direction: Direction::Forward,
            fanout: sources,
            goal_set: &self.warm.target_set,
            goal_count: targets.len(),
            // SPT_P's estimate mixes exact partial-SPT distances with
            // Eq. (2) fallbacks — admissible but not consistent, so its
            // searches must settle in Dijkstra order (h prunes only).
            // Every other forward heuristic (ALT bounds, zero) is
            // consistent and keeps the stronger A* order.
            order: match alg {
                Algorithm::IterBoundP => SearchOrder::Dijkstra,
                _ => SearchOrder::Astar,
            },
            deadline,
        };
        match alg {
            Algorithm::Da => run_deviation(
                &ctx,
                &mut self.warm.scratch,
                &mut self.warm.cand,
                store,
                tree,
                DeviationMode::Plain,
                sink,
                stats,
            ),
            Algorithm::DaSpt | Algorithm::DaSptPascoal => {
                // The full online reverse SPT (its construction cost is the
                // baseline's Achilles heel the paper highlights). Pooled on
                // the engine so repeat queries reuse its arrays.
                let tick = self.warm.scratch.trace.start();
                let spt = match self.warm.spt_scratch.take() {
                    Some(mut d) => {
                        d.rerun(self.g, Direction::Backward, targets.iter().map(|&t| (t, 0)));
                        d
                    }
                    None => DenseDijkstra::to_targets(self.g, targets),
                };
                self.warm.scratch.trace.record(Stage::SptBuild, tick);
                stats.nodes_settled += spt
                    .dist_slice()
                    .iter()
                    .filter(|&&d| d != INFINITE_LENGTH)
                    .count();
                let mode = if alg == Algorithm::DaSpt {
                    DeviationMode::Gao(&spt)
                } else {
                    DeviationMode::Pascoal(&spt)
                };
                run_deviation(
                    &ctx,
                    &mut self.warm.scratch,
                    &mut self.warm.cand,
                    store,
                    tree,
                    mode,
                    sink,
                    stats,
                );
                self.warm.spt_scratch = Some(spt);
            }
            Algorithm::BestFirst => {
                let mut oracle = PlainOracle {
                    lb: |v| to_targets.lb(v),
                };
                run_best_first(
                    &ctx,
                    &mut self.warm.scratch,
                    store,
                    tree,
                    &mut oracle,
                    sink,
                    false,
                    stats,
                )
            }
            Algorithm::IterBound => {
                let mut oracle = PlainOracle {
                    lb: |v| to_targets.lb(v),
                };
                run_iter_bound(
                    &ctx,
                    &mut self.warm.scratch,
                    store,
                    tree,
                    &mut oracle,
                    sink,
                    self.warm.alpha,
                    None,
                    false,
                    stats,
                )
            }
            Algorithm::IterBoundP => {
                let tick = self.warm.scratch.trace.start();
                let init = self.warm.sptp.build(
                    self.g,
                    targets,
                    &self.warm.source_set,
                    from_sources,
                    store,
                    tree,
                    stats,
                );
                self.warm.scratch.trace.record(Stage::SptBuild, tick);
                if init.is_none() {
                    return;
                }
                let sptp = &self.warm.sptp;
                let mut oracle = PlainOracle {
                    lb: |v| sptp.exact_dist(v).unwrap_or_else(|| to_targets.lb(v)),
                };
                run_iter_bound(
                    &ctx,
                    &mut self.warm.scratch,
                    store,
                    tree,
                    &mut oracle,
                    sink,
                    self.warm.alpha,
                    init,
                    false,
                    stats,
                )
            }
            Algorithm::IterBoundI | Algorithm::Sidetrack => {
                unreachable!("dispatched to run_reverse/run_sidetrack")
            }
        }
    }

    /// `IterBound-SPT_I`: the pseudo-tree is rooted at the virtual target
    /// and searches expand in-edges towards the source side, pruned to the
    /// incrementally grown forward SPT (§5.3).
    #[allow(clippy::too_many_arguments)]
    fn run_reverse(
        &mut self,
        sources: &[NodeId],
        targets: &[NodeId],
        to_targets: &TargetsLb<'_>,
        from_sources: &SourceLb<'_>,
        store: &mut PathStore,
        tree: &mut PseudoTree,
        sink: &mut dyn PathSink,
        deadline: Deadline,
        stats: &mut QueryStats,
    ) {
        tree.reset(VIRTUAL_NODE);
        let ctx = SubspaceCtx {
            g: self.g,
            direction: Direction::Backward,
            fanout: targets,
            goal_set: &self.warm.source_set,
            goal_count: sources.len(),
            // SPT_I estimates are exact inside the SPT and pruned outside
            // (Deferred/Unreachable) — consistent, so A* order is safe.
            order: SearchOrder::Astar,
            deadline,
        };
        let tick = self.warm.scratch.trace.start();
        let init = self.warm.spti.init(
            self.g,
            sources,
            &self.warm.target_set,
            to_targets,
            store,
            stats,
        );
        self.warm.scratch.trace.record(Stage::SptBuild, tick);
        if init.is_none() {
            return;
        }
        let mut oracle = SptiOracle {
            g: self.g,
            store: &mut self.warm.spti,
            target_set: &self.warm.target_set,
            to_targets,
            from_sources,
        };
        run_iter_bound(
            &ctx,
            &mut self.warm.scratch,
            store,
            tree,
            &mut oracle,
            sink,
            self.warm.alpha,
            init,
            true,
            stats,
        )
    }

    /// The sidetrack engine (beyond the paper): one full reverse SPT —
    /// pooled with the `DA-SPT` baselines' scratch — then lazy best-first
    /// subspace resolution by sidetrack splicing (see the `sidetrack`
    /// module). Landmark bounds are ignored: the SPT distances are exact
    /// and therefore dominate them, so `-NL` and landmark engines give
    /// byte-identical answers.
    #[allow(clippy::too_many_arguments)]
    fn run_sidetrack(
        &mut self,
        sources: &[NodeId],
        targets: &[NodeId],
        store: &mut PathStore,
        tree: &mut PseudoTree,
        sink: &mut dyn PathSink,
        deadline: Deadline,
        stats: &mut QueryStats,
    ) {
        match sources {
            [s] => tree.reset(*s),
            _ => tree.reset(VIRTUAL_NODE),
        }
        let ctx = SubspaceCtx {
            g: self.g,
            direction: Direction::Forward,
            fanout: sources,
            goal_set: &self.warm.target_set,
            goal_count: targets.len(),
            // Repair searches use the exact reverse-SPT distances as the
            // heuristic — consistent, so A* order is safe.
            order: SearchOrder::Astar,
            deadline,
        };
        let tick = self.warm.scratch.trace.start();
        let spt = match self.warm.spt_scratch.take() {
            Some(mut d) => {
                d.rerun(self.g, Direction::Backward, targets.iter().map(|&t| (t, 0)));
                d
            }
            None => DenseDijkstra::to_targets(self.g, targets),
        };
        self.warm.scratch.trace.record(Stage::SptBuild, tick);
        let reached = spt
            .dist_slice()
            .iter()
            .filter(|&&d| d != INFINITE_LENGTH)
            .count();
        stats.nodes_settled += reached;
        stats.spt_nodes = stats.spt_nodes.max(reached);
        run_sidetrack(
            &ctx,
            &mut self.warm.scratch,
            store,
            tree,
            &spt,
            sink,
            self.warm.alpha,
            stats,
        );
        self.warm.spt_scratch = Some(spt);
    }
}

/// Oracle for `IterBound-SPT_I`: exact `d_s` inside `SPT_I`, landmark
/// Eq. (2)-style source-side bounds outside (for `CompLB-SPTI` only — the
/// searches themselves *prune* everything outside the SPT, Deferred when it
/// may still grow, Unreachable once it is complete).
struct SptiOracle<'a, 'q> {
    g: &'a Graph,
    store: &'a mut SptiStore,
    target_set: &'a TimestampedSet,
    to_targets: &'a TargetsLb<'q>,
    from_sources: &'a SourceLb<'q>,
}

impl SubspaceOracle for SptiOracle<'_, '_> {
    #[inline]
    fn lb_num(&self, v: NodeId) -> Length {
        // Alg. 8 line 5-6: exact distance when v ∈ SPT_I, Eq. (2) otherwise.
        self.store
            .exact_dist(v)
            .unwrap_or_else(|| self.from_sources.lb(v))
    }

    #[inline]
    fn estimate(&self, v: NodeId) -> Estimate {
        match self.store.exact_dist(v) {
            Some(d) => Estimate::Bound(d),
            None if self.store.is_complete() => Estimate::Unreachable,
            None => Estimate::Deferred,
        }
    }

    fn prepare_tau(&mut self, tau: Length, stats: &mut QueryStats) {
        self.store
            .grow(self.g, tau, self.target_set, self.to_targets, stats);
    }

    /// `SPT_I`'s size: every settled node turns its `lb_num` from the
    /// landmark bound into the (never smaller) exact `d_s`. Node ids are
    /// `u32`, so the size fits.
    fn generation(&self) -> u32 {
        self.store.len() as u32
    }

    fn spt_nodes(&self) -> usize {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_graph::GraphBuilder;
    use kpj_landmark::SelectionStrategy;

    /// The worked example consistent with the paper's Figs. 1/2/5:
    /// ω(v1,v8)=2, ω(v8,v7)=3, ω(v1,v3)=3, ω(v3,v6)=3, ω(v3,v7)=4,
    /// ω(v3,v4)=5, ω(v3,v5)=2, ω(v5,v6)=2; H = {v4, v6, v7}.
    /// Top-3: (v1,v8,v7)=5, (v1,v3,v6)=6, length-7 tie.
    fn paper_graph() -> (Graph, Vec<NodeId>) {
        // 0-indexed: v1=0, v3=2, v4=3, v5=4, v6=5, v7=6, v8=7.
        let mut b = GraphBuilder::new(8);
        b.add_bidirectional(0, 7, 2).unwrap(); // v1-v8
        b.add_bidirectional(7, 6, 3).unwrap(); // v8-v7
        b.add_bidirectional(0, 2, 3).unwrap(); // v1-v3
        b.add_bidirectional(2, 5, 3).unwrap(); // v3-v6
        b.add_bidirectional(2, 6, 4).unwrap(); // v3-v7
        b.add_bidirectional(2, 3, 5).unwrap(); // v3-v4
        b.add_bidirectional(2, 4, 2).unwrap(); // v3-v5
        b.add_bidirectional(4, 5, 2).unwrap(); // v5-v6
        (b.build(), vec![3, 5, 6]) // H = {v4, v6, v7}
    }

    fn lengths(r: &KpjResult) -> Vec<Length> {
        r.paths.lengths()
    }

    #[test]
    fn paper_example_top3_for_every_algorithm() {
        let (g, h) = paper_graph();
        let idx = LandmarkIndex::build(&g, 4, SelectionStrategy::Farthest, 7);
        for with_lm in [false, true] {
            let mut engine = QueryEngine::new(&g);
            if with_lm {
                engine = engine.with_landmarks(&idx);
            }
            for alg in Algorithm::ALL {
                let r = engine.query(alg, 0, &h, 3).unwrap();
                assert_eq!(
                    lengths(&r),
                    vec![5, 6, 7],
                    "{} landmarks={with_lm}",
                    alg.name()
                );
                assert_eq!(r.paths.path(0).nodes, [0, 7, 6]);
                assert_eq!(r.paths.path(1).nodes, [0, 2, 5]);
                for p in &r.paths {
                    p.validate(&g).unwrap();
                    assert!(p.is_simple());
                }
            }
        }
    }

    #[test]
    fn ksp_is_kpj_with_singleton_category() {
        let (g, _) = paper_graph();
        let mut engine = QueryEngine::new(&g);
        for alg in Algorithm::ALL {
            let r = engine.ksp(alg, 0, 5, 4).unwrap();
            // Paths v1→v6: (v1,v3,v6)=6, (v1,v3,v5,v6)=7, then longer.
            assert_eq!(r.paths.path(0).length, 6, "{}", alg.name());
            assert_eq!(r.paths.path(1).length, 7);
            let lens = lengths(&r);
            assert!(lens.windows(2).all(|w| w[0] <= w[1]));
            for p in &r.paths {
                assert_eq!(p.source(), 0);
                assert_eq!(p.destination(), 5);
                assert!(p.is_simple());
            }
        }
    }

    #[test]
    fn gkpj_multi_source_agrees_across_algorithms() {
        let (g, h) = paper_graph();
        let idx = LandmarkIndex::build(&g, 3, SelectionStrategy::Farthest, 1);
        let sources = [0u32, 1]; // v1 and v2
        let mut reference: Option<Vec<Length>> = None;
        for alg in Algorithm::ALL {
            let mut engine = QueryEngine::new(&g).with_landmarks(&idx);
            let r = engine.query_multi(alg, &sources, &h, 5).unwrap();
            for p in &r.paths {
                assert!(sources.contains(&p.source()), "{}", alg.name());
                assert!(h.contains(&p.destination()));
                p.validate(&g).unwrap();
            }
            let lens = lengths(&r);
            match &reference {
                None => reference = Some(lens),
                Some(want) => assert_eq!(&lens, want, "{}", alg.name()),
            }
        }
    }

    #[test]
    fn target_row_steers_only_matching_row_reading_queries() {
        let (g, h) = paper_graph();
        let idx = LandmarkIndex::build(&g, 3, SelectionStrategy::Farthest, 1);
        // The row's set is the query's, listed in another order with a
        // duplicate: matching is on the normalized set.
        let mut shuffled = h.clone();
        shuffled.reverse();
        shuffled.push(h[0]);
        let row = Arc::new(TargetRow::build(&g, &shuffled));
        let other = Arc::new(TargetRow::build(&g, &h[..1]));
        for with_lm in [false, true] {
            for alg in Algorithm::ALL {
                let tag = format!("{} landmarks={with_lm}", alg.name());
                let mut plain = QueryEngine::new(&g);
                if with_lm {
                    plain = plain.with_landmarks(&idx);
                }
                let want = plain.query_multi(alg, &[0, 1], &h, 6).unwrap();
                assert_eq!(want.stats.target_row, 0, "{tag}");

                let mut rowed = QueryEngine::new(&g).with_target_row(Arc::clone(&row));
                if with_lm {
                    rowed = rowed.with_landmarks(&idx);
                }
                let got = rowed.query_multi(alg, &[0, 1], &h, 6).unwrap();
                assert_eq!(lengths(&got), lengths(&want), "{tag}");
                assert_eq!(
                    got.stats.target_row,
                    usize::from(alg.reads_target_bounds()),
                    "{tag}"
                );
                if !alg.reads_target_bounds() {
                    assert_eq!(got.paths, want.paths, "{tag}: row must be ignored");
                }

                // A row for another set is never read.
                rowed.set_target_row(Some(Arc::clone(&other)));
                let fallback = rowed.query_multi(alg, &[0, 1], &h, 6).unwrap();
                assert_eq!(fallback.paths, want.paths, "{tag}: mismatched row");
                assert_eq!(fallback.stats.target_row, 0, "{tag}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "target row does not match the graph")]
    fn target_row_for_another_graph_is_rejected() {
        let (g, _) = paper_graph();
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1).unwrap();
        let small = b.build();
        let row = Arc::new(TargetRow::build(&small, &[1]));
        QueryEngine::new(&g).set_target_row(Some(row));
    }

    #[test]
    fn fewer_than_k_paths_terminates_cleanly() {
        // 0 → 1 → 2: exactly two simple paths to {1, 2} exist… plus none
        // others. Ask for 10.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        let g = b.build();
        for alg in Algorithm::ALL {
            let mut engine = QueryEngine::new(&g);
            let r = engine.query(alg, 0, &[1, 2], 10).unwrap();
            assert_eq!(lengths(&r), vec![1, 2], "{}", alg.name());
        }
    }

    #[test]
    fn unreachable_and_empty_targets() {
        let mut b = GraphBuilder::new(4);
        b.add_bidirectional(0, 1, 1).unwrap();
        b.add_bidirectional(2, 3, 1).unwrap();
        let g = b.build();
        for alg in Algorithm::ALL {
            let mut engine = QueryEngine::new(&g);
            assert!(
                engine.query(alg, 0, &[2], 3).unwrap().paths.is_empty(),
                "{}",
                alg.name()
            );
            assert!(engine.query(alg, 0, &[], 3).unwrap().paths.is_empty());
        }
    }

    #[test]
    fn source_in_targets_yields_zero_length_path_first() {
        let (g, _) = paper_graph();
        for alg in Algorithm::ALL {
            let mut engine = QueryEngine::new(&g);
            let r = engine.query(alg, 2, &[2, 6], 3).unwrap();
            assert_eq!(r.paths.path(0).nodes, [2], "{}", alg.name());
            assert_eq!(r.paths.path(0).length, 0);
            assert_eq!(r.paths.path(1).length, 4); // (v3, v7)
        }
    }

    #[test]
    fn algorithm_from_str_and_display() {
        for alg in Algorithm::ALL {
            let parsed: Algorithm = alg.name().parse().unwrap();
            assert_eq!(parsed, alg);
            assert_eq!(alg.to_string(), alg.name());
        }
        assert_eq!("da-spt".parse::<Algorithm>().unwrap(), Algorithm::DaSpt);
        assert_eq!(
            "ITERBOUND_I".parse::<Algorithm>().unwrap(),
            Algorithm::IterBoundI
        );
        assert!("dijkstra".parse::<Algorithm>().is_err());
    }

    #[test]
    fn query_errors() {
        let (g, _) = paper_graph();
        let mut engine = QueryEngine::new(&g);
        assert_eq!(
            engine.query(Algorithm::Da, 99, &[1], 1).unwrap_err(),
            QueryError::SourceOutOfRange(99)
        );
        assert_eq!(
            engine.query(Algorithm::Da, 0, &[99], 1).unwrap_err(),
            QueryError::TargetOutOfRange(99)
        );
        assert_eq!(
            engine.query_multi(Algorithm::Da, &[], &[1], 1).unwrap_err(),
            QueryError::NoSources
        );
        assert!(engine
            .query(Algorithm::Da, 0, &[1], 0)
            .unwrap()
            .paths
            .is_empty());
    }

    #[test]
    fn k_equals_one_matches_plain_shortest_path() {
        let (g, h) = paper_graph();
        let d = DenseDijkstra::to_targets(&g, &h);
        for alg in Algorithm::ALL {
            let mut engine = QueryEngine::new(&g);
            let r = engine.query(alg, 0, &h, 1).unwrap();
            assert_eq!(r.paths.len(), 1);
            assert_eq!(r.paths.path(0).length, d.dist(0), "{}", alg.name());
        }
    }

    #[test]
    fn engine_is_reusable_across_queries() {
        let (g, h) = paper_graph();
        let mut engine = QueryEngine::new(&g);
        let a = engine.query(Algorithm::IterBoundI, 0, &h, 3).unwrap();
        let _ = engine.query(Algorithm::IterBoundI, 4, &[6], 2).unwrap();
        let b = engine.query(Algorithm::IterBoundI, 0, &h, 3).unwrap();
        assert_eq!(lengths(&a), lengths(&b));
    }

    #[test]
    fn query_multi_into_reuses_output_and_matches_query() {
        let (g, h) = paper_graph();
        let mut engine = QueryEngine::new(&g);
        let mut out = PathSet::new();
        for alg in Algorithm::ALL {
            let want = engine.query(alg, 0, &h, 3).unwrap();
            // Same answer through the pooled entry point, twice, into the
            // same PathSet (which must be cleared each time).
            for _ in 0..2 {
                let stats = engine
                    .query_multi_into(alg, &[0], &h, 3, Deadline::none(), &mut out)
                    .unwrap();
                assert_eq!(out.lengths(), want.paths.lengths(), "{}", alg.name());
                assert_eq!(out.path(0).nodes, want.paths.path(0).nodes);
                assert!(stats.nodes_settled > 0);
            }
        }
    }

    #[test]
    fn expired_deadline_fails_without_poisoning_engine() {
        let (g, h) = paper_graph();
        let mut engine = QueryEngine::new(&g);
        let past = Deadline::at(std::time::Instant::now() - std::time::Duration::from_millis(1));
        for alg in Algorithm::ALL {
            let err = engine
                .query_multi_deadline(alg, &[0], &h, 3, past)
                .unwrap_err();
            assert_eq!(err, QueryError::DeadlineExceeded, "{}", alg.name());
            // The same engine must answer the next query correctly.
            let r = engine.query(alg, 0, &h, 3).unwrap();
            assert_eq!(lengths(&r), vec![5, 6, 7], "{}", alg.name());
        }
    }

    #[test]
    fn generous_deadline_matches_unbounded_query() {
        let (g, h) = paper_graph();
        let mut engine = QueryEngine::new(&g);
        let soon = Deadline::after(std::time::Duration::from_secs(60));
        for alg in Algorithm::ALL {
            let r = engine.query_multi_deadline(alg, &[0], &h, 3, soon).unwrap();
            assert_eq!(lengths(&r), vec![5, 6, 7], "{}", alg.name());
        }
    }

    #[test]
    fn stats_expose_paradigm_differences() {
        let (g, h) = paper_graph();
        let idx = LandmarkIndex::build(&g, 4, SelectionStrategy::Farthest, 7);
        let mut engine = QueryEngine::new(&g).with_landmarks(&idx);
        let da = engine.query(Algorithm::Da, 0, &h, 3).unwrap();
        let bf = engine.query(Algorithm::BestFirst, 0, &h, 3).unwrap();
        // Lemma 4.1: BestFirst computes a subset of DA's shortest paths.
        assert!(
            bf.stats.shortest_path_computations <= da.stats.shortest_path_computations,
            "BestFirst {} vs DA {}",
            bf.stats.shortest_path_computations,
            da.stats.shortest_path_computations
        );
        let ib = engine.query(Algorithm::IterBoundI, 0, &h, 3).unwrap();
        assert!(ib.stats.testlb_calls > 0);
        assert!(ib.stats.final_tau >= 7);
        assert!(ib.stats.spt_nodes > 0);
    }

    #[test]
    fn reduced_graph_answers_are_bit_identical_after_expansion() {
        // Stretch every edge of the paper graph into a 3-hop corridor so
        // the reduction has real chains to contract, then check every
        // algorithm × {landmarks, none} agrees with the unreduced run.
        let (base, h) = paper_graph();
        let n0 = base.node_count() as u32;
        // Two interior nodes per undirected base edge.
        let undirected = base.edge_count() / 2;
        let mut b = GraphBuilder::new(n0 as usize + 2 * undirected);
        let mut next = n0;
        let mut seen: Vec<(u32, u32)> = Vec::new();
        for u in base.nodes() {
            for e in base.out_edges(u) {
                if seen.contains(&(e.to, u)) {
                    continue; // bidirectional pair already stretched
                }
                seen.push((u, e.to));
                let (m1, m2) = (next, next + 1);
                next += 2;
                b.add_bidirectional(u, m1, 1).unwrap();
                b.add_bidirectional(m1, m2, e.weight).unwrap();
                b.add_bidirectional(m2, e.to, 1).unwrap();
            }
        }
        let g = b.build();
        let sources = [0u32];
        let keep: Vec<NodeId> = sources.iter().chain(&h).copied().collect();
        let red = kpj_graph::reduce(&g, &sources, &h);
        assert!(
            red.graph.node_count() < g.node_count(),
            "corridors must contract"
        );
        for &kn in &keep {
            red.reduction.to_reduced(kn).expect("keep nodes survive");
        }
        let idx = LandmarkIndex::build(&g, 4, SelectionStrategy::Farthest, 7);
        let idx_red = LandmarkIndex::build(&red.graph, 4, SelectionStrategy::Farthest, 7);
        let red_sources: Vec<NodeId> = sources
            .iter()
            .map(|&s| red.reduction.to_reduced(s).unwrap())
            .collect();
        let red_targets: Vec<NodeId> = h
            .iter()
            .map(|&t| red.reduction.to_reduced(t).unwrap())
            .collect();
        for with_lm in [false, true] {
            let mut plain = QueryEngine::new(&g);
            let mut reduced = QueryEngine::new(&red.graph).with_reduction(&red.reduction);
            if with_lm {
                plain = plain.with_landmarks(&idx);
                reduced = reduced.with_landmarks(&idx_red);
            }
            for alg in Algorithm::ALL {
                let want = plain.query_multi(alg, &sources, &h, 5).unwrap();
                let got = reduced
                    .query_multi(alg, &red_sources, &red_targets, 5)
                    .unwrap();
                assert_eq!(got.paths, want.paths, "{} landmarks={with_lm}", alg.name());
                for p in &got.paths {
                    p.validate(&g).expect("expanded paths are valid originals");
                    assert!(p.is_simple());
                }
            }
        }
    }
}
