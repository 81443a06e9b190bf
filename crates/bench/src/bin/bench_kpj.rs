//! `bench-kpj` — the fixed-seed perf baseline runner.
//!
//! Unlike the Criterion benches (statistical, minutes), this binary does a
//! short deterministic sweep over two workloads — a road network (CAL with
//! the Crater category) and a small-world social network — timing every
//! algorithm and counting heap allocations per query through a counting
//! global allocator. Results are written to `BENCH_kpj.json` so CI leaves
//! a machine-readable perf trail for future PRs to diff against. The
//! `target_rows` section times `IterBoundI` and `IterBound` on the road
//! workload with the landmark Eq. (2) bound and with an exact target row
//! for the query's category (the row the service keeps for a recurring
//! target set). The `dense_dijkstra` section times the kernel under
//! Sidetrack's and DA-SPT's reverse SPT, target rows and landmark tables:
//! one full backward `DenseDijkstra` search, pooled, on the full-size CAL
//! road graph and on an 8000-node small world. The `repair` section
//! replays a trace of road update batches on the full-size CAL graph and
//! times what the service pays per batch: repairing 16 landmark tables
//! and the Crater target row into the version two batches back, and
//! translating the batch onto a reduction of CAL. Every tenth batch the
//! repaired tables and row are checked against their rebuilds.
//!
//! `--compare BASELINE.json` turns the trail into a gate: after the sweep
//! the fresh report is diffed cell-by-cell (ms/query and allocs/query per
//! workload × algorithm, the target-row, kernel and repair cells, plus
//! every k-sweep cell) against the committed
//! baseline, a delta table goes to stderr, and the process exits non-zero
//! when any cell regressed by more than `BENCH_REGRESS_PCT` percent
//! (default 25). A cell the baseline lacks is reported as new and never
//! fails the gate.
//!
//! Usage: `bench-kpj [--out PATH] [--queries N] [--compare BASELINE]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use kpj_bench::{run_batch, BatchResult, CalEnv};
use kpj_core::{Algorithm, QueryEngine};
use kpj_graph::{Graph, NodeId, WeightUpdate};
use kpj_landmark::{LandmarkIndex, RepairScratch, SelectionStrategy, TargetRow};
use kpj_service::json::Json;
use kpj_sp::{DenseDijkstra, Direction};
use kpj_workload::social::SocialConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Counts every allocation (and allocated byte) that reaches the system
/// allocator. Frees are deliberately not counted: the interesting number
/// is how often the hot path *asks* for memory.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const K: usize = 20;

/// Timed passes per cell; the reported time is the median, which shrugs
/// off one-off scheduler hiccups that a single pass (or a mean) would
/// fold into the perf trail.
const RUNS: usize = 5;

struct AlgoMeasurement {
    name: &'static str,
    batch: BatchResult,
    /// Median ms/query over [`RUNS`] warmed passes with tracing off.
    ms_per_query: f64,
    /// ms/query (same median) with span tracing sampling every query
    /// (the serving default) — the difference is the tracer's overhead.
    ms_per_query_trace: f64,
    allocs_per_query: f64,
    alloc_bytes_per_query: f64,
}

fn median(times: &mut [f64]) -> f64 {
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Median ms/query of [`RUNS`] passes over the batch (engine must
/// already be warm). Returns the last pass's `BatchResult` too, for the
/// query count and work counters (deterministic across passes).
fn median_ms(
    engine: &mut QueryEngine<'_>,
    alg: Algorithm,
    sources: &[NodeId],
    targets: &[NodeId],
    k: usize,
) -> (f64, BatchResult) {
    let mut times = [0.0; RUNS];
    let mut last = BatchResult::default();
    for t in &mut times {
        last = run_batch(engine, alg, sources, targets, k);
        *t = last.ms_per_query();
    }
    (median(&mut times), last)
}

/// Warm the engine on the full query set once, then take the median of
/// [`RUNS`] timed passes — steady-state numbers, not cold-start.
/// Allocation counting covers the first timed pass (the counts are
/// deterministic, so one pass is exact). A final median with the span
/// tracer sampling every query measures the tracing overhead.
fn measure(
    engine: &mut QueryEngine<'_>,
    alg: Algorithm,
    sources: &[NodeId],
    targets: &[NodeId],
) -> AlgoMeasurement {
    run_batch(engine, alg, sources, targets, K);
    engine.set_trace_sampling(0);
    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let batch = run_batch(engine, alg, sources, targets, K);
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - calls0;
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes0;
    let mut times = [0.0; RUNS];
    times[0] = batch.ms_per_query();
    for t in &mut times[1..] {
        *t = run_batch(engine, alg, sources, targets, K).ms_per_query();
    }
    engine.set_trace_sampling(1);
    let (ms_trace, _) = median_ms(engine, alg, sources, targets, K);
    let n = batch.queries.max(1) as f64;
    AlgoMeasurement {
        name: alg.name(),
        batch,
        ms_per_query: median(&mut times),
        ms_per_query_trace: ms_trace,
        allocs_per_query: calls as f64 / n,
        alloc_bytes_per_query: bytes as f64 / n,
    }
}

/// One cell pair of the target-row axis: the same warmed queries with
/// the landmark Eq. (2) bound and with an exact target row.
struct RowCell {
    name: &'static str,
    rows_off_ms: f64,
    rows_on_ms: f64,
    allocs_per_query_on: f64,
}

/// The algorithms the target-row axis times: the service's road
/// algorithm and forward `IterBound`.
const ROW_ALGS: [Algorithm; 2] = [Algorithm::IterBoundI, Algorithm::IterBound];

/// Rows off vs on for [`ROW_ALGS`] at k = [`K`]; also returns the row's
/// build time in ms (what the service pays once per target set).
fn target_row_axis(g: &Graph, lm: &LandmarkIndex, w: &Workload) -> (f64, Vec<RowCell>) {
    let started = Instant::now();
    let row = Arc::new(TargetRow::build(g, &w.targets));
    let build_ms = started.elapsed().as_secs_f64() * 1e3;
    let cells = ROW_ALGS
        .iter()
        .map(|&alg| {
            let mut off = QueryEngine::new(g).with_landmarks(lm);
            let mut on = QueryEngine::new(g)
                .with_landmarks(lm)
                .with_target_row(Arc::clone(&row));
            let m_off = measure(&mut off, alg, &w.sources, &w.targets);
            let m_on = measure(&mut on, alg, &w.sources, &w.targets);
            eprintln!(
                "  {:>12}: {:>9.3} ms/query rows off  {:>9.3} ms/query rows on  ({:.2}x)",
                alg.name(),
                m_off.ms_per_query,
                m_on.ms_per_query,
                m_off.ms_per_query / m_on.ms_per_query,
            );
            RowCell {
                name: alg.name(),
                rows_off_ms: m_off.ms_per_query,
                rows_on_ms: m_on.ms_per_query,
                allocs_per_query_on: m_on.allocs_per_query,
            }
        })
        .collect();
    (build_ms, cells)
}

/// One cell of the dense-Dijkstra kernel axis.
struct DenseCell {
    name: &'static str,
    dataset: String,
    targets: usize,
    /// Median µs per full backward search over [`RUNS`] passes.
    us_per_search: f64,
}

/// Time one pooled full backward `DenseDijkstra` from `targets` (what
/// Sidetrack and DA-SPT rebuild per query): median over [`RUNS`] passes
/// of `reps` reruns each, after one warm-up run sizes the arrays.
fn dense_cell(
    name: &'static str,
    dataset: String,
    g: &Graph,
    targets: &[NodeId],
    reps: usize,
) -> DenseCell {
    let sources = || targets.iter().map(|&t| (t, 0));
    let mut spt = DenseDijkstra::run(g, Direction::Backward, sources());
    let mut times = [0.0; RUNS];
    for t in &mut times {
        let t0 = Instant::now();
        for _ in 0..reps {
            spt.rerun(g, Direction::Backward, sources());
        }
        *t = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
    }
    let us_per_search = median(&mut times);
    eprintln!(
        "  {name:>6}: {us_per_search:>10.1} us/search  ({dataset}, |V_T|={})",
        targets.len()
    );
    DenseCell {
        name,
        dataset,
        targets: targets.len(),
        us_per_search,
    }
}

/// The kernel axis: the full-size CAL road graph backward to Crater, and
/// the 8000-node small world backward to 8 targets — the serving
/// benchmark's graphs, with its category and social seeds (3 and 11).
fn dense_dijkstra_axis() -> Vec<DenseCell> {
    let cal = kpj_workload::datasets::CAL.generate(1.0);
    let mut cats = kpj_graph::CategoryIndex::new();
    let crater = kpj_workload::poi::generate_cal_categories(&mut cats, cal.node_count(), 3).crater;
    let road = dense_cell(
        "road",
        format!("CAL n={}", cal.node_count()),
        &cal,
        cats.members(crater),
        8,
    );
    let social_graph = SocialConfig::new(8_000, 11).generate();
    let n = social_graph.node_count();
    let social = dense_cell(
        "social",
        format!("WS@8000 n={n}"),
        &social_graph,
        &stride_sample(n, 8, 3),
        100,
    );
    vec![road, social]
}

/// Update batches the repair axis replays.
const REPAIR_BATCHES: usize = 40;

/// Arcs per repair-axis batch: the serving benchmark's update size.
const TRACE_ARCS: usize = 16;

/// One cell of the repair axis: per-batch times over the trace.
struct RepairCell {
    name: &'static str,
    mean_ms: f64,
    p90_ms: f64,
    /// Mean nodes settled per batch (repair cells) or batches that hit a
    /// chain interior (the translate cell).
    work: f64,
}

impl RepairCell {
    fn new(name: &'static str, mut ms: Vec<f64>, work: f64) -> RepairCell {
        let mean_ms = ms.iter().sum::<f64>() / ms.len().max(1) as f64;
        ms.sort_by(|a, b| a.total_cmp(b));
        let p90_ms = ms[(ms.len() * 9 / 10).min(ms.len() - 1)];
        eprintln!("  {name:>10}: {mean_ms:>8.3} ms/batch mean  {p90_ms:>8.3} ms p90  ({work:.0})");
        RepairCell {
            name,
            mean_ms,
            p90_ms,
            work,
        }
    }
}

/// Batch `j` of a trace shaped like the serving benchmark's: [`TRACE_ARCS`]
/// arcs of `g` drawn uniformly (self-loops skipped), each re-weighted to
/// between half and twice its weight in `g`.
fn trace_batch(g: &Graph, j: u64) -> Vec<WeightUpdate> {
    let mut rng = SmallRng::seed_from_u64(0x7EA5 ^ j);
    let (offsets, edges, _, _) = g.sections();
    let mut batch = Vec::with_capacity(TRACE_ARCS);
    while batch.len() < TRACE_ARCS {
        let arc = rng.gen_range(0..edges.len());
        let from = offsets.partition_point(|&o| o as usize <= arc) - 1;
        let e = edges[arc];
        if e.to as usize == from {
            continue;
        }
        let scaled = f64::from(e.weight) * rng.gen_range(0.5..2.0);
        batch.push(WeightUpdate {
            from: from as NodeId,
            to: e.to,
            weight: (scaled as u32).max(1),
        });
    }
    batch
}

/// The repair axis on full-size CAL: [`REPAIR_BATCHES`] trace batches,
/// each repairing 16 Farthest landmark tables and the Crater row the way
/// the service does (into the version two batches back, through its
/// journal, in one reused scratch), and each translated onto CAL reduced
/// around a 4100-source pool and Crater, loaded from its memory-mapped v2
/// file like the service's. Returns the dataset label and
/// the `landmarks`, `target_row` and `translate` cells.
fn repair_axis() -> (String, Vec<RepairCell>) {
    let env = CalEnv::new(1.0, 16);
    let crater = env.categories.members(env.cal.crater).to_vec();
    let trace: Vec<Vec<WeightUpdate>> = (0..REPAIR_BATCHES as u64)
        .map(|j| trace_batch(&env.graph, j))
        .collect();

    let mut graph = env.graph.clone();
    let mut index = env.landmarks.clone();
    let mut row = TargetRow::build(&graph, &crater);
    let (mut index_spare, mut row_spare) = (None, None);
    let (mut index_journal, mut row_journal) = (Vec::new(), Vec::new());
    let mut scratch = RepairScratch::default();
    let (mut index_ms, mut row_ms) = (Vec::new(), Vec::new());
    let (mut index_settled, mut row_settled) = (0u64, 0u64);
    for (j, batch) in trace.iter().enumerate() {
        let (next_graph, deltas) = graph.with_updated_weights(batch).expect("trace arcs exist");
        let t0 = Instant::now();
        let (next_index, stats) = index.repaired_reusing(
            &next_graph,
            &deltas,
            index_spare.take(),
            &mut index_journal,
            &mut scratch,
        );
        index_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        index_settled += stats.settled_nodes;
        let t0 = Instant::now();
        let (next_row, stats) = row.repaired_reusing(
            &next_graph,
            &deltas,
            row_spare.take(),
            &mut row_journal,
            &mut scratch,
        );
        row_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        row_settled += stats.settled_nodes;
        if (j + 1) % 10 == 0 {
            assert!(
                next_index == index.rebuilt(&next_graph),
                "batch {j}: repaired landmark tables differ from their rebuild"
            );
            assert!(
                next_row == row.rebuilt(&next_graph),
                "batch {j}: repaired target row differs from its rebuild"
            );
        }
        index_spare = Some(std::mem::replace(&mut index, next_index));
        row_spare = Some(std::mem::replace(&mut row, next_row));
        graph = next_graph;
    }

    let sets = env.query_sets(env.cal.crater, 820);
    let mut keep: Vec<NodeId> = sets.groups.concat();
    keep.extend_from_slice(&crater);
    keep.sort_unstable();
    keep.dedup();
    let red = kpj_graph::reduce(&env.graph, &keep, &keep);
    // Served as the service serves it: the reduced v2 file, memory-mapped.
    let dir = std::env::temp_dir().join(format!("bench-kpj-repair-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    let path = dir.join("reduced.kpj2");
    kpj_store::write_store_to_path(&path, &red.graph, None, None, None, Some(&red.reduction))
        .expect("write reduced v2");
    let bundle = kpj_store::open_v2(&path).expect("open reduced v2");
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
    let mut reduction = bundle.reduction.expect("the file carries its reduction");
    let mut reduced = bundle.graph;
    let mut translate_ms = Vec::new();
    let mut interior = 0usize;
    for batch in &trace {
        let t0 = Instant::now();
        let t = reduction
            .translate_updates(&reduced, batch)
            .expect("trace arcs translate");
        translate_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        reduced = reduced
            .with_updated_weights(&t.updates)
            .expect("translated arcs exist")
            .0;
        if let Some(next) = t.reduction {
            interior += 1;
            reduction = next;
        }
    }
    let batches = REPAIR_BATCHES as f64;
    let cells = vec![
        RepairCell::new("landmarks", index_ms, index_settled as f64 / batches),
        RepairCell::new("target_row", row_ms, row_settled as f64 / batches),
        RepairCell::new("translate", translate_ms, interior as f64),
    ];
    (format!("CAL n={}", env.graph.node_count()), cells)
}

struct Workload {
    name: &'static str,
    dataset: String,
    sources: Vec<NodeId>,
    targets: Vec<NodeId>,
}

/// The k regimes the k-sweep axis covers (EXPERIMENTS.md's sidetrack
/// table reads straight off these cells).
const K_SWEEP: [usize; 3] = [5, 20, 100];

/// The k-sweep contenders: the classic deviation algorithm, the
/// deviation-family champion, and the sidetrack engine — the comparison
/// the sweep exists to make.
const K_SWEEP_ALGS: [Algorithm; 3] = [
    Algorithm::DaSptPascoal,
    Algorithm::IterBoundI,
    Algorithm::Sidetrack,
];

struct KSweepCell {
    k: usize,
    name: &'static str,
    ms_per_query: f64,
}

/// Sweep [`K_SWEEP`] × [`K_SWEEP_ALGS`] on one workload: how does the
/// sidetrack engine's cost curve bend against the deviation family as k
/// grows? One warmed engine serves the whole sweep, like
/// [`run_workload`].
fn k_sweep_axis(g: &Graph, lm: &LandmarkIndex, w: &Workload) -> Vec<KSweepCell> {
    let mut engine = QueryEngine::new(g).with_landmarks(lm);
    engine.set_trace_sampling(0);
    let mut cells = Vec::new();
    for &k in &K_SWEEP {
        for &alg in &K_SWEEP_ALGS {
            run_batch(&mut engine, alg, &w.sources, &w.targets, k);
            let (ms, _) = median_ms(&mut engine, alg, &w.sources, &w.targets, k);
            eprintln!("  k={k:>3} {:>12}: {ms:>9.3} ms/query", alg.name());
            cells.push(KSweepCell {
                k,
                name: alg.name(),
                ms_per_query: ms,
            });
        }
    }
    cells
}

/// Storage-subsystem axis: cold-load time of the v2 file and the
/// steady-state effect of the BFS locality reorder.
struct StorageMeasurement {
    /// v2 zero-copy mmap open (header/table checksum only).
    cold_load_ms_v2_mmap: f64,
    v2_bytes: u64,
    /// ms/query on the graph as generated vs BFS-reordered, same
    /// workload (ids translated), landmark tables remapped.
    original_ms_per_query: f64,
    reordered_ms_per_query: f64,
}

/// Cold-load: write the road graph as v2, then time `open_v2` (mmap +
/// header checksum, CSR sections zero-copy).
/// Reorder: run the same warmed batch on the original and the
/// BFS-reordered graph — the answer is invariant, the cache locality is
/// not.
fn storage_axis(g: &Graph, lm: &LandmarkIndex, w: &Workload) -> StorageMeasurement {
    let dir = std::env::temp_dir().join(format!("bench-kpj-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    let v2_path = dir.join("bench.kpj2");
    kpj_store::write_store_to_path(&v2_path, g, None, Some(lm), None, None).expect("write v2");
    let v2_bytes = std::fs::metadata(&v2_path).map_or(0, |m| m.len());

    let mut v2_times = [0.0; RUNS];
    for t in &mut v2_times {
        let t0 = Instant::now();
        let bundle = kpj_store::open_v2(&v2_path).expect("open v2");
        *t = t0.elapsed().as_secs_f64() * 1e3;
        assert!(bundle.graph.is_fully_mapped(), "v2 open copied the CSR");
    }

    // Locality reorder, measured on the flagship algorithm.
    let alg = Algorithm::IterBoundI;
    let mut engine = QueryEngine::new(g).with_landmarks(lm);
    engine.set_trace_sampling(0);
    run_batch(&mut engine, alg, &w.sources, &w.targets, K);
    let (original_ms, _) = median_ms(&mut engine, alg, &w.sources, &w.targets, K);
    let reordered = kpj_store::reorder(g);
    let rlm = kpj_store::remap_landmarks(lm, &reordered.remap);
    let map = |ids: &[NodeId]| -> Vec<NodeId> {
        ids.iter()
            .map(|&v| {
                reordered
                    .remap
                    .to_internal(v)
                    .expect("permutation is total")
            })
            .collect()
    };
    let (rs, rt) = (map(&w.sources), map(&w.targets));
    let mut rengine = QueryEngine::new(&reordered.graph).with_landmarks(&rlm);
    rengine.set_trace_sampling(0);
    run_batch(&mut rengine, alg, &rs, &rt, K);
    let (reordered_ms, _) = median_ms(&mut rengine, alg, &rs, &rt, K);

    std::fs::remove_file(&v2_path).ok();
    std::fs::remove_dir(&dir).ok();
    StorageMeasurement {
        cold_load_ms_v2_mmap: median(&mut v2_times),
        v2_bytes,
        original_ms_per_query: original_ms,
        reordered_ms_per_query: reordered_ms,
    }
}

/// Graph-reduction axis: contract/prune a road network for the
/// workload's `V_S`/`V_T` (`kpj-cli convert --reduce`), build fresh
/// landmarks on the reduced graph, and time every algorithm unreduced vs
/// reduced-with-transparent-re-expansion. Runs on a synthetic road
/// network rather than CAL: the CAL subsample densifies away most
/// degree-2 chains, while road-family graphs keep the long corridors the
/// reduction targets.
struct ReductionMeasurement {
    dataset: String,
    build_ms: f64,
    original_nodes: usize,
    reduced_nodes: usize,
    original_edges: usize,
    reduced_edges: usize,
    /// Median ms/query per algorithm, [`Algorithm::ALL`] order.
    unreduced_ms: Vec<f64>,
    reduced_ms: Vec<f64>,
}

impl ReductionMeasurement {
    /// Fraction of nodes the reduction removed.
    fn node_ratio(&self) -> f64 {
        1.0 - self.reduced_nodes as f64 / self.original_nodes.max(1) as f64
    }

    /// Fraction of arcs the reduction removed.
    fn edge_ratio(&self) -> f64 {
        1.0 - self.reduced_edges as f64 / self.original_edges.max(1) as f64
    }
}

fn reduction_axis(queries: usize, landmark_count: usize, seed: u64) -> ReductionMeasurement {
    let (nodes, arcs) = (20_000usize, 44_000usize);
    let g = kpj_workload::road::RoadConfig::new(nodes, arcs, seed).generate();
    let n = g.node_count();
    let sources = stride_sample(n, queries, 17);
    let targets = stride_sample(n, 40, 3);
    let lm = LandmarkIndex::build(&g, landmark_count, SelectionStrategy::Farthest, seed);

    let t0 = Instant::now();
    let red = kpj_graph::reduce(&g, &sources, &targets);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let rlm = LandmarkIndex::build(
        &red.graph,
        landmark_count,
        SelectionStrategy::Farthest,
        seed,
    );
    let map = |ids: &[NodeId]| -> Vec<NodeId> {
        ids.iter()
            .map(|&v| red.reduction.to_reduced(v).expect("endpoints are kept"))
            .collect()
    };
    let (rs, rt) = (map(&sources), map(&targets));

    let mut unreduced = QueryEngine::new(&g).with_landmarks(&lm);
    unreduced.set_trace_sampling(0);
    let unreduced_ms = Algorithm::ALL
        .iter()
        .map(|&alg| {
            run_batch(&mut unreduced, alg, &sources, &targets, K);
            let (ms, _) = median_ms(&mut unreduced, alg, &sources, &targets, K);
            ms
        })
        .collect();
    let mut engine = QueryEngine::new(&red.graph)
        .with_landmarks(&rlm)
        .with_reduction(&red.reduction);
    engine.set_trace_sampling(0);
    let reduced_ms = Algorithm::ALL
        .iter()
        .map(|&alg| {
            run_batch(&mut engine, alg, &rs, &rt, K);
            let (ms, _) = median_ms(&mut engine, alg, &rs, &rt, K);
            ms
        })
        .collect();
    ReductionMeasurement {
        dataset: format!("road n={nodes} m={arcs}"),
        build_ms,
        original_nodes: g.node_count(),
        reduced_nodes: red.graph.node_count(),
        original_edges: g.edge_count(),
        reduced_edges: red.graph.edge_count(),
        unreduced_ms,
        reduced_ms,
    }
}

fn run_workload(g: &Graph, lm: &LandmarkIndex, w: &Workload) -> Vec<AlgoMeasurement> {
    let mut engine = QueryEngine::new(g).with_landmarks(lm);
    Algorithm::ALL
        .iter()
        .map(|&alg| {
            let m = measure(&mut engine, alg, &w.sources, &w.targets);
            eprintln!(
                "  {:>12}: {:>9.3} ms/query  {:>9.3} ms/query(trace)  {:>8.1} allocs/query  {:>10.0} B/query",
                m.name,
                m.ms_per_query,
                m.ms_per_query_trace,
                m.allocs_per_query,
                m.alloc_bytes_per_query,
            );
            m
        })
        .collect()
}

/// Deterministic node sample: `count` nodes spread evenly over `0..n`,
/// offset so sources and targets don't collide.
fn stride_sample(n: usize, count: usize, offset: usize) -> Vec<NodeId> {
    let count = count.min(n);
    let stride = (n / count.max(1)).max(1);
    (0..count)
        .map(|i| ((offset + i * stride) % n) as NodeId)
        .collect()
}

fn json_escape_free(s: &str) -> &str {
    debug_assert!(s
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "@._-".contains(c)));
    s
}

/// Flatten a report into `(cell key, value)` pairs for the regression
/// diff: every `workloads.*.algorithms.*` cell contributes its ms/query
/// and allocs/query, every target-row cell its two ms/query, every
/// dense-Dijkstra kernel cell its µs/search, every repair cell its mean
/// and p90 ms/batch, every k-sweep cell its ms/query. Higher is worse
/// for all of them. Sections a (possibly older-schema) report lacks are
/// simply absent — the diff treats those cells as new.
fn flatten_cells(doc: &Json) -> Vec<(String, f64)> {
    let mut cells = Vec::new();
    if let Some(Json::Obj(workloads)) = doc.get("workloads") {
        for (wname, w) in workloads {
            if let Some(Json::Obj(algs)) = w.get("algorithms") {
                for (aname, cell) in algs {
                    for metric in ["ms_per_query", "allocs_per_query"] {
                        if let Some(v) = cell.get(metric).and_then(Json::as_f64) {
                            cells.push((format!("{wname}/{aname}/{metric}"), v));
                        }
                    }
                }
            }
        }
    }
    if let Some(Json::Obj(cells_by_alg)) = doc.get("target_rows").and_then(|t| t.get("cells")) {
        for (aname, cell) in cells_by_alg {
            for metric in ["rows_off_ms_per_query", "rows_on_ms_per_query"] {
                if let Some(v) = cell.get(metric).and_then(Json::as_f64) {
                    cells.push((format!("target_rows/{aname}/{metric}"), v));
                }
            }
        }
    }
    if let Some(Json::Obj(kernels)) = doc.get("dense_dijkstra") {
        for (wname, cell) in kernels {
            if let Some(v) = cell.get("us_per_search").and_then(Json::as_f64) {
                cells.push((format!("dense_dijkstra/{wname}/us_per_search"), v));
            }
        }
    }
    if let Some(Json::Obj(repair)) = doc.get("repair").and_then(|r| r.get("cells")) {
        for (name, cell) in repair {
            for metric in ["ms_per_batch", "p90_ms"] {
                if let Some(v) = cell.get(metric).and_then(Json::as_f64) {
                    cells.push((format!("repair/{name}/{metric}"), v));
                }
            }
        }
    }
    if let Some(Json::Obj(sweeps)) = doc.get("k_sweep") {
        for (wname, arr) in sweeps {
            for cell in arr.as_arr().unwrap_or(&[]) {
                if let (Some(k), Some(alg), Some(ms)) = (
                    cell.get("k").and_then(Json::as_u64),
                    cell.get("algorithm").and_then(Json::as_str),
                    cell.get("ms_per_query").and_then(Json::as_f64),
                ) {
                    cells.push((format!("k_sweep/{wname}/k={k}/{alg}/ms_per_query"), ms));
                }
            }
        }
    }
    cells
}

/// Diff the fresh report against a committed baseline and print the
/// delta table. Returns the number of regressed cells: a cell regresses
/// when it is worse than the baseline by more than `pct` percent *and*
/// by more than a small absolute slack (timings jitter below a few
/// microseconds; allocation counts are deterministic but reported as
/// per-query averages, so sub-alloc drift is rounding). Cells present
/// on only one side are reported but never count as regressions —
/// that's how a new algorithm or axis enters the baseline.
fn compare_reports(baseline_path: &str, baseline: &Json, current: &Json, pct: f64) -> usize {
    let base_cells = flatten_cells(baseline);
    let cur_cells = flatten_cells(current);
    let mut regressions = 0;
    eprintln!("==> compare vs {baseline_path} (threshold +{pct:.0}%)");
    for (key, cur) in &cur_cells {
        match base_cells.iter().find(|(k, _)| k == key) {
            None => eprintln!("  {key:<56} {:>9} -> {cur:>9.3}  (new cell)", "-"),
            Some((_, base)) => {
                let delta = if *base > 0.0 {
                    (cur / base - 1.0) * 100.0
                } else if *cur > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                let slack = if key.ends_with("allocs_per_query") {
                    0.5
                } else {
                    0.002
                };
                let regressed = delta > pct && cur - base > slack;
                regressions += usize::from(regressed);
                eprintln!(
                    "  {key:<56} {base:>9.3} -> {cur:>9.3}  ({delta:>+7.1}%){}",
                    if regressed { "  REGRESSION" } else { "" },
                );
            }
        }
    }
    for (key, _) in &base_cells {
        if !cur_cells.iter().any(|(k, _)| k == key) {
            eprintln!("  {key:<56} dropped from report");
        }
    }
    regressions
}

fn main() {
    let mut out_path = "BENCH_kpj.json".to_string();
    let mut queries = 6usize;
    let mut compare_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--queries" => {
                queries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--queries needs a number")
            }
            "--compare" => compare_path = Some(args.next().expect("--compare needs a path")),
            other => {
                eprintln!("unknown argument `{other}` (expected --out / --queries / --compare)");
                std::process::exit(2);
            }
        }
    }
    // Read the baseline *before* the sweep so a bad path fails in
    // seconds, not after minutes of timed passes.
    let baseline = compare_path.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("baseline {path} is not valid JSON: {e}");
            std::process::exit(2);
        })
    });

    let started = Instant::now();

    // Road workload: CAL at 5% scale, Crater category, the middle distance
    // quantile (Q3) — the paper's default shape.
    eprintln!("==> road workload (CAL@0.05, crater, Q3, k={K})");
    let cal = CalEnv::new(0.05, 16);
    let road = Workload {
        name: "road",
        dataset: format!("CAL@0.05 n={}", cal.graph.node_count()),
        sources: cal.query_sets(cal.cal.crater, queries).group(3).to_vec(),
        targets: cal.categories.members(cal.cal.crater).to_vec(),
    };
    let road_rows = run_workload(&cal.graph, &cal.landmarks, &road);

    // Social workload: Watts–Strogatz small world (the paper's §1
    // motivating application), stride-sampled sources and targets.
    eprintln!("==> social workload (WS n=4000, k={K})");
    let social_graph = SocialConfig::new(4_000, 0x50C1A1).generate();
    let social_lm = LandmarkIndex::build(&social_graph, 16, SelectionStrategy::Farthest, 0x50C1A1);
    let n = social_graph.node_count();
    let social = Workload {
        name: "social",
        dataset: format!("WS@4000 n={n}"),
        sources: stride_sample(n, queries, 17),
        targets: stride_sample(n, 40, 3),
    };
    let social_rows = run_workload(&social_graph, &social_lm, &social);

    // Target-row axis: the exact d(v, V_T) row the service keeps for a
    // recurring set, against the per-query Eq. (2) bound.
    eprintln!("==> target rows, road (rows off vs on, k={K})");
    let (row_build_ms, row_cells) = target_row_axis(&cal.graph, &cal.landmarks, &road);

    // Kernel axis: the whole-graph reverse SPT under Sidetrack and DA-SPT.
    eprintln!("==> dense_dijkstra kernel (full backward search, pooled)");
    let dense_cells = dense_dijkstra_axis();

    // Repair axis: what a road update batch costs the service.
    eprintln!("==> repair (CAL, {REPAIR_BATCHES} trace batches of {TRACE_ARCS} arcs)");
    let (repair_dataset, repair_cells) = repair_axis();

    // k-sweep axis: sidetrack vs the deviation family across k regimes.
    eprintln!("==> k sweep, road (k in {K_SWEEP:?})");
    let road_ksweep = k_sweep_axis(&cal.graph, &cal.landmarks, &road);
    eprintln!("==> k sweep, social (k in {K_SWEEP:?})");
    let social_ksweep = k_sweep_axis(&social_graph, &social_lm, &social);

    // Storage axis: v2 cold load + the locality reorder.
    eprintln!("==> storage (v2-mmap cold load, BFS reorder), road");
    let storage = storage_axis(&cal.graph, &cal.landmarks, &road);
    eprintln!(
        "  cold load: v2-mmap {:.3} ms ({} B)",
        storage.cold_load_ms_v2_mmap, storage.v2_bytes,
    );
    eprintln!(
        "  reorder: original {:.3} ms/query  reordered {:.3} ms/query",
        storage.original_ms_per_query, storage.reordered_ms_per_query,
    );

    // Reduction axis: contract/prune a synthetic road network for its
    // workload's V_S/V_T and re-time every algorithm with transparent
    // re-expansion.
    eprintln!("==> reduction (convert --reduce), synthetic road");
    let reduction = reduction_axis(queries, 16, 0xCA1);
    eprintln!(
        "  reduce: {} -> {} nodes (-{:.1}%), {} -> {} arcs (-{:.1}%), built in {:.1} ms",
        reduction.original_nodes,
        reduction.reduced_nodes,
        reduction.node_ratio() * 100.0,
        reduction.original_edges,
        reduction.reduced_edges,
        reduction.edge_ratio() * 100.0,
        reduction.build_ms,
    );
    for ((&alg, &ums), &rms) in Algorithm::ALL
        .iter()
        .zip(&reduction.unreduced_ms)
        .zip(&reduction.reduced_ms)
    {
        eprintln!(
            "  {:>12}: {:>9.3} ms/query unreduced  {:>9.3} ms/query reduced  ({:+.1}%)",
            alg.name(),
            ums,
            rms,
            (rms / ums - 1.0) * 100.0,
        );
    }

    let mut json = String::new();
    json.push_str("{\n  \"schema\": 2,\n  \"k\": ");
    let _ = write!(json, "{K}");
    json.push_str(",\n  \"workloads\": {\n");
    for (wi, (w, rows)) in [(&road, &road_rows), (&social, &social_rows)]
        .into_iter()
        .enumerate()
    {
        if wi > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    \"{}\": {{\n      \"dataset\": \"{}\",\n      \"queries\": {},\n      \"algorithms\": {{\n",
            w.name,
            json_escape_free(&w.dataset.replace(' ', "_")),
            rows.first().map_or(0, |m| m.batch.queries),
        );
        for (i, m) in rows.iter().enumerate() {
            if i > 0 {
                json.push_str(",\n");
            }
            let ms = m.ms_per_query;
            let qps = if ms > 0.0 { 1e3 / ms } else { 0.0 };
            let _ = write!(
                json,
                "        \"{}\": {{\"ms_per_query\": {:.4}, \"ms_per_query_trace\": {:.4}, \"queries_per_sec\": {:.2}, \"allocs_per_query\": {:.1}, \"alloc_bytes_per_query\": {:.0}}}",
                m.name, ms, m.ms_per_query_trace, qps, m.allocs_per_query, m.alloc_bytes_per_query,
            );
        }
        json.push_str("\n      }\n    }");
    }
    let _ = write!(
        json,
        "\n  }},\n  \"target_rows\": {{\n    \"workload\": \"road\",\n    \"row_build_ms\": {row_build_ms:.4},\n    \"cells\": {{\n"
    );
    for (i, c) in row_cells.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "      \"{}\": {{\"rows_off_ms_per_query\": {:.4}, \"rows_on_ms_per_query\": {:.4}, \"speedup\": {:.2}, \"rows_on_allocs_per_query\": {:.1}}}",
            c.name,
            c.rows_off_ms,
            c.rows_on_ms,
            c.rows_off_ms / c.rows_on_ms,
            c.allocs_per_query_on,
        );
    }
    json.push_str("\n    }\n  },\n  \"dense_dijkstra\": {\n");
    for (i, c) in dense_cells.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    \"{}\": {{\"dataset\": \"{}\", \"targets\": {}, \"us_per_search\": {:.1}}}",
            c.name,
            json_escape_free(&c.dataset.replace(' ', "_")),
            c.targets,
            c.us_per_search,
        );
    }
    let _ = write!(
        json,
        "\n  }},\n  \"repair\": {{\n    \"dataset\": \"{}\",\n    \"batches\": {REPAIR_BATCHES},\n    \"arcs_per_batch\": {TRACE_ARCS},\n    \"cells\": {{\n",
        json_escape_free(&repair_dataset.replace(' ', "_")),
    );
    for (i, c) in repair_cells.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        let work = if c.name == "translate" {
            "interior_batches"
        } else {
            "settled_per_batch"
        };
        let _ = write!(
            json,
            "      \"{}\": {{\"ms_per_batch\": {:.4}, \"p90_ms\": {:.4}, \"{work}\": {:.0}}}",
            c.name, c.mean_ms, c.p90_ms, c.work,
        );
    }
    json.push_str("\n    }\n  },\n  \"k_sweep\": {\n");
    for (wi, (name, cells)) in [("road", &road_ksweep), ("social", &social_ksweep)]
        .into_iter()
        .enumerate()
    {
        if wi > 0 {
            json.push_str(",\n");
        }
        let _ = writeln!(json, "    \"{name}\": [");
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                json.push_str(",\n");
            }
            let _ = write!(
                json,
                "      {{\"k\": {}, \"algorithm\": \"{}\", \"ms_per_query\": {:.4}}}",
                c.k, c.name, c.ms_per_query,
            );
        }
        json.push_str("\n    ]");
    }
    json.push_str("\n  },\n");
    let _ = write!(
        json,
        "  \"storage\": {{\n    \"cold_load_ms_v2_mmap\": {:.4},\n    \"v2_bytes\": {},\n    \"reorder\": {{\"algorithm\": \"{}\", \"original_ms_per_query\": {:.4}, \"reordered_ms_per_query\": {:.4}}}\n  }},\n",
        storage.cold_load_ms_v2_mmap,
        storage.v2_bytes,
        Algorithm::IterBoundI.name(),
        storage.original_ms_per_query,
        storage.reordered_ms_per_query,
    );
    let _ = write!(
        json,
        "  \"reduction\": {{\n    \"dataset\": \"{}\",\n    \"reduce_build_ms\": {:.4},\n    \"original_nodes\": {},\n    \"reduced_nodes\": {},\n    \"reduce_node_ratio\": {:.4},\n    \"original_edges\": {},\n    \"reduced_edges\": {},\n    \"reduce_edge_ratio\": {:.4},\n    \"algorithms\": {{\n",
        json_escape_free(&reduction.dataset.replace(' ', "_")),
        reduction.build_ms,
        reduction.original_nodes,
        reduction.reduced_nodes,
        reduction.node_ratio(),
        reduction.original_edges,
        reduction.reduced_edges,
        reduction.edge_ratio(),
    );
    for (i, ((&alg, &ums), &rms)) in Algorithm::ALL
        .iter()
        .zip(&reduction.unreduced_ms)
        .zip(&reduction.reduced_ms)
        .enumerate()
    {
        if i > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "      \"{}\": {{\"unreduced_ms_per_query\": {:.4}, \"reduced_ms_per_query\": {:.4}}}",
            alg.name(),
            ums,
            rms,
        );
    }
    json.push_str("\n    }\n  },\n");
    let _ = write!(
        json,
        "  \"wall_seconds\": {:.1}\n}}\n",
        started.elapsed().as_secs_f64()
    );

    std::fs::write(&out_path, &json).expect("write BENCH_kpj.json");
    eprintln!(
        "wrote {out_path} in {:.1}s",
        started.elapsed().as_secs_f64()
    );

    if let (Some(path), Some(baseline)) = (&compare_path, &baseline) {
        let pct = std::env::var("BENCH_REGRESS_PCT")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(25.0);
        let current = Json::parse(&json).expect("own report parses");
        let regressions = compare_reports(path, baseline, &current, pct);
        if regressions > 0 {
            eprintln!("bench-kpj: {regressions} cell(s) regressed beyond {pct:.0}% vs {path}");
            std::process::exit(1);
        }
        eprintln!("bench-kpj: no regression beyond {pct:.0}% vs {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(dense_us: Option<f64>, ms: f64) -> Json {
        let dense = dense_us.map_or(String::new(), |us| {
            format!(r#", "dense_dijkstra": {{"social": {{"us_per_search": {us}}}}}"#)
        });
        let text = format!(
            r#"{{"workloads": {{"road": {{"algorithms": {{"Sidetrack": {{"ms_per_query": {ms}, "allocs_per_query": 0.0}}}}}}}}{dense}}}"#
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn kernel_cells_are_flattened() {
        let cells = flatten_cells(&report(Some(900.0), 1.0));
        assert!(cells.contains(&("dense_dijkstra/social/us_per_search".to_string(), 900.0)));
    }

    #[test]
    fn repair_cells_are_flattened() {
        let doc = Json::parse(
            r#"{"repair": {"cells": {"translate": {"ms_per_batch": 0.5, "p90_ms": 0.9, "interior_batches": 30}}}}"#,
        )
        .unwrap();
        let cells = flatten_cells(&doc);
        assert_eq!(
            cells,
            vec![
                ("repair/translate/ms_per_batch".to_string(), 0.5),
                ("repair/translate/p90_ms".to_string(), 0.9),
            ]
        );
    }

    #[test]
    fn a_cell_absent_from_the_baseline_is_new_not_a_regression() {
        let baseline = report(None, 1.0);
        let current = report(Some(900.0), 1.0);
        assert_eq!(compare_reports("base", &baseline, &current, 25.0), 0);
    }

    #[test]
    fn a_slower_kernel_cell_regresses() {
        let baseline = report(Some(900.0), 1.0);
        let current = report(Some(2000.0), 1.0);
        assert_eq!(compare_reports("base", &baseline, &current, 25.0), 1);
    }
}
