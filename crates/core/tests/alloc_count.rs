//! Zero-allocation steady state: after one warm-up pass, a
//! [`QueryEngine`] — without landmarks, with landmarks, and with landmarks
//! plus an exact target row — answers repeat KPJ queries through
//! `query_multi_into` without a single heap allocation, for every
//! algorithm — *with the
//! structured tracer recording spans*. Tracing is on by default, so this
//! test doubles as proof that span recording stays off the heap; the span
//! assertions below verify spans were actually produced (the guarantee is
//! not vacuous).
//!
//! Gated behind the `count-alloc` feature because it installs a counting
//! global allocator for the whole test process:
//!
//! ```text
//! cargo test -p kpj-core --features count-alloc --test alloc_count -- --test-threads=1
//! ```
//!
//! (`--test-threads=1` because the allocator counts process-wide: a
//! sibling test thread mid-window would register as a false positive.)
#![cfg(feature = "count-alloc")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use kpj_core::{Algorithm, Deadline, QueryEngine};
use kpj_graph::{Graph, GraphBuilder, NodeId, PathSet, WeightUpdate};
use kpj_landmark::{LandmarkIndex, SelectionStrategy, TargetRow};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc may move and copy — it counts as an allocation.
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

// The counter is process-global, so a measured window in one test would
// observe allocations made by another test running on a sibling thread.
// Every test holds this lock for its full duration (futex-based, no
// allocation); a poisoned lock is fine — the panicking test already failed.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` and return the number of allocations it made, retrying up to
/// three times and keeping the minimum. Even with tests serialized,
/// libtest's own main thread lazily initializes a thread-local channel
/// context (two small allocations) the first time it *blocks* waiting for
/// a test event — a one-shot, timing-dependent blip that is not ours.
/// A genuine per-query engine allocation fires on every attempt, so the
/// minimum still gates at zero.
fn min_alloc_delta(mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = alloc_calls();
        f();
        best = best.min(alloc_calls() - before);
        if best == 0 {
            break;
        }
    }
    best
}

/// A deterministic lattice-with-chords graph: dense enough that every
/// algorithm exercises deviations, exclusion lists, bounded probes and
/// SPT growth for k = 12.
fn lattice(n: u32, cols: u32) -> kpj_graph::Graph {
    let mut b = GraphBuilder::new(n as usize);
    let mut w = 1u32;
    for v in 0..n {
        w = w.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        if v % cols + 1 < cols && v + 1 < n {
            b.add_bidirectional(v, v + 1, 1 + w % 97).unwrap();
        }
        if v + cols < n {
            b.add_bidirectional(v, v + cols, 1 + (w >> 8) % 97).unwrap();
        }
        // A chord every few nodes for path diversity.
        if v % 7 == 0 && v + 2 * cols + 1 < n {
            b.add_bidirectional(v, v + 2 * cols + 1, 40 + (w >> 16) % 211)
                .unwrap();
        }
    }
    b.build()
}

/// The bound configurations every warmed engine is gated in.
#[derive(Debug, Clone, Copy)]
enum Bounds {
    /// `-NL`: no landmarks, zero bounds.
    None,
    /// Landmark Eq. (2) bounds (per-query tables pooled on the engine).
    Landmarks,
    /// Landmarks plus an exact target row for the query's target set.
    LandmarksAndRow,
}

#[test]
fn warmed_engine_answers_queries_without_allocating() {
    let _serial = serial();
    let g = lattice(400, 20);
    let sources: Vec<NodeId> = vec![0, 1];
    let targets: Vec<NodeId> = vec![395, 397, 399];
    let k = 12;
    let landmarks = LandmarkIndex::build(&g, 4, SelectionStrategy::Farthest, 7);
    let row = std::sync::Arc::new(TargetRow::build(&g, &targets));

    for bounds in [Bounds::None, Bounds::Landmarks, Bounds::LandmarksAndRow] {
        let mut engine = QueryEngine::new(&g);
        if !matches!(bounds, Bounds::None) {
            engine = engine.with_landmarks(&landmarks);
        }
        if matches!(bounds, Bounds::LandmarksAndRow) {
            engine = engine.with_target_row(std::sync::Arc::clone(&row));
        }
        warmed_queries_do_not_allocate(&mut engine, bounds, &sources, &targets, k);
    }
}

fn warmed_queries_do_not_allocate(
    engine: &mut QueryEngine<'_>,
    bounds: Bounds,
    sources: &[NodeId],
    targets: &[NodeId],
    k: usize,
) {
    let mut out = PathSet::new();
    for alg in Algorithm::ALL {
        // Warm-up: grows every pooled buffer (arena, pseudo-tree pools,
        // heaps, timestamp maps, PathSet flat buffers) to steady state.
        let stats = engine
            .query_multi_into(alg, sources, targets, k, Deadline::none(), &mut out)
            .unwrap();
        assert_eq!(out.len(), k, "{}: warm-up under-filled", alg.name());
        // The row configuration really reads the row.
        let rowed = matches!(bounds, Bounds::LandmarksAndRow) && alg.reads_target_bounds();
        assert_eq!(
            stats.target_row,
            usize::from(rowed),
            "{} {bounds:?}",
            alg.name()
        );
        let warm = out.lengths();

        // Steady state: repeat queries, zero allocations.
        let delta = min_alloc_delta(|| {
            engine
                .query_multi_into(alg, sources, targets, k, Deadline::none(), &mut out)
                .unwrap();
        });
        assert_eq!(
            delta,
            0,
            "{} {bounds:?}: {delta} heap allocations in a warmed-up query",
            alg.name()
        );
        assert_eq!(out.lengths(), warm, "{}: answer drifted", alg.name());
        // The zero-allocation claim must hold *while tracing*: every
        // sampled query leaves a non-empty span trace behind.
        let (older, newer) = engine.trace_spans();
        assert!(
            older.len() + newer.len() > 0,
            "{}: tracing was enabled but recorded no spans",
            alg.name()
        );
    }
}

/// The whole-graph reverse SPT behind Sidetrack and DA-SPT runs on a
/// radix heap whose buckets are refilled by redistribution on almost
/// every pop. On a small world with weights 1..=10, many nodes tie at
/// equal distance and many have several tight next hops, so bucket
/// redistribution and the SPT's tie rule both run hot. Once warm, those
/// engines (and every other one) still answer without allocating.
#[test]
fn warmed_engines_on_tie_heavy_small_world_are_allocation_free() {
    let _serial = serial();
    let g = kpj_workload::social::SocialConfig::new(800, 0x71E5).generate();
    let sources: Vec<NodeId> = vec![0, 1];
    let targets: Vec<NodeId> = vec![400, 401, 402];
    let k = 12;

    // Not vacuous: the reverse SPT really has ties to break.
    let spt = kpj_sp::DenseDijkstra::to_targets(&g, &targets);
    let tied = g
        .nodes()
        .filter(|&v| {
            let tight = g
                .out_edges(v)
                .iter()
                .filter(|e| spt.dist(e.to) + e.weight as u64 == spt.dist(v))
                .count();
            tight >= 2
        })
        .count();
    assert!(tied >= 20, "only {tied} nodes with tied next hops");

    let landmarks = LandmarkIndex::build(&g, 4, SelectionStrategy::Farthest, 7);
    for bounds in [Bounds::None, Bounds::Landmarks] {
        let mut engine = QueryEngine::new(&g);
        if matches!(bounds, Bounds::Landmarks) {
            engine = engine.with_landmarks(&landmarks);
        }
        warmed_queries_do_not_allocate(&mut engine, bounds, &sources, &targets, k);
    }
}

/// Move `engine` onto `g` and answer one query there.
fn retarget_and_query<'g>(
    engine: QueryEngine<'g>,
    g: &'g Graph,
    alg: Algorithm,
    out: &mut PathSet,
) -> QueryEngine<'g> {
    let mut engine = engine.retarget(g, None, None);
    engine
        .query_multi_into(alg, &[0, 1], &[395, 397, 399], 12, Deadline::none(), out)
        .unwrap();
    engine
}

/// An epoch swap in the serving pool: a warmed engine retargeted onto a
/// weight-updated version of its graph keeps every scratch buffer, so it
/// answers there without a single allocation — and exactly like a fresh
/// engine built on the new version.
#[test]
fn retargeted_engine_answers_without_allocating() {
    let _serial = serial();
    let g = lattice(400, 20);
    // Re-weight edges next to both ends of the query, so the answers on
    // the two versions differ.
    let updates: Vec<WeightUpdate> = [0u32, 1, 20, 21, 375, 379, 398]
        .iter()
        .flat_map(|&v| g.out_edges(v).iter().map(move |e| (v, *e)))
        .map(|(v, e)| WeightUpdate {
            from: v,
            to: e.to,
            weight: e.weight * 5 + 3,
        })
        .collect();
    let (updated, deltas) = g.with_updated_weights(&updates).unwrap();
    assert!(!deltas.is_empty());
    let mut out = PathSet::new();

    for alg in Algorithm::ALL {
        let want = QueryEngine::new(&updated)
            .query_multi(alg, &[0, 1], &[395, 397, 399], 12)
            .unwrap()
            .paths;
        // Warm-up on both versions grows every pooled buffer to what
        // either answer needs.
        let mut engine = QueryEngine::new(&g);
        for version in [&g, &updated, &g] {
            engine = retarget_and_query(engine, version, alg, &mut out);
        }
        let mut slot = Some(engine);
        let delta = min_alloc_delta(|| {
            let engine = retarget_and_query(slot.take().unwrap(), &updated, alg, &mut out);
            assert_eq!(out, want, "{}: retargeted answer differs", alg.name());
            slot = Some(retarget_and_query(engine, &g, alg, &mut out));
        });
        assert_eq!(
            delta,
            0,
            "{}: {delta} heap allocations across a retarget and a query",
            alg.name()
        );
        assert_ne!(out, want, "{}: the update changed no answer", alg.name());
    }
}

/// Draining the span ring between queries (what the service pool worker
/// does) is also allocation-free, and sampling can be retuned live
/// without touching the heap.
#[test]
fn span_drain_and_sampling_are_allocation_free() {
    use kpj_obs::Stage;

    let _serial = serial();
    let g = lattice(300, 15);
    let mut engine = QueryEngine::new(&g);
    let mut out = PathSet::new();
    let mut histogram = [0u64; Stage::COUNT];
    engine
        .query_multi_into(
            Algorithm::IterBoundI,
            &[3],
            &[296],
            8,
            Deadline::none(),
            &mut out,
        )
        .unwrap();

    let mut seen = 0usize;
    let delta = min_alloc_delta(|| {
        engine.set_trace_sampling(1);
        engine
            .query_multi_into(
                Algorithm::IterBoundI,
                &[3],
                &[296],
                8,
                Deadline::none(),
                &mut out,
            )
            .unwrap();
        let (older, newer) = engine.trace_spans();
        seen = 0;
        for s in older.iter().chain(newer) {
            histogram[s.stage.index()] += s.dur_ns;
            seen += 1;
        }
        // Retune to "trace every third query" and run one untraced query.
        engine.set_trace_sampling(3);
        engine
            .query_multi_into(
                Algorithm::IterBoundI,
                &[3],
                &[296],
                8,
                Deadline::none(),
                &mut out,
            )
            .unwrap();
    });
    assert_eq!(delta, 0, "span drain allocated");
    assert!(seen > 0, "sampled query recorded no spans");
    assert!(histogram[Stage::SptBuild.index()] > 0 || histogram[Stage::SpSearch.index()] > 0);
}

#[test]
fn warmed_engine_single_source_ksp_is_allocation_free() {
    let _serial = serial();
    let g = lattice(300, 15);
    let mut engine = QueryEngine::new(&g);
    let mut out = PathSet::new();
    for alg in Algorithm::ALL {
        engine
            .query_multi_into(alg, &[3], &[296], 8, Deadline::none(), &mut out)
            .unwrap();
        let delta = min_alloc_delta(|| {
            engine
                .query_multi_into(alg, &[3], &[296], 8, Deadline::none(), &mut out)
                .unwrap();
        });
        assert_eq!(delta, 0, "{}", alg.name());
    }
}

/// A hub ring where consecutive hubs are joined by bidirectional
/// degree-2 corridors of `interior` nodes each, plus chords for path
/// diversity: `kpj_graph::reduce` contracts every corridor into twin
/// shortcuts, so answers must re-expand through the reduction.
fn corridor_ring(hubs: u32, interior: u32) -> kpj_graph::Graph {
    let n = hubs + hubs * interior;
    let mut b = GraphBuilder::new(n as usize);
    let mut w = 1u32;
    let mut fresh = hubs;
    for h in 0..hubs {
        let mut prev = h;
        for _ in 0..interior {
            w = w.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            b.add_bidirectional(prev, fresh, 1 + w % 53).unwrap();
            prev = fresh;
            fresh += 1;
        }
        w = w.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        b.add_bidirectional(prev, (h + 1) % hubs, 1 + w % 53)
            .unwrap();
        if h % 2 == 0 {
            b.add_bidirectional(h, (h + 3) % hubs, 60 + w % 97).unwrap();
        }
    }
    b.build()
}

/// The reduction layer's steady-state contract: a warmed engine serving a
/// reduced graph — every emitted path re-expanded through the pooled
/// expansion buffer back to original node ids — answers repeat queries
/// with **zero** heap allocations for every algorithm, exactly like the
/// unreduced engine. The final assertions prove the gate is not vacuous:
/// the reduction really contracted chains, and the measured answers
/// really contain re-expanded interior nodes.
#[test]
fn warmed_reduced_engine_expands_paths_without_allocating() {
    let _serial = serial();
    let hubs = 12u32;
    let g = corridor_ring(hubs, 6);
    let sources: Vec<NodeId> = vec![0, 1];
    let targets: Vec<NodeId> = vec![6, 7];
    let k = 10;

    let red = kpj_graph::reduce(&g, &sources, &targets);
    assert!(
        red.reduction.shortcut_count() > 0,
        "corridors did not contract — the reduced gate would be vacuous"
    );
    let rs: Vec<NodeId> = sources
        .iter()
        .map(|&v| red.reduction.to_reduced(v).unwrap())
        .collect();
    let rt: Vec<NodeId> = targets
        .iter()
        .map(|&v| red.reduction.to_reduced(v).unwrap())
        .collect();

    let mut engine = QueryEngine::new(&red.graph).with_reduction(&red.reduction);
    let mut out = PathSet::new();

    for alg in Algorithm::ALL {
        // Warm-up grows the pooled expansion buffer along with the usual
        // engine scratch.
        engine
            .query_multi_into(alg, &rs, &rt, k, Deadline::none(), &mut out)
            .unwrap();
        assert_eq!(out.len(), k, "{}: warm-up under-filled", alg.name());
        let warm = out.lengths();

        let delta = min_alloc_delta(|| {
            engine
                .query_multi_into(alg, &rs, &rt, k, Deadline::none(), &mut out)
                .unwrap();
        });
        assert_eq!(
            delta,
            0,
            "{}: {delta} heap allocations in a warmed-up reduced query",
            alg.name()
        );
        assert_eq!(out.lengths(), warm, "{}: answer drifted", alg.name());
        assert!(
            out.iter().any(|p| p.nodes.iter().any(|&v| v >= hubs)),
            "{}: no answer traversed a re-expanded chain interior",
            alg.name()
        );
    }
}

/// Cold-start contract of the v2 storage subsystem: a graph opened
/// zero-copy from a mmapped file (CSR sections — forward *and* reverse —
/// straight out of the page cache, proven by `is_fully_mapped`) drives
/// the very same zero-allocation steady state, with answers bit-identical
/// to the heap-built graph for every algorithm.
#[test]
fn warmed_engine_on_mmapped_graph_is_allocation_free() {
    let _serial = serial();
    let g = lattice(400, 20);
    let dir = std::env::temp_dir().join(format!("kpj-alloc-count-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lattice.kpj2");
    kpj_store::write_store_to_path(&path, &g, None, None, None, None).unwrap();
    let bundle = kpj_store::open_v2(&path).unwrap();
    assert!(
        bundle.graph.is_fully_mapped(),
        "CSR sections were parsed/copied instead of mmapped"
    );
    let mapped = bundle.graph;

    let sources: Vec<NodeId> = vec![0, 1];
    let targets: Vec<NodeId> = vec![395, 397, 399];
    let k = 12;
    let mut heap_engine = QueryEngine::new(&g);
    let mut engine = QueryEngine::new(&mapped);
    let mut heap_out = PathSet::new();
    let mut out = PathSet::new();

    for alg in Algorithm::ALL {
        heap_engine
            .query_multi_into(alg, &sources, &targets, k, Deadline::none(), &mut heap_out)
            .unwrap();
        engine
            .query_multi_into(alg, &sources, &targets, k, Deadline::none(), &mut out)
            .unwrap();
        assert_eq!(out, heap_out, "{}: mmap-backed answer diverged", alg.name());

        let delta = min_alloc_delta(|| {
            engine
                .query_multi_into(alg, &sources, &targets, k, Deadline::none(), &mut out)
                .unwrap();
        });
        assert_eq!(
            delta,
            0,
            "{}: {delta} heap allocations in a warmed-up query on the mmapped graph",
            alg.name()
        );
        assert_eq!(out, heap_out, "{}: answer drifted", alg.name());
    }
    drop(engine);
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}
