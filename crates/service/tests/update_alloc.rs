//! The allocation gate for epoch swaps: once the epoch before the current
//! one has retired, a weight update writes the next epoch into that
//! epoch's buffers and copies over only what changed since. Such an
//! update must allocate fewer bytes than one landmark distance row
//! (`n · 8`), so neither an `O(|L|·n)` table copy nor an `O(m)` edge copy
//! can creep back in.
//!
//! This file is its own integration-test binary on purpose: it installs
//! a process-wide counting allocator, and a single `#[test]` keeps the
//! measured window free of sibling-test noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kpj_core::Algorithm;
use kpj_graph::{NodeId, WeightUpdate};
use kpj_landmark::{LandmarkIndex, SelectionStrategy};
use kpj_service::{KpjService, PoolConfig, QueryRequest, ServiceConfig};
use kpj_workload::road::RoadConfig;

struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc may move and copy — its whole new size counts.
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

/// Block until every superseded epoch has retired (idle workers shed
/// theirs when a publish nudges them).
fn wait_for_retirement(service: &KpjService) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.pool().epochs().live_epochs() > 1 {
        assert!(
            Instant::now() < deadline,
            "a superseded epoch never retired"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn update_into_a_retired_epoch_allocates_less_than_one_landmark_row() {
    let graph = RoadConfig::new(20_000, 50_000, 11).generate();
    let n = graph.node_count();
    let edges: Vec<(NodeId, NodeId, u32)> = (0..n as NodeId)
        .flat_map(|u| graph.out_edges(u).iter().map(move |e| (u, e.to, e.weight)))
        .collect();
    let landmarks = Arc::new(LandmarkIndex::build(
        &graph,
        8,
        SelectionStrategy::Farthest,
        3,
    ));
    // The test keeps no handle on the graph, so only the service's
    // epochs own it.
    let service = KpjService::new(
        Arc::new(graph),
        Some(landmarks),
        ServiceConfig {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 8,
                ..Default::default()
            },
            cache_capacity: 64,
            ..ServiceConfig::default()
        },
    );
    // Batch `i`: four edges spread over the graph, alternately raised
    // and lowered so the repair does real work in both directions.
    let batch = |i: usize| -> Vec<WeightUpdate> {
        (0..4)
            .map(|j| {
                let (from, to, w) = edges[(i * 7_919 + j * 104_729) % edges.len()];
                let weight = if (i + j).is_multiple_of(2) {
                    w * 3 + 1
                } else {
                    w / 2
                };
                WeightUpdate { from, to, weight }
            })
            .collect()
    };
    let query = QueryRequest {
        algorithm: Algorithm::IterBoundI,
        sources: vec![5],
        targets: vec![n as NodeId / 2, n as NodeId - 3],
        k: 4,
        timeout_ms: None,
    };

    // Warm-up: the first update copies the initial epoch; later ones
    // recycle, and a query per epoch keeps the worker retargeting.
    for i in 0..8 {
        wait_for_retirement(&service);
        service.apply_update(&batch(i)).unwrap();
        service.execute(&query).unwrap();
    }
    let before = service.snapshot();

    let budget = (n * 8) as u64;
    let mut best = u64::MAX;
    for i in 8..11 {
        wait_for_retirement(&service);
        let start = alloc_bytes();
        let outcome = service.apply_update(&batch(i)).unwrap();
        best = best.min(alloc_bytes() - start);
        assert!(outcome.changed > 0, "batch {i} changed nothing");
    }
    let after = service.snapshot();
    assert_eq!(
        after.buffers_reused - before.buffers_reused,
        3,
        "every measured update should have reused the retired epoch"
    );
    assert_eq!(after.buffers_copied, before.buffers_copied);
    assert!(
        best < budget,
        "an update into a retired epoch allocated {best} bytes, budget {budget} (n·8)"
    );
}
