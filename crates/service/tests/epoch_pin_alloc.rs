//! The zero-alloc gate for epoch pinning: admitting a query onto the
//! current graph epoch ([`EpochCell::pin`]) and releasing the pin must
//! not allocate — a pin is a read-lock plus an `Arc` refcount bump, so
//! the engine-side zero-allocation steady state (see
//! `kpj-core/tests/alloc_count.rs`) survives the versioning layer. The
//! same holds for a warmed worker's target-row lookup
//! ([`serve_row`] on a held row): a pooled normalization buffer, a
//! read-lock, and another refcount bump.
//!
//! This file is its own integration-test binary on purpose: it installs
//! a process-wide counting allocator, and a single `#[test]` keeps the
//! measured window free of sibling-test noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kpj_graph::GraphBuilder;
use kpj_service::rows::serve_row;
use kpj_service::{EpochCell, Sightings, TargetRows};

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

/// Run `f` and return the number of allocations it made, retrying up to
/// three times and keeping the minimum. The counter is process-global and
/// libtest's own main thread lazily initializes a thread-local channel
/// context (two small allocations) the first time it *blocks* waiting for
/// a test event — a one-shot, timing-dependent blip that is not ours
/// (same defense as `kpj-core/tests/alloc_count.rs`). A genuine per-pin
/// allocation fires on every attempt, so the minimum still gates at zero.
fn min_alloc_delta(mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = alloc_calls();
        f();
        best = best.min(alloc_calls() - before);
    }
    best
}

#[test]
fn pinning_and_unpinning_an_epoch_never_allocates() {
    let mut b = GraphBuilder::new(3);
    b.add_bidirectional(0, 1, 1).unwrap();
    b.add_bidirectional(1, 2, 1).unwrap();
    let cell = EpochCell::new(Arc::new(b.build()), None);

    // Warm-up: let any lazy one-time state settle.
    for _ in 0..8 {
        let pin = cell.pin();
        assert_eq!(pin.id(), 0);
    }

    let allocated = min_alloc_delta(|| {
        for _ in 0..10_000 {
            let pin = cell.pin();
            std::hint::black_box(pin.id());
            drop(pin);
        }
    });
    assert_eq!(
        allocated, 0,
        "pin/unpin allocated {allocated} times over 10k cycles"
    );

    // Publishing MAY allocate (it builds a new epoch off the hot path),
    // but pins of the fresh epoch must again be allocation-free.
    let mut b = GraphBuilder::new(3);
    b.add_bidirectional(0, 1, 9).unwrap();
    b.add_bidirectional(1, 2, 9).unwrap();
    cell.publish(Arc::new(b.build()), None, None, TargetRows::default(), 2);
    let allocated = min_alloc_delta(|| {
        for _ in 0..10_000 {
            let pin = cell.pin();
            std::hint::black_box(pin.id());
        }
    });
    assert_eq!(allocated, 0, "post-swap pins allocated");

    // A warmed worker's row lookup. The first two sightings of the set
    // build its row (allocating, once); from then on every query finds
    // it through the worker's pooled key buffer without allocating.
    let epoch = cell.pin();
    let sightings = Sightings::default();
    let mut key = Vec::new();
    for _ in 0..2 {
        serve_row(&epoch, &[2, 0, 2], &mut key, &sightings, true, None);
    }
    assert_eq!(epoch.rows().len(), 1, "the second sighting built the row");
    let allocated = min_alloc_delta(|| {
        for _ in 0..10_000 {
            let row = serve_row(&epoch, &[2, 0, 2], &mut key, &sightings, true, None);
            std::hint::black_box(row.expect("the row is held"));
        }
    });
    assert_eq!(
        allocated, 0,
        "row lookups allocated {allocated} times over 10k queries"
    );
}
