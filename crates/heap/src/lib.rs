//! Priority queues for the `kpj` workspace.
//!
//! Three queues cover every algorithm in the paper:
//!
//! * [`IndexedKaryHeap`] — a k-ary min-heap over a *dense* key universe
//!   `0..capacity` with `O(log n)` `decrease-key`. This is the queue inside
//!   the subspace searches (`QV` in Alg. 5), the `SPT_P` build (`QT` in
//!   Alg. 6) and the deviation baselines: each graph node appears at most
//!   once, and label corrections decrease its key in place, so no stale
//!   entries are ever popped.
//!   [`IndexedMinHeap`] is its binary (`A = 2`) alias; the engine's hot
//!   search loop uses arity 4 (shallower sift-up for decrease-key-heavy
//!   workloads; 4-ary measured 1.17× faster than binary on a
//!   decrease-key-heavy replay when it was chosen).
//! * [`RadixHeap`] — a monotone radix heap over `u64` keys with lazy
//!   deletion: the queue of the whole-graph `DenseDijkstra` (full SPTs,
//!   target rows, landmark tables), of the incremental `SPT_I`
//!   (`QT` in Alg. 7, an A\* under a consistent bound) and of the
//!   landmark and target-row repair after an update batch, whose keys
//!   never drop below the last popped one.
//! * [`MinHeap`] — a thin min-ordered convenience wrapper around
//!   `std::collections::BinaryHeap` for queues whose entries are not dense
//!   (the subspace queue `Q` of Alg. 2/Alg. 4, candidate sets, generators).
//!
//! All are allocation-frugal: `IndexedKaryHeap` and `RadixHeap` reuse
//! their backing arrays across searches through `clear`, and `MinHeap`
//! exposes `with_capacity`.

#![warn(missing_docs)]

mod indexed;
mod min_heap;
mod radix;

pub use indexed::{IndexedKaryHeap, IndexedMinHeap};
pub use min_heap::MinHeap;
pub use radix::RadixHeap;
