//! Continental-scale graph storage for the `kpj` workspace.
//!
//! A parse-onto-the-heap load rebuilds every CSR array on each start —
//! fine at thousands of nodes, prohibitive at DIMACS-USA scale (~24M
//! nodes). This crate owns the workspace's one on-disk format, v2
//! (DESIGN.md §13); DIMACS `.gr` text is the only other input, and it is
//! parsed onto the heap by `kpj_graph::io`:
//!
//! * **[`write_store`] / [`StreamWriter`]** — a page-aligned, section-table
//!   v2 file ("KPJGRAPH" v2) holding the forward CSR, the *materialized*
//!   reverse CSR (or an alias when the graph is symmetric), and optional
//!   category / landmark / remap sections, written streamingly so
//!   serialization never needs a second in-memory copy.
//! * **[`open_v2`]** — a zero-copy loader that mmaps the
//!   file, validates bounds/alignment/checksums, and hands the engine the
//!   exact same [`kpj_graph::Graph`] view it consumes when heap-built —
//!   cold start is `O(1)` I/O and allocation-free for the CSR sections.
//! * **[`reorder`]** — the offline BFS cache-locality pass, recording its
//!   permutation as a [`kpj_graph::NodeRemap`] for wire-boundary id
//!   translation.

#![warn(missing_docs)]

mod format;
mod mmap;
mod read;
mod reorder;
mod write;

pub use format::{Fnv64, StoreError, FLAG_SYMMETRIC, VERSION};
pub use read::{open_v2, StoreBundle};
pub use reorder::{
    bfs_order, remap_categories, remap_landmarks, remap_reduction, reorder, Reordered,
};
pub use write::{write_store, write_store_to_path, StreamWriter};
