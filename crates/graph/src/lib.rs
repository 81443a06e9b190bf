//! Graph substrate for the `kpj` workspace.
//!
//! This crate provides the data structures every KPJ algorithm is built on:
//!
//! * [`Graph`] — an immutable, CSR-encoded, weighted directed graph with an
//!   eagerly built reverse view ([`Graph::in_edges`]).
//! * [`GraphBuilder`] — the mutable builder used to construct a [`Graph`].
//! * [`CategoryIndex`] — the inverted index from categories (the paper's
//!   "conceptual nodes") to the physical nodes that belong to them.
//! * [`Path`] — a node sequence plus its length, with validation helpers.
//! * [`scratch`] — epoch-stamped scratch arrays (`TimestampedSet`,
//!   `TimestampedMap`) that let per-query searches run without clearing
//!   `O(n)` state between queries.
//! * [`io`] — readers/writers for the DIMACS `.gr` format used by the
//!   paper's datasets, plus a small text format for category files.
//!
//! Design notes (see `DESIGN.md` at the workspace root):
//!
//! * Node identifiers are plain `u32` ([`NodeId`]); edge weights are `u32`
//!   ([`Weight`]); path lengths are `u64` ([`Length`]) so that summing up to
//!   `2^32` maximal weights cannot overflow.
//! * The CSR arrays are [`SectionBuf`]s — owned boxed slices when built in
//!   memory, zero-copy views into an mmap'd v2 file when opened via
//!   `kpj-store`. Either way a graph never reallocates after construction
//!   and is cheap to share by reference across algorithms.

#![warn(missing_docs)]

mod builder;
mod categories;
mod csr;
mod error;
pub mod io;
mod path;
mod pathset;
mod reduce;
mod remap;
pub mod scratch;
mod section;
mod store;
mod translate;
mod types;
mod update;

pub use builder::GraphBuilder;
pub use categories::{CategoryId, CategoryIndex};
pub use csr::{EdgeRef, Graph};
pub use error::GraphError;
pub use path::Path;
pub use pathset::{PathRef, PathSet, PathSetIter};
pub use reduce::{
    reduce, ReduceError, Reduced, Reduction, ReductionSections, TranslatedUpdates, REDUCED_REMOVED,
};
pub use remap::NodeRemap;
pub use section::SectionBuf;
pub use store::{PathId, PathStore};
pub use translate::{IdTranslation, TranslateError};
pub use types::{Length, NodeId, Weight, INFINITE_LENGTH};
pub use update::{EdgeDelta, UpdateError, WeightUpdate};
