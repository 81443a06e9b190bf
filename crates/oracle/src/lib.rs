//! kpj-oracle — a differential + metamorphic testing subsystem.
//!
//! The paper's central claim (§5–§6) is that every KPJ algorithm computes
//! the *same* top-k answer set, differing only in cost. That makes
//! cross-algorithm disagreement a free, high-signal bug oracle. This crate
//! industrializes it:
//!
//! | Module | Provides |
//! |---|---|
//! | [`generate`] | seeded random cases: road-like, social-like, chain-heavy (hub-and-corridor graphs that stress degree-2 contraction), and degenerate graphs (self-loops, parallel edges, disconnected components, near-`u32::MAX` weights) plus a query |
//! | [`interleave`] | the live-update oracle: weight-update batches interleaved with queries; after every batch the live service (epoch swap + incremental landmark repair + revalidating cache) must agree with a freshly built engine — bit-for-bit, or in lengths and path validity for a cached answer carried across the batch — and a reduced mirror of the same service, fed the same batches, must agree after re-expansion |
//! | [`invariants`] | the checker: all engine algorithms × {landmarks, none} must agree, small instances must match the brute-force reference, and the full `kpj-service` wire path (JSON → pool → cache → JSON) must agree with the engine |
//! | [`rows`] | the target-row differential (`kpj-fuzz --rows`): exact `d(v, V_T)` rows on vs off for every algorithm that reads target bounds, a row for another set ignored, and the serving path's sighting → build → read → repair cycle |
//! | [`shrink`] | greedy domain-specific minimization of a failing case (driven by `proptest::shrink::minimize`) |
//! | [`replay`] | the deterministic `.kpjcase` text format the `kpj-fuzz` binary writes on failure and re-runs via `--replay` |
//!
//! Invariants checked per case:
//!
//! 1. identical sorted length multisets across all algorithms, with and
//!    without landmarks, and for the algorithms that read target bounds
//!    also with an exact target row;
//! 2. every returned path validates against the graph, is simple, starts
//!    in the source set and ends in the target set (`V_T`), no duplicates,
//!    lengths non-decreasing, at most `k` paths;
//! 3. on small instances (≤ 10 nodes), exact agreement with the
//!    exponential reference enumerator;
//! 4. through the wire: JSON round-trip fidelity, exact echo of an id
//!    above 2^53, response lengths identical to the engine's, and a
//!    permuted-node-set repeat must be served from the cache with the
//!    identical answer (cache-hit ≡ cache-miss);
//! 5. a zero timeout either fails with `deadline_exceeded` or returns the
//!    full answer — and the service must serve the unbounded retry
//!    correctly afterwards (no scratch poisoning);
//! 6. on the BFS locality-reordered graph (the layout v2 storage files
//!    persist), every algorithm with translated endpoints and remapped
//!    landmark tables returns the identical length vector, and every
//!    path mapped back through the inverse permutation is a valid simple
//!    path of the original graph (renumbering changes memory layout,
//!    never answers);
//! 7. on the reduced graph (`kpj_graph::reduce`: degree-2 chains
//!    contracted, `V_S`/`V_T`-unreachable nodes pruned — what `kpj-cli
//!    convert --reduce` persists), every algorithm with fresh landmarks
//!    returns the identical length vector and every re-expanded path is
//!    a valid simple path of the original graph — both on the reduced
//!    graph as-is and composed with the BFS reorder folded into the
//!    reduction (`--reduce --reorder`).
//!
//! The `kpj-fuzz` binary drives seeded sweeps, shrinks any violation to a
//! minimal case, and emits a replay file; see the README quickstart.

#![warn(missing_docs)]

pub mod generate;
pub mod interleave;
pub mod invariants;
pub mod replay;
pub mod rows;
pub mod shrink;

pub use generate::{GraphCategory, OracleCase};
pub use interleave::{check_interleaving, UpdatePaths};
pub use invariants::{check_case, Violation};
pub use replay::{format_case, parse_case};
pub use rows::check_target_rows;
pub use shrink::shrink_case;
