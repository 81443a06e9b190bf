//! Top-k shortest path join (KPJ) — the core algorithms of
//! *"Efficiently Computing Top-K Shortest Path Join"* (EDBT 2015).
//!
//! A **KPJ** query `{s, T, k}` asks for the `k` shortest *simple* paths
//! from a source node `s` to any node of a category `T` in a weighted
//! directed graph. **KSP** (single destination) and **GKPJ** (a set of
//! sources) are the special/general cases. This crate implements every
//! algorithm the paper evaluates, plus a beyond-the-paper sidetrack
//! engine ([`Algorithm::ALL`] is the authoritative list):
//!
//! | [`Algorithm`] | Paper | Paradigm |
//! |---|---|---|
//! | `Da` | §3, Alg. 1 | deviation (Yen) via the virtual-target reduction |
//! | `DaSpt` | §3 | deviation + full online reverse SPT (state of the art for KSP) |
//! | `BestFirst` | §4, Alg. 2–3 | best-first subspace pruning by lower bounds |
//! | `IterBound` | §5.1, Alg. 4–5 | iteratively bounding (`TestLB`, factor α) |
//! | `IterBoundP` | §5.2, Alg. 6 | + partial SPT (`SPT_P`) |
//! | `IterBoundI` | §5.3, Alg. 7–8 | + incremental SPT (`SPT_I`), reverse-graph search |
//! | `Sidetrack` | — (arXiv:1601.02867) | sidetrack-edge splicing over the full reverse SPT |
//!
//! Running any of them on a [`QueryEngine`] without landmarks gives the
//! paper's `-NL` (no landmark, §6) variants.
//!
//! # Quick start
//!
//! ```
//! use kpj_graph::GraphBuilder;
//! use kpj_landmark::{LandmarkIndex, SelectionStrategy};
//! use kpj_core::{Algorithm, QueryEngine};
//!
//! // A small road-ish network.
//! let mut b = GraphBuilder::new(5);
//! b.add_bidirectional(0, 1, 2).unwrap();
//! b.add_bidirectional(1, 2, 2).unwrap();
//! b.add_bidirectional(0, 3, 3).unwrap();
//! b.add_bidirectional(3, 2, 3).unwrap();
//! b.add_bidirectional(3, 4, 1).unwrap();
//! let g = b.build();
//!
//! // Offline: landmark index. Online: one engine, many queries.
//! let landmarks = LandmarkIndex::build(&g, 2, SelectionStrategy::Farthest, 42);
//! let mut engine = QueryEngine::new(&g).with_landmarks(&landmarks);
//! let result = engine.query(Algorithm::IterBoundI, 0, &[2, 4], 3).unwrap();
//! let lengths: Vec<u64> = result.paths.iter().map(|p| p.length).collect();
//! assert_eq!(lengths, vec![4, 4, 6]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod deadline;
mod deviation;
mod engine;
pub mod general;
mod paradigms;
mod pseudo_tree;
pub mod reference;
mod search_core;
mod sidetrack;
mod spti;
mod sptp;
mod stats;

pub use bounds::{SourceLb, TargetsLb};
pub use deadline::Deadline;
pub use engine::{Algorithm, KpjResult, ParkedEngine, QueryEngine, QueryError};
pub use stats::QueryStats;
