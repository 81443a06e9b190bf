//! Parallel batch query execution.
//!
//! Throughput across *many* queries parallelizes trivially: the graph
//! and landmark index are immutable after the offline phase, so each
//! worker thread owns its own engine and pulls queries from a shared
//! queue. This module packages that pattern as a thin veneer over the
//! serving layer's [`EnginePool`](kpj_service::EnginePool) — the same
//! machinery that backs `kpj-serve`, minus the cache and the wire.

use std::sync::Arc;

use kpj_core::{Algorithm, KpjResult, QueryError};
use kpj_graph::{Graph, NodeId};
use kpj_landmark::LandmarkIndex;
use kpj_service::{EnginePool, PoolConfig, QueryRequest, ServiceError};

/// One query of a batch (GKPJ-shaped; use a single-element `sources` for
/// plain KPJ/KSP).
#[derive(Debug, Clone)]
pub struct BatchQuery {
    /// Source set `V_S` (singleton for KPJ).
    pub sources: Vec<NodeId>,
    /// Destination set `V_T`.
    pub targets: Vec<NodeId>,
    /// Number of paths.
    pub k: usize,
}

/// Run `queries` with `alg` on `threads` worker threads, each owning a
/// private engine. Results are returned in input order.
///
/// `threads = 0` means one worker per available CPU
/// (`std::thread::available_parallelism`). The pool's queue is sized to
/// the batch, so admission control never rejects here. Worker panics
/// propagate.
pub fn query_batch(
    graph: &Arc<Graph>,
    landmarks: Option<&Arc<LandmarkIndex>>,
    alg: Algorithm,
    queries: &[BatchQuery],
    threads: usize,
) -> Vec<Result<KpjResult, QueryError>> {
    if queries.is_empty() {
        return Vec::new();
    }
    let workers = kpj_service::resolve_workers(threads).min(queries.len());
    let pool = EnginePool::new(
        Arc::clone(graph),
        landmarks.map(Arc::clone),
        PoolConfig {
            workers,
            queue_capacity: queries.len(),
            ..PoolConfig::default()
        },
    );
    // Submit everything up front (the queue holds the whole batch), then
    // collect in input order.
    let handles: Vec<_> = queries
        .iter()
        .map(|q| {
            pool.submit(QueryRequest {
                algorithm: alg,
                sources: q.sources.clone(),
                targets: q.targets.clone(),
                k: q.k,
                timeout_ms: None,
            })
            .expect("queue is sized to the batch")
        })
        .collect();
    handles
        .into_iter()
        .map(|h| match h.wait() {
            Ok(result) => Ok(result),
            Err(ServiceError::Query(e)) => Err(e),
            Err(other) => panic!("batch worker failed: {other}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::datasets;
    use kpj_core::QueryEngine;
    use kpj_landmark::SelectionStrategy;

    fn batch(n_queries: u32, n: u32) -> Vec<BatchQuery> {
        (0..n_queries)
            .map(|i| BatchQuery {
                sources: vec![(i * 37) % n],
                targets: vec![(i * 101 + 5) % n, (i * 13 + 9) % n],
                k: 1 + (i as usize % 10),
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = Arc::new(datasets::SJ.generate(0.05));
        let idx = Arc::new(LandmarkIndex::build(&g, 4, SelectionStrategy::Farthest, 1));
        let queries = batch(40, g.node_count() as u32);
        let par = query_batch(&g, Some(&idx), Algorithm::IterBoundI, &queries, 4);
        let mut engine = QueryEngine::new(&g).with_landmarks(&idx);
        for (q, r) in queries.iter().zip(&par) {
            let seq = engine.query_multi(Algorithm::IterBoundI, &q.sources, &q.targets, q.k);
            let got: Vec<u64> = r.as_ref().unwrap().paths.iter().map(|p| p.length).collect();
            let want: Vec<u64> = seq.unwrap().paths.iter().map(|p| p.length).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn degenerate_thread_counts_and_errors() {
        let g = Arc::new(datasets::SJ.generate(0.02));
        let n = g.node_count() as u32;
        let mut queries = batch(5, n);
        queries.push(BatchQuery {
            sources: vec![],
            targets: vec![1],
            k: 3,
        });
        queries.push(BatchQuery {
            sources: vec![n + 5],
            targets: vec![1],
            k: 3,
        });
        for threads in [0, 1, 16] {
            let r = query_batch(&g, None, Algorithm::Da, &queries, threads);
            assert_eq!(r.len(), queries.len());
            assert!(r[..5].iter().all(Result::is_ok));
            assert!(matches!(r[5], Err(QueryError::NoSources)));
            assert!(matches!(r[6], Err(QueryError::SourceOutOfRange(_))));
        }
    }

    #[test]
    fn empty_batch() {
        let g = Arc::new(datasets::SJ.generate(0.02));
        assert!(query_batch(&g, None, Algorithm::IterBoundI, &[], 8).is_empty());
    }
}
