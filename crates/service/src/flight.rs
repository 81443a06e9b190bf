//! Slow-query flight recorder.
//!
//! When a query's engine execution exceeds a configured latency
//! threshold, the pool worker dumps the query *and the graph it ran on*
//! as a replayable `.kpjcase` file (the differential-testing format of
//! `kpj-oracle`), prefixed with `#`-comment lines carrying the span trace
//! and the answer it produced. The file replays offline through
//! `kpj-fuzz --replay` — turning "that query was slow in production" into
//! a self-contained, reproducible artifact.
//!
//! Dumping is rate-limited by a total-record cap: a latency regression
//! that makes *every* query slow produces a bounded number of files, not
//! a full disk.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use kpj_core::KpjResult;
use kpj_graph::Graph;
use kpj_obs::SpanRecord;

use crate::pool::QueryRequest;

/// Default cap on `.kpjcase` files one recorder writes over its lifetime.
pub const DEFAULT_MAX_RECORDS: u64 = 32;

/// Writes slow queries as replayable `.kpjcase` files. Shared by every
/// pool worker through an `Arc`; all state is atomic.
pub struct FlightRecorder {
    dir: PathBuf,
    threshold: Duration,
    max_records: u64,
    /// Record slots handed out (the cap applies to these).
    reserved: AtomicU64,
    /// Files actually written.
    written: AtomicU64,
}

impl FlightRecorder {
    /// Create a recorder writing into `dir` (created if absent) for
    /// queries slower than `threshold`.
    pub fn new(dir: impl Into<PathBuf>, threshold: Duration) -> std::io::Result<FlightRecorder> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FlightRecorder {
            dir,
            threshold,
            max_records: DEFAULT_MAX_RECORDS,
            reserved: AtomicU64::new(0),
            written: AtomicU64::new(0),
        })
    }

    /// Override the lifetime record cap.
    pub fn with_max_records(mut self, max: u64) -> FlightRecorder {
        self.max_records = max;
        self
    }

    /// Files written so far (a slot whose write failed does not count).
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Dump one slow query if `latency` crosses the threshold and the
    /// record cap allows. Returns the path written, if any. I/O failures
    /// are swallowed (the recorder must never take down the serving
    /// path); the reserved slot is not returned on failure, keeping the
    /// cap a true upper bound.
    pub fn maybe_record(
        &self,
        graph: &Graph,
        request: &QueryRequest,
        latency: Duration,
        spans: (&[SpanRecord], &[SpanRecord]),
        result: &KpjResult,
    ) -> Option<PathBuf> {
        if latency < self.threshold {
            return None;
        }
        let seq = self.reserved.fetch_add(1, Ordering::Relaxed);
        if seq >= self.max_records {
            return None;
        }
        let path = self.dir.join(format!(
            "slow-{seq:04}-{}.kpjcase",
            request.algorithm.name().to_ascii_lowercase()
        ));
        let body = render_case(graph, request, latency, spans, result);
        match std::fs::write(&path, body) {
            Ok(()) => {
                self.written.fetch_add(1, Ordering::Relaxed);
                Some(path)
            }
            Err(e) => {
                eprintln!("flight recorder: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

/// Render the `.kpjcase v1` text: `#` comments (ignored by the parser)
/// carrying the trace, then the replayable case. The graph's full arc
/// list is embedded — the edge list is authoritative for replay, so the
/// file needs nothing but `kpj-fuzz --replay` to reproduce the query.
/// `timeout_ms` is deliberately omitted: replay should be deterministic,
/// not racing the original deadline.
fn render_case(
    graph: &Graph,
    request: &QueryRequest,
    latency: Duration,
    (older, newer): (&[SpanRecord], &[SpanRecord]),
    result: &KpjResult,
) -> String {
    let mut out = String::with_capacity(64 * graph.edge_count().max(16));
    let _ = writeln!(out, "# kpj slow-query flight record");
    let _ = writeln!(out, "# algorithm {}", request.algorithm.name());
    let _ = writeln!(out, "# latency_us {}", latency.as_micros());
    let _ = writeln!(
        out,
        "# lengths {}",
        result
            .paths
            .iter()
            .map(|p| p.length.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    for s in older.iter().chain(newer) {
        let _ = writeln!(
            out,
            "# span {} start_ns {} dur_ns {}",
            s.stage.name(),
            s.start_ns,
            s.dur_ns
        );
    }
    out.push_str("kpjcase v1\nseed 0\ncategory degenerate\n");
    let _ = writeln!(out, "nodes {}", graph.node_count());
    for u in graph.nodes() {
        for e in graph.out_edges(u) {
            let _ = writeln!(out, "edge {u} {} {}", e.to, e.weight);
        }
    }
    let ids = |ids: &[u32]| {
        ids.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(out, "sources {}", ids(&request.sources));
    let _ = writeln!(out, "targets {}", ids(&request.targets));
    let _ = writeln!(out, "k {}", request.k);
    out
}

/// List the `.kpjcase` files a recorder directory holds (test helper and
/// ops convenience), sorted by name.
pub fn list_records(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "kpjcase"))
        .collect();
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_core::{Algorithm, QueryEngine};
    use kpj_graph::GraphBuilder;

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_bidirectional(0, 1, 1).unwrap();
        b.add_bidirectional(1, 2, 1).unwrap();
        b.add_bidirectional(0, 3, 2).unwrap();
        b.add_bidirectional(3, 2, 2).unwrap();
        b.build()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kpj-flight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_slow_queries_and_respects_the_cap() {
        let g = diamond();
        let dir = temp_dir("cap");
        let rec = FlightRecorder::new(&dir, Duration::ZERO)
            .unwrap()
            .with_max_records(2);
        let req = QueryRequest {
            algorithm: Algorithm::Da,
            sources: vec![0],
            targets: vec![2],
            k: 2,
            timeout_ms: Some(5_000),
        };
        let mut engine = QueryEngine::new(&g);
        let result = engine.query_multi(Algorithm::Da, &[0], &[2], 2).unwrap();
        for i in 0..4 {
            let wrote = rec
                .maybe_record(&g, &req, Duration::from_millis(9), (&[], &[]), &result)
                .is_some();
            assert_eq!(wrote, i < 2, "record {i}");
        }
        let files = list_records(&dir).unwrap();
        assert_eq!(files.len(), 2);
        let text = std::fs::read_to_string(&files[0]).unwrap();
        assert!(text.contains("# algorithm DA"));
        assert!(text.contains("# lengths 2,4"));
        assert!(text.contains("kpjcase v1"));
        assert!(text.contains("sources 0"));
        assert!(text.contains("targets 2"));
        assert!(text.contains("k 2"));
        // timeout_ms must not leak into the replay file.
        assert!(!text.contains("timeout_ms"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fast_queries_are_not_recorded() {
        let g = diamond();
        let dir = temp_dir("fast");
        let rec = FlightRecorder::new(&dir, Duration::from_secs(10)).unwrap();
        let req = QueryRequest {
            algorithm: Algorithm::BestFirst,
            sources: vec![0],
            targets: vec![2],
            k: 1,
            timeout_ms: None,
        };
        let mut engine = QueryEngine::new(&g);
        let result = engine
            .query_multi(Algorithm::BestFirst, &[0], &[2], 1)
            .unwrap();
        assert!(rec
            .maybe_record(&g, &req, Duration::from_millis(1), (&[], &[]), &result)
            .is_none());
        assert_eq!(list_records(&dir).unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
