//! Set-up: turn the generated graph into a served one the way an operator
//! would — `kpj-cli convert --to-v2 [--reduce --keep …] --landmarks N`,
//! then `kpj-serve --graph-bin` at its defaults — timing every step.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use kpj_graph::{Graph, Reduction};
use kpj_landmark::{LandmarkIndex, SelectionStrategy};
use kpj_service::{KpjService, PoolConfig, ServiceConfig};

use crate::traffic::{Dataset, Workload};

/// `kpj-cli convert`'s default landmark seed.
const LANDMARK_SEED: u64 = 42;

/// What `open_v2` handed the service: the mapped graph and its sidecars.
pub struct Served {
    /// The served (possibly reduced) graph, CSR mapped zero-copy.
    pub graph: Arc<Graph>,
    /// Embedded landmark tables.
    pub landmarks: Option<Arc<LandmarkIndex>>,
    /// The reduction mapping, for reduced graphs.
    pub reduction: Option<Arc<Reduction>>,
}

impl Served {
    /// A fresh service over the mapped graph, at `kpj-serve`'s defaults:
    /// one worker per core, queue 256, cache 4096, trace every query.
    pub fn service(&self) -> KpjService {
        let config = ServiceConfig {
            pool: PoolConfig {
                workers: 0,
                queue_capacity: 256,
                par_threads_max: 0,
            },
            cache_capacity: 4_096,
            trace_sample: 1,
            slow_query_ms: None,
            flight_dir: None,
        };
        KpjService::new_reduced(
            Arc::clone(&self.graph),
            self.landmarks.clone(),
            self.reduction.clone(),
            config,
        )
    }
}

/// Step timings of one set-up.
pub struct Timings {
    /// Graph in memory → service able to serve, seconds.
    pub total_s: f64,
    /// `LandmarkIndex::build`, seconds.
    pub landmark_s: f64,
    /// `kpj_graph::reduce`, seconds (0 when not reduced).
    pub reduce_s: f64,
    /// `write_store_to_path`, seconds.
    pub write_s: f64,
    /// `open_v2`, milliseconds.
    pub open_ms: f64,
    /// Size of the v2 file.
    pub file_bytes: f64,
    /// Served nodes over original nodes.
    pub node_ratio: f64,
    /// Served arcs over original arcs.
    pub arc_ratio: f64,
}

/// Convert `data` to a v2 file at `path`, open it and build the service.
/// The file is unlinked once mapped; the mapping keeps its pages.
pub fn set_up(
    workload: Workload,
    data: &Dataset,
    path: &Path,
) -> Result<(Served, KpjService, Timings), String> {
    let started = Instant::now();
    let t = Instant::now();
    let reduced = data
        .keep
        .as_ref()
        .map(|keep| kpj_graph::reduce(&data.graph, keep, keep));
    let reduce_s = if reduced.is_some() {
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let graph: &Graph = reduced.as_ref().map_or(&data.graph, |r| &r.graph);

    let t = Instant::now();
    let landmarks = LandmarkIndex::build(
        graph,
        workload.landmarks(),
        SelectionStrategy::Farthest,
        LANDMARK_SEED,
    );
    let landmark_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    kpj_store::write_store_to_path(
        path,
        graph,
        None,
        Some(&landmarks),
        None,
        reduced.as_ref().map(|r| &r.reduction),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    let write_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let bundle = kpj_store::open_v2(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let open_ms = t.elapsed().as_secs_f64() * 1e3;

    let served = Served {
        graph: Arc::new(bundle.graph),
        landmarks: bundle.landmarks.map(Arc::new),
        reduction: bundle.reduction.map(Arc::new),
    };
    let service = served.service();
    let total_s = started.elapsed().as_secs_f64();

    let file_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len() as f64;
    std::fs::remove_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let timings = Timings {
        node_ratio: served.graph.node_count() as f64 / data.graph.node_count() as f64,
        arc_ratio: served.graph.edge_count() as f64 / data.graph.edge_count() as f64,
        total_s,
        landmark_s,
        reduce_s,
        write_s,
        open_ms,
        file_bytes,
    };
    Ok((served, service, timings))
}
