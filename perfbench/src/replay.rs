//! The engine layer on its own: a single-thread replay of a phase's
//! distinct queries through `QueryEngine::query_multi_into` on the same
//! mapped graph the service runs on.

use std::collections::{HashMap, HashSet};

use kpj_core::{Deadline, QueryEngine, QueryStats};
use kpj_graph::{NodeId, PathSet};
use kpj_obs::Stage;

use crate::alloc;
use crate::drive::{Rec, Tracer, What};
use crate::setup::Served;
use crate::traffic::{Op, Traffic};

/// Distinct queries replayed: enough for a p95 with 10 samples above it.
pub const REPLAY_MAX: usize = 300;

/// Per-query engine figures of the replay.
#[derive(Default)]
pub struct Replay {
    /// `query_multi_into` wall time per replayed key, µs.
    pub query_us: HashMap<u64, f64>,
    /// Engine stage time per query, summed over its spans, µs:
    /// `[SptBuild, SpSearch, DeviationRound, LandmarkBounds]`.
    pub stage_us: Vec<[f64; 4]>,
    /// Work counters per query.
    pub stats: Vec<QueryStats>,
    /// Paths returned per query.
    pub paths: Vec<usize>,
    /// Heap allocations per query (warmed engine).
    pub allocs: Vec<u64>,
}

const STAGES: [Stage; 4] = [
    Stage::SptBuild,
    Stage::SpSearch,
    Stage::DeviationRound,
    Stage::LandmarkBounds,
];

/// Replay up to [`REPLAY_MAX`] distinct queries of `recs`, in order of
/// first appearance, recording an `engine.query` span for each.
pub fn replay(
    served: &Served,
    traffic: &Traffic,
    recs: &[Rec],
    tracer: &mut Tracer,
    origin: std::time::Instant,
) -> Result<Replay, String> {
    let mut seen = HashSet::new();
    let picks: Vec<u64> = recs
        .iter()
        .filter_map(|r| match r.what {
            What::Query { key, .. } if seen.insert(key) => Some(r.index),
            _ => None,
        })
        .take(REPLAY_MAX)
        .collect();

    let mut engine = QueryEngine::new(&served.graph);
    if let Some(lm) = &served.landmarks {
        engine = engine.with_landmarks(lm);
    }
    if let Some(red) = &served.reduction {
        engine = engine.with_reduction(red);
    }
    engine.set_trace_sampling(1);
    let to_engine = |v: NodeId| -> Result<NodeId, String> {
        match &served.reduction {
            Some(red) => red
                .to_reduced(v)
                .ok_or_else(|| format!("node {v} was reduced away")),
            None => Ok(v),
        }
    };

    let mut out = PathSet::new();
    let mut replay = Replay::default();
    let mut targets = Vec::new();
    for (n, &index) in picks.iter().enumerate() {
        let Op::Query {
            key,
            source,
            targets: t,
            ..
        } = traffic.op(index)
        else {
            unreachable!("picked from query records");
        };
        let sources = [to_engine(source)?];
        targets.clear();
        for &v in t {
            targets.push(to_engine(v)?);
        }
        if n == 0 {
            // Warm the pooled scratch so counts reflect the steady state.
            engine
                .query_multi_into(
                    traffic.algorithm,
                    &sources,
                    &targets,
                    traffic.k,
                    Deadline::none(),
                    &mut out,
                )
                .map_err(|e| format!("replay query failed: {e}"))?;
        }
        let span = tracer.open(origin, "engine.query_multi_into", None, index);
        let (stats, allocs) = alloc::counted(|| {
            engine.query_multi_into(
                traffic.algorithm,
                &sources,
                &targets,
                traffic.k,
                Deadline::none(),
                &mut out,
            )
        });
        let ns = tracer.close(origin, span);
        let stats = stats.map_err(|e| format!("replay query failed: {e}"))?;

        let mut stage_us = [0.0; 4];
        let (older, newer) = engine.trace_spans();
        for s in older.iter().chain(newer) {
            if let Some(slot) = STAGES.iter().position(|&st| st == s.stage) {
                stage_us[slot] += s.dur_ns as f64 / 1e3;
            }
        }
        replay.query_us.insert(key, ns as f64 / 1e3);
        replay.stage_us.push(stage_us);
        replay.stats.push(stats);
        replay.paths.push(out.len());
        replay.allocs.push(allocs);
    }
    Ok(replay)
}
