//! The target-row differential (`kpj-fuzz --rows`): exact target rows
//! must change *which* equal-length paths an engine returns at most —
//! never the lengths, never anything for a query on another set.
//!
//! Per case:
//!
//! 1. the built row is bit-identical to a from-scratch backward
//!    `DenseDijkstra::to_targets`;
//! 2. for every algorithm that reads target bounds × {landmarks, none},
//!    rows on and off return the same length vector, the rowed engine
//!    reports the read, the rowed engine answers a repeat of the query
//!    bit-identically (paths and stats), and a row for *another* target
//!    set is ignored (bit-identical to rows off);
//! 3. through a live service (one worker, no cache) the row is built on
//!    the set's second sighting and read by every later query, every
//!    answer keeps the rows-off lengths, and after a weight-update batch
//!    the repaired row equals a rebuild and answers match a fresh engine
//!    on the updated graph.

use std::sync::Arc;

use kpj_core::{Algorithm, QueryEngine};
use kpj_graph::{Graph, Length, WeightUpdate};
use kpj_landmark::{LandmarkIndex, SelectionStrategy, TargetRow};
use kpj_service::{KpjService, PoolConfig, QueryRequest, ServiceConfig};
use kpj_sp::DenseDijkstra;

use crate::generate::OracleCase;
use crate::invariants::{target_row, Violation};

fn violation(invariant: &'static str, detail: String) -> Violation {
    Violation { invariant, detail }
}

/// The algorithms a row can steer.
fn row_readers() -> impl Iterator<Item = Algorithm> {
    Algorithm::ALL
        .into_iter()
        .filter(Algorithm::reads_target_bounds)
}

/// Run the target-row differential for one case. `Ok` carries the number
/// of rowed answers compared.
pub fn check_target_rows(case: &OracleCase) -> Result<u64, Violation> {
    let g = case.graph();
    let Some(row) = target_row(case, &g) else {
        return Ok(0);
    };
    if row.dist() != DenseDijkstra::to_targets(&g, &case.targets).dist_slice() {
        return Err(violation(
            "row-build",
            format!("row for {:?} != from-scratch row", case.targets),
        ));
    }
    let idx = LandmarkIndex::build(
        &g,
        3.min(g.node_count()),
        SelectionStrategy::Farthest,
        case.seed,
    );
    // A row for another set: the sources' set, changed by one node when
    // it coincides with the targets' set.
    let other_set: Vec<u32> = {
        let mut s = case.sources.clone();
        s.sort_unstable();
        s.dedup();
        if s == row.targets() {
            match (0..g.node_count() as u32).find(|v| !s.contains(v)) {
                Some(v) => s.push(v),
                None => {
                    s.pop();
                }
            }
        }
        s
    };
    let other = Arc::new(TargetRow::build(&g, &other_set));
    let engine = |with_lm: bool, row: Option<&Arc<TargetRow>>| {
        let mut e = QueryEngine::new(&g);
        if with_lm {
            e = e.with_landmarks(&idx);
        }
        e.set_target_row(row.cloned());
        e
    };

    let mut compared = 0;
    let mut baseline: Option<Vec<Length>> = None;
    for with_lm in [false, true] {
        for alg in row_readers() {
            let tag = format!("{} landmarks={with_lm}", alg.name());
            let query = |e: &mut QueryEngine<'_>, what: &str| {
                e.query_multi(alg, &case.sources, &case.targets, case.k)
                    .map_err(|err| violation("engine-error", format!("{tag} {what}: {err:?}")))
            };
            let off = query(&mut engine(with_lm, None), "rows off")?;
            let mut rowed = engine(with_lm, Some(&row));
            let on = query(&mut rowed, "rows on")?;
            let lengths = off.paths.lengths();
            if on.paths.lengths() != lengths {
                return Err(violation(
                    "row-lengths",
                    format!("{tag}: rows on {:?} != off {lengths:?}", on.paths.lengths()),
                ));
            }
            if on.stats.target_row != 1 || off.stats.target_row != 0 {
                return Err(violation(
                    "row-unread",
                    format!(
                        "{tag}: target_row on={} off={}",
                        on.stats.target_row, off.stats.target_row
                    ),
                ));
            }
            let repeat = query(&mut rowed, "rows on, repeated")?;
            if repeat.paths != on.paths || repeat.stats != on.stats {
                return Err(violation(
                    "row-warm-repeat",
                    format!("{tag}: a repeated rowed query diverges from the first"),
                ));
            }
            let mismatched = query(&mut engine(with_lm, Some(&other)), "other set's row")?;
            if mismatched.paths != off.paths || mismatched.stats.target_row != 0 {
                return Err(violation(
                    "row-mismatch-ignored",
                    format!("{tag}: a row for {other_set:?} changed the answer"),
                ));
            }
            match &baseline {
                None => baseline = Some(lengths),
                Some(want) if *want != lengths => {
                    return Err(violation(
                        "algorithm-agreement",
                        format!("{tag}: {lengths:?} != agreed {want:?}"),
                    ))
                }
                Some(_) => {}
            }
            compared += 1;
        }
    }
    let baseline = baseline.expect("at least one algorithm reads target bounds");
    compared += check_service(case, &g, &idx, &row, &baseline)?;
    Ok(compared)
}

/// Stage 3: the serving path — sighting, build, reads, repair.
fn check_service(
    case: &OracleCase,
    g: &Graph,
    idx: &LandmarkIndex,
    row: &TargetRow,
    baseline: &[Length],
) -> Result<u64, Violation> {
    let config = ServiceConfig {
        pool: PoolConfig {
            workers: 1,
            queue_capacity: 8,
            ..Default::default()
        },
        cache_capacity: 0,
        ..ServiceConfig::default()
    };
    let service = KpjService::new(Arc::new(g.clone()), Some(Arc::new(idx.clone())), config);
    let run = |alg: Algorithm| {
        service
            .execute(&QueryRequest {
                algorithm: alg,
                sources: case.sources.clone(),
                targets: case.targets.clone(),
                k: case.k,
                timeout_ms: None,
            })
            .map_err(|e| violation("live-error", format!("{}: {e}", alg.name())))
    };
    // Rows ignore the algorithms that do not read target bounds: they
    // neither read nor count as sightings.
    run(Algorithm::Sidetrack)?;
    run(Algorithm::Da)?;
    let mut answers = 0u64;
    for alg in row_readers() {
        for _ in 0..3 {
            let answer = run(alg)?;
            // The first query is the set's first sighting; the second
            // builds the row and every later one reads it.
            let want_row = usize::from(answers > 0);
            if answer.stats.target_row != want_row {
                return Err(violation(
                    "row-sighting",
                    format!(
                        "{} answer {answers}: target_row {} (want {want_row})",
                        alg.name(),
                        answer.stats.target_row
                    ),
                ));
            }
            if answer.paths.lengths() != baseline {
                return Err(violation(
                    "row-live-lengths",
                    format!(
                        "{}: {:?} != {baseline:?}",
                        alg.name(),
                        answer.paths.lengths()
                    ),
                ));
            }
            answers += 1;
        }
    }
    let snapshot = service.snapshot();
    if snapshot.target_row_builds != 1 || snapshot.target_row_reads != answers - 1 {
        return Err(violation(
            "row-metrics",
            format!(
                "builds={} reads={} after {answers} answers",
                snapshot.target_row_builds, snapshot.target_row_reads
            ),
        ));
    }
    let epoch = service.current_epoch();
    let held = epoch.rows().rows();
    if held.len() != 1 || *held[0] != *row {
        return Err(violation(
            "row-held",
            format!(
                "epoch holds {} rows, want exactly the built one",
                held.len()
            ),
        ));
    }
    drop((held, epoch));

    // One batch: double the weight of a third of the edges.
    let batch: Vec<WeightUpdate> = case
        .edges
        .iter()
        .step_by(3)
        .map(|&(from, to, w)| WeightUpdate {
            from,
            to,
            weight: w.saturating_mul(2).max(1),
        })
        .collect();
    service
        .apply_update(&batch)
        .map_err(|e| violation("update-rejected", e.to_string()))?;
    let epoch = service.current_epoch();
    let updated: &Graph = epoch.graph();
    let held = epoch.rows().rows();
    if held.len() != 1
        || held[0].dist() != DenseDijkstra::to_targets(updated, &case.targets).dist_slice()
    {
        return Err(violation(
            "row-repair-vs-rebuild",
            format!(
                "{} rows after the batch, or the repaired row != rebuild",
                held.len()
            ),
        ));
    }
    let fresh = idx.rebuilt(updated);
    for alg in row_readers() {
        let answer = run(alg)?;
        let want = QueryEngine::new(updated)
            .with_landmarks(&fresh)
            .query_multi(alg, &case.sources, &case.targets, case.k)
            .map_err(|e| violation("fresh-error", format!("{}: {e:?}", alg.name())))?;
        if answer.stats.target_row != 1 || answer.paths.lengths() != want.paths.lengths() {
            return Err(violation(
                "row-after-update",
                format!(
                    "{}: target_row {} lengths {:?} != fresh {:?}",
                    alg.name(),
                    answer.stats.target_row,
                    answer.paths.lengths(),
                    want.paths.lengths()
                ),
            ));
        }
        answers += 1;
    }
    Ok(answers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_row_sweep_is_clean() {
        let mut compared = 0;
        for seed in 0..30u64 {
            match check_target_rows(&OracleCase::generate(seed)) {
                Ok(n) => compared += n,
                Err(v) => panic!("seed {seed}: {v}"),
            }
        }
        assert!(compared > 0);
    }
}
