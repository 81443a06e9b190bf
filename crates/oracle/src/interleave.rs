//! The live-update oracle: interleave weight-update batches with queries
//! and hold the *live* service — epoch swaps, incremental landmark
//! repair, revalidating cache and all — to a freshly built engine that
//! never saw an update.
//!
//! Per seeded round:
//!
//! 1. a batch of edge re-weightings (drawn from the case's own edge
//!    list, including no-op and repeated updates) is applied through
//!    [`KpjService::apply_update`], exactly as the wire `update` verb
//!    would;
//! 2. the service's repaired landmark tables must be **bit-identical**
//!    to a full rebuild over the same landmark set on the updated graph
//!    (distances are unique scalars, so repair has no legitimate slack);
//! 3. every algorithm × {landmarks, none} on the live service/epoch must
//!    return a [`kpj_graph::PathSet`] bit-identical to a fresh engine
//!    built from scratch on the updated graph;
//! 4. the cache must hit on the repeat and never serve a stale answer. An
//!    answer it computed on the new epoch is held to step 3's bit
//!    identity. An answer it carried across the swap by revalidation
//!    (told apart by the `kept` revalidation counter) is held to less,
//!    because equal-length paths may tie differently than on a fresh
//!    engine: its length vector must equal the fresh engine's, and every
//!    path must be a valid simple path of the updated graph, from a source
//!    to a target, with its reported length;
//! 5. every exact target row the new epoch serves (built on a target
//!    set's second sighting, then repaired with every batch) must be
//!    **bit-identical** to a from-scratch `DenseDijkstra::to_targets`
//!    row; wherever a live answer read a row, the fresh reference engine
//!    gets the from-scratch row too — a row steers which of several
//!    equal-length paths is returned, and the check stays bit-exact;
//! 6. a **reduced mirror** of the same service (degree-2 chains
//!    contracted, unreachable nodes pruned, `kpj_graph::reduce`) receives
//!    every batch in original ids — the service translates updates onto
//!    shortcut edges, re-publishing expansion prefix sums for
//!    chain-interior hits — and after every round its re-expanded answers
//!    must agree with the same fresh reference engine.
//!
//! Both services write each new epoch either into the retired previous
//! epoch's buffers or into a full copy of the current one. A seeded
//! subset of rounds pins the current epoch across the next batch, which
//! forces that batch onto the copy path; [`UpdatePaths`] reports how
//! often each path ran, so a sweep can prove it checked both, and how
//! many cached answers the revalidation kept and rejected.

use std::sync::Arc;

use kpj_core::{Algorithm, KpjResult, QueryEngine};
use kpj_graph::{Graph, GraphBuilder, PathSet, Weight, WeightUpdate};
use kpj_landmark::{LandmarkIndex, SelectionStrategy, TargetRow};
use kpj_service::cache::Verdict;
use kpj_service::{
    algorithm_index, GraphEpoch, KpjService, PoolConfig, QueryRequest, ServiceConfig,
};
use kpj_sp::DenseDijkstra;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::generate::OracleCase;
use crate::invariants::Violation;

fn violation(invariant: &'static str, detail: String) -> Violation {
    Violation { invariant, detail }
}

/// Update batches interleaved per checked seed.
const ROUNDS: usize = 3;

/// How the published epochs of one checked seed were written, summed
/// over the plain service and its reduced mirror.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdatePaths {
    /// Epochs written into the retired previous epoch's buffers.
    pub reused: u64,
    /// Epochs written into a full copy of the current one.
    pub copied: u64,
    /// Repaired target rows compared against a from-scratch row.
    pub rows: u64,
    /// Cached answers revalidated across an update batch and served.
    pub kept: u64,
    /// Cached answers the revalidation rejected (on path, decrease, or
    /// too old).
    pub rejected: u64,
}

impl std::ops::AddAssign for UpdatePaths {
    fn add_assign(&mut self, other: UpdatePaths) {
        self.reused += other.reused;
        self.copied += other.copied;
        self.rows += other.rows;
        self.kept += other.kept;
        self.rejected += other.rejected;
    }
}

/// Run the interleaving oracle for one seed. `Ok` means every round
/// agreed and reports which buffer path the published epochs took; the
/// first violation is returned otherwise.
pub fn check_interleaving(seed: u64) -> Result<UpdatePaths, Violation> {
    let case = OracleCase::generate(seed);
    if case.edges.is_empty() {
        return Ok(UpdatePaths::default());
    }
    let g0 = case.graph();
    // Held by value: an `Arc` clone here would pin the initial epoch's
    // tables and keep the service's first recycle from reusing them.
    let landmarks0 = LandmarkIndex::build(
        &g0,
        3.min(g0.node_count()),
        SelectionStrategy::Farthest,
        case.seed,
    );
    let config = ServiceConfig {
        pool: PoolConfig {
            workers: 2,
            queue_capacity: 16,
            ..Default::default()
        },
        cache_capacity: 32,
        ..ServiceConfig::default()
    };
    // The reduced mirror: same case, same batches (in original ids),
    // served through a contracted graph with fresh landmarks built on it.
    let mut red_service = reduced_mirror(&g0, &case, &config);
    let service = KpjService::new(
        Arc::new(g0),
        Some(Arc::new(landmarks0.clone())),
        config.clone(),
    );

    // The model: the edge list the service's graph must now equal. A
    // weight update rewrites EVERY parallel copy of its (from, to) pair —
    // the only semantics under which forward and reverse CSR views can
    // never drift.
    let mut edges = case.edges.clone();
    // Decorrelate batch randomness from the generator's stream.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);

    // Warm the caches so round 1 revalidates an entry across its batch.
    run_live(&service, &case, Algorithm::ALL[0])?;
    run_live(&red_service, &case, Algorithm::ALL[0])?;
    // Per algorithm: whether the service's cached answer was carried
    // across a batch by revalidation rather than computed on its epoch.
    let mut carried = [false; Algorithm::ALL.len()];

    // Pins on the epochs that were current before the previous round's
    // batch: while held, this round's batch cannot reuse their buffers.
    let mut held = Vec::new();
    let mut pin_rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0fb0);
    // A reduced mirror replaced after an overflow rejection adds its
    // counts here before it goes.
    let mut paths = UpdatePaths::default();
    for round in 0..ROUNDS {
        let batch: Vec<WeightUpdate> = (0..rng.gen_range(1..=4usize))
            .map(|_| {
                let &(from, to, old) = &edges[rng.gen_range(0..edges.len())];
                let weight: Weight = match rng.gen_range(0..5u32) {
                    0 => old, // no-op entry: weight already current
                    1 => rng.gen_range(0..=5),
                    2 => rng.gen_range(Weight::MAX - 5..=Weight::MAX),
                    _ => rng.gen_range(1..=1_000),
                };
                WeightUpdate { from, to, weight }
            })
            .collect();
        for u in &batch {
            for e in edges.iter_mut() {
                if e.0 == u.from && e.1 == u.to {
                    e.2 = u.weight;
                }
            }
        }
        let tag = |what: &str| format!("seed {seed} round {round}: {what}");

        let pins = if pin_rng.gen_range(0..3u32) == 0 {
            vec![service.current_epoch(), red_service.current_epoch()]
        } else {
            Vec::new()
        };
        let outcome = service
            .apply_update(&batch)
            .map_err(|e| violation("update-rejected", tag(&format!("{batch:?}: {e}"))))?;

        // Reference state: a graph built from scratch off the model, and
        // the ORIGINAL landmark set fully re-Dijkstra'd over it. (The
        // set must be carried over, not re-selected: Farthest selection
        // depends on the distances being updated.)
        let fresh = {
            let mut b = GraphBuilder::with_capacity(case.nodes as usize, edges.len());
            for &(u, v, w) in &edges {
                b.add_edge(u, v, w).expect("model ids are in range");
            }
            b.build()
        };
        let rebuilt = landmarks0.rebuilt(&fresh);

        let epoch = service.current_epoch();
        if epoch.id() != outcome.epoch {
            return Err(violation(
                "epoch-id",
                tag(&format!(
                    "apply_update reported epoch {} but the service serves {}",
                    outcome.epoch,
                    epoch.id()
                )),
            ));
        }
        let live_lm = epoch
            .landmarks()
            .ok_or_else(|| violation("repair-vs-rebuild", tag("epoch lost its landmarks")))?;
        if **live_lm != rebuilt {
            return Err(violation(
                "repair-vs-rebuild",
                tag("repaired landmark tables != full rebuild"),
            ));
        }
        paths.rows += check_rows(&epoch, &fresh, &tag)?;

        check_round(&service, &case, &fresh, &rebuilt, &mut carried, &tag)?;

        // The reduced mirror takes the SAME batch in original ids: the
        // service translates kept pairs to reduced edges and folds
        // chain-interior hits into new expansion prefix sums.
        match red_service.apply_update(&batch) {
            Ok(_) => {}
            Err(e) if e.to_string().contains("overflows its chain") => {
                // Documented limitation: a shortcut edge cannot represent
                // a chain total past u32::MAX, so the service rejects the
                // batch wholesale. Re-reduce from the updated model (the
                // overflowing chain now stays uncontracted) and keep
                // checking the remaining rounds.
                paths += buffer_paths(&red_service);
                red_service = reduced_mirror(&fresh, &case, &config);
            }
            Err(e) => {
                return Err(violation(
                    "reduce-update-rejected",
                    tag(&format!("{batch:?}: {e}")),
                ))
            }
        }
        let red_epoch = red_service.current_epoch();
        paths.rows += check_rows(&red_epoch, red_epoch.graph(), &tag)?;
        drop(red_epoch);
        check_reduced_round(&red_service, &case, &fresh, &tag)?;
        // Release the pins from two batches back, keep this round's.
        held = pins;
    }
    drop(held);
    paths += buffer_paths(&service);
    paths += buffer_paths(&red_service);
    Ok(paths)
}

fn buffer_paths(service: &KpjService) -> UpdatePaths {
    let snapshot = service.snapshot();
    let [kept, on_path, decrease, too_old] = snapshot.revalidations;
    UpdatePaths {
        reused: snapshot.buffers_reused,
        copied: snapshot.buffers_copied,
        rows: 0,
        kept,
        rejected: on_path + decrease + too_old,
    }
}

/// Every target row `epoch` serves must be bit-identical to a
/// from-scratch backward Dijkstra from its target set on `graph` (the
/// graph the epoch must equal). Returns how many rows were compared.
fn check_rows(
    epoch: &GraphEpoch,
    graph: &Graph,
    tag: &dyn Fn(&str) -> String,
) -> Result<u64, Violation> {
    let rows = epoch.rows().rows();
    for row in &rows {
        let rebuilt = DenseDijkstra::to_targets(graph, row.targets());
        if row.dist() != rebuilt.dist_slice() {
            return Err(violation(
                "row-repair-vs-rebuild",
                tag(&format!(
                    "repaired target row for {:?} != from-scratch row",
                    row.targets()
                )),
            ));
        }
    }
    Ok(rows.len() as u64)
}

/// The reference engine for one live answer: a fresh engine on `fresh`,
/// given the from-scratch target row exactly when the live answer read
/// a row (`stats.target_row`).
fn reference_engine<'g>(
    fresh: &'g Graph,
    landmarks: Option<&'g LandmarkIndex>,
    case: &OracleCase,
    live: &KpjResult,
) -> QueryEngine<'g> {
    let mut engine = QueryEngine::new(fresh);
    if let Some(idx) = landmarks {
        engine = engine.with_landmarks(idx);
    }
    if live.stats.target_row > 0 {
        engine = engine.with_target_row(Arc::new(TargetRow::build(fresh, &case.targets)));
    }
    engine
}

/// Build the reduced mirror service for the current model graph:
/// contract/prune for the case's endpoint sets and build fresh landmarks
/// on the reduced graph.
fn reduced_mirror(g: &Graph, case: &OracleCase, config: &ServiceConfig) -> KpjService {
    let red = kpj_graph::reduce(g, &case.sources, &case.targets);
    let landmarks = Arc::new(LandmarkIndex::build(
        &red.graph,
        3.min(red.graph.node_count()),
        SelectionStrategy::Farthest,
        case.seed,
    ));
    KpjService::new_reduced(
        Arc::new(red.graph),
        Some(landmarks),
        Some(Arc::new(red.reduction)),
        config.clone(),
    )
}

/// Post-batch agreement for the reduced mirror: every algorithm through
/// the live reduced service must return the reference length vector, and
/// every re-expanded path must be the reference representative or an
/// equal-length valid simple path of the updated model graph.
fn check_reduced_round(
    service: &KpjService,
    case: &OracleCase,
    fresh: &Graph,
    tag: &dyn Fn(&str) -> String,
) -> Result<(), Violation> {
    for alg in Algorithm::ALL {
        let label = format!("{} (reduced mirror)", alg.name());
        let live = run_live(service, case, alg).map_err(|v| Violation {
            invariant: v.invariant,
            detail: tag(&v.detail),
        })?;
        let want = reference_engine(fresh, None, case, &live)
            .query_multi(alg, &case.sources, &case.targets, case.k)
            .map_err(|e| violation("fresh-error", tag(&format!("{label}: {e:?}"))))?;
        equivalent(&live.paths, &want.paths, fresh, case)
            .map_err(|e| violation("reduce-update-agreement", tag(&format!("{label}: {e}"))))?;
    }
    Ok(())
}

/// The agreement that holds whichever of several equal-length paths an
/// answer returns: `got` has `want`'s length vector, and its paths are
/// distinct valid simple paths of `fresh` from a source to a target, each
/// with its reported length.
fn equivalent(
    got: &PathSet,
    want: &PathSet,
    fresh: &Graph,
    case: &OracleCase,
) -> Result<(), String> {
    if got.lengths() != want.lengths() {
        return Err(format!(
            "live {:?} != fresh {:?}",
            got.lengths(),
            want.lengths()
        ));
    }
    let mut seen = std::collections::HashSet::new();
    for (i, path) in got.iter().enumerate() {
        path.validate(fresh)?;
        if !path.is_simple()
            || !case.sources.contains(&path.source())
            || !case.targets.contains(&path.destination())
        {
            return Err(format!("bad path {i}: {:?}", path.nodes));
        }
        if !seen.insert(path.nodes) {
            return Err(format!("duplicate path {i}"));
        }
    }
    Ok(())
}

/// One live query through the full service stack (cache → pool).
fn run_live(
    service: &KpjService,
    case: &OracleCase,
    alg: Algorithm,
) -> Result<KpjResult, Violation> {
    let request = QueryRequest {
        algorithm: alg,
        sources: case.sources.clone(),
        targets: case.targets.clone(),
        k: case.k,
        timeout_ms: None,
    };
    service
        .execute(&request)
        .map(|answer| answer.result().clone())
        .map_err(|e| violation("live-error", format!("{}: {e}", alg.name())))
}

/// Post-batch agreement: live answers (service stack with landmarks,
/// plain engine on the live epoch — with its repaired target row, if it
/// serves one — without) must be bit-identical to a fresh engine on the
/// reference graph given the same bounds, and the repeat must be a cache
/// hit with the same answer. A service answer in `carried` (revalidated
/// across a batch, not recomputed since) is held to [`equivalent`]
/// instead.
fn check_round(
    service: &KpjService,
    case: &OracleCase,
    fresh: &Graph,
    rebuilt: &LandmarkIndex,
    carried: &mut [bool],
    tag: &dyn Fn(&str) -> String,
) -> Result<(), Violation> {
    let epoch = service.current_epoch();
    let live_graph: &Graph = epoch.graph();
    let mut key = case.targets.clone();
    key.sort_unstable();
    key.dedup();
    let live_row = epoch.rows().lookup(&key);
    for with_lm in [false, true] {
        for alg in Algorithm::ALL {
            let label = format!("{} landmarks={with_lm}", alg.name());
            let mut revalidated = false;
            let got = if with_lm {
                // Landmark side goes through the whole serving stack —
                // epoch pin, cache lookup, pool — twice, proving the
                // second answer (a cache hit) is the first one.
                let before = service.snapshot();
                let first = run_live(service, case, alg).map_err(|v| Violation {
                    invariant: v.invariant,
                    detail: tag(&v.detail),
                })?;
                let after = service.snapshot();
                let slot = &mut carried[algorithm_index(alg)];
                let kept = Verdict::Kept as usize;
                if after.revalidations[kept] > before.revalidations[kept] {
                    *slot = true;
                } else if after.cache_misses > before.cache_misses {
                    *slot = false;
                }
                revalidated = *slot;
                let hits = after.cache_hits;
                let second = run_live(service, case, alg).map_err(|v| Violation {
                    invariant: v.invariant,
                    detail: tag(&v.detail),
                })?;
                if service.snapshot().cache_hits == hits {
                    return Err(violation(
                        "cache-freshness",
                        tag(&format!("{label}: repeat after swap was not a hit")),
                    ));
                }
                if second.paths != first.paths {
                    return Err(violation(
                        "cache-freshness",
                        tag(&format!("{label}: cache hit diverged from miss")),
                    ));
                }
                first
            } else {
                // Landmark-free variant runs directly on the live epoch's
                // graph (the service always serves with its landmarks),
                // reading the epoch's repaired row when it holds one.
                let mut engine = QueryEngine::new(live_graph);
                engine.set_target_row(live_row.clone());
                engine
                    .query_multi(alg, &case.sources, &case.targets, case.k)
                    .map_err(|e| violation("live-error", tag(&format!("{label}: {e:?}"))))?
            };
            let want = reference_engine(fresh, with_lm.then_some(rebuilt), case, &got)
                .query_multi(alg, &case.sources, &case.targets, case.k)
                .map_err(|e| violation("fresh-error", tag(&format!("{label}: {e:?}"))))?;
            let got = got.paths;
            if revalidated {
                equivalent(&got, &want.paths, fresh, case).map_err(|e| {
                    violation(
                        "revalidated-agreement",
                        tag(&format!("{label} (revalidated): {e}")),
                    )
                })?;
            } else if got != want.paths {
                return Err(violation(
                    "update-agreement",
                    tag(&format!(
                        "{label}: live {:?} != fresh {:?}",
                        got.lengths(),
                        want.paths.lengths()
                    )),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_sweep_is_clean() {
        let mut paths = UpdatePaths::default();
        for seed in 0..25u64 {
            match check_interleaving(seed) {
                Ok(p) => paths += p,
                Err(v) => panic!("seed {seed}: {v}"),
            }
        }
        // Both buffer paths were checked, not just one, repaired target
        // rows were compared, and the cache both kept and rejected
        // answers across batches.
        assert!(paths.reused > 0 && paths.copied > 0, "{paths:?}");
        assert!(paths.rows > 0, "{paths:?}");
        assert!(paths.kept > 0 && paths.rejected > 0, "{paths:?}");
    }

    #[test]
    fn regression_noop_batches_that_normalize_parallel_copies_publish() {
        // Seed 62144's first batch rewrites three pairs back to their
        // effective (min-over-parallel-copies) weights. The original
        // publish rule keyed on effective deltas, skipped the swap, and
        // left the live graph's non-min parallel copies un-normalized —
        // equal-length ties then resolved differently than on a fresh
        // rebuild. Publishing must key on raw copy changes.
        assert!(check_interleaving(62144).is_ok());
    }

    #[test]
    fn checker_is_deterministic() {
        // Same seed, same batches: a second run must agree (and not, for
        // instance, depend on landmark re-selection).
        assert!(check_interleaving(7).is_ok());
        assert!(check_interleaving(7).is_ok());
    }
}
