//! The oracle checker: differential agreement + structural and wire
//! invariants for one [`OracleCase`].

use std::sync::Arc;

use kpj_core::{reference, Algorithm, QueryEngine};
use kpj_graph::{Graph, Length};
use kpj_landmark::{LandmarkIndex, SelectionStrategy, TargetRow};
use kpj_service::json::Json;
use kpj_service::wire::handle_line;
use kpj_service::{KpjService, PoolConfig, ServiceConfig};

use crate::generate::OracleCase;

/// An id above 2^53: any `f64` detour in the wire stack rounds it, so
/// every checked case doubles as a JSON integer-precision probe.
const PROBE_ID: u64 = 9_007_199_254_740_993;

/// One invariant violation: which invariant, and enough detail to debug.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable invariant tag (e.g. `algorithm-agreement`, `wire-cache`).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

fn violation(invariant: &'static str, detail: String) -> Violation {
    Violation { invariant, detail }
}

/// Check every oracle invariant for `case`. `Ok(())` means the case found
/// nothing; the first violation is returned otherwise.
pub fn check_case(case: &OracleCase) -> Result<(), Violation> {
    let g = case.graph();
    let baseline = check_engines(case, &g)?;
    check_warm_repeat(case, &g)?;
    check_reference(case, &g, &baseline)?;
    check_reorder(case, &g)?;
    check_reduce(case, &g)?;
    check_wire(case, &baseline)?;
    Ok(())
}

/// Differential stage: every algorithm × {landmarks, none} — and every
/// algorithm that reads target bounds once more with an exact target row
/// for the query's set — must return the same length vector with
/// structurally sound paths. Returns the agreed lengths.
fn check_engines(case: &OracleCase, g: &Graph) -> Result<Vec<Length>, Violation> {
    let idx = LandmarkIndex::build(
        g,
        3.min(g.node_count()),
        SelectionStrategy::Farthest,
        case.seed,
    );
    let row = target_row(case, g);
    let mut baseline: Option<Vec<Length>> = None;
    for (with_lm, with_row) in [(false, false), (true, false), (false, true), (true, true)] {
        let mut engine = QueryEngine::new(g);
        if with_lm {
            engine = engine.with_landmarks(&idx);
        }
        match (with_row, &row) {
            (false, _) => {}
            (true, Some(row)) => engine = engine.with_target_row(Arc::clone(row)),
            (true, None) => continue,
        }
        for alg in Algorithm::ALL {
            if with_row && !alg.reads_target_bounds() {
                continue;
            }
            let tag = format!("{} landmarks={with_lm} row={with_row}", alg.name());
            let r = engine
                .query_multi(alg, &case.sources, &case.targets, case.k)
                .map_err(|e| violation("engine-error", format!("{tag}: {e:?}")))?;
            if with_row && case.k > 0 && r.stats.target_row != 1 {
                return Err(violation(
                    "row-unread",
                    format!("{tag}: the matching target row was not read"),
                ));
            }
            if r.paths.len() > case.k {
                return Err(violation(
                    "path-count",
                    format!("{tag}: {} paths for k={}", r.paths.len(), case.k),
                ));
            }
            let mut seen = std::collections::HashSet::new();
            for p in &r.paths {
                p.validate(g)
                    .map_err(|e| violation("path-valid", format!("{tag}: {e}")))?;
                if !p.is_simple() {
                    return Err(violation(
                        "path-simple",
                        format!("{tag}: loop in {:?}", p.nodes),
                    ));
                }
                if !case.sources.contains(&p.source()) {
                    return Err(violation(
                        "path-endpoints",
                        format!("{tag}: source {} not in V_S", p.source()),
                    ));
                }
                if !case.targets.contains(&p.destination()) {
                    return Err(violation(
                        "path-endpoints",
                        format!("{tag}: destination {} not in V_T", p.destination()),
                    ));
                }
                if !seen.insert(p.nodes.to_vec()) {
                    return Err(violation(
                        "path-dedup",
                        format!("{tag}: duplicate {:?}", p.nodes),
                    ));
                }
            }
            let got: Vec<Length> = r.paths.lengths();
            if !got.windows(2).all(|w| w[0] <= w[1]) {
                return Err(violation("monotone-lengths", tag));
            }
            match &baseline {
                None => baseline = Some(got),
                Some(want) if *want != got => {
                    return Err(violation(
                        "algorithm-agreement",
                        format!("{tag}: {got:?} != agreed {want:?}"),
                    ));
                }
                Some(_) => {}
            }
        }
    }
    Ok(baseline.expect("at least one algorithm ran"))
}

/// The exact target row for the case's target set, when the set is a
/// non-empty set of nodes of `g` (replayed or shrunk cases may be
/// neither; the engine then rejects or short-circuits the query).
pub(crate) fn target_row(case: &OracleCase, g: &Graph) -> Option<Arc<TargetRow>> {
    let valid = case.targets.iter().all(|&t| (t as usize) < g.node_count());
    (valid && !case.targets.is_empty()).then(|| Arc::new(TargetRow::build(g, &case.targets)))
}

/// Warm-repeat stage: one engine answers every algorithm twice, first
/// without and then (retargeted) with landmarks, and the second answer
/// must equal the first — the whole [`kpj_graph::PathSet`] (same node
/// sequences in the same flat-arena order, not just the same lengths)
/// and every [`kpj_core::QueryStats`] counter. Every other algorithm runs
/// in between, so any scratch state one query leaves behind for the next
/// to read shows up here.
fn check_warm_repeat(case: &OracleCase, g: &Graph) -> Result<(), Violation> {
    let idx = LandmarkIndex::build(
        g,
        3.min(g.node_count()),
        SelectionStrategy::Farthest,
        case.seed,
    );
    let mut engine = QueryEngine::new(g);
    for with_lm in [false, true] {
        if with_lm {
            engine = engine.retarget(g, Some(&idx), None);
        }
        let mut first = Vec::with_capacity(Algorithm::ALL.len());
        for pass in 0..2 {
            for (i, alg) in Algorithm::ALL.into_iter().enumerate() {
                let tag = format!("{} landmarks={with_lm} pass={pass}", alg.name());
                let r = engine
                    .query_multi(alg, &case.sources, &case.targets, case.k)
                    .map_err(|e| violation("engine-error", format!("{tag}: {e:?}")))?;
                if pass == 0 {
                    first.push(r);
                    continue;
                }
                let want = &first[i];
                if r.paths != want.paths {
                    return Err(violation(
                        "warm-repeat-paths",
                        format!(
                            "{tag}: repeat diverges from the first answer ({:?} != {:?})",
                            r.paths.lengths(),
                            want.paths.lengths()
                        ),
                    ));
                }
                if r.stats != want.stats {
                    return Err(violation(
                        "warm-repeat-stats",
                        format!("{tag}: stats diverge ({:?} != {:?})", r.stats, want.stats),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Storage-reorder stage: run every algorithm on the BFS
/// locality-reordered graph (`kpj_store::reorder`, the layout `kpj-cli
/// convert --reorder` persists into v2 files) with translated endpoints
/// and landmark tables, and map every answer back through the inverse
/// permutation. The length vector must be bit-identical — the top-k
/// length multiset is unique, so renumbering must never change it. The
/// node sequences themselves are compared structurally: each mapped-back
/// path must be a valid, simple path of the *original* graph with the
/// same length, endpoints inside `V_S`/`V_T`, and no duplicates. (Exact
/// sequence equality would over-constrain: the engine breaks exact
/// length ties by node id, and renumbering legitimately picks a
/// different — equally shortest — representative.)
fn check_reorder(case: &OracleCase, g: &Graph) -> Result<(), Violation> {
    let reordered = kpj_store::reorder(g);
    let (rg, remap) = (&reordered.graph, &reordered.remap);
    let translate = |ids: &[u32], what: &str| -> Result<Vec<u32>, Violation> {
        ids.iter()
            .map(|&v| {
                remap.to_internal(v).ok_or_else(|| {
                    violation(
                        "reorder-permutation",
                        format!("{what} id {v} untranslatable"),
                    )
                })
            })
            .collect()
    };
    let sources = translate(&case.sources, "source")?;
    let targets = translate(&case.targets, "target")?;
    let idx = LandmarkIndex::build(
        g,
        3.min(g.node_count()),
        SelectionStrategy::Farthest,
        case.seed,
    );
    let ridx = kpj_store::remap_landmarks(&idx, remap);
    for with_lm in [false, true] {
        let mut orig = QueryEngine::new(g);
        let mut reord = QueryEngine::new(rg);
        if with_lm {
            orig = orig.with_landmarks(&idx);
            reord = reord.with_landmarks(&ridx);
        }
        for alg in Algorithm::ALL {
            let tag = format!("{} landmarks={with_lm} (reordered)", alg.name());
            let a = orig
                .query_multi(alg, &case.sources, &case.targets, case.k)
                .map_err(|e| violation("engine-error", format!("{tag} original: {e:?}")))?;
            let b = reord
                .query_multi(alg, &sources, &targets, case.k)
                .map_err(|e| violation("engine-error", format!("{tag}: {e:?}")))?;
            if a.paths.len() != b.paths.len() || a.paths.lengths() != b.paths.lengths() {
                return Err(violation(
                    "reorder-lengths",
                    format!(
                        "{tag}: {:?} != original {:?}",
                        b.paths.lengths(),
                        a.paths.lengths()
                    ),
                ));
            }
            let mut seen = std::collections::HashSet::new();
            for (i, (pa, pb)) in a.paths.iter().zip(b.paths.iter()).enumerate() {
                let mapped: Vec<u32> = pb.nodes.iter().map(|&v| remap.to_external(v)).collect();
                if mapped == pa.nodes {
                    // Identical representative — nothing more to prove.
                } else if pa.length != pb.length {
                    return Err(violation(
                        "reorder-lengths",
                        format!("{tag}: path {i} length {} != {}", pb.length, pa.length),
                    ));
                } else {
                    // A different (tie) representative: it must still be a
                    // real path of the ORIGINAL graph with this length.
                    let back = kpj_graph::Path {
                        nodes: mapped.clone(),
                        length: pb.length,
                    };
                    back.validate(g)
                        .map_err(|e| violation("reorder-path-valid", format!("{tag}: {e}")))?;
                    if !back.is_simple() {
                        return Err(violation(
                            "reorder-path-valid",
                            format!("{tag}: loop in mapped-back {mapped:?}"),
                        ));
                    }
                    if !case.sources.contains(&back.source())
                        || !case.targets.contains(&back.destination())
                    {
                        return Err(violation(
                            "reorder-path-valid",
                            format!("{tag}: mapped-back endpoints of {mapped:?} escape V_S/V_T"),
                        ));
                    }
                }
                if !seen.insert(mapped) {
                    return Err(violation(
                        "reorder-path-valid",
                        format!("{tag}: duplicate mapped-back path {i}"),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Graph-reduction stage: contract degree-2 chains and prune nodes that
/// can never lie on a `V_S → V_T` path (`kpj_graph::reduce`, the
/// transform `kpj-cli convert --reduce` persists into v2 files), then run
/// every algorithm on the reduced graph — with landmarks built fresh on
/// it — through [`QueryEngine::with_reduction`], which re-expands every
/// emitted path back to original node ids. The length vector must be
/// bit-identical to the original engine's, and each expanded path must be
/// exactly the original representative or an equal-length valid simple
/// path of the *original* graph with endpoints in `V_S`/`V_T` (same tie
/// caveat as [`check_reorder`]). The whole block runs twice: once on the
/// reduced graph as-is and once on its BFS locality reorder with the
/// permutation folded into the reduction ([`kpj_graph::Reduction::remapped`])
/// — the exact composition `--reduce --reorder` stores.
fn check_reduce(case: &OracleCase, g: &Graph) -> Result<(), Violation> {
    let red = kpj_graph::reduce(g, &case.sources, &case.targets);
    let translate = |ids: &[u32], what: &str| -> Result<Vec<u32>, Violation> {
        ids.iter()
            .map(|&v| {
                red.reduction.to_reduced(v).ok_or_else(|| {
                    violation(
                        "reduce-keep",
                        format!("{what} id {v} was contracted or pruned away"),
                    )
                })
            })
            .collect()
    };
    let sources = translate(&case.sources, "source")?;
    let targets = translate(&case.targets, "target")?;
    let idx = LandmarkIndex::build(
        g,
        3.min(g.node_count()),
        SelectionStrategy::Farthest,
        case.seed,
    );
    // Landmarks are built on the reduced graph (what `convert --reduce`
    // does after dropping the stale originals), not translated.
    let ridx = LandmarkIndex::build(
        &red.graph,
        3.min(red.graph.node_count()),
        SelectionStrategy::Farthest,
        case.seed,
    );
    let reordered = kpj_store::reorder(&red.graph);
    let folded = red
        .reduction
        .remapped(&red.graph, &reordered.remap, &reordered.graph);
    let fold_ids = |ids: &[u32], what: &str| -> Result<Vec<u32>, Violation> {
        ids.iter()
            .map(|&v| {
                reordered.remap.to_internal(v).ok_or_else(|| {
                    violation(
                        "reduce-keep",
                        format!("{what} reduced id {v} untranslatable through reorder"),
                    )
                })
            })
            .collect()
    };
    let fsources = fold_ids(&sources, "source")?;
    let ftargets = fold_ids(&targets, "target")?;
    let fidx = kpj_store::remap_landmarks(&ridx, &reordered.remap);

    type Variant<'a> = (
        &'a str,
        &'a Graph,
        &'a kpj_graph::Reduction,
        &'a LandmarkIndex,
        &'a [u32],
        &'a [u32],
    );
    let variants: [Variant<'_>; 2] = [
        (
            "reduced",
            &red.graph,
            &red.reduction,
            &ridx,
            &sources,
            &targets,
        ),
        (
            "reduced+reordered",
            &reordered.graph,
            &folded,
            &fidx,
            &fsources,
            &ftargets,
        ),
    ];
    for (variant, vg, reduction, vidx, vs, vt) in variants {
        for with_lm in [false, true] {
            let mut orig = QueryEngine::new(g);
            let mut redeng = QueryEngine::new(vg).with_reduction(reduction);
            if with_lm {
                orig = orig.with_landmarks(&idx);
                redeng = redeng.with_landmarks(vidx);
            }
            for alg in Algorithm::ALL {
                let tag = format!("{} landmarks={with_lm} ({variant})", alg.name());
                let a = orig
                    .query_multi(alg, &case.sources, &case.targets, case.k)
                    .map_err(|e| violation("engine-error", format!("{tag} original: {e:?}")))?;
                let b = redeng
                    .query_multi(alg, vs, vt, case.k)
                    .map_err(|e| violation("engine-error", format!("{tag}: {e:?}")))?;
                if a.paths.len() != b.paths.len() || a.paths.lengths() != b.paths.lengths() {
                    return Err(violation(
                        "reduce-lengths",
                        format!(
                            "{tag}: {:?} != original {:?}",
                            b.paths.lengths(),
                            a.paths.lengths()
                        ),
                    ));
                }
                let mut seen = std::collections::HashSet::new();
                for (i, (pa, pb)) in a.paths.iter().zip(b.paths.iter()).enumerate() {
                    // `pb` is already in original ids: the engine expanded
                    // it through the reduction at emit time.
                    if pb.nodes == pa.nodes {
                        // Identical representative — nothing more to prove.
                    } else if pa.length != pb.length {
                        return Err(violation(
                            "reduce-lengths",
                            format!("{tag}: path {i} length {} != {}", pb.length, pa.length),
                        ));
                    } else {
                        let expanded = kpj_graph::Path {
                            nodes: pb.nodes.to_vec(),
                            length: pb.length,
                        };
                        expanded
                            .validate(g)
                            .map_err(|e| violation("reduce-path-valid", format!("{tag}: {e}")))?;
                        if !expanded.is_simple() {
                            return Err(violation(
                                "reduce-path-valid",
                                format!("{tag}: loop in expanded {:?}", expanded.nodes),
                            ));
                        }
                        if !case.sources.contains(&expanded.source())
                            || !case.targets.contains(&expanded.destination())
                        {
                            return Err(violation(
                                "reduce-path-valid",
                                format!(
                                    "{tag}: expanded endpoints of {:?} escape V_S/V_T",
                                    expanded.nodes
                                ),
                            ));
                        }
                    }
                    if !seen.insert(pb.nodes.to_vec()) {
                        return Err(violation(
                            "reduce-path-valid",
                            format!("{tag}: duplicate expanded path {i}"),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// On small instances, the agreed answer must equal the brute-force
/// enumeration.
fn check_reference(case: &OracleCase, g: &Graph, baseline: &[Length]) -> Result<(), Violation> {
    if !case.small_enough_for_reference() {
        return Ok(());
    }
    let want = reference::top_k_lengths(g, &case.sources, &case.targets, case.k);
    if want != baseline {
        return Err(violation(
            "reference-agreement",
            format!("engines {baseline:?} != brute force {want:?}"),
        ));
    }
    Ok(())
}

fn query_line(case: &OracleCase, alg: Algorithm, sources: &[u32], targets: &[u32]) -> String {
    let list = |ids: &[u32]| {
        let items: Vec<String> = ids.iter().map(|v| v.to_string()).collect();
        format!("[{}]", items.join(","))
    };
    let timeout = match case.timeout_ms {
        Some(ms) => format!(",\"timeout_ms\":{ms}"),
        None => String::new(),
    };
    format!(
        "{{\"id\":{PROBE_ID},\"op\":\"query\",\"algorithm\":\"{}\",\"sources\":{},\"targets\":{},\"k\":{}{timeout}}}",
        alg.name(),
        list(sources),
        list(targets),
        case.k,
    )
}

fn parse_response(resp: &str) -> Result<Json, Violation> {
    let v = Json::parse(resp)
        .map_err(|e| violation("wire-json", format!("unparseable response {resp:?}: {e}")))?;
    // Round-trip fidelity: display ∘ parse must be the identity.
    let rt = Json::parse(&v.to_string())
        .map_err(|e| violation("wire-roundtrip", format!("re-parse failed: {e}")))?;
    if rt != v {
        return Err(violation(
            "wire-roundtrip",
            format!("{v} re-parsed as {rt}"),
        ));
    }
    if v.get("id").and_then(Json::as_u64) != Some(PROBE_ID) {
        return Err(violation(
            "wire-id-precision",
            format!("id {:?} is not the probe id {PROBE_ID}", v.get("id")),
        ));
    }
    Ok(v)
}

fn response_lengths(v: &Json) -> Result<Vec<Length>, Violation> {
    v.get("lengths")
        .and_then(Json::as_arr)
        .ok_or_else(|| violation("wire-shape", format!("missing lengths in {v}")))?
        .iter()
        .map(|l| {
            l.as_u64()
                .ok_or_else(|| violation("wire-shape", format!("non-integer length in {v}")))
        })
        .collect()
}

/// Wire stage: run the query through JSON → pool → cache → JSON and hold
/// the response to the engine-agreed answer; then repeat with permuted,
/// duplicated node sets and demand a cache hit with the identical answer.
fn check_wire(case: &OracleCase, baseline: &[Length]) -> Result<(), Violation> {
    let service = KpjService::new(
        Arc::new(case.graph()),
        None,
        ServiceConfig {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 8,
                ..Default::default()
            },
            cache_capacity: 16,
            ..ServiceConfig::default()
        },
    );
    let alg = Algorithm::ALL[(case.seed % Algorithm::ALL.len() as u64) as usize];

    if case.timeout_ms == Some(0) {
        // Deadline hygiene: a zero budget either dies with
        // `deadline_exceeded` or (for trivially fast answers) completes
        // exactly; either way the unbounded retry must be exact.
        let resp = handle_line(
            &service,
            &query_line(case, alg, &case.sources, &case.targets),
        );
        let v = parse_response(&resp)?;
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => {
                let got = response_lengths(&v)?;
                if got != baseline {
                    return Err(violation(
                        "wire-agreement",
                        format!("zero-timeout success {got:?} != engine {baseline:?}"),
                    ));
                }
            }
            Some(false) => {
                let code = v.get("error").and_then(Json::as_str).unwrap_or("");
                if code != "deadline_exceeded" {
                    return Err(violation(
                        "wire-deadline",
                        format!("zero timeout failed with `{code}`: {resp}"),
                    ));
                }
            }
            None => return Err(violation("wire-shape", format!("no ok field: {resp}"))),
        }
        let retry = OracleCase {
            timeout_ms: None,
            ..case.clone()
        };
        let resp = handle_line(
            &service,
            &query_line(&retry, alg, &retry.sources, &retry.targets),
        );
        let v = parse_response(&resp)?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(violation(
                "wire-deadline",
                format!("retry after expiry failed: {resp}"),
            ));
        }
        let got = response_lengths(&v)?;
        if got != baseline {
            return Err(violation(
                "wire-deadline",
                format!("retry after expiry {got:?} != engine {baseline:?}"),
            ));
        }
        return Ok(());
    }

    let resp = handle_line(
        &service,
        &query_line(case, alg, &case.sources, &case.targets),
    );
    let v = parse_response(&resp)?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(violation("wire-error", format!("query failed: {resp}")));
    }
    let got = response_lengths(&v)?;
    if got != baseline {
        return Err(violation(
            "wire-agreement",
            format!("wire {got:?} != engine {baseline:?}"),
        ));
    }

    // Metamorphic repeat: reversed order plus a duplicated element is the
    // same query and must be a cache hit with the identical answer.
    let permute = |ids: &[u32]| -> Vec<u32> {
        let mut p: Vec<u32> = ids.iter().rev().copied().collect();
        p.push(ids[0]);
        p
    };
    let resp2 = handle_line(
        &service,
        &query_line(case, alg, &permute(&case.sources), &permute(&case.targets)),
    );
    let v2 = parse_response(&resp2)?;
    let got2 = response_lengths(&v2)?;
    if got2 != got {
        return Err(violation(
            "wire-cache",
            format!("cache-hit answer {got2:?} != cache-miss answer {got:?}"),
        ));
    }
    let snap = service.snapshot();
    if snap.cache_hits != 1 || snap.cache_misses != 1 {
        return Err(violation(
            "wire-cache",
            format!(
                "permuted repeat missed the cache: hits={} misses={}",
                snap.cache_hits, snap.cache_misses
            ),
        ));
    }
    Ok(())
}
