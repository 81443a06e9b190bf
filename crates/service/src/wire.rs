//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, `id` echoed
//! verbatim so clients may pipeline. Five operations:
//!
//! ```text
//! {"id":1,"op":"ping"}
//! {"id":2,"op":"query","algorithm":"iterboundi","sources":[0],
//!  "targets":[5,9],"k":20,"timeout_ms":250,"paths":true}
//! {"id":3,"op":"metrics"}
//! {"id":4,"op":"update","edges":[[0,1,50],[3,2,7]]}
//! {"id":5,"op":"status"}
//! ```
//!
//! `update` sets each `[from,to,weight]` edge to the given weight and
//! publishes the batch as a new graph epoch — queries already admitted
//! finish on the old weights; later ones see the new. The response
//! reports `epoch`, `changed`, `repair_us`, and `affected_nodes`.
//!
//! `status` returns one JSON snapshot of live system state: every gauge
//! (current value and high-water peak), epoch/pool/cache/storage detail,
//! throughput and latency aggregates, and the structured event journal's
//! tail — everything `kpj-cli top` renders, in one round trip.
//!
//! Responses carry `"ok":true` plus the payload, or `"ok":false` with a
//! machine-readable `error` code (`bad_request`, `overloaded`,
//! `deadline_exceeded`, `shutting_down`, `internal`) and a human
//! `message`. This module is pure string→string so the protocol is
//! testable without sockets; [`server`](crate::server) adds the TCP.

use std::fmt::Write as _;
use std::time::Instant;

use kpj_core::{Algorithm, QueryError};
use kpj_graph::{NodeId, Weight, WeightUpdate};
use kpj_obs::Stage;

use crate::cache::Verdict;
use crate::json::Json;
use crate::metrics::gauge;
use crate::pool::QueryRequest;
use crate::service::KpjService;
use crate::ServiceError;

/// Largest accepted `k` — a backstop against `{"k":1e15}` requests
/// pinning a worker forever.
pub const MAX_K: usize = 10_000;

/// Largest accepted source/target set size.
pub const MAX_NODE_SET: usize = 100_000;

/// Handle one request line, producing one response line (no trailing
/// newline).
pub fn handle_line(service: &KpjService, line: &str) -> String {
    let parsed = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return error_response(Json::Null, "bad_request", &format!("bad json: {e}")),
    };
    let id = parsed.get("id").cloned().unwrap_or(Json::Null);
    // `cmd` is accepted as an alias of `op` (curl-friendly shorthand used
    // throughout the docs: `{"cmd":"metrics"}`).
    let op = parsed
        .get("op")
        .or_else(|| parsed.get("cmd"))
        .and_then(Json::as_str);
    match op {
        Some("ping") => Json::Obj(vec![
            ("id".to_string(), id),
            ("ok".to_string(), Json::Bool(true)),
            ("pong".to_string(), Json::Bool(true)),
        ])
        .to_string(),
        Some("metrics") => metrics_response(service, id),
        Some("query") => match parse_query(&parsed) {
            Ok((request, want_paths)) => run_query(service, id, &request, want_paths),
            Err(message) => error_response(id, "bad_request", &message),
        },
        Some("update") => match parse_update(&parsed) {
            Ok(updates) => run_update(service, id, &updates),
            Err(message) => error_response(id, "bad_request", &message),
        },
        Some("status") => status_response(service, id),
        Some(other) => error_response(id, "bad_request", &format!("unknown op `{other}`")),
        None => error_response(id, "bad_request", "missing `op` (or `cmd`)"),
    }
}

fn node_list(value: &Json, what: &str) -> Result<Vec<NodeId>, String> {
    let arr = value
        .as_arr()
        .ok_or_else(|| format!("`{what}` must be an array"))?;
    if arr.len() > MAX_NODE_SET {
        return Err(format!("`{what}` has more than {MAX_NODE_SET} nodes"));
    }
    arr.iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| NodeId::try_from(n).ok())
                .ok_or_else(|| format!("`{what}` must contain node ids"))
        })
        .collect()
}

fn parse_query(req: &Json) -> Result<(QueryRequest, bool), String> {
    let algorithm = match req.get("algorithm").and_then(Json::as_str) {
        Some(name) => name.parse::<Algorithm>()?,
        None => Algorithm::IterBoundI,
    };
    let sources = node_list(req.get("sources").ok_or("missing `sources`")?, "sources")?;
    let targets = node_list(req.get("targets").ok_or("missing `targets`")?, "targets")?;
    let k = req
        .get("k")
        .ok_or("missing `k`")?
        .as_usize()
        .ok_or("`k` must be a non-negative integer")?;
    if k == 0 || k > MAX_K {
        return Err(format!("`k` must be in 1..={MAX_K}"));
    }
    let timeout_ms = match req.get("timeout_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or("`timeout_ms` must be a non-negative integer")?,
        ),
    };
    let want_paths = req.get("paths").and_then(Json::as_bool).unwrap_or(false);
    Ok((
        QueryRequest {
            algorithm,
            sources,
            targets,
            k,
            timeout_ms,
        },
        want_paths,
    ))
}

/// Largest accepted update batch — a backstop mirroring [`MAX_NODE_SET`].
pub const MAX_UPDATE_EDGES: usize = 100_000;

fn parse_update(req: &Json) -> Result<Vec<WeightUpdate>, String> {
    let edges = req
        .get("edges")
        .ok_or("missing `edges`")?
        .as_arr()
        .ok_or("`edges` must be an array of [from,to,weight] triples")?;
    if edges.is_empty() {
        return Err("`edges` must not be empty".to_string());
    }
    if edges.len() > MAX_UPDATE_EDGES {
        return Err(format!("`edges` has more than {MAX_UPDATE_EDGES} entries"));
    }
    edges
        .iter()
        .map(|e| {
            let triple = e
                .as_arr()
                .filter(|t| t.len() == 3)
                .ok_or("each edge must be a [from,to,weight] triple")?;
            let node = |v: &Json, what: &str| {
                v.as_u64()
                    .and_then(|n| NodeId::try_from(n).ok())
                    .ok_or_else(|| format!("`{what}` must be a node id"))
            };
            Ok(WeightUpdate {
                from: node(&triple[0], "from")?,
                to: node(&triple[1], "to")?,
                weight: triple[2]
                    .as_u64()
                    .and_then(|w| Weight::try_from(w).ok())
                    .ok_or("`weight` must be a non-negative integer")?,
            })
        })
        .collect()
}

fn run_update(service: &KpjService, id: Json, updates: &[WeightUpdate]) -> String {
    match service.apply_update(updates) {
        Ok(outcome) => Json::Obj(vec![
            ("id".to_string(), id),
            ("ok".to_string(), Json::Bool(true)),
            ("epoch".to_string(), Json::from(outcome.epoch)),
            ("changed".to_string(), Json::from(outcome.changed as u64)),
            ("repair_us".to_string(), Json::from(outcome.repair_us)),
            (
                "affected_nodes".to_string(),
                Json::from(outcome.affected_nodes),
            ),
            (
                "cache_purged".to_string(),
                Json::from(outcome.cache_purged as u64),
            ),
        ])
        .to_string(),
        Err(e) => error_response(id, error_code(&e), &e.to_string()),
    }
}

fn run_query(service: &KpjService, id: Json, request: &QueryRequest, want_paths: bool) -> String {
    let started = Instant::now();
    match service.execute(request) {
        Ok(answer) => {
            // Server-side latency (execute only, no socket time) rides in
            // the envelope so clients can split network from compute.
            let server_us = started.elapsed().as_micros() as u64;
            let encode = Instant::now();
            // Splice the per-request envelope around the answer's memoized
            // body: a cache hit reuses the exact bytes rendered on the
            // miss, so no path data is re-encoded (or copied) per request.
            let body = answer.wire_body(want_paths);
            let mut out = String::with_capacity(body.len() + 48);
            out.push_str("{\"id\":");
            write!(out, "{id}").expect("writing to a String cannot fail");
            write!(out, ",\"ok\":true,\"server_us\":{server_us},")
                .expect("writing to a String cannot fail");
            out.push_str(body);
            out.push('}');
            service
                .metrics()
                .record_stage(request.algorithm, Stage::Encode, encode.elapsed());
            out
        }
        Err(e) => error_response(id, error_code(&e), &e.to_string()),
    }
}

fn metrics_response(service: &KpjService, id: Json) -> String {
    // Sampled gauges (epoch/cache occupancy) are refreshed per scrape,
    // not per query — the exposition below carries them.
    service.refresh_gauges();
    let s = service.snapshot();
    let mut prometheus = String::new();
    service.metrics().render_prometheus(&mut prometheus);
    Json::Obj(vec![
        ("id".to_string(), id),
        ("ok".to_string(), Json::Bool(true)),
        (
            "metrics".to_string(),
            Json::Obj(vec![
                ("queries".to_string(), Json::from(s.queries)),
                ("failures".to_string(), Json::from(s.failures)),
                ("rejected".to_string(), Json::from(s.rejected)),
                (
                    "deadline_exceeded".to_string(),
                    Json::from(s.deadline_exceeded),
                ),
                ("cache_hits".to_string(), Json::from(s.cache_hits)),
                ("cache_shared".to_string(), Json::from(s.cache_shared)),
                ("cache_misses".to_string(), Json::from(s.cache_misses)),
                ("paths_returned".to_string(), Json::from(s.paths_returned)),
                ("latency_mean_us".to_string(), Json::from(s.latency_mean_us)),
                ("latency_p50_us".to_string(), Json::from(s.latency_p50_us)),
                ("latency_p99_us".to_string(), Json::from(s.latency_p99_us)),
                ("latency_max_us".to_string(), Json::from(s.latency_max_us)),
                ("nodes_settled".to_string(), Json::from(s.nodes_settled)),
                ("edges_relaxed".to_string(), Json::from(s.edges_relaxed)),
                (
                    "sp_computations".to_string(),
                    Json::from(s.shortest_path_computations),
                ),
                ("testlb_calls".to_string(), Json::from(s.testlb_calls)),
                ("heap_pops".to_string(), Json::from(s.heap_pops)),
                ("lb_prunes".to_string(), Json::from(s.lb_prunes)),
                (
                    "subspaces_skipped".to_string(),
                    Json::from(s.subspaces_skipped),
                ),
                ("tau_updates".to_string(), Json::from(s.tau_updates)),
            ]),
        ),
        // The full (algorithm, stage) histogram matrix, ready to be
        // dropped into a Prometheus scrape or `kpj-cli --metrics`.
        ("prometheus".to_string(), Json::from(prometheus.as_str())),
    ])
    .to_string()
}

/// How many journal events ride in a status response.
const STATUS_EVENT_TAIL: usize = 32;

/// `i64` gauge readings carry through the exact-integer JSON path.
fn jint(v: i64) -> Json {
    Json::Int(v as i128)
}

fn status_response(service: &KpjService, id: Json) -> String {
    service.refresh_gauges();
    let metrics = service.metrics();
    let s = service.snapshot();
    let gauges = metrics.gauges();
    let journal = metrics.journal();
    let pool = service.pool();

    let read = |idx: usize| jint(gauges.get(idx));
    let epoch = Json::Obj(vec![
        ("current".to_string(), read(gauge::EPOCH_ID)),
        ("live".to_string(), read(gauge::LIVE_EPOCHS)),
        ("pins".to_string(), read(gauge::EPOCH_PINS)),
        ("repair_queue".to_string(), read(gauge::REPAIR_QUEUE)),
        ("swaps".to_string(), Json::from(s.epoch_swaps)),
    ]);
    let pool_obj = Json::Obj(vec![
        ("workers".to_string(), Json::from(pool.worker_count())),
        ("busy".to_string(), read(gauge::BUSY_WORKERS)),
        ("queue_depth".to_string(), read(gauge::QUEUE_DEPTH)),
        (
            "queue_peak".to_string(),
            jint(gauges.peak(gauge::QUEUE_DEPTH)),
        ),
        (
            "queue_capacity".to_string(),
            Json::from(pool.queue_capacity()),
        ),
        ("executed".to_string(), Json::from(pool.executed())),
        ("rejected".to_string(), Json::from(s.rejected)),
    ]);
    let shards: Vec<Json> = service
        .cache()
        .map(|cache| cache.occupancy())
        .unwrap_or_default()
        .into_iter()
        .map(|(ready, pending)| Json::Arr(vec![Json::from(ready), Json::from(pending)]))
        .collect();
    let cache = Json::Obj(vec![
        ("entries".to_string(), read(gauge::CACHE_ENTRIES)),
        ("pending".to_string(), read(gauge::CACHE_WAITERS)),
        ("evictions".to_string(), read(gauge::CACHE_EVICTIONS)),
        ("hits".to_string(), Json::from(s.cache_hits)),
        ("shared".to_string(), Json::from(s.cache_shared)),
        ("misses".to_string(), Json::from(s.cache_misses)),
        (
            "revalidated".to_string(),
            Json::Obj(
                Verdict::ALL
                    .iter()
                    .zip(s.revalidations)
                    .map(|(verdict, n)| (verdict.name().to_string(), Json::from(n)))
                    .collect(),
            ),
        ),
        ("shards".to_string(), Json::Arr(shards)),
    ]);
    let storage = Json::Obj(vec![
        ("mmap_bytes".to_string(), read(gauge::MMAP_BYTES)),
        ("expand_hops".to_string(), read(gauge::EXPAND_HOPS)),
    ]);
    let throughput = Json::Obj(vec![
        ("queries".to_string(), Json::from(s.queries)),
        ("failures".to_string(), Json::from(s.failures)),
        (
            "deadline_exceeded".to_string(),
            Json::from(s.deadline_exceeded),
        ),
        ("paths_returned".to_string(), Json::from(s.paths_returned)),
    ]);
    let latency = Json::Obj(vec![
        ("mean".to_string(), Json::from(s.latency_mean_us)),
        ("p50".to_string(), Json::from(s.latency_p50_us)),
        ("p99".to_string(), Json::from(s.latency_p99_us)),
        ("max".to_string(), Json::from(s.latency_max_us)),
        ("count".to_string(), Json::from(s.latency_count)),
    ]);
    let updates = Json::Obj(vec![
        ("epoch_swaps".to_string(), Json::from(s.epoch_swaps)),
        ("edges_updated".to_string(), Json::from(s.edges_updated)),
        ("buffers_reused".to_string(), Json::from(s.buffers_reused)),
        ("buffers_copied".to_string(), Json::from(s.buffers_copied)),
        (
            "translate_mean_us".to_string(),
            Json::from(s.translate_mean_us),
        ),
        (
            "translate_max_us".to_string(),
            Json::from(s.translate_max_us),
        ),
        ("repair_mean_us".to_string(), Json::from(s.repair_mean_us)),
        ("repair_max_us".to_string(), Json::from(s.repair_max_us)),
    ]);
    let rows = Json::Obj(vec![
        ("held".to_string(), read(gauge::TARGET_ROWS)),
        ("builds".to_string(), Json::from(s.target_row_builds)),
        ("reads".to_string(), Json::from(s.target_row_reads)),
    ]);
    let gauge_obj = Json::Obj(
        (0..gauges.len())
            .map(|i| {
                (
                    gauges.name(i).to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), jint(gauges.get(i))),
                        ("peak".to_string(), jint(gauges.peak(i))),
                    ]),
                )
            })
            .collect(),
    );
    let tail: Vec<Json> = journal
        .tail(STATUS_EVENT_TAIL)
        .into_iter()
        .map(|e| {
            let mut fields = vec![
                ("seq".to_string(), Json::from(e.seq)),
                ("at_us".to_string(), Json::from(e.at_us)),
                ("event".to_string(), Json::from(journal.kind_name(e.kind))),
            ];
            if let Some(kind) = journal.kinds().get(e.kind as usize) {
                for (field, value) in kind.fields.iter().zip(&e.args) {
                    if !field.is_empty() {
                        fields.push((field.to_string(), Json::from(*value)));
                    }
                }
            }
            Json::Obj(fields)
        })
        .collect();
    let events = Json::Obj(vec![
        ("recorded".to_string(), Json::from(journal.recorded())),
        ("dropped".to_string(), Json::from(journal.dropped())),
        ("tail".to_string(), Json::Arr(tail)),
    ]);
    Json::Obj(vec![
        ("id".to_string(), id),
        ("ok".to_string(), Json::Bool(true)),
        (
            "status".to_string(),
            Json::Obj(vec![
                ("uptime_s".to_string(), Json::from(s.uptime_s)),
                ("snapshot_seq".to_string(), Json::from(s.snapshot_seq)),
                ("epoch".to_string(), epoch),
                ("pool".to_string(), pool_obj),
                ("cache".to_string(), cache),
                ("storage".to_string(), storage),
                ("throughput".to_string(), throughput),
                ("latency_us".to_string(), latency),
                ("updates".to_string(), updates),
                ("target_rows".to_string(), rows),
                ("gauges".to_string(), gauge_obj),
                ("events".to_string(), events),
            ]),
        ),
    ])
    .to_string()
}

/// Machine-readable error code for a [`ServiceError`].
pub fn error_code(e: &ServiceError) -> &'static str {
    match e {
        ServiceError::Overloaded => "overloaded",
        ServiceError::ShuttingDown => "shutting_down",
        ServiceError::Query(QueryError::DeadlineExceeded) => "deadline_exceeded",
        ServiceError::Query(_) => "bad_request",
        ServiceError::Update(_) => "bad_request",
        ServiceError::Internal(_) => "internal",
    }
}

fn error_response(id: Json, code: &str, message: &str) -> String {
    Json::Obj(vec![
        ("id".to_string(), id),
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::from(code)),
        ("message".to_string(), Json::from(message)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use crate::service::ServiceConfig;
    use kpj_graph::GraphBuilder;
    use std::sync::Arc;

    fn service() -> KpjService {
        let mut b = GraphBuilder::new(4);
        b.add_bidirectional(0, 1, 1).unwrap();
        b.add_bidirectional(1, 2, 1).unwrap();
        b.add_bidirectional(0, 3, 2).unwrap();
        b.add_bidirectional(3, 2, 2).unwrap();
        let config = ServiceConfig {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 8,
                ..Default::default()
            },
            cache_capacity: 16,
            ..ServiceConfig::default()
        };
        KpjService::new(Arc::new(b.build()), None, config)
    }

    #[test]
    fn ping_echoes_id() {
        let svc = service();
        let resp = handle_line(&svc, r#"{"id":7,"op":"ping"}"#);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("pong").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn query_returns_ordered_lengths_and_paths() {
        let svc = service();
        let resp = handle_line(
            &svc,
            r#"{"id":1,"op":"query","algorithm":"da","sources":[0],"targets":[2],"k":2,"paths":true}"#,
        );
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{resp}");
        assert_eq!(v.get("count").unwrap().as_u64(), Some(2));
        let lengths: Vec<u64> = v
            .get("lengths")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        assert_eq!(lengths, vec![2, 4]);
        let first = v.get("paths").unwrap().as_arr().unwrap()[0]
            .as_arr()
            .unwrap();
        let nodes: Vec<u64> = first.iter().filter_map(Json::as_u64).collect();
        assert_eq!(nodes, vec![0, 1, 2]);
        assert!(
            v.get("stats")
                .unwrap()
                .get("settled")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
    }

    #[test]
    fn sidetrack_algorithm_is_served_and_labelled() {
        let svc = service();
        let resp = handle_line(
            &svc,
            r#"{"id":1,"op":"query","algorithm":"sidetrack","sources":[0],"targets":[2],"k":2,"paths":true}"#,
        );
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{resp}");
        let lengths: Vec<u64> = v
            .get("lengths")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        assert_eq!(lengths, vec![2, 4]);
        // The sidetrack-specific work counters travel the wire too.
        let stats = v.get("stats").unwrap();
        assert!(stats.get("sidetracks_scanned").unwrap().as_u64().unwrap() > 0);
        // Metrics label the new algorithm like any other.
        let m = Json::parse(&handle_line(&svc, r#"{"id":2,"op":"metrics"}"#)).unwrap();
        let prom = m.get("prometheus").unwrap().as_str().unwrap();
        assert!(prom.contains("kpj_stage_duration_seconds_bucket{algorithm=\"Sidetrack\""));
        let work = prom
            .lines()
            .find(|l| {
                l.starts_with(
                    "kpj_engine_work_total{algorithm=\"Sidetrack\",counter=\"sidetrack_splices\"}",
                )
            })
            .expect("splice counter series");
        let splices: u64 = work.rsplit_once(' ').unwrap().1.parse().unwrap();
        assert!(splices > 0, "{work}");
    }

    #[test]
    fn unknown_algorithm_error_lists_every_valid_name() {
        let svc = service();
        let resp = handle_line(
            &svc,
            r#"{"id":1,"op":"query","algorithm":"quantum","sources":[0],"targets":[2],"k":1}"#,
        );
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false), "{resp}");
        assert_eq!(v.get("error").unwrap().as_str(), Some("bad_request"));
        let message = v.get("message").unwrap().as_str().unwrap().to_string();
        for alg in Algorithm::ALL {
            assert!(
                message.contains(&alg.name().to_ascii_lowercase()),
                "error message misses `{}`: {message}",
                alg.name()
            );
        }
    }

    #[test]
    fn cache_hit_reuses_result_and_encoded_body() {
        let svc = service();
        let req = QueryRequest {
            algorithm: Algorithm::Da,
            sources: vec![0],
            targets: vec![2],
            k: 2,
            timeout_ms: None,
        };
        let first = svc.execute(&req).unwrap();
        let second = svc.execute(&req).unwrap();
        // The hit shares the computed result — no KpjResult clone…
        assert!(Arc::ptr_eq(&first, &second), "cache hit cloned the result");
        // …and the JSON body is rendered once and interned: both calls
        // return the very same string (pointer equality), so serving a hit
        // copies no path data into an encoder either.
        assert!(
            std::ptr::eq(first.wire_body(true), second.wire_body(true)),
            "cache hit re-encoded the body"
        );
        assert_eq!(svc.snapshot().cache_hits, 1);

        // The spliced responses differ only in the per-request envelope
        // (id + measured server_us); the shared body bytes are identical.
        let line = |id: u32| {
            format!(
                "{{\"id\":{id},\"op\":\"query\",\"algorithm\":\"da\",\"sources\":[0],\"targets\":[2],\"k\":2,\"paths\":true}}"
            )
        };
        let scrub = |resp: &str| {
            let start =
                resp.find("\"server_us\":").expect("server_us present") + "\"server_us\":".len();
            let digits = resp[start..]
                .find(|c: char| !c.is_ascii_digit())
                .expect("terminated number");
            format!("{}0{}", &resp[..start], &resp[start + digits..])
        };
        let a = handle_line(&svc, &line(41));
        let b = handle_line(&svc, &line(42));
        assert_eq!(scrub(&a).replacen("\"id\":41", "\"id\":42", 1), scrub(&b));
    }

    #[test]
    fn malformed_requests_get_bad_request() {
        let svc = service();
        for (line, why) in [
            ("this is not json", "parse failure"),
            (r#"{"id":1}"#, "missing op"),
            (r#"{"id":1,"op":"nope"}"#, "unknown op"),
            (
                r#"{"id":1,"op":"query","targets":[2],"k":1}"#,
                "missing sources",
            ),
            (
                r#"{"id":1,"op":"query","sources":[0],"targets":[2],"k":0}"#,
                "k = 0",
            ),
            (
                r#"{"id":1,"op":"query","sources":[0],"targets":[2],"k":99999999}"#,
                "k too big",
            ),
            (
                r#"{"id":1,"op":"query","algorithm":"quantum","sources":[0],"targets":[2],"k":1}"#,
                "bad algorithm",
            ),
            (
                r#"{"id":1,"op":"query","sources":[0.5],"targets":[2],"k":1}"#,
                "fractional node id",
            ),
        ] {
            let v = Json::parse(&handle_line(&svc, line)).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false), "{why}");
            assert_eq!(
                v.get("error").unwrap().as_str(),
                Some("bad_request"),
                "{why}"
            );
        }
    }

    #[test]
    fn large_ids_echo_exactly() {
        // 2^53 + 1 is silently rounded by any f64 detour; the id must
        // come back bit-exact so pipelining clients can match responses.
        let svc = service();
        let resp = handle_line(&svc, r#"{"id":9007199254740993,"op":"ping"}"#);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(9_007_199_254_740_993));
        assert!(resp.contains("9007199254740993"), "{resp}");
        assert!(!resp.contains("9007199254740992"), "rounded id: {resp}");
    }

    #[test]
    fn float_syntax_integers_are_rejected() {
        // `1e3` etc. used to sneak through the f64 number path for ids,
        // `k`, and timeouts. Integer fields want integer syntax.
        let svc = service();
        for (line, why) in [
            (
                r#"{"id":1,"op":"query","sources":[0],"targets":[2],"k":1e3}"#,
                "k in exponent notation",
            ),
            (
                r#"{"id":1,"op":"query","sources":[1e1],"targets":[2],"k":1}"#,
                "source id in exponent notation",
            ),
            (
                r#"{"id":1,"op":"query","sources":[2.0],"targets":[2],"k":1}"#,
                "float-syntax source id",
            ),
            (
                r#"{"id":1,"op":"query","sources":[0],"targets":[2],"k":1,"timeout_ms":1.5}"#,
                "fractional timeout",
            ),
        ] {
            let v = Json::parse(&handle_line(&svc, line)).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false), "{why}");
            assert_eq!(
                v.get("error").unwrap().as_str(),
                Some("bad_request"),
                "{why}"
            );
        }
    }

    #[test]
    fn out_of_range_node_is_bad_request() {
        let svc = service();
        let resp = handle_line(
            &svc,
            r#"{"id":1,"op":"query","sources":[99],"targets":[2],"k":1}"#,
        );
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("error").unwrap().as_str(), Some("bad_request"));
    }

    #[test]
    fn zero_timeout_reports_deadline_exceeded() {
        let svc = service();
        let resp = handle_line(
            &svc,
            r#"{"id":4,"op":"query","sources":[0],"targets":[2],"k":2,"timeout_ms":0}"#,
        );
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("error").unwrap().as_str(), Some("deadline_exceeded"));
        // The worker scratch survives: the same query without a timeout
        // succeeds afterwards.
        let ok = handle_line(
            &svc,
            r#"{"id":5,"op":"query","sources":[0],"targets":[2],"k":2}"#,
        );
        let v = Json::parse(&ok).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{ok}");
    }

    #[test]
    fn update_publishes_a_new_epoch_and_later_queries_see_it() {
        let svc = service();
        let lengths = |resp: &str| -> Vec<u64> {
            let v = Json::parse(resp).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{resp}");
            v.get("lengths")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .filter_map(Json::as_u64)
                .collect()
        };
        let query = r#"{"id":1,"op":"query","sources":[0],"targets":[2],"k":1}"#;
        assert_eq!(lengths(&handle_line(&svc, query)), vec![2]);

        // Raise the short route; the batch publishes epoch 1.
        let resp = handle_line(&svc, r#"{"id":2,"op":"update","edges":[[0,1,50]]}"#);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{resp}");
        assert_eq!(v.get("epoch").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("changed").unwrap().as_u64(), Some(1));

        // The identical query must NOT be served from the epoch-0 cache
        // entry: the batch changed an arc on its path, so revalidation
        // rejects it, the query recomputes on the new graph and the long
        // route wins.
        assert_eq!(lengths(&handle_line(&svc, query)), vec![4]);
        // ...and caches as valid on epoch 1: a repeat is a hit.
        assert_eq!(lengths(&handle_line(&svc, query)), vec![4]);
        assert_eq!(svc.snapshot().cache_hits, 1);
        assert_eq!(svc.snapshot().epoch_swaps, 1);

        // Re-sending the same weight is a no-op: no new epoch.
        let resp = handle_line(&svc, r#"{"id":3,"op":"update","edges":[[0,1,50]]}"#);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("epoch").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("changed").unwrap().as_u64(), Some(0));

        // A non-existent edge rejects the whole batch and changes nothing.
        for (line, why) in [
            (
                r#"{"id":4,"op":"update","edges":[[0,2,5]]}"#,
                "no such edge",
            ),
            (r#"{"id":5,"op":"update","edges":[[99,0,5]]}"#, "bad node"),
            (r#"{"id":6,"op":"update","edges":[]}"#, "empty batch"),
            (r#"{"id":7,"op":"update","edges":[[0,1]]}"#, "not a triple"),
            (r#"{"id":8,"op":"update"}"#, "missing edges"),
        ] {
            let v = Json::parse(&handle_line(&svc, line)).unwrap();
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false), "{why}");
            assert_eq!(
                v.get("error").unwrap().as_str(),
                Some("bad_request"),
                "{why}"
            );
        }
        assert_eq!(lengths(&handle_line(&svc, query)), vec![4]);
    }

    #[test]
    fn status_reports_gauges_and_event_tail() {
        let svc = service();
        let query = r#"{"id":1,"op":"query","sources":[0],"targets":[2],"k":2}"#;
        handle_line(&svc, query);
        handle_line(&svc, r#"{"id":2,"op":"update","edges":[[0,1,50]]}"#);
        handle_line(&svc, query);
        let v = Json::parse(&handle_line(&svc, r#"{"id":3,"op":"status"}"#)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let status = v.get("status").unwrap();
        let epoch = status.get("epoch").unwrap();
        assert_eq!(epoch.get("current").unwrap().as_u64(), Some(1));
        assert_eq!(epoch.get("swaps").unwrap().as_u64(), Some(1));
        let pool = status.get("pool").unwrap();
        assert_eq!(pool.get("workers").unwrap().as_u64(), Some(1));
        assert_eq!(pool.get("queue_depth").unwrap().as_u64(), Some(0));
        assert_eq!(pool.get("executed").unwrap().as_u64(), Some(2));
        // The update re-weighted an arc of the cached answer: the repeat
        // rejected it and recomputed, leaving one entry on the new epoch.
        let cache = status.get("cache").unwrap();
        assert_eq!(cache.get("entries").unwrap().as_u64(), Some(1));
        let revalidated = cache.get("revalidated").unwrap();
        assert_eq!(revalidated.get("on_path").unwrap().as_u64(), Some(1));
        assert_eq!(revalidated.get("kept").unwrap().as_u64(), Some(0));
        assert_eq!(cache.get("shards").unwrap().as_arr().unwrap().len(), 16);
        assert_eq!(
            status
                .get("throughput")
                .unwrap()
                .get("queries")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        // The update left a publish + applied pair in the journal tail.
        let events = status.get("events").unwrap();
        assert!(events.get("recorded").unwrap().as_u64().unwrap() >= 2);
        let tail = events.get("tail").unwrap().as_arr().unwrap();
        let names: Vec<&str> = tail
            .iter()
            .filter_map(|e| e.get("event").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"epoch_published"), "{names:?}");
        assert!(names.contains(&"update_applied"), "{names:?}");
        // Every gauge appears with value+peak.
        let gauges = status.get("gauges").unwrap();
        let live = gauges.get("live_epochs").unwrap();
        assert!(live.get("value").unwrap().as_u64().unwrap() >= 1);
        assert!(live.get("peak").unwrap().as_u64().unwrap() >= 1);
        // Repeating status bumps the snapshot sequence.
        let seq1 = status.get("snapshot_seq").unwrap().as_u64().unwrap();
        let v2 = Json::parse(&handle_line(&svc, r#"{"id":4,"op":"status"}"#)).unwrap();
        let seq2 = v2
            .get("status")
            .unwrap()
            .get("snapshot_seq")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(seq2, seq1 + 1);
    }

    #[test]
    fn deadline_expiry_lands_in_the_journal() {
        let svc = service();
        handle_line(
            &svc,
            r#"{"id":1,"op":"query","sources":[0],"targets":[2],"k":2,"timeout_ms":0}"#,
        );
        let v = Json::parse(&handle_line(&svc, r#"{"id":2,"op":"status"}"#)).unwrap();
        let tail = v
            .get("status")
            .unwrap()
            .get("events")
            .unwrap()
            .get("tail")
            .unwrap()
            .as_arr()
            .unwrap();
        let expiry = tail
            .iter()
            .find(|e| e.get("event").and_then(Json::as_str) == Some("deadline_expired"))
            .expect("deadline_expired event in tail");
        assert_eq!(expiry.get("k").unwrap().as_u64(), Some(2));
        assert_eq!(expiry.get("timeout_ms").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn metrics_roundtrip() {
        let svc = service();
        handle_line(
            &svc,
            r#"{"id":1,"op":"query","sources":[0],"targets":[2],"k":1}"#,
        );
        handle_line(
            &svc,
            r#"{"id":2,"op":"query","sources":[0],"targets":[2],"k":1}"#,
        );
        // `cmd` is an accepted alias of `op`.
        let v = Json::parse(&handle_line(&svc, r#"{"id":9,"cmd":"metrics"}"#)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("queries").unwrap().as_u64(), Some(2));
        assert_eq!(m.get("cache_hits").unwrap().as_u64(), Some(1));
        assert_eq!(m.get("cache_misses").unwrap().as_u64(), Some(1));
        assert!(m.get("heap_pops").unwrap().as_u64().unwrap() > 0);
        // The exposition block is a valid-looking Prometheus text dump
        // covering the default algorithm's stage histograms.
        let prom = v.get("prometheus").unwrap().as_str().unwrap();
        assert!(prom.contains("kpj_stage_duration_seconds_bucket{algorithm=\"IterBoundI\""));
        assert!(
            prom.contains("kpj_engine_work_total{algorithm=\"IterBoundI\",counter=\"heap_pops\"}")
        );
        assert!(prom.contains("kpj_service_events_total{event=\"queries\"} 2"));
    }
}
