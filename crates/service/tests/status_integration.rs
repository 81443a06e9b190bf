//! Ground-truth check for the `status` verb: drive a real service with
//! interleaved queries and weight updates, then assert the snapshot's
//! gauges agree with state read directly off the service — not merely
//! that the fields exist. Also proves admission rejections land in the
//! structured event journal.

use std::sync::Arc;

use kpj_core::Algorithm;
use kpj_graph::{Graph, NodeId, WeightUpdate};
use kpj_service::json::Json;
use kpj_service::wire::handle_line;
use kpj_service::{
    event, EnginePool, KpjService, PoolConfig, QueryRequest, ServiceConfig, ServiceError,
};
use kpj_workload::road::RoadConfig;

fn road(nodes: usize, arcs: usize, seed: u64) -> Arc<Graph> {
    Arc::new(RoadConfig::new(nodes, arcs, seed).generate())
}

fn request(sources: Vec<NodeId>, targets: Vec<NodeId>, k: usize) -> QueryRequest {
    QueryRequest {
        algorithm: Algorithm::IterBoundI,
        sources,
        targets,
        k,
        timeout_ms: None,
    }
}

fn status(service: &KpjService) -> Json {
    let reply = Json::parse(&handle_line(service, r#"{"id":1,"op":"status"}"#)).unwrap();
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));
    reply.get("status").unwrap().clone()
}

fn field(s: &Json, path: &[&str]) -> u64 {
    let mut cur = s;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("status is missing {path:?}"));
    }
    cur.as_u64()
        .unwrap_or_else(|| panic!("{path:?} is not a u64"))
}

/// Interleave queries and updates from several threads, drain, and
/// compare every `status` gauge against the same state read directly:
/// the snapshot must be an honest picture of the service, not a cache
/// of stale numbers.
#[test]
fn status_gauges_agree_with_ground_truth_under_interleaved_load() {
    let graph = road(1_200, 3_000, 13);
    let service = Arc::new(KpjService::new(
        Arc::clone(&graph),
        None,
        ServiceConfig {
            pool: PoolConfig {
                workers: 2,
                queue_capacity: 64,
                ..Default::default()
            },
            cache_capacity: 64,
            ..ServiceConfig::default()
        },
    ));

    const THREADS: usize = 4;
    const ROUNDS: usize = 12;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    if t == 0 && i % 3 == 0 {
                        // A real edge of the seeded network, re-weighted
                        // deterministically: epoch churn under the queries.
                        let u = ((i * 37) % 1_200) as NodeId;
                        let epoch = service.current_epoch();
                        let Some(to) = epoch.graph().out_edges(u).iter().next().map(|e| e.to)
                        else {
                            continue;
                        };
                        drop(epoch);
                        service
                            .apply_update(&[WeightUpdate {
                                from: u,
                                to,
                                weight: 10 + i as u32,
                            }])
                            .unwrap();
                    } else {
                        let s = ((t * 131 + i * 17) % 1_200) as NodeId;
                        service
                            .execute(&request(vec![s], vec![300, 900], 5))
                            .unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let s = status(&service);
    let snap = service.snapshot();

    // Epoch block vs the epoch cell itself.
    assert_eq!(
        field(&s, &["epoch", "current"]),
        service.current_epoch().id(),
        "status epoch disagrees with the pinned epoch"
    );
    assert_eq!(field(&s, &["epoch", "swaps"]), snap.epoch_swaps);
    assert!(
        field(&s, &["epoch", "live"]) >= 1,
        "at least the current epoch is live"
    );

    // Pool block: everything drained, so depth and busy are exactly zero
    // and executed matches the pool's own counter.
    assert_eq!(field(&s, &["pool", "queue_depth"]), 0, "queue not drained");
    assert_eq!(field(&s, &["pool", "busy"]), 0, "workers still busy");
    assert_eq!(field(&s, &["pool", "executed"]), service.pool().executed());
    assert_eq!(field(&s, &["pool", "workers"]), 2);
    assert_eq!(field(&s, &["pool", "rejected"]), 0);

    // Cache block vs a direct shard walk at the same instant.
    let occupancy = service.cache().expect("cache is on").occupancy();
    let ready: usize = occupancy.iter().map(|&(r, _)| r).sum();
    assert_eq!(field(&s, &["cache", "entries"]), ready as u64);
    assert_eq!(
        field(&s, &["cache", "pending"]),
        0,
        "no flight outlives the drain"
    );
    assert_eq!(field(&s, &["cache", "hits"]), snap.cache_hits);
    assert_eq!(field(&s, &["cache", "misses"]), snap.cache_misses);

    // Throughput/updates blocks vs the counter snapshot.
    assert_eq!(field(&s, &["throughput", "queries"]), snap.queries);
    assert_eq!(field(&s, &["throughput", "failures"]), 0);
    assert_eq!(field(&s, &["updates", "epoch_swaps"]), snap.epoch_swaps);
    assert!(snap.epoch_swaps > 0, "the update thread published epochs");
    assert_eq!(field(&s, &["updates", "edges_updated"]), snap.edges_updated);
    for (key, value) in [
        ("translate_mean_us", snap.translate_mean_us),
        ("translate_max_us", snap.translate_max_us),
    ] {
        assert_eq!(field(&s, &["updates", key]), value, "{key}");
    }

    // The journal saw every publish: at least one epoch_published + one
    // update_applied per swap (workers may add epoch_shed events when
    // they notice a superseded epoch — timing-dependent), and nothing
    // was dropped (the load fits the ring).
    assert!(
        field(&s, &["events", "recorded"]) >= 2 * snap.epoch_swaps,
        "journal out of step with the epoch swaps"
    );
    assert_eq!(field(&s, &["events", "dropped"]), 0);
    let tail = s.get("events").unwrap().get("tail").unwrap();
    let kinds: Vec<&str> = tail
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(|e| e.get("event").and_then(Json::as_str))
        .collect();
    assert!(kinds.contains(&"epoch_published"), "tail: {kinds:?}");
    assert!(kinds.contains(&"update_applied"), "tail: {kinds:?}");

    // Consecutive snapshots advance the sequence number: staleness is
    // detectable.
    let seq1 = field(&s, &["snapshot_seq"]);
    let seq2 = field(&status(&service), &["snapshot_seq"]);
    assert!(
        seq2 > seq1,
        "snapshot_seq did not advance: {seq1} -> {seq2}"
    );
}

/// An admission rejection must increment the rejected counter *and* drop
/// a structured `admission_reject` event carrying the observed depth and
/// capacity, so an operator sees why load was turned away.
#[test]
fn admission_rejections_land_in_the_journal() {
    let graph = road(1_500, 3_600, 7);
    let metrics = Arc::new(kpj_service::Metrics::new());
    let pool = EnginePool::with_hooks(
        Arc::clone(&graph),
        None,
        PoolConfig {
            workers: 1,
            queue_capacity: 1,
            ..Default::default()
        },
        kpj_service::PoolHooks {
            metrics: Some(Arc::clone(&metrics)),
            ..Default::default()
        },
    );

    // Pin the single worker on a slow deviation-paradigm query, then fill
    // the depth-1 queue; the third submission must bounce.
    let mut slow = request(vec![0], vec![1_400], 200);
    slow.algorithm = Algorithm::Da;
    let slow_job = pool.submit(slow).unwrap();
    while pool.executed() < 1 {
        std::thread::yield_now();
    }
    let queued_job = pool.submit(request(vec![1], vec![1_400], 5)).unwrap();
    match pool.submit(request(vec![2], vec![1_400], 5)) {
        Err(ServiceError::Overloaded) => {}
        Err(other) => panic!("expected Overloaded, got {other:?}"),
        Ok(_) => panic!("expected Overloaded, got an admitted job"),
    }

    let tail = metrics.journal().tail(8);
    let reject = tail
        .iter()
        .find(|e| e.kind == event::ADMISSION_REJECT)
        .expect("rejection was journalled");
    assert_eq!(reject.args[0], 1, "observed queue depth at rejection");
    assert_eq!(reject.args[1], 1, "configured capacity");
    // The queue-depth gauge peaked at the full queue.
    assert_eq!(metrics.gauges().peak(kpj_service::gauge::QUEUE_DEPTH), 1);

    assert!(!slow_job.wait().unwrap().paths.is_empty());
    assert!(!queued_job.wait().unwrap().paths.is_empty());
}
