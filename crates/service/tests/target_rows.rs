//! Exact target rows through the whole serving stack: a recurring target
//! set gets its row on the second sighting, later queries read it, the
//! algorithms that do not read target bounds never count, every update
//! batch repairs the row into the next epoch, a full budget refuses new
//! sets, a query with a timeout never builds, and the status verb, the
//! Prometheus exposition and the event journal all report it.

use std::sync::Arc;

use kpj_core::{Algorithm, QueryEngine};
use kpj_graph::{Graph, NodeId, WeightUpdate};
use kpj_landmark::{LandmarkIndex, SelectionStrategy, TargetRow};
use kpj_service::json::Json;
use kpj_service::wire::handle_line;
use kpj_service::{event, KpjService, PoolConfig, QueryRequest, ServiceConfig, ROW_BUDGET};
use kpj_workload::road::RoadConfig;

const TARGETS: [NodeId; 3] = [611, 40, 377];

fn service(graph: &Arc<Graph>, landmarks: &LandmarkIndex) -> KpjService {
    KpjService::new(
        Arc::clone(graph),
        Some(Arc::new(landmarks.clone())),
        ServiceConfig {
            pool: PoolConfig {
                workers: 2,
                queue_capacity: 32,
                ..Default::default()
            },
            ..ServiceConfig::default()
        },
    )
}

fn request(alg: Algorithm, source: NodeId, targets: &[NodeId]) -> QueryRequest {
    QueryRequest {
        algorithm: alg,
        sources: vec![source],
        targets: targets.to_vec(),
        k: 8,
        timeout_ms: None,
    }
}

fn fixture() -> (Arc<Graph>, LandmarkIndex) {
    let graph = Arc::new(RoadConfig::new(800, 2_000, 5).generate());
    let landmarks = LandmarkIndex::build(&graph, 4, SelectionStrategy::Farthest, 3);
    (graph, landmarks)
}

fn journal_kinds(service: &KpjService) -> Vec<u16> {
    service
        .metrics()
        .journal()
        .tail(256)
        .into_iter()
        .map(|e| e.kind)
        .collect()
}

#[test]
fn a_recurring_target_set_gets_its_row_on_the_second_sighting() {
    let (graph, landmarks) = fixture();
    let service = service(&graph, &landmarks);
    let mut reference = QueryEngine::new(&graph).with_landmarks(&landmarks);
    for (i, source) in [3u32, 90, 250, 420, 555, 700].into_iter().enumerate() {
        let answer = service
            .execute(&request(Algorithm::IterBoundI, source, &TARGETS))
            .unwrap();
        assert_eq!(
            answer.stats.target_row,
            usize::from(i > 0),
            "query {i}: the second sighting builds the row, later ones read it"
        );
        let want = reference
            .query(Algorithm::IterBoundI, source, &TARGETS, 8)
            .unwrap();
        assert_eq!(answer.paths.lengths(), want.paths.lengths(), "query {i}");
    }
    let snapshot = service.snapshot();
    assert_eq!(snapshot.target_row_builds, 1);
    assert_eq!(snapshot.target_row_reads, 5);
    let epoch = service.current_epoch();
    let held = epoch.rows().rows();
    assert_eq!(held.len(), 1);
    assert_eq!(*held[0], TargetRow::build(&graph, &TARGETS));
    assert!(journal_kinds(&service).contains(&event::ROW_BUILT));

    // The status verb and the Prometheus exposition report the same.
    let status = Json::parse(&handle_line(&service, r#"{"id":1,"op":"status"}"#)).unwrap();
    let rows = status.get("status").unwrap().get("target_rows").unwrap();
    let field = |name: &str| rows.get(name).and_then(Json::as_u64).unwrap();
    assert_eq!((field("held"), field("builds"), field("reads")), (1, 1, 5));
    let mut text = String::new();
    service.metrics().render_prometheus(&mut text);
    for line in [
        "kpj_target_rows 1",
        "kpj_target_row_builds_total 1",
        "kpj_target_row_reads_total 5",
    ] {
        assert!(text.lines().any(|l| l == line), "missing `{line}`");
    }
}

#[test]
fn sidetrack_and_deviation_queries_neither_read_nor_build_rows() {
    let (graph, landmarks) = fixture();
    let service = service(&graph, &landmarks);
    for alg in [Algorithm::Sidetrack, Algorithm::Da, Algorithm::DaSpt] {
        for source in [3u32, 90, 250] {
            let answer = service.execute(&request(alg, source, &TARGETS)).unwrap();
            assert_eq!(answer.stats.target_row, 0, "{}", alg.name());
        }
    }
    assert_eq!(service.snapshot().target_row_builds, 0);
    assert!(service.current_epoch().rows().is_empty());
    // And they did not count as sightings: the next row reader is the
    // set's first.
    let first = service
        .execute(&request(Algorithm::IterBound, 7, &TARGETS))
        .unwrap();
    assert_eq!(first.stats.target_row, 0);
    assert!(service.current_epoch().rows().is_empty());
}

#[test]
fn every_update_batch_repairs_the_row_into_the_next_epoch() {
    let (graph, landmarks) = fixture();
    let service = service(&graph, &landmarks);
    for source in [3u32, 90] {
        service
            .execute(&request(Algorithm::IterBoundI, source, &TARGETS))
            .unwrap();
    }
    assert_eq!(service.current_epoch().rows().len(), 1);
    for round in 0..8u32 {
        let epoch = service.current_epoch();
        let batch: Vec<WeightUpdate> = (0..6u32)
            .filter_map(|i| {
                let u = (round * 97 + i * 131) % graph.node_count() as u32;
                let e = epoch.graph().out_edges(u).first()?;
                Some(WeightUpdate {
                    from: u,
                    to: e.to,
                    weight: if (round + i) % 2 == 0 {
                        e.weight * 4 + 1
                    } else {
                        (e.weight / 2).max(1)
                    },
                })
            })
            .collect();
        drop(epoch);
        service.apply_update(&batch).unwrap();
        let epoch = service.current_epoch();
        let held = epoch.rows().rows();
        assert_eq!(held.len(), 1, "round {round}: the row moved on");
        assert_eq!(
            *held[0],
            TargetRow::build(epoch.graph(), &TARGETS),
            "round {round}: repaired row != rebuild"
        );
        let fresh = landmarks.rebuilt(epoch.graph());
        let answer = service
            .execute(&request(Algorithm::IterBoundI, 300 + round, &TARGETS))
            .unwrap();
        assert_eq!(answer.stats.target_row, 1, "round {round}");
        let want = QueryEngine::new(epoch.graph())
            .with_landmarks(&fresh)
            .query(Algorithm::IterBoundI, 300 + round, &TARGETS, 8)
            .unwrap();
        assert_eq!(answer.paths.lengths(), want.paths.lengths());
    }
    assert_eq!(
        service.snapshot().target_row_builds,
        1,
        "repaired, never rebuilt"
    );
    assert_eq!(service.snapshot().target_rows, 1);
}

#[test]
fn a_full_budget_refuses_new_sets() {
    let (graph, landmarks) = fixture();
    let service = service(&graph, &landmarks);
    let sets: Vec<Vec<NodeId>> = (0..=ROW_BUDGET as u32)
        .map(|i| vec![100 + i, 500 + i])
        .collect();
    for set in &sets[..ROW_BUDGET] {
        for q in 0..2 {
            service
                .execute(&request(Algorithm::IterBound, 10 + q, set))
                .unwrap();
        }
    }
    assert_eq!(service.current_epoch().rows().len(), ROW_BUDGET);
    // However often the next set recurs, it is answered with Eq. (2).
    let newcomer = &sets[ROW_BUDGET];
    let mut reference = QueryEngine::new(&graph).with_landmarks(&landmarks);
    for q in 0..4 {
        let answer = service
            .execute(&request(Algorithm::IterBound, 10 + q, newcomer))
            .unwrap();
        assert_eq!(answer.stats.target_row, 0, "query {q}");
        let want = reference
            .query(Algorithm::IterBound, 10 + q, newcomer, 8)
            .unwrap();
        assert_eq!(answer.paths.lengths(), want.paths.lengths(), "query {q}");
    }
    let epoch = service.current_epoch();
    let held: Vec<Vec<NodeId>> = epoch
        .rows()
        .rows()
        .iter()
        .map(|r| r.targets().to_vec())
        .collect();
    assert_eq!(held, sets[..ROW_BUDGET].to_vec());
    assert_eq!(service.snapshot().target_row_builds, ROW_BUDGET as u64);
}

#[test]
fn a_timed_out_query_on_the_second_sighting_builds_no_row() {
    let (graph, landmarks) = fixture();
    let service = service(&graph, &landmarks);
    let query = |id: u32, source: u32, timeout: &str| {
        let line = format!(
            r#"{{"id":{id},"op":"query","algorithm":"iterboundi","sources":[{source}],"targets":[611,40,377],"k":8{timeout}}}"#
        );
        Json::parse(&handle_line(&service, &line)).unwrap()
    };
    assert!(query(1, 3, "").get("error").is_none());
    let timed = query(2, 90, r#","timeout_ms":0"#);
    assert_eq!(
        timed.get("error").and_then(Json::as_str),
        Some("deadline_exceeded"),
        "{timed:?}"
    );
    assert!(service.current_epoch().rows().is_empty());
    assert_eq!(service.snapshot().target_row_builds, 0);
    assert!(!journal_kinds(&service).contains(&event::ROW_BUILT));
    // The timed query's sighting still counts: the next untimed one
    // builds.
    assert!(query(3, 250, "").get("error").is_none());
    assert_eq!(service.snapshot().target_row_builds, 1);
}
