//! The service's full Prometheus exposition must stay ingestible by a
//! strict scraper as gauge and event families are added: drive a real
//! service through queries, updates, deadline expiries and an admission
//! rejection so every family carries live values, then run the
//! [`kpj_obs::promlint`] validator over the rendered text.

use std::sync::Arc;

use kpj_core::Algorithm;
use kpj_graph::{NodeId, WeightUpdate};
use kpj_service::{KpjService, PoolConfig, QueryRequest, ServiceConfig};
use kpj_workload::road::RoadConfig;

fn request(sources: Vec<NodeId>, targets: Vec<NodeId>, k: usize) -> QueryRequest {
    QueryRequest {
        algorithm: Algorithm::IterBoundI,
        sources,
        targets,
        k,
        timeout_ms: None,
    }
}

#[test]
fn full_exposition_passes_the_prometheus_lint() {
    let graph = Arc::new(RoadConfig::new(800, 1_900, 5).generate());
    let service = KpjService::new(
        Arc::clone(&graph),
        None,
        ServiceConfig {
            pool: PoolConfig {
                workers: 2,
                queue_capacity: 16,
                ..Default::default()
            },
            cache_capacity: 16,
            ..ServiceConfig::default()
        },
    );

    // Touch every metric source: queries across algorithms (histogram
    // cells, work counters, cache traffic), a repeat (cache hit), a
    // deadline expiry (failure counters + journal event), and a weight
    // update (epoch swap, repair timing, journal events).
    for alg in [Algorithm::Da, Algorithm::BestFirst, Algorithm::IterBoundI] {
        let mut req = request(vec![7], vec![300, 600], 5);
        req.algorithm = alg;
        service.execute(&req).unwrap();
    }
    service
        .execute(&request(vec![7], vec![300, 600], 5))
        .unwrap();
    let mut doomed = request(vec![9], vec![500], 4);
    doomed.timeout_ms = Some(0);
    assert!(service.execute(&doomed).is_err());
    service
        .apply_update(&[WeightUpdate {
            from: 7,
            to: graph.out_edges(7).iter().next().unwrap().to,
            weight: 123,
        }])
        .unwrap();
    service.refresh_gauges();

    let mut text = String::new();
    service.metrics().render_prometheus(&mut text);
    assert!(
        text.contains("kpj_system_gauge"),
        "gauge family missing from the exposition"
    );
    assert!(
        text.contains("kpj_journal_events_total"),
        "journal family missing from the exposition"
    );
    for stat in ["mean", "max"] {
        assert!(
            text.contains(&format!("kpj_update_translate_us{{stat=\"{stat}\"}}")),
            "update translation {stat} missing from the exposition"
        );
    }
    if let Err(violation) = kpj_obs::promlint::lint(&text) {
        // Quote the offending line for a readable failure.
        let lineno: usize = violation
            .strip_prefix("line ")
            .and_then(|rest| rest.split(':').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or(0);
        let line = text.lines().nth(lineno.saturating_sub(1)).unwrap_or("");
        panic!("exposition fails the scraper lint: {violation}\n  >> {line}");
    }
}
