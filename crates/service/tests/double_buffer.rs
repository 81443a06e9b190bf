//! Sequence property test for the update double buffer: after every one
//! of several hundred seeded batches, the live epoch must equal — bit for
//! bit — what the plain full-copy path ([`Graph::with_updated_weights`],
//! [`LandmarkIndex::repaired`]) and a from-scratch landmark rebuild
//! produce, whichever buffer the service wrote the epoch into.
//!
//! The batch mix covers every way the spare can go stale or go missing:
//! rounds that keep the old epoch pinned (forcing the full-copy
//! fallback), parallel-copy normalizations (`old_weight == new_weight`),
//! no-op batches, rejected batches (which drop the spare mid-way), and —
//! on a reduced service — updates on contracted chain interiors.

use std::collections::VecDeque;
use std::sync::Arc;

use kpj_core::Algorithm;
use kpj_graph::{Graph, GraphBuilder, NodeId, Reduction, Weight, WeightUpdate};
use kpj_landmark::{LandmarkIndex, SelectionStrategy};
use kpj_service::{GraphEpoch, KpjService, PoolConfig, QueryRequest, ServiceConfig};
use kpj_workload::road::RoadConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const BATCHES: usize = 240;

/// A road graph plus a parallel, heavier copy of every 13th edge.
fn graph_with_parallel_copies() -> (Graph, Vec<(NodeId, NodeId, Weight)>) {
    let road = RoadConfig::new(400, 1_000, 17).generate();
    let mut edges: Vec<(NodeId, NodeId, Weight)> = road
        .nodes()
        .flat_map(|u| road.out_edges(u).iter().map(move |e| (u, e.to, e.weight)))
        .collect();
    let copies: Vec<_> = edges
        .iter()
        .step_by(13)
        .map(|&(u, v, w)| (u, v, w + 7))
        .collect();
    edges.extend(copies);
    let mut b = GraphBuilder::new(road.node_count());
    for &(u, v, w) in &edges {
        b.add_edge(u, v, w).unwrap();
    }
    (b.build(), edges)
}

fn config() -> ServiceConfig {
    ServiceConfig {
        pool: PoolConfig {
            workers: 2,
            queue_capacity: 16,
            ..Default::default()
        },
        cache_capacity: 32,
        ..ServiceConfig::default()
    }
}

/// The reference for one service: the state the plain full-copy path
/// reaches from the same batches.
struct Model {
    graph: Graph,
    landmarks: LandmarkIndex,
    reduction: Option<Reduction>,
    /// Deltas seen with `old_weight == new_weight` (parallel-copy
    /// normalizations).
    normalized: usize,
}

impl Model {
    /// Apply `batch` the way the service does, through the full-copy
    /// path. `Err` = the service must reject it; `Ok(false)` = a no-op.
    fn apply(&mut self, batch: &[WeightUpdate]) -> Result<bool, ()> {
        let (updates, next_reduction) = match &self.reduction {
            None => (batch.to_vec(), None),
            Some(red) => {
                let t = red.translate_updates(&self.graph, batch).map_err(|_| ())?;
                (t.updates, t.reduction)
            }
        };
        let (graph, deltas) = self.graph.with_updated_weights(&updates).map_err(|_| ())?;
        if deltas.is_empty() && next_reduction.is_none() {
            return Ok(false);
        }
        self.normalized += deltas
            .iter()
            .filter(|d| d.old_weight == d.new_weight)
            .count();
        self.landmarks = self.landmarks.repaired(&graph, &deltas).0;
        self.graph = graph;
        if next_reduction.is_some() {
            self.reduction = next_reduction;
        }
        Ok(true)
    }

    fn assert_matches(&self, epoch: &GraphEpoch, what: &str) {
        assert!(
            epoch.graph().sections() == self.graph.sections(),
            "{what}: live CSR differs from the full-copy path"
        );
        let live = epoch.landmarks().expect("service has landmarks");
        // `assert!`, not `assert_eq!`: a failure should not print
        // thousands of table entries.
        assert!(
            live.tables() == self.landmarks.tables(),
            "{what}: live tables differ from the full-copy repair"
        );
        assert!(
            live.tables() == self.landmarks.rebuilt(&self.graph).tables(),
            "{what}: live tables differ from a rebuild"
        );
        if let Some(red) = &self.reduction {
            let live = epoch
                .reduction()
                .expect("reduced epochs carry the reduction");
            assert!(
                live.sections() == red.sections(),
                "{what}: live reduction differs"
            );
        }
    }
}

#[test]
fn every_epoch_equals_the_full_copy_path_and_a_rebuild() {
    let (g0, edges) = graph_with_parallel_copies();
    let n = g0.node_count() as NodeId;
    let landmarks0 = LandmarkIndex::build(&g0, 4, SelectionStrategy::Farthest, 5);
    // Pairs with exactly one copy: setting one to its weight is a no-op.
    let single: Vec<(NodeId, NodeId, Weight)> = edges
        .iter()
        .copied()
        .filter(|&(u, v, _)| g0.out_edges(u).iter().filter(|e| e.to == v).count() == 1)
        .collect();
    let parallel: Vec<(NodeId, NodeId)> =
        edges.iter().step_by(13).map(|&(u, v, _)| (u, v)).collect();

    let keep: Vec<NodeId> = (0..n).step_by(37).collect();
    let red = kpj_graph::reduce(&g0, &keep, &keep);
    let interior: Vec<(NodeId, NodeId, Weight)> = edges
        .iter()
        .copied()
        .filter(|&(u, _, _)| red.reduction.is_interior(u))
        .collect();
    assert!(!interior.is_empty(), "reduction contracted no chains");
    let red_landmarks0 = LandmarkIndex::build(&red.graph, 4, SelectionStrategy::Farthest, 5);

    let plain = KpjService::new(
        Arc::new(g0.clone()),
        Some(Arc::new(landmarks0.clone())),
        config(),
    );
    let reduced = KpjService::new_reduced(
        Arc::new(red.graph.clone()),
        Some(Arc::new(red_landmarks0.clone())),
        Some(Arc::new(red.reduction.clone())),
        config(),
    );
    let mut services = [
        (
            &plain,
            Model {
                graph: g0,
                landmarks: landmarks0,
                reduction: None,
                normalized: 0,
            },
        ),
        (
            &reduced,
            Model {
                graph: red.graph,
                landmarks: red_landmarks0,
                reduction: Some(red.reduction),
                normalized: 0,
            },
        ),
    ];

    let mut rng = SmallRng::seed_from_u64(0xD0_0B1E);
    // Pins held on purpose, each released two batches later: the epoch
    // it holds is the spare of the batch after next, which must then
    // fall back to copying.
    let mut held: VecDeque<(usize, Arc<GraphEpoch>)> = VecDeque::new();
    // Per service: batches rejected, batches that published nothing.
    let mut rejected = [0usize; 2];
    let mut no_ops = [0usize; 2];
    for round in 0..BATCHES {
        let pick = |from: &[(NodeId, NodeId, Weight)], rng: &mut SmallRng| {
            from[rng.gen_range(0..from.len())]
        };
        let kind = rng.gen_range(0..10u32);
        let batch: Vec<WeightUpdate> = match kind {
            0 => {
                // No-op: single-copy pairs set to their current weight.
                (0..rng.gen_range(1..=3usize))
                    .map(|_| {
                        let (from, to, _) = pick(&single, &mut rng);
                        let weight = services[0].1.graph.edge_weight(from, to).unwrap();
                        WeightUpdate { from, to, weight }
                    })
                    .collect()
            }
            1 => {
                // Rejected: a valid prefix, then an edge that does not
                // exist (or a node out of range).
                let (from, to, w) = pick(&edges, &mut rng);
                let bad = if rng.gen_bool(0.5) {
                    WeightUpdate {
                        from: n + 3,
                        to: 0,
                        weight: 1,
                    }
                } else {
                    // A self-loop: no such edge (the reduced service
                    // drops self-loop updates as no-ops instead).
                    WeightUpdate {
                        from: to,
                        to,
                        weight: 9,
                    }
                };
                vec![
                    WeightUpdate {
                        from,
                        to,
                        weight: w + 1,
                    },
                    bad,
                ]
            }
            2 => {
                // Normalize a parallel pair to its current effective
                // weight: no distance changes, but a copy does.
                let (from, to) = parallel[rng.gen_range(0..parallel.len())];
                let weight = services[0].1.graph.edge_weight(from, to).unwrap();
                vec![WeightUpdate { from, to, weight }]
            }
            3 | 4 => (0..rng.gen_range(1..=4usize))
                .map(|_| {
                    let (from, to, _) = pick(&interior, &mut rng);
                    WeightUpdate {
                        from,
                        to,
                        weight: rng.gen_range(1..=60),
                    }
                })
                .collect(),
            _ => (0..rng.gen_range(1..=6usize))
                .map(|_| {
                    let (from, to, w) = pick(&edges, &mut rng);
                    let weight = match rng.gen_range(0..3u32) {
                        0 => w * 4 + 1,
                        1 => (w / 3).max(1),
                        _ => rng.gen_range(0..=50),
                    };
                    WeightUpdate { from, to, weight }
                })
                .collect(),
        };
        while held.front().is_some_and(|&(at, _)| at + 2 <= round) {
            held.pop_front();
        }
        if rng.gen_range(0..5u32) == 0 {
            for (service, _) in &services {
                held.push_back((round, service.current_epoch()));
            }
        }
        for (i, (service, model)) in services.iter_mut().enumerate() {
            let what = format!(
                "round {round} ({} service, batch {batch:?})",
                if model.reduction.is_some() {
                    "reduced"
                } else {
                    "plain"
                }
            );
            let before = service.current_epoch().id();
            match (model.apply(&batch), service.apply_update(&batch)) {
                (Err(()), Err(_)) => {
                    assert_eq!(service.current_epoch().id(), before, "{what}");
                    rejected[i] += 1;
                }
                (Ok(published), Ok(outcome)) => {
                    assert_eq!(outcome.epoch, before + u64::from(published), "{what}");
                    no_ops[i] += usize::from(!published);
                }
                (want, got) => panic!("{what}: model says {want:?}, service says {got:?}"),
            }
            model.assert_matches(&service.current_epoch(), &what);
        }
        // Keep the workers moving between epochs too.
        if round % 4 == 0 {
            for (service, _) in &services {
                let answer = service
                    .execute(&QueryRequest {
                        algorithm: Algorithm::IterBoundI,
                        sources: vec![keep[1]],
                        targets: vec![keep[4], keep[7]],
                        k: 3,
                        timeout_ms: None,
                    })
                    .unwrap();
                assert!(!answer.paths.is_empty());
            }
        }
    }
    // Reduction keeps one copy per pair, so only the plain service sees
    // normalizations.
    assert!(
        services[0].1.normalized > 5,
        "only {} normalizations",
        services[0].1.normalized
    );
    for (i, (service, _)) in services.iter().enumerate() {
        assert!(rejected[i] > 5, "service {i}: {} rejections", rejected[i]);
        let s = service.snapshot();
        assert_eq!(s.buffers_reused + s.buffers_copied, s.epoch_swaps);
        assert!(
            s.buffers_reused > s.epoch_swaps / 2,
            "the reuse path is barely exercised: {s}"
        );
        assert!(
            s.buffers_copied > 5,
            "pinned epochs never forced the fallback: {s}"
        );
    }
    assert!(no_ops[0] > 5, "only {} no-op batches", no_ops[0]);
}
