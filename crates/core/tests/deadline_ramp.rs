//! Deadline expiry at *arbitrary* interior points of a query.
//!
//! The existing non-poisoning tests use an already-expired deadline, which
//! dies at the first poll — before any deviation subspace exists. This
//! ramp sweeps exponentially growing budgets (1 ns … ~1 ms) over a query
//! large enough that expiry lands mid-settle, mid-subspace-creation, and
//! mid-assembly on different steps. Wherever it lands, the contract is the
//! same: either `DeadlineExceeded`, or the exact unbounded answer — and
//! the engine scratch must be reusable immediately afterwards.

use std::time::Duration;

use kpj_core::{Algorithm, Deadline, QueryEngine, QueryError};
use kpj_graph::{Graph, GraphBuilder, Length, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A connected lattice-with-chords graph big enough that deviation
/// algorithms do hundreds of subspace searches for k = 16.
fn ramp_graph(n: u32, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cols = (n as f64).sqrt().ceil() as u32;
    let mut b = GraphBuilder::new(n as usize);
    for v in 0..n {
        if v % cols + 1 < cols && v + 1 < n {
            b.add_bidirectional(v, v + 1, rng.gen_range(1..=100))
                .unwrap();
        }
        if v + cols < n {
            b.add_bidirectional(v, v + cols, rng.gen_range(1..=100))
                .unwrap();
        }
    }
    // Chords create many near-optimal alternatives → deep deviation work.
    for _ in 0..n / 4 {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            b.add_bidirectional(u, v, rng.gen_range(50..=300)).unwrap();
        }
    }
    b.build()
}

#[test]
fn deadline_can_expire_anywhere_without_poisoning_scratch() {
    let g = ramp_graph(300, 77);
    let sources: Vec<NodeId> = vec![0];
    let targets: Vec<NodeId> = vec![297, 298, 299];
    let k = 16;

    let mut engine = QueryEngine::new(&g);
    for alg in Algorithm::ALL {
        let want: Vec<Length> = engine
            .query_multi(alg, &sources, &targets, k)
            .unwrap()
            .paths
            .iter()
            .map(|p| p.length)
            .collect();
        assert_eq!(want.len(), k, "{}: graph too small for ramp", alg.name());

        let mut expired = 0u32;
        let budgets =
            std::iter::once(Duration::ZERO).chain((0..21).map(|i| Duration::from_nanos(1 << i)));
        for budget in budgets {
            match engine.query_multi_deadline(alg, &sources, &targets, k, Deadline::after(budget)) {
                Err(QueryError::DeadlineExceeded) => expired += 1,
                Err(other) => panic!("{} budget {budget:?}: {other:?}", alg.name()),
                Ok(r) => {
                    let got: Vec<Length> = r.paths.iter().map(|p| p.length).collect();
                    assert_eq!(
                        got,
                        want,
                        "{} budget {budget:?}: partial answer",
                        alg.name()
                    );
                }
            }
            // Scratch hygiene after *every* interruption point: the very
            // next unbounded query must be exact.
            let retry: Vec<Length> = engine
                .query_multi(alg, &sources, &targets, k)
                .unwrap()
                .paths
                .iter()
                .map(|p| p.length)
                .collect();
            assert_eq!(
                retry,
                want,
                "{} budget {budget:?}: scratch poisoned",
                alg.name()
            );
        }
        // The 1 ns end of the ramp cannot complete a 300-node k=16 query;
        // if nothing expired the ramp is not exercising interior polls.
        assert!(expired > 0, "{}: no budget in the ramp expired", alg.name());
    }
}

#[test]
fn zero_timeout_interleaved_with_queries_stays_exact() {
    // The serving layer's `timeout_ms=0` maps to an already-expired
    // deadline. Interleave a burst of those with unbounded multi-source
    // queries on one warmed engine: every zero-budget attempt must fail
    // cleanly and every unbounded query in between must still match a
    // fresh engine's answer — the combination a retry storm against a
    // saturated service produces.
    let g = ramp_graph(200, 80);
    let sources: Vec<NodeId> = vec![0, 1];
    let targets: Vec<NodeId> = vec![197, 198, 199];
    let k = 12;

    let mut engine = QueryEngine::new(&g);
    for alg in Algorithm::ALL {
        let want = QueryEngine::new(&g)
            .query_multi(alg, &sources, &targets, k)
            .unwrap();
        assert_eq!(want.paths.len(), k, "{}", alg.name());
        let warm = engine.query_multi(alg, &sources, &targets, k).unwrap();
        assert_eq!(warm.paths, want.paths, "{}: warm-up diverged", alg.name());

        for round in 0..8u32 {
            let err = engine
                .query_multi_deadline(alg, &sources, &targets, k, Deadline::after(Duration::ZERO))
                .unwrap_err();
            assert_eq!(
                err,
                QueryError::DeadlineExceeded,
                "{} round {round}",
                alg.name()
            );
            let r = engine.query_multi(alg, &sources, &targets, k).unwrap();
            assert_eq!(
                r.paths,
                want.paths,
                "{} round {round}: zero-timeout attempt poisoned the engine",
                alg.name()
            );
        }
    }
}

#[test]
fn expiry_during_subspace_creation_is_observable() {
    // Deviation algorithms (DA / DA-SPT) create one subspace per prefix of
    // each emitted path; with a ramp of budgets, some runs must die *after*
    // the deviation loop started but *before* it finished — visible as
    // stats.subspaces_created strictly between 0 and the unbounded count.
    // The anytime visit API surfaces those stats even when the clock cuts
    // the query short.
    let g = ramp_graph(300, 78);
    let sources: Vec<NodeId> = vec![0];
    let targets: Vec<NodeId> = vec![299];
    let k = 24;

    for alg in [Algorithm::Da, Algorithm::DaSpt, Algorithm::DaSptPascoal] {
        let mut engine = QueryEngine::new(&g);
        let full = engine.query_multi(alg, &sources, &targets, k).unwrap();
        assert!(full.stats.subspaces_created > 1, "{}", alg.name());
        let want: Vec<Length> = full.paths.iter().map(|p| p.length).collect();

        // Where expiry lands is timing-dependent; repeat the ramp (bounded)
        // until one step is caught mid-deviation. Every step still checks
        // scratch hygiene, so retries add coverage rather than masking.
        let mut saw_partial_subspaces = false;
        for round in 0..50u32 {
            if saw_partial_subspaces {
                break;
            }
            for i in 0..24u32 {
                let d = Deadline::after(Duration::from_nanos(1u64 << i));
                let mut delivered = 0usize;
                let stats = engine
                    .query_multi_visit_deadline(alg, &sources, &targets, k, d, |_p| {
                        delivered += 1;
                        std::ops::ControlFlow::Continue(())
                    })
                    .unwrap();
                if delivered < full.paths.len()
                    && stats.subspaces_created > 0
                    && stats.subspaces_created < full.stats.subspaces_created
                {
                    saw_partial_subspaces = true;
                }
                // Engine stays correct after the interruption, wherever it
                // hit.
                let again: Vec<Length> = engine
                    .query_multi(alg, &sources, &targets, k)
                    .unwrap()
                    .paths
                    .iter()
                    .map(|p| p.length)
                    .collect();
                assert_eq!(
                    again,
                    want,
                    "{}: poisoned after ramp step {round}/{i}",
                    alg.name()
                );
            }
        }
        assert!(
            saw_partial_subspaces,
            "{}: ramp never caught expiry mid-subspace-creation",
            alg.name()
        );
    }
}
