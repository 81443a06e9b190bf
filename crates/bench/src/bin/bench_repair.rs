//! `bench-repair` — measure incremental landmark repair against the full
//! rebuild it must be bit-identical to (DESIGN.md §14).
//!
//! For each road-network scale and update-batch size: draw a seeded batch
//! of weight re-weightings from the graph's own edges, apply them
//! copy-on-write, then time `LandmarkIndex::repaired` (bounded Dijkstra
//! from the changed edges, on a fresh copy of the tables),
//! `LandmarkIndex::repaired_reusing` (the same repair written into the
//! previous round's result, patched through its journal — what the
//! service does once the previous epoch has retired) and
//! `LandmarkIndex::rebuilt` (full re-Dijkstra, same landmark set) over
//! several rounds. Both repairs are asserted equal to the rebuild every
//! round — a repair that drifted would abort the bench. Markdown table on
//! stdout; feeds EXPERIMENTS.md.
//!
//! A second table covers the reduced deployment: the same road graphs
//! contracted by `kpj_graph::reduce`, with update batches aimed at chain
//! *interiors* — each hop update is translated onto its contracted
//! shortcut (`Reduction::translate_updates`, new prefix sums + one
//! shortcut re-weighting) and then repaired on the reduced graph, timing
//! the translation separately from the repair.
//!
//! A third table times the same batches against one exact target row
//! (`TargetRow`, the reverse distances to a 14-node target set the
//! service keeps for a recurring category): repair into a fresh copy,
//! into the previous round's row, and the from-scratch rebuild.
//!
//! ```text
//! bench-repair [--rounds N] [--landmarks L] [--seed S]
//! ```

use std::time::Instant;

use kpj_graph::{Graph, NodeId, Weight, WeightUpdate};
use kpj_landmark::{LandmarkIndex, SelectionStrategy, TargetRow};
use kpj_workload::road::RoadConfig;

struct Scale {
    nodes: usize,
    arcs: usize,
}

const SCALES: &[Scale] = &[
    Scale {
        nodes: 10_000,
        arcs: 25_000,
    },
    Scale {
        nodes: 100_000,
        arcs: 250_000,
    },
];
const BATCHES: &[usize] = &[1, 10, 100];

fn main() {
    let mut rounds = 5usize;
    let mut landmarks = 8usize;
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().expect("flag needs a value");
        match flag.as_str() {
            "--rounds" => rounds = value().parse().expect("--rounds"),
            "--landmarks" => landmarks = value().parse().expect("--landmarks"),
            "--seed" => seed = value().parse().expect("--seed"),
            other => {
                eprintln!("usage: bench-repair [--rounds N] [--landmarks L] [--seed S]");
                panic!("unknown flag `{other}`");
            }
        }
    }

    println!("| nodes | arcs | landmarks | batch | repair ms (mean) | repair into spare ms (mean) | rebuild ms (mean) | speedup | affected nodes (mean) |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for scale in SCALES {
        let g0 = RoadConfig::new(scale.nodes, scale.arcs, seed).generate();
        let idx0 = LandmarkIndex::build(&g0, landmarks, SelectionStrategy::Farthest, seed);
        for &batch in BATCHES {
            let mut repair_ns = 0u128;
            let mut spare_ns = 0u128;
            let mut rebuild_ns = 0u128;
            let mut affected = 0u64;
            // The spare starts as a copy of `idx0`; afterwards it is the
            // previous round's result, which differs from `idx0` exactly
            // at the entries its journal lists.
            let mut spare = Some(idx0.clone());
            let mut journal = Vec::new();
            // Each round updates the *original* graph (independent
            // batches, not an accumulating walk) so rounds are i.i.d.
            for round in 0..rounds {
                let updates = draw_batch(&g0, batch, seed ^ (round as u64) << 32);
                let (g1, deltas) = g0.with_updated_weights(&updates).expect("ids in range");

                let t0 = Instant::now();
                let (repaired, stats) = idx0.repaired(&g1, &deltas);
                repair_ns += t0.elapsed().as_nanos();
                affected += stats.affected_nodes;

                let t0 = Instant::now();
                let (in_spare, _) = idx0.repaired_reusing(&g1, &deltas, spare.take(), &mut journal);
                spare_ns += t0.elapsed().as_nanos();

                let t0 = Instant::now();
                let rebuilt = idx0.rebuilt(&g1);
                rebuild_ns += t0.elapsed().as_nanos();

                assert!(repaired == rebuilt, "repair drifted from rebuild");
                assert!(
                    in_spare == rebuilt,
                    "repair into spare drifted from rebuild"
                );
                spare = Some(in_spare);
            }
            let repair_ms = repair_ns as f64 / rounds as f64 / 1e6;
            let spare_ms = spare_ns as f64 / rounds as f64 / 1e6;
            let rebuild_ms = rebuild_ns as f64 / rounds as f64 / 1e6;
            println!(
                "| {} | {} | {} | {} | {:.2} | {:.2} | {:.2} | {:.1}x | {:.0} |",
                scale.nodes,
                scale.arcs,
                landmarks,
                batch,
                repair_ms,
                spare_ms,
                rebuild_ms,
                rebuild_ms / repair_ms,
                affected as f64 / rounds as f64,
            );
        }
    }

    println!();
    println!("One exact target row (14 targets, reverse distances):");
    println!("| nodes | arcs | batch | repair ms (mean) | repair into spare ms (mean) | rebuild ms (mean) | speedup | affected nodes (mean) |");
    println!("|---|---|---|---|---|---|---|---|");
    for scale in SCALES {
        let g0 = RoadConfig::new(scale.nodes, scale.arcs, seed).generate();
        let targets: Vec<NodeId> = (0..14)
            .map(|i| ((i * 7919 + 13) % scale.nodes) as NodeId)
            .collect();
        let row0 = TargetRow::build(&g0, &targets);
        for &batch in BATCHES {
            let (mut repair_ns, mut spare_ns, mut rebuild_ns) = (0u128, 0u128, 0u128);
            let mut affected = 0u64;
            let mut spare = Some(row0.clone());
            let mut journal = Vec::new();
            for round in 0..rounds {
                let updates = draw_batch(&g0, batch, seed ^ (round as u64) << 32);
                let (g1, deltas) = g0.with_updated_weights(&updates).expect("ids in range");

                let t0 = Instant::now();
                let (repaired, stats) = row0.repaired(&g1, &deltas);
                repair_ns += t0.elapsed().as_nanos();
                affected += stats.affected_nodes;

                let t0 = Instant::now();
                let (in_spare, _) = row0.repaired_reusing(&g1, &deltas, spare.take(), &mut journal);
                spare_ns += t0.elapsed().as_nanos();

                let t0 = Instant::now();
                let rebuilt = row0.rebuilt(&g1);
                rebuild_ns += t0.elapsed().as_nanos();

                assert!(repaired == rebuilt, "row repair drifted from rebuild");
                assert!(in_spare == rebuilt, "row repair into spare drifted");
                spare = Some(in_spare);
            }
            let per = |ns: u128| ns as f64 / rounds as f64 / 1e6;
            println!(
                "| {} | {} | {} | {:.3} | {:.3} | {:.2} | {:.0}x | {:.0} |",
                scale.nodes,
                scale.arcs,
                batch,
                per(repair_ns),
                per(spare_ns),
                per(rebuild_ns),
                per(rebuild_ns) / per(spare_ns),
                affected as f64 / rounds as f64,
            );
        }
    }

    println!();
    println!("Chain-interior updates on the reduced graph (hop -> shortcut translation + repair):");
    println!("| nodes | reduced nodes | landmarks | batch | translate ms (mean) | repair ms (mean) | rebuild ms (mean) | speedup |");
    println!("|---|---|---|---|---|---|---|---|");
    for scale in SCALES {
        let g0 = RoadConfig::new(scale.nodes, scale.arcs, seed).generate();
        // Keep a sparse endpoint sample so long degree-2 chains contract.
        let keep: Vec<NodeId> = (0..64u32)
            .map(|i| i * (scale.nodes as u32 / 64).max(1))
            .collect();
        let red = kpj_graph::reduce(&g0, &keep, &keep);
        let interiors: Vec<NodeId> = (0..g0.node_count() as NodeId)
            .filter(|&v| red.reduction.is_interior(v))
            .collect();
        assert!(
            !interiors.is_empty(),
            "road graph produced no contracted chains"
        );
        let idx0 = LandmarkIndex::build(&red.graph, landmarks, SelectionStrategy::Farthest, seed);
        for &batch in BATCHES {
            let mut translate_ns = 0u128;
            let mut repair_ns = 0u128;
            let mut rebuild_ns = 0u128;
            for round in 0..rounds {
                let updates =
                    draw_interior_batch(&g0, &interiors, batch, seed ^ (round as u64) << 32);

                let t0 = Instant::now();
                let t = red
                    .reduction
                    .translate_updates(&red.graph, &updates)
                    .expect("interior hop weights stay in range");
                translate_ns += t0.elapsed().as_nanos();

                let (g1, deltas) = red
                    .graph
                    .with_updated_weights(&t.updates)
                    .expect("ids in range");
                let t0 = Instant::now();
                let (repaired, _) = idx0.repaired(&g1, &deltas);
                repair_ns += t0.elapsed().as_nanos();

                let t0 = Instant::now();
                let rebuilt = idx0.rebuilt(&g1);
                rebuild_ns += t0.elapsed().as_nanos();

                assert!(repaired == rebuilt, "repair drifted from rebuild");
            }
            let translate_ms = translate_ns as f64 / rounds as f64 / 1e6;
            let repair_ms = repair_ns as f64 / rounds as f64 / 1e6;
            let rebuild_ms = rebuild_ns as f64 / rounds as f64 / 1e6;
            println!(
                "| {} | {} | {} | {} | {:.3} | {:.2} | {:.2} | {:.1}x |",
                scale.nodes,
                red.graph.node_count(),
                landmarks,
                batch,
                translate_ms,
                repair_ms,
                rebuild_ms,
                rebuild_ms / (translate_ms + repair_ms),
            );
        }
    }
}

/// A seeded batch of re-weightings of chain-interior hops: each update
/// names an original-id edge whose tail was contracted away, forcing the
/// translation path (prefix-sum rewrite + shortcut re-weight).
fn draw_interior_batch(
    g: &Graph,
    interiors: &[NodeId],
    batch: usize,
    seed: u64,
) -> Vec<WeightUpdate> {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..batch)
        .map(|_| {
            // An interior node's out-edges are, by construction, hops of
            // its chain.
            let u = interiors[(next() % interiors.len() as u64) as usize];
            let es = g.out_edges(u);
            let e = es[(next() % es.len() as u64) as usize];
            WeightUpdate {
                from: u,
                to: e.to,
                weight: 1 + (next() % 2_000) as Weight,
            }
        })
        .collect()
}

/// A seeded batch of re-weightings of real edges (splitmix64 draws).
fn draw_batch(g: &Graph, batch: usize, seed: u64) -> Vec<WeightUpdate> {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let n = g.node_count() as u64;
    (0..batch)
        .map(|_| {
            // Rejection-free: walk from a random node to its first
            // out-edge; road graphs have no isolated nodes, but skip
            // defensively if one appears.
            let mut u = (next() % n) as NodeId;
            while g.out_degree(u) == 0 {
                u = (next() % n) as NodeId;
            }
            let es = g.out_edges(u);
            let e = es[(next() % es.len() as u64) as usize];
            WeightUpdate {
                from: u,
                to: e.to,
                weight: 1 + (next() % 2_000) as Weight,
            }
        })
        .collect()
}
