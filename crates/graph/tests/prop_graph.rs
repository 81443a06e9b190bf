//! Property-based tests for the graph substrate: CSR construction against
//! a naive adjacency model, I/O roundtrips, and scratch-structure
//! invariants, over proptest-generated inputs.

use kpj_graph::scratch::{TimestampedMap, TimestampedSet};
use kpj_graph::{io, GraphBuilder, NodeId, Weight};
use proptest::collection::vec;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Spec {
    n: u32,
    edges: Vec<(u32, u32, u32)>,
}

fn spec() -> impl Strategy<Value = Spec> {
    (1..40u32).prop_flat_map(|n| {
        vec((0..n, 0..n, 0..1000u32), 0..120).prop_map(move |edges| Spec { n, edges })
    })
}

proptest! {
    #[test]
    fn csr_matches_model(s in spec()) {
        let mut b = GraphBuilder::new(s.n as usize);
        for &(u, v, w) in &s.edges {
            b.add_edge(u, v, w).unwrap();
        }
        let g = b.build();
        prop_assert_eq!(g.edge_count(), s.edges.len());

        // Model: multiset adjacency in both directions.
        let mut out_model: Vec<Vec<(NodeId, Weight)>> = vec![Vec::new(); s.n as usize];
        let mut in_model: Vec<Vec<(NodeId, Weight)>> = vec![Vec::new(); s.n as usize];
        for &(u, v, w) in &s.edges {
            out_model[u as usize].push((v, w));
            in_model[v as usize].push((u, w));
        }
        for u in g.nodes() {
            let mut got: Vec<(NodeId, Weight)> =
                g.out_edges(u).iter().map(|e| (e.to, e.weight)).collect();
            got.sort_unstable();
            out_model[u as usize].sort_unstable();
            prop_assert_eq!(&got, &out_model[u as usize], "out({})", u);

            let mut got: Vec<(NodeId, Weight)> =
                g.in_edges(u).iter().map(|e| (e.to, e.weight)).collect();
            got.sort_unstable();
            in_model[u as usize].sort_unstable();
            prop_assert_eq!(&got, &in_model[u as usize], "in({})", u);
        }
    }

    #[test]
    fn dimacs_roundtrip_random(s in spec()) {
        let mut b = GraphBuilder::new(s.n as usize);
        for &(u, v, w) in &s.edges {
            b.add_edge(u, v, w).unwrap();
        }
        let g = b.build();
        let mut buf = Vec::new();
        io::write_dimacs_gr(&g, &mut buf).unwrap();
        let g2 = io::read_dimacs_gr(buf.as_slice()).unwrap();
        prop_assert_eq!(g2.node_count(), g.node_count());
        for u in g.nodes() {
            prop_assert_eq!(g.out_edges(u), g2.out_edges(u));
        }
    }

    #[test]
    fn timestamped_set_matches_hashset(
        ops in vec((0..3u8, 0..50usize), 1..300),
    ) {
        let mut ts = TimestampedSet::new(50);
        let mut model = std::collections::HashSet::new();
        for (op, key) in ops {
            match op {
                0 => {
                    prop_assert_eq!(ts.insert(key), model.insert(key));
                }
                1 => {
                    prop_assert_eq!(ts.remove(key), model.remove(&key));
                }
                _ => {
                    ts.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(ts.contains(key), model.contains(&key));
        }
    }

    #[test]
    fn timestamped_map_matches_hashmap(
        ops in vec((0..2u8, 0..30usize, 0..1000u64), 1..300),
    ) {
        let mut tm = TimestampedMap::new(30, u64::MAX);
        let mut model = std::collections::HashMap::new();
        for (op, key, value) in ops {
            match op {
                0 => {
                    tm.set(key, value);
                    model.insert(key, value);
                }
                _ => {
                    tm.reset();
                    model.clear();
                }
            }
            prop_assert_eq!(tm.get(key), model.get(&key).copied().unwrap_or(u64::MAX));
            prop_assert_eq!(tm.is_set(key), model.contains_key(&key));
        }
    }

    #[test]
    fn path_validation_agrees_with_construction(s in spec(), walk_len in 1..8usize) {
        let mut b = GraphBuilder::new(s.n as usize);
        for &(u, v, w) in &s.edges {
            b.add_edge(u, v, w).unwrap();
        }
        let g = b.build();
        // Build a genuine walk greedily; its Path must validate.
        let mut nodes = vec![0u32];
        let mut length = 0u64;
        for _ in 0..walk_len {
            let u = *nodes.last().unwrap();
            // Deterministic: smallest-weight outgoing edge.
            let Some(e) = g.out_edges(u).iter().min_by_key(|e| (e.weight, e.to)) else { break };
            nodes.push(e.to);
            // Validation recomputes with the *minimum* parallel weight.
            length += g.edge_weight(u, e.to).unwrap() as u64;
        }
        let p = kpj_graph::Path { nodes, length };
        prop_assert!(p.validate(&g).is_ok());
    }
}
