//! Per-query instrumentation counters.
//!
//! The paper's performance arguments are about *how much work* each
//! paradigm does (number of shortest-path computations, exploration area
//! `n'`/`m'`, SPT sizes). These counters let the benches and EXPERIMENTS.md
//! report those quantities directly instead of inferring them from wall
//! time.

/// Counters accumulated while answering one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Full (unbounded) shortest-path computations in subspaces
    /// (`CompSP` calls / candidate-path computations in the deviation
    /// baselines). The best-first paradigm's whole point is making this
    /// smaller than the deviation paradigm's `O(k·n)`.
    pub shortest_path_computations: usize,
    /// Cheap lower-bound computations (`CompLB` / `CompLB-SPTI` calls).
    pub lower_bound_computations: usize,
    /// `TestLB` invocations (iteratively bounding approaches only).
    pub testlb_calls: usize,
    /// `TestLB` invocations that came back "bounded" (ω(sp) > τ).
    pub testlb_bounded: usize,
    /// Total nodes settled across every search run for the query (the
    /// aggregate exploration area).
    pub nodes_settled: usize,
    /// Total edges relaxed across every search.
    pub edges_relaxed: usize,
    /// Nodes in the shortest-path tree this algorithm built, if any:
    /// the full reverse SPT (DA-SPT), `SPT_P`, or the final `SPT_I`.
    pub spt_nodes: usize,
    /// Number of subspaces ever created (pseudo-tree vertices).
    pub subspaces_created: usize,
    /// Heap pops across every priority queue the query touched: search
    /// settles, candidate pops in the deviation paradigm, and subspace
    /// pops in the best-first/iter-bound paradigms.
    pub heap_pops: usize,
    /// Frontier entries discarded by a lower bound: τ-prunes and
    /// `Deferred` skips inside searches (the paper's pruning power).
    pub lb_prunes: usize,
    /// Subspaces dropped without a search: `CompLB = ∞` proofs, emitted
    /// single-target deviations, and searches that proved a subspace
    /// empty.
    pub subspaces_skipped: usize,
    /// Times the iterative threshold τ was raised (`next_tau` rounds).
    pub tau_updates: usize,
    /// Final value of the iterative threshold τ (0 when not applicable).
    pub final_tau: u64,
    /// Sidetrack edges examined while resolving subspaces (the
    /// `Sidetrack` engine's analogue of candidate-path computations: each
    /// scanned first-hop is one implicit deviation considered).
    pub sidetracks_scanned: usize,
    /// Subspaces the `Sidetrack` engine resolved by splicing the best
    /// sidetrack onto the reverse-SPT suffix with **zero** search — the
    /// fast path that replaces a per-deviation Dijkstra.
    pub sidetrack_splices: usize,
    /// Subspaces whose best sidetrack suffix collided with the prefix,
    /// forcing a τ-bounded constrained repair search.
    pub sidetrack_repairs: usize,
    /// 1 when the query read `lb(v, V_T)` from an exact target-distance
    /// row instead of the landmark Eq. (2) bound (see
    /// [`TargetsLb::Exact`](crate::TargetsLb::Exact)); summed over a
    /// stream, the number of queries answered with a row.
    pub target_row: usize,
}

impl QueryStats {
    /// Stable serialization names, parallel to
    /// [`field_values`](QueryStats::field_values). Shared by the NDJSON
    /// `stats` block, the `metrics` verb, and the Prometheus counter
    /// series so the three surfaces cannot drift.
    pub const FIELD_NAMES: [&'static str; 17] = [
        "sp",
        "lb",
        "testlb",
        "testlb_bounded",
        "settled",
        "relaxed",
        "spt_nodes",
        "subspaces",
        "heap_pops",
        "lb_prunes",
        "subspaces_skipped",
        "tau_updates",
        "tau",
        "sidetracks_scanned",
        "sidetrack_splices",
        "sidetrack_repairs",
        "target_row",
    ];

    /// Every counter, in [`FIELD_NAMES`](QueryStats::FIELD_NAMES) order.
    pub fn field_values(&self) -> [u64; 17] {
        [
            self.shortest_path_computations as u64,
            self.lower_bound_computations as u64,
            self.testlb_calls as u64,
            self.testlb_bounded as u64,
            self.nodes_settled as u64,
            self.edges_relaxed as u64,
            self.spt_nodes as u64,
            self.subspaces_created as u64,
            self.heap_pops as u64,
            self.lb_prunes as u64,
            self.subspaces_skipped as u64,
            self.tau_updates as u64,
            self.final_tau,
            self.sidetracks_scanned as u64,
            self.sidetrack_splices as u64,
            self.sidetrack_repairs as u64,
            self.target_row as u64,
        ]
    }

    /// Append the canonical JSON object (`{"sp":…,…,"tau":…}`) to `out`.
    /// The single serializer behind every wire surface that emits stats.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push('{');
        for (i, (name, value)) in Self::FIELD_NAMES
            .iter()
            .zip(self.field_values())
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push('}');
    }

    /// Merge counters from a sub-search (used by composite runs).
    pub fn absorb(&mut self, other: &QueryStats) {
        self.shortest_path_computations += other.shortest_path_computations;
        self.lower_bound_computations += other.lower_bound_computations;
        self.testlb_calls += other.testlb_calls;
        self.testlb_bounded += other.testlb_bounded;
        self.nodes_settled += other.nodes_settled;
        self.edges_relaxed += other.edges_relaxed;
        self.spt_nodes = self.spt_nodes.max(other.spt_nodes);
        self.subspaces_created += other.subspaces_created;
        self.heap_pops += other.heap_pops;
        self.lb_prunes += other.lb_prunes;
        self.subspaces_skipped += other.subspaces_skipped;
        self.tau_updates += other.tau_updates;
        self.final_tau = self.final_tau.max(other.final_tau);
        self.sidetracks_scanned += other.sidetracks_scanned;
        self.sidetrack_splices += other.sidetrack_splices;
        self.sidetrack_repairs += other.sidetrack_repairs;
        self.target_row += other.target_row;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters_and_maxes_spt() {
        let mut a = QueryStats {
            shortest_path_computations: 2,
            spt_nodes: 10,
            heap_pops: 4,
            ..Default::default()
        };
        let b = QueryStats {
            shortest_path_computations: 3,
            testlb_calls: 1,
            spt_nodes: 7,
            final_tau: 99,
            heap_pops: 5,
            lb_prunes: 2,
            subspaces_skipped: 1,
            tau_updates: 3,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.shortest_path_computations, 5);
        assert_eq!(a.testlb_calls, 1);
        assert_eq!(a.spt_nodes, 10);
        assert_eq!(a.final_tau, 99);
        assert_eq!(a.heap_pops, 9);
        assert_eq!(a.lb_prunes, 2);
        assert_eq!(a.subspaces_skipped, 1);
        assert_eq!(a.tau_updates, 3);
    }

    #[test]
    fn json_serializer_covers_every_field() {
        let s = QueryStats {
            shortest_path_computations: 1,
            lower_bound_computations: 2,
            testlb_calls: 3,
            testlb_bounded: 4,
            nodes_settled: 5,
            edges_relaxed: 6,
            spt_nodes: 7,
            subspaces_created: 8,
            heap_pops: 9,
            lb_prunes: 10,
            subspaces_skipped: 11,
            tau_updates: 12,
            final_tau: 13,
            sidetracks_scanned: 14,
            sidetrack_splices: 15,
            sidetrack_repairs: 16,
            target_row: 17,
        };
        let mut out = String::new();
        s.write_json(&mut out);
        assert_eq!(
            out,
            "{\"sp\":1,\"lb\":2,\"testlb\":3,\"testlb_bounded\":4,\"settled\":5,\
             \"relaxed\":6,\"spt_nodes\":7,\"subspaces\":8,\"heap_pops\":9,\
             \"lb_prunes\":10,\"subspaces_skipped\":11,\"tau_updates\":12,\"tau\":13,\
             \"sidetracks_scanned\":14,\"sidetrack_splices\":15,\"sidetrack_repairs\":16,\
             \"target_row\":17}"
        );
        // Names and values stay parallel.
        assert_eq!(QueryStats::FIELD_NAMES.len(), s.field_values().len());
        assert_eq!(s.field_values()[12], 13);
    }
}
