//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every experiment of §7 needs the same scaffolding: a (scaled) synthetic
//! dataset, its POI categories, a landmark index, distance-stratified
//! query sets, and per-algorithm timing over a batch of queries. This
//! crate centralizes that so the `repro` binary (paper-style tables on
//! stdout, one experiment per figure) and `bench-kpj` stay small and
//! consistent.
//!
//! Scaling: `repro` defaults to reduced scales so a full run stays in the
//! minutes; `repro --full` uses the paper's exact dataset sizes. The
//! *shape* claims of the paper (who wins, by how much, trends in Q/k/|T|)
//! are scale-stable — see `EXPERIMENTS.md`.

use std::time::{Duration, Instant};

use kpj_core::{Algorithm, QueryEngine, QueryStats};
use kpj_graph::{CategoryIndex, Graph, NodeId};
use kpj_landmark::{LandmarkIndex, SelectionStrategy};
use kpj_workload::datasets::DatasetSpec;
use kpj_workload::poi::{self, CalCategories, NestedPois};
use kpj_workload::queries::QuerySets;

/// The paper's default landmark count (§7 Eval-I).
pub const DEFAULT_LANDMARKS: usize = 16;

/// A fully prepared CAL-style environment (real-POI categories).
pub struct CalEnv {
    /// The road network.
    pub graph: Graph,
    /// 62 categories, four of which match the paper's cardinalities.
    pub categories: CategoryIndex,
    /// Handles to Glacier/Lake/Crater/Harbor.
    pub cal: CalCategories,
    /// The offline ALT index.
    pub landmarks: LandmarkIndex,
}

impl CalEnv {
    /// Build at `scale` with `lm` landmarks.
    pub fn new(scale: f64, lm: usize) -> CalEnv {
        let graph = kpj_workload::datasets::CAL.generate(scale);
        let mut categories = CategoryIndex::new();
        let cal = poi::generate_cal_categories(&mut categories, graph.node_count(), 0xCA11);
        let landmarks = LandmarkIndex::build(&graph, lm, SelectionStrategy::Farthest, 0xCA11);
        CalEnv {
            graph,
            categories,
            cal,
            landmarks,
        }
    }

    /// Query sets for one of the CAL categories.
    pub fn query_sets(&self, cat: kpj_graph::CategoryId, per_group: usize) -> QuerySets {
        QuerySets::generate(
            &self.graph,
            self.categories.members(cat),
            5,
            per_group,
            0xCA11,
        )
    }
}

/// A prepared environment for one Table 1 dataset with nested `T1..T4`.
pub struct NestedEnv {
    /// The road network at the chosen scale.
    pub graph: Graph,
    /// `T1 ⊂ T2 ⊂ T3 ⊂ T4`.
    pub categories: CategoryIndex,
    /// Handles to the four sets.
    pub pois: NestedPois,
    /// The offline ALT index.
    pub landmarks: LandmarkIndex,
}

impl NestedEnv {
    /// Build `spec` at `scale`.
    pub fn new(spec: DatasetSpec, scale: f64) -> NestedEnv {
        let graph = spec.generate(scale);
        let mut categories = CategoryIndex::new();
        let pois = poi::generate_nested_pois(&mut categories, graph.node_count(), 0x901);
        let landmarks = LandmarkIndex::build(
            &graph,
            DEFAULT_LANDMARKS,
            SelectionStrategy::Farthest,
            0x901,
        );
        NestedEnv {
            graph,
            categories,
            pois,
            landmarks,
        }
    }

    /// Member nodes of `T_i` (1-based, as in the paper).
    pub fn t(&self, i: usize) -> &[NodeId] {
        self.categories.members(self.pois.t[i - 1])
    }

    /// Query sets against `T_i`.
    pub fn query_sets(&self, i: usize, per_group: usize) -> QuerySets {
        QuerySets::generate(&self.graph, self.t(i), 5, per_group, 0x901)
    }
}

/// Outcome of timing one algorithm over a batch of queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchResult {
    /// Queries executed.
    pub queries: usize,
    /// Total wall time.
    pub total: Duration,
    /// Aggregated counters.
    pub stats: QueryStats,
}

impl BatchResult {
    /// Mean processing time per query in milliseconds (the paper's y-axis).
    pub fn ms_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e3 / self.queries as f64
        }
    }
}

/// Run `alg` for every source in `sources` against `targets`, top-`k`.
pub fn run_batch(
    engine: &mut QueryEngine<'_>,
    alg: Algorithm,
    sources: &[NodeId],
    targets: &[NodeId],
    k: usize,
) -> BatchResult {
    let mut out = BatchResult::default();
    for &s in sources {
        let t0 = Instant::now();
        let r = engine.query(alg, s, targets, k).expect("valid query");
        out.total += t0.elapsed();
        out.queries += 1;
        out.stats.absorb(&r.stats);
        assert!(r.paths.len() <= k);
    }
    out
}

/// Like [`run_batch`] but each "source" is a whole GKPJ source set.
pub fn run_batch_multi(
    engine: &mut QueryEngine<'_>,
    alg: Algorithm,
    source_sets: &[Vec<NodeId>],
    targets: &[NodeId],
    k: usize,
) -> BatchResult {
    let mut out = BatchResult::default();
    for set in source_sets {
        let t0 = Instant::now();
        let r = engine
            .query_multi(alg, set, targets, k)
            .expect("valid query");
        out.total += t0.elapsed();
        out.queries += 1;
        out.stats.absorb(&r.stats);
    }
    out
}

/// Pretty-print one table row: label + per-column mean milliseconds.
pub fn print_row(label: &str, cells: &[f64]) {
    print!("{label:>14}");
    for c in cells {
        print!(" {c:>10.3}");
    }
    println!();
}

/// Pretty-print the table header.
pub fn print_header(corner: &str, cols: &[String]) {
    print!("{corner:>14}");
    for c in cols {
        print!(" {c:>10}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envs_build_and_batches_run() {
        let env = NestedEnv::new(kpj_workload::datasets::SJ, 0.05);
        assert!(env.graph.node_count() > 500);
        assert!(!env.t(1).is_empty());
        let qs = env.query_sets(2, 2);
        let mut engine = QueryEngine::new(&env.graph).with_landmarks(&env.landmarks);
        let r = run_batch(
            &mut engine,
            Algorithm::IterBoundI,
            qs.group(3),
            env.t(2),
            10,
        );
        assert_eq!(r.queries, 2);
        assert!(r.ms_per_query() >= 0.0);
    }

    #[test]
    fn cal_env_has_paper_categories() {
        let env = CalEnv::new(0.02, 4);
        assert_eq!(env.categories.members(env.cal.glacier).len(), 1);
        assert_eq!(env.categories.members(env.cal.harbor).len(), 94);
        let qs = env.query_sets(env.cal.lake, 2);
        assert_eq!(qs.group_count(), 5);
    }
}
