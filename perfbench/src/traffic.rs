//! The three workloads: the dataset each one serves and its seeded
//! request stream.
//!
//! A dataset is fixed: the graph, the POI category, the query universe
//! with its popularity ranking and the update trace stand in for a real
//! road or social dataset and its query log, and are the same under every
//! `--seed`. The seed draws the traffic from them — which requests, in
//! which order — so runs on different seeds measure the same system under
//! different but equally shaped request streams. (Which queries are
//! popular decides much of a skewed workload's cost; letting the seed
//! pick them would make two seeds compare different work.)

use std::sync::Arc;

use kpj_core::Algorithm;
use kpj_graph::{CategoryIndex, Graph, NodeId, WeightUpdate};
use kpj_workload::queries::QuerySets;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generator seed of the CAL POI categories (Crater lives here).
const CATEGORY_SEED: u64 = 3;
/// Generator seed of the social graph.
const SOCIAL_SEED: u64 = 11;
/// Seed of the fixed `road-churn` source pool and its popularity order.
const POOL_SEED: u64 = 13;
/// Seed of the fixed `social-hot` query universe.
const UNIVERSE_SEED: u64 = 19;
/// Seed of the update trace: a fixed feed of weight rewrites, like a
/// recorded traffic feed, replayed in order whatever the query seed.
/// Repair cost varies widely from batch to batch; drawing the batches
/// per seed would make update latency compare different work.
const TRACE_SEED: u64 = 17;
/// Accounts in the `social-hot` small world.
pub const SOCIAL_NODES: usize = 8_000;
/// Distinct queries `social-hot` draws from: four times the service's
/// 4096-entry cache, so the Zipf head fits and the tail misses.
pub const SOCIAL_UNIVERSE: usize = 16_384;
/// Target-set size of a `social-hot` query.
const SOCIAL_TARGETS: usize = 8;
/// Sources kept by the `road-churn` reduction and queried by its traffic.
pub const CHURN_POOL: usize = 4_096;
/// Every `UPDATE_EVERY`-th `road-churn` operation is an update batch.
pub const UPDATE_EVERY: u64 = 50;
/// Arcs rewritten per update batch.
pub const UPDATE_EDGES: usize = 16;
/// Distance groups Q1–Q5 of the paper's §7 query workload.
pub const GROUPS: usize = 5;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct road sources round-robin over Q1–Q5: the cache never hits.
    RoadUnique,
    /// Zipf-skewed repeats on a small world: hits set p50, misses p95.
    SocialHot,
    /// Zipf repeats over a reduced road graph with weight updates mixed in.
    RoadChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::RoadUnique,
        Workload::SocialHot,
        Workload::RoadChurn,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RoadUnique => "road-unique",
            Workload::SocialHot => "social-hot",
            Workload::RoadChurn => "road-churn",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Landmarks embedded in the served v2 file: 16 on road (the paper's
    /// setting), `kpj-serve`'s default of 8 on the social graph.
    pub fn landmarks(self) -> usize {
        match self {
            Workload::SocialHot => 8,
            _ => 16,
        }
    }
}

/// The fixed input a workload serves: the generated graph and, for
/// `road-churn`, the reduction keep set.
pub struct Dataset {
    /// The original graph, in memory (also the answer check's reference).
    pub graph: Arc<Graph>,
    /// Nodes the `convert --reduce --keep` step must keep; `None` serves
    /// the graph unreduced.
    pub keep: Option<Vec<NodeId>>,
    /// The seed-independent half of the request stream.
    targets: Vec<NodeId>,
    pool: Vec<(NodeId, u8)>,
}

impl Dataset {
    /// Generate the dataset of `workload`.
    pub fn generate(workload: Workload) -> Dataset {
        match workload {
            Workload::SocialHot => Dataset {
                graph: Arc::new(
                    kpj_workload::social::SocialConfig::new(SOCIAL_NODES, SOCIAL_SEED).generate(),
                ),
                keep: None,
                targets: Vec::new(),
                pool: Vec::new(),
            },
            Workload::RoadUnique | Workload::RoadChurn => {
                let graph = kpj_workload::datasets::CAL.generate(1.0);
                let mut cats = CategoryIndex::new();
                let cal = kpj_workload::poi::generate_cal_categories(
                    &mut cats,
                    graph.node_count(),
                    CATEGORY_SEED,
                );
                let targets = cats.members(cal.crater).to_vec();
                let (keep, pool) = if workload == Workload::RoadChurn {
                    let per_group = CHURN_POOL.div_ceil(GROUPS);
                    let sets = QuerySets::generate(&graph, &targets, GROUPS, per_group, POOL_SEED);
                    let pool = round_robin(&sets.groups, CHURN_POOL);
                    let mut keep: Vec<NodeId> = pool.iter().map(|&(v, _)| v).collect();
                    keep.extend_from_slice(&targets);
                    keep.sort_unstable();
                    keep.dedup();
                    (Some(keep), pool)
                } else {
                    (None, Vec::new())
                };
                Dataset {
                    graph: Arc::new(graph),
                    keep,
                    targets,
                    pool,
                }
            }
        }
    }
}

/// `count` nodes taken in turn from each group, labelled with the group.
fn round_robin(groups: &[Vec<NodeId>], count: usize) -> Vec<(NodeId, u8)> {
    (0..count)
        .map(|i| {
            let g = i % groups.len();
            (groups[g][i / groups.len()], g as u8)
        })
        .collect()
}

/// One request of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op<'a> {
    /// A KPJ query.
    Query {
        /// Identifies the distinct query (equal keys = equal requests).
        key: u64,
        /// The single source.
        source: NodeId,
        /// The target category.
        targets: &'a [NodeId],
        /// Distance group (0 = Q1) on road workloads.
        group: Option<u8>,
    },
    /// A weight-update batch, in original node ids.
    Update(Vec<WeightUpdate>),
}

/// Zipf(1.0) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `r` has weight `1 / (r + 1)`.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank whose CDF interval holds `u ∈ [0, 1)`.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded, unbounded request stream: operation `i` is a pure function
/// of `(seed, i)`, so two clients pulling indices from a shared counter
/// send the same requests in every run, and the answer check can
/// re-derive any request from its index.
pub struct Traffic {
    seed: u64,
    /// Algorithm and `k` of every query.
    pub algorithm: Algorithm,
    /// Paths per answer.
    pub k: usize,
    kind: Kind,
}

enum Kind {
    Unique {
        groups: Vec<Vec<NodeId>>,
        targets: Vec<NodeId>,
    },
    Hot {
        universe: Vec<(NodeId, Vec<NodeId>)>,
        zipf: Zipf,
    },
    Churn {
        pool: Vec<(NodeId, u8)>,
        perm: Vec<u32>,
        targets: Vec<NodeId>,
        zipf: Zipf,
        graph: Arc<Graph>,
    },
}

/// SplitMix64 over `(seed, i, lane)`: independent 64-bit draws per op.
pub(crate) fn mix(seed: u64, i: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(lane.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

impl Traffic {
    /// The stream of `workload` over `data`, drawn from `seed`.
    pub fn new(workload: Workload, data: &Dataset, seed: u64) -> Traffic {
        match workload {
            Workload::RoadUnique => {
                let per_group = data.graph.node_count();
                let sets = QuerySets::generate(&data.graph, &data.targets, GROUPS, per_group, seed);
                Traffic::unique(sets.groups, data.targets.clone(), seed)
            }
            Workload::SocialHot => Traffic::hot(data.graph.node_count(), SOCIAL_UNIVERSE, seed),
            Workload::RoadChurn => Traffic::churn(
                Arc::clone(&data.graph),
                data.pool.clone(),
                data.targets.clone(),
                seed,
            ),
        }
    }

    /// Distinct sources taken round-robin over `groups`, IterBoundI k=20.
    pub fn unique(groups: Vec<Vec<NodeId>>, targets: Vec<NodeId>, seed: u64) -> Traffic {
        Traffic {
            seed,
            algorithm: Algorithm::IterBoundI,
            k: 20,
            kind: Kind::Unique { groups, targets },
        }
    }

    /// Zipf repeats over a fixed universe of `universe` random
    /// (source, 8 targets) queries on an `n`-node graph, Sidetrack k=100.
    pub fn hot(n: usize, universe: usize, seed: u64) -> Traffic {
        let mut rng = SmallRng::seed_from_u64(UNIVERSE_SEED);
        let universe = (0..universe)
            .map(|_| {
                let source = rng.gen_range(0..n) as NodeId;
                let mut targets = Vec::with_capacity(SOCIAL_TARGETS);
                while targets.len() < SOCIAL_TARGETS {
                    let t = rng.gen_range(0..n) as NodeId;
                    if t != source && !targets.contains(&t) {
                        targets.push(t);
                    }
                }
                targets.sort_unstable();
                (source, targets)
            })
            .collect::<Vec<_>>();
        Traffic {
            seed,
            algorithm: Algorithm::Sidetrack,
            k: 100,
            kind: Kind::Hot {
                zipf: Zipf::new(universe.len()),
                universe,
            },
        }
    }

    /// Zipf repeats over `pool` (in a fixed shuffled popularity order),
    /// every [`UPDATE_EVERY`]-th operation the next batch of the update
    /// trace of `graph`, IterBoundI k=20.
    pub fn churn(
        graph: Arc<Graph>,
        pool: Vec<(NodeId, u8)>,
        targets: Vec<NodeId>,
        seed: u64,
    ) -> Traffic {
        let mut perm: Vec<u32> = (0..pool.len() as u32).collect();
        let mut rng = SmallRng::seed_from_u64(POOL_SEED);
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        Traffic {
            seed,
            algorithm: Algorithm::IterBoundI,
            k: 20,
            kind: Kind::Churn {
                zipf: Zipf::new(pool.len()),
                pool,
                perm,
                targets,
                graph,
            },
        }
    }

    /// Operation `i` of the stream.
    pub fn op(&self, i: u64) -> Op<'_> {
        let u = unit(mix(self.seed, i, 0));
        match &self.kind {
            Kind::Unique { groups, targets } => {
                let g = (i % groups.len() as u64) as usize;
                let slot = (i / groups.len() as u64) as usize;
                let source = groups[g][slot % groups[g].len()];
                Op::Query {
                    key: u64::from(source),
                    source,
                    targets,
                    group: Some(g as u8),
                }
            }
            Kind::Hot { universe, zipf } => {
                let rank = zipf.rank(u);
                let (source, targets) = &universe[rank];
                Op::Query {
                    key: rank as u64,
                    source: *source,
                    targets,
                    group: None,
                }
            }
            Kind::Churn {
                pool,
                perm,
                targets,
                zipf,
                graph,
            } => {
                if i % UPDATE_EVERY == UPDATE_EVERY - 1 {
                    return Op::Update(trace_batch(graph, i / UPDATE_EVERY));
                }
                let (source, group) = pool[perm[zipf.rank(u)] as usize];
                Op::Query {
                    key: u64::from(source),
                    source,
                    targets,
                    group: Some(group),
                }
            }
        }
    }

    /// The wire line of operation `i`.
    pub fn line(&self, i: u64, op: &Op<'_>) -> String {
        let mut out = String::with_capacity(160);
        match op {
            Op::Query {
                source, targets, ..
            } => {
                out.push_str(&format!(
                    "{{\"id\":{i},\"op\":\"query\",\"algorithm\":\"{}\",\"sources\":[{source}],\"targets\":[",
                    self.algorithm.name().to_ascii_lowercase()
                ));
                join(&mut out, targets.iter());
                out.push_str(&format!("],\"k\":{},\"paths\":true}}", self.k));
            }
            Op::Update(edges) => {
                out.push_str(&format!("{{\"id\":{i},\"op\":\"update\",\"edges\":["));
                for (j, e) in edges.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{},{},{}]", e.from, e.to, e.weight));
                }
                out.push_str("]}");
            }
        }
        out
    }
}

fn join<'a>(out: &mut String, items: impl Iterator<Item = &'a NodeId>) {
    for (j, v) in items.enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
}

/// Batch `j` of the update trace of `graph`.
pub fn trace_batch(graph: &Graph, j: u64) -> Vec<WeightUpdate> {
    update_batch(graph, mix(TRACE_SEED, j, 1))
}

/// [`UPDATE_EDGES`] arcs of `graph` drawn uniformly (self-loops, which a
/// reduction drops, are skipped), each re-weighted to between half and
/// twice its original weight — a traffic-like rewrite that never strays
/// far from the road's free-flow cost.
fn update_batch(graph: &Graph, word: u64) -> Vec<WeightUpdate> {
    let mut rng = SmallRng::seed_from_u64(word);
    let (offsets, edges, _, _) = graph.sections();
    let mut batch = Vec::with_capacity(UPDATE_EDGES);
    while batch.len() < UPDATE_EDGES {
        let arc = rng.gen_range(0..edges.len());
        let from = offsets.partition_point(|&o| o as usize <= arc) - 1;
        let e = edges[arc];
        if e.to as usize == from {
            continue;
        }
        let scaled = f64::from(e.weight) * rng.gen_range(0.5..2.0);
        batch.push(WeightUpdate {
            from: from as NodeId,
            to: e.to,
            weight: (scaled as u32).max(1),
        });
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(t: &Traffic, n: u64) -> Vec<u64> {
        (0..n)
            .map(|i| match t.op(i) {
                Op::Query { key, .. } => key,
                Op::Update(_) => u64::MAX,
            })
            .collect()
    }

    #[test]
    fn zipf_stream_is_a_function_of_the_seed() {
        let a = Traffic::hot(500, 1_000, 7);
        let b = Traffic::hot(500, 1_000, 7);
        let c = Traffic::hot(500, 1_000, 8);
        assert_eq!(keys(&a, 2_000), keys(&b, 2_000));
        assert_ne!(keys(&a, 2_000), keys(&c, 2_000));
        // Same seed, same request lines.
        assert_eq!(a.line(5, &a.op(5)), b.line(5, &b.op(5)));
        // Any index can be re-derived on its own, in any order.
        assert_eq!(a.op(1_999), b.op(1_999));
    }

    #[test]
    fn zipf_head_dominates() {
        let zipf = Zipf::new(1_000);
        let mut counts = vec![0u32; 1_000];
        for i in 0..50_000 {
            counts[zipf.rank(unit(mix(1, i, 0)))] += 1;
        }
        // Rank 0 carries 1/H(1000) ≈ 13% of the mass, rank 1 half that.
        assert!(counts[0] > 5_500 && counts[0] < 8_000, "{}", counts[0]);
        assert!(counts[1] * 10 > counts[0] * 4 && counts[1] * 10 < counts[0] * 6);
        assert_eq!(zipf.rank(0.0), 0);
        assert_eq!(zipf.rank(0.999_999_999), 999);
    }

    #[test]
    fn churn_updates_at_a_fixed_share() {
        let g = Arc::new(kpj_workload::road::RoadConfig::new(300, 900, 1).generate());
        let pool: Vec<(NodeId, u8)> = (0..40).map(|v| (v, (v % 5) as u8)).collect();
        let t = Traffic::churn(Arc::clone(&g), pool, vec![299], 3);
        let ops: Vec<Op<'_>> = (0..500).map(|i| t.op(i)).collect();
        let updates: Vec<&Vec<WeightUpdate>> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Update(batch) => Some(batch),
                Op::Query { .. } => None,
            })
            .collect();
        assert_eq!(updates.len(), 10);
        for batch in updates {
            assert_eq!(batch.len(), UPDATE_EDGES);
            assert!(batch
                .iter()
                .all(|u| u.from != u.to && g.edge_weight(u.from, u.to).is_some()));
        }
        let again = Traffic::churn(g, (0..40).map(|v| (v, 0)).collect(), vec![299], 3);
        assert_eq!(t.op(49), again.op(49));
    }
}
