//! `repro` — regenerate every table and figure of the paper's evaluation
//! (§7) and print them as text tables.
//!
//! ```sh
//! cargo run --release -p kpj-bench --bin repro -- all
//! cargo run --release -p kpj-bench --bin repro -- fig7 fig8 --scale 0.1
//! cargo run --release -p kpj-bench --bin repro -- fig12 --full   # paper sizes
//! ```
//!
//! Every experiment prints mean processing time per query in milliseconds
//! (the paper's y-axes) per algorithm and parameter value. Absolute times
//! differ from the paper (different hardware, language, and synthetic
//! datasets); the *shapes* — orderings, trends, relative gaps — are the
//! reproduction target, recorded in `EXPERIMENTS.md`.

use kpj_bench::{
    print_header, print_row, run_batch, run_batch_multi, BatchResult, CalEnv, NestedEnv,
};
use kpj_core::{Algorithm, QueryEngine};
use kpj_graph::NodeId;
use kpj_landmark::{LandmarkIndex, SelectionStrategy};
use kpj_workload::{analysis, datasets, queries::QuerySets};

/// What `all` (and no experiment at all) runs: Table 1 and every figure.
const ALL_FIGURES: [&str; 10] = [
    "table1", "fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
];

/// Experiments that run only when named.
const EXTRA: [&str; 2] = ["stats", "ablation"];

#[derive(Debug, Clone)]
struct Opts {
    experiments: Vec<String>,
    /// Dataset scale for the CAL/SJ/COL-style experiments.
    scale: f64,
    /// Scale for the large-dataset sweeps (fig11/fig12 over SJ..USA).
    sweep_scale: f64,
    /// Queries per group.
    per_group: usize,
}

impl Opts {
    fn parse() -> Opts {
        let mut experiments = Vec::new();
        let mut scale = 0.05;
        let mut sweep_scale = 0.02;
        let mut per_group = 10;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => scale = args.next().expect("--scale value").parse().expect("number"),
                "--sweep-scale" => {
                    sweep_scale = args
                        .next()
                        .expect("--sweep-scale value")
                        .parse()
                        .expect("number")
                }
                "--per-group" => {
                    per_group = args
                        .next()
                        .expect("--per-group value")
                        .parse()
                        .expect("number")
                }
                "--full" => {
                    scale = 1.0;
                    sweep_scale = 1.0;
                    per_group = 100;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: repro [EXPERIMENT…] [--scale S] [--sweep-scale S] [--per-group N] [--full]\n\
                         experiments: table1 fig6a fig6b fig7 fig8 fig9 fig10 fig11 fig12 fig13 stats ablation all"
                    );
                    std::process::exit(0);
                }
                other => experiments.push(other.to_ascii_lowercase()),
            }
        }
        // `all` expands in place, so `all ablation` runs every figure and
        // then the ablation.
        if experiments.is_empty() {
            experiments.push("all".to_string());
        }
        let experiments: Vec<String> = experiments
            .into_iter()
            .flat_map(|e| match e.as_str() {
                "all" => ALL_FIGURES.iter().map(|s| s.to_string()).collect(),
                _ => vec![e],
            })
            .collect();
        // Refuse a misspelt name before anything runs, so a script that
        // names it fails instead of silently skipping the experiment.
        for e in &experiments {
            if !ALL_FIGURES.contains(&e.as_str()) && !EXTRA.contains(&e.as_str()) {
                eprintln!("unknown experiment `{e}` (see --help)");
                std::process::exit(2);
            }
        }
        Opts {
            experiments,
            scale,
            sweep_scale,
            per_group,
        }
    }
}

fn main() {
    let opts = Opts::parse();
    println!(
        "kpj repro — scale {} (sweep {}), {} queries/group\n",
        opts.scale, opts.sweep_scale, opts.per_group
    );
    for exp in opts.experiments.clone() {
        match exp.as_str() {
            "table1" => table1(&opts),
            "fig6a" => fig6a(&opts),
            "fig6b" => fig6b(&opts),
            "fig7" => fig7(&opts),
            "fig8" => fig8(&opts),
            "fig9" => fig9(&opts),
            "fig10" => fig10(&opts),
            "fig11" => fig11(&opts),
            "fig12" => fig12(&opts),
            "fig13" => fig13(&opts),
            "stats" => stats_table(&opts),
            "ablation" => ablation(&opts),
            other => unreachable!("`{other}` passed Opts::parse"),
        }
        println!();
    }
}

/// The seven lines of Figs. 7–8 in the paper's order. Deliberately NOT
/// `Algorithm::ALL`: these panels reproduce the paper's figures, and the
/// sidetrack engine is outside the paper (its numbers live in
/// `bench-kpj`'s k-sweep axis and EXPERIMENTS.md).
const SEVEN: [(&str, Option<Algorithm>); 7] = [
    ("DA", Some(Algorithm::Da)),
    ("DA-SPT", Some(Algorithm::DaSpt)),
    ("BestFirst", Some(Algorithm::BestFirst)),
    ("IterBound", Some(Algorithm::IterBound)),
    ("IterBoundP", Some(Algorithm::IterBoundP)),
    ("IterBoundI", Some(Algorithm::IterBoundI)),
    ("IterBoundI-NL", None), // IterBoundI on an engine without landmarks
];

fn table1(opts: &Opts) {
    println!(
        "== Table 1: dataset summary (scale {} in parentheses) ==",
        opts.sweep_scale
    );
    print_header(
        "dataset",
        &[
            "#nodes".into(),
            "#edges".into(),
            "n@scale".into(),
            "m@scale".into(),
        ],
    );
    for d in datasets::ALL {
        print!("{:>14}", d.name);
        print!(" {:>10} {:>10}", d.nodes, d.arcs);
        println!(
            " {:>10} {:>10}",
            d.nodes_at(opts.sweep_scale),
            d.arcs_at(opts.sweep_scale)
        );
    }
}

fn fig6a(opts: &Opts) {
    println!(
        "== Fig 6(a): IterBoundI vs |L| on CAL (Q3, k=20), ms/query ==\n\
         (expect a U-shape with the minimum around |L| = 16)"
    );
    let lvals = [4usize, 8, 12, 16, 20, 32];
    let graph = datasets::CAL.generate(opts.scale);
    let mut categories = kpj_graph::CategoryIndex::new();
    let cal =
        kpj_workload::poi::generate_cal_categories(&mut categories, graph.node_count(), 0xCA11);
    let cats = [
        ("Crater", cal.crater),
        ("Glacier", cal.glacier),
        ("Harbor", cal.harbor),
        ("Lake", cal.lake),
    ];
    print_header(
        "category",
        &lvals.iter().map(|l| format!("|L|={l}")).collect::<Vec<_>>(),
    );
    for (name, cat) in cats {
        let targets = categories.members(cat).to_vec();
        let qs = QuerySets::generate(&graph, &targets, 5, opts.per_group, 0xCA11);
        let mut cells = Vec::new();
        for &l in &lvals {
            let lm = LandmarkIndex::build(&graph, l, SelectionStrategy::Farthest, 0xCA11);
            let mut engine = QueryEngine::new(&graph).with_landmarks(&lm);
            let r = run_batch(
                &mut engine,
                Algorithm::IterBoundI,
                qs.group(3),
                &targets,
                20,
            );
            cells.push(r.ms_per_query());
        }
        print_row(name, &cells);
    }
}

fn fig6b(opts: &Opts) {
    println!(
        "== Fig 6(b): IterBoundI vs α on CAL (Q3, k=20), ms/query ==\n\
         (expect a U-shape with the minimum around α = 1.1)"
    );
    let alphas = [1.05, 1.1, 1.2, 1.5, 1.8];
    let env = CalEnv::new(opts.scale, kpj_bench::DEFAULT_LANDMARKS);
    let cats = [
        ("Crater", env.cal.crater),
        ("Glacier", env.cal.glacier),
        ("Harbor", env.cal.harbor),
        ("Lake", env.cal.lake),
    ];
    print_header(
        "category",
        &alphas.iter().map(|a| format!("α={a}")).collect::<Vec<_>>(),
    );
    for (name, cat) in cats {
        let targets = env.categories.members(cat).to_vec();
        let qs = env.query_sets(cat, opts.per_group);
        let mut cells = Vec::new();
        for &a in &alphas {
            let mut engine = QueryEngine::new(&env.graph)
                .with_landmarks(&env.landmarks)
                .with_alpha(a);
            let r = run_batch(
                &mut engine,
                Algorithm::IterBoundI,
                qs.group(3),
                &targets,
                20,
            );
            cells.push(r.ms_per_query());
        }
        print_row(name, &cells);
    }
}

/// One Fig. 7/8-style panel: all seven lines over the given columns.
fn seven_panel(
    env: &CalEnv,
    targets: &[NodeId],
    qs: &QuerySets,
    columns: &[(String, &[NodeId], usize)], // (label, sources, k)
) {
    print_header(
        "algorithm",
        &columns.iter().map(|c| c.0.clone()).collect::<Vec<_>>(),
    );
    let mut engine_lm = QueryEngine::new(&env.graph).with_landmarks(&env.landmarks);
    let mut engine_nl = QueryEngine::new(&env.graph);
    let _ = qs;
    for (label, alg) in SEVEN {
        let mut cells = Vec::new();
        for (_, sources, k) in columns {
            let r: BatchResult = match alg {
                Some(a) => run_batch(&mut engine_lm, a, sources, targets, *k),
                None => run_batch(&mut engine_nl, Algorithm::IterBoundI, sources, targets, *k),
            };
            cells.push(r.ms_per_query());
        }
        print_row(label, &cells);
    }
}

fn fig7(opts: &Opts) {
    println!(
        "== Fig 7: KPJ on CAL — all algorithms, ms/query ==\n\
         (expect: every best-first variant ≪ DA/DA-SPT; IterBoundI lowest;\n\
          DA-SPT flat in Q; times grow with Q and k)"
    );
    let env = CalEnv::new(opts.scale, kpj_bench::DEFAULT_LANDMARKS);
    for (name, cat) in [
        ("Lake", env.cal.lake),
        ("Crater", env.cal.crater),
        ("Harbor", env.cal.harbor),
    ] {
        let targets = env.categories.members(cat).to_vec();
        let qs = env.query_sets(cat, opts.per_group);

        println!("-- Fig 7 ({name}): vary query group, k = 20 --");
        let cols: Vec<(String, &[NodeId], usize)> = (1..=5)
            .map(|i| (format!("Q{i}"), qs.group(i), 20))
            .collect();
        seven_panel(&env, &targets, &qs, &cols);

        println!("-- Fig 7 ({name}): vary k, Q = Q3 --");
        let cols: Vec<(String, &[NodeId], usize)> = [10, 20, 30, 50]
            .iter()
            .map(|&k| (format!("k={k}"), qs.group(3), k))
            .collect();
        seven_panel(&env, &targets, &qs, &cols);
    }
}

fn fig8(opts: &Opts) {
    println!(
        "== Fig 8: KSP on CAL (T = Glacier, one physical node) — ms/query ==\n\
         (same ordering as Fig 7: the KPJ machinery subsumes KSP)"
    );
    let env = CalEnv::new(opts.scale, kpj_bench::DEFAULT_LANDMARKS);
    let targets = env.categories.members(env.cal.glacier).to_vec();
    let qs = env.query_sets(env.cal.glacier, opts.per_group);

    println!("-- Fig 8(a): vary query group, k = 20 --");
    let cols: Vec<(String, &[NodeId], usize)> = (1..=5)
        .map(|i| (format!("Q{i}"), qs.group(i), 20))
        .collect();
    seven_panel(&env, &targets, &qs, &cols);

    println!("-- Fig 8(b): vary k, Q = Q3 --");
    let cols: Vec<(String, &[NodeId], usize)> = [10, 20, 30, 50]
        .iter()
        .map(|&k| (format!("k={k}"), qs.group(3), k))
        .collect();
    seven_panel(&env, &targets, &qs, &cols);
}

/// The four "our approaches" of Fig. 9/10.
const OURS: [Algorithm; 4] = [
    Algorithm::BestFirst,
    Algorithm::IterBound,
    Algorithm::IterBoundP,
    Algorithm::IterBoundI,
];

fn fig9(opts: &Opts) {
    println!(
        "== Fig 9: our approaches on SJ and COL (T = T2), ms/query ==\n\
         (expect IterBoundI ≤ IterBoundP ≤ IterBound ≤ BestFirst)"
    );
    for spec in [datasets::SJ, datasets::COL] {
        let env = NestedEnv::new(spec, opts.scale);
        let targets = env.t(2).to_vec();
        let qs = env.query_sets(2, opts.per_group);
        let mut engine = QueryEngine::new(&env.graph).with_landmarks(&env.landmarks);

        println!("-- Fig 9 ({}): vary query group, k = 20 --", spec.name);
        print_header(
            "algorithm",
            &(1..=5).map(|i| format!("Q{i}")).collect::<Vec<_>>(),
        );
        for alg in OURS {
            let cells: Vec<f64> = (1..=5)
                .map(|i| run_batch(&mut engine, alg, qs.group(i), &targets, 20).ms_per_query())
                .collect();
            print_row(alg.name(), &cells);
        }

        println!("-- Fig 9 ({}): vary k, Q = Q3 --", spec.name);
        print_header("algorithm", &[10, 20, 30, 50].map(|k| format!("k={k}")));
        for alg in OURS {
            let cells: Vec<f64> = [10, 20, 30, 50]
                .iter()
                .map(|&k| run_batch(&mut engine, alg, qs.group(3), &targets, k).ms_per_query())
                .collect();
            print_row(alg.name(), &cells);
        }
    }
}

fn fig10(opts: &Opts) {
    println!(
        "== Fig 10: our approaches vs |T| (T1..T4) on SJ and COL (Q3, k=20) ==\n\
         (expect times to fall as |T| grows; IterBoundI's edge grows with |T|)"
    );
    for spec in [datasets::SJ, datasets::COL] {
        let env = NestedEnv::new(spec, opts.scale);
        let mut engine = QueryEngine::new(&env.graph).with_landmarks(&env.landmarks);
        println!("-- Fig 10 ({}) --", spec.name);
        print_header(
            "algorithm",
            &(1..=4)
                .map(|i| format!("T{i}({})", env.t(i).len()))
                .collect::<Vec<_>>(),
        );
        for alg in OURS {
            let mut cells = Vec::new();
            for i in 1..=4 {
                let targets = env.t(i).to_vec();
                let qs = env.query_sets(i, opts.per_group);
                cells.push(run_batch(&mut engine, alg, qs.group(3), &targets, 20).ms_per_query());
            }
            print_row(alg.name(), &cells);
        }
    }
}

fn fig11(opts: &Opts) {
    println!(
        "== Fig 11: percentile of max δ(v, T_i) among all-pairs distances ==\n\
         (expect the percentile to fall as |T| grows, for every dataset;\n\
          percentile estimated from sampled single-source distance vectors)"
    );
    print_header(
        "dataset",
        &(1..=4).map(|i| format!("T{i}")).collect::<Vec<_>>(),
    );
    for spec in datasets::SIZE_SWEEP {
        let env = NestedEnv::new(spec, opts.sweep_scale);
        let mut cells = Vec::new();
        for i in 1..=4 {
            let max_d = analysis::max_distance_to_targets(&env.graph, env.t(i));
            let pct = analysis::distance_percentile(&env.graph, max_d, 12, 0x11);
            cells.push(pct);
        }
        print_row(spec.name, &cells);
    }
}

fn fig12(opts: &Opts) {
    println!(
        "== Fig 12: scalability of IterBoundI ==\n\
         (expect runtime to grow far slower than graph size; e.g. the paper\n\
          sees ≤ ~3× runtime for 40× nodes from SJ to USA)"
    );
    println!("-- Fig 12(a): vary dataset (T = T2, Q3, k = 20), ms/query --");
    print_header(
        "dataset",
        &[
            "n".into(),
            "ms/query".into(),
            "settled".into(),
            "spt".into(),
        ],
    );
    for spec in datasets::SIZE_SWEEP {
        let env = NestedEnv::new(spec, opts.sweep_scale);
        let targets = env.t(2).to_vec();
        let qs = env.query_sets(2, opts.per_group);
        let mut engine = QueryEngine::new(&env.graph).with_landmarks(&env.landmarks);
        let r = run_batch(
            &mut engine,
            Algorithm::IterBoundI,
            qs.group(3),
            &targets,
            20,
        );
        print!("{:>14}", spec.name);
        print!(" {:>10}", env.graph.node_count());
        print!(" {:>10.3}", r.ms_per_query());
        print!(" {:>10}", r.stats.nodes_settled / r.queries.max(1));
        println!(" {:>10}", r.stats.spt_nodes);
    }

    println!("-- Fig 12(b): vary k on COL (T = T2, Q3), ms/query --");
    let env = NestedEnv::new(datasets::COL, opts.scale);
    let targets = env.t(2).to_vec();
    let qs = env.query_sets(2, opts.per_group);
    let mut engine = QueryEngine::new(&env.graph).with_landmarks(&env.landmarks);
    let ks = [10usize, 50, 100, 200, 500];
    print_header("", &ks.map(|k| format!("k={k}")));
    let cells: Vec<f64> = ks
        .iter()
        .map(|&k| {
            run_batch(&mut engine, Algorithm::IterBoundI, qs.group(3), &targets, k).ms_per_query()
        })
        .collect();
    print_row("IterBoundI", &cells);
}

fn fig13(opts: &Opts) {
    println!(
        "== Fig 13: GKPJ on COL (|S| = 4 random sources) — DA-SPT vs IterBoundI ==\n\
         (expect ~2 orders of magnitude in favour of IterBoundI)"
    );
    let env = NestedEnv::new(datasets::COL, opts.scale);
    // Random 4-node source sets, one per "query", seeded.
    let n = env.graph.node_count() as u32;
    let source_sets: Vec<Vec<NodeId>> = (0..opts.per_group as u64)
        .map(|i| {
            (0..4u64)
                .map(|j| {
                    let h = (i * 4 + j + 1).wrapping_mul(0x9E3779B97F4A7C15);
                    (h % n as u64) as NodeId
                })
                .collect()
        })
        .collect();
    let mut engine = QueryEngine::new(&env.graph).with_landmarks(&env.landmarks);

    println!("-- Fig 13(a): vary |T| (T1..T4), k = 20, ms/query --");
    print_header(
        "algorithm",
        &(1..=4)
            .map(|i| format!("T{i}({})", env.t(i).len()))
            .collect::<Vec<_>>(),
    );
    for alg in [Algorithm::DaSpt, Algorithm::IterBoundI] {
        let cells: Vec<f64> = (1..=4)
            .map(|i| run_batch_multi(&mut engine, alg, &source_sets, env.t(i), 20).ms_per_query())
            .collect();
        print_row(alg.name(), &cells);
    }

    println!("-- Fig 13(b): vary k (T = T2), ms/query --");
    let targets = env.t(2).to_vec();
    print_header("algorithm", &[10, 20, 30, 50].map(|k| format!("k={k}")));
    for alg in [Algorithm::DaSpt, Algorithm::IterBoundI] {
        let cells: Vec<f64> = [10, 20, 30, 50]
            .iter()
            .map(|&k| run_batch_multi(&mut engine, alg, &source_sets, &targets, k).ms_per_query())
            .collect();
        print_row(alg.name(), &cells);
    }
}

/// Work-counter table (the Lemma 4.1 / Fig. 4 evidence in EXPERIMENTS.md):
/// per-query means of the `QueryStats` counters on CAL, T = Lake, Q3, k=20.
fn stats_table(opts: &Opts) {
    println!(
        "== Work counters per query: CAL scale {}, T=Lake, Q3, k=20 ==",
        opts.scale
    );
    let env = CalEnv::new(opts.scale, kpj_bench::DEFAULT_LANDMARKS);
    let targets = env.categories.members(env.cal.lake).to_vec();
    let qs = env.query_sets(env.cal.lake, opts.per_group);
    print_header(
        "algorithm",
        &[
            "sp-comps".into(),
            "testlb".into(),
            "settled".into(),
            "spt".into(),
            "subspaces".into(),
            "ms".into(),
        ],
    );
    let mut engine = QueryEngine::new(&env.graph).with_landmarks(&env.landmarks);
    for alg in Algorithm::ALL {
        let r = run_batch(&mut engine, alg, qs.group(3), &targets, 20);
        let q = r.queries.max(1);
        print!("{:>14}", alg.name());
        print!(" {:>10}", r.stats.shortest_path_computations / q);
        print!(" {:>10}", r.stats.testlb_calls / q);
        print!(" {:>10}", r.stats.nodes_settled / q);
        print!(" {:>10}", r.stats.spt_nodes);
        print!(" {:>10}", r.stats.subspaces_created / q);
        println!(" {:>10.3}", r.ms_per_query());
    }
}

/// Ablation report: Eq. (1) vs Eq. (2) tightness & cost, and landmark
/// selection strategy, on SJ (T = T3).
fn ablation(opts: &Opts) {
    use std::time::Instant;
    println!("== Ablation: Eq.(1) vs Eq.(2) bound tightness and cost (COL, T=T4) ==");
    let env = NestedEnv::new(datasets::COL, opts.scale);
    let targets = env.t(4).to_vec();
    let qb = env.landmarks.for_targets(&targets);
    let truth = kpj_sp::DenseDijkstra::to_targets(&env.graph, &targets);
    let probe: Vec<u32> = (0..env.graph.node_count() as u32).step_by(13).collect();

    let t0 = Instant::now();
    let sum2: u64 = probe.iter().map(|&v| qb.lb_to_targets(v)).sum();
    let t_eq2 = t0.elapsed();
    let t0 = Instant::now();
    let sum1: u64 = probe
        .iter()
        .map(|&v| qb.lb_to_targets_eq1(v, &targets))
        .sum();
    let t_eq1 = t0.elapsed();
    let sum_true: u64 = probe.iter().map(|&v| truth.dist(v)).sum();
    println!(
        "  tightness (sum of bounds / sum of true distances over {} nodes):",
        probe.len()
    );
    println!(
        "    Eq.(2): {:.4}   Eq.(1): {:.4}",
        sum2 as f64 / sum_true as f64,
        sum1 as f64 / sum_true as f64
    );
    println!(
        "  evaluation cost: Eq.(2) {:.2?} vs Eq.(1) {:.2?}  ({}x, |T| = {})",
        t_eq2,
        t_eq1,
        t_eq1.as_nanos().max(1) / t_eq2.as_nanos().max(1),
        targets.len()
    );

    println!("\n== Ablation: landmark selection strategy, IterBoundI (COL, T=T2, Q3, k=20) ==");
    let targets2 = env.t(2).to_vec();
    let qs = env.query_sets(2, opts.per_group);
    for strategy in [SelectionStrategy::Farthest, SelectionStrategy::Random] {
        let idx = LandmarkIndex::build(&env.graph, kpj_bench::DEFAULT_LANDMARKS, strategy, 0x5e1);
        let mut engine = QueryEngine::new(&env.graph).with_landmarks(&idx);
        let r = run_batch(
            &mut engine,
            Algorithm::IterBoundI,
            qs.group(3),
            &targets2,
            20,
        );
        println!(
            "  {:>9?}: {:>8.3} ms/query ({} settled/query)",
            strategy,
            r.ms_per_query(),
            r.stats.nodes_settled / r.queries.max(1)
        );
    }

    println!("\n== Ablation: Pascoal [24] vs Gao [14] candidate tests (COL, T=T2, Q3, k=20) ==");
    let mut engine = QueryEngine::new(&env.graph).with_landmarks(&env.landmarks);
    for alg in [Algorithm::DaSptPascoal, Algorithm::DaSpt] {
        let r = run_batch(&mut engine, alg, qs.group(3), &targets2, 20);
        println!(
            "  {:>11}: {:>8.3} ms/query ({} settled/query)",
            alg.name(),
            r.ms_per_query(),
            r.stats.nodes_settled / r.queries.max(1)
        );
    }

    // The related-work contrast (§1, [12, 19]): top-k *general* paths
    // (cycles allowed) are the classically easy problem; the simplicity
    // constraint is what the paper's machinery pays for.
    println!("\n== Ablation: simple vs general top-k (COL, T=T2, Q3, k=50) ==");
    let sources = qs.group(3);
    let t0 = Instant::now();
    for &s in sources {
        std::hint::black_box(kpj_core::general::top_k_walks(
            &env.graph,
            &[s],
            &targets2,
            50,
        ));
    }
    let walks_ms = t0.elapsed().as_secs_f64() * 1e3 / sources.len().max(1) as f64;
    let r = run_batch(&mut engine, Algorithm::IterBoundI, sources, &targets2, 50);
    println!("  general walks: {walks_ms:>8.3} ms/query");
    println!("  IterBoundI:    {:>8.3} ms/query", r.ms_per_query());
}
