//! `perfbench` — the serving benchmark of kpj.
//!
//! ```text
//! perfbench --workload road-unique|social-hot|road-churn --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's dataset, converts it to a v2 store and opens
//! it the way `kpj-serve --graph-bin` does (several times, reporting the
//! median set-up time), then drives `kpj_service::wire::handle_line` from
//! two closed-loop client threads for `S` seconds. Workloads without
//! update traffic then apply a fixed trace of update batches to the idle
//! service, for their update latency. Sampled answers are checked against
//! a fresh single-threaded engine on the unreduced graph.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` splits the `S`
//! seconds into an untraced and a traced half on fresh services over the
//! same store, replays the distinct queries on a bare engine, prints
//! the per-layer metrics with the tracing overhead, and writes every span
//! to a TSV file under the build directory.
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! The exit code is non-zero if any answer fails the check.

mod alloc;
mod check;
mod drive;
mod replay;
mod setup;
mod stats;
mod traffic;

use std::collections::HashSet;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use kpj_obs::Stage;
use kpj_service::{algorithm_index, gauge, KpjService, MetricsSnapshot};

use drive::{Ctx, Phase, Rec, Stop, Tracer, What};
use setup::Timings;
use stats::{mean, median, median_of, percentile};
use traffic::{Dataset, Op, Traffic, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Update batches a `road-churn` run must contain, and the size of the
/// groups update percentiles are taken over (a group's p90 then has ten
/// samples above it).
const MIN_UPDATES: u64 = 100;
/// Windows a timed phase is split into. Rates, latency percentiles and
/// memory are the median over windows, so a burst of interference from
/// other tenants of the machine moves one window, not the result.
const WINDOWS: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Per-workload load-generation settings.
struct Knobs {
    /// Set-ups per run; `setup_s` is their median. Cheap set-ups repeat
    /// more, so the median is not at the mercy of one scheduling hiccup.
    setups: usize,
    /// Untimed operations before measuring (fills the cache, warms the
    /// worker engines).
    warmup: u64,
    /// Keep one query answer in this many for the answer check.
    sample_every: u64,
    /// Update batches the idle-service probe applies after the timed
    /// phase (workloads whose traffic carries no updates).
    probe_updates: u64,
}

fn knobs(w: Workload) -> Knobs {
    match w {
        Workload::RoadUnique => Knobs {
            setups: 5,
            warmup: 200,
            sample_every: 8,
            probe_updates: 400,
        },
        Workload::SocialHot => Knobs {
            setups: 15,
            warmup: 16_384,
            sample_every: 64,
            // Sub-millisecond batches: more of them to steady the figure.
            probe_updates: 3_000,
        },
        Workload::RoadChurn => Knobs {
            setups: 5,
            warmup: 500,
            sample_every: 8,
            probe_updates: 0,
        },
    }
}

/// Build outputs live next to the binary: `<target>/perfbench-work`.
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("cannot locate the build directory")?;
    let dir = target.join("perfbench-work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Metric name, value, unit — printed in this order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Everything measured in one timed phase on one service.
struct Measured {
    /// Untimed warm-up records (part of the service's history).
    warm: Vec<Rec>,
    phase: Phase,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Measured {
    fn queries(&self) -> impl Iterator<Item = &Rec> {
        self.phase
            .recs
            .iter()
            .filter(|r| matches!(r.what, What::Query { .. }))
    }

    fn updates(&self) -> impl Iterator<Item = &Rec> {
        self.phase
            .recs
            .iter()
            .filter(|r| matches!(r.what, What::Update { .. }))
    }

    /// Cache hits over lookups during the timed phase.
    fn hit_share(&self) -> f64 {
        let (d, a) = (&self.before, &self.after);
        let lookups = (a.cache_hits + a.cache_shared + a.cache_misses)
            - (d.cache_hits + d.cache_shared + d.cache_misses);
        ratio(a.cache_hits - d.cache_hits, lookups)
    }

    /// Maps an instant to the window of the timed phase it falls in; also
    /// returns the window width in seconds.
    fn windows(&self) -> (impl Fn(u64) -> usize, f64) {
        let recs = &self.phase.recs;
        let start = recs.iter().map(|r| r.start_ns).min().unwrap_or(0);
        let end = recs.iter().map(|r| r.end_ns).max().unwrap_or(start);
        let width = (end - start).max(1) as f64 / WINDOWS as f64;
        let window =
            move |ns: u64| ((ns.saturating_sub(start) as f64 / width) as usize).min(WINDOWS - 1);
        (window, width / 1e9)
    }

    /// Completed queries per second: the median over windows.
    fn qps(&self) -> f64 {
        let (window, width_s) = self.windows();
        let mut done = [0usize; WINDOWS];
        for r in self.queries() {
            done[window(r.end_ns)] += 1;
        }
        median_of(&done.map(|n| n as f64 / width_s))
    }

    /// Query latency percentile `p`, ms: the median over windows of each
    /// window's percentile (by reply time).
    fn query_ms(&self, p: f64) -> Result<f64, String> {
        let (window, _) = self.windows();
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
        for r in self.queries() {
            per[window(r.end_ns)].push(r.latency_ms());
        }
        let each = per
            .iter()
            .map(|w| percentile(w, p))
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(median_of(&each))
    }

    /// Resident memory, MB: the median over windows of each window's peak.
    fn peak_rss_mb(&self) -> f64 {
        let (window, _) = self.windows();
        let mut peak = [0.0f64; WINDOWS];
        for &(ns, mb) in &self.phase.rss {
            let w = window(ns);
            peak[w] = peak[w].max(mb);
        }
        median_of(&peak)
    }
}

/// Warm up, then measure until `stop`. A traced phase warms up traced
/// too, so every answer the cache holds is known to the hit detection.
fn measure(ctx: &Ctx<'_>, knobs: &Knobs, stop: Stop, traced: bool) -> Measured {
    let warm = drive::run(ctx, 0, Stop::At(knobs.warmup), traced);
    let before = ctx.service.snapshot();
    let phase = drive::run(ctx, knobs.warmup, stop, traced);
    let after = ctx.service.snapshot();
    Measured {
        warm: warm.recs,
        phase,
        before,
        after,
    }
}

/// Update latency percentile `p`, ms: the batches, in send order, fall
/// into consecutive groups of at least [`MIN_UPDATES`]; the result is the
/// median of the groups' percentiles.
fn update_ms(updates: &[&Rec], p: f64) -> Result<f64, String> {
    let n = updates.len();
    let groups = (n / MIN_UPDATES as usize).max(1);
    let each = (0..groups)
        .map(|g| {
            let group = &updates[g * n / groups..(g + 1) * n / groups];
            percentile(&group.iter().map(|r| r.latency_ms()).collect::<Vec<_>>(), p)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median_of(&each))
}

/// The update batches a workload without update traffic is probed with.
fn probe_batches(data: &Dataset, knobs: &Knobs) -> Vec<Vec<kpj_graph::WeightUpdate>> {
    (0..knobs.probe_updates)
        .map(|j| traffic::trace_batch(&data.graph, j))
        .collect()
}

fn run(args: Args) -> Result<bool, String> {
    let w = args.workload;
    let knobs = knobs(w);
    let work = work_dir()?;
    let data = Dataset::generate(w);
    let traffic = Traffic::new(w, &data, args.seed);

    let mut setups: Vec<Timings> = Vec::new();
    let mut serving = None;
    for rep in 0..knobs.setups {
        // Only the last set-up serves; each earlier service (and its
        // worker threads) is dropped before the next is built.
        drop(serving.take());
        let path = work.join(format!("{}-{}-{rep}.kpj2", w.name(), std::process::id()));
        let (served, service, timings) = setup::set_up(w, &data, &path)?;
        setups.push(timings);
        serving = Some((served, service));
    }
    let (served, service) = serving.expect("at least one set-up");
    let setup_median =
        |f: fn(&Timings) -> f64| median_of(&setups.iter().map(f).collect::<Vec<_>>());
    eprintln!(
        "{}: set-up {:.3} s (median of {}), {} served nodes",
        w.name(),
        setup_median(|s| s.total_s),
        knobs.setups,
        served.graph.node_count()
    );

    let min_updates = if w == Workload::RoadChurn {
        MIN_UPDATES
    } else {
        0
    };
    if !args.trace {
        let ctx = Ctx::new(&service, &traffic, args.seed, knobs.sample_every);
        let stop = Stop::After {
            seconds: args.seconds,
            min_updates,
        };
        let m = measure(&ctx, &knobs, stop, false);
        let (probe, _) = drive::probe_updates(&ctx, probe_batches(&data, &knobs), false);
        let verdict = check::check(&traffic, &data.graph, &[&m.warm, &m.phase.recs])?;
        print_traffic(&traffic, &m, &setups);

        let updates: Vec<&Rec> = m.updates().chain(&probe).collect();
        let attempted = m.phase.recs.len() + probe.len();
        let failed =
            m.phase.recs.iter().chain(&probe).filter(|r| !r.ok).count() + verdict.mismatches.len();
        let metrics: Metrics = vec![
            ("qps", m.qps(), "1/s"),
            ("query_p50_ms", m.query_ms(0.5)?, "ms"),
            ("query_p95_ms", m.query_ms(0.95)?, "ms"),
            ("update_p50_ms", update_ms(&updates, 0.5)?, "ms"),
            ("update_p90_ms", update_ms(&updates, 0.9)?, "ms"),
            ("ok_ratio", 1.0 - failed as f64 / attempted as f64, "ratio"),
            ("setup_s", setup_median(|s| s.total_s), "s"),
            ("peak_rss_mb", m.peak_rss_mb(), "MB"),
        ];
        return finish(&verdict, attempted, failed, &metrics);
    }

    // Traced: an untraced half, then a traced half replaying the same
    // operations on a fresh service over the same mapped store.
    let half = args.seconds / 2.0;
    let stop = Stop::After {
        seconds: half,
        min_updates: 0,
    };
    let plain = {
        let ctx = Ctx::new(&service, &traffic, args.seed, knobs.sample_every);
        measure(&ctx, &knobs, stop, false)
    };
    drop(service);
    let service = served.service();
    let ctx = Ctx::new(&service, &traffic, args.seed, knobs.sample_every);
    let evictions_before = service.metrics().gauges().get(gauge::CACHE_EVICTIONS);
    let queue_before = queue_wait(&service, &traffic);
    let traced = measure(&ctx, &knobs, stop, true);
    let evictions = service.metrics().gauges().get(gauge::CACHE_EVICTIONS) - evictions_before;
    let queue_after = queue_wait(&service, &traffic);
    let (probe, probe_tracer) = drive::probe_updates(&ctx, probe_batches(&data, &knobs), true);
    let mut replay_tracer = Tracer::default();
    let replayed = replay::replay(
        &served,
        &traffic,
        &traced.phase.recs,
        &mut replay_tracer,
        ctx.origin,
    )?;

    let mut verdict = check::check(&traffic, &data.graph, &[&plain.warm, &plain.phase.recs])?;
    let second = check::check(&traffic, &data.graph, &[&traced.warm, &traced.phase.recs])?;
    verdict.checked += second.checked;
    verdict.mismatches.extend(second.mismatches);
    print_traffic(&traffic, &plain, &setups);

    let spans = work.join(format!("spans-{}-seed{}.tsv", w.name(), args.seed));
    let mut tracers: Vec<&Tracer> = traced.phase.tracers.iter().collect();
    tracers.push(&probe_tracer);
    tracers.push(&replay_tracer);
    write_spans(&spans, &tracers)?;
    println!("spans: {}", spans.display());

    let layers = traced
        .phase
        .recs
        .iter()
        .chain(&probe)
        .filter_map(|r| r.layers.as_ref().map(|l| (r, l)));
    let (mut parse, mut encode, mut bytes, mut hit_us, mut miss_over) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut apply, mut repair, mut affected, mut purged) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (r, l) in layers {
        parse.push(l.parse_ns as f64 / 1e3);
        match r.what {
            What::Query { key, .. } => {
                bytes.push(l.bytes as f64);
                encode.extend(l.encode_ns.map(|ns| ns as f64 / 1e3));
                let exec_us = l.exec_ns as f64 / 1e3;
                if l.hit {
                    hit_us.push(exec_us);
                } else if let Some(engine_us) = replayed.query_us.get(&key) {
                    miss_over.push(exec_us - engine_us);
                }
            }
            What::Update { .. } => {
                apply.push(l.exec_ns as f64 / 1e6);
                repair.push(l.repair_us as f64 / 1e3);
                affected.push(l.affected_nodes as f64);
                purged.push(l.cache_purged as f64);
            }
        }
    }
    let engine_us: Vec<f64> = replayed.query_us.values().copied().collect();
    let stage = |i: usize| mean(&replayed.stage_us.iter().map(|s| s[i]).collect::<Vec<_>>());
    let per_query = |f: fn(&kpj_core::QueryStats) -> usize| {
        mean(
            &replayed
                .stats
                .iter()
                .map(|s| f(s) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let subspaces: usize = replayed.stats.iter().map(|s| s.subspaces_created).sum();
    let (d, a) = (&traced.before, &traced.after);
    let traced_p50 = traced.query_ms(0.5)?;
    let plain_p50 = plain.query_ms(0.5)?;

    let metrics: Metrics = vec![
        ("wire.parse_us", mean(&parse), "us"),
        ("wire.encode_us", mean(&encode), "us"),
        ("wire.response_bytes", mean(&bytes), "bytes"),
        ("service.hit_us", mean(&hit_us), "us"),
        ("service.miss_overhead_us", mean(&miss_over), "us"),
        ("cache.hit_ratio", traced.hit_share(), "ratio"),
        (
            "cache.shared",
            (a.cache_shared - d.cache_shared) as f64,
            "count",
        ),
        ("cache.evictions", evictions as f64, "count"),
        (
            "pool.queue_wait_us",
            ratio(
                queue_after.0 - queue_before.0,
                queue_after.1 - queue_before.1,
            ),
            "us",
        ),
        ("pool.rejected", (a.rejected - d.rejected) as f64, "count"),
        ("engine.query_us_p50", median(&engine_us)?, "us"),
        ("engine.query_us_p95", percentile(&engine_us, 0.95)?, "us"),
        ("engine.spt_build_us", stage(0), "us"),
        ("engine.sp_search_us", stage(1), "us"),
        ("engine.deviation_round_us", stage(2), "us"),
        ("engine.landmark_bounds_us", stage(3), "us"),
        (
            "engine.nodes_settled",
            per_query(|s| s.nodes_settled),
            "count",
        ),
        (
            "engine.edges_relaxed",
            per_query(|s| s.edges_relaxed),
            "count",
        ),
        ("engine.heap_pops", per_query(|s| s.heap_pops), "count"),
        (
            "engine.sp_computations",
            per_query(|s| s.shortest_path_computations),
            "count",
        ),
        (
            "engine.subspaces_created",
            per_query(|s| s.subspaces_created),
            "count",
        ),
        ("engine.lb_prunes", per_query(|s| s.lb_prunes), "count"),
        (
            "engine.sidetrack_repairs",
            per_query(|s| s.sidetrack_repairs),
            "count",
        ),
        (
            "engine.paths_per_subspace",
            ratio(
                replayed.paths.iter().sum::<usize>() as u64,
                subspaces as u64,
            ),
            "ratio",
        ),
        (
            "engine.allocs_per_query",
            mean(
                &replayed
                    .allocs
                    .iter()
                    .map(|&n| n as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        ("update.apply_ms", mean(&apply), "ms"),
        ("update.repair_ms", mean(&repair), "ms"),
        ("update.copy_ms", mean(&apply) - mean(&repair), "ms"),
        ("update.affected_nodes", mean(&affected), "count"),
        ("update.cache_purged", mean(&purged), "count"),
        (
            "epoch.live_peak",
            service.metrics().gauges().peak(gauge::LIVE_EPOCHS) as f64,
            "count",
        ),
        ("landmark.build_s", setup_median(|s| s.landmark_s), "s"),
        ("reduce.build_s", setup_median(|s| s.reduce_s), "s"),
        ("reduce.node_ratio", setup_median(|s| s.node_ratio), "ratio"),
        ("reduce.arc_ratio", setup_median(|s| s.arc_ratio), "ratio"),
        ("store.write_s", setup_median(|s| s.write_s), "s"),
        ("store.open_ms", setup_median(|s| s.open_ms), "ms"),
        ("store.file_bytes", setup_median(|s| s.file_bytes), "bytes"),
        ("trace.qps_diff", traced.qps() - plain.qps(), "1/s"),
        ("trace.query_p50_diff_ms", traced_p50 - plain_p50, "ms"),
    ];
    eprintln!(
        "{}: tracing overhead: qps {:.1} -> {:.1}, query p50 {:.4} -> {:.4} ms",
        w.name(),
        plain.qps(),
        traced.qps(),
        plain_p50,
        traced_p50
    );

    let attempted = plain.phase.recs.len() + traced.phase.recs.len() + probe.len();
    let failed = plain
        .phase
        .recs
        .iter()
        .chain(&traced.phase.recs)
        .chain(&probe)
        .filter(|r| !r.ok)
        .count()
        + verdict.mismatches.len();
    finish(&verdict, attempted, failed, &metrics)
}

/// `(sum_us, count)` of the pool's queue-wait histogram for the stream's
/// algorithm.
fn queue_wait(service: &KpjService, traffic: &Traffic) -> (u64, u64) {
    let h = service
        .metrics()
        .registry()
        .histogram(algorithm_index(traffic.algorithm), Stage::QueueWait);
    (h.sum_us(), h.count())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Print, as one `traffic:` line, the measured share of the timed
/// traffic with each property a workload exists for: distinct queries,
/// cache hits, updates (and edges per batch), the reduction's node and
/// arc ratios, and the Q1–Q5 mix.
fn print_traffic(traffic: &Traffic, m: &Measured, setups: &[Timings]) {
    let mut keys = HashSet::new();
    let mut groups = [0usize; traffic::GROUPS];
    let mut queries = 0;
    for r in m.queries() {
        if let What::Query { key, group, .. } = r.what {
            queries += 1;
            keys.insert(key);
            if let Some(g) = group {
                groups[g as usize] += 1;
            }
        }
    }
    let edges: Vec<f64> = m
        .updates()
        .map(|r| match traffic.op(r.index) {
            Op::Update(batch) => batch.len() as f64,
            Op::Query { .. } => unreachable!("update records come from update ops"),
        })
        .collect();
    let last = setups.last().expect("at least one set-up");
    let q = queries as f64;
    let mut line = format!(
        "traffic: distinct_share={:.4} hit_share={:.4} update_share={:.4} edges_per_batch={:.2} \
         node_ratio={:.4} arc_ratio={:.4} q_mix=",
        keys.len() as f64 / q,
        m.hit_share(),
        edges.len() as f64 / m.phase.recs.len() as f64,
        mean(&edges),
        last.node_ratio,
        last.arc_ratio,
    );
    for (i, n) in groups.iter().enumerate() {
        let sep = if i == 0 { "" } else { "/" };
        let _ = write!(line, "{sep}{:.3}", *n as f64 / q);
    }
    println!("{line}");
}

/// Write every span as `id parent request name start_ns end_ns` (TSV);
/// ids are `client.index`.
fn write_spans(path: &std::path::Path, tracers: &[&Tracer]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (c, t) in tracers.iter().enumerate() {
            for (j, s) in t.spans.iter().enumerate() {
                let parent = s.parent.map_or("-".to_string(), |p| format!("{c}.{p}"));
                writeln!(
                    out,
                    "{c}.{j}\t{parent}\t{}\t{}\t{}\t{}",
                    s.request, s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        out.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}

/// Print the result line; `Ok(false)` when an answer failed the check.
fn finish(
    verdict: &check::Verdict,
    attempted: usize,
    failed: usize,
    metrics: &Metrics,
) -> Result<bool, String> {
    let correct = verdict.mismatches.is_empty();
    if !correct {
        eprintln!(
            "answer check: {} of {} answers match no epoch of their window (ops {:?})",
            verdict.mismatches.len(),
            verdict.checked,
            verdict.mismatches
        );
    } else {
        eprintln!(
            "answer check: {} answers match the reference",
            verdict.checked
        );
    }
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
    Ok(correct)
}
