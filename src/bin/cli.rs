//! `kpj-cli` — run KPJ/KSP/GKPJ queries from the command line.
//!
//! ```sh
//! # Generate a synthetic road network (v2 graph file) + categories:
//! kpj-cli generate --dataset SJ --scale 0.2 --out sj.kpj
//! kpj-cli pois --graph sj.kpj --kind nested --out sj.cats
//!
//! # Embed a 16-landmark index (the offline phase) in a new v2 file:
//! kpj-cli convert --graph sj.kpj --out sj-lm.kpj --landmarks 16
//!
//! # Query: top-20 shortest paths from node 17 to category T2:
//! kpj-cli query --graph sj-lm.kpj --categories sj.cats \
//!               --source 17 --category T2 -k 20 --algorithm iterboundi
//!
//! # Or with explicit target nodes, any algorithm, GKPJ sources:
//! kpj-cli query --graph sj.kpj --sources 17,99 --targets 3,5,1020 -k 10
//!
//! # Inspect a graph file:
//! kpj-cli info --graph sj.kpj
//! ```
//!
//! Graph files are page-aligned v2 files (`kpj_store`), or DIMACS `.gr`
//! text detected by extension; category files use the text format
//! (`<name> <node>…` per line).

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use kpj::prelude::*;
use kpj::workload::{datasets::DatasetSpec, poi, road::RoadConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(cmd, rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "generate" => generate(&opts),
        "pois" => pois(&opts),
        "convert" => convert(&opts),
        "query" => query(&opts),
        "update" => update(&opts),
        "top" => top(&opts),
        "info" => info(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
kpj-cli — top-k shortest path join queries

commands:
  generate  --out FILE (--dataset NAME --scale S | --nodes N --arcs M) [--seed S]
  pois      --graph FILE --out FILE [--kind nested|cal] [--seed S]
  convert   --graph FILE --out FILE [--reduce [--keep a,b,c]]
            [--reorder] [--landmarks N] [--categories FILE] [--seed S]
            (write the page-aligned v2 format: zero-copy mmap on load,
             optional graph reduction — degree-2 chain contraction plus
             V_S/V_T pruning around the --keep ids and category members —
             optional BFS locality reorder, embedded landmark tables)
  query     --graph FILE (--targets a,b,c | --categories FILE --category NAME)
            (--source N | --sources a,b) [-k N] [--algorithm NAME]
            [--alpha F] [--timeout-ms MS] [--stats]
            [--metrics]   (print the per-stage registry, Prometheus text)
  update    --edge U,V,W [--edge U,V,W]… | --file FILE   [--addr HOST:PORT]
            (re-weight edges on a running kpj-serve; every parallel copy
             of (U,V) gets weight W and a new graph epoch is published.
             FILE holds one `U V W` triple per line, `#` comments ok)
  top       [--addr HOST:PORT] [--interval-ms MS] [--once]
            (live ops dashboard over a running kpj-serve's status verb:
             epochs, pool, cache, throughput, latency and the structured
             event journal, redrawn every MS [default: 1000]; --once
             prints a single snapshot and exits — CI-friendly)
  info      --graph FILE

Graph files: v2 files (written by generate and convert) open zero-copy
(mmap); DIMACS `.gr` files, detected by extension, load onto the heap.
A v2 file's embedded landmarks are used by query, and node ids on the
command line are always *original* ids even when the file is
locality-reordered or reduced
(reduced files re-expand every answer path to original ids; querying a
contracted node is an error — rebuild with --keep to retain it).

algorithms: da, da-spt, da-pascoal, bestfirst, iterbound, iterboundp,
            iterboundi (default), sidetrack";

/// Parsed `--key value` options (order-insensitive).
struct Opts(Vec<(String, String)>);

impl Opts {
    /// Parse `cmd`'s options, rejecting any key that its USAGE entry does
    /// not list (`-k` is the key `k`) before reading a value for it, so a
    /// misspelt option fails by name instead of being ignored or
    /// swallowing the next argument. Unknown commands pass through to
    /// the dispatcher's own error.
    fn parse(cmd: &str, args: &[String]) -> Result<Opts, String> {
        let allowed = usage_options(cmd);
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .or_else(|| a.strip_prefix('-'))
                .ok_or_else(|| format!("expected an option, got `{a}`"))?;
            if allowed.as_ref().is_some_and(|keys| !keys.contains(&key)) {
                return Err(format!("unknown option --{key} for {cmd}"));
            }
            let flag_only = matches!(key, "stats" | "metrics" | "reorder" | "reduce" | "once");
            let value = if flag_only {
                "true".to_string()
            } else {
                it.next()
                    .ok_or_else(|| format!("missing value for --{key}"))?
                    .clone()
            };
            out.push((key.to_string(), value));
        }
        Ok(Opts(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every occurrence of a repeatable option, in command-line order.
    fn get_all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.0
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number `{v}`")),
        }
    }

    fn node_list(&self, key: &str) -> Result<Option<Vec<NodeId>>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse()
                        .map_err(|_| format!("--{key}: bad node id `{t}`"))
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
        }
    }
}

/// The option keys `cmd`'s USAGE entry lists: every `--key` (and `-k`)
/// on its lines, continuation lines included. `None` if USAGE has no
/// entry for `cmd`.
fn usage_options(cmd: &str) -> Option<Vec<&'static str>> {
    let mut lines = USAGE.lines().skip_while(|l| !l.starts_with("commands:"));
    let first = lines.find(|l| {
        l.strip_prefix("  ")
            .is_some_and(|l| l.split(' ').next() == Some(cmd))
    })?;
    let entry = std::iter::once(first).chain(lines.take_while(|l| l.starts_with("    ")));
    let keys = entry
        .flat_map(|l| l.split(|c: char| c.is_whitespace() || "[]()|".contains(c)))
        .filter_map(|t| match t {
            "-k" => Some("k"),
            _ => t.strip_prefix("--"),
        })
        .collect();
    Some(keys)
}

/// Open a graph file as a [`kpj::store::StoreBundle`]: DIMACS `.gr`
/// lands on the heap, anything else is opened as v2 and mmapped
/// zero-copy together with its embedded sidecars (categories, landmark
/// tables, reorder permutation, reduction).
fn load_bundle(path: &str) -> Result<kpj::store::StoreBundle, String> {
    if path.ends_with(".gr") {
        let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let g = kpj::graph::io::read_dimacs_gr(BufReader::new(f))
            .map_err(|e| format!("{path}: {e}"))?;
        return Ok(kpj::store::StoreBundle::from_heap_graph(g));
    }
    kpj::store::open_v2(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

fn load_graph(path: &str) -> Result<Graph, String> {
    Ok(load_bundle(path)?.graph)
}

fn generate(o: &Opts) -> Result<(), String> {
    let out = o.require("out")?;
    let seed: u64 = o.num("seed", 42)?;
    let g = if let Some(name) = o.get("dataset") {
        let spec = DatasetSpec::by_name(name)
            .ok_or_else(|| format!("unknown dataset `{name}` (CAL/SJ/SF/COL/FLA/USA)"))?;
        let scale: f64 = o.num("scale", 0.1)?;
        spec.generate(scale)
    } else {
        let nodes: usize = o.num("nodes", 0)?;
        let arcs: usize = o.num("arcs", 0)?;
        if nodes == 0 {
            return Err("need --dataset or --nodes/--arcs".into());
        }
        RoadConfig {
            nodes,
            arcs,
            base_weight: 1_000,
            seed,
        }
        .generate()
    };
    kpj::store::write_store_to_path(std::path::Path::new(out), &g, None, None, None, None)
        .map_err(|e| format!("{out}: {e}"))?;
    println!(
        "wrote {} ({} nodes, {} arcs)",
        out,
        g.node_count(),
        g.edge_count()
    );
    Ok(())
}

fn pois(o: &Opts) -> Result<(), String> {
    let g = load_graph(o.require("graph")?)?;
    let out = o.require("out")?;
    let seed: u64 = o.num("seed", 42)?;
    let mut idx = CategoryIndex::new();
    match o.get("kind").unwrap_or("nested") {
        "nested" => {
            poi::generate_nested_pois(&mut idx, g.node_count(), seed);
        }
        "cal" => {
            poi::generate_cal_categories(&mut idx, g.node_count(), seed);
        }
        other => return Err(format!("unknown --kind `{other}` (nested|cal)")),
    }
    let f = File::create(out).map_err(|e| format!("{out}: {e}"))?;
    kpj::graph::io::write_categories(&idx, BufWriter::new(f)).map_err(|e| e.to_string())?;
    println!("wrote {} ({} categories)", out, idx.category_count());
    Ok(())
}

/// `convert`: rewrite a graph file into a new v2 file, optionally
/// reducing it, BFS-reordering it for cache locality and embedding
/// landmark tables, so `kpj-serve --graph-bin` cold-starts zero-copy from
/// mmap.
fn convert(o: &Opts) -> Result<(), String> {
    let input = o.require("graph")?;
    let out = o.require("out")?;
    let seed: u64 = o.num("seed", 42)?;
    let bundle = load_bundle(input)?;
    let (mut graph, mut landmarks, mut remap) = (bundle.graph, bundle.landmarks, bundle.remap);
    let mut reduction = bundle.reduction;

    let mut categories = match o.get("categories") {
        None => bundle.categories,
        Some(path) => {
            let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
            Some(
                kpj::graph::io::read_categories(BufReader::new(f), graph.node_count())
                    .map_err(|e| e.to_string())?,
            )
        }
    };

    if o.get("reduce").is_some() {
        if reduction.is_some() {
            return Err(format!("{input} is already reduced"));
        }
        if remap.is_some() {
            return Err(format!(
                "{input} is locality-reordered; re-convert the original file \
                 with --reduce --reorder (reduction runs on original ids)"
            ));
        }
        // V_S/V_T keep set: explicit --keep ids plus every category member
        // (so category queries keep working on the reduced file).
        let mut keep: Vec<NodeId> = o.node_list("keep")?.unwrap_or_default();
        if let Some(c) = &categories {
            for (_, _, members) in c.iter() {
                keep.extend_from_slice(members);
            }
        }
        keep.sort_unstable();
        keep.dedup();
        if let Some(&v) = keep.iter().find(|&&v| (v as usize) >= graph.node_count()) {
            return Err(format!("--keep: node id {v} out of range"));
        }
        if keep.is_empty() {
            eprintln!("note: no --keep ids or categories; contracting without V_S/V_T pruning");
        }
        let (n0, m0) = (graph.node_count(), graph.edge_count());
        let red = kpj::graph::reduce(&graph, &keep, &keep);
        // Embedded landmark tables describe the unreduced graph; drop
        // them (pass --landmarks N to rebuild on the reduced one).
        landmarks = None;
        categories = categories.map(|c| {
            let mut out = CategoryIndex::new();
            for (_, name, members) in c.iter() {
                let translated = members
                    .iter()
                    .map(|&v| {
                        red.reduction
                            .to_reduced(v)
                            .expect("category members are keep nodes")
                    })
                    .collect();
                out.add_category(name, translated);
            }
            out
        });
        graph = red.graph;
        println!(
            "reduced {n0} -> {} nodes, {m0} -> {} arcs ({} shortcuts, {} interior nodes)",
            graph.node_count(),
            graph.edge_count(),
            red.reduction.shortcut_count(),
            red.reduction.interior_count(),
        );
        reduction = Some(red.reduction);
    }

    if o.get("reorder").is_some() {
        if remap.is_some() {
            return Err(format!("{input} is already locality-reordered"));
        }
        let r = kpj::store::reorder(&graph);
        categories = categories.map(|c| kpj::store::remap_categories(&c, &r.remap));
        landmarks = landmarks.map(|l| kpj::store::remap_landmarks(&l, &r.remap));
        match reduction.as_mut() {
            // Fold the reorder into the reduction: the file then maps
            // original ids straight to the reordered reduced ids and
            // carries no separate remap sections.
            Some(red) => *red = kpj::store::remap_reduction(red, &graph, &r),
            None => remap = Some(r.remap),
        }
        graph = r.graph;
    }

    if let Some(count) = o.get("landmarks") {
        let count: usize = count
            .parse()
            .map_err(|_| format!("--landmarks: bad number `{count}`"))?;
        landmarks = (count > 0)
            .then(|| LandmarkIndex::build(&graph, count, SelectionStrategy::Farthest, seed));
    }

    kpj::store::write_store_to_path(
        std::path::Path::new(out),
        &graph,
        categories.as_ref(),
        landmarks.as_ref(),
        remap.as_ref(),
        reduction.as_ref(),
    )
    .map_err(|e| format!("{out}: {e}"))?;
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {out} (v2, {} nodes, {} arcs, {bytes} bytes{}{}{}{})",
        graph.node_count(),
        graph.edge_count(),
        if reduction.is_some() { ", reduced" } else { "" },
        if remap.is_some() { ", reordered" } else { "" },
        match &landmarks {
            Some(l) => format!(", {} landmarks", l.len()),
            None => String::new(),
        },
        match &categories {
            Some(c) => format!(", {} categories", c.category_count()),
            None => String::new(),
        },
    );
    Ok(())
}

fn query(o: &Opts) -> Result<(), String> {
    let bundle = load_bundle(o.require("graph")?)?;
    let g = bundle.graph;

    // Reordered or reduced v2 files: the command line (and any category
    // file) speak *original* ids; translate to the file's internal ids
    // below. Reordered answers are translated back when printing; reduced
    // answers are re-expanded to original ids by the engine itself.
    let translation = if let Some(red) = bundle.reduction {
        kpj::graph::IdTranslation::Reduce(std::sync::Arc::new(red))
    } else if let Some(r) = bundle.remap {
        kpj::graph::IdTranslation::Remap(std::sync::Arc::new(r))
    } else {
        kpj::graph::IdTranslation::Identity
    };
    let external_nodes = translation.external_node_count().unwrap_or(g.node_count());

    // Targets: explicit list or a named category from a category file.
    let targets: Vec<NodeId> = if let Some(t) = o.node_list("targets")? {
        t
    } else {
        let cat_file = o
            .require("categories")
            .map_err(|_| "need --targets a,b,c or --categories FILE --category NAME".to_string())?;
        let name = o.require("category")?;
        let f = File::open(cat_file).map_err(|e| format!("{cat_file}: {e}"))?;
        let idx = kpj::graph::io::read_categories(BufReader::new(f), external_nodes)
            .map_err(|e| e.to_string())?;
        let cat = idx
            .find_by_name(name)
            .ok_or_else(|| format!("category `{name}` not in {cat_file}"))?;
        idx.members(cat).to_vec()
    };

    let mut sources: Vec<NodeId> = if let Some(s) = o.node_list("sources")? {
        s
    } else {
        vec![o.num::<NodeId>("source", NodeId::MAX)?]
    };
    if sources == [NodeId::MAX] {
        return Err("need --source N or --sources a,b".into());
    }

    let mut targets = targets;
    for v in sources.iter_mut().chain(targets.iter_mut()) {
        *v = translation.to_engine(*v).map_err(|e| e.to_string())?;
    }

    let k: usize = o.num("k", 20)?;
    let alg: Algorithm = o.get("algorithm").unwrap_or("iterboundi").parse()?;

    // A v2 file's embedded landmark tables are already in internal ids
    // and sized to the graph (`open_v2` checks the table length).
    let lm = bundle.landmarks;
    let mut engine = QueryEngine::new(&g);
    if let Some(red) = translation.reduction() {
        engine = engine.with_reduction(red);
    }
    if let Some(idx) = &lm {
        engine = engine.with_landmarks(idx);
    }
    if let Some(a) = o.get("alpha") {
        let alpha: f64 = a
            .parse()
            .map_err(|_| format!("--alpha: bad number `{a}`"))?;
        if alpha <= 1.0 {
            return Err("--alpha must exceed 1".into());
        }
        engine = engine.with_alpha(alpha);
    }

    // Per-query budget: expired deadlines abort cleanly with an error
    // instead of running arbitrarily long on hard instances.
    let deadline = match o.get("timeout-ms") {
        None => kpj::core::Deadline::none(),
        Some(ms) => {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("--timeout-ms: bad number `{ms}`"))?;
            kpj::core::Deadline::after(std::time::Duration::from_millis(ms))
        }
    };

    let t0 = std::time::Instant::now();
    let r = engine
        .query_multi_deadline(alg, &sources, &targets, k, deadline)
        .map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed();

    let ext = |v: NodeId| translation.output_remap().map_or(v, |r| r.to_external(v));
    for (i, p) in r.paths.iter().enumerate() {
        let nodes: Vec<String> = p.nodes.iter().map(|&v| ext(v).to_string()).collect();
        println!("P{} len={} : {}", i + 1, p.length, nodes.join(" "));
    }
    eprintln!(
        "{} paths in {:.3?} with {} ({} nodes settled)",
        r.paths.len(),
        elapsed,
        alg.name(),
        r.stats.nodes_settled
    );
    if o.get("stats").is_some() {
        eprintln!("{:#?}", r.stats);
    }
    if o.get("metrics").is_some() {
        // Fold this query's span trace and work counters into a fresh
        // registry and print the same Prometheus text `kpj-serve` exposes.
        let metrics = kpj::service::Metrics::new();
        metrics.absorb_stats(alg, &r.stats);
        metrics.record_stage(alg, kpj::obs::Stage::Total, elapsed);
        let row = kpj::service::algorithm_index(alg);
        let (older, newer) = engine.trace_spans();
        for span in older.iter().chain(newer) {
            metrics.registry().record_ns(row, span.stage, span.dur_ns);
        }
        let mut text = String::new();
        metrics.render_prometheus(&mut text);
        print!("{text}");
    }
    Ok(())
}

/// `update`: push a weight-update batch to a running `kpj-serve` over the
/// NDJSON wire (`{"op":"update","edges":[[u,v,w],…]}`). The server
/// publishes a new graph epoch, repairs its landmark tables
/// incrementally, and reports what changed; in-flight queries finish on
/// the epoch they pinned at admission, so there is no downtime.
fn update(o: &Opts) -> Result<(), String> {
    use std::io::{BufRead, Write};

    let addr = o.get("addr").unwrap_or("127.0.0.1:7878");
    let mut edges: Vec<(NodeId, NodeId, u32)> = Vec::new();
    for spec in o.get_all("edge") {
        let parts: Vec<&str> = spec.split(',').map(str::trim).collect();
        let [u, v, w] = parts.as_slice() else {
            return Err(format!("--edge: expected U,V,W, got `{spec}`"));
        };
        let parse = |t: &str, what: &str| -> Result<u64, String> {
            t.parse::<u64>()
                .map_err(|_| format!("--edge {spec}: bad {what} `{t}`"))
        };
        edges.push((
            NodeId::try_from(parse(u, "node id")?)
                .map_err(|_| format!("--edge {spec}: node id `{u}` out of range"))?,
            NodeId::try_from(parse(v, "node id")?)
                .map_err(|_| format!("--edge {spec}: node id `{v}` out of range"))?,
            u32::try_from(parse(w, "weight")?)
                .map_err(|_| format!("--edge {spec}: weight `{w}` out of range"))?,
        ));
    }
    if let Some(path) = o.get("file") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [u, v, w] = fields.as_slice() else {
                return Err(format!("{path}:{}: expected `U V W`", lineno + 1));
            };
            let bad = |t: &str| format!("{path}:{}: bad number `{t}`", lineno + 1);
            edges.push((
                u.parse().map_err(|_| bad(u))?,
                v.parse().map_err(|_| bad(v))?,
                w.parse().map_err(|_| bad(w))?,
            ));
        }
    }
    if edges.is_empty() {
        return Err("update: need at least one --edge U,V,W or --file FILE".into());
    }

    let body = edges
        .iter()
        .map(|&(u, v, w)| format!("[{u},{v},{w}]"))
        .collect::<Vec<_>>()
        .join(",");
    let request = format!("{{\"id\":1,\"op\":\"update\",\"edges\":[{body}]}}");

    let stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);
    writer
        .write_all(request.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(|e| format!("{addr}: {e}"))?;
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("{addr}: {e}"))?;
    if line.trim().is_empty() {
        return Err(format!("{addr}: server closed the connection"));
    }
    let reply = kpj::service::json::Json::parse(line.trim())
        .map_err(|e| format!("{addr}: malformed response: {e}"))?;
    use kpj::service::json::Json;
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = reply
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        let msg = reply.get("message").and_then(Json::as_str).unwrap_or("");
        return Err(format!("server rejected the update: {code} {msg}"));
    }
    let field = |k: &str| reply.get(k).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "epoch {} published: {} edge weight(s) changed, distance repair {} us \
         ({} nodes touched), {} stale cache entries purged",
        field("epoch"),
        field("changed"),
        field("repair_us"),
        field("affected_nodes"),
        field("cache_purged"),
    );
    if field("changed") == 0 {
        println!("(all weights were already current: no new epoch was needed)");
    }
    Ok(())
}

/// `top`: a refreshing terminal dashboard over a running `kpj-serve`.
/// Polls `{"op":"status"}` on one persistent connection and renders the
/// gauges, throughput (with a rate derived from consecutive snapshots),
/// latency quantiles and the event-journal tail. `--once` prints a
/// single snapshot without clearing the screen, so CI can grep the
/// output (`live=`, `queue=` tokens).
fn top(o: &Opts) -> Result<(), String> {
    use std::io::{BufRead, Write};

    let addr = o.get("addr").unwrap_or("127.0.0.1:7878");
    let once = o.get("once").is_some();
    let interval: u64 = o.num("interval-ms", 1_000)?;

    let stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);

    let mut id = 0u64;
    // Previous (instant, cumulative query count) for the rate readout.
    let mut prev: Option<(std::time::Instant, u64)> = None;
    loop {
        id += 1;
        writer
            .write_all(format!("{{\"id\":{id},\"op\":\"status\"}}\n").as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| format!("{addr}: {e}"))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("{addr}: {e}"))?;
        if line.trim().is_empty() {
            return Err(format!("{addr}: server closed the connection"));
        }
        use kpj::service::json::Json;
        let reply = Json::parse(line.trim()).map_err(|e| format!("{addr}: malformed: {e}"))?;
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{addr}: status failed: {}", line.trim()));
        }
        let status = reply
            .get("status")
            .ok_or_else(|| format!("{addr}: response carries no status object"))?;

        let now = std::time::Instant::now();
        let queries = status
            .get("throughput")
            .and_then(|t| t.get("queries"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let rate = prev.map(|(t, q)| {
            let dt = now.duration_since(t).as_secs_f64();
            if dt > 0.0 {
                queries.saturating_sub(q) as f64 / dt
            } else {
                0.0
            }
        });
        prev = Some((now, queries));

        let mut screen = String::new();
        render_status(&mut screen, addr, status, rate);
        if once {
            print!("{screen}");
            std::io::stdout().flush().ok();
            return Ok(());
        }
        // Clear + home, then the frame in one write: no flicker.
        print!("\x1b[2J\x1b[H{screen}");
        std::io::stdout().flush().ok();
        std::thread::sleep(std::time::Duration::from_millis(interval.max(100)));
    }
}

/// Render one `status` snapshot as the `top` dashboard frame.
fn render_status(out: &mut String, addr: &str, s: &kpj::service::json::Json, rate: Option<f64>) {
    use kpj::service::json::Json;
    use std::fmt::Write as _;

    // Missing fields render as 0 rather than failing: an older server is
    // still monitorable with a newer CLI.
    let u = |path: &[&str]| -> u64 {
        let mut cur = s;
        for key in path {
            match cur.get(key) {
                Some(v) => cur = v,
                None => return 0,
            }
        }
        cur.as_u64().unwrap_or(0)
    };

    let _ = writeln!(
        out,
        "kpj-serve {addr} — up {}s, status snapshot #{}",
        u(&["uptime_s"]),
        u(&["snapshot_seq"]),
    );
    let _ = writeln!(
        out,
        "epoch    current={} live={} pins={} repair_queue={} swaps={}",
        u(&["epoch", "current"]),
        u(&["epoch", "live"]),
        u(&["epoch", "pins"]),
        u(&["epoch", "repair_queue"]),
        u(&["epoch", "swaps"]),
    );
    let _ = writeln!(
        out,
        "pool     workers={} busy={} queue={} (peak {}, cap {}) executed={} rejected={}",
        u(&["pool", "workers"]),
        u(&["pool", "busy"]),
        u(&["pool", "queue_depth"]),
        u(&["pool", "queue_peak"]),
        u(&["pool", "queue_capacity"]),
        u(&["pool", "executed"]),
        u(&["pool", "rejected"]),
    );
    let _ = writeln!(
        out,
        "cache    entries={} pending={} evictions={} hits={} shared={} misses={}",
        u(&["cache", "entries"]),
        u(&["cache", "pending"]),
        u(&["cache", "evictions"]),
        u(&["cache", "hits"]),
        u(&["cache", "shared"]),
        u(&["cache", "misses"]),
    );
    let _ = writeln!(
        out,
        "         revalidated kept={} on_path={} decrease={} too_old={}",
        u(&["cache", "revalidated", "kept"]),
        u(&["cache", "revalidated", "on_path"]),
        u(&["cache", "revalidated", "decrease"]),
        u(&["cache", "revalidated", "too_old"]),
    );
    let _ = writeln!(
        out,
        "storage  mmap_bytes={} expand_hops={}",
        u(&["storage", "mmap_bytes"]),
        u(&["storage", "expand_hops"]),
    );
    let rate_str = rate.map_or(String::new(), |r| format!(" rate={r:.1}/s"));
    let _ = writeln!(
        out,
        "load     queries={queries}{rate_str} failures={} deadline_exceeded={} paths={}",
        u(&["throughput", "failures"]),
        u(&["throughput", "deadline_exceeded"]),
        u(&["throughput", "paths_returned"]),
        queries = u(&["throughput", "queries"]),
    );
    let _ = writeln!(
        out,
        "latency  p50={}us p99={}us mean={}us max={}us (n={})",
        u(&["latency_us", "p50"]),
        u(&["latency_us", "p99"]),
        u(&["latency_us", "mean"]),
        u(&["latency_us", "max"]),
        u(&["latency_us", "count"]),
    );
    let _ = writeln!(
        out,
        "updates  swaps={} edges={} reused={} copied={} translate_mean={}us translate_max={}us repair_mean={}us repair_max={}us",
        u(&["updates", "epoch_swaps"]),
        u(&["updates", "edges_updated"]),
        u(&["updates", "buffers_reused"]),
        u(&["updates", "buffers_copied"]),
        u(&["updates", "translate_mean_us"]),
        u(&["updates", "translate_max_us"]),
        u(&["updates", "repair_mean_us"]),
        u(&["updates", "repair_max_us"]),
    );
    let _ = writeln!(
        out,
        "rows     held={} builds={} reads={}",
        u(&["target_rows", "held"]),
        u(&["target_rows", "builds"]),
        u(&["target_rows", "reads"]),
    );
    let _ = writeln!(
        out,
        "events   recorded={} dropped={}",
        u(&["events", "recorded"]),
        u(&["events", "dropped"]),
    );
    // Last few journal entries, oldest first — generic over the event's
    // own fields so new event kinds need no CLI change.
    if let Some(tail) = s
        .get("events")
        .and_then(|e| e.get("tail"))
        .and_then(Json::as_arr)
    {
        let skip = tail.len().saturating_sub(10);
        for ev in &tail[skip..] {
            let mut fields = String::new();
            if let Json::Obj(pairs) = ev {
                for (k, v) in pairs {
                    if matches!(k.as_str(), "seq" | "at_us" | "event") {
                        continue;
                    }
                    let _ = write!(fields, " {k}={v}");
                }
            }
            let _ = writeln!(
                out,
                "  [{:>5} +{:>9.3}s] {}{fields}",
                ev.get("seq").and_then(Json::as_u64).unwrap_or(0),
                ev.get("at_us").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6,
                ev.get("event").and_then(Json::as_str).unwrap_or("?"),
            );
        }
    }
}

fn info(o: &Opts) -> Result<(), String> {
    let bundle = load_bundle(o.require("graph")?)?;
    if bundle.is_mapped() {
        // Checksum the mmapped payload once, while we are inspecting the
        // file anyway — `open` only verifies the header/table.
        bundle.verify_data().map_err(|e| e.to_string())?;
        println!(
            "format: v2 (zero-copy mmap, data checksum ok{}{}{})",
            if bundle.landmarks.is_some() {
                ", embedded landmarks"
            } else {
                ""
            },
            if bundle.remap.is_some() {
                ", locality-reordered"
            } else {
                ""
            },
            if bundle.reduction.is_some() {
                ", reduced"
            } else {
                ""
            },
        );
    } else {
        println!("format: DIMACS .gr (heap)");
    }
    if let Some(red) = &bundle.reduction {
        println!(
            "reduction: {} original -> {} reduced nodes, {} shortcuts, {} interior nodes",
            red.original_node_count(),
            red.reduced_node_count(),
            red.shortcut_count(),
            red.interior_count(),
        );
    }
    let g = bundle.graph;
    println!("nodes: {}", g.node_count());
    println!("arcs:  {}", g.edge_count());
    let mut max_deg = 0;
    let mut isolated = 0usize;
    for v in g.nodes() {
        let d = g.out_degree(v);
        max_deg = max_deg.max(d);
        isolated += usize::from(d == 0 && g.in_degree(v) == 0);
    }
    println!("max out-degree: {max_deg}");
    println!("isolated nodes: {isolated}");
    println!("total weight:   {}", g.total_weight());
    Ok(())
}
