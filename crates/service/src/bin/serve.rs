//! `kpj-serve` — serve KPJ queries over newline-delimited JSON on TCP.
//!
//! Two graph sources:
//!
//! * `--graph-bin FILE` — a v2 graph file, mmapped and served
//!   **zero-copy**: the CSR sections (forward *and* reverse), the
//!   landmark tables and the reorder permutation stay in the page cache,
//!   so cold start is `O(1)` parse work regardless of graph size. If the
//!   file records a locality reorder, clients keep speaking original node
//!   ids — the service translates at the wire boundary.
//! * otherwise a deterministic synthetic road network (`kpj-workload`),
//!   so a client that knows `(nodes, arcs, seed)` can regenerate it and
//!   pick meaningful endpoints — `kpj-loadgen` does exactly that.
//!
//! ```text
//! kpj-serve --nodes 5000 --arcs 12000 --seed 7 --addr 127.0.0.1:7878 \
//!           --workers 4 --queue-cap 256 --cache-cap 4096 --landmarks 8
//! kpj-serve --graph-bin usa.kpj2 --landmarks 0 --addr 127.0.0.1:7878
//! ```

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use kpj_graph::{Graph, NodeRemap, Reduction};
use kpj_landmark::{LandmarkIndex, SelectionStrategy};
use kpj_service::{serve, KpjService, PoolConfig, ServiceConfig};
use kpj_workload::road::RoadConfig;

const USAGE: &str = "kpj-serve: serve top-k shortest path join queries over TCP (NDJSON)

USAGE:
    kpj-serve [OPTIONS]

OPTIONS:
    --addr <ADDR>        listen address          [default: 127.0.0.1:7878]
    --graph-bin <FILE>   serve this v2 graph file (zero-copy mmap,
                         embedded landmarks/reorder are used)
    --nodes <N>          road-network nodes      [default: 5000]
    --arcs <M>           road-network arcs       [default: 12000]
    --seed <S>           road-network seed       [default: 7]
    --workers <W>        engine workers, 0=auto  [default: 0]
    --queue-cap <Q>      admission queue bound   [default: 256]
    --cache-cap <C>      result-cache entries    [default: 4096]
    --no-cache           disable the result cache
    --landmarks <L>      landmark count, 0=none  [default: 8]
    --trace-sample <N>   trace 1-in-N queries, 0=off [default: 1]
    --slow-ms <MS>       flight-record queries slower than MS (off by default)
    --flight-dir <DIR>   where slow-query .kpjcase files go
                         [default: kpj-flight-records]

PROTOCOL (one JSON object per line, `id` echoed back, `cmd` = `op`):
    {\"id\":1,\"op\":\"ping\"}
    {\"id\":2,\"op\":\"query\",\"algorithm\":\"iterboundi\",\"sources\":[17],
     \"targets\":[100,2500],\"k\":20,\"timeout_ms\":250,\"paths\":false}
    {\"cmd\":\"metrics\"}    (JSON counters + a `prometheus` text block)
    {\"id\":5,\"op\":\"status\"}   (live gauges + event-journal tail; `kpj-cli top` renders it)
";

struct Opts {
    addr: String,
    graph_bin: Option<String>,
    nodes: usize,
    arcs: usize,
    seed: u64,
    workers: usize,
    queue_cap: usize,
    cache_cap: usize,
    landmarks: usize,
    trace_sample: u32,
    slow_ms: Option<u64>,
    flight_dir: Option<String>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        addr: "127.0.0.1:7878".to_string(),
        graph_bin: None,
        nodes: 5_000,
        arcs: 12_000,
        seed: 7,
        workers: 0,
        queue_cap: 256,
        cache_cap: 4_096,
        landmarks: 8,
        trace_sample: 1,
        slow_ms: None,
        flight_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {what}"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--graph-bin" => opts.graph_bin = Some(value("--graph-bin")?),
            "--nodes" => opts.nodes = num(&value("--nodes")?, "--nodes")?,
            "--arcs" => opts.arcs = num(&value("--arcs")?, "--arcs")?,
            "--seed" => opts.seed = num(&value("--seed")?, "--seed")? as u64,
            "--workers" => opts.workers = num(&value("--workers")?, "--workers")?,
            "--queue-cap" => opts.queue_cap = num(&value("--queue-cap")?, "--queue-cap")?,
            "--cache-cap" => opts.cache_cap = num(&value("--cache-cap")?, "--cache-cap")?,
            "--no-cache" => opts.cache_cap = 0,
            "--landmarks" => opts.landmarks = num(&value("--landmarks")?, "--landmarks")?,
            "--trace-sample" => {
                opts.trace_sample = num(&value("--trace-sample")?, "--trace-sample")? as u32
            }
            "--slow-ms" => opts.slow_ms = Some(num(&value("--slow-ms")?, "--slow-ms")? as u64),
            "--flight-dir" => opts.flight_dir = Some(value("--flight-dir")?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn num(s: &str, what: &str) -> Result<usize, String> {
    s.parse()
        .map_err(|_| format!("{what}: `{s}` is not a number"))
}

type GraphParts = (
    Arc<Graph>,
    Option<Arc<LandmarkIndex>>,
    Option<NodeRemap>,
    Option<Reduction>,
    // Bytes of the graph file held by mmap (0 when generated) — feeds
    // the `mmap_bytes` gauge.
    u64,
);

/// Open `--graph-bin` (v2, zero-copy mmap with embedded sidecars) or fall
/// back to generating the synthetic road network.
fn load_graph(opts: &Opts) -> Result<GraphParts, String> {
    let Some(path) = &opts.graph_bin else {
        eprintln!(
            "generating road network: nodes={} arcs={} seed={}",
            opts.nodes, opts.arcs, opts.seed
        );
        let graph = Arc::new(RoadConfig::new(opts.nodes, opts.arcs, opts.seed).generate());
        return Ok((graph, None, None, None, 0));
    };
    let started = Instant::now();
    let bundle = kpj_store::open_v2(std::path::Path::new(path))
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    eprintln!(
        "loaded {path}: {} nodes, {} arcs in {:.2} ms (zero-copy mmap{}{}{})",
        bundle.graph.node_count(),
        bundle.graph.edge_count(),
        started.elapsed().as_secs_f64() * 1e3,
        if bundle.landmarks.is_some() {
            ", embedded landmarks"
        } else {
            ""
        },
        if bundle.remap.is_some() {
            ", reordered"
        } else {
            ""
        },
        if bundle.reduction.is_some() {
            ", reduced"
        } else {
            ""
        },
    );
    let mmap_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    Ok((
        Arc::new(bundle.graph),
        bundle.landmarks.map(Arc::new),
        bundle.remap,
        bundle.reduction,
        mmap_bytes,
    ))
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let (graph, mut landmarks, remap, reduction, mmap_bytes) = match load_graph(&opts) {
        Ok(parts) => parts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if landmarks.is_none() && opts.landmarks > 0 {
        eprintln!("building {} landmarks (farthest selection)", opts.landmarks);
        landmarks = Some(Arc::new(LandmarkIndex::build(
            &graph,
            opts.landmarks,
            SelectionStrategy::Farthest,
            opts.seed,
        )));
    }

    let config = ServiceConfig {
        pool: PoolConfig {
            workers: opts.workers,
            queue_capacity: opts.queue_cap,
            ..PoolConfig::default()
        },
        cache_capacity: opts.cache_cap,
        trace_sample: opts.trace_sample,
        slow_query_ms: opts.slow_ms,
        flight_dir: opts.flight_dir.clone(),
    };
    let reduction = reduction.map(Arc::new);
    if let Some(red) = &reduction {
        eprintln!(
            "graph is reduced ({} original -> {} nodes); answers re-expand to original ids",
            red.original_node_count(),
            red.reduced_node_count(),
        );
    }
    let mut service = KpjService::new_reduced(graph, landmarks, reduction, config);
    if let Some(remap) = remap {
        eprintln!("graph is locality-reordered; translating node ids at the wire");
        service.set_remap(Arc::new(remap));
    }
    service
        .metrics()
        .gauges()
        .set(kpj_service::gauge::MMAP_BYTES, mmap_bytes as i64);
    let service = Arc::new(service);
    if let Some(ms) = opts.slow_ms {
        eprintln!(
            "flight recorder: queries over {ms} ms dump to {}",
            opts.flight_dir.as_deref().unwrap_or("kpj-flight-records")
        );
    }

    let listener = match TcpListener::bind(&opts.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "kpj-serve listening on {} ({} workers, queue {}, cache {})",
        opts.addr,
        service.pool().worker_count(),
        opts.queue_cap,
        opts.cache_cap,
    );
    if let Err(e) = serve(listener, service) {
        eprintln!("error: accept loop failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
