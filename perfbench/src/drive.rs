//! Closed-loop clients. Each of [`CLIENTS`] threads models an application
//! thread that sends its next request line only after the previous reply
//! arrived; all of them call `kpj_service::wire::handle_line` in-process.
//!
//! The traced variant replays the same operations but calls each layer's
//! public function itself (`Json::parse`, `KpjService::execute`,
//! `Answer::wire_body`, `KpjService::apply_update`) inside spans, so the
//! untraced run stays free of any probe and the traced one can attribute
//! time to layers.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use kpj_graph::{NodeId, WeightUpdate};
use kpj_service::json::Json;
use kpj_service::{wire, Answer, KpjService, QueryRequest};

use crate::traffic::{mix, Op, Traffic};

/// Closed-loop client threads (one per core of the reference box).
pub const CLIENTS: usize = 2;

/// A timed phase may overrun `--seconds` by this factor while it waits
/// for the minimum update count; past it, the run reports what it has.
const MAX_STRETCH: f64 = 4.0;

/// One finished operation.
pub struct Rec {
    /// Stream index of the operation.
    pub index: u64,
    /// Send and reply instants, ns since the context's origin.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Answered `"ok":true`.
    pub ok: bool,
    /// Query or update details.
    pub what: What,
    /// Per-layer timings (traced runs only; boxed so untraced records,
    /// which live in the measured process, stay small).
    pub layers: Option<Box<Layers>>,
}

impl Rec {
    /// Client-observed latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// What an operation was, with what the answer check needs.
pub enum What {
    /// A query line.
    Query {
        /// Distinct-query key.
        key: u64,
        /// Distance group on road workloads.
        group: Option<u8>,
        /// Highest epoch acknowledged to any client before sending.
        epoch_lo: u64,
        /// Update batches sent (acknowledged or not) before the reply.
        sent_at_end: u64,
        /// The response line, kept for sampled queries only.
        response: Option<String>,
    },
    /// An update line.
    Update {
        /// Global send order of the batch.
        seq: u64,
        /// Epoch serving after the batch.
        epoch: u64,
        /// Edges the batch changed (0 = no new epoch).
        changed: u64,
    },
}

/// Layer timings of one traced operation.
#[derive(Default)]
pub struct Layers {
    /// `Json::parse` of the line.
    pub parse_ns: u64,
    /// `KpjService::execute` (queries) or `apply_update` (updates).
    pub exec_ns: u64,
    /// First `Answer::wire_body(true)` of an answer not seen before.
    pub encode_ns: Option<u64>,
    /// `execute` returned the same `Arc<Answer>` as an earlier request
    /// with the same key.
    pub hit: bool,
    /// Response line length.
    pub bytes: usize,
    /// `UpdateOutcome` fields of an update.
    pub repair_us: u64,
    /// See `repair_us`.
    pub affected_nodes: u64,
    /// See `repair_us`.
    pub cache_purged: u64,
}

/// One span: a timed call into a layer.
pub struct Span {
    /// Layer function the span covers.
    pub name: &'static str,
    /// ns since the context's origin.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Index of the enclosing span in the same client's list.
    pub parent: Option<usize>,
    /// Stream index of the operation that caused it.
    pub request: u64,
}

/// A client's span list, kept in memory until the run ends.
#[derive(Default)]
pub struct Tracer {
    /// Spans in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    pub(crate) fn open(
        &mut self,
        origin: Instant,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Close span `id`, returning its duration in ns.
    pub(crate) fn close(&mut self, origin: Instant, id: usize) -> u64 {
        let span = &mut self.spans[id];
        span.end_ns = origin.elapsed().as_nanos() as u64;
        span.end_ns - span.start_ns
    }
}

/// Everything the clients of one service share.
pub struct Ctx<'a> {
    /// The service under test.
    pub service: &'a KpjService,
    /// The request stream.
    pub traffic: &'a Traffic,
    /// Time zero of every record and span.
    pub origin: Instant,
    /// Keep the response of one query in `sample_every` for the check.
    sample_every: u64,
    seed: u64,
    updates_sent: AtomicU64,
    acked_epoch: AtomicU64,
    /// Latest answer per key and when it was first delivered, to tell a
    /// cached `Arc` (hit) from a fresh one.
    answers: Mutex<HashMap<u64, (Weak<Answer>, u64)>>,
}

impl<'a> Ctx<'a> {
    /// A fresh context over a freshly built service (epoch 0).
    pub fn new(
        service: &'a KpjService,
        traffic: &'a Traffic,
        seed: u64,
        sample_every: u64,
    ) -> Ctx<'a> {
        Ctx {
            service,
            traffic,
            origin: Instant::now(),
            sample_every,
            seed,
            updates_sent: AtomicU64::new(0),
            acked_epoch: AtomicU64::new(service.current_epoch().id()),
            answers: Mutex::new(HashMap::new()),
        }
    }

    fn sampled(&self, i: u64) -> bool {
        mix(self.seed, i, 2).is_multiple_of(self.sample_every)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Whether `answer` is the very `Arc` an `execute` for `key` returned
    /// before `sent_ns` — a cache hit. A single-flight waiter shares the
    /// `Arc` its owner computed while the waiter was already in flight, so
    /// it does not count. `returned_ns` is when this request's `execute`
    /// returned. The stored `Weak` keeps the allocation reserved: no other
    /// answer can reuse the address while it is remembered.
    fn hit(&self, key: u64, answer: &Arc<Answer>, sent_ns: u64, returned_ns: u64) -> bool {
        let mut answers = self.answers.lock().expect("answer map poisoned");
        match answers.get_mut(&key) {
            Some((seen, at)) if std::ptr::eq(seen.as_ptr(), Arc::as_ptr(answer)) => {
                *at = (*at).min(returned_ns);
                *at < sent_ns
            }
            _ => {
                answers.insert(key, (Arc::downgrade(answer), returned_ns));
                false
            }
        }
    }
}

/// When a phase stops.
#[derive(Clone, Copy)]
pub enum Stop {
    /// Before operation index `end`.
    At(u64),
    /// After `seconds`, once `min_updates` update batches were sent.
    After {
        /// Measured wall time.
        seconds: f64,
        /// Update batches the phase must contain.
        min_updates: u64,
    },
}

/// The outcome of one phase.
pub struct Phase {
    /// Every operation, both clients merged, in index order.
    pub recs: Vec<Rec>,
    /// Each client's spans (traced phases).
    pub tracers: Vec<Tracer>,
    /// Resident set size sampled every 10 ms: `(ns since origin, MB)`.
    pub rss: Vec<(u64, f64)>,
}

/// Run operations `first..` on `CLIENTS` closed-loop clients until `stop`.
pub fn run(ctx: &Ctx<'_>, first: u64, stop: Stop, traced: bool) -> Phase {
    let next = AtomicU64::new(first);
    let updates = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let over = || match stop {
        Stop::At(_) => false,
        Stop::After {
            seconds,
            min_updates,
        } => {
            let el = started.elapsed().as_secs_f64();
            el >= seconds * MAX_STRETCH || (el >= seconds && updates.load(SeqCst) >= min_updates)
        }
    };
    let (outs, rss) = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut recs = Vec::new();
                    let mut tracer = Tracer::default();
                    while !over() {
                        let i = next.fetch_add(1, SeqCst);
                        if matches!(stop, Stop::At(end) if i >= end) {
                            break;
                        }
                        let op = ctx.traffic.op(i);
                        if matches!(op, Op::Update(_)) {
                            updates.fetch_add(1, SeqCst);
                        }
                        recs.push(serve(ctx, traced.then_some(&mut tracer), i, op));
                    }
                    (recs, tracer)
                })
            })
            .collect();
        let sampler = s.spawn(|| {
            let mut rss = Vec::new();
            while !done.load(SeqCst) {
                rss.push((ctx.now_ns(), rss_kb() as f64 / 1024.0));
                if traced {
                    // Publishes the sampled gauges (live epochs among them)
                    // so their high-water marks cover the phase.
                    ctx.service.refresh_gauges();
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            rss
        });
        let outs: Vec<_> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        done.store(true, SeqCst);
        (outs, sampler.join().expect("sampler thread panicked"))
    });
    let mut recs = Vec::new();
    let mut tracers = Vec::new();
    for (r, t) in outs {
        recs.extend(r);
        tracers.push(t);
    }
    recs.sort_by_key(|r| r.index);
    Phase { recs, tracers, rss }
}

/// Apply `batches` one after another on the otherwise idle service (the
/// update latency of workloads whose traffic carries no updates).
pub fn probe_updates(
    ctx: &Ctx<'_>,
    batches: Vec<Vec<WeightUpdate>>,
    traced: bool,
) -> (Vec<Rec>, Tracer) {
    /// Probe operations get ids far past any stream index.
    const PROBE_BASE: u64 = 1 << 40;
    let mut tracer = Tracer::default();
    let recs = batches
        .into_iter()
        .enumerate()
        .map(|(j, batch)| {
            let t = traced.then_some(&mut tracer);
            serve(ctx, t, PROBE_BASE + j as u64, Op::Update(batch))
        })
        .collect();
    (recs, tracer)
}

/// Send operation `i` and wait for its reply.
fn serve(ctx: &Ctx<'_>, tracer: Option<&mut Tracer>, i: u64, op: Op<'_>) -> Rec {
    let line = ctx.traffic.line(i, &op);
    match (op, tracer) {
        (Op::Query { key, group, .. }, None) => {
            let epoch_lo = ctx.acked_epoch.load(SeqCst);
            let start_ns = ctx.now_ns();
            let response = wire::handle_line(ctx.service, &line);
            let end_ns = ctx.now_ns();
            let sent_at_end = ctx.updates_sent.load(SeqCst);
            Rec {
                index: i,
                start_ns,
                end_ns,
                ok: is_ok(&response),
                what: What::Query {
                    key,
                    group,
                    epoch_lo,
                    sent_at_end,
                    response: ctx.sampled(i).then_some(response),
                },
                layers: None,
            }
        }
        (Op::Update(_), None) => {
            let seq = ctx.updates_sent.fetch_add(1, SeqCst);
            let start_ns = ctx.now_ns();
            let response = wire::handle_line(ctx.service, &line);
            let end_ns = ctx.now_ns();
            let parsed = Json::parse(&response).ok();
            let field = |name| {
                parsed
                    .as_ref()
                    .and_then(|v| v.get(name))
                    .and_then(Json::as_u64)
            };
            let (epoch, changed) = (field("epoch"), field("changed"));
            if let Some(e) = epoch {
                ctx.acked_epoch.fetch_max(e, SeqCst);
            }
            Rec {
                index: i,
                start_ns,
                end_ns,
                ok: is_ok(&response) && epoch.is_some(),
                what: What::Update {
                    seq,
                    epoch: epoch.unwrap_or(0),
                    changed: changed.unwrap_or(0),
                },
                layers: None,
            }
        }
        (op, Some(tr)) => serve_traced(ctx, tr, i, op, &line),
    }
}

/// [`serve`] with every layer call wrapped in a span.
fn serve_traced(ctx: &Ctx<'_>, tr: &mut Tracer, i: u64, op: Op<'_>, line: &str) -> Rec {
    let o = ctx.origin;
    let mut layers = Layers::default();
    let start_ns = ctx.now_ns();
    let root = tr.open(o, "request", None, i);
    let p = tr.open(o, "wire.parse", Some(root), i);
    let parsed = Json::parse(line).expect("the benchmark writes valid JSON");
    layers.parse_ns = tr.close(o, p);
    let (ok, mut what, response) = match op {
        Op::Query { key, group, .. } => {
            let (request, want_paths) = request_of(&parsed);
            let epoch_lo = ctx.acked_epoch.load(SeqCst);
            let e = tr.open(o, "service.execute", Some(root), i);
            let result = ctx.service.execute(&request);
            layers.exec_ns = tr.close(o, e);
            let returned_ns = tr.spans[e].end_ns;
            let (ok, response) = match result {
                Ok(answer) => {
                    layers.hit = ctx.hit(key, &answer, start_ns, returned_ns);
                    if !layers.hit {
                        let w = tr.open(o, "wire.encode", Some(root), i);
                        answer.wire_body(want_paths);
                        layers.encode_ns = Some(tr.close(o, w));
                    }
                    (
                        true,
                        envelope(i, layers.exec_ns / 1_000, answer.wire_body(want_paths)),
                    )
                }
                Err(e) => (false, failure(i, e)),
            };
            let sent_at_end = ctx.updates_sent.load(SeqCst);
            let what = What::Query {
                key,
                group,
                epoch_lo,
                sent_at_end,
                response: None,
            };
            (ok, what, response)
        }
        Op::Update(_) => {
            let updates = updates_of(&parsed);
            let seq = ctx.updates_sent.fetch_add(1, SeqCst);
            let a = tr.open(o, "update.apply", Some(root), i);
            let result = ctx.service.apply_update(&updates);
            layers.exec_ns = tr.close(o, a);
            match result {
                Ok(out) => {
                    ctx.acked_epoch.fetch_max(out.epoch, SeqCst);
                    layers.repair_us = out.repair_us;
                    layers.affected_nodes = out.affected_nodes;
                    layers.cache_purged = out.cache_purged as u64;
                    let what = What::Update {
                        seq,
                        epoch: out.epoch,
                        changed: out.changed as u64,
                    };
                    let response = format!(
                        "{{\"id\":{i},\"ok\":true,\"epoch\":{},\"changed\":{},\"repair_us\":{},\"affected_nodes\":{},\"cache_purged\":{}}}",
                        out.epoch, out.changed, out.repair_us, out.affected_nodes, out.cache_purged
                    );
                    (true, what, response)
                }
                Err(e) => {
                    let what = What::Update {
                        seq,
                        epoch: 0,
                        changed: 0,
                    };
                    (false, what, failure(i, e))
                }
            }
        }
    };
    tr.close(o, root);
    layers.bytes = response.len();
    if let What::Query { response: kept, .. } = &mut what {
        *kept = ctx.sampled(i).then_some(response);
    }
    Rec {
        index: i,
        start_ns,
        end_ns: ctx.now_ns(),
        ok,
        what,
        layers: Some(Box::new(layers)),
    }
}

/// The `ok` envelope `wire` wraps around an answer body.
fn envelope(id: u64, server_us: u64, body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 48);
    write!(out, "{{\"id\":{id},\"ok\":true,\"server_us\":{server_us},")
        .expect("writing to a String cannot fail");
    out.push_str(body);
    out.push('}');
    out
}

/// An `ok:false` reply (only its length and `ok` flag are used).
fn failure(id: u64, error: impl std::fmt::Display) -> String {
    format!("{{\"id\":{id},\"ok\":false,\"message\":\"{error}\"}}")
}

/// The request a query line asks for (the benchmark's own lines only).
fn request_of(v: &Json) -> (QueryRequest, bool) {
    let nodes = |name| -> Vec<NodeId> {
        v.get(name)
            .and_then(Json::as_arr)
            .expect("node list")
            .iter()
            .map(|n| n.as_u64().expect("node id") as NodeId)
            .collect()
    };
    let request = QueryRequest {
        algorithm: v
            .get("algorithm")
            .and_then(Json::as_str)
            .and_then(|a| a.parse().ok())
            .expect("algorithm"),
        sources: nodes("sources"),
        targets: nodes("targets"),
        k: v.get("k").and_then(Json::as_usize).expect("k"),
        timeout_ms: None,
    };
    (
        request,
        v.get("paths").and_then(Json::as_bool).unwrap_or(false),
    )
}

/// The batch an update line carries (the benchmark's own lines only).
fn updates_of(v: &Json) -> Vec<WeightUpdate> {
    v.get("edges")
        .and_then(Json::as_arr)
        .expect("edges")
        .iter()
        .map(|e| {
            let t = e.as_arr().expect("edge triple");
            let n = |j: usize| t[j].as_u64().expect("edge field") as u32;
            WeightUpdate {
                from: n(0),
                to: n(1),
                weight: n(2),
            }
        })
        .collect()
}

/// Whether a response line reports success (`"ok"` follows the `id`).
fn is_ok(response: &str) -> bool {
    response
        .get(..response.len().min(40))
        .is_some_and(|head| head.contains("\"ok\":true"))
}

/// Current resident set size, kB (0 where `/proc` is unavailable).
pub fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
