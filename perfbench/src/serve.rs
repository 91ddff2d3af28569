//! `serve-mixed`: a live `agg-serve` [`Server`] under an open-loop load.
//!
//! The load generator uses the library's own framing and codecs
//! ([`write_frame`] / [`read_frame`], [`Request`] / [`Response`]) over one
//! pipelined connection with one sender and one receiver thread, and sets
//! no socket option of its own: a user of the library sees exactly these
//! latencies. Each request is timed from the moment it was *due*, so a
//! stalled server or a late sender shows up in the latency of every
//! request queued behind it.
//!
//! Every answer is checked against the `agg-cpu` oracle for its graph at
//! the epoch the response names: a mirror [`DynamicGraph`] per hosted
//! graph applies the same update batches in the same order.

use crate::check::Oracle;
use crate::stats::{median, secs, tail, Clock, Report, Tail};
use agg_core::Query;
use agg_dynamic::DynamicGraph;
use agg_graph::{CsrGraph, Dataset, Scale};
use agg_serve::{
    read_frame, write_frame, ArrivalTrace, Event, Hosted, Request, Response, ResultCache,
    ServeClient, ServeConfig, ServeStats, Server, TraceConfig,
};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The hosted graphs: the Amazon and Google analogs at tiny scale.
pub const HOSTED: [(Dataset, &str); 2] = [(Dataset::Amazon, "amazon"), (Dataset::Google, "google")];
pub const SCALE: Scale = Scale::Tiny;
/// Traversal sources are drawn from `0..SOURCE_POOL`.
pub const SOURCE_POOL: u32 = 8;

/// Offered rate of the main phase, queries/s: low enough that a stall
/// would have to last 1.3 s to fill the 64-slot admission queue, so the
/// measured phase sheds nothing even on a slowed host (at 100 queries/s
/// one run in ten shed a query).
pub const MAIN_RATE: f64 = 50.0;
/// Queries per segment of the main phase; each segment is a fresh server
/// with its own trace.
pub const SEGMENT_QUERIES: usize = 500;
/// An `Update` batch follows every this many queries.
pub const UPDATE_EVERY: usize = 200;
/// The `max_qps` ladder above the main rate; each rung re-sends the first
/// segment's trace at that rate. The rungs sit well clear of the rates
/// (about 200-400 queries/s) at which the stalls after an update start to
/// overflow the admission queue: where exactly depends on the trace, so a
/// rung there would hold or fail by seed.
pub const LADDER: [f64; 2] = [800.0, 3200.0];
/// The tail latency a rung must meet, ms. A shed or failed query counts
/// as missing it.
pub const TAIL_LIMIT_MS: f64 = 1000.0;
/// How long after the last send the receiver waits before counting the
/// missing responses as timed out.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// The trace of main-phase segment `k`.
pub fn trace(seed: u64, k: u64) -> ArrivalTrace {
    ArrivalTrace::generate(TraceConfig {
        queries: SEGMENT_QUERIES,
        rate_qps: MAIN_RATE,
        seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k),
        graphs: HOSTED.iter().map(|(_, n)| n.to_string()).collect(),
        source_pool: SOURCE_POOL,
        update_every: UPDATE_EVERY,
        update_size: 4,
    })
}

pub fn graphs(seed: u64) -> Vec<CsrGraph> {
    HOSTED
        .iter()
        .map(|(d, _)| crate::sweep::generate(*d, SCALE, seed))
        .collect()
}

pub fn hosts(graphs: &[CsrGraph]) -> Vec<Hosted> {
    let device = ServeConfig::default().device;
    HOSTED
        .iter()
        .zip(graphs)
        .map(|((_, name), g)| {
            Hosted::new(*name, Arc::new(g.clone()), device.clone()).expect("host graph")
        })
        .collect()
}

fn graph_index(name: &str) -> usize {
    HOSTED
        .iter()
        .position(|(_, n)| *n == name)
        .expect("trace names a hosted graph")
}

/// A fresh server on freshly generated graphs, and how long that took.
pub fn start(seed: u64) -> (Server, f64, f64) {
    let t = Instant::now();
    let g = graphs(seed);
    let generate_s = secs(t);
    let server = Server::start(hosts(&g), ServeConfig::default()).expect("server start");
    (server, secs(t), generate_s)
}

/// What one request on the wire is.
#[derive(Clone, Copy)]
enum Kind {
    Query { graph: usize, query: Query },
    Update { graph: usize, expect_epoch: u64 },
}

struct Outgoing {
    at_ns: u64,
    payload: Vec<u8>,
    kind: Kind,
}

/// The trace as wire requests (id = position) plus the mirror graphs:
/// `snapshots[g][e]` is hosted graph `g` at epoch `e`, and the oracles
/// computed on them so far, keyed by (graph, epoch, query identity).
pub struct Load {
    requests: Vec<Outgoing>,
    snapshots: Vec<Vec<CsrGraph>>,
    oracles: HashMap<(usize, u64, String), Oracle>,
}

impl Load {
    pub fn new(trace: &ArrivalTrace, base: &[CsrGraph]) -> Load {
        let mut mirrors: Vec<DynamicGraph> =
            base.iter().map(|g| DynamicGraph::new(g.clone())).collect();
        let mut snapshots: Vec<Vec<CsrGraph>> = base.iter().map(|g| vec![g.clone()]).collect();
        let mut requests = Vec::with_capacity(trace.arrivals.len());
        for (id, arrival) in trace.arrivals.iter().enumerate() {
            let id = id as u64;
            let (request, kind) = match &arrival.event {
                Event::Query { graph, query } => (
                    Request::Query {
                        id,
                        graph: graph.clone(),
                        query: *query,
                    },
                    Kind::Query {
                        graph: graph_index(graph),
                        query: *query,
                    },
                ),
                Event::Update { graph, batch } => {
                    let g = graph_index(graph);
                    let out = mirrors[g].apply(batch).expect("trace updates are valid");
                    if out.bumped {
                        let snap = mirrors[g].snapshot().expect("mirror snapshot").clone();
                        snapshots[g].push(snap);
                    }
                    (
                        Request::Update {
                            id,
                            graph: graph.clone(),
                            updates: batch.clone(),
                        },
                        Kind::Update {
                            graph: g,
                            expect_epoch: snapshots[g].len() as u64 - 1,
                        },
                    )
                }
                Event::BumpEpoch { .. } => unreachable!("generated traces carry no bare bumps"),
            };
            requests.push(Outgoing {
                at_ns: arrival.at_ns,
                payload: request.to_json().render().into_bytes(),
                kind,
            });
        }
        Load {
            requests,
            snapshots,
            oracles: HashMap::new(),
        }
    }

    /// The warm-up for `trace`: every distinct query it asks, once, all
    /// due at once (fewer than the admission bound, so none is shed).
    /// The server starts with an empty result cache; this fills it at
    /// epoch 0 before the measured requests, as a long-lived server's
    /// cache would be, so the measured tail is set by the misses that
    /// updates cause rather than by the one-time cold start.
    pub fn warmup(trace: &ArrivalTrace, base: &[CsrGraph]) -> Load {
        let mut seen = std::collections::HashSet::new();
        let mut requests = Vec::new();
        for arrival in &trace.arrivals {
            if let Event::Query { graph, query } = &arrival.event {
                if seen.insert((graph.clone(), query.cache_key())) {
                    let id = requests.len() as u64;
                    let request = Request::Query {
                        id,
                        graph: graph.clone(),
                        query: *query,
                    };
                    requests.push(Outgoing {
                        at_ns: 0,
                        payload: request.to_json().render().into_bytes(),
                        kind: Kind::Query {
                            graph: graph_index(graph),
                            query: *query,
                        },
                    });
                }
            }
        }
        Load {
            requests,
            snapshots: base.iter().map(|g| vec![g.clone()]).collect(),
            oracles: HashMap::new(),
        }
    }

    /// True when `values` is the right answer for `query` on graph `g`
    /// at `epoch`; an epoch the mirror never reached is always wrong.
    fn accepts(&mut self, g: usize, epoch: u64, query: Query, values: &[u32]) -> bool {
        let Some(graph) = self.snapshots[g].get(epoch as usize) else {
            return false;
        };
        self.oracles
            .entry((g, epoch, query.cache_key()))
            .or_insert_with(|| Oracle::run(graph, query))
            .accepts(values)
    }
}

/// Client-side record of one request.
struct Received {
    at_ns: u64,
    response: Response,
    /// `Response::decode` time, ns (traced runs only).
    decode_ns: Option<u64>,
}

/// The outcome of one open-loop phase (one or more segments pooled).
#[derive(Default)]
pub struct Phase {
    /// Requests sent (queries and updates).
    pub requests: usize,
    /// Queries answered correctly.
    pub served: usize,
    /// Per query: latency from due time, ms; `INFINITY` for a query that
    /// failed (shed, error, wrong answer or timed out), which therefore
    /// misses any latency limit.
    pub latencies_ms: Vec<f64>,
    /// Failed requests (queries and updates).
    pub failed: usize,
    pub shed: usize,
    pub errors: usize,
    pub wrong: usize,
    pub timed_out: usize,
    /// Host time from the first due time to the last response, summed
    /// over segments, s.
    pub wall_s: f64,
    /// Host time from the first send to the last, summed over segments, s.
    pub send_s: f64,
    /// How late the sender wrote each request, ms.
    pub lag_ms: Vec<f64>,
    pub decode_ms: Vec<f64>,
    pub update_rtt_ms: Vec<f64>,
    pub repaired: usize,
    pub invalidated: usize,
}

impl Phase {
    pub fn tail(&self) -> Tail {
        tail(&self.latencies_ms)
    }

    /// Latencies of the answered queries: the reported percentiles. The
    /// failed ones are counted in `failed` instead (and as late in
    /// [`Phase::holds`]).
    pub fn answered_ms(&self) -> Vec<f64> {
        self.latencies_ms
            .iter()
            .copied()
            .filter(|l| l.is_finite())
            .collect()
    }

    /// Correct answers per host second of sending: the throughput the
    /// server sustained while keeping up with the offered load.
    pub fn goodput(&self) -> f64 {
        self.served as f64 / self.send_s
    }

    /// A rate holds when its tail meets [`TAIL_LIMIT_MS`] (failed queries
    /// count as missing it) and the backlog is not growing: the median
    /// latency of the last tenth of the queries also meets the limit.
    pub fn holds(&self) -> bool {
        let n = self.latencies_ms.len();
        let last = &self.latencies_ms[n - n / 10..];
        self.tail().value <= TAIL_LIMIT_MS && median(last) <= TAIL_LIMIT_MS
    }

    pub fn absorb(&mut self, o: Phase) {
        self.requests += o.requests;
        self.served += o.served;
        self.latencies_ms.extend(o.latencies_ms);
        self.failed += o.failed;
        self.shed += o.shed;
        self.errors += o.errors;
        self.wrong += o.wrong;
        self.timed_out += o.timed_out;
        self.wall_s += o.wall_s;
        self.send_s += o.send_s;
        self.lag_ms.extend(o.lag_ms);
        self.decode_ms.extend(o.decode_ms);
        self.update_rtt_ms.extend(o.update_rtt_ms);
        self.repaired += o.repaired;
        self.invalidated += o.invalidated;
    }
}

/// Sends every request of `load` to `addr` at `rate` queries/s (the
/// trace's arrival times scaled from [`MAIN_RATE`]) and checks every
/// answer.
pub fn open_loop(addr: SocketAddr, load: &mut Load, rate: f64, traced: bool) -> Phase {
    let requests = &load.requests;
    let scale = MAIN_RATE / rate;
    let due_ns: Vec<u64> = requests
        .iter()
        .map(|r| (r.at_ns as f64 * scale) as u64)
        .collect();
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = stream.try_clone().expect("clone stream");
    // Let both threads start before the first request is due.
    let start = Instant::now() + Duration::from_millis(20);
    let (done_tx, done_rx) = mpsc::channel();
    let expected = requests.len();
    let (sent, received) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut got: Vec<(u64, Received)> = Vec::with_capacity(expected);
            while got.len() < expected {
                let Ok(Some(frame)) = read_frame(&mut reader) else {
                    break;
                };
                let at_ns = start.elapsed().as_nanos() as u64;
                let t = Instant::now();
                let Ok(response) = Response::decode(&frame) else {
                    break;
                };
                let decode_ns = traced.then(|| t.elapsed().as_nanos() as u64);
                got.push((
                    response.id(),
                    Received {
                        at_ns,
                        response,
                        decode_ns,
                    },
                ));
            }
            let _ = done_tx.send(());
            got
        });
        let sender = scope.spawn(|| {
            let mut sent_ns = Vec::with_capacity(expected);
            for (r, &due) in requests.iter().zip(&due_ns) {
                let due_at = start + Duration::from_nanos(due);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                if write_frame(&mut writer, &r.payload).is_err() {
                    break;
                }
                sent_ns.push(start.elapsed().as_nanos() as u64);
            }
            sent_ns
        });
        let sent = sender.join().expect("sender thread");
        if done_rx.recv_timeout(DRAIN_TIMEOUT).is_err() {
            // Unblock the receiver: what has not arrived counts as timed out.
            let _ = stream.shutdown(Shutdown::Both);
        }
        (sent, receiver.join().expect("receiver thread"))
    });
    let _ = stream.shutdown(Shutdown::Both);

    let mut by_id: Vec<Option<Received>> = (0..expected).map(|_| None).collect();
    for (id, r) in received {
        if let Some(slot) = by_id.get_mut(id as usize) {
            *slot = Some(r);
        }
    }
    let mut phase = Phase {
        requests: expected,
        lag_ms: sent
            .iter()
            .zip(&due_ns)
            .map(|(&s, &d)| s.saturating_sub(d) as f64 / 1e6)
            .collect(),
        ..Phase::default()
    };
    let kinds: Vec<Kind> = load.requests.iter().map(|r| r.kind).collect();
    let mut last_ns = 0u64;
    for ((kind, slot), &due) in kinds.into_iter().zip(by_id).zip(&due_ns) {
        let latency_ms = slot
            .as_ref()
            .map(|r| r.at_ns.saturating_sub(due) as f64 / 1e6);
        if let Some(r) = &slot {
            last_ns = last_ns.max(r.at_ns);
            if let Some(ns) = r.decode_ns {
                phase.decode_ms.push(ns as f64 / 1e6);
            }
        }
        match kind {
            Kind::Query { graph, query } => {
                let ok = match slot.map(|r| r.response) {
                    Some(Response::Result { epoch, values, .. }) => {
                        let ok = load.accepts(graph, epoch, query, &values);
                        phase.wrong += usize::from(!ok);
                        ok
                    }
                    Some(Response::Overloaded { .. }) => {
                        phase.shed += 1;
                        false
                    }
                    Some(_) => {
                        phase.errors += 1;
                        false
                    }
                    None => {
                        phase.timed_out += 1;
                        false
                    }
                };
                phase.failed += usize::from(!ok);
                phase.served += usize::from(ok);
                phase.latencies_ms.push(if ok {
                    latency_ms.expect("answered")
                } else {
                    f64::INFINITY
                });
            }
            Kind::Update {
                graph: _,
                expect_epoch,
            } => {
                let ok = match slot.map(|r| r.response) {
                    Some(Response::Updated {
                        epoch,
                        repaired,
                        invalidated,
                        ..
                    }) => {
                        phase.repaired += repaired;
                        phase.invalidated += invalidated;
                        epoch == expect_epoch
                    }
                    _ => false,
                };
                if ok {
                    phase.update_rtt_ms.push(latency_ms.expect("answered"));
                } else {
                    phase.wrong += 1;
                    phase.failed += 1;
                }
            }
        }
    }
    phase.wall_s = last_ns as f64 / 1e9;
    phase.send_s = match (sent.first(), sent.last()) {
        (Some(a), Some(b)) => (b - a) as f64 / 1e9,
        _ => 0.0,
    };
    phase
}

/// Round trips of `Stats` requests, which do no compute: the transport
/// floor under every answer. Measured through [`ServeClient`] as a user
/// would, and split by hand into the request leg (write until the
/// response header arrives) and the response leg (header until the
/// payload is complete), since client and server each write a frame's
/// header and payload separately.
pub struct Rtt {
    pub rtt_ms: f64,
    pub request_leg_ms: f64,
    pub response_leg_ms: f64,
}

pub fn stats_rtt(addr: SocketAddr, samples: usize) -> Rtt {
    let mut client = ServeClient::connect(addr).expect("connect");
    let mut rtt = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        client.stats().expect("stats");
        rtt.push(secs(t) * 1e3);
    }
    let mut stream = TcpStream::connect(addr).expect("connect");
    let (mut request_leg, mut response_leg) = (Vec::new(), Vec::new());
    for id in 0..samples as u64 {
        use std::io::Read;
        let payload = Request::Stats { id }.to_json().render().into_bytes();
        let t = Instant::now();
        write_frame(&mut stream, &payload).expect("write stats");
        let mut header = [0u8; 4];
        stream.read_exact(&mut header).expect("read header");
        let leg1 = secs(t);
        let mut body = vec![0u8; u32::from_be_bytes(header) as usize];
        stream.read_exact(&mut body).expect("read payload");
        Response::decode(&body).expect("stats response");
        request_leg.push(leg1 * 1e3);
        response_leg.push((secs(t) - leg1) * 1e3);
    }
    Rtt {
        rtt_ms: median(&rtt),
        request_leg_ms: median(&request_leg),
        response_leg_ms: median(&response_leg),
    }
}

pub fn server_stats(addr: SocketAddr) -> ServeStats {
    ServeClient::connect(addr)
        .and_then(|mut c| c.stats())
        .expect("stats")
}

/// The service thread's self time per layer, from an in-process replay
/// of the same requests through the public service path:
/// `Request::decode`, `Hosted::serve_batch` (flushes of the default
/// micro-batch size, split at every update like the live batcher),
/// `Hosted::apply_update`, and response encoding + framing.
#[derive(Default)]
pub struct Replay {
    pub decode_ms: Vec<f64>,
    pub encode_ms: Vec<f64>,
    pub batch_hit_ms: Vec<f64>,
    pub batch_exec_ms: Vec<f64>,
    pub apply_ms: Vec<f64>,
    /// Per query: decode + its flush's `serve_batch` + its encode, ms.
    pub service_ms: Vec<f64>,
    pub wrong: usize,
}

/// The replayed service: hosted graphs, their cache, and the pending
/// micro-batch of (graph, query, id, decode ms).
struct Service {
    hosts: Vec<Hosted>,
    cache: ResultCache,
    pending: Vec<(usize, Query, u64, f64)>,
    sink: Vec<u8>,
}

impl Service {
    fn flush(&mut self, load: &mut Load, out: &mut Replay) {
        let options = agg_core::RunOptions::default();
        for g in 0..HOSTED.len() {
            let items: Vec<(usize, Query, u64, f64)> =
                self.pending.iter().copied().filter(|p| p.0 == g).collect();
            if items.is_empty() {
                continue;
            }
            let queries: Vec<Query> = items.iter().map(|p| p.1).collect();
            let t = Instant::now();
            let served = self.hosts[g]
                .serve_batch(&mut self.cache, &queries, &options)
                .expect("serve batch");
            let batch_ms = secs(t) * 1e3;
            if served.executed == 0 {
                out.batch_hit_ms.push(batch_ms);
            } else {
                out.batch_exec_ms.push(batch_ms);
            }
            for ((_, query, id, decode_ms), (values, cached)) in
                items.into_iter().zip(served.results)
            {
                if !load.accepts(g, served.epoch, query, &values) {
                    out.wrong += 1;
                }
                let t = Instant::now();
                let response = Response::Result {
                    id,
                    epoch: served.epoch,
                    cached,
                    values: (*values).clone(),
                };
                self.sink.clear();
                write_frame(&mut self.sink, response.to_json().render().as_bytes())
                    .expect("encode");
                let encode_ms = secs(t) * 1e3;
                out.encode_ms.push(encode_ms);
                out.service_ms.push(decode_ms + batch_ms + encode_ms);
            }
        }
        self.pending.clear();
    }

    fn run(&mut self, load: &mut Load, out: &mut Replay) {
        let max_batch = ServeConfig::default().max_batch;
        for i in 0..load.requests.len() {
            let t = Instant::now();
            let request = Request::decode(&load.requests[i].payload).expect("decode request");
            let decode_ms = secs(t) * 1e3;
            out.decode_ms.push(decode_ms);
            match (request, load.requests[i].kind) {
                (Request::Query { id, query, .. }, Kind::Query { graph, .. }) => {
                    self.pending.push((graph, query, id, decode_ms));
                    if self.pending.len() == max_batch {
                        self.flush(load, out);
                    }
                }
                (
                    Request::Update { updates, .. },
                    Kind::Update {
                        graph,
                        expect_epoch,
                    },
                ) => {
                    self.flush(load, out);
                    let t = Instant::now();
                    let applied = self.hosts[graph]
                        .apply_update(&updates, &mut self.cache, &agg_core::RunOptions::default())
                        .expect("apply update");
                    out.apply_ms.push(secs(t) * 1e3);
                    out.wrong += usize::from(applied.epoch != expect_epoch);
                }
                _ => unreachable!("payloads encode their own kind"),
            }
        }
        self.flush(load, out);
    }
}

/// Replays `warmup` (unrecorded) and then `load` in process.
pub fn replay(warmup: &mut Load, load: &mut Load, seed: u64) -> Replay {
    let mut service = Service {
        hosts: hosts(&graphs(seed)),
        cache: ResultCache::new(),
        pending: Vec::new(),
        sink: Vec::new(),
    };
    let mut warm = Replay::default();
    service.run(warmup, &mut warm);
    let mut out = Replay::default();
    service.run(load, &mut out);
    out.wrong += warm.wrong;
    out
}

/// Per-layer metrics of the live service from `Stats` deltas, summed
/// over the (before, after) snapshot pairs of the traced segments.
pub fn stats_metrics(pairs: &[(ServeStats, ServeStats)], out: &mut Report) {
    let d = |f: fn(&ServeStats) -> u64| {
        pairs
            .iter()
            .map(|(before, after)| f(after).saturating_sub(f(before)) as f64)
            .sum::<f64>()
    };
    let lookups = d(|s| s.cache_hits) + d(|s| s.cache_misses);
    out.push(
        "serve.cache_hit_ratio",
        "fraction",
        Clock::None,
        d(|s| s.cache_hits) / lookups.max(1.0),
    );
    out.push(
        "serve.cache_evicted",
        "count",
        Clock::None,
        d(|s| s.cache_evicted),
    );
    out.push(
        "serve.flush_size",
        "queries",
        Clock::None,
        d(|s| s.cache_misses) / d(|s| s.batches).max(1.0),
    );
    out.push(
        "serve.shed_frac",
        "fraction",
        Clock::None,
        d(|s| s.shed) / d(|s| s.received).max(1.0),
    );
}
