//! The live threaded service and its client.
//!
//! Thread layout (hand-rolled over `std::thread` + `std::sync::mpsc`;
//! the workspace builds offline, so no async runtime):
//!
//! ```text
//!   acceptor ──spawns──▶ per-connection reader ──try_send──▶ bounded queue
//!                              │ (shed: typed Overloaded          │
//!                              │  written straight back)          ▼
//!   client ◀── Arc<Mutex<TcpStream>> writes ◀────────── service thread
//!                                                (micro-batcher + Sessions
//!                                                 + epoch-keyed cache)
//! ```
//!
//! One service thread owns every [`Hosted`] graph, the
//! [`ResultCache`], and all epochs — so cache and epoch access need no
//! locking and responses for one connection are written through that
//! connection's stream mutex. Admission control lives at the reader:
//! query requests are `try_send` into the bounded queue and a full queue
//! is answered immediately with [`Response::Overloaded`] — the client
//! always hears back, the service thread is never blocked by overload.
//! Control requests (epoch bumps, stats) use a blocking send instead:
//! they are rare, must not be shed, and back-pressure on them is fine.

use crate::cache::ResultCache;
use crate::protocol::{read_frame, write_frame, Request, Response, ServeStats};
use crate::ServeError;
use agg_core::{CoreError, Query, RunOptions, Session};
use agg_dynamic::{plan_repair, DynStats, DynamicGraph, RepairKind, RepairPlan, UpdateBatch};
use agg_gpu_sim::DeviceConfig;
use agg_graph::CsrGraph;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A graph resident in the service: the `Arc`-shared current snapshot,
/// the batch-dynamic graph behind it, the [`Session`] that answers
/// queries against it, and its monotonic epoch.
pub struct Hosted {
    /// Name clients address the graph by.
    pub name: String,
    /// The current immutable snapshot (swapped on dynamic updates).
    pub graph: Arc<CsrGraph>,
    /// Current epoch; bumped by the invalidation hook and by every
    /// effective update batch.
    pub epoch: u64,
    dynamic: DynamicGraph,
    session: Session,
}

/// What [`Hosted::apply_update`] did with one update batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateApplied {
    /// The epoch after the batch (unchanged when `bumped` is false).
    pub epoch: u64,
    /// True when the batch had a net effect. A no-op batch (empty, or
    /// inserts cancelled by this batch's own deletes) leaves the graph,
    /// the epoch, and the cache untouched.
    pub bumped: bool,
    /// Updates in the batch as received.
    pub applied: usize,
    /// Stale cache entries carried to the new epoch (proven unchanged or
    /// warm-repaired on the engine).
    pub repaired: usize,
    /// Stale cache entries dropped instead.
    pub invalidated: usize,
}

/// What [`Hosted::serve_batch`] produced for one flush of queries.
pub struct BatchServed {
    /// Per input query, in order: the value vector and whether it came
    /// from the cache (`true`) or this flush's execution (`false` — also
    /// for duplicates deduplicated into a twin's run).
    pub results: Vec<(Arc<Vec<u32>>, bool)>,
    /// The epoch every result in this flush was computed/served at.
    pub epoch: u64,
    /// Modeled critical-path time of the `run_batch` call, ns (`0.0`
    /// when everything was served from cache).
    pub makespan_ns: f64,
    /// Unique queries that actually executed.
    pub executed: usize,
}

impl Hosted {
    /// Uploads `graph` to a fresh device and wraps it for serving.
    pub fn new(
        name: impl Into<String>,
        graph: Arc<CsrGraph>,
        device: DeviceConfig,
    ) -> Result<Hosted, CoreError> {
        let session = Session::with_device(&graph, device)?;
        Ok(Hosted {
            name: name.into(),
            dynamic: DynamicGraph::new((*graph).clone()),
            graph,
            epoch: 0,
            session,
        })
    }

    /// Bumps the epoch and strands this graph's stale cache entries,
    /// returning the count removed — the blunt invalidation hook
    /// (no repair; [`apply_update`](Self::apply_update) is the surgical
    /// path).
    pub fn bump_epoch(&mut self, cache: &mut ResultCache) -> usize {
        self.epoch += 1;
        cache.invalidate_before(&self.name, self.epoch)
    }

    /// Applies one batch of edge updates: mutate the dynamic graph, and —
    /// if the batch had a net effect — reload the session on the new
    /// snapshot, bump the epoch, then settle every stale cache entry per
    /// its [`RepairPlan`]: carry it forward unchanged, warm-repair it on
    /// the engine, or drop it (the next query recomputes). A no-op batch
    /// touches nothing: no epoch bump, no invalidation, no compaction.
    pub fn apply_update(
        &mut self,
        batch: &UpdateBatch,
        cache: &mut ResultCache,
        options: &RunOptions,
    ) -> Result<UpdateApplied, ServeError> {
        let applied = batch.len();
        let out = self
            .dynamic
            .apply(batch)
            .map_err(|e| ServeError::Protocol(format!("invalid update batch: {e}")))?;
        if !out.bumped {
            return Ok(UpdateApplied {
                epoch: self.epoch,
                bumped: false,
                applied,
                repaired: 0,
                invalidated: 0,
            });
        }
        let snapshot = self
            .dynamic
            .snapshot()
            .map_err(|e| ServeError::Protocol(format!("snapshot failed: {e}")))?
            .clone();
        self.session.reload_graph(&snapshot)?;
        self.graph = Arc::new(snapshot);
        self.epoch += 1;
        let n = self.graph.node_count();
        let m = self.graph.edge_count();
        let avg_out_degree = m as f64 / n.max(1) as f64;
        let mut repaired = 0usize;
        for (query, old) in cache.stale_entries(&self.name, self.epoch) {
            // PageRank has no repair path — leave it for the sweep below.
            let Some(kind) = RepairKind::from_query(&query) else {
                continue;
            };
            if old.len() != n {
                continue;
            }
            match plan_repair(kind, &old, &out.added, &out.removed, n, m, avg_out_degree) {
                RepairPlan::Unchanged => {
                    cache.insert(&self.name, self.epoch, query, old);
                    repaired += 1;
                }
                RepairPlan::Incremental { .. } => {
                    // A warm-start rejection (e.g. a pinned ordered
                    // strategy) just drops the entry; never fail the
                    // update over a cache repair.
                    if let Ok(rep) = self.session.run_warm(query, options, &old, &out.added) {
                        cache.insert(&self.name, self.epoch, query, Arc::new(rep.values));
                        repaired += 1;
                    }
                }
                RepairPlan::Recompute { .. } => {}
            }
        }
        // The sweep removes every old-epoch entry — including the
        // originals of repaired ones (their carried copy lives at the new
        // epoch) — so the dropped-without-repair count is the difference.
        let swept = cache.invalidate_before(&self.name, self.epoch);
        Ok(UpdateApplied {
            epoch: self.epoch,
            bumped: true,
            applied,
            repaired,
            invalidated: swept - repaired,
        })
    }

    /// The dynamic layer's lifetime counters (applied/no-op batches,
    /// inserted/removed edges, compactions).
    pub fn dynamic_stats(&self) -> DynStats {
        self.dynamic.stats()
    }

    /// Answers one flush of queries against this graph: serves what the
    /// cache already holds, deduplicates the rest by query identity, runs
    /// the unique remainder as **one** `Session::run_batch`, and memoizes
    /// the new results at the current epoch.
    ///
    /// Shared by the live service thread and the virtual-time replay
    /// client, so both paths have identical cache/dedup/batch semantics.
    pub fn serve_batch(
        &mut self,
        cache: &mut ResultCache,
        queries: &[Query],
        options: &RunOptions,
    ) -> Result<BatchServed, CoreError> {
        // Slot per input; fill from cache first.
        let mut slots: Vec<Option<(Arc<Vec<u32>>, bool)>> = vec![None; queries.len()];
        // Unique misses, in first-appearance order.
        let mut unique: Vec<Query> = Vec::new();
        let mut unique_index: HashMap<String, usize> = HashMap::new();
        // Which unique run feeds each un-cached slot.
        let mut feeds: Vec<(usize, usize)> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            if let Some(values) = cache.get(&self.name, self.epoch, q) {
                slots[i] = Some((values, true));
                continue;
            }
            let u = *unique_index.entry(q.cache_key()).or_insert_with(|| {
                unique.push(*q);
                unique.len() - 1
            });
            feeds.push((i, u));
        }
        let mut makespan_ns = 0.0;
        if !unique.is_empty() {
            let batch = self.session.run_batch(&unique, options)?;
            makespan_ns = batch.makespan_ns;
            let fresh: Vec<Arc<Vec<u32>>> = batch
                .queries
                .into_iter()
                .map(|qr| Arc::new(qr.report.values))
                .collect();
            for (q, values) in unique.iter().zip(&fresh) {
                cache.insert(&self.name, self.epoch, *q, Arc::clone(values));
            }
            for (slot, u) in feeds {
                slots[slot] = Some((Arc::clone(&fresh[u]), false));
            }
        }
        Ok(BatchServed {
            results: slots
                .into_iter()
                .map(|s| s.expect("every query slot filled"))
                .collect(),
            epoch: self.epoch,
            makespan_ns,
            executed: unique.len(),
        })
    }

    /// Runs one query straight through the session, bypassing the cache —
    /// the reference path hit-verification compares against.
    pub fn run_uncached(
        &mut self,
        query: Query,
        options: &RunOptions,
    ) -> Result<Vec<u32>, CoreError> {
        Ok(self.session.run(query, options)?.values)
    }
}

/// Service tuning.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission bound: query requests beyond this many pending are shed
    /// with a typed [`Response::Overloaded`].
    pub queue_capacity: usize,
    /// Most queries one micro-batch flush serves. The service thread
    /// flushes as soon as it is free, taking whatever is queued up to
    /// this many; it never waits for a batch to fill.
    pub max_batch: usize,
    /// Device every hosted graph is uploaded to.
    pub device: DeviceConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 64,
            max_batch: 8,
            device: DeviceConfig::tesla_c2070(),
        }
    }
}

/// Lifetime counters shared across the server's threads.
#[derive(Default)]
struct StatsCells {
    received: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    batches: AtomicU64,
    epoch_bumps: AtomicU64,
    updates: AtomicU64,
    repaired: AtomicU64,
    cache_evicted: AtomicU64,
    errors: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            received: self.received.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            epoch_bumps: self.epoch_bumps.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            repaired: self.repaired.load(Ordering::Relaxed),
            cache_evicted: self.cache_evicted.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// A write handle to one client connection (readers and the service
/// thread both answer through it).
type Reply = Arc<Mutex<TcpStream>>;

/// One unit of work queued for the service thread.
enum Work {
    Query {
        id: u64,
        graph: String,
        query: Query,
        reply: Reply,
    },
    Bump {
        id: u64,
        graph: String,
        reply: Reply,
    },
    Update {
        id: u64,
        graph: String,
        updates: UpdateBatch,
        reply: Reply,
    },
    Stats {
        id: u64,
        reply: Reply,
    },
    Shutdown,
}

/// The running service: a TCP listener plus its acceptor and service
/// threads. Dropping without [`Server::shutdown`] leaks the threads, so
/// call it.
pub struct Server {
    addr: SocketAddr,
    tx: SyncSender<Work>,
    stopping: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    service: Option<JoinHandle<()>>,
    stats: Arc<StatsCells>,
}

impl Server {
    /// Binds `127.0.0.1:0` (a fresh ephemeral port) and starts serving
    /// the given graphs.
    pub fn start(hosts: Vec<Hosted>, config: ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        // +1 so control messages (blocking sends) always have headroom
        // even when queries hold `queue_capacity` slots.
        let (tx, rx) = std::sync::mpsc::sync_channel::<Work>(config.queue_capacity + 1);
        let stopping = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsCells::default());

        let service = {
            let stats = Arc::clone(&stats);
            let config = config.clone();
            std::thread::spawn(move || service_loop(hosts, rx, &config, &stats))
        };
        let acceptor = {
            let tx = tx.clone();
            let stopping = Arc::clone(&stopping);
            let stats = Arc::clone(&stats);
            let capacity = config.queue_capacity;
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // A flush answers several queries back to back on one
                    // connection; Nagle would hold each response after the
                    // first until the client ACKs.
                    let _ = stream.set_nodelay(true);
                    let tx = tx.clone();
                    let stats = Arc::clone(&stats);
                    std::thread::spawn(move || reader_loop(stream, &tx, capacity, &stats));
                }
            })
        };
        Ok(Server {
            addr,
            tx,
            stopping,
            acceptor: Some(acceptor),
            service: Some(service),
            stats,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time read of the lifetime counters.
    pub fn stats(&self) -> ServeStats {
        self.stats.snapshot()
    }

    /// Stops accepting, drains the service thread, joins everything, and
    /// returns the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.stopping.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.tx.send(Work::Shutdown);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.service.take() {
            let _ = h.join();
        }
        self.stats.snapshot()
    }
}

/// Per-connection reader: decode frames, shed or enqueue.
fn reader_loop(stream: TcpStream, tx: &SyncSender<Work>, capacity: usize, stats: &StatsCells) {
    let reply: Reply = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut read = stream;
    loop {
        let payload = match read_frame(&mut read) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        stats.received.fetch_add(1, Ordering::Relaxed);
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    id: 0,
                    detail: e.to_string(),
                };
                if send_response(&reply, &resp).is_err() {
                    return;
                }
                continue;
            }
        };
        let work = match request {
            Request::Query { id, graph, query } => {
                let work = Work::Query {
                    id,
                    graph,
                    query,
                    reply: Arc::clone(&reply),
                };
                // Admission control: a full queue answers *now* with a
                // typed shed, it never blocks the reader.
                match tx.try_send(work) {
                    Ok(()) => continue,
                    Err(TrySendError::Full(_)) => {
                        stats.shed.fetch_add(1, Ordering::Relaxed);
                        let resp = Response::Overloaded {
                            id,
                            queue_depth: capacity,
                            capacity,
                        };
                        if send_response(&reply, &resp).is_err() {
                            return;
                        }
                        continue;
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Request::BumpEpoch { id, graph } => Work::Bump {
                id,
                graph,
                reply: Arc::clone(&reply),
            },
            Request::Update { id, graph, updates } => Work::Update {
                id,
                graph,
                updates,
                reply: Arc::clone(&reply),
            },
            Request::Stats { id } => Work::Stats {
                id,
                reply: Arc::clone(&reply),
            },
        };
        // Control traffic may block on a full queue; it is never shed.
        if tx.send(work).is_err() {
            return;
        }
    }
}

fn send_response(reply: &Reply, resp: &Response) -> std::io::Result<()> {
    let payload = resp.to_json().render().into_bytes();
    let mut stream = reply.lock().unwrap_or_else(|p| p.into_inner());
    write_frame(&mut *stream, &payload)
}

/// The service thread: micro-batch queries, process control work inline.
fn service_loop(
    hosts: Vec<Hosted>,
    rx: Receiver<Work>,
    config: &ServeConfig,
    stats: &StatsCells,
) {
    let mut hosts: HashMap<String, Hosted> =
        hosts.into_iter().map(|h| (h.name.clone(), h)).collect();
    let mut cache = ResultCache::new();
    loop {
        let first = match rx.recv() {
            Ok(w) => w,
            Err(_) => return,
        };
        let mut batch = Vec::new();
        let mut stop = false;
        match first {
            Work::Shutdown => return,
            Work::Query { id, graph, query, reply } => batch.push((id, graph, query, reply)),
            control => {
                handle_control(control, &mut hosts, &mut cache, stats);
                continue;
            }
        }
        // Collect the micro-batch from what is already queued, up to
        // `max_batch`, and flush without waiting for more: queries that
        // arrive while this flush executes make up the next batch.
        while batch.len() < config.max_batch {
            match rx.try_recv() {
                Ok(Work::Query { id, graph, query, reply }) => {
                    batch.push((id, graph, query, reply));
                }
                Ok(Work::Shutdown) => {
                    stop = true;
                    break;
                }
                Ok(control) => handle_control(control, &mut hosts, &mut cache, stats),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    stop = true;
                    break;
                }
            }
        }
        flush_batch(batch, &mut hosts, &mut cache, stats);
        if stop {
            return;
        }
    }
}

fn handle_control(
    work: Work,
    hosts: &mut HashMap<String, Hosted>,
    cache: &mut ResultCache,
    stats: &StatsCells,
) {
    match work {
        Work::Bump { id, graph, reply } => {
            let resp = match hosts.get_mut(&graph) {
                Some(h) => {
                    let invalidated = h.bump_epoch(cache);
                    stats.epoch_bumps.fetch_add(1, Ordering::Relaxed);
                    Response::EpochBumped {
                        id,
                        epoch: h.epoch,
                        invalidated,
                    }
                }
                None => {
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    Response::Error {
                        id,
                        detail: ServeError::UnknownGraph(graph).to_string(),
                    }
                }
            };
            let _ = send_response(&reply, &resp);
        }
        Work::Update {
            id,
            graph,
            updates,
            reply,
        } => {
            stats.updates.fetch_add(1, Ordering::Relaxed);
            let resp = match hosts.get_mut(&graph) {
                Some(h) => match h.apply_update(&updates, cache, &RunOptions::default()) {
                    Ok(a) => {
                        if a.bumped {
                            stats.epoch_bumps.fetch_add(1, Ordering::Relaxed);
                        }
                        stats.repaired.fetch_add(a.repaired as u64, Ordering::Relaxed);
                        Response::Updated {
                            id,
                            epoch: a.epoch,
                            bumped: a.bumped,
                            applied: a.applied,
                            repaired: a.repaired,
                            invalidated: a.invalidated,
                        }
                    }
                    Err(e) => {
                        stats.errors.fetch_add(1, Ordering::Relaxed);
                        Response::Error {
                            id,
                            detail: e.to_string(),
                        }
                    }
                },
                None => {
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    Response::Error {
                        id,
                        detail: ServeError::UnknownGraph(graph).to_string(),
                    }
                }
            };
            stats.cache_evicted.store(cache.evicted, Ordering::Relaxed);
            let _ = send_response(&reply, &resp);
        }
        Work::Stats { id, reply } => {
            let resp = Response::Stats {
                id,
                stats: stats.snapshot(),
            };
            let _ = send_response(&reply, &resp);
        }
        Work::Query { .. } | Work::Shutdown => unreachable!("not control work"),
    }
}

/// Executes one collected micro-batch: group by graph, serve each group
/// through the shared [`Hosted::serve_batch`] path, answer every client.
fn flush_batch(
    batch: Vec<(u64, String, Query, Reply)>,
    hosts: &mut HashMap<String, Hosted>,
    cache: &mut ResultCache,
    stats: &StatsCells,
) {
    if batch.is_empty() {
        return;
    }
    let mut by_graph: HashMap<String, Vec<(u64, Query, Reply)>> = HashMap::new();
    for (id, graph, query, reply) in batch {
        by_graph
            .entry(graph)
            .or_default()
            .push((id, query, reply));
    }
    for (graph, items) in by_graph {
        let Some(host) = hosts.get_mut(&graph) else {
            for (id, _, reply) in items {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    id,
                    detail: ServeError::UnknownGraph(graph.clone()).to_string(),
                };
                let _ = send_response(&reply, &resp);
            }
            continue;
        };
        let queries: Vec<Query> = items.iter().map(|(_, q, _)| *q).collect();
        match host.serve_batch(cache, &queries, &RunOptions::default()) {
            Ok(served) => {
                if served.executed > 0 {
                    stats.batches.fetch_add(1, Ordering::Relaxed);
                }
                for ((id, _, reply), (values, cached)) in items.into_iter().zip(served.results)
                {
                    stats.served.fetch_add(1, Ordering::Relaxed);
                    if cached {
                        stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        stats.cache_misses.fetch_add(1, Ordering::Relaxed);
                    }
                    let resp = Response::Result {
                        id,
                        epoch: served.epoch,
                        cached,
                        values: (*values).clone(),
                    };
                    let _ = send_response(&reply, &resp);
                }
            }
            Err(e) => {
                // The whole flush failed validation (run_batch fails fast
                // before executing anything) — answer every member.
                let detail = e.to_string();
                for (id, _, reply) in items {
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    let resp = Response::Error {
                        id,
                        detail: detail.clone(),
                    };
                    let _ = send_response(&reply, &resp);
                }
            }
        }
    }
    stats.cache_evicted.store(cache.evicted, Ordering::Relaxed);
}

/// A small synchronous client: one connection, correlation ids handled
/// for you.
pub struct ServeClient {
    stream: TcpStream,
    next_id: u64,
}

impl ServeClient {
    /// Connects to a running [`Server`], with Nagle's algorithm off so
    /// each request leaves as soon as it is written.
    pub fn connect(addr: SocketAddr) -> Result<ServeClient, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient { stream, next_id: 1 })
    }

    /// Sends one request and waits for its response.
    pub fn request(&mut self, request: &Request) -> Result<Response, ServeError> {
        let payload = request.to_json().render().into_bytes();
        write_frame(&mut self.stream, &payload)?;
        let frame = read_frame(&mut self.stream)?
            .ok_or_else(|| ServeError::Protocol("server closed the connection".into()))?;
        Response::decode(&frame)
    }

    /// Runs `query` against `graph` on the server.
    pub fn query(&mut self, graph: &str, query: Query) -> Result<Response, ServeError> {
        let id = self.fresh_id();
        self.request(&Request::Query {
            id,
            graph: graph.to_string(),
            query,
        })
    }

    /// Bumps `graph`'s epoch on the server.
    pub fn bump_epoch(&mut self, graph: &str) -> Result<Response, ServeError> {
        let id = self.fresh_id();
        self.request(&Request::BumpEpoch {
            id,
            graph: graph.to_string(),
        })
    }

    /// Applies a batch of edge updates to `graph` on the server.
    pub fn update(
        &mut self,
        graph: &str,
        updates: UpdateBatch,
    ) -> Result<Response, ServeError> {
        let id = self.fresh_id();
        self.request(&Request::Update {
            id,
            graph: graph.to_string(),
            updates,
        })
    }

    /// Reads the server's lifetime counters.
    pub fn stats(&mut self) -> Result<ServeStats, ServeError> {
        let id = self.fresh_id();
        match self.request(&Request::Stats { id })? {
            Response::Stats { stats, .. } => Ok(stats),
            other => Err(ServeError::Protocol(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_graph::{Dataset, Scale};

    fn graph(seed: u64) -> Arc<CsrGraph> {
        Arc::new(Dataset::Amazon.generate_weighted(Scale::Tiny, seed, 64))
    }

    fn hosts(device: &DeviceConfig) -> Vec<Hosted> {
        vec![
            Hosted::new("a", graph(1), device.clone()).expect("host a"),
            Hosted::new("b", graph(2), device.clone()).expect("host b"),
        ]
    }

    #[test]
    fn served_values_match_direct_session_runs() {
        let config = ServeConfig::default();
        let server = Server::start(hosts(&config.device), config.clone()).expect("start");
        let mut client = ServeClient::connect(server.addr()).expect("connect");

        let g = graph(1);
        let mut reference = Session::with_device(&g, config.device.clone()).expect("session");
        for query in [
            Query::Bfs { src: 3 },
            Query::Sssp { src: 3 },
            Query::Cc,
            Query::pagerank(),
        ] {
            let expect = reference
                .run(query, &RunOptions::default())
                .expect("direct run")
                .values;
            match client.query("a", query).expect("serve") {
                Response::Result { values, .. } => {
                    assert_eq!(values, expect, "served {query:?} differs from direct run");
                }
                other => panic!("expected a result, got {other:?}"),
            }
        }
        // Repeat one query: now a cache hit, same values.
        match client.query("a", Query::Bfs { src: 3 }).expect("serve") {
            Response::Result { cached, values, .. } => {
                assert!(cached, "repeat of an identical query must hit the cache");
                assert_eq!(
                    values,
                    reference
                        .run(Query::Bfs { src: 3 }, &RunOptions::default())
                        .expect("rerun")
                        .values
                );
            }
            other => panic!("expected a result, got {other:?}"),
        }
        let stats = server.shutdown();
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.served, 5);
        assert!(stats.cache_hits >= 1);
    }

    #[test]
    fn unknown_graphs_and_invalid_queries_are_typed_errors() {
        let config = ServeConfig::default();
        let server = Server::start(hosts(&config.device), config).expect("start");
        let mut client = ServeClient::connect(server.addr()).expect("connect");
        match client.query("nope", Query::Cc).expect("roundtrip") {
            Response::Error { detail, .. } => assert!(detail.contains("unknown graph")),
            other => panic!("expected an error, got {other:?}"),
        }
        // Source out of range: rejected by validation, connection stays up.
        match client
            .query("a", Query::Bfs { src: 1_000_000 })
            .expect("roundtrip")
        {
            Response::Error { detail, .. } => {
                assert!(detail.contains("out of range") || detail.contains("invalid"), "{detail}");
            }
            other => panic!("expected an error, got {other:?}"),
        }
        // And the server still answers good queries afterwards.
        assert!(matches!(
            client.query("a", Query::Cc).expect("roundtrip"),
            Response::Result { .. }
        ));
        server.shutdown();
    }

    #[test]
    fn epoch_bumps_are_acknowledged_and_invalidate_server_side_entries() {
        let config = ServeConfig::default();
        let server = Server::start(hosts(&config.device), config).expect("start");
        let mut client = ServeClient::connect(server.addr()).expect("connect");
        // Warm the cache on graph a.
        client.query("a", Query::Cc).expect("warm");
        match client.bump_epoch("a").expect("bump") {
            Response::EpochBumped {
                epoch, invalidated, ..
            } => {
                assert_eq!(epoch, 1);
                assert_eq!(invalidated, 1, "exactly the warmed entry is stranded");
            }
            other => panic!("expected an epoch ack, got {other:?}"),
        }
        // Same query again: recomputed (miss), served at the new epoch.
        match client.query("a", Query::Cc).expect("requery") {
            Response::Result { epoch, cached, .. } => {
                assert_eq!(epoch, 1);
                assert!(!cached, "stale entry must not be served after a bump");
            }
            other => panic!("expected a result, got {other:?}"),
        }
        let stats = server.shutdown();
        assert_eq!(stats.epoch_bumps, 1);
    }

    #[test]
    fn live_updates_repair_the_cache_and_serve_the_updated_graph() {
        let config = ServeConfig::default();
        let server = Server::start(hosts(&config.device), config.clone()).expect("start");
        let mut client = ServeClient::connect(server.addr()).expect("connect");
        // Warm the cache: two repairable entries plus a PageRank entry
        // (which has no repair path and must be dropped by the update).
        let bfs = Query::Bfs { src: 3 };
        client.query("a", bfs).expect("warm bfs");
        client.query("a", Query::Cc).expect("warm cc");
        client.query("a", Query::pagerank()).expect("warm pagerank");
        // One inserted edge: an effective batch.
        let mut batch = UpdateBatch::new();
        batch.insert(3, 70, 1);
        match client.update("a", batch).expect("update") {
            Response::Updated {
                epoch,
                bumped,
                applied,
                repaired,
                invalidated,
                ..
            } => {
                assert!(bumped, "a real insert must bump the epoch");
                assert_eq!(epoch, 1);
                assert_eq!(applied, 1);
                // Every warmed entry was settled one way or the other;
                // the PageRank entry is always in the dropped set.
                assert_eq!(repaired + invalidated, 3);
                assert!(invalidated >= 1, "pagerank entry must be dropped");
            }
            other => panic!("expected an update ack, got {other:?}"),
        }
        // Served values now match a from-scratch session on the updated
        // topology — whether the cache repaired them or they recompute.
        let updated = graph(1).rebuilt_with(&[(3, 70, 1)], &[]).expect("rebuild");
        let mut reference =
            Session::with_device(&updated, config.device.clone()).expect("session");
        for query in [bfs, Query::Cc] {
            let expect = reference
                .run(query, &RunOptions::default())
                .expect("direct run")
                .values;
            match client.query("a", query).expect("requery") {
                Response::Result { epoch, values, .. } => {
                    assert_eq!(epoch, 1);
                    assert_eq!(values, expect, "served {query:?} diverges after update");
                }
                other => panic!("expected a result, got {other:?}"),
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.updates, 1);
        assert_eq!(stats.epoch_bumps, 1);
    }

    #[test]
    fn empty_update_batch_is_a_typed_noop_over_the_wire() {
        let config = ServeConfig::default();
        let server = Server::start(hosts(&config.device), config).expect("start");
        let mut client = ServeClient::connect(server.addr()).expect("connect");
        client.query("a", Query::Cc).expect("warm");
        match client.update("a", UpdateBatch::new()).expect("noop") {
            Response::Updated {
                epoch,
                bumped,
                applied,
                repaired,
                invalidated,
                ..
            } => {
                assert_eq!(
                    (epoch, bumped, applied, repaired, invalidated),
                    (0, false, 0, 0, 0),
                    "an empty batch must touch nothing"
                );
            }
            other => panic!("expected an update ack, got {other:?}"),
        }
        // The warmed entry still serves as a hit at the untouched epoch.
        match client.query("a", Query::Cc).expect("requery") {
            Response::Result { epoch, cached, .. } => {
                assert_eq!(epoch, 0);
                assert!(cached, "no-op update must not invalidate the cache");
            }
            other => panic!("expected a result, got {other:?}"),
        }
        let stats = server.shutdown();
        assert_eq!(stats.updates, 1);
        assert_eq!(stats.epoch_bumps, 0, "no-op batches never bump");
    }

    #[test]
    fn overload_is_shed_with_a_typed_response_not_dropped() {
        // Tiny queue, singleton batches: each flush runs a full PageRank
        // while the reader floods the queue far faster than flushes
        // drain it.
        let config = ServeConfig {
            queue_capacity: 2,
            max_batch: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(hosts(&config.device), config).expect("start");
        let mut client = ServeClient::connect(server.addr()).expect("connect");

        // Fire a burst without reading responses; the bounded queue must
        // shed some and answer every single request either way. Distinct
        // epsilons keep every query a cache miss (full recompute each).
        let burst = 24u64;
        for i in 0..burst {
            let req = Request::Query {
                id: i,
                graph: "a".to_string(),
                query: Query::PageRank {
                    config: agg_core::PageRankConfig {
                        damping: 0.85,
                        epsilon: 1e-4 + i as f32 * 1e-6,
                    },
                },
            };
            let payload = req.to_json().render().into_bytes();
            write_frame(&mut client.stream, &payload).expect("write");
        }
        let mut answered = 0;
        let mut shed = 0;
        for _ in 0..burst {
            let frame = read_frame(&mut client.stream)
                .expect("read")
                .expect("response per request");
            match Response::decode(&frame).expect("decode") {
                Response::Result { .. } => answered += 1,
                Response::Overloaded { capacity, .. } => {
                    assert_eq!(capacity, 2);
                    shed += 1;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(answered + shed, burst);
        assert!(shed > 0, "a 24-deep burst into a 2-slot queue must shed");
        assert!(answered > 0, "admitted queries are still answered");
        let stats = server.shutdown();
        assert_eq!(stats.shed, shed);
        assert_eq!(stats.served, answered);
    }

    #[test]
    fn a_round_trip_is_not_held_by_nagle_or_delayed_ack() {
        // Split frame writes without TCP_NODELAY cost ~40 ms per leg on
        // loopback (Nagle waiting for the peer's delayed ACK); a stats
        // request does no work, so its round trip is pure transport.
        let config = ServeConfig::default();
        let server = Server::start(hosts(&config.device), config).expect("start");
        let mut client = ServeClient::connect(server.addr()).expect("connect");
        let mut rtt_ms: Vec<f64> = (0..20)
            .map(|_| {
                let t = std::time::Instant::now();
                client.stats().expect("stats");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        rtt_ms.sort_by(f64::total_cmp);
        let median = (rtt_ms[9] + rtt_ms[10]) / 2.0;
        assert!(median < 10.0, "median stats round trip {median:.3} ms: {rtt_ms:?}");
        server.shutdown();
    }
}
