//! The batched multi-query session layer: many typed queries against one
//! resident graph, scheduled to amortize upload, state-reset, and
//! inspector costs.
//!
//! A [`Session`] owns the device and the uploaded graph. Callers submit a
//! batch of [`Query`] values and get back a [`BatchReport`] with one
//! [`RunReport`] per query, in submission order. The scheduler:
//!
//! 1. **validates the whole batch up front** — one malformed query fails
//!    the batch before any device time is spent;
//! 2. **pools `AlgoState` buffers** — queries reuse device allocations
//!    (reset in place by the engine) instead of reallocating;
//! 3. **groups same-algorithm queries** — the batch is stably reordered
//!    by algorithm so consecutive runs share kernel-variant behavior,
//!    while reports come back in submission order;
//! 4. **charges the graph upload once** — the CSR H2D transfer belongs to
//!    the session (paid at construction), so per-query totals are pure
//!    query cost and telescope exactly over the batch.
//!
//! Time accounting extends the single-run identity
//! `setup + iterations + teardown == total` to batches:
//! `Σ per-query device time == batch device total`, whether the batch
//! runs on the main device or across workers. A session built with
//! [`Session::parallel`] fans contiguous chunks of the scheduled order
//! across host threads, one simulated device per worker; each worker's
//! device clock partitions into its queries' slices, and the batch total
//! is the sum over workers. Values, iteration and launch counts are
//! bit-identical to sequential execution because every simulated device
//! runs its blocks in order on one thread, so each run is deterministic.

use crate::engine::{
    drive, run, validate_query, Algo, CoreError, Query, RunOptions, RunReport, Seed,
};
use crate::metrics::Metrics;
use agg_gpu_sim::json::Json;
use agg_gpu_sim::{Device, DeviceConfig, ProfileReport};
use agg_graph::CsrGraph;
use agg_kernels::{DeviceGraph, GpuKernels, PoolStats, StatePool};

/// One worker's private device context for parallel batch execution.
/// Device pointers are device-specific, so each worker re-uploads the
/// graph once (at creation, amortized across batches) and pools its own
/// states.
struct Worker {
    dev: Device,
    dg: DeviceGraph,
    pool: StatePool,
}

/// A multi-query session against one resident graph (see the module
/// docs for the scheduling and time-accounting contract).
///
/// ```
/// use agg_core::{Query, RunOptions, Session};
/// use agg_graph::{Dataset, Scale};
///
/// let g = Dataset::Amazon.generate_weighted(Scale::Tiny, 42, 64);
/// let mut session = Session::new(&g).unwrap();
/// let batch = session
///     .run_batch(
///         &[
///             Query::Bfs { src: 0 },
///             Query::Sssp { src: 3 },
///             Query::Bfs { src: 7 },
///             Query::Cc,
///         ],
///         &RunOptions::default(),
///     )
///     .unwrap();
/// assert_eq!(batch.queries.len(), 4);
/// assert!(batch.queries_per_sec() > 0.0);
/// ```
pub struct Session {
    dev: Device,
    kernels: GpuKernels,
    dg: DeviceGraph,
    pool: StatePool,
    /// Kept for worker uploads (device pointers cannot be shared across
    /// devices) and for `enable_bottom_up`.
    graph: CsrGraph,
    /// Host threads a batch fans out across; 1 runs batches on the main
    /// device.
    worker_count: usize,
    workers: Vec<Worker>,
    batches: u64,
    queries_run: u64,
}

impl Session {
    /// Uploads `g` to a default device (simulated Tesla C2070) with
    /// sequential batch execution.
    pub fn new(g: &CsrGraph) -> Result<Session, CoreError> {
        Session::with_device(g, DeviceConfig::tesla_c2070())
    }

    /// Uploads `g` to a device with the given configuration (sequential
    /// batch execution).
    pub fn with_device(g: &CsrGraph, cfg: DeviceConfig) -> Result<Session, CoreError> {
        Session::build(g, cfg, 1)
    }

    /// A session that fans independent batch queries across `workers`
    /// host threads, one simulated device each. Results are identical to
    /// sequential execution; worker devices are created lazily on the
    /// first batch and reused afterwards. One worker runs batches on the
    /// main device, like [`Session::with_device`].
    ///
    /// `workers` must be at least 1 — zero is rejected as
    /// [`CoreError::InvalidConfig`] rather than silently clamped,
    /// matching the `Device::try_new` convention. Worker counts larger
    /// than a batch are fine: each batch caps its fan-out at its query
    /// count.
    pub fn parallel(g: &CsrGraph, cfg: DeviceConfig, workers: usize) -> Result<Session, CoreError> {
        if workers == 0 {
            return Err(CoreError::InvalidConfig {
                detail: "parallel session needs at least one worker (got 0); \
                         use Session::with_device for sequential execution"
                    .into(),
            });
        }
        Session::build(g, cfg, workers)
    }

    fn build(g: &CsrGraph, cfg: DeviceConfig, worker_count: usize) -> Result<Session, CoreError> {
        let mut dev = Device::try_new(cfg)?;
        let kernels = GpuKernels::build();
        let dg = DeviceGraph::upload(&mut dev, g);
        let mut pool = StatePool::new(dg.n);
        pool.warm(&mut dev, 1)?;
        Ok(Session {
            dev,
            kernels,
            dg,
            pool,
            graph: g.clone(),
            worker_count,
            workers: Vec::new(),
            batches: 0,
            queries_run: 0,
        })
    }

    /// Uploads the reverse graph on every device this session owns,
    /// enabling [`crate::Strategy::DirectionOptimized`] BFS.
    pub fn enable_bottom_up(&mut self) {
        self.dg.upload_reverse(&mut self.dev, &self.graph);
        for w in &mut self.workers {
            w.dg.upload_reverse(&mut w.dev, &self.graph);
        }
    }

    /// Runs one query on the session's main device using a pooled state.
    pub fn run(&mut self, query: Query, options: &RunOptions) -> Result<RunReport, CoreError> {
        validate_query(query, options, self.dg.n, self.dg.weights.is_some())?;
        if matches!(query, Query::PageRank { .. }) {
            // PageRank's deterministic gather walks the transpose; upload
            // it once on first use (no-op afterwards).
            self.dg.upload_reverse(&mut self.dev, &self.graph);
        }
        let state = self.pool.acquire(&mut self.dev)?;
        let result = run(
            &mut self.dev,
            &self.kernels,
            &self.dg,
            &state,
            query,
            options,
        );
        self.pool.release(state);
        self.queries_run += 1;
        result
    }

    /// Replaces the session's resident graph with `g` (same device, fresh
    /// upload and state pool). The batch-dynamic layer calls this after
    /// applying an update batch so every subsequent run — warm or cold —
    /// executes against the current CSR snapshot. Worker devices are
    /// dropped and lazily recreated with the new graph; if the old graph
    /// had its reverse uploaded (bottom-up / PageRank), the new one gets
    /// it too.
    pub fn reload_graph(&mut self, g: &CsrGraph) -> Result<(), CoreError> {
        let had_reverse = self.dg.rrow.is_some();
        self.dg = DeviceGraph::upload(&mut self.dev, g);
        self.pool = StatePool::new(self.dg.n);
        self.pool.warm(&mut self.dev, 1)?;
        self.graph = g.clone();
        self.workers.clear();
        if had_reverse {
            self.dg.upload_reverse(&mut self.dev, &self.graph);
        }
        Ok(())
    }

    /// Runs one query *warm* on the session's main device: instead of
    /// resetting state for the query's source, the device starts from
    /// `warm_values` (the fixpoint of the pre-update graph, with any
    /// affecting deletions already ruled out by the caller) and seeds the
    /// working set by relaxing `added`, the update batch's net-inserted
    /// `(src, dst, weight)` edges. Because BFS levels, SSSP distances, and
    /// CC labels are unique fixpoints of a monotone relaxation, the result
    /// is bit-identical to a cold run on the updated graph, which must
    /// already be resident (via [`Session::reload_graph`]).
    ///
    /// Only unordered relaxation can re-improve finite values, so ordered
    /// static variants, `Hybrid`, and `DirectionOptimized` are rejected
    /// (`Adaptive` always selects unordered variants), as is PageRank.
    pub fn run_warm(
        &mut self,
        query: Query,
        options: &RunOptions,
        warm_values: &[u32],
        added: &[(u32, u32, u32)],
    ) -> Result<RunReport, CoreError> {
        let state = self.pool.acquire(&mut self.dev)?;
        let result = drive(
            &mut self.dev,
            &self.kernels,
            &self.dg,
            &state,
            query,
            options,
            Seed::Warm {
                values: warm_values,
                added,
            },
        );
        self.pool.release(state);
        self.queries_run += 1;
        result
    }

    /// Runs a batch of queries and returns per-query reports in
    /// submission order. The batch fails fast — before any execution — if
    /// any query is invalid. The graph H2D transfer is never re-charged
    /// per query (it was paid when the session uploaded the graph), so
    /// `options.include_graph_transfer` is ignored inside batches.
    pub fn run_batch(
        &mut self,
        queries: &[Query],
        options: &RunOptions,
    ) -> Result<BatchReport, CoreError> {
        for (i, q) in queries.iter().enumerate() {
            validate_query(*q, options, self.dg.n, self.dg.weights.is_some())
                .map_err(|e| at_query(i, e))?;
        }
        if queries.iter().any(|q| matches!(q, Query::PageRank { .. })) {
            // PageRank's gather needs the transpose on every device the
            // batch may touch. Uploading here (idempotent, like pool
            // warming) keeps the charge out of per-query time slices;
            // lazily created workers inherit it via `ensure_workers`.
            self.enable_bottom_up();
        }
        let mut opts = *options;
        opts.include_graph_transfer = false;
        let order = schedule(queries);
        let outcome = if self.worker_count > 1 {
            self.run_parallel(queries, &order, &opts)?
        } else {
            self.run_sequential(queries, &order, &opts)?
        };
        let (slots, device_ns, profile, workers, makespan_ns) = outcome;
        let queries: Vec<QueryReport> = slots
            .into_iter()
            .map(|s| s.expect("every scheduled query produced a report"))
            .collect();
        let host_ns: f64 = queries.iter().map(|q| q.report.host_ns).sum();
        let mut metrics = Metrics::default();
        let mut pool = self.pool.stats();
        for q in &queries {
            metrics.absorb(&q.report.metrics);
        }
        for w in &self.workers {
            pool.absorb(w.pool.stats());
        }
        self.batches += 1;
        self.queries_run += queries.len() as u64;
        Ok(BatchReport {
            queries,
            scheduled: order,
            device_ns,
            host_ns,
            total_ns: device_ns + host_ns,
            makespan_ns,
            profile,
            metrics,
            pool,
            workers,
        })
    }

    /// Sequential path: every query runs on the main device; the device
    /// clock telescopes exactly into per-query slices.
    #[allow(clippy::type_complexity)]
    fn run_sequential(
        &mut self,
        queries: &[Query],
        order: &[usize],
        opts: &RunOptions,
    ) -> Result<(Vec<Option<QueryReport>>, f64, ProfileReport, usize, f64), CoreError> {
        self.pool.warm(&mut self.dev, 1)?;
        let start_profile = self.dev.profile().clone();
        let start_ns = self.dev.elapsed_ns();
        let mut slots: Vec<Option<QueryReport>> = queries.iter().map(|_| None).collect();
        for &i in order {
            let state = self.pool.acquire(&mut self.dev)?;
            let result = run(
                &mut self.dev,
                &self.kernels,
                &self.dg,
                &state,
                queries[i],
                opts,
            );
            self.pool.release(state);
            let report = result.map_err(|e| at_query(i, e))?;
            slots[i] = Some(QueryReport {
                index: i,
                query: queries[i],
                worker: 0,
                device_ns: report.total_ns - report.host_ns,
                report,
            });
        }
        let device_ns = self.dev.elapsed_ns() - start_ns;
        let profile = self.dev.profile().since(&start_profile);
        let host_ns: f64 = slots.iter().flatten().map(|q| q.report.host_ns).sum();
        Ok((slots, device_ns, profile, 1, device_ns + host_ns))
    }

    /// Parallel path: contiguous chunks of the scheduled order (keeping
    /// same-algorithm groups together) fan out across worker threads,
    /// each with its own simulated device. The batch device total is the
    /// sum of the workers' clock deltas; each worker's delta partitions
    /// into its queries' slices.
    #[allow(clippy::type_complexity)]
    fn run_parallel(
        &mut self,
        queries: &[Query],
        order: &[usize],
        opts: &RunOptions,
    ) -> Result<(Vec<Option<QueryReport>>, f64, ProfileReport, usize, f64), CoreError> {
        let k = self.worker_count.min(order.len()).max(1);
        self.ensure_workers(k)?;
        let chunks = contiguous_chunks(order, k);
        let kernels = &self.kernels;
        let workers = &mut self.workers;
        let results: Vec<Result<(Vec<QueryReport>, f64), CoreError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = workers[..k]
                    .iter_mut()
                    .zip(&chunks)
                    .enumerate()
                    .map(|(widx, (w, chunk))| {
                        scope.spawn(move || {
                            let start_ns = w.dev.elapsed_ns();
                            let mut out = Vec::with_capacity(chunk.len());
                            for &i in chunk {
                                // A panicking query must fail its batch as
                                // a typed error, not unwind through the
                                // scope and abort every sibling query (and,
                                // in a long-lived service, the process).
                                // The pool self-heals: an un-released state
                                // is simply dropped and the next acquire
                                // allocates a fresh one.
                                let result = std::panic::catch_unwind(
                                    std::panic::AssertUnwindSafe(|| {
                                        #[cfg(test)]
                                        tests::injected_panic_hook(&queries[i]);
                                        let state = w.pool.acquire(&mut w.dev)?;
                                        let result = run(
                                            &mut w.dev, kernels, &w.dg, &state, queries[i], opts,
                                        );
                                        w.pool.release(state);
                                        result
                                    }),
                                )
                                .unwrap_or_else(|payload| {
                                    Err(CoreError::WorkerPanic {
                                        worker: widx,
                                        query_index: i,
                                        detail: panic_message(payload),
                                    })
                                });
                                let report = result.map_err(|e| at_query(i, e))?;
                                out.push(QueryReport {
                                    index: i,
                                    query: queries[i],
                                    worker: widx,
                                    device_ns: report.total_ns - report.host_ns,
                                    report,
                                });
                            }
                            Ok((out, w.dev.elapsed_ns() - start_ns))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(widx, h)| {
                        // With the per-query catch above a worker thread
                        // can only die on a panic outside the guarded
                        // region (e.g. in the clock reads); surface even
                        // that as the same typed error.
                        h.join().unwrap_or_else(|payload| {
                            Err(CoreError::WorkerPanic {
                                worker: widx,
                                query_index: usize::MAX,
                                detail: panic_message(payload),
                            })
                        })
                    })
                    .collect()
            });
        let mut slots: Vec<Option<QueryReport>> = queries.iter().map(|_| None).collect();
        let mut device_ns = 0.0;
        let mut makespan_ns: f64 = 0.0;
        let mut profile = ProfileReport::default();
        for r in results {
            let (reports, worker_ns) = r?;
            device_ns += worker_ns;
            let worker_host: f64 = reports.iter().map(|q| q.report.host_ns).sum();
            makespan_ns = makespan_ns.max(worker_ns + worker_host);
            for qr in reports {
                profile.merge(&qr.report.profile);
                let index = qr.index;
                slots[index] = Some(qr);
            }
        }
        Ok((slots, device_ns, profile, k, makespan_ns))
    }

    fn ensure_workers(&mut self, k: usize) -> Result<(), CoreError> {
        while self.workers.len() < k {
            let mut dev = Device::try_new(self.dev.config().clone())?;
            let mut dg = DeviceGraph::upload(&mut dev, &self.graph);
            if self.dg.rrow.is_some() {
                dg.upload_reverse(&mut dev, &self.graph);
            }
            let mut pool = StatePool::new(dg.n);
            pool.warm(&mut dev, 1)?;
            self.workers.push(Worker { dev, dg, pool });
        }
        Ok(())
    }

    /// Node count of the resident graph.
    pub fn node_count(&self) -> usize {
        self.dg.n as usize
    }

    /// Edge count of the resident graph.
    pub fn edge_count(&self) -> usize {
        self.dg.m as usize
    }

    /// Batches executed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Queries executed so far (batched and single).
    pub fn queries_run(&self) -> u64 {
        self.queries_run
    }

    /// Aggregated state-pool counters across the main device and every
    /// worker.
    pub fn pool_stats(&self) -> PoolStats {
        let mut stats = self.pool.stats();
        for w in &self.workers {
            stats.absorb(w.pool.stats());
        }
        stats
    }

    /// The main device (for configuration inspection).
    pub fn device(&self) -> &Device {
        &self.dev
    }
}

/// Extracts a human-readable message from a caught panic payload
/// (`panic!` with a string literal or a formatted message; anything else
/// reports its opacity).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Decorates a per-query rejection with the submission index so batch
/// callers can find the offending query.
fn at_query(index: usize, e: CoreError) -> CoreError {
    match e {
        CoreError::InvalidQuery { detail } => CoreError::InvalidQuery {
            detail: format!("query #{index}: {detail}"),
        },
        CoreError::Unsupported { detail } => CoreError::Unsupported {
            detail: format!("query #{index}: {detail}"),
        },
        other => other,
    }
}

/// The execution order: submission indices stably sorted so
/// same-algorithm queries run consecutively (variant decisions and census
/// behavior warm across neighbors), preserving submission order within
/// each group.
fn schedule(queries: &[Query]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_by_key(|&i| algo_rank(queries[i].algo()));
    order
}

fn algo_rank(algo: Algo) -> u8 {
    match algo {
        Algo::Bfs => 0,
        Algo::Sssp => 1,
        Algo::Cc => 2,
        Algo::PageRank => 3,
    }
}

/// Splits the scheduled order into `k` contiguous, near-equal chunks so
/// algorithm groups stay together within workers.
fn contiguous_chunks(order: &[usize], k: usize) -> Vec<Vec<usize>> {
    let base = order.len() / k;
    let extra = order.len() % k;
    let mut chunks = Vec::with_capacity(k);
    let mut at = 0;
    for w in 0..k {
        let len = base + usize::from(w < extra);
        chunks.push(order[at..at + len].to_vec());
        at += len;
    }
    chunks
}

/// One query's result within a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// Position of this query in the submitted batch.
    pub index: usize,
    /// The query that ran.
    pub query: Query,
    /// Worker that executed it (0 in sequential mode).
    pub worker: usize,
    /// Modeled device time of this query, ns: its slice of its device's
    /// clock (`report.total_ns - report.host_ns`). Slices sum exactly to
    /// [`BatchReport::device_ns`].
    pub device_ns: f64,
    /// The full single-run report (values, metrics, profile slice).
    pub report: RunReport,
}

impl QueryReport {
    /// Summary telemetry for this query (per-run metrics and profile
    /// included; values omitted — they are data, not telemetry).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("index", self.index.into()),
            ("query", self.query.to_json()),
            ("worker", self.worker.into()),
            ("device_ns", self.device_ns.into()),
            ("report", self.report.to_json()),
        ])
    }
}

/// The result of [`Session::run_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Per-query reports, in submission order.
    pub queries: Vec<QueryReport>,
    /// The order queries executed in (submission indices after
    /// same-algorithm grouping).
    pub scheduled: Vec<usize>,
    /// Total modeled device time of the batch, ns: the device-clock delta
    /// spanning the batch (summed over workers in parallel mode). Equals
    /// `Σ per-query device_ns`.
    pub device_ns: f64,
    /// Total modeled host-CPU time within the batch (hybrid runs), ns.
    pub host_ns: f64,
    /// `device_ns + host_ns`.
    pub total_ns: f64,
    /// Critical-path modeled time of the batch, ns: with `k` devices
    /// running concurrently, the slowest worker's device + host time.
    /// Equals `total_ns` in sequential mode; the gap to `total_ns` is
    /// what multi-device parallelism buys.
    pub makespan_ns: f64,
    /// Merged per-kernel profile of the whole batch; equals the merge of
    /// every query's profile slice.
    pub profile: ProfileReport,
    /// Aggregated always-on metrics across the batch's queries.
    pub metrics: Metrics,
    /// State-pool reuse counters at the end of the batch (session
    /// lifetime totals, all devices).
    pub pool: PoolStats,
    /// Host workers that executed the batch (1 in sequential mode).
    pub workers: usize,
}

impl BatchReport {
    /// Modeled serving throughput of this batch: queries per second of
    /// modeled serving time — the critical path `makespan_ns`, which is
    /// `total_ns` when sequential and the slowest worker when parallel.
    ///
    /// **NaN-free contract** (serve-side throughput math depends on it):
    /// the result is always finite and `>= 0.0`, never `NaN` or `inf`.
    /// The degenerate cases are explicit — an empty batch has no
    /// throughput (`0.0`), and a nonempty batch with a zero, negative, or
    /// non-finite makespan (possible only for hand-built reports; real
    /// runs always accumulate positive modeled time) also reports `0.0`
    /// rather than dividing garbage into a benchmark artifact.
    pub fn queries_per_sec(&self) -> f64 {
        let degenerate =
            self.queries.is_empty() || !self.makespan_ns.is_finite() || self.makespan_ns <= 0.0;
        if degenerate {
            return 0.0;
        }
        self.queries.len() as f64 / (self.makespan_ns / 1e9)
    }

    /// Total modeled batch time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns / 1e6
    }

    /// The batch telemetry payload: summary, pool counters, merged
    /// profile, and the per-query reports.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("queries", self.queries.len().into()),
            ("workers", self.workers.into()),
            ("device_ns", self.device_ns.into()),
            ("host_ns", self.host_ns.into()),
            ("total_ns", self.total_ns.into()),
            ("makespan_ns", self.makespan_ns.into()),
            ("queries_per_sec", self.queries_per_sec().into()),
            (
                "scheduled",
                Json::arr(self.scheduled.iter().map(|&i| Json::from(i))),
            ),
            (
                "pool",
                Json::obj([
                    ("created", self.pool.created.into()),
                    ("acquires", self.pool.acquires.into()),
                    ("hits", self.pool.hits.into()),
                ]),
            ),
            ("metrics", self.metrics.to_json()),
            ("profile", self.profile.to_json()),
            (
                "per_query",
                Json::arr(self.queries.iter().map(QueryReport::to_json)),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PageRankConfig;
    use agg_graph::{traversal, Dataset, Scale};

    /// A PageRank epsilon no real workload uses; parallel workers panic on
    /// it (inside the per-query unwind guard), giving the worker-panic
    /// regression test a deterministic trigger without any shared mutable
    /// test state.
    pub(super) const PANIC_EPSILON: f32 = 1.122_334_4e-33;

    /// Test-only injection point called by the parallel worker loop.
    pub(super) fn injected_panic_hook(query: &Query) {
        if let Query::PageRank { config } = query {
            if config.epsilon == PANIC_EPSILON {
                panic!("injected test panic");
            }
        }
    }

    fn mixed_batch() -> Vec<Query> {
        vec![
            Query::PageRank {
                config: PageRankConfig {
                    damping: 0.85,
                    epsilon: 1e-4,
                },
            },
            Query::Bfs { src: 0 },
            Query::Sssp { src: 3 },
            Query::Cc,
            Query::Bfs { src: 7 },
            Query::Sssp { src: 0 },
            Query::Bfs { src: 11 },
        ]
    }

    #[test]
    fn batch_results_match_single_runs_in_submission_order() {
        let g = Dataset::Amazon.generate_weighted(Scale::Tiny, 81, 64);
        let queries = mixed_batch();
        let mut session = Session::new(&g).unwrap();
        let batch = session.run_batch(&queries, &RunOptions::default()).unwrap();
        assert_eq!(batch.queries.len(), queries.len());
        for (i, (q, qr)) in queries.iter().zip(&batch.queries).enumerate() {
            assert_eq!(qr.index, i);
            assert_eq!(qr.query, *q);
            let mut gg = crate::GpuGraph::new(&g).unwrap();
            let single = gg.run(*q, &RunOptions::default()).unwrap();
            assert_eq!(qr.report.values, single.values, "query #{i} {q:?}");
            assert_eq!(qr.report.iterations, single.iterations, "query #{i}");
        }
    }

    #[test]
    fn scheduler_groups_same_algorithm_queries_stably() {
        let queries = mixed_batch();
        let order = schedule(&queries);
        // Grouped: BFS (1, 4, 6), SSSP (2, 5), CC (3), PageRank (0) —
        // submission order preserved within each group.
        assert_eq!(order, vec![1, 4, 6, 2, 5, 3, 0]);
        let ranks: Vec<u8> = order
            .iter()
            .map(|&i| algo_rank(queries[i].algo()))
            .collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(ranks, sorted, "scheduled order is grouped by algorithm");
    }

    #[test]
    fn per_query_device_slices_sum_to_batch_total_sequential() {
        let g = Dataset::Amazon.generate_weighted(Scale::Tiny, 82, 64);
        let mut session = Session::new(&g).unwrap();
        let batch = session
            .run_batch(&mixed_batch(), &RunOptions::default())
            .unwrap();
        let sum: f64 = batch.queries.iter().map(|q| q.device_ns).sum();
        assert!(
            (sum - batch.device_ns).abs() <= 1e-6 * batch.device_ns.max(1.0),
            "Σ per-query {sum} != batch device total {}",
            batch.device_ns
        );
        assert!((batch.total_ns - batch.device_ns - batch.host_ns).abs() <= 1e-9);
        assert!(batch.device_ns > 0.0);
        assert_eq!(
            batch.makespan_ns, batch.total_ns,
            "one device: the critical path is the whole batch"
        );
    }

    #[test]
    fn per_query_device_slices_sum_to_batch_total_parallel() {
        let g = Dataset::Amazon.generate_weighted(Scale::Tiny, 82, 64);
        let mut session = Session::parallel(&g, DeviceConfig::tesla_c2070(), 3).unwrap();
        let batch = session
            .run_batch(&mixed_batch(), &RunOptions::default())
            .unwrap();
        assert_eq!(batch.workers, 3);
        let sum: f64 = batch.queries.iter().map(|q| q.device_ns).sum();
        assert!(
            (sum - batch.device_ns).abs() <= 1e-6 * batch.device_ns.max(1.0),
            "Σ per-query {sum} != batch device total {}",
            batch.device_ns
        );
        // Each worker's delta partitions into its queries' slices too.
        for w in 0..batch.workers {
            let wsum: f64 = batch
                .queries
                .iter()
                .filter(|q| q.worker == w)
                .map(|q| q.device_ns)
                .sum();
            assert!(wsum > 0.0, "worker {w} ran at least one query");
        }
        // Three devices share the work: the critical path beats the
        // aggregate, and no worker can be faster than total/k.
        assert!(batch.makespan_ns < batch.total_ns);
        assert!(batch.makespan_ns >= batch.total_ns / batch.workers as f64);
    }

    #[test]
    fn parallel_batches_match_sequential_batches_exactly() {
        let g = Dataset::Google.generate_weighted(Scale::Tiny, 83, 64);
        let queries = mixed_batch();
        let mut seq = Session::new(&g).unwrap();
        let mut par = Session::parallel(&g, DeviceConfig::tesla_c2070(), 4).unwrap();
        let bs = seq.run_batch(&queries, &RunOptions::default()).unwrap();
        let bp = par.run_batch(&queries, &RunOptions::default()).unwrap();
        for (a, b) in bs.queries.iter().zip(&bp.queries) {
            assert_eq!(a.report.values, b.report.values, "query #{}", a.index);
            assert_eq!(a.report.iterations, b.report.iterations);
        }
    }

    #[test]
    fn batch_profile_equals_device_slice_and_merged_query_slices() {
        let g = Dataset::P2p.generate(Scale::Tiny, 84);
        let mut session = Session::new(&g).unwrap();
        let before = session.device().profile().clone();
        let batch = session
            .run_batch(
                &[Query::Bfs { src: 0 }, Query::Bfs { src: 9 }, Query::Cc],
                &RunOptions::default(),
            )
            .unwrap();
        // The batch profile is the device-level since() slice...
        let device_slice = session.device().profile().since(&before);
        assert_eq!(
            batch.profile.total_launches(),
            device_slice.total_launches()
        );
        // ...and merging the per-query slices reproduces it.
        let mut merged = ProfileReport::default();
        for q in &batch.queries {
            merged.merge(&q.report.profile);
        }
        assert_eq!(merged.total_launches(), batch.profile.total_launches());
        for (m, b) in merged.kernels().iter().zip(batch.profile.kernels()) {
            assert_eq!(m.kernel, b.kernel);
            assert_eq!(m.launches, b.launches);
            assert_eq!(m.stats, b.stats);
            assert!((m.time_ns - b.time_ns).abs() <= 1e-6 * b.time_ns.max(1.0));
        }
        let total_query_launches: u64 = batch.queries.iter().map(|q| q.report.launches).sum();
        assert_eq!(batch.profile.total_launches(), total_query_launches);
    }

    #[test]
    fn state_pool_is_reused_across_queries_and_batches() {
        let g = Dataset::P2p.generate(Scale::Tiny, 85);
        let mut session = Session::new(&g).unwrap();
        let queries = [Query::Bfs { src: 0 }, Query::Bfs { src: 1 }, Query::Cc];
        session.run_batch(&queries, &RunOptions::default()).unwrap();
        let after_one = session.pool_stats();
        assert_eq!(after_one.created, 1, "one warm allocation serves the batch");
        assert_eq!(after_one.acquires, 3);
        assert_eq!(after_one.hits, 3);
        session.run_batch(&queries, &RunOptions::default()).unwrap();
        let after_two = session.pool_stats();
        assert_eq!(after_two.created, 1, "second batch reuses the same state");
        assert_eq!(after_two.hits, 6);
        assert_eq!(session.batches(), 2);
        assert_eq!(session.queries_run(), 6);
    }

    #[test]
    fn invalid_query_fails_the_whole_batch_before_any_run() {
        let g = Dataset::P2p.generate(Scale::Tiny, 86); // unweighted
        let n = g.node_count() as u32;
        let mut session = Session::new(&g).unwrap();
        let before = session.device().profile().clone();
        for (bad, needle) in [
            (Query::Bfs { src: n }, "out of range"),
            (Query::Sssp { src: 0 }, "weighted"),
            (
                Query::PageRank {
                    config: PageRankConfig {
                        damping: 2.0,
                        epsilon: 1e-4,
                    },
                },
                "damping",
            ),
        ] {
            let err = session
                .run_batch(&[Query::Bfs { src: 0 }, bad], &RunOptions::default())
                .expect_err("batch with an invalid query must fail");
            let msg = err.to_string();
            assert!(msg.contains("query #1"), "{msg}");
            assert!(msg.contains(needle), "{msg}");
        }
        // Fail-fast: nothing launched.
        assert!(session.device().profile().since(&before).is_empty());
        assert_eq!(session.queries_run(), 0);
    }

    #[test]
    fn single_run_through_the_session_matches_gpugraph() {
        let g = Dataset::Google.generate(Scale::Tiny, 87);
        let mut session = Session::new(&g).unwrap();
        let mut gg = crate::GpuGraph::new(&g).unwrap();
        let opts = RunOptions::default();
        let a = session.run(Query::Bfs { src: 2 }, &opts).unwrap();
        let b = gg.run(Query::Bfs { src: 2 }, &opts).unwrap();
        assert_eq!(a.values, b.values);
        assert_eq!(session.node_count(), g.node_count());
        assert_eq!(session.edge_count(), g.edge_count());
    }

    #[test]
    fn direction_optimized_queries_run_after_enable_bottom_up() {
        let g = Dataset::Amazon.generate(Scale::Tiny, 88);
        let mut session = Session::parallel(&g, DeviceConfig::tesla_c2070(), 2).unwrap();
        session.enable_bottom_up();
        let opts = RunOptions::builder()
            .strategy(crate::Strategy::DirectionOptimized {
                bottom_up_fraction: 0.05,
            })
            .build();
        let batch = session
            .run_batch(&[Query::Bfs { src: 0 }, Query::Bfs { src: 5 }], &opts)
            .unwrap();
        assert_eq!(batch.queries[0].report.values, traversal::bfs_levels(&g, 0));
        assert_eq!(batch.queries[1].report.values, traversal::bfs_levels(&g, 5));
    }

    #[test]
    fn batch_json_has_the_acceptance_fields() {
        let g = Dataset::P2p.generate(Scale::Tiny, 89);
        let mut session = Session::new(&g).unwrap();
        let batch = session
            .run_batch(&[Query::Bfs { src: 0 }, Query::Cc], &RunOptions::default())
            .unwrap();
        let json = batch.to_json().render();
        for field in [
            "\"queries\":2",
            "\"queries_per_sec\"",
            "\"device_ns\"",
            "\"scheduled\"",
            "\"pool\"",
            "\"hits\"",
            "\"per_query\"",
            "\"algo\":\"bfs\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert!(batch.queries_per_sec() > 0.0);
        assert!(batch.total_ms() > 0.0);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let g = Dataset::P2p.generate(Scale::Tiny, 90);
        let mut session = Session::new(&g).unwrap();
        let batch = session.run_batch(&[], &RunOptions::default()).unwrap();
        assert!(batch.queries.is_empty());
        assert_eq!(batch.device_ns, 0.0);
        assert_eq!(batch.queries_per_sec(), 0.0);
    }

    #[test]
    fn parallel_session_with_zero_workers_is_a_typed_error() {
        let g = Dataset::P2p.generate(Scale::Tiny, 92);
        let err = match Session::parallel(&g, DeviceConfig::tesla_c2070(), 0) {
            Err(e) => e,
            Ok(_) => panic!("zero workers must not be silently clamped"),
        };
        let msg = err.to_string();
        assert!(
            matches!(err, CoreError::InvalidConfig { .. }),
            "wrong variant: {msg}"
        );
        assert!(msg.contains("at least one worker"), "{msg}");
    }

    #[test]
    fn worker_panic_surfaces_as_a_typed_error_not_a_process_abort() {
        let g = Dataset::Amazon.generate_weighted(Scale::Tiny, 93, 64);
        let mut session = Session::parallel(&g, DeviceConfig::tesla_c2070(), 2).unwrap();
        let queries = vec![
            Query::Bfs { src: 0 },
            Query::Sssp { src: 1 },
            Query::PageRank {
                config: PageRankConfig {
                    damping: 0.85,
                    epsilon: PANIC_EPSILON,
                },
            },
            Query::Bfs { src: 2 },
        ];
        let err = session
            .run_batch(&queries, &RunOptions::default())
            .expect_err("a panicking query must fail the batch, not the process");
        match &err {
            CoreError::WorkerPanic {
                query_index,
                detail,
                ..
            } => {
                // The panicking query keeps its submission index through
                // the scheduler's reordering.
                assert_eq!(*query_index, 2, "{err}");
                assert!(detail.contains("injected test panic"), "{err}");
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
        // The session survives: the same queries minus the poisoned one
        // run to completion on the same workers.
        let ok = session
            .run_batch(
                &[Query::Bfs { src: 0 }, Query::Sssp { src: 1 }],
                &RunOptions::default(),
            )
            .expect("session stays usable after a contained panic");
        assert_eq!(ok.queries[0].report.values, traversal::bfs_levels(&g, 0));
    }

    #[test]
    fn queries_per_sec_is_nan_free_on_degenerate_batches() {
        let g = Dataset::P2p.generate(Scale::Tiny, 94);
        let mut session = Session::new(&g).unwrap();
        let mut batch = session
            .run_batch(&[Query::Bfs { src: 0 }], &RunOptions::default())
            .unwrap();
        assert!(batch.queries_per_sec() > 0.0);
        // Hand-degenerate reports must stay finite and zero, never NaN —
        // this is the contract BENCH_serve.json's throughput math leans on.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            batch.makespan_ns = bad;
            let qps = batch.queries_per_sec();
            assert_eq!(qps, 0.0, "makespan {bad} must yield 0.0, got {qps}");
            assert!(qps.is_finite());
        }
    }

    #[test]
    fn parallel_session_with_more_workers_than_queries() {
        let g = Dataset::P2p.generate(Scale::Tiny, 91);
        let mut session = Session::parallel(&g, DeviceConfig::tesla_c2070(), 8).unwrap();
        let batch = session
            .run_batch(&[Query::Bfs { src: 0 }], &RunOptions::default())
            .unwrap();
        assert_eq!(batch.workers, 1, "workers are capped at the query count");
        assert_eq!(batch.queries[0].report.values, traversal::bfs_levels(&g, 0));
    }
}
