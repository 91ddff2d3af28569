//! The iteration engine: the paper's Figure 8 driver with per-iteration
//! variant selection, working-set monitoring, and full time accounting.
//!
//! Per-iteration pipeline:
//!
//! 1. `prep` kernel — reset queue length / findmin cell / flag / census;
//! 2. `workset_gen` kernel — update vector → the representation chosen
//!    for this iteration (bitmap or queue);
//! 3. termination check — a 4-byte D2H read of the queue length or the
//!    nonempty flag (this PCIe round-trip is real per-iteration cost);
//! 4. inspector census (bitmap mode, when sampling) — `count` kernel +
//!    4-byte read;
//! 5. `findmin` kernel (ordered SSSP only);
//! 6. the computation kernel of the selected variant.
//!
//! Strategies: [`Strategy::Static`] (the paper's Tables 2/3),
//! [`Strategy::Adaptive`] (the paper's contribution),
//! [`Strategy::VirtualWarp`] (Hong et al. \[12\], extension), and
//! [`Strategy::Hybrid`] (CPU/GPU alternation in the spirit of Hong et
//! al. \[13\], extension): iterations whose working set is below a
//! threshold run on the host, paying state transfers at each processor
//! switch.

use crate::config::{AdaptiveConfig, DegreeMode};
use crate::decision::{decide, region, Region};
use crate::metrics::Metrics;
use agg_cpu::CpuCostModel;
use agg_gpu_sim::json::Json;
use agg_gpu_sim::mem::transfer::transfer_ns;
use agg_gpu_sim::prelude::*;
use agg_graph::{NodeId, INF};
use agg_kernels::{AlgoOrder, AlgoState, DeviceGraph, GpuKernels, Mapping, Variant, WorkSet};
use std::fmt;

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Breadth-first search (levels).
    Bfs,
    /// Single-source shortest paths (distances).
    Sssp,
    /// Connected components via min-label propagation (extension; the
    /// source argument is ignored and the graph should be symmetric for
    /// component semantics).
    Cc,
    /// PageRank-delta (extension): push-style PageRank over f32 ranks.
    /// The source argument is ignored; results are f32 bit patterns
    /// (see [`RunReport::values_as_f32`]).
    PageRank,
}

/// Implementation-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// One fixed variant for the whole traversal (the paper's Tables 2/3).
    Static(Variant),
    /// Per-iteration selection by the decision maker (Section VI).
    Adaptive,
    /// Virtual warp-centric mapping (extension; Hong et al., cited in
    /// Section II): each working-set element is handled by a sub-warp of
    /// `width` threads. Unordered BFS/SSSP only.
    VirtualWarp {
        /// Sub-warp width (power of two, 2..=32).
        width: u32,
        /// Working-set representation.
        workset: WorkSet,
    },
    /// Direction-optimizing BFS (extension, after Beamer et al.):
    /// iterations whose working set exceeds `bottom_up_fraction × n` run
    /// the *bottom-up* step (unvisited nodes scan in-edges for a frontier
    /// parent, atomic-free, early-exit); smaller ones run the adaptive
    /// top-down variants. Requires the reverse graph
    /// (`DeviceGraph::upload_reverse` / [`crate::Session::enable_bottom_up`]).
    /// BFS only.
    DirectionOptimized {
        /// Working-set fraction of `n` above which the bottom-up step is
        /// used (Beamer's heuristic; ~0.05-0.1 works well).
        bottom_up_fraction: f64,
    },
    /// CPU/GPU alternation (extension, after Hong et al. \[13\]):
    /// iterations with fewer than `gpu_threshold` working-set elements run
    /// on the host CPU; larger ones run on the GPU with the adaptive
    /// decision maker. Each processor switch transfers the value array and
    /// update vector. Unordered BFS/SSSP only.
    Hybrid {
        /// Working-set size at which execution moves to the GPU.
        gpu_threshold: u32,
    },
}

/// Working-set census policy for bitmap iterations (queue iterations know
/// their size for free from the length counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CensusMode {
    /// Never run the census kernel; termination uses the nonempty flag.
    Off,
    /// Run it every `sampling_period` iterations (the paper's Section
    /// VI.E overhead/accuracy trade-off).
    Sampled,
    /// Run it every iteration (used to regenerate Figure 2).
    Every,
}

/// PageRank-delta parameters (extension).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor `d` (teleport probability `1 - d`).
    pub damping: f32,
    /// Residual threshold below which a node stops propagating.
    pub epsilon: f32,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            epsilon: 1e-4,
        }
    }
}

/// A typed query against a resident graph: the algorithm plus its
/// per-algorithm parameters. This is the unit of work of
/// [`crate::Session::run`] and [`crate::Session::run_batch`] — source
/// nodes belong to the traversal queries and PageRank's damping/ε belong
/// to [`Query::PageRank`], so [`RunOptions`] carries only
/// algorithm-independent execution policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Breadth-first search (levels) from `src`.
    Bfs {
        /// Source node; must be `< n`.
        src: NodeId,
    },
    /// Single-source shortest paths (distances) from `src`. Requires a
    /// weighted graph.
    Sssp {
        /// Source node; must be `< n`.
        src: NodeId,
    },
    /// Connected components via min-label propagation (source-free).
    Cc,
    /// PageRank-delta with explicit parameters.
    PageRank {
        /// Damping factor and residual threshold.
        config: PageRankConfig,
    },
}

impl Query {
    /// A PageRank query with the default parameters (d = 0.85, ε = 1e-4).
    pub fn pagerank() -> Query {
        Query::PageRank {
            config: PageRankConfig::default(),
        }
    }

    /// The algorithm this query runs.
    pub fn algo(&self) -> Algo {
        match self {
            Query::Bfs { .. } => Algo::Bfs,
            Query::Sssp { .. } => Algo::Sssp,
            Query::Cc => Algo::Cc,
            Query::PageRank { .. } => Algo::PageRank,
        }
    }

    /// The traversal source (0 for the source-free algorithms, whose
    /// kernels ignore it).
    pub fn source(&self) -> NodeId {
        match self {
            Query::Bfs { src } | Query::Sssp { src } => *src,
            Query::Cc | Query::PageRank { .. } => 0,
        }
    }

    /// The PageRank parameters this query carries (defaults for the other
    /// algorithms, which never read them).
    pub fn pagerank_config(&self) -> PageRankConfig {
        match self {
            Query::PageRank { config } => *config,
            _ => PageRankConfig::default(),
        }
    }

    /// A canonical identity string for result caching: two queries share
    /// a key iff they compute bit-identical values on the same graph
    /// snapshot. Float parameters key by their exact bit pattern, so
    /// near-equal PageRank configurations never alias.
    ///
    /// The key deliberately excludes [`RunOptions`]: final values are
    /// bit-identical across strategies, variants, execution engines, and
    /// shard counts (an invariant this workspace enforces in the
    /// differential harness and property tests), so execution policy is
    /// not part of a result's identity. `agg-serve` keys its epoch cache
    /// with `(graph, epoch, cache_key)`.
    pub fn cache_key(&self) -> String {
        match self {
            Query::Bfs { src } => format!("bfs:{src}"),
            Query::Sssp { src } => format!("sssp:{src}"),
            Query::Cc => "cc".to_string(),
            Query::PageRank { config } => format!(
                "pagerank:{:08x}:{:08x}",
                config.damping.to_bits(),
                config.epsilon.to_bits()
            ),
        }
    }

    /// Short lowercase name of the queried algorithm.
    pub fn name(&self) -> &'static str {
        match self.algo() {
            Algo::Bfs => "bfs",
            Algo::Sssp => "sssp",
            Algo::Cc => "cc",
            Algo::PageRank => "pagerank",
        }
    }

    /// This query as a JSON object (telemetry labels, not a wire format).
    pub fn to_json(&self) -> Json {
        match self {
            Query::Bfs { src } | Query::Sssp { src } => {
                Json::obj([("algo", self.name().into()), ("src", (*src).into())])
            }
            Query::Cc => Json::obj([("algo", self.name().into())]),
            Query::PageRank { config } => Json::obj([
                ("algo", self.name().into()),
                ("damping", f64::from(config.damping).into()),
                ("epsilon", f64::from(config.epsilon).into()),
            ]),
        }
    }
}

/// Options for a traversal run: algorithm-independent execution policy
/// (strategy, tuning, census cadence, tracing). Per-algorithm parameters
/// live on [`Query`].
///
/// The struct is non-exhaustive so future knobs are not semver breaks;
/// construct it with the builder:
///
/// ```
/// use agg_core::{CensusMode, RunOptions};
///
/// let opts = RunOptions::adaptive().trace().census(CensusMode::Every).build();
/// assert!(opts.record_trace);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct RunOptions {
    /// Selection strategy.
    pub strategy: Strategy,
    /// Thresholds + kernel-configuration tuning.
    pub tuning: AdaptiveConfig,
    /// Census policy.
    pub census: CensusMode,
    /// Record a per-iteration trace in the report.
    pub record_trace: bool,
    /// Iteration safety cap; 0 = automatic (`4n + 64`).
    pub max_iterations: u64,
    /// Charge the CSR H2D transfer to this run (the paper's reported
    /// times include CPU-GPU transfers).
    pub include_graph_transfer: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            strategy: Strategy::Adaptive,
            tuning: AdaptiveConfig::default(),
            census: CensusMode::Sampled,
            record_trace: false,
            max_iterations: 0,
            include_graph_transfer: true,
        }
    }
}

impl RunOptions {
    /// A builder seeded with the defaults (adaptive strategy, sampled
    /// census, graph transfer charged).
    pub fn builder() -> RunOptionsBuilder {
        RunOptionsBuilder {
            opts: RunOptions::default(),
        }
    }

    /// A builder for an adaptive-runtime run (alias of
    /// [`RunOptions::builder`], reading as the strategy it selects).
    pub fn adaptive() -> RunOptionsBuilder {
        RunOptions::builder()
    }

    /// A static-variant run with default tuning (census off — a fixed
    /// variant has no decision to inform).
    pub fn static_variant(v: Variant) -> RunOptions {
        RunOptions::builder().static_variant(v).build()
    }
}

/// Builder for [`RunOptions`] (see [`RunOptions::builder`]).
#[derive(Debug, Clone, Copy)]
pub struct RunOptionsBuilder {
    opts: RunOptions,
}

impl RunOptionsBuilder {
    /// Sets the selection strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.opts.strategy = strategy;
        self
    }

    /// Pins one fixed variant and turns the census off (a fixed variant
    /// has no decision to inform).
    pub fn static_variant(mut self, v: Variant) -> Self {
        self.opts.strategy = Strategy::Static(v);
        self.opts.census = CensusMode::Off;
        self
    }

    /// Overrides the decision-maker thresholds and kernel tuning.
    pub fn tuning(mut self, tuning: AdaptiveConfig) -> Self {
        self.opts.tuning = tuning;
        self
    }

    /// Sets the working-set census policy.
    pub fn census(mut self, census: CensusMode) -> Self {
        self.opts.census = census;
        self
    }

    /// Records a per-iteration trace in the report.
    pub fn trace(mut self) -> Self {
        self.opts.record_trace = true;
        self
    }

    /// Sets the iteration safety cap (0 = automatic, `4n + 64`).
    pub fn max_iterations(mut self, cap: u64) -> Self {
        self.opts.max_iterations = cap;
        self
    }

    /// Whether the CSR H2D transfer is charged to the run.
    pub fn include_graph_transfer(mut self, include: bool) -> Self {
        self.opts.include_graph_transfer = include;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> RunOptions {
        self.opts
    }
}

/// One iteration's trace entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: u32,
    /// The variant that executed the computation (for host iterations of
    /// a hybrid run, the variant the GPU *would* have used).
    pub variant: Variant,
    /// Where the decision maker's inputs sat in the Figure 11 space when
    /// this iteration's variant was chosen (recorded for every strategy,
    /// even those that ignore it).
    pub region: Region,
    /// Working-set size, when known *exactly* (queue mode, censused bitmap
    /// mode, or any host iteration).
    pub ws_size: Option<u32>,
    /// The working-set size estimate the decision maker consumed for this
    /// iteration — stale whenever the census was skipped. Comparing this
    /// against [`IterationRecord::ws_size`] measures inspector-sampling
    /// error.
    pub est_ws: u32,
    /// The average-outdegree estimate the decision maker consumed (the
    /// whole-graph average, or the last working-set census in
    /// [`DegreeMode::WorkingSet`]).
    pub est_avg_deg: f64,
    /// Sub-warp width when the iteration ran a virtual-warp kernel.
    pub vwarp_width: Option<u32>,
    /// True when a hybrid run executed this iteration on the host CPU.
    pub on_host: bool,
    /// True when this iteration changed variant (or processor, for hybrid
    /// runs) relative to the previous one.
    pub switched: bool,
    /// Modeled time spent in the inspector this iteration (census kernels
    /// + their result reads), ns. Subset of `iter_ns`.
    pub inspector_ns: f64,
    /// Modeled time of this iteration (all launches + reads + host work),
    /// ns.
    pub iter_ns: f64,
}

impl IterationRecord {
    /// This record as a JSON object (one element of the trace array).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("iteration", self.iteration.into()),
            ("variant", self.variant.name().into()),
            ("region", self.region.name().into()),
            ("ws_size", self.ws_size.into()),
            ("est_ws", self.est_ws.into()),
            ("est_avg_deg", self.est_avg_deg.into()),
            ("vwarp_width", self.vwarp_width.into()),
            ("on_host", self.on_host.into()),
            ("switched", self.switched.into()),
            ("inspector_ns", self.inspector_ns.into()),
            ("iter_ns", self.iter_ns.into()),
        ])
    }
}

/// The result of a traversal run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Final per-node values (levels, distances, or labels).
    pub values: Vec<u32>,
    /// Traversal iterations executed (excluding the terminating check).
    pub iterations: u32,
    /// Number of times the runtime changed variant (or processor, for
    /// hybrid runs).
    pub switches: u32,
    /// Kernel launches performed.
    pub launches: u64,
    /// Total modeled time: state init + iterations + final D2H (+ graph
    /// H2D when configured) + host work, ns.
    pub total_ns: f64,
    /// Modeled time before the first iteration: state reset (+ the graph
    /// H2D transfer when configured), ns.
    pub setup_ns: f64,
    /// Modeled time after the last completed iteration: the terminating
    /// workset generation + emptiness check and the final values D2H, ns.
    /// `setup_ns + metrics.iter_ns_total + teardown_ns == total_ns`.
    pub teardown_ns: f64,
    /// Modeled host-CPU time within the total (hybrid runs), ns.
    pub host_ns: f64,
    /// Kernel statistics summed over every launch of this run (memory
    /// traffic, divergence, atomics) — the raw material of the locality
    /// and divergence experiments.
    pub gpu_stats: agg_gpu_sim::KernelStats,
    /// Always-on counters: per-variant iteration histogram, census
    /// launches, inspector time (cheap; recorded for every run).
    pub metrics: Metrics,
    /// Per-kernel launch profiles for this run (compute vs. bandwidth
    /// time, coalescing, occupancy). Always recorded.
    pub profile: agg_gpu_sim::ProfileReport,
    /// Per-iteration trace (empty unless requested).
    pub trace: Vec<IterationRecord>,
}

impl RunReport {
    /// Total modeled time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns / 1e6
    }

    /// Reinterprets the value array as f32 (PageRank ranks).
    pub fn values_as_f32(&self) -> Vec<f32> {
        self.values.iter().map(|&b| f32::from_bits(b)).collect()
    }

    /// The full telemetry payload as a JSON object: run summary, always-on
    /// metrics, per-kernel profile, and the trace (empty array unless the
    /// run recorded one). Values are omitted — they are data, not
    /// telemetry.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nodes", self.values.len().into()),
            ("iterations", self.iterations.into()),
            ("switches", self.switches.into()),
            ("launches", self.launches.into()),
            ("total_ns", self.total_ns.into()),
            ("setup_ns", self.setup_ns.into()),
            ("teardown_ns", self.teardown_ns.into()),
            ("host_ns", self.host_ns.into()),
            ("metrics", self.metrics.to_json()),
            ("profile", self.profile.to_json()),
            (
                "trace",
                Json::arr(self.trace.iter().map(IterationRecord::to_json)),
            ),
        ])
    }
}

/// Engine errors.
#[derive(Debug)]
pub enum CoreError {
    /// A simulator error (OOB, bad launch, ...).
    Sim(SimError),
    /// The traversal did not converge within the iteration cap.
    NoConvergence {
        /// The cap that was hit.
        iterations: u64,
    },
    /// The query is malformed for the target graph: an out-of-range
    /// source, SSSP on a graph without edge weights, or PageRank
    /// parameters outside their domain. Every rejection is an `Err`, never
    /// a panic.
    InvalidQuery {
        /// Explanation of the rejected query.
        detail: String,
    },
    /// The algorithm/strategy combination does not exist (e.g. ordered
    /// connected components, virtual-warp CC, or a non-power-of-two
    /// sub-warp width).
    Unsupported {
        /// Explanation of the unsupported combination.
        detail: String,
    },
    /// The session or service was configured with values outside their
    /// domain (e.g. a parallel session with zero workers), following the
    /// `Device::try_new` / `SimError::InvalidConfig` convention: every
    /// rejection is an `Err`, never a silent clamp.
    InvalidConfig {
        /// Explanation of the rejected configuration.
        detail: String,
    },
    /// A worker thread panicked while executing a batch query. The batch
    /// fails with this typed error instead of propagating the unwind, so
    /// one poisoned query can never take down the process hosting the
    /// session.
    WorkerPanic {
        /// The worker (thread index) that panicked.
        worker: usize,
        /// Submission index of the query that was executing.
        query_index: usize,
        /// The panic payload, when it was a string.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Sim(e) => write!(f, "simulator error: {e}"),
            CoreError::NoConvergence { iterations } => {
                write!(
                    f,
                    "traversal did not converge within {iterations} iterations"
                )
            }
            CoreError::InvalidQuery { detail } => write!(f, "invalid query: {detail}"),
            CoreError::Unsupported { detail } => write!(f, "unsupported combination: {detail}"),
            CoreError::InvalidConfig { detail } => write!(f, "invalid configuration: {detail}"),
            CoreError::WorkerPanic {
                worker,
                query_index,
                detail,
            } => write!(
                f,
                "worker {worker} panicked while executing query #{query_index}: {detail}"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}

// ------------------------------------------------------------------------
// Shared per-iteration machinery
// ------------------------------------------------------------------------

/// Everything one traversal needs, bundled so iteration helpers stay
/// readable.
struct Ctx<'a> {
    dev: &'a mut Device,
    kernels: &'a GpuKernels,
    dg: &'a DeviceGraph,
    state: &'a AlgoState,
    algo: Algo,
    tuning: AdaptiveConfig,
    census: CensusMode,
    pagerank: PageRankConfig,
    thread_threads: u32,
    block_threads: u32,
    /// Modeled time spent in inspector censuses (launch + result read), ns.
    inspector_ns: f64,
    /// Working-set size censuses launched (bitmap `count` kernel).
    census_launches: u32,
    /// Degree censuses launched (working-set outdegree inspector).
    degree_census_launches: u32,
}

impl<'a> Ctx<'a> {
    /// Steps 1-4: prep, workset generation into `ws_kind`, termination
    /// check, optional census. Returns `None` when the working set is
    /// empty (traversal done), else `(limit, known ws size)`.
    ///
    /// `force_census` makes a `Sampled` bitmap iteration run the census
    /// even off-cadence — the engine sets it right after a representation
    /// switch into bitmap mode so the decision maker never keeps running
    /// on a size estimate from before the switch. (`Off` stays off.)
    fn gen_and_check(
        &mut self,
        ws_kind: WorkSet,
        iteration: u32,
        force_census: bool,
    ) -> Result<Option<(u32, Option<u32>)>, CoreError> {
        let n = self.dg.n;
        self.dev.launch(
            &self.kernels.prep,
            Grid::new(1, 32),
            &self.state.prep_args(),
        )?;
        match ws_kind {
            WorkSet::Bitmap => {
                self.dev.launch(
                    &self.kernels.gen_bitmap,
                    Grid::linear(n as u64, self.thread_threads),
                    &self.state.gen_bitmap_args(n),
                )?;
                if self.dev.read_word(self.state.flag, 0)? == 0 {
                    return Ok(None);
                }
                let due = match self.census {
                    CensusMode::Off => false,
                    CensusMode::Every => true,
                    CensusMode::Sampled => {
                        force_census || iteration.is_multiple_of(self.tuning.sampling_period.max(1))
                    }
                };
                let ws = if due {
                    let census_start = self.dev.elapsed_ns();
                    self.dev.launch(
                        &self.kernels.count_bitmap,
                        Grid::linear(n as u64, self.thread_threads),
                        &self.state.count_args(n),
                    )?;
                    let count = self.dev.read_word(self.state.count, 0)?;
                    self.inspector_ns += self.dev.elapsed_ns() - census_start;
                    self.census_launches += 1;
                    Some(count)
                } else {
                    None
                };
                Ok(Some((n, ws)))
            }
            WorkSet::Queue => {
                let gen = if self.tuning.scan_queue_gen {
                    &self.kernels.gen_queue_scan
                } else {
                    &self.kernels.gen_queue
                };
                self.dev.launch(
                    gen,
                    Grid::linear(n as u64, self.thread_threads),
                    &self.state.gen_queue_args(n),
                )?;
                let len = self.dev.read_word(self.state.queue_len, 0)?;
                if len == 0 {
                    return Ok(None);
                }
                Ok(Some((len, Some(len))))
            }
        }
    }

    /// Inspector extension: degree census over the current working set;
    /// returns the summed outdegree of active nodes. The device-side
    /// accumulator is a (lo, hi) u32 pair so sums past 2^32 are exact.
    fn degree_census(&mut self, ws_kind: WorkSet, limit: u32) -> Result<u64, CoreError> {
        let kernel = match ws_kind {
            WorkSet::Bitmap => &self.kernels.degree_census_bitmap,
            WorkSet::Queue => &self.kernels.degree_census_queue,
        };
        let census_start = self.dev.elapsed_ns();
        self.dev.launch(
            kernel,
            Grid::linear(limit as u64, self.thread_threads),
            &self.state.degree_census_args(self.dg, ws_kind, limit),
        )?;
        let lo = self.dev.read_word(self.state.deg_sum, 0)?;
        let hi = self.dev.read_word(self.state.deg_sum, 1)?;
        self.inspector_ns += self.dev.elapsed_ns() - census_start;
        self.degree_census_launches += 1;
        Ok(((hi as u64) << 32) | lo as u64)
    }

    /// Step 5: findmin for ordered SSSP.
    fn findmin(&mut self, ws_kind: WorkSet, limit: u32) -> Result<(), CoreError> {
        let fk = match ws_kind {
            WorkSet::Bitmap => &self.kernels.findmin_bitmap,
            WorkSet::Queue => &self.kernels.findmin_queue,
        };
        self.dev.launch(
            fk,
            Grid::linear(limit as u64, self.thread_threads),
            &self.state.findmin_args(ws_kind, limit),
        )?;
        Ok(())
    }

    /// Step 6: the computation kernel for a standard (non-virtual-warp)
    /// variant.
    fn compute(&mut self, variant: Variant, limit: u32) -> Result<(), CoreError> {
        let grid = match variant.mapping {
            Mapping::Thread => Grid::linear(limit as u64, self.thread_threads),
            Mapping::Block => Grid::new(limit, self.block_threads),
        };
        match self.algo {
            Algo::Bfs => {
                self.dev.launch(
                    self.kernels.bfs_kernel(variant),
                    grid,
                    &self.state.bfs_args(self.dg, variant, limit),
                )?;
            }
            Algo::Sssp => {
                self.dev.launch(
                    self.kernels.sssp_kernel(variant),
                    grid,
                    &self.state.sssp_args(self.dg, variant, limit),
                )?;
            }
            Algo::Cc => {
                self.dev.launch(
                    self.kernels.cc_kernel(variant),
                    grid,
                    &self.state.cc_args(self.dg, variant, limit),
                )?;
            }
            Algo::PageRank => {
                // Deterministic claim → gather pair (see agg-kernels'
                // pagerank module docs): the claim folds residuals into
                // ranks and publishes push values; the gather accumulates
                // them per destination over the reverse CSR in a fixed
                // order, so ranks are bit-identical across variants,
                // geometries, execution modes, and shards.
                self.dev.launch(
                    self.kernels.pagerank_kernel(variant),
                    grid,
                    &self
                        .state
                        .pagerank_claim_args(self.dg, variant, limit, self.pagerank.damping),
                )?;
                let n = self.dg.n;
                self.dev.launch(
                    &self.kernels.pagerank_gather,
                    Grid::linear(n as u64, self.thread_threads),
                    &self
                        .state
                        .pagerank_gather_args(self.dg, n, self.pagerank.epsilon),
                )?;
                // Clear consumed push values with a device memset so the
                // next iteration's gather only sees fresh claims.
                self.dev.fill(self.state.aux2, 0)?;
            }
        }
        Ok(())
    }

    /// Step 6, virtual-warp flavor.
    fn compute_vwarp(&mut self, ws_kind: WorkSet, limit: u32, width: u32) -> Result<(), CoreError> {
        let grid = Grid::linear(limit as u64 * width as u64, self.thread_threads);
        let (kernel, args) = match self.algo {
            Algo::Bfs => (
                self.kernels.vwarp_kernel(true, ws_kind),
                self.state.bfs_vwarp_args(self.dg, ws_kind, limit, width),
            ),
            Algo::Sssp => (
                self.kernels.vwarp_kernel(false, ws_kind),
                self.state.sssp_vwarp_args(self.dg, ws_kind, limit, width),
            ),
            Algo::Cc | Algo::PageRank => unreachable!("rejected during validation"),
        };
        self.dev.launch(kernel, grid, &args)?;
        Ok(())
    }
}

/// Rejects malformed queries and nonexistent algorithm/strategy
/// combinations up front, before any state is touched, for a graph of `n`
/// nodes. The session layer calls this to fail a whole batch fast, and
/// the sharded runtime to check queries against the whole graph.
pub(crate) fn validate_query(
    query: Query,
    options: &RunOptions,
    n: u32,
    weighted: bool,
) -> Result<(), CoreError> {
    let algo = query.algo();
    if algo == Algo::Sssp && !weighted {
        return Err(CoreError::InvalidQuery {
            detail: "SSSP requires a weighted graph (use generate_weighted / with_weights)".into(),
        });
    }
    if matches!(query, Query::Bfs { .. } | Query::Sssp { .. }) && n > 0 {
        let src = query.source();
        if src >= n {
            return Err(CoreError::InvalidQuery {
                detail: format!("source {src} out of range (graph has {n} nodes)"),
            });
        }
    }
    if let Query::PageRank { config } = query {
        if !(config.damping > 0.0 && config.damping < 1.0) {
            return Err(CoreError::InvalidQuery {
                detail: format!("PageRank damping {} must be in (0, 1)", config.damping),
            });
        }
        if config.epsilon.is_nan() || config.epsilon <= 0.0 {
            return Err(CoreError::InvalidQuery {
                detail: format!("PageRank epsilon {} must be positive", config.epsilon),
            });
        }
    }
    match (algo, options.strategy) {
        (Algo::Cc | Algo::PageRank, Strategy::Static(v)) if v.order == AlgoOrder::Ordered => {
            Err(CoreError::Unsupported {
                detail: format!("{algo:?} has no ordered formulation"),
            })
        }
        (Algo::Cc | Algo::PageRank, Strategy::VirtualWarp { .. }) => Err(CoreError::Unsupported {
            detail: "virtual-warp kernels exist for BFS/SSSP only".into(),
        }),
        (Algo::Cc | Algo::PageRank, Strategy::Hybrid { .. }) => Err(CoreError::Unsupported {
            detail: "hybrid execution exists for BFS/SSSP only".into(),
        }),
        (a, Strategy::DirectionOptimized { .. }) if a != Algo::Bfs => Err(CoreError::Unsupported {
            detail: "direction-optimized traversal exists for BFS only".into(),
        }),
        (_, Strategy::VirtualWarp { width, .. })
            if !(2..=32).contains(&width) || !width.is_power_of_two() =>
        {
            Err(CoreError::Unsupported {
                detail: format!("virtual-warp width {width} must be a power of two in 2..=32"),
            })
        }
        _ => Ok(()),
    }
}

fn empty_report() -> RunReport {
    RunReport {
        values: Vec::new(),
        iterations: 0,
        switches: 0,
        launches: 0,
        total_ns: 0.0,
        setup_ns: 0.0,
        teardown_ns: 0.0,
        host_ns: 0.0,
        gpu_stats: agg_gpu_sim::KernelStats::default(),
        metrics: Metrics::default(),
        profile: agg_gpu_sim::ProfileReport::default(),
        trace: Vec::new(),
    }
}

/// Snapshot of the device's cumulative race-detector counters
/// (launches checked, benign words, harmful words).
fn race_counts(dev: &Device) -> (u64, u64, u64) {
    let s = dev.race_summary();
    (s.launches_checked, s.benign_words, s.harmful_words)
}

/// Attributes the device's race-counter growth since `before` to `metrics`
/// (the device accumulates across runs; the run owns only its delta).
fn record_race_deltas(metrics: &mut Metrics, dev: &Device, before: (u64, u64, u64)) {
    let (launches, benign, harmful) = race_counts(dev);
    metrics.race_launches_checked = launches - before.0;
    metrics.race_benign_words = benign - before.1;
    metrics.race_harmful_words = harmful - before.2;
}

/// How a run's state is seeded before the first iteration.
#[derive(Clone, Copy)]
pub(crate) enum Seed<'a> {
    /// Reset for the query: its source, iota labels, or initial ranks.
    Cold,
    /// Incremental repair (see [`crate::Session::run_warm`]): start from
    /// `values`, the pre-update fixpoint, and seed the working set by
    /// relaxing `added`, the net-inserted `(src, dst, weight)` edges, with
    /// weights remapped per algorithm (BFS → 1, CC → 0, SSSP → as given).
    Warm {
        values: &'a [u32],
        added: &'a [(u32, u32, u32)],
    },
}

/// The automatic iteration safety cap (`4n + 64`) unless `options` sets
/// one.
pub(crate) fn iteration_cap(options: &RunOptions, n: u32) -> u64 {
    if options.max_iterations == 0 {
        4 * n as u64 + 64
    } else {
        options.max_iterations
    }
}

/// Rejects the algorithm/strategy combinations a warm start cannot serve.
fn validate_warm(algo: Algo, strategy: Strategy) -> Result<(), CoreError> {
    if algo == Algo::PageRank {
        return Err(CoreError::Unsupported {
            detail: "warm-start repair covers the monotone algorithms (BFS/SSSP/CC); \
                     PageRank updates recompute"
                .into(),
        });
    }
    match strategy {
        Strategy::Hybrid { .. } | Strategy::DirectionOptimized { .. } => {
            Err(CoreError::Unsupported {
                detail: "warm-start repair supports Adaptive, Static (unordered), and \
                         VirtualWarp strategies only"
                    .into(),
            })
        }
        Strategy::Static(v) if v.order == AlgoOrder::Ordered => Err(CoreError::Unsupported {
            detail: "warm-start repair needs unordered relaxation; ordered variants \
                     never re-improve finite values"
                .into(),
        }),
        _ => Ok(()),
    }
}

/// The host half of a hybrid run: a CPU copy of the CSR and of the
/// traversal state, and which processor currently owns that state.
struct HostSide {
    row: Vec<u32>,
    col: Vec<u32>,
    weights: Option<Vec<u32>>,
    values: Vec<u32>,
    update: Vec<u32>,
    on_device: bool,
    gpu_threshold: u32,
    model: CpuCostModel,
}

impl HostSide {
    /// The host owns the CSR (it uploaded it), so reading it back for the
    /// host-side iterations is free.
    fn new(
        dev: &Device,
        dg: &DeviceGraph,
        src: NodeId,
        gpu_threshold: u32,
    ) -> Result<Self, CoreError> {
        let n = dg.n as usize;
        let mut values = vec![INF; n];
        let mut update = vec![0u32; n];
        values[src as usize] = 0;
        update[src as usize] = 1;
        Ok(HostSide {
            row: dev.debug_read(dg.row)?,
            col: dev.debug_read(dg.col)?,
            weights: dg.weights.map(|w| dev.debug_read(w)).transpose()?,
            values,
            update,
            on_device: false,
            gpu_threshold,
            model: CpuCostModel::default(),
        })
    }

    /// Moves the state to the processor a working set of `est_ws` calls
    /// for, charging the value array and update vector across PCIe.
    /// Returns whether it moved.
    fn migrate(
        &mut self,
        dev: &mut Device,
        state: &AlgoState,
        est_ws: u32,
    ) -> Result<bool, CoreError> {
        let want_device = est_ws >= self.gpu_threshold.max(1);
        if want_device == self.on_device {
            return Ok(false);
        }
        if want_device {
            dev.write(state.value, &self.values)?;
            dev.write(state.update, &self.update)?;
        } else {
            self.values = dev.read(state.value);
            self.update = dev.read(state.update);
        }
        self.on_device = want_device;
        Ok(true)
    }

    /// One frontier relaxation on the host, instrumented like the agg-cpu
    /// baselines. Returns the next working-set size and the modeled host
    /// time, or `None` when the frontier is empty.
    fn step(&mut self, algo: Algo) -> Option<(u32, f64)> {
        let frontier: Vec<u32> = (0..self.update.len() as u32)
            .filter(|&v| self.update[v as usize] != 0)
            .collect();
        if frontier.is_empty() {
            return None;
        }
        let mut c = agg_cpu::CpuCounters::default();
        for &v in &frontier {
            self.update[v as usize] = 0;
        }
        for &u in &frontier {
            c.nodes += 1;
            c.queue_ops += 1;
            let du = self.values[u as usize];
            let (lo, hi) = (
                self.row[u as usize] as usize,
                self.row[u as usize + 1] as usize,
            );
            for (e, &dst) in self.col[lo..hi]
                .iter()
                .enumerate()
                .map(|(i, d)| (lo + i, d))
            {
                c.edges += 1;
                let m = dst as usize;
                let cand = match algo {
                    Algo::Bfs => du.saturating_add(1),
                    Algo::Sssp => {
                        du.saturating_add(self.weights.as_ref().expect("validated weighted")[e])
                    }
                    Algo::Cc | Algo::PageRank => unreachable!("rejected during validation"),
                };
                if cand < self.values[m] {
                    self.values[m] = cand;
                    self.update[m] = 1;
                }
            }
        }
        let ws = self.update.iter().filter(|&&u| u != 0).count() as u32;
        Some((ws, self.model.modeled_ns(&c)))
    }
}

/// The adaptive superstep driver behind every single-device run: seed
/// the state, then per iteration pick a variant (or, for hybrid runs, a
/// processor), generate and check the working set, and compute, until
/// the working set is empty. The modeled clock is the device clock plus
/// the host time of hybrid runs' CPU iterations.
pub(crate) fn drive(
    dev: &mut Device,
    kernels: &GpuKernels,
    dg: &DeviceGraph,
    state: &AlgoState,
    query: Query,
    options: &RunOptions,
    seed: Seed<'_>,
) -> Result<RunReport, CoreError> {
    validate_query(query, options, dg.n, dg.weights.is_some())?;
    let algo = query.algo();
    if let Seed::Warm { .. } = seed {
        validate_warm(algo, options.strategy)?;
    }
    if dg.n == 0 {
        return Ok(empty_report());
    }
    if matches!(options.strategy, Strategy::DirectionOptimized { .. }) && dg.rrow.is_none() {
        return Err(CoreError::Unsupported {
            detail: "direction-optimized BFS needs the reverse graph; call \
                     Session::enable_bottom_up (or DeviceGraph::upload_reverse) first"
                .into(),
        });
    }
    if algo == Algo::PageRank && dg.rrow.is_none() {
        return Err(CoreError::Unsupported {
            detail: "PageRank's deterministic gather needs the reverse graph; call \
                     DeviceGraph::upload_reverse first (Session does this automatically)"
                .into(),
        });
    }
    let n = dg.n;
    let src = query.source();
    let pagerank = query.pagerank_config();
    let tuning = options.tuning;
    let cap = iteration_cap(options, n);
    let mut host = match options.strategy {
        Strategy::Hybrid { gpu_threshold } => Some(HostSide::new(dev, dg, src, gpu_threshold)?),
        _ => None,
    };
    let start_ns = dev.elapsed_ns();
    let start_launches = dev.launch_count();
    let start_stats = dev.cumulative_stats();
    let start_profile = dev.profile().clone();
    let races_before = race_counts(dev);
    match seed {
        Seed::Warm { values, added } => {
            if values.len() != n as usize {
                return Err(CoreError::InvalidQuery {
                    detail: format!(
                        "warm value array has {} entries for a {n}-node graph",
                        values.len()
                    ),
                });
            }
            // Warm start: previous fixpoint in, working set seeded by
            // relaxing the delta edge list (all charged to setup).
            state.reset_warm(dev, values)?;
            if !added.is_empty() {
                let count = added.len();
                let esrc: Vec<u32> = added.iter().map(|e| e.0).collect();
                let edst: Vec<u32> = added.iter().map(|e| e.1).collect();
                let ew: Vec<u32> = added
                    .iter()
                    .map(|e| match algo {
                        Algo::Bfs => 1,
                        Algo::Cc => 0,
                        _ => e.2,
                    })
                    .collect();
                let esrc = dev.alloc_from_slice("repair_esrc", &esrc);
                let edst = dev.alloc_from_slice("repair_edst", &edst);
                let ew = dev.alloc_from_slice("repair_ew", &ew);
                dev.launch(
                    &kernels.repair_relax,
                    Grid::linear(count as u64, tuning.thread_block_threads),
                    &state.repair_args(esrc, edst, ew, count as u32),
                )?;
            }
        }
        Seed::Cold => match algo {
            Algo::Cc => state.reset_cc(dev, n)?,
            Algo::PageRank => state.reset_pagerank(dev, pagerank.damping)?,
            _ => state.reset(dev, src)?,
        },
    }
    // Setup covers everything before the first iteration; the graph H2D
    // transfer (when charged to this run) belongs to it. Folding it in
    // here keeps `setup + Σ iter + teardown == total` exact.
    let mut setup_ns = dev.elapsed_ns() - start_ns;
    if options.include_graph_transfer {
        setup_ns += transfer_ns(dev.config(), dg.bytes);
    }

    let block_threads =
        tuning.block_mapping_threads(dg.avg_outdegree, dev.config().max_threads_per_block);
    let thread_threads = tuning.thread_block_threads;
    let mut ctx = Ctx {
        dev,
        kernels,
        dg,
        state,
        algo,
        tuning,
        census: options.census,
        pagerank,
        thread_threads,
        block_threads,
        inspector_ns: 0.0,
        census_launches: 0,
        degree_census_launches: 0,
    };

    let mut est_ws: u32 = match seed {
        // A repair's first working set is at most one node per delta edge.
        Seed::Warm { added, .. } => (added.len() as u32).clamp(1, n),
        Seed::Cold if matches!(algo, Algo::Cc | Algo::PageRank) => n,
        Seed::Cold => 1,
    };
    let mut est_avg_deg: f64 = dg.avg_outdegree;
    let mut prev_variant: Option<Variant> = None;
    let mut switches = 0u32;
    let mut iterations = 0u32;
    // Modeled host-CPU time of hybrid runs' host iterations; the run's
    // clock is the device clock plus this.
    let mut host_ns = 0.0f64;
    let mut metrics = Metrics::default();
    let mut trace = Vec::new();
    // Start of the pass that ends the traversal: its prep + workset-gen +
    // emptiness check are charged to teardown, not to any iteration.
    let mut teardown_start;

    loop {
        if iterations as u64 >= cap {
            return Err(CoreError::NoConvergence { iterations: cap });
        }
        let iter_start = ctx.dev.elapsed_ns() + host_ns;
        teardown_start = iter_start;
        let inspector_before = ctx.inspector_ns;
        let (est_ws_used, est_deg_used) = (est_ws, est_avg_deg);
        let iter_region = region(&tuning, est_ws, n, est_avg_deg);
        let mut vwarp: Option<u32> = None;
        let mut bottom_up = false;
        let mut variant = match options.strategy {
            Strategy::Static(v) => v,
            Strategy::Adaptive | Strategy::Hybrid { .. } => decide(&tuning, est_ws, n, est_avg_deg),
            Strategy::VirtualWarp { width, workset } => {
                vwarp = Some(width);
                Variant::new(AlgoOrder::Unordered, Mapping::Thread, workset)
            }
            Strategy::DirectionOptimized { bottom_up_fraction } => {
                if (est_ws as f64) > bottom_up_fraction * n as f64 {
                    // bottom-up step: frontier must be a bitmap
                    bottom_up = true;
                    Variant::new(AlgoOrder::Unordered, Mapping::Thread, WorkSet::Bitmap)
                } else {
                    decide(&tuning, est_ws, n, est_avg_deg)
                }
            }
        };
        let (switched, force_census) = match host.as_mut() {
            // A hybrid run switches processors, not variants, and its
            // device iterations never force a census.
            Some(h) => (h.migrate(ctx.dev, state, est_ws)?, false),
            None => {
                let switched = prev_variant.is_some_and(|p| p != variant);
                // Entering bitmap mode from a queue iteration invalidates
                // the size estimate's provenance (queues report exact
                // sizes for free; the bitmap only reports when censused).
                // Force an off-cadence census so the next decisions never
                // run on a pre-switch estimate.
                let force = switched
                    && variant.workset == WorkSet::Bitmap
                    && prev_variant.is_some_and(|p| p.workset != variant.workset);
                (switched, force)
            }
        };
        let on_host = host.as_ref().is_some_and(|h| !h.on_device);

        let ws_known = if let Some(h) = host.as_mut().filter(|_| on_host) {
            let Some((ws, ns)) = h.step(algo) else {
                break;
            };
            iterations += 1;
            host_ns += ns;
            est_ws = ws;
            // Host iterations record the variant the GPU would run next.
            variant = decide(&tuning, est_ws, n, est_avg_deg);
            metrics.host_iterations += 1;
            Some(ws)
        } else {
            let Some((limit, ws_known)) =
                ctx.gen_and_check(variant.workset, iterations + 1, force_census)?
            else {
                break;
            };
            iterations += 1;
            if let Some(w) = ws_known {
                est_ws = w;
                // Working-set degree inspector (extension ablation):
                // piggyback on the same sampling cadence as the node census.
                if matches!(options.strategy, Strategy::Adaptive)
                    && tuning.degree_mode == DegreeMode::WorkingSet
                    && w > 0
                    && iterations.is_multiple_of(tuning.sampling_period.max(1))
                {
                    let deg_sum = ctx.degree_census(variant.workset, limit)?;
                    est_avg_deg = deg_sum as f64 / w as f64;
                }
            }
            if algo == Algo::Sssp && variant.order == AlgoOrder::Ordered {
                ctx.findmin(variant.workset, limit)?;
            }
            if bottom_up {
                // `iterations` is 1-based and BFS is level-synchronous, so
                // the frontier being consumed sits at level `iterations - 1`
                // and newly claimed nodes get level `iterations`.
                ctx.dev.launch(
                    &ctx.kernels.bfs_bottom_up,
                    Grid::linear(n as u64, ctx.thread_threads),
                    &ctx.state.bfs_bottom_up_args(ctx.dg, n, iterations),
                )?;
                metrics.bottom_up_iterations += 1;
            } else {
                match vwarp {
                    Some(width) => ctx.compute_vwarp(variant.workset, limit, width)?,
                    None => ctx.compute(variant, limit)?,
                }
            }
            ws_known
        };
        // Counted only once the pass is known to execute: a variant (or
        // migration) chosen for the terminating pass runs no iteration,
        // so it is not a switch — keeps `switches` equal to the number of
        // `switched` records in the trace.
        if switched {
            switches += 1;
        }

        let iter_ns = (ctx.dev.elapsed_ns() + host_ns) - iter_start;
        metrics.record_iteration(variant, iter_ns);
        if options.record_trace {
            trace.push(IterationRecord {
                iteration: iterations,
                variant,
                region: iter_region,
                ws_size: ws_known,
                est_ws: est_ws_used,
                est_avg_deg: est_deg_used,
                vwarp_width: vwarp,
                on_host,
                switched,
                inspector_ns: ctx.inspector_ns - inspector_before,
                iter_ns,
            });
        }
        if host.is_some() {
            // Hybrid runs restart the inspector total every iteration, so
            // each trace record carries its census time exactly rather
            // than as a difference of rounded running totals.
            metrics.inspector_ns_total += ctx.inspector_ns;
            ctx.inspector_ns = 0.0;
        }
        prev_variant = Some(variant);
    }

    metrics.switches = switches;
    metrics.census_launches = ctx.census_launches;
    metrics.degree_census_launches = ctx.degree_census_launches;
    metrics.inspector_ns_total += ctx.inspector_ns;
    record_race_deltas(&mut metrics, dev, races_before);

    // The final values live wherever the last iteration ran; reading them
    // off the device is the charged final D2H.
    let values = match host {
        Some(h) if !h.on_device => h.values,
        _ => dev.read(state.value),
    };
    let end_ns = dev.elapsed_ns() + host_ns;
    let teardown_ns = end_ns - teardown_start;
    let mut total_ns = end_ns - start_ns;
    if options.include_graph_transfer {
        total_ns += transfer_ns(dev.config(), dg.bytes);
    }
    let mut gpu_stats = dev.cumulative_stats();
    gpu_stats -= start_stats;
    let profile = dev.profile().since(&start_profile);
    Ok(RunReport {
        values,
        iterations,
        switches,
        launches: dev.launch_count() - start_launches,
        total_ns,
        setup_ns,
        teardown_ns,
        host_ns,
        gpu_stats,
        metrics,
        profile,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_graph::{traversal, Dataset, GraphBuilder, Scale};

    /// One cold run on an explicitly managed device.
    fn run(
        dev: &mut Device,
        kernels: &GpuKernels,
        dg: &DeviceGraph,
        state: &AlgoState,
        query: Query,
        options: &RunOptions,
    ) -> Result<RunReport, CoreError> {
        drive(dev, kernels, dg, state, query, options, Seed::Cold)
    }

    fn setup(g: &agg_graph::CsrGraph) -> (Device, GpuKernels, DeviceGraph, AlgoState) {
        let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
        let kernels = GpuKernels::build();
        let dg = DeviceGraph::upload(&mut dev, g);
        let st = AlgoState::new(&mut dev, dg.n, 0).unwrap();
        (dev, kernels, dg, st)
    }

    #[test]
    fn adaptive_bfs_matches_reference_on_all_tiny_datasets() {
        for d in Dataset::ALL {
            let g = d.generate(Scale::Tiny, 21);
            let (mut dev, k, dg, st) = setup(&g);
            let r = run(
                &mut dev,
                &k,
                &dg,
                &st,
                Query::Bfs { src: 0 },
                &RunOptions::default(),
            )
            .unwrap();
            assert_eq!(r.values, traversal::bfs_levels(&g, 0), "{}", d.name());
            assert!(r.total_ns > 0.0);
            assert!(r.launches >= 2 * r.iterations as u64);
        }
    }

    #[test]
    fn adaptive_sssp_matches_reference() {
        for d in [Dataset::P2p, Dataset::Amazon] {
            let g = d.generate_weighted(Scale::Tiny, 22, 64);
            let (mut dev, k, dg, st) = setup(&g);
            let r = run(
                &mut dev,
                &k,
                &dg,
                &st,
                Query::Sssp { src: 0 },
                &RunOptions::default(),
            )
            .unwrap();
            assert_eq!(r.values, traversal::dijkstra(&g, 0), "{}", d.name());
        }
    }

    #[test]
    fn static_and_adaptive_agree_on_results() {
        let g = Dataset::Google.generate(Scale::Tiny, 23);
        let (mut dev, k, dg, st) = setup(&g);
        let adaptive = run(
            &mut dev,
            &k,
            &dg,
            &st,
            Query::Bfs { src: 0 },
            &RunOptions::default(),
        )
        .unwrap();
        for v in Variant::ALL {
            let r = run(
                &mut dev,
                &k,
                &dg,
                &st,
                Query::Bfs { src: 0 },
                &RunOptions::static_variant(v),
            )
            .unwrap();
            assert_eq!(r.values, adaptive.values, "{}", v.name());
            assert_eq!(r.switches, 0, "static runs never switch");
        }
    }

    #[test]
    fn trace_records_every_iteration_with_queue_sizes() {
        let g = Dataset::Amazon.generate(Scale::Tiny, 24);
        let (mut dev, k, dg, st) = setup(&g);
        let opts = RunOptions {
            record_trace: true,
            census: CensusMode::Every,
            ..RunOptions::static_variant(Variant::parse("U_T_BM").unwrap())
        };
        let r = run(&mut dev, &k, &dg, &st, Query::Bfs { src: 0 }, &opts).unwrap();
        assert_eq!(r.trace.len(), r.iterations as usize);
        assert!(r.trace.iter().all(|t| t.ws_size.is_some()));
        assert_eq!(r.trace[0].ws_size, Some(1));
        assert!(r.trace.iter().all(|t| t.iter_ns > 0.0));
    }

    #[test]
    fn trace_ws_sizes_match_exact_frontier_sizes() {
        // With a census every iteration, the trace's ws_size column must
        // reproduce the exact per-level frontier sizes of the reference
        // BFS: iteration i consumes the frontier at level i-1.
        let g = Dataset::Amazon.generate(Scale::Tiny, 24);
        let levels = traversal::bfs_levels(&g, 0);
        let (mut dev, k, dg, st) = setup(&g);
        let opts = RunOptions {
            record_trace: true,
            census: CensusMode::Every,
            ..RunOptions::static_variant(Variant::parse("U_T_BM").unwrap())
        };
        let r = run(&mut dev, &k, &dg, &st, Query::Bfs { src: 0 }, &opts).unwrap();
        assert_eq!(r.trace.len(), r.iterations as usize);
        for t in &r.trace {
            let exact = levels.iter().filter(|&&l| l == t.iteration - 1).count() as u32;
            assert_eq!(
                t.ws_size,
                Some(exact),
                "iteration {} frontier mismatch",
                t.iteration
            );
        }
    }

    #[test]
    fn switching_into_bitmap_forces_an_off_cadence_census() {
        // With an absurd sampling period the census never fires on
        // cadence, so after a queue -> bitmap switch the decision maker
        // would keep consuming the last queue length forever. The engine
        // must force one census at the switch.
        let g = Dataset::Amazon.generate(Scale::Tiny, 26);
        let mut dev = Device::try_new(DeviceConfig::tiny_test_device()).unwrap();
        let kernels = GpuKernels::build();
        let dg = DeviceGraph::upload(&mut dev, &g);
        let st = AlgoState::new(&mut dev, dg.n, 0).unwrap();
        let mut tuning = AdaptiveConfig::for_device(dev.config());
        tuning.t2_ws_size = 192 * 2;
        tuning.sampling_period = 1000;
        let opts = RunOptions {
            strategy: Strategy::Adaptive,
            tuning,
            census: CensusMode::Sampled,
            record_trace: true,
            ..Default::default()
        };
        let r = run(&mut dev, &kernels, &dg, &st, Query::Bfs { src: 0 }, &opts).unwrap();
        assert_eq!(r.values, traversal::bfs_levels(&g, 0));
        let first_bitmap = r
            .trace
            .windows(2)
            .find(|w| {
                w[0].variant.workset == WorkSet::Queue && w[1].variant.workset == WorkSet::Bitmap
            })
            .map(|w| w[1])
            .expect("run must switch queue -> bitmap for this test to bite");
        assert!(first_bitmap.switched);
        assert!(
            first_bitmap.ws_size.is_some(),
            "switch into bitmap must census even off-cadence: {first_bitmap:?}"
        );
        assert!(first_bitmap.inspector_ns > 0.0);
        assert!(r.metrics.census_launches >= 1);
        // A later bitmap iteration with no switch stays uncensused (the
        // sampling trade-off is preserved).
        assert!(
            r.trace
                .iter()
                .any(|t| t.variant.workset == WorkSet::Bitmap && t.ws_size.is_none()),
            "off-cadence bitmap iterations should skip the census"
        );
    }

    #[test]
    fn census_off_is_never_forced() {
        let g = Dataset::Amazon.generate(Scale::Tiny, 26);
        let mut dev = Device::try_new(DeviceConfig::tiny_test_device()).unwrap();
        let kernels = GpuKernels::build();
        let dg = DeviceGraph::upload(&mut dev, &g);
        let st = AlgoState::new(&mut dev, dg.n, 0).unwrap();
        let mut tuning = AdaptiveConfig::for_device(dev.config());
        tuning.t2_ws_size = 192 * 2;
        let opts = RunOptions {
            strategy: Strategy::Adaptive,
            tuning,
            census: CensusMode::Off,
            record_trace: true,
            ..Default::default()
        };
        let r = run(&mut dev, &kernels, &dg, &st, Query::Bfs { src: 0 }, &opts).unwrap();
        assert_eq!(r.metrics.census_launches, 0);
        assert!(r
            .trace
            .iter()
            .all(|t| t.variant.workset != WorkSet::Bitmap || t.ws_size.is_none()));
    }

    #[test]
    fn time_accounting_identity_holds() {
        // setup + Σ iter + teardown == total, for every execution path.
        let g = Dataset::Amazon.generate_weighted(Scale::Tiny, 29, 64);
        let (mut dev, k, dg, st) = setup(&g);
        for (label, query, opts) in [
            ("adaptive bfs", Query::Bfs { src: 0 }, RunOptions::default()),
            (
                "static sssp",
                Query::Sssp { src: 0 },
                RunOptions::static_variant(Variant::parse("U_B_QU").unwrap()),
            ),
            (
                "no-transfer",
                Query::Bfs { src: 0 },
                RunOptions::builder().include_graph_transfer(false).build(),
            ),
            (
                "hybrid",
                Query::Bfs { src: 0 },
                RunOptions::builder()
                    .strategy(Strategy::Hybrid { gpu_threshold: 64 })
                    .build(),
            ),
        ] {
            let r = run(&mut dev, &k, &dg, &st, query, &opts).unwrap();
            let parts = r.setup_ns + r.metrics.iter_ns_total + r.teardown_ns;
            assert!(
                (parts - r.total_ns).abs() <= 1e-6 * r.total_ns.max(1.0),
                "{label}: {parts} != {}",
                r.total_ns
            );
            assert_eq!(r.metrics.iterations, r.iterations, "{label}");
            assert_eq!(r.metrics.switches, r.switches, "{label}");
            assert_eq!(
                r.metrics.by_variant().iter().map(|(_, c)| *c).sum::<u32>(),
                r.iterations,
                "{label}"
            );
            assert!(r.setup_ns > 0.0, "{label}");
            assert!(r.teardown_ns > 0.0, "{label}");
        }
    }

    #[test]
    fn run_report_profile_covers_this_run_only() {
        let g = Dataset::P2p.generate(Scale::Tiny, 30);
        let (mut dev, k, dg, st) = setup(&g);
        let first = run(
            &mut dev,
            &k,
            &dg,
            &st,
            Query::Bfs { src: 0 },
            &RunOptions::default(),
        )
        .unwrap();
        let second = run(
            &mut dev,
            &k,
            &dg,
            &st,
            Query::Bfs { src: 0 },
            &RunOptions::default(),
        )
        .unwrap();
        // Same work both times: the per-run profiles agree even though the
        // device accumulates across runs (ns fields only up to float
        // rounding, since each run's profile is a snapshot difference).
        let (a, b) = (first.profile.kernels(), second.profile.kernels());
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(b) {
            assert_eq!(pa.kernel, pb.kernel);
            assert_eq!(pa.launches, pb.launches);
            assert_eq!(pa.stats, pb.stats);
            assert!((pa.time_ns - pb.time_ns).abs() <= 1e-6 * pa.time_ns.max(1.0));
        }
        assert_eq!(first.profile.total_launches(), first.launches);
        let workset_gen = first
            .profile
            .kernels()
            .iter()
            .find(|p| p.kernel.contains("gen"))
            .expect("workset generation must appear in the profile");
        assert!(workset_gen.compute_ns > 0.0);
        assert!(workset_gen.occupancy_fraction > 0.0);
        let json = first.to_json().render();
        assert!(json.contains("\"compute_ns\""), "{json}");
        assert!(json.contains("\"coalescing_efficiency\""), "{json}");
    }

    #[test]
    fn trace_json_contains_acceptance_fields() {
        let g = Dataset::Amazon.generate(Scale::Tiny, 31);
        let (mut dev, k, dg, st) = setup(&g);
        let opts = RunOptions {
            record_trace: true,
            census: CensusMode::Every,
            ..Default::default()
        };
        let r = run(&mut dev, &k, &dg, &st, Query::Bfs { src: 0 }, &opts).unwrap();
        let json = r.to_json().render();
        for field in [
            "\"variant\"",
            "\"region\"",
            "\"ws_size\"",
            "\"est_ws\"",
            "\"est_avg_deg\"",
            "\"inspector_ns\"",
            "\"iter_ns\"",
            "\"iterations_by_variant\"",
            "\"occupancy_fraction\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn adaptive_starts_with_b_qu_on_small_working_sets() {
        let g = Dataset::Google.generate(Scale::Tiny, 25);
        let (mut dev, k, dg, st) = setup(&g);
        let opts = RunOptions {
            record_trace: true,
            ..Default::default()
        };
        let r = run(&mut dev, &k, &dg, &st, Query::Bfs { src: 0 }, &opts).unwrap();
        assert_eq!(r.trace[0].variant.name(), "U_B_QU");
    }

    #[test]
    fn adaptive_switches_on_datasets_with_growing_working_sets() {
        let g = Dataset::Amazon.generate(Scale::Tiny, 26); // 2000 nodes, avg 8.5
        let mut dev = Device::try_new(DeviceConfig::tiny_test_device()).unwrap();
        let kernels = GpuKernels::build();
        let dg = DeviceGraph::upload(&mut dev, &g);
        let st = AlgoState::new(&mut dev, dg.n, 0).unwrap();
        let mut tuning = AdaptiveConfig::for_device(dev.config());
        tuning.t2_ws_size = 192 * 2;
        tuning.sampling_period = 1;
        let opts = RunOptions {
            strategy: Strategy::Adaptive,
            tuning,
            census: CensusMode::Sampled,
            record_trace: true,
            ..Default::default()
        };
        let r = run(&mut dev, &kernels, &dg, &st, Query::Bfs { src: 0 }, &opts).unwrap();
        assert_eq!(r.values, traversal::bfs_levels(&g, 0));
        assert!(
            r.switches >= 1,
            "expected at least one switch, trace: {:?}",
            r.trace
        );
    }

    #[test]
    fn connected_components_matches_oracle_on_symmetric_graphs() {
        for d in [Dataset::CoRoad, Dataset::P2p] {
            let g = d.generate(Scale::Tiny, 61);
            let expected = traversal::min_labels(&g);
            let (mut dev, k, dg, st) = setup(&g);
            let r = run(&mut dev, &k, &dg, &st, Query::Cc, &RunOptions::default()).unwrap();
            assert_eq!(r.values, expected, "{} adaptive CC", d.name());
            for v in Variant::UNORDERED {
                let r = run(
                    &mut dev,
                    &k,
                    &dg,
                    &st,
                    Query::Cc,
                    &RunOptions::static_variant(v),
                )
                .unwrap();
                assert_eq!(r.values, expected, "{} CC {}", d.name(), v.name());
            }
        }
    }

    #[test]
    fn cc_rejects_ordered_vwarp_and_hybrid_strategies() {
        let g = Dataset::P2p.generate(Scale::Tiny, 62);
        let (mut dev, k, dg, st) = setup(&g);
        for opts in [
            RunOptions::static_variant(Variant::ALL[0]),
            RunOptions {
                strategy: Strategy::VirtualWarp {
                    width: 8,
                    workset: WorkSet::Queue,
                },
                ..Default::default()
            },
            RunOptions {
                strategy: Strategy::Hybrid { gpu_threshold: 100 },
                ..Default::default()
            },
        ] {
            assert!(matches!(
                run(&mut dev, &k, &dg, &st, Query::Cc, &opts),
                Err(CoreError::Unsupported { .. })
            ));
        }
    }

    #[test]
    fn virtual_warp_matches_reference_for_every_width_and_workset() {
        let g = Dataset::CiteSeer.generate_weighted(Scale::Tiny, 63, 64);
        let expected_bfs = traversal::bfs_levels(&g, 0);
        let expected_sssp = traversal::dijkstra(&g, 0);
        let (mut dev, k, dg, st) = setup(&g);
        for width in [2u32, 4, 8, 16, 32] {
            for ws in [WorkSet::Bitmap, WorkSet::Queue] {
                let opts = RunOptions {
                    strategy: Strategy::VirtualWarp { width, workset: ws },
                    record_trace: true,
                    ..Default::default()
                };
                let b = run(&mut dev, &k, &dg, &st, Query::Bfs { src: 0 }, &opts).unwrap();
                assert_eq!(b.values, expected_bfs, "vw{width} {ws:?} BFS");
                assert!(b.trace.iter().all(|t| t.vwarp_width == Some(width)));
                let s = run(&mut dev, &k, &dg, &st, Query::Sssp { src: 0 }, &opts).unwrap();
                assert_eq!(s.values, expected_sssp, "vw{width} {ws:?} SSSP");
            }
        }
    }

    #[test]
    fn virtual_warp_rejects_bad_widths() {
        let g = Dataset::P2p.generate(Scale::Tiny, 64);
        let (mut dev, k, dg, st) = setup(&g);
        for width in [0u32, 1, 3, 48, 64] {
            let opts = RunOptions {
                strategy: Strategy::VirtualWarp {
                    width,
                    workset: WorkSet::Queue,
                },
                ..Default::default()
            };
            assert!(
                matches!(
                    run(&mut dev, &k, &dg, &st, Query::Bfs { src: 0 }, &opts),
                    Err(CoreError::Unsupported { .. })
                ),
                "width {width} should be rejected"
            );
        }
    }

    #[test]
    fn virtual_warp_beats_thread_mapping_on_skewed_degrees() {
        let g = Dataset::CiteSeer.generate(Scale::Tiny, 65);
        let (mut dev, k, dg, st) = setup(&g);
        let thread = run(
            &mut dev,
            &k,
            &dg,
            &st,
            Query::Bfs { src: 0 },
            &RunOptions::static_variant(Variant::parse("U_T_QU").unwrap()),
        )
        .unwrap();
        let vw = run(
            &mut dev,
            &k,
            &dg,
            &st,
            Query::Bfs { src: 0 },
            &RunOptions {
                strategy: Strategy::VirtualWarp {
                    width: 8,
                    workset: WorkSet::Queue,
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            vw.total_ns < thread.total_ns,
            "virtual warp {:.0} ns should beat thread mapping {:.0} ns",
            vw.total_ns,
            thread.total_ns
        );
    }

    #[test]
    fn hybrid_matches_reference_and_uses_both_processors() {
        for d in [Dataset::CoRoad, Dataset::Amazon] {
            let g = d.generate_weighted(Scale::Tiny, 66, 64);
            let (mut dev, k, dg, st) = setup(&g);
            let opts = RunOptions {
                strategy: Strategy::Hybrid { gpu_threshold: 64 },
                record_trace: true,
                ..Default::default()
            };
            let bfs = run(&mut dev, &k, &dg, &st, Query::Bfs { src: 0 }, &opts).unwrap();
            assert_eq!(
                bfs.values,
                traversal::bfs_levels(&g, 0),
                "{} hybrid BFS",
                d.name()
            );
            let sssp = run(&mut dev, &k, &dg, &st, Query::Sssp { src: 0 }, &opts).unwrap();
            assert_eq!(
                sssp.values,
                traversal::dijkstra(&g, 0),
                "{} hybrid SSSP",
                d.name()
            );
            // Early iterations (tiny frontier) run on the host.
            assert!(
                sssp.trace[0].on_host,
                "{}: first iteration should be host-side",
                d.name()
            );
            assert!(sssp.host_ns > 0.0);
        }
    }

    #[test]
    fn hybrid_with_huge_threshold_never_launches_compute_kernels() {
        let g = Dataset::P2p.generate(Scale::Tiny, 67);
        let (mut dev, k, dg, st) = setup(&g);
        let opts = RunOptions {
            strategy: Strategy::Hybrid {
                gpu_threshold: u32::MAX,
            },
            record_trace: true,
            ..Default::default()
        };
        let r = run(&mut dev, &k, &dg, &st, Query::Bfs { src: 0 }, &opts).unwrap();
        assert_eq!(r.values, traversal::bfs_levels(&g, 0));
        assert!(r.trace.iter().all(|t| t.on_host));
        assert_eq!(r.launches, 0, "all-host run must not launch kernels");
        assert_eq!(r.switches, 0);
    }

    #[test]
    fn hybrid_with_threshold_one_is_all_gpu() {
        let g = Dataset::Amazon.generate(Scale::Tiny, 68);
        let (mut dev, k, dg, st) = setup(&g);
        let opts = RunOptions {
            strategy: Strategy::Hybrid { gpu_threshold: 1 },
            record_trace: true,
            ..Default::default()
        };
        let r = run(&mut dev, &k, &dg, &st, Query::Bfs { src: 0 }, &opts).unwrap();
        assert_eq!(r.values, traversal::bfs_levels(&g, 0));
        assert!(r.trace.iter().all(|t| !t.on_host));
        assert_eq!(r.host_ns, 0.0);
        assert_eq!(r.switches, 1, "one host->device switch at the start");
    }

    #[test]
    fn pagerank_matches_cpu_delta_and_power_iteration() {
        for d in [Dataset::P2p, Dataset::Google] {
            let g = d.generate(Scale::Tiny, 71);
            let (mut dev, k, mut dg, st) = setup(&g);
            dg.upload_reverse(&mut dev, &g);
            let q = Query::PageRank {
                config: PageRankConfig {
                    damping: 0.85,
                    epsilon: 1e-5,
                },
            };
            // adaptive + all four unordered statics
            let mut runs = vec![run(&mut dev, &k, &dg, &st, q, &RunOptions::default()).unwrap()];
            for v in Variant::UNORDERED {
                runs.push(run(&mut dev, &k, &dg, &st, q, &RunOptions::static_variant(v)).unwrap());
            }
            let cpu = agg_cpu::pagerank_delta(&g, 0.85, 1e-5, &CpuCostModel::default());
            let power = agg_cpu::pagerank_power(&g, 0.85, 1e-7, 500);
            for (i, r) in runs.iter().enumerate() {
                let ranks = r.values_as_f32();
                let vs_cpu = ranks
                    .iter()
                    .zip(&cpu.ranks)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                let vs_power = ranks
                    .iter()
                    .zip(&power)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                assert!(
                    vs_cpu < 5e-3,
                    "{} run {i}: max diff vs cpu-delta {vs_cpu}",
                    d.name()
                );
                assert!(
                    vs_power < 5e-3,
                    "{} run {i}: max diff vs power {vs_power}",
                    d.name()
                );
            }
        }
    }

    #[test]
    fn pagerank_rejects_ordered_vwarp_and_hybrid() {
        let g = Dataset::P2p.generate(Scale::Tiny, 72);
        let (mut dev, k, dg, st) = setup(&g);
        for opts in [
            RunOptions::static_variant(Variant::ALL[0]),
            RunOptions {
                strategy: Strategy::VirtualWarp {
                    width: 4,
                    workset: WorkSet::Queue,
                },
                ..Default::default()
            },
            RunOptions {
                strategy: Strategy::Hybrid { gpu_threshold: 10 },
                ..Default::default()
            },
        ] {
            assert!(matches!(
                run(&mut dev, &k, &dg, &st, Query::pagerank(), &opts),
                Err(CoreError::Unsupported { .. })
            ));
        }
    }

    #[test]
    fn pagerank_epsilon_trades_accuracy_for_iterations() {
        let g = Dataset::Amazon.generate(Scale::Tiny, 73);
        let (mut dev, k, mut dg, st) = setup(&g);
        dg.upload_reverse(&mut dev, &g);
        let loose = Query::PageRank {
            config: PageRankConfig {
                damping: 0.85,
                epsilon: 1e-2,
            },
        };
        let tight = Query::PageRank {
            config: PageRankConfig {
                damping: 0.85,
                epsilon: 1e-6,
            },
        };
        let rl = run(&mut dev, &k, &dg, &st, loose, &RunOptions::default()).unwrap();
        let rt = run(&mut dev, &k, &dg, &st, tight, &RunOptions::default()).unwrap();
        assert!(
            rt.iterations > rl.iterations,
            "{} vs {}",
            rt.iterations,
            rl.iterations
        );
        let power = agg_cpu::pagerank_power(&g, 0.85, 1e-8, 500);
        let err = |r: &RunReport| {
            r.values_as_f32()
                .iter()
                .zip(&power)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        };
        assert!(err(&rt) < err(&rl), "tight epsilon must be more accurate");
    }

    #[test]
    fn working_set_degree_mode_matches_whole_graph_results() {
        let g = Dataset::CiteSeer.generate_weighted(Scale::Tiny, 74, 64);
        let (mut dev, k, dg, st) = setup(&g);
        let whole = run(
            &mut dev,
            &k,
            &dg,
            &st,
            Query::Sssp { src: 0 },
            &RunOptions::default(),
        )
        .unwrap();
        let tuning = AdaptiveConfig {
            degree_mode: DegreeMode::WorkingSet,
            sampling_period: 1,
            ..Default::default()
        };
        let opts = RunOptions {
            tuning,
            ..Default::default()
        };
        let ws_mode = run(&mut dev, &k, &dg, &st, Query::Sssp { src: 0 }, &opts).unwrap();
        assert_eq!(whole.values, ws_mode.values);
        // The working-set inspector launches extra census kernels.
        assert!(ws_mode.launches > whole.launches);
    }

    #[test]
    fn direction_optimized_bfs_matches_reference_and_runs_bottom_up() {
        for d in [Dataset::Amazon, Dataset::Sns, Dataset::CoRoad] {
            let g = d.generate(Scale::Tiny, 75);
            let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
            let kernels = GpuKernels::build();
            let mut dg = DeviceGraph::upload(&mut dev, &g);
            dg.upload_reverse(&mut dev, &g);
            let st = AlgoState::new(&mut dev, dg.n, 0).unwrap();
            let opts = RunOptions {
                strategy: Strategy::DirectionOptimized {
                    bottom_up_fraction: 0.05,
                },
                record_trace: true,
                ..Default::default()
            };
            let r = run(&mut dev, &kernels, &dg, &st, Query::Bfs { src: 0 }, &opts).unwrap();
            assert_eq!(r.values, traversal::bfs_levels(&g, 0), "{}", d.name());
            if d == Dataset::Amazon {
                // explosive frontier: at least one bottom-up iteration
                // (recorded as U_T_BM with the bitmap frontier)
                assert!(r.iterations >= 3);
            }
        }
    }

    #[test]
    fn direction_optimized_requires_reverse_graph_and_bfs() {
        let g = Dataset::P2p.generate_weighted(Scale::Tiny, 76, 64);
        let (mut dev, k, dg, st) = setup(&g); // no reverse uploaded
        let opts = RunOptions {
            strategy: Strategy::DirectionOptimized {
                bottom_up_fraction: 0.1,
            },
            ..Default::default()
        };
        assert!(matches!(
            run(&mut dev, &k, &dg, &st, Query::Bfs { src: 0 }, &opts),
            Err(CoreError::Unsupported { .. })
        ));
        // SSSP is rejected even with the reverse graph present.
        let mut dg2 = DeviceGraph::upload(&mut dev, &g);
        dg2.upload_reverse(&mut dev, &g);
        assert!(matches!(
            run(&mut dev, &k, &dg2, &st, Query::Sssp { src: 0 }, &opts),
            Err(CoreError::Unsupported { .. })
        ));
    }

    #[test]
    fn bottom_up_saves_edge_work_on_explosive_frontiers() {
        let g = Dataset::Sns.generate(Scale::Tiny, 77);
        let mut dev = Device::try_new(DeviceConfig::tesla_c2070()).unwrap();
        let kernels = GpuKernels::build();
        let mut dg = DeviceGraph::upload(&mut dev, &g);
        dg.upload_reverse(&mut dev, &g);
        let st = AlgoState::new(&mut dev, dg.n, 0).unwrap();
        // influencer source: frontier explodes after one hop
        let src = (0..g.node_count() as u32)
            .max_by_key(|&v| g.out_degree(v))
            .unwrap();
        let top_down = run(
            &mut dev,
            &kernels,
            &dg,
            &st,
            Query::Bfs { src },
            &RunOptions::default(),
        )
        .unwrap();
        let opts = RunOptions {
            strategy: Strategy::DirectionOptimized {
                bottom_up_fraction: 0.05,
            },
            ..Default::default()
        };
        let dir_opt = run(&mut dev, &kernels, &dg, &st, Query::Bfs { src }, &opts).unwrap();
        assert_eq!(top_down.values, dir_opt.values);
        assert!(
            dir_opt.gpu_stats.totals.atomics < top_down.gpu_stats.totals.atomics,
            "bottom-up iterations are atomic-free: {} vs {}",
            dir_opt.gpu_stats.totals.atomics,
            top_down.gpu_stats.totals.atomics
        );
    }

    #[test]
    fn sssp_on_unweighted_graph_is_rejected() {
        let g = Dataset::P2p.generate(Scale::Tiny, 27);
        let (mut dev, k, dg, st) = setup(&g);
        let r = run(
            &mut dev,
            &k,
            &dg,
            &st,
            Query::Sssp { src: 0 },
            &RunOptions::default(),
        );
        assert!(matches!(r, Err(CoreError::InvalidQuery { .. })), "{r:?}");
        assert!(r.unwrap_err().to_string().contains("weighted"));
    }

    #[test]
    fn out_of_range_source_is_rejected_not_panicked() {
        let g = Dataset::P2p.generate_weighted(Scale::Tiny, 27, 64);
        let n = g.node_count() as u32;
        let (mut dev, k, dg, st) = setup(&g);
        for query in [
            Query::Bfs { src: n },
            Query::Bfs { src: u32::MAX },
            Query::Sssp { src: n + 7 },
        ] {
            let r = run(&mut dev, &k, &dg, &st, query, &RunOptions::default());
            let err = r.expect_err("out-of-range source must be an Err");
            assert!(
                matches!(&err, CoreError::InvalidQuery { .. }),
                "{query:?}: {err}"
            );
            assert!(err.to_string().contains("out of range"), "{err}");
        }
    }

    #[test]
    fn bad_pagerank_parameters_are_rejected() {
        let g = Dataset::P2p.generate(Scale::Tiny, 27);
        let (mut dev, k, dg, st) = setup(&g);
        for config in [
            PageRankConfig {
                damping: 0.0,
                epsilon: 1e-4,
            },
            PageRankConfig {
                damping: 1.0,
                epsilon: 1e-4,
            },
            PageRankConfig {
                damping: f32::NAN,
                epsilon: 1e-4,
            },
            PageRankConfig {
                damping: 0.85,
                epsilon: 0.0,
            },
            PageRankConfig {
                damping: 0.85,
                epsilon: f32::NAN,
            },
        ] {
            let r = run(
                &mut dev,
                &k,
                &dg,
                &st,
                Query::PageRank { config },
                &RunOptions::default(),
            );
            assert!(
                matches!(r, Err(CoreError::InvalidQuery { .. })),
                "{config:?}: {r:?}"
            );
        }
    }

    #[test]
    fn run_options_builder_composes() {
        let v = Variant::parse("U_T_BM").unwrap();
        let opts = RunOptions::builder()
            .static_variant(v)
            .census(CensusMode::Every)
            .trace()
            .max_iterations(7)
            .include_graph_transfer(false)
            .build();
        assert_eq!(opts.strategy, Strategy::Static(v));
        assert_eq!(opts.census, CensusMode::Every);
        assert!(opts.record_trace);
        assert_eq!(opts.max_iterations, 7);
        assert!(!opts.include_graph_transfer);
        // `static_variant` quiets the census unless explicitly re-enabled.
        assert_eq!(RunOptions::static_variant(v).census, CensusMode::Off);
        // `adaptive()` seeds the defaults.
        assert_eq!(RunOptions::adaptive().build(), RunOptions::default());
    }

    #[test]
    fn query_accessors_expose_algo_source_and_parameters() {
        let cfg = PageRankConfig {
            damping: 0.5,
            epsilon: 1e-3,
        };
        assert_eq!(Query::Bfs { src: 3 }.algo(), Algo::Bfs);
        assert_eq!(Query::Bfs { src: 3 }.source(), 3);
        assert_eq!(Query::Sssp { src: 9 }.source(), 9);
        assert_eq!(Query::Cc.source(), 0);
        assert_eq!(Query::PageRank { config: cfg }.pagerank_config(), cfg);
        assert_eq!(
            Query::pagerank().pagerank_config(),
            PageRankConfig::default()
        );
        assert_eq!(Query::Cc.name(), "cc");
        let json = Query::Sssp { src: 4 }.to_json().render();
        assert!(
            json.contains("\"algo\":\"sssp\"") && json.contains("\"src\":4"),
            "{json}"
        );
    }

    #[test]
    fn empty_graph_returns_empty_report() {
        let g = agg_graph::CsrGraph::empty(0);
        let (mut dev, k, dg, st) = setup(&g);
        let r = run(
            &mut dev,
            &k,
            &dg,
            &st,
            Query::Bfs { src: 0 },
            &RunOptions::default(),
        )
        .unwrap();
        assert!(r.values.is_empty());
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn iteration_cap_triggers_no_convergence() {
        let g = GraphBuilder::from_edges(10, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let (mut dev, k, dg, st) = setup(&g);
        let opts = RunOptions {
            max_iterations: 2,
            ..Default::default()
        };
        let r = run(&mut dev, &k, &dg, &st, Query::Bfs { src: 0 }, &opts);
        assert!(matches!(r, Err(CoreError::NoConvergence { iterations: 2 })));
        // The hybrid path honors the cap too.
        let opts = RunOptions {
            strategy: Strategy::Hybrid {
                gpu_threshold: u32::MAX,
            },
            max_iterations: 2,
            ..Default::default()
        };
        let r = run(&mut dev, &k, &dg, &st, Query::Bfs { src: 0 }, &opts);
        assert!(matches!(r, Err(CoreError::NoConvergence { iterations: 2 })));
    }

    #[test]
    fn graph_transfer_inclusion_is_configurable() {
        let g = Dataset::P2p.generate(Scale::Tiny, 28);
        let (mut dev, k, dg, st) = setup(&g);
        let with = run(
            &mut dev,
            &k,
            &dg,
            &st,
            Query::Bfs { src: 0 },
            &RunOptions::default(),
        )
        .unwrap();
        let without = run(
            &mut dev,
            &k,
            &dg,
            &st,
            Query::Bfs { src: 0 },
            &RunOptions {
                include_graph_transfer: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(with.total_ns > without.total_ns);
    }

    #[test]
    fn hybrid_beats_pure_gpu_on_the_road_network() {
        // The whole point of hybrid execution: high-diameter graphs spend
        // hundreds of iterations with tiny frontiers where kernel-launch
        // overhead dominates; running those on the host wins.
        let g = Dataset::CoRoad.generate(Scale::Tiny, 69);
        let (mut dev, k, dg, st) = setup(&g);
        let gpu = run(
            &mut dev,
            &k,
            &dg,
            &st,
            Query::Bfs { src: 0 },
            &RunOptions::default(),
        )
        .unwrap();
        let hybrid = run(
            &mut dev,
            &k,
            &dg,
            &st,
            Query::Bfs { src: 0 },
            &RunOptions {
                strategy: Strategy::Hybrid {
                    gpu_threshold: 2688,
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(gpu.values, hybrid.values);
        assert!(
            hybrid.total_ns < gpu.total_ns,
            "hybrid {:.0} ns should beat pure GPU {:.0} ns on the road grid",
            hybrid.total_ns,
            gpu.total_ns
        );
    }

    #[test]
    fn cache_keys_are_canonical_and_collision_free() {
        let queries = [
            Query::Bfs { src: 0 },
            Query::Bfs { src: 1 },
            Query::Sssp { src: 0 },
            Query::Sssp { src: 1 },
            Query::Cc,
            Query::pagerank(),
            Query::PageRank {
                config: PageRankConfig {
                    damping: 0.85,
                    epsilon: 1e-5,
                },
            },
            Query::PageRank {
                config: PageRankConfig {
                    // One ULP away from the default damping: a distinct
                    // computation, so a distinct key.
                    damping: f32::from_bits(0.85f32.to_bits() + 1),
                    epsilon: 1e-4,
                },
            },
        ];
        let keys: Vec<String> = queries.iter().map(Query::cache_key).collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                assert_eq!(a == b, i == j, "{a} vs {b}");
            }
        }
        // Keys are stable identities, not Debug output: same query, same
        // key, every time.
        assert_eq!(Query::Bfs { src: 7 }.cache_key(), "bfs:7");
        assert_eq!(Query::pagerank().cache_key(), Query::pagerank().cache_key());
    }

    #[test]
    fn typed_errors_render_their_context() {
        let e = CoreError::InvalidConfig {
            detail: "parallel session needs at least one worker".into(),
        };
        assert!(e.to_string().contains("invalid configuration"));
        let e = CoreError::WorkerPanic {
            worker: 2,
            query_index: 5,
            detail: "boom".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("worker 2"), "{msg}");
        assert!(msg.contains("query #5"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }
}
