//! Multi-device sharded execution: one simulated device per graph shard,
//! BSP supersteps with boundary (ghost) exchange over a modeled
//! interconnect.
//!
//! # Execution model
//!
//! The graph is split by [`agg_graph::partition()`] into `k` vertex
//! ranges; each shard's forward CSR (owned rows + empty ghost rows)
//! lives on its own [`Device`]. Every superstep is a *single* fan-out
//! window — one host thread per shard (the devices are independent, so
//! the per-shard work parallelizes exactly like [`crate::Session`]'s
//! multi-query batches), one barrier per superstep. Inside the window
//! each picked shard runs, in device program order:
//!
//! 1. **Deliver** — the pairs routed to it at the end of the *previous*
//!    superstep are uploaded and applied (`scatter_min` /
//!    `scatter_store`; PageRank then gathers the accumulated pushes and
//!    clears the push buffer). Delivery-then-generate is dataflow
//!    identical to a serialized deliver-at-end-of-step schedule — the
//!    pairs land before any kernel of this superstep reads state.
//! 2. **Generate** — a *split* workset generation partitions the
//!    frontier into **boundary** vertices (at least one cut out-edge,
//!    compacted into a dedicated queue) and **interior** vertices (the
//!    variant's bitmap or queue). The kernel's thread 0 also resets the
//!    *next* superstep's meta header and the outgoing pair count —
//!    meta buffers ping-pong between supersteps, so no separate prep
//!    launch exists. One prefix read of the 4-word header returns the
//!    active census, both queue lengths, and — for ordered SSSP, fused
//!    into the generation kernel — the local findmin candidate. The
//!    variant was picked per [`crate::decision::decide`] before the
//!    window (its signals — last census, resident shape — are
//!    host-known).
//! 3. **Boundary + emit** — if the boundary queue is non-empty, the
//!    compute kernel runs over it, then `emit_ghost` (`collect_pairs`
//!    for PageRank) compacts `(ghost lid, value)` pairs — count in word
//!    0 — fetched with a single speculative read. Interior vertices
//!    have no cut out-edges, so every ghost update of the superstep has
//!    now been captured and the pairs can hit the wire.
//! 4. **Interior** — the interior pass runs *while the modeled
//!    interconnect moves the boundary pairs* (see the cost model
//!    below). The host routes the fetched pairs to their owners as the
//!    window drains; they are delivered at the top of the next window.
//!
//! Ordered SSSP is the one case that needs a mid-superstep barrier: the
//! shards must agree on the global minimum before boundary compute, so
//! a superstep with any ordered shard splits into deliver+generate,
//! a host min-agreement (a 4-byte write only to shards whose local
//! candidate differs), then boundary+interior.
//!
//! Idle shards — empty working set and no incoming pairs — skip the
//! window entirely: zero kernel launches, zero PCIe round trips. The
//! traversal terminates when every shard is idle, which is a global
//! fixpoint (delivered pairs that improved nothing set no flags).
//!
//! # Determinism
//!
//! BFS/SSSP/CC converge to the unique min-fixpoint (levels, distances,
//! min labels), so the merged result is bit-identical to a single-device
//! run no matter how supersteps interleave. PageRank uses the
//! deterministic claim → gather pair (see `agg-kernels`' pagerank
//! module): each shard's reverse CSR rows list in-neighbors in canonical
//! *global* edge order and cross-shard push values arrive bit-exact via
//! `scatter_store`, so every per-destination f32 accumulation chain is
//! identical to the single-device gather, superstep by superstep. Host
//! threading cannot perturb any of this: each worker owns its device,
//! results are joined in shard order, and routed pairs are sorted before
//! application — [`ShardedGraph::set_sequential`] exists so tests can
//! prove the threaded schedule bit-identical to the sequential one.
//!
//! # Time accounting
//!
//! `total_ns == setup_ns + compute_ns + exchange_ns + teardown_ns`
//! *exactly*. Setup and teardown are the max over per-shard device
//! slices. Each superstep adds the busiest shard's device-clock delta
//! over the whole window to `compute_ns` (two deltas when ordered SSSP
//! splits the window) — shards run concurrently, so the superstep
//! barrier waits for the slowest, and nothing else fragments the
//! timeline. The exchange round overlaps the interior segment: of the
//! modeled all-to-all cost `W = L + B` (fixed latency + busiest-port
//! byte time), `min(B, tI)` hides behind the slowest interior pass
//! (`tI`) and is reported as `overlap_saved_ns`; only `W - min(B, tI)`
//! lands in `exchange_ns`. PCIe staging of the pair buffers is charged
//! on the shard device clocks and therefore lands inside `compute_ns`.

use crate::config::AdaptiveConfig;
use crate::decision::decide;
use crate::engine::{iteration_cap, validate_query, Algo, CoreError, Query, RunOptions, Strategy};
use agg_gpu_sim::json::Json;
use agg_gpu_sim::prelude::*;
use agg_graph::{partition, CsrGraph, GraphError, Partition, PartitionStrategy, INF};
use agg_kernels::exchange::{META_COUNT, META_MIN, META_QB, META_QLEN, META_WORDS};
use agg_kernels::{AlgoOrder, AlgoState, DeviceGraph, GpuKernels, Mapping, Variant, WorkSet};
use std::collections::HashMap;

fn part_err(e: GraphError) -> CoreError {
    CoreError::InvalidQuery {
        detail: e.to_string(),
    }
}

/// Per-shard runtime: a device, the resident local CSR, algorithm state,
/// and the staging buffers of the exchange protocol.
struct ShardRt {
    dev: Device,
    dg: DeviceGraph,
    state: AlgoState,
    /// Ping-pong pair of 4-word scratch headers (findmin cell, active
    /// census, boundary/interior queue lengths) — see
    /// `agg_kernels::exchange`'s `META_*` constants. Setup preps
    /// `metas[0]`; each split generation consumes `metas[parity]` and
    /// resets the partner for the following superstep in-kernel, so the
    /// steady state needs no prep launch or host write. `state.min_out`
    /// is re-aliased onto the current header every generation so the
    /// ordered SSSP kernels read the fused findmin result unchanged.
    metas: [DevicePtr; 2],
    /// Which of `metas` the next generation consumes.
    parity: usize,
    /// Boundary mask over owned lids (1 = has at least one cut
    /// out-edge); the split generation kernels read it to route each
    /// active vertex to the boundary queue or the interior working set.
    mask: DevicePtr,
    /// Boundary working-set queue (capacity = boundary-source count).
    bqueue: DevicePtr,
    /// Outgoing pair staging: word 0 is the pair count, pair `i` lives
    /// at words `[1 + 2i, 2 + 2i]`.
    out_pairs: DevicePtr,
    /// Allocated words of `out_pairs` (speculative-read bound).
    out_cap: usize,
    /// Incoming pair staging: `2 * max(owned, ghosts, 1)`.
    in_pairs: DevicePtr,
    /// For each boundary source lid: the `(dest shard, ghost lid there)`
    /// slots its push value must reach (destinations of its cut
    /// out-edges).
    push_routes: HashMap<u32, Vec<(usize, u32)>>,
    owned: u32,
    ghosts: u32,
    ext: u32,
    local_edges: u32,
    avg_deg: f64,
}

/// Per-shard telemetry slice of a [`ShardReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSlice {
    /// Shard index.
    pub shard: usize,
    /// Owned nodes.
    pub owned: u32,
    /// Ghost (halo) nodes.
    pub ghosts: u32,
    /// Edges resident on this shard (all out-edges of owned nodes).
    pub local_edges: u32,
    /// Out-edges whose destination another shard owns.
    pub cut_out_edges: usize,
    /// In-edges whose source another shard owns.
    pub cut_in_edges: usize,
    /// This shard's device-clock advance over the run (kernels + PCIe
    /// staging), ns.
    pub device_ns: f64,
    /// Kernel launches this run issued on this shard's device (zero for
    /// a shard that stayed idle throughout).
    pub launches: u64,
    /// Boundary pairs this shard emitted over the interconnect.
    pub pairs_sent: u64,
    /// Bytes those pairs occupied on the wire (8 bytes per pair).
    pub bytes_sent: u64,
    /// Times this shard's inspector changed variant mid-run.
    pub switches: u32,
}

impl ShardSlice {
    /// This slice as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("shard", self.shard.into()),
            ("owned", self.owned.into()),
            ("ghosts", self.ghosts.into()),
            ("local_edges", self.local_edges.into()),
            ("cut_out_edges", self.cut_out_edges.into()),
            ("cut_in_edges", self.cut_in_edges.into()),
            ("device_ns", self.device_ns.into()),
            ("launches", self.launches.into()),
            ("pairs_sent", self.pairs_sent.into()),
            ("bytes_sent", self.bytes_sent.into()),
            ("switches", self.switches.into()),
        ])
    }
}

/// The result of a sharded run: merged values, superstep count, the
/// exchange ledger, and per-shard slices.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard (device) count.
    pub shards: usize,
    /// Partitioning strategy name (`"contiguous"` / `"degree"` /
    /// `"clustered"`).
    pub partition_strategy: String,
    /// Final per-node values merged from the owned ranges (global node
    /// order) — bit-identical to a single-device run.
    pub values: Vec<u32>,
    /// BSP supersteps that ran a compute kernel on at least one shard
    /// (the terminating all-empty round is excluded, like the engine's
    /// `iterations`).
    pub supersteps: u32,
    /// Total modeled time, ns. Equals `setup_ns + compute_ns +
    /// exchange_ns + teardown_ns` exactly.
    pub total_ns: f64,
    /// State reset before the first superstep (max over shards), ns.
    pub setup_ns: f64,
    /// Sum over superstep windows of the slowest shard's device delta
    /// (kernels, PCIe pair staging, meta reads), ns.
    pub compute_ns: f64,
    /// *Visible* interconnect time across every exchange round — the
    /// modeled all-to-all cost minus what the interior passes hid, ns.
    pub exchange_ns: f64,
    /// Interconnect time hidden behind interior compute by the
    /// boundary-first superstep split, ns. A serialized schedule would
    /// have paid `exchange_ns + overlap_saved_ns` on the wire.
    pub overlap_saved_ns: f64,
    /// Final owned-range D2H reads (max over shards), ns.
    pub teardown_ns: f64,
    /// Bytes moved over the interconnect (8 per boundary pair).
    pub exchange_bytes: u64,
    /// Supersteps that moved at least one pair between shards.
    pub exchange_rounds: u32,
    /// Edges crossing shard boundaries.
    pub cut_edges: usize,
    /// `cut_edges / m` (0 for an edgeless graph).
    pub cut_fraction: f64,
    /// Per-shard telemetry.
    pub per_shard: Vec<ShardSlice>,
}

impl ShardReport {
    /// Total modeled time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns / 1e6
    }

    /// Reinterprets the merged value array as f32 (PageRank ranks).
    pub fn values_as_f32(&self) -> Vec<f32> {
        self.values.iter().map(|&b| f32::from_bits(b)).collect()
    }

    /// `|total - (setup + compute + exchange + teardown)|` — zero by
    /// construction; exposed so tests and the differential harness can
    /// assert the identity rather than trust it.
    pub fn accounting_gap(&self) -> f64 {
        (self.total_ns - (self.setup_ns + self.compute_ns + self.exchange_ns + self.teardown_ns))
            .abs()
    }

    /// The telemetry payload as JSON (values omitted — data, not
    /// telemetry).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("shards", self.shards.into()),
            ("partition_strategy", self.partition_strategy.clone().into()),
            ("nodes", self.values.len().into()),
            ("supersteps", self.supersteps.into()),
            ("total_ns", self.total_ns.into()),
            ("setup_ns", self.setup_ns.into()),
            ("compute_ns", self.compute_ns.into()),
            ("exchange_ns", self.exchange_ns.into()),
            ("overlap_saved_ns", self.overlap_saved_ns.into()),
            ("teardown_ns", self.teardown_ns.into()),
            ("exchange_bytes", self.exchange_bytes.into()),
            ("exchange_rounds", self.exchange_rounds.into()),
            ("cut_edges", self.cut_edges.into()),
            ("cut_fraction", self.cut_fraction.into()),
            (
                "per_shard",
                Json::arr(self.per_shard.iter().map(ShardSlice::to_json)),
            ),
        ])
    }
}

/// One shard's superstep plan, fixed by phase A: the chosen variant and
/// the split working-set shape.
#[derive(Clone, Copy)]
struct StepPlan {
    variant: Variant,
    /// Boundary-queue length (phase B is skipped when zero).
    qb: u32,
    /// Interior active count (the interior pass is skipped when zero).
    interior_count: u32,
    /// Guard limit of the interior pass: `owned` for bitmap working
    /// sets, the interior queue length for queues.
    interior_limit: u32,
}

/// What one shard's split generation (meta read) returns.
struct GenOut {
    variant: Variant,
    total: u32,
    qb: u32,
    qlen: u32,
    local_min: u32,
}

/// What one shard's superstep window hands back for host bookkeeping.
struct StepOut {
    /// Active census of the generated frontier (0 = nothing ran past
    /// delivery and generation).
    total: u32,
    /// Boundary pairs fetched from the staging buffer (empty when the
    /// boundary queue was).
    emitted: Vec<(u32, u32)>,
    /// Device time of the interior segment — the window the wire
    /// transfer hides behind.
    interior_ns: f64,
}

/// A graph resident across `k` simulated devices, ready to answer
/// [`Query`]s with BSP supersteps and modeled frontier exchange.
///
/// ```
/// use agg_core::{Query, RunOptions, ShardedGraph};
/// use agg_graph::{Dataset, Scale};
///
/// let g = Dataset::P2p.generate(Scale::Tiny, 7);
/// let mut sharded = ShardedGraph::new(&g, 4).unwrap();
/// let r = sharded
///     .run(Query::Bfs { src: 0 }, &RunOptions::default())
///     .unwrap();
/// assert_eq!(r.values.len(), g.node_count());
/// assert_eq!(r.accounting_gap(), 0.0);
/// ```
pub struct ShardedGraph {
    part: Partition,
    kernels: GpuKernels,
    interconnect: Interconnect,
    shards: Vec<ShardRt>,
    weighted: bool,
    sequential: bool,
}

impl ShardedGraph {
    /// Partitions `g` into `shards` contiguous ranges and uploads each to
    /// its own default device (simulated Tesla C2070), linked by a
    /// PCIe-class interconnect.
    pub fn new(g: &CsrGraph, shards: usize) -> Result<ShardedGraph, CoreError> {
        ShardedGraph::with_config(
            g,
            shards,
            PartitionStrategy::Contiguous1D,
            DeviceConfig::tesla_c2070(),
            Interconnect::pcie(),
        )
    }

    /// Full-control constructor: partitioning strategy, per-device
    /// configuration, and interconnect model.
    pub fn with_config(
        g: &CsrGraph,
        shards: usize,
        strategy: PartitionStrategy,
        device: DeviceConfig,
        interconnect: Interconnect,
    ) -> Result<ShardedGraph, CoreError> {
        let part = partition(g, shards, strategy).map_err(part_err)?;
        let kernels = GpuKernels::build();
        let k = part.shard_count();
        let mut rts = Vec::with_capacity(k);
        for plan in &part.shards {
            let mut dev = Device::try_new(device.clone())?;
            let mut dg = DeviceGraph::upload(&mut dev, &plan.local);
            let owned = plan.owned_count() as u32;
            let ghosts = plan.ghost_count() as u32;
            let ext = plan.ext_count() as u32;
            let local_edges = plan.local.edge_count() as u32;
            // Ghost rows are empty, so the resident edge mass belongs to
            // the owned range: the local inspector's density signal is
            // m_local / owned, not m_local / ext.
            let avg_deg = if owned == 0 {
                0.0
            } else {
                local_edges as f64 / owned as f64
            };
            dg.avg_outdegree = avg_deg;
            let mut state = AlgoState::new(&mut dev, ext, 0)?;
            let metas = [
                dev.alloc("shard.meta_a", META_WORDS),
                dev.alloc("shard.meta_b", META_WORDS),
            ];
            // The ordered SSSP kernels bind `min_out` as their findmin
            // cell; aliasing it onto the current meta header lets the
            // fused split-generation reduction feed them with no extra
            // copy (re-aliased each generation as the buffers ping-pong).
            state.min_out = metas[0];
            let bsrc_len = plan.boundary_sources.len() as u32;
            let mut mask = vec![0u32; ext.max(1) as usize];
            for &b in &plan.boundary_sources {
                mask[b as usize] = 1;
            }
            let mask = dev.alloc_from_slice("shard.mask", &mask);
            let bqueue = dev.alloc("shard.bqueue", bsrc_len.max(1) as usize);
            let out_cap = 1 + 2 * (ghosts.max(bsrc_len).max(1)) as usize;
            let in_cap = 2 * (owned.max(ghosts).max(1)) as usize;
            let out_pairs = dev.alloc("shard.out_pairs", out_cap);
            let in_pairs = dev.alloc("shard.in_pairs", in_cap);
            // Push routing table: boundary source lid -> every (shard,
            // ghost lid) slot that gathers its push value (one entry per
            // destination shard of its cut out-edges).
            let mut push_routes: HashMap<u32, Vec<(usize, u32)>> = HashMap::new();
            let row = plan.local.row_offsets();
            let col = plan.local.col_indices();
            for &u in &plan.boundary_sources {
                let mut dests: Vec<(usize, u32)> = Vec::new();
                for &v in &col[row[u as usize] as usize..row[u as usize + 1] as usize] {
                    if v >= owned {
                        let v_gid = plan.ghosts[(v - owned) as usize];
                        let d = part.owner_of(v_gid);
                        let gl = part.shards[d]
                            .to_local(plan.to_global(u))
                            .expect("boundary source is a ghost of every shard it feeds");
                        if !dests.contains(&(d, gl)) {
                            dests.push((d, gl));
                        }
                    }
                }
                push_routes.insert(u, dests);
            }
            rts.push(ShardRt {
                dev,
                dg,
                state,
                metas,
                parity: 0,
                mask,
                bqueue,
                out_pairs,
                out_cap,
                in_pairs,
                push_routes,
                owned,
                ghosts,
                ext,
                local_edges,
                avg_deg,
            });
        }
        Ok(ShardedGraph {
            part,
            kernels,
            interconnect,
            shards: rts,
            weighted: g.is_weighted(),
            sequential: false,
        })
    }

    /// The partition driving this runtime.
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// Shard (device) count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Forces per-shard phase work onto the calling thread instead of
    /// one worker thread per shard. The two schedules are bit-identical
    /// (each worker owns its device; joins and routing are
    /// deterministic) — this switch exists so tests can prove it.
    pub fn set_sequential(&mut self, sequential: bool) {
        self.sequential = sequential;
    }

    /// Race-detector counters summed over every shard device (all zeros
    /// unless the [`DeviceConfig`] passed to [`ShardedGraph::with_config`]
    /// enabled detection). Harmful exemplars are concatenated in shard
    /// order so a finding still names the kernel and buffer it hit.
    pub fn race_summary(&self) -> RaceSummary {
        let mut total = RaceSummary::default();
        for rt in &self.shards {
            let s = rt.dev.race_summary();
            total.launches_checked += s.launches_checked;
            total.benign_words += s.benign_words;
            total.harmful_words += s.harmful_words;
            total.harmful.extend(s.harmful.iter().cloned());
        }
        total
    }

    /// Per-shard kernel launch profiles (one JSON array of
    /// [`LaunchProfile`] objects per shard, in shard order), cumulative
    /// since construction. Diagnostic only — lets benchmarks attribute
    /// a shard's `device_ns` to individual kernels the same way
    /// [`Device::profile`] does for a single device.
    pub fn kernel_profiles(&self) -> Vec<Json> {
        self.shards
            .iter()
            .map(|rt| rt.dev.profile().to_json())
            .collect()
    }

    /// Runs one typed query across every shard. Sharded execution
    /// supports [`Strategy::Adaptive`] (per-shard local decisions) and
    /// [`Strategy::Static`]; the single-device-only strategies are
    /// rejected with [`CoreError::Unsupported`]. The census policy in
    /// `options` is ignored: the split workset generation returns the
    /// exact census in its meta header for free, so every shard's
    /// decision always sees the true local working-set size. Graph
    /// upload is a construction-time cost and is not charged to the
    /// report.
    pub fn run(&mut self, query: Query, options: &RunOptions) -> Result<ShardReport, CoreError> {
        self.validate(query, options)?;
        let n = self.part.n as u32;
        if n == 0 {
            return Ok(self.empty_report());
        }
        let algo = query.algo();
        let pagerank = query.pagerank_config();
        let sequential = self.sequential;
        let part = &self.part;
        let kernels = &self.kernels;
        let interconnect = &self.interconnect;
        let shards = &mut self.shards;
        let k = shards.len();
        // The partition may relabel vertices (ClusteredContiguous); all
        // shard-local state speaks the partition id space and only the
        // run boundary translates.
        let psrc = part.to_partition_id(query.source().min(n - 1));
        if algo == Algo::PageRank {
            // The gather walks the transpose; upload each shard's
            // canonical reverse CSR once on first use (construction-class
            // cost: before the run clock starts).
            for (rt, plan) in shards.iter_mut().zip(&part.shards) {
                rt.dg.upload_reverse_graph(&mut rt.dev, &plan.reverse);
            }
        }
        let tuning = &options.tuning;
        let tt = tuning.thread_block_threads;
        let cap = iteration_cap(options, n);

        let run_start: Vec<f64> = shards.iter().map(|rt| rt.dev.elapsed_ns()).collect();
        let launch_start: Vec<u64> = shards.iter().map(|rt| rt.dev.launch_count()).collect();

        // ---- setup: per-shard state reset ------------------------------
        for (i, rt) in shards.iter_mut().enumerate() {
            // Restart the ping-pong cycle: one host write preps
            // `metas[0]` for the first generation; every generation
            // after that preps its successor in-kernel. (A transfer,
            // not a launch — shards that never activate stay at zero
            // launches.)
            rt.parity = 0;
            rt.state.min_out = rt.metas[0];
            if rt.ext == 0 {
                continue;
            }
            rt.dev.write(rt.metas[0], &[u32::MAX, 0, 0, 0])?;
            match algo {
                Algo::Bfs | Algo::Sssp => {
                    // Like `AlgoState::reset`, but only the owning shard
                    // marks the source.
                    rt.dev.fill(rt.state.value, INF)?;
                    rt.dev.fill(rt.state.update, 0)?;
                    rt.dev.fill(rt.state.bitmap, 0)?;
                    rt.dev.write_word(rt.state.queue_len, 0, 0)?;
                    rt.dev.write_word(rt.state.flag, 0, 0)?;
                    if part.shards[i].owns(psrc) {
                        let lid = (psrc - part.shards[i].start) as usize;
                        rt.dev.write_word(rt.state.value, lid, 0)?;
                        rt.dev.write_word(rt.state.update, lid, 1)?;
                    }
                }
                Algo::Cc => {
                    rt.state.reset_cc(&mut rt.dev, rt.ext)?;
                    // Labels must be *original* global ids (reset_cc
                    // wrote local iota) so the min-label fixpoint matches
                    // the single-device run even under a relabeling
                    // partition, and only owned nodes start in the
                    // working set — ghosts activate via incoming pairs.
                    let plan = &part.shards[i];
                    let labels: Vec<u32> = (0..rt.ext)
                        .map(|l| part.to_original_id(plan.to_global(l)))
                        .collect();
                    rt.dev.write(rt.state.value, &labels)?;
                    let mut flags = vec![1u32; rt.ext as usize];
                    for f in flags.iter_mut().skip(rt.owned as usize) {
                        *f = 0;
                    }
                    rt.dev.write(rt.state.update, &flags)?;
                }
                Algo::PageRank => {
                    rt.state.reset_pagerank(&mut rt.dev, pagerank.damping)?;
                    // Only owned nodes seed the working set; ghost
                    // residual/rank slots exist but are never claimed.
                    let mut flags = vec![1u32; rt.ext as usize];
                    for f in flags.iter_mut().skip(rt.owned as usize) {
                        *f = 0;
                    }
                    rt.dev.write(rt.state.update, &flags)?;
                }
            }
        }
        let setup_ns = max_delta(shards, &run_start);

        // ---- superstep loop --------------------------------------------
        let mut est_ws: Vec<u32> = shards
            .iter()
            .enumerate()
            .map(|(i, rt)| match algo {
                Algo::Cc | Algo::PageRank => rt.ext,
                _ => u32::from(part.shards[i].owns(psrc)),
            })
            .collect();
        let mut active: Vec<bool> = shards
            .iter()
            .enumerate()
            .map(|(i, rt)| {
                rt.ext > 0
                    && match algo {
                        Algo::Cc | Algo::PageRank => rt.owned > 0,
                        _ => part.shards[i].owns(psrc),
                    }
            })
            .collect();
        let mut prev_variant: Vec<Option<Variant>> = vec![None; k];
        let mut switches = vec![0u32; k];
        let mut pairs_sent = vec![0u64; k];
        let mut supersteps = 0u32;
        let mut compute_ns = 0.0f64;
        let mut exchange_ns = 0.0f64;
        let mut overlap_saved_ns = 0.0f64;
        let mut exchange_bytes = 0u64;
        let mut exchange_rounds = 0u32;
        let mut inbox: Vec<Vec<(u32, u32)>> = vec![Vec::new(); k];
        let mut first_window = true;

        loop {
            if supersteps as u64 >= cap {
                return Err(CoreError::NoConvergence { iterations: cap });
            }
            // Variant decisions happen host-side before fan-out (the
            // inspector's signals — last census, resident shape — are
            // host-known), so each shard launches the right generation
            // kernel immediately and an ordered round is recognized
            // before the window opens. The estimate must count the
            // inbox: when the frontier wave reaches a shard from its
            // neighbours, the shard's own last generation was near
            // empty, and deciding on that stale signal alone picks a
            // small-frontier variant for what is about to be the
            // explosive level (every delivered pair that wins its
            // min-merge joins the next working set). The router knows
            // the exact pair count, so the correction is free.
            let variants: Vec<Option<Variant>> = (0..k)
                .map(|s| {
                    if !active[s] {
                        return None;
                    }
                    let est = est_ws[s].saturating_add(inbox[s].len() as u32);
                    Some(match options.strategy {
                        Strategy::Static(v) => v,
                        // The decision domain is the *owned* range: ghosts
                        // never enter a generated working set (generation
                        // scans `0..owned`), so sizing T3 by `ext` would
                        // let the ghost population push real explosive
                        // levels back into the queue band.
                        _ => decide(tuning, est, shards[s].owned, shards[s].avg_deg),
                    })
                })
                .collect();
            let ordered_round = algo == Algo::Sssp
                && variants
                    .iter()
                    .flatten()
                    .any(|v| v.order == AlgoOrder::Ordered);
            let t0: Vec<f64> = snapshot(shards);
            let inbox_ref = &inbox;
            let variants_ref = &variants;

            let outs: Vec<Option<StepOut>> = if ordered_round {
                // Ordered SSSP must agree on the global minimum before
                // any boundary relaxation, so the superstep splits into
                // two windows around the host min-agreement. The fused
                // reduction already left each local candidate in the
                // meta header; only dissenting shards pay a 4-byte
                // write.
                let gen = for_each_shard(shards, &active, sequential, |i, rt| {
                    deliver_inbox(rt, kernels, algo, tt, &inbox_ref[i])?;
                    let v = variants_ref[i].expect("picked shards have a variant");
                    gen_split(rt, kernels, v, v.order == AlgoOrder::Ordered, tt)
                })?;
                let mut plans: Vec<Option<StepPlan>> = vec![None; k];
                for (s, g) in gen.iter().enumerate() {
                    let Some(g) = g else { continue };
                    if g.total == 0 {
                        continue;
                    }
                    let (interior_count, interior_limit) = match g.variant.workset {
                        WorkSet::Bitmap => (g.total - g.qb, self_owned(shards, s)),
                        WorkSet::Queue => (g.qlen, g.qlen),
                    };
                    plans[s] = Some(StepPlan {
                        variant: g.variant,
                        qb: g.qb,
                        interior_count,
                        interior_limit,
                    });
                }
                let ordered: Vec<usize> = (0..k)
                    .filter(|&s| plans[s].is_some_and(|p| p.variant.order == AlgoOrder::Ordered))
                    .collect();
                let global_min = ordered
                    .iter()
                    .filter_map(|&s| gen[s].as_ref().map(|g| g.local_min))
                    .min()
                    .unwrap_or(u32::MAX);
                for &s in &ordered {
                    if gen[s].as_ref().is_some_and(|g| g.local_min != global_min) {
                        let rt = &mut shards[s];
                        rt.dev.write_word(rt.state.min_out, 0, global_min)?;
                    }
                }
                let pick2: Vec<bool> = plans.iter().map(Option::is_some).collect();
                let plans_ref = &plans;
                let mut w2 = for_each_shard(shards, &pick2, sequential, |i, rt| {
                    let p = plans_ref[i].expect("picked shards have a plan");
                    let emitted = if p.qb > 0 {
                        boundary_pass(rt, kernels, algo, tuning, p.variant, p.qb, tt, 0.0)?
                    } else {
                        Vec::new()
                    };
                    let c0 = rt.dev.elapsed_ns();
                    if p.interior_count > 0 {
                        interior_pass(
                            rt,
                            kernels,
                            algo,
                            tuning,
                            p.variant,
                            p.interior_limit,
                            tt,
                            0.0,
                        )?;
                    }
                    Ok((emitted, rt.dev.elapsed_ns() - c0))
                })?;
                gen.into_iter()
                    .zip(w2.iter_mut())
                    .map(|(g, w)| {
                        g.map(|g| {
                            let (emitted, interior_ns) = w.take().unwrap_or_default();
                            StepOut {
                                total: g.total,
                                emitted,
                                interior_ns,
                            }
                        })
                    })
                    .collect()
            } else {
                for_each_shard(shards, &active, sequential, |i, rt| {
                    let v = variants_ref[i].expect("picked shards have a variant");
                    deliver_inbox(rt, kernels, algo, tt, &inbox_ref[i])?;
                    if algo == Algo::PageRank && !first_window {
                        // Gather the previous superstep's pushes (own
                        // claims + the remote pushes just delivered),
                        // then clear the push buffer for this step's
                        // claims.
                        rt.dev.launch(
                            &kernels.pagerank_gather,
                            Grid::linear(rt.ext as u64, tt),
                            &rt.state
                                .pagerank_gather_args(&rt.dg, rt.ext, pagerank.epsilon),
                        )?;
                        rt.dev.fill(rt.state.aux2, 0)?;
                    }
                    let g = gen_split(rt, kernels, v, false, tt)?;
                    if g.total == 0 {
                        return Ok(StepOut {
                            total: 0,
                            emitted: Vec::new(),
                            interior_ns: 0.0,
                        });
                    }
                    let emitted = if g.qb > 0 {
                        boundary_pass(rt, kernels, algo, tuning, v, g.qb, tt, pagerank.damping)?
                    } else {
                        Vec::new()
                    };
                    let (interior_count, interior_limit) = match v.workset {
                        WorkSet::Bitmap => (g.total - g.qb, rt.owned),
                        WorkSet::Queue => (g.qlen, g.qlen),
                    };
                    let c0 = rt.dev.elapsed_ns();
                    if interior_count > 0 {
                        interior_pass(
                            rt,
                            kernels,
                            algo,
                            tuning,
                            v,
                            interior_limit,
                            tt,
                            pagerank.damping,
                        )?;
                    }
                    Ok(StepOut {
                        total: g.total,
                        emitted,
                        interior_ns: rt.dev.elapsed_ns() - c0,
                    })
                })?
            };
            compute_ns += max_delta(shards, &t0);

            for (s, o) in outs.iter().enumerate() {
                let Some(o) = o else { continue };
                est_ws[s] = o.total;
                if o.total > 0 {
                    let v = variants[s].expect("shards with work have a variant");
                    if prev_variant[s].is_some_and(|p| p != v) {
                        switches[s] += 1;
                    }
                    prev_variant[s] = Some(v);
                }
            }
            if outs.iter().flatten().all(|o| o.total == 0) {
                break; // global fixpoint: the final deliveries moved nothing
            }

            // ---- route (host): map pairs to owners, min-merge ----------
            let mut bytes = vec![vec![0usize; k]; k];
            for ib in inbox.iter_mut() {
                ib.clear();
            }
            for (s, o) in outs.iter().enumerate() {
                let Some(o) = o else { continue };
                if algo == Algo::PageRank {
                    for &(lid, push_bits) in &o.emitted {
                        let routes = shards[s].push_routes.get(&lid);
                        for &(d, gl) in routes.into_iter().flatten() {
                            bytes[s][d] += 8;
                            pairs_sent[s] += 1;
                            inbox[d].push((gl, push_bits));
                        }
                    }
                } else {
                    pairs_sent[s] += o.emitted.len() as u64;
                    for &(ghost_lid, val) in &o.emitted {
                        let gid = part.shards[s].ghosts[(ghost_lid - shards[s].owned) as usize];
                        let d = part.owner_of(gid);
                        let dest_lid = gid - part.shards[d].start;
                        bytes[s][d] += 8;
                        inbox[d].push((dest_lid, val));
                    }
                }
            }
            for ib in inbox.iter_mut() {
                ib.sort_unstable();
                if algo != Algo::PageRank {
                    ib.dedup_by_key(|p| p.0); // keep min value per node
                }
            }

            // ---- exchange ledger: overlap with the interior segment ----
            let t_interior = outs
                .iter()
                .flatten()
                .map(|o| o.interior_ns)
                .fold(0.0f64, f64::max);
            let round_bytes: usize = bytes.iter().flatten().sum();
            if round_bytes > 0 {
                let wire = interconnect.all_to_all_ns(&bytes);
                // The fixed latency is the post-overlap handshake; only
                // the byte-time part can hide behind interior compute.
                let hidden = (wire - interconnect.latency_ns()).min(t_interior).max(0.0);
                exchange_ns += wire - hidden;
                overlap_saved_ns += hidden;
                exchange_bytes += round_bytes as u64;
                exchange_rounds += 1;
            }

            // A shard stays in the superstep cycle while it computed this
            // round (its kernels may have set fresh update flags) or
            // received pairs; everything else goes idle at zero cost.
            for s in 0..k {
                active[s] = outs[s].as_ref().is_some_and(|o| o.total > 0) || !inbox[s].is_empty();
            }
            supersteps += 1;
            first_window = false;
        }

        // ---- teardown: merge owned ranges ------------------------------
        let t_mark: Vec<f64> = snapshot(shards);
        let mut values = vec![0u32; n as usize];
        for (i, rt) in shards.iter_mut().enumerate() {
            if rt.owned == 0 {
                continue;
            }
            let owned = rt.dev.read_prefix(rt.state.value, rt.owned as usize)?;
            let start = part.shards[i].start;
            for (lid, &v) in owned.iter().enumerate() {
                values[part.to_original_id(start + lid as u32) as usize] = v;
            }
        }
        let teardown_ns = max_delta(shards, &t_mark);

        let per_shard: Vec<ShardSlice> = shards
            .iter()
            .enumerate()
            .map(|(i, rt)| ShardSlice {
                shard: i,
                owned: rt.owned,
                ghosts: rt.ghosts,
                local_edges: rt.local_edges,
                cut_out_edges: part.shards[i].cut_out_edges,
                cut_in_edges: part.shards[i].cut_in_edges,
                device_ns: rt.dev.elapsed_ns() - run_start[i],
                launches: rt.dev.launch_count() - launch_start[i],
                pairs_sent: pairs_sent[i],
                bytes_sent: pairs_sent[i] * 8,
                switches: switches[i],
            })
            .collect();

        Ok(ShardReport {
            shards: k,
            partition_strategy: part.strategy.name().to_string(),
            values,
            supersteps,
            total_ns: setup_ns + compute_ns + exchange_ns + teardown_ns,
            setup_ns,
            compute_ns,
            exchange_ns,
            overlap_saved_ns,
            teardown_ns,
            exchange_bytes,
            exchange_rounds,
            cut_edges: part.cut_edges,
            cut_fraction: part.cut_fraction(),
            per_shard,
        })
    }

    fn validate(&self, query: Query, options: &RunOptions) -> Result<(), CoreError> {
        let single_device = match options.strategy {
            Strategy::Adaptive | Strategy::Static(_) => None,
            Strategy::VirtualWarp { .. } => Some("virtual-warp kernels are single-device"),
            Strategy::DirectionOptimized { .. } => Some("direction-optimized BFS is single-device"),
            Strategy::Hybrid { .. } => Some("hybrid CPU/GPU alternation is single-device"),
        };
        if let Some(why) = single_device {
            return Err(CoreError::Unsupported {
                detail: format!(
                    "sharded execution supports Adaptive and Static strategies ({why})"
                ),
            });
        }
        validate_query(query, options, self.part.n as u32, self.weighted)
    }

    fn empty_report(&self) -> ShardReport {
        ShardReport {
            shards: self.shards.len(),
            partition_strategy: self.part.strategy.name().to_string(),
            values: Vec::new(),
            supersteps: 0,
            total_ns: 0.0,
            setup_ns: 0.0,
            compute_ns: 0.0,
            exchange_ns: 0.0,
            overlap_saved_ns: 0.0,
            teardown_ns: 0.0,
            exchange_bytes: 0,
            exchange_rounds: 0,
            cut_edges: 0,
            cut_fraction: 0.0,
            per_shard: Vec::new(),
        }
    }
}

/// Per-shard device-clock snapshot (devices are idle while the host
/// routes pairs, so snapshots at phase barriers delimit phase windows).
fn snapshot(shards: &[ShardRt]) -> Vec<f64> {
    shards.iter().map(|rt| rt.dev.elapsed_ns()).collect()
}

/// Busiest shard's clock advance since `marks` — the phase barrier cost.
fn max_delta(shards: &[ShardRt], marks: &[f64]) -> f64 {
    shards
        .iter()
        .zip(marks)
        .map(|(rt, &s)| rt.dev.elapsed_ns() - s)
        .fold(0.0f64, f64::max)
}

/// `shards[s].owned` via an immutable re-borrow (keeps the plan-building
/// loop free of a long-lived `&mut`).
fn self_owned(shards: &[ShardRt], s: usize) -> u32 {
    shards[s].owned
}

/// Runs `f` once per selected shard — on scoped worker threads by
/// default (each shard owns its device, so the fan-out is safe and the
/// join order deterministic), or inline when `sequential`. Returns
/// per-shard results in shard order, `None` for unselected shards.
fn for_each_shard<R, F>(
    shards: &mut [ShardRt],
    pick: &[bool],
    sequential: bool,
    f: F,
) -> Result<Vec<Option<R>>, CoreError>
where
    R: Send,
    F: Fn(usize, &mut ShardRt) -> Result<R, CoreError> + Sync,
{
    let k = shards.len();
    if sequential {
        let mut out = Vec::with_capacity(k);
        for (i, rt) in shards.iter_mut().enumerate() {
            out.push(if pick[i] { Some(f(i, rt)?) } else { None });
        }
        return Ok(out);
    }
    let mut slots: Vec<Option<Result<R, CoreError>>> = (0..k).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(k);
        for (i, rt) in shards.iter_mut().enumerate() {
            if !pick[i] {
                continue;
            }
            let f = &f;
            handles.push((i, scope.spawn(move || f(i, rt))));
        }
        for (i, h) in handles {
            let r = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            slots[i] = Some(r);
        }
    });
    slots.into_iter().map(Option::transpose).collect()
}

/// The compute grid of a variant, mirroring the engine: thread mapping
/// gets `limit` lanes, block mapping one block per working-set element
/// with the degree-tuned block width.
fn compute_grid(rt: &ShardRt, tuning: &AdaptiveConfig, v: Variant, limit: u32, tt: u32) -> Grid {
    match v.mapping {
        Mapping::Thread => Grid::linear(limit as u64, tt),
        Mapping::Block => Grid::new(
            limit,
            tuning.block_mapping_threads(rt.avg_deg, rt.dev.config().max_threads_per_block),
        ),
    }
}

/// Applies the pairs routed to a shard at the end of the previous
/// superstep (`scatter_min` for the min-fixpoint algorithms,
/// `scatter_store` for PageRank pushes). No-op on an empty inbox.
fn deliver_inbox(
    rt: &mut ShardRt,
    kernels: &GpuKernels,
    algo: Algo,
    tt: u32,
    ib: &[(u32, u32)],
) -> Result<(), CoreError> {
    if ib.is_empty() {
        return Ok(());
    }
    let (kernel, bufs) = if algo == Algo::PageRank {
        (&kernels.scatter_store, vec![rt.in_pairs, rt.state.aux2])
    } else {
        (
            &kernels.scatter_min,
            vec![rt.in_pairs, rt.state.value, rt.state.update],
        )
    };
    deliver_pairs(rt, kernel, tt, ib, bufs)
}

/// Runs the split workset generation on a shard's current meta header
/// and reads the census back. The kernel resets the partner header (and
/// the outgoing pair count) in-kernel, so flipping `parity` here is the
/// whole prep for the next superstep; `min_out` is re-aliased onto the
/// current header so the ordered SSSP kernels see the fused findmin.
fn gen_split(
    rt: &mut ShardRt,
    kernels: &GpuKernels,
    v: Variant,
    want_min: bool,
    tt: u32,
) -> Result<GenOut, CoreError> {
    let cur = rt.metas[rt.parity];
    let next = rt.metas[1 - rt.parity];
    rt.parity = 1 - rt.parity;
    rt.state.min_out = cur;
    let gk = match (v.workset, want_min) {
        (WorkSet::Bitmap, false) => &kernels.gen_bitmap_split,
        (WorkSet::Bitmap, true) => &kernels.gen_bitmap_split_min,
        (WorkSet::Queue, false) => &kernels.gen_queue_split,
        (WorkSet::Queue, true) => &kernels.gen_queue_split_min,
    };
    let interior_ws = rt.state.ws_buf(v.workset);
    rt.dev.launch(
        gk,
        Grid::linear(rt.owned as u64, tt),
        &LaunchArgs::new()
            .bufs([
                rt.state.update,
                rt.mask,
                interior_ws,
                rt.bqueue,
                cur,
                rt.state.value,
                next,
                rt.out_pairs,
            ])
            .scalars([rt.owned]),
    )?;
    let m = rt.dev.read_prefix(cur, META_WORDS)?;
    let (total, qlen) = match v.workset {
        WorkSet::Bitmap => (m[META_COUNT], 0),
        WorkSet::Queue => (m[META_QB] + m[META_QLEN], m[META_QLEN]),
    };
    Ok(GenOut {
        variant: v,
        total,
        qb: m[META_QB],
        qlen,
        local_min: m[META_MIN],
    })
}

/// Boundary segment: the compute kernel over the boundary queue, pair
/// emission (`emit_ghost` / `collect_pairs`), and the staged read-back.
#[allow(clippy::too_many_arguments)]
fn boundary_pass(
    rt: &mut ShardRt,
    kernels: &GpuKernels,
    algo: Algo,
    tuning: &AdaptiveConfig,
    v: Variant,
    qb: u32,
    tt: u32,
    damping: f32,
) -> Result<Vec<(u32, u32)>, CoreError> {
    let bv = Variant {
        order: v.order,
        mapping: v.mapping,
        workset: WorkSet::Queue,
    };
    let grid = compute_grid(rt, tuning, bv, qb, tt);
    if algo == Algo::PageRank {
        rt.dev.launch(
            kernels.pagerank_kernel(bv),
            grid,
            &rt.state
                .pagerank_claim_args_over(&rt.dg, rt.bqueue, qb, damping),
        )?;
        rt.dev.launch(
            &kernels.collect_pairs,
            Grid::linear(qb as u64, tt),
            &LaunchArgs::new()
                .bufs([rt.bqueue, rt.state.aux2, rt.out_pairs])
                .scalars([qb]),
        )?;
        return read_emitted(rt);
    }
    let (kernel, args) = match algo {
        Algo::Bfs => (
            kernels.bfs_kernel(bv),
            rt.state.bfs_args_over(&rt.dg, rt.bqueue, qb),
        ),
        Algo::Sssp => (
            kernels.sssp_kernel(bv),
            rt.state.sssp_args_over(&rt.dg, bv, rt.bqueue, qb),
        ),
        Algo::Cc => (
            kernels.cc_kernel(bv),
            rt.state.cc_args_over(&rt.dg, rt.bqueue, qb),
        ),
        Algo::PageRank => unreachable!("PageRank emits through collect_pairs above"),
    };
    rt.dev.launch(kernel, grid, &args)?;
    if rt.ghosts == 0 {
        return Ok(Vec::new());
    }
    rt.dev.launch(
        &kernels.emit_ghost,
        Grid::linear(rt.ghosts as u64, tt),
        &LaunchArgs::new()
            .bufs([rt.state.update, rt.state.value, rt.out_pairs])
            .scalars([rt.owned, rt.ghosts]),
    )?;
    read_emitted(rt)
}

/// Interior segment: the compute kernel over the interior working set
/// (cut-free by construction, so it overlaps the wire transfer).
#[allow(clippy::too_many_arguments)]
fn interior_pass(
    rt: &mut ShardRt,
    kernels: &GpuKernels,
    algo: Algo,
    tuning: &AdaptiveConfig,
    v: Variant,
    limit: u32,
    tt: u32,
    damping: f32,
) -> Result<(), CoreError> {
    let grid = compute_grid(rt, tuning, v, limit, tt);
    match algo {
        Algo::Bfs => rt.dev.launch(
            kernels.bfs_kernel(v),
            grid,
            &rt.state.bfs_args(&rt.dg, v, limit),
        )?,
        Algo::Sssp => rt.dev.launch(
            kernels.sssp_kernel(v),
            grid,
            &rt.state.sssp_args(&rt.dg, v, limit),
        )?,
        Algo::Cc => rt.dev.launch(
            kernels.cc_kernel(v),
            grid,
            &rt.state.cc_args(&rt.dg, v, limit),
        )?,
        Algo::PageRank => rt.dev.launch(
            kernels.pagerank_kernel(v),
            grid,
            &rt.state.pagerank_claim_args(&rt.dg, v, limit, damping),
        )?,
    };
    Ok(())
}

/// Pair buffers at or below this size are fetched with one speculative
/// full-capacity read: the count lives in word 0, and at PCIe latency a
/// second round trip costs more than the extra bytes of a small buffer.
const SPECULATIVE_READ_WORDS: usize = 1 + 2 * 2048;

/// Reads a shard's outgoing pair buffer (count in word 0, pair `i` at
/// words `[1 + 2i, 2 + 2i]`), charged to the shard's device clock.
fn read_emitted(rt: &mut ShardRt) -> Result<Vec<(u32, u32)>, CoreError> {
    let flat = if rt.out_cap <= SPECULATIVE_READ_WORDS {
        rt.dev.read_prefix(rt.out_pairs, rt.out_cap)?
    } else {
        let count = rt.dev.read_word(rt.out_pairs, 0)? as usize;
        if count == 0 {
            return Ok(Vec::new());
        }
        rt.dev.read_prefix(rt.out_pairs, 1 + 2 * count)?
    };
    let count = flat[0] as usize;
    Ok(flat[1..1 + 2 * count]
        .chunks_exact(2)
        .map(|c| (c[0], c[1]))
        .collect())
}

/// Apply phase: upload an inbox (PCIe) and run the given scatter kernel
/// over it with the caller-selected buffer binding.
fn deliver_pairs(
    rt: &mut ShardRt,
    kernel: &Kernel,
    tt: u32,
    pairs: &[(u32, u32)],
    bufs: Vec<DevicePtr>,
) -> Result<(), CoreError> {
    let mut flat = Vec::with_capacity(pairs.len() * 2);
    for &(lid, val) in pairs {
        flat.push(lid);
        flat.push(val);
    }
    rt.dev.write_prefix(rt.in_pairs, &flat)?;
    let count = pairs.len() as u32;
    rt.dev.launch(
        kernel,
        Grid::linear(count as u64, tt),
        &LaunchArgs::new().bufs(bufs).scalars([count]),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::GpuGraph;
    use crate::engine::PageRankConfig;
    use agg_graph::{Dataset, GraphBuilder, Scale};
    use agg_kernels::Variant;

    fn single_device(g: &CsrGraph, query: Query, options: &RunOptions) -> Vec<u32> {
        GpuGraph::new(g)
            .unwrap()
            .run(query, options)
            .unwrap()
            .values
    }

    fn queries(weighted: bool) -> Vec<Query> {
        let mut q = vec![Query::Bfs { src: 1 }, Query::Cc, Query::pagerank()];
        if weighted {
            q.push(Query::Sssp { src: 1 });
        }
        q
    }

    #[test]
    fn sharded_matches_single_device_for_every_algorithm_and_shard_count() {
        let g = Dataset::Amazon.generate_weighted(Scale::Tiny, 42, 64);
        let opts = RunOptions::default();
        for query in queries(true) {
            let expected = single_device(&g, query, &opts);
            for k in 1..=8usize {
                let mut sharded = ShardedGraph::new(&g, k).unwrap();
                let r = sharded.run(query, &opts).unwrap();
                assert_eq!(
                    r.values,
                    expected,
                    "{} diverged from single-device at {k} shards",
                    query.name()
                );
                assert_eq!(r.accounting_gap(), 0.0);
            }
        }
    }

    #[test]
    fn degree_balanced_partitioning_is_also_bit_identical() {
        let g = Dataset::Google.generate_weighted(Scale::Tiny, 9, 32);
        let opts = RunOptions::default();
        for query in queries(true) {
            let expected = single_device(&g, query, &opts);
            for k in [2usize, 5] {
                let mut sharded = ShardedGraph::with_config(
                    &g,
                    k,
                    PartitionStrategy::DegreeBalanced,
                    DeviceConfig::tesla_c2070(),
                    Interconnect::pcie(),
                )
                .unwrap();
                let r = sharded.run(query, &opts).unwrap();
                assert_eq!(
                    r.values,
                    expected,
                    "{} diverged under degree-balanced partitioning at {k} shards",
                    query.name()
                );
            }
        }
    }

    #[test]
    fn clustered_partitioning_is_bit_identical_and_cuts_fewer_edges() {
        let g = Dataset::CiteSeer.generate_weighted(Scale::Tiny, 13, 32);
        let opts = RunOptions::default();
        let run_with = |strategy: PartitionStrategy| {
            ShardedGraph::with_config(
                &g,
                4,
                strategy,
                DeviceConfig::tesla_c2070(),
                Interconnect::pcie(),
            )
            .unwrap()
        };
        for query in queries(true) {
            let expected = single_device(&g, query, &opts);
            let mut sharded = run_with(PartitionStrategy::ClusteredContiguous);
            let r = sharded.run(query, &opts).unwrap();
            assert_eq!(
                r.values,
                expected,
                "{} diverged under clustered partitioning (values must come back \
                 in original id order)",
                query.name()
            );
            assert_eq!(r.accounting_gap(), 0.0);
        }
        // The clustering exists to shrink the cut: on a community-rich
        // powerlaw graph it must not lose to the blind contiguous split.
        let clustered = run_with(PartitionStrategy::ClusteredContiguous);
        let contiguous = run_with(PartitionStrategy::Contiguous1D);
        assert!(
            clustered.partition().cut_edges <= contiguous.partition().cut_edges,
            "clustering increased the cut: {} > {}",
            clustered.partition().cut_edges,
            contiguous.partition().cut_edges
        );
    }

    #[test]
    fn threaded_phases_are_bit_identical_to_sequential() {
        // The S3 property: for every algorithm × shard count × strategy,
        // the threaded phase fan-out produces exactly the values AND the
        // modeled timeline of the sequential reference schedule.
        let g = Dataset::CiteSeer.generate_weighted(Scale::Tiny, 77, 32);
        for strategy in [
            PartitionStrategy::Contiguous1D,
            PartitionStrategy::DegreeBalanced,
            PartitionStrategy::ClusteredContiguous,
        ] {
            for query in queries(true) {
                for k in [2usize, 4] {
                    let run = |sequential: bool| {
                        let mut sg = ShardedGraph::with_config(
                            &g,
                            k,
                            strategy,
                            DeviceConfig::tesla_c2070(),
                            Interconnect::pcie(),
                        )
                        .unwrap();
                        sg.set_sequential(sequential);
                        sg.run(query, &RunOptions::default()).unwrap()
                    };
                    let par = run(false);
                    let seq = run(true);
                    assert_eq!(
                        par.values,
                        seq.values,
                        "threaded {} diverged from sequential at {k} shards ({})",
                        query.name(),
                        strategy.name()
                    );
                    assert_eq!(
                        par.total_ns, seq.total_ns,
                        "modeled time must not depend on host threading"
                    );
                    assert_eq!(par.accounting_gap(), 0.0);
                    assert_eq!(seq.accounting_gap(), 0.0);
                    assert!(par.overlap_saved_ns >= 0.0);
                }
            }
        }
    }

    #[test]
    fn static_variants_match_too_including_ordered_sssp() {
        let g = Dataset::P2p.generate_weighted(Scale::Tiny, 5, 64);
        for v in [
            Variant::parse("O_T_BM").unwrap(),
            Variant::parse("U_B_QU").unwrap(),
        ] {
            let opts = RunOptions::static_variant(v);
            let expected = single_device(&g, Query::Sssp { src: 0 }, &opts);
            let mut sharded = ShardedGraph::new(&g, 3).unwrap();
            let r = sharded.run(Query::Sssp { src: 0 }, &opts).unwrap();
            assert_eq!(
                r.values,
                expected,
                "static {} diverged across shards",
                v.name()
            );
        }
    }

    #[test]
    fn repeated_runs_on_one_sharded_graph_are_reproducible() {
        let g = Dataset::P2p.generate(Scale::Tiny, 11);
        let mut sharded = ShardedGraph::new(&g, 4).unwrap();
        let opts = RunOptions::default();
        let a = sharded.run(Query::Bfs { src: 3 }, &opts).unwrap();
        let pr = sharded.run(Query::pagerank(), &opts).unwrap();
        let b = sharded.run(Query::Bfs { src: 3 }, &opts).unwrap();
        assert_eq!(a.values, b.values, "state reset between queries leaked");
        assert_eq!(pr.values.len(), g.node_count());
    }

    #[test]
    fn time_accounting_identity_and_ledger_consistency() {
        let g = Dataset::Amazon.generate(Scale::Tiny, 3);
        let mut sharded = ShardedGraph::new(&g, 4).unwrap();
        let r = sharded
            .run(Query::Bfs { src: 0 }, &RunOptions::default())
            .unwrap();
        assert_eq!(r.accounting_gap(), 0.0);
        assert!(r.setup_ns > 0.0 && r.compute_ns > 0.0 && r.teardown_ns > 0.0);
        // A multi-shard BFS on a connected-ish graph must cross
        // boundaries: the ledger and the per-shard slices agree.
        assert!(r.exchange_bytes > 0, "no boundary traffic on 4 shards");
        assert!(r.exchange_ns > 0.0);
        assert!(r.overlap_saved_ns >= 0.0);
        assert!(r.exchange_rounds > 0 && r.exchange_rounds <= r.supersteps + 1);
        let sent: u64 = r.per_shard.iter().map(|s| s.bytes_sent).sum();
        assert_eq!(sent, r.exchange_bytes);
        assert_eq!(r.cut_edges, sharded.partition().cut_edges);
        for s in &r.per_shard {
            assert!(s.device_ns > 0.0);
            assert!(s.launches > 0, "every shard computes on this graph");
        }
    }

    #[test]
    fn idle_shards_launch_no_kernels() {
        // Shard 1's vertices are unreachable from the BFS source and no
        // edge crosses the shard boundary: shard 1 must stay idle for
        // the entire run — zero kernel launches (setup fills are
        // transfers, not launches).
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2)]).unwrap();
        let mut sharded = ShardedGraph::new(&g, 2).unwrap();
        let r = sharded
            .run(Query::Bfs { src: 0 }, &RunOptions::default())
            .unwrap();
        assert_eq!(sharded.partition().cut_edges, 0);
        assert!(r.per_shard[0].launches > 0);
        assert_eq!(
            r.per_shard[1].launches, 0,
            "idle shard launched kernels: {:?}",
            r.per_shard[1]
        );
        assert_eq!(&r.values[..3], &[0, 1, 2]);
        assert_eq!(&r.values[3..], &[INF, INF, INF]);
    }

    #[test]
    fn faster_interconnect_shrinks_only_exchange_time() {
        let g = Dataset::Google.generate(Scale::Tiny, 21);
        let opts = RunOptions::default();
        let run_with = |icx: Interconnect| {
            let mut sharded = ShardedGraph::with_config(
                &g,
                4,
                PartitionStrategy::Contiguous1D,
                DeviceConfig::tesla_c2070(),
                icx,
            )
            .unwrap();
            sharded.run(Query::Bfs { src: 0 }, &opts).unwrap()
        };
        let pcie = run_with(Interconnect::pcie());
        let nvlink = run_with(Interconnect::nvlink());
        assert_eq!(pcie.values, nvlink.values);
        assert_eq!(pcie.exchange_bytes, nvlink.exchange_bytes);
        assert!(nvlink.exchange_ns < pcie.exchange_ns);
        assert_eq!(pcie.compute_ns, nvlink.compute_ns);
    }

    #[test]
    fn single_device_strategies_are_rejected() {
        let g = Dataset::P2p.generate(Scale::Tiny, 2);
        let mut sharded = ShardedGraph::new(&g, 2).unwrap();
        for strategy in [
            Strategy::VirtualWarp {
                width: 8,
                workset: WorkSet::Queue,
            },
            Strategy::DirectionOptimized {
                bottom_up_fraction: 0.1,
            },
            Strategy::Hybrid { gpu_threshold: 64 },
        ] {
            let opts = RunOptions::builder().strategy(strategy).build();
            assert!(
                matches!(
                    sharded.run(Query::Bfs { src: 0 }, &opts),
                    Err(CoreError::Unsupported { .. })
                ),
                "{strategy:?} should be rejected"
            );
        }
    }

    #[test]
    fn malformed_queries_are_rejected_before_any_superstep() {
        let g = Dataset::P2p.generate(Scale::Tiny, 2); // unweighted
        let mut sharded = ShardedGraph::new(&g, 2).unwrap();
        let opts = RunOptions::default();
        assert!(matches!(
            sharded.run(Query::Sssp { src: 0 }, &opts),
            Err(CoreError::InvalidQuery { .. })
        ));
        let n = g.node_count() as u32;
        assert!(matches!(
            sharded.run(Query::Bfs { src: n }, &opts),
            Err(CoreError::InvalidQuery { .. })
        ));
        assert!(matches!(
            sharded.run(
                Query::PageRank {
                    config: PageRankConfig {
                        damping: 1.5,
                        epsilon: 1e-4
                    }
                },
                &opts
            ),
            Err(CoreError::InvalidQuery { .. })
        ));
        assert!(matches!(
            sharded.run(
                Query::Cc,
                &RunOptions::static_variant(Variant::parse("O_T_BM").unwrap())
            ),
            Err(CoreError::Unsupported { .. })
        ));
    }

    #[test]
    fn report_json_carries_the_exchange_ledger() {
        let g = Dataset::P2p.generate(Scale::Tiny, 4);
        let mut sharded = ShardedGraph::new(&g, 2).unwrap();
        let r = sharded.run(Query::Cc, &RunOptions::default()).unwrap();
        let json = r.to_json().render();
        for key in [
            "\"shards\"",
            "\"partition_strategy\"",
            "\"supersteps\"",
            "\"exchange_ns\"",
            "\"overlap_saved_ns\"",
            "\"exchange_bytes\"",
            "\"cut_fraction\"",
            "\"launches\"",
            "\"per_shard\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn more_shards_than_nodes_still_works() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let expected = single_device(&g, Query::Bfs { src: 0 }, &RunOptions::default());
        let mut sharded = ShardedGraph::new(&g, 8).unwrap();
        let r = sharded
            .run(Query::Bfs { src: 0 }, &RunOptions::default())
            .unwrap();
        assert_eq!(r.values, expected);
    }

    #[test]
    fn empty_graph_yields_empty_report() {
        let g = GraphBuilder::from_edges(0, &[]).unwrap();
        let mut sharded = ShardedGraph::new(&g, 2).unwrap();
        let r = sharded
            .run(Query::Bfs { src: 0 }, &RunOptions::default())
            .unwrap();
        assert!(r.values.is_empty());
        assert_eq!(r.total_ns, 0.0);
    }
}
