//! The paper's experiment as a reusable sweep: for each dataset, adaptive
//! BFS and SSSP from node 0, a set of static variants for each, adaptive
//! CC and PageRank through [`Session::run`], plus 2-shard BFS/SSSP through
//! [`ShardedGraph::run`] on some datasets, each answer checked against the
//! `agg-cpu` oracle.
//!
//! `paper-small` runs it at small scale, `race-check` at tiny scale under
//! the race analyzer, and `serve-mixed` on the two graphs the server hosts
//! (the modeled cost of the served query mix). Every call into a layer is
//! timed from outside; the modeled numbers come from the reports.

use crate::check::Oracle;
use crate::stats::{geomean, median, secs, Clock, Report};
use agg_core::{Algo, Query, RunOptions, RunReport, Session, ShardedGraph};
use agg_gpu_sim::{DeviceConfig, Interconnect, RaceSummary, SimFidelity};
use agg_graph::{CsrGraph, Dataset, PartitionStrategy, Scale};
use agg_kernels::Variant;
use std::time::Instant;

/// Edge weights are drawn from `1..=MAX_WEIGHT`, as in the repro harness.
const MAX_WEIGHT: u32 = 64;

/// The datasets whose per-(dataset, algo) modeled time is reported as a
/// per-layer cell: the five analogs `paper-small` covers.
pub const CELL_DATASETS: [Dataset; 5] = [
    Dataset::CoRoad,
    Dataset::CiteSeer,
    Dataset::P2p,
    Dataset::Amazon,
    Dataset::Google,
];

pub const ALGOS: [Algo; 4] = [Algo::Bfs, Algo::Sssp, Algo::Cc, Algo::PageRank];

pub fn algo_name(a: Algo) -> &'static str {
    match a {
        Algo::Bfs => "bfs",
        Algo::Sssp => "sssp",
        Algo::Cc => "cc",
        Algo::PageRank => "pagerank",
    }
}

pub fn dataset_key(d: Dataset) -> String {
    d.name().to_ascii_lowercase().replace(['-', ' '], "")
}

/// The query for `algo`; traversals start at `src`.
pub fn query(algo: Algo, src: u32) -> Query {
    match algo {
        Algo::Bfs => Query::Bfs { src },
        Algo::Sssp => Query::Sssp { src },
        Algo::Cc => Query::Cc,
        Algo::PageRank => Query::pagerank(),
    }
}

/// What one sweep covers.
#[derive(Clone)]
pub struct Spec {
    pub scale: Scale,
    pub datasets: Vec<Dataset>,
    /// Traversal sources of the BFS and SSSP cells.
    pub sources: Vec<u32>,
    /// Static variants run for BFS and SSSP next to the adaptive runtime.
    pub statics: Vec<Variant>,
    /// Datasets that also run 2-shard BFS/SSSP.
    pub sharded: Vec<Dataset>,
    pub fidelity: SimFidelity,
}

/// A dataset's graph, derived from the workload seed alone.
pub fn generate(d: Dataset, scale: Scale, seed: u64) -> CsrGraph {
    d.generate_weighted(scale, seed, MAX_WEIGHT)
}

/// The graphs a sweep runs on, generated from the workload seed.
pub struct Inputs {
    pub graphs: Vec<(Dataset, CsrGraph)>,
    /// Host time spent generating the graphs, s.
    pub generate_s: f64,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let t = Instant::now();
        let graphs = spec
            .datasets
            .iter()
            .map(|&d| (d, generate(d, spec.scale, seed)))
            .collect();
        Inputs {
            graphs,
            generate_s: secs(t),
        }
    }
}

pub fn device(fidelity: SimFidelity) -> DeviceConfig {
    DeviceConfig::tesla_c2070().with_fidelity(fidelity)
}

/// The resident state a pass runs against: one [`Session`] per dataset
/// and one [`ShardedGraph`] per sharded dataset. Every pass builds its
/// own: a device's modeled clock is a running sum, so only devices with
/// the same history report bit-identical times.
pub struct Resident {
    sessions: Vec<Session>,
    shards: Vec<(usize, ShardedGraph)>,
}

impl Resident {
    pub fn build(spec: &Spec, graphs: &[(Dataset, CsrGraph)]) -> Resident {
        let sessions = graphs
            .iter()
            .map(|(_, g)| Session::with_device(g, device(spec.fidelity)).expect("session"))
            .collect();
        let shards = graphs
            .iter()
            .enumerate()
            .filter(|(_, (d, _))| spec.sharded.contains(d))
            .map(|(i, (_, g))| {
                let sg = ShardedGraph::with_config(
                    g,
                    2,
                    PartitionStrategy::DegreeBalanced,
                    device(spec.fidelity),
                    Interconnect::pcie(),
                )
                .expect("sharded graph");
                (i, sg)
            })
            .collect();
        Resident { sessions, shards }
    }
}

/// How one cell ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum How {
    Adaptive,
    Static(Variant),
    Shard2,
}

/// One timed call and its modeled outcome.
#[derive(Debug, Clone)]
pub struct Cell {
    pub dataset: Dataset,
    pub algo: Algo,
    /// Traversal source (0 for CC and PageRank).
    pub src: u32,
    pub how: How,
    /// Host time of the call, s.
    pub wall_s: f64,
    pub total_ns: f64,
    pub values_hash: u64,
    pub correct: bool,
    /// Simulated warp instructions, launches, memory transactions and
    /// active lanes (single-device runs only).
    pub insns: u64,
    pub launches: u64,
    pub mem_tx: u64,
    pub active_lanes: u64,
    /// Adaptive runs only: engine counters and modeled phase split.
    pub engine: Option<EngineCounters>,
    /// Sharded runs only.
    pub shard: Option<ShardCounters>,
    pub races: RaceCounters,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineCounters {
    pub iterations: u64,
    pub switches: u64,
    pub census_launches: u64,
    pub inspector_ns: f64,
    pub setup_ns: f64,
    pub iter_ns: f64,
    pub teardown_ns: f64,
    pub workset_gen_ns: f64,
    pub compute_ns: f64,
    pub census_ns: f64,
    pub other_ns: f64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardCounters {
    pub exchange_ns: f64,
    pub overlap_saved_ns: f64,
    pub cut_fraction: f64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RaceCounters {
    pub launches_checked: u64,
    pub benign_words: u64,
    pub harmful_words: u64,
}

impl RaceCounters {
    /// What the analyzer found between two cumulative summaries.
    fn between(before: &RaceSummary, after: &RaceSummary) -> RaceCounters {
        RaceCounters {
            launches_checked: after.launches_checked - before.launches_checked,
            benign_words: after.benign_words - before.benign_words,
            harmful_words: after.harmful_words - before.harmful_words,
        }
    }
}

/// FNV-1a over the value array: passes and legs compare answers by hash.
pub fn hash_values(values: &[u32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
        (h ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Oracles for every (dataset, algo, source) of a sweep, computed once,
/// outside the timed passes.
pub struct Oracles {
    by_cell: Vec<(Dataset, Algo, u32, Oracle)>,
    /// Host time spent in the serial baselines, s.
    pub wall_s: f64,
}

impl Oracles {
    pub fn compute(spec: &Spec, inputs: &Inputs) -> Oracles {
        let t = Instant::now();
        let mut by_cell = Vec::new();
        for (d, g) in &inputs.graphs {
            for algo in ALGOS {
                for src in sources(spec, algo) {
                    by_cell.push((*d, algo, src, Oracle::run(g, query(algo, src))));
                }
            }
        }
        Oracles {
            by_cell,
            wall_s: secs(t),
        }
    }

    pub fn get(&self, d: Dataset, algo: Algo, src: u32) -> &Oracle {
        self.by_cell
            .iter()
            .find(|(x, a, s, _)| *x == d && *a == algo && *s == src)
            .map(|(.., o)| o)
            .expect("oracle for every cell")
    }
}

/// The sources `algo` runs from: the spec's for traversals, none (0)
/// otherwise.
fn sources(spec: &Spec, algo: Algo) -> Vec<u32> {
    match algo {
        Algo::Bfs | Algo::Sssp => spec.sources.clone(),
        Algo::Cc | Algo::PageRank => vec![0],
    }
}

fn kernel_split(r: &RunReport) -> (f64, f64, f64, f64) {
    let (mut gen, mut compute, mut census, mut other) = (0.0, 0.0, 0.0, 0.0);
    for p in r.profile.kernels() {
        let k = p.kernel.as_str();
        if k.starts_with("workset_gen") {
            gen += p.time_ns;
        } else if k.starts_with("count_") {
            census += p.time_ns;
        } else if ["bfs_", "sssp_", "cc_", "pagerank_"]
            .iter()
            .any(|prefix| k.starts_with(prefix))
        {
            compute += p.time_ns;
        } else {
            other += p.time_ns;
        }
    }
    (gen, compute, census, other)
}

fn options(how: How, record_trace: bool) -> RunOptions {
    let mut options = match how {
        How::Static(v) => RunOptions::static_variant(v),
        _ => RunOptions::default(),
    };
    options.record_trace = record_trace;
    options
}

fn single_cell(
    session: &mut Session,
    (d, algo, src, how): (Dataset, Algo, u32, How),
    oracles: &Oracles,
    record_trace: bool,
) -> Cell {
    let options = options(how, record_trace);
    let before = session.device().race_summary().clone();
    let t = Instant::now();
    let r = session
        .run(query(algo, src), &options)
        .expect("session run");
    let wall_s = secs(t);
    let after = session.device().race_summary();
    let totals = &r.gpu_stats.totals;
    let engine = (how == How::Adaptive).then(|| {
        let (workset_gen_ns, compute_ns, census_ns, other_ns) = kernel_split(&r);
        EngineCounters {
            iterations: u64::from(r.metrics.iterations),
            switches: u64::from(r.metrics.switches),
            census_launches: u64::from(r.metrics.census_launches),
            inspector_ns: r.metrics.inspector_ns_total,
            setup_ns: r.setup_ns,
            iter_ns: r.metrics.iter_ns_total,
            teardown_ns: r.teardown_ns,
            workset_gen_ns,
            compute_ns,
            census_ns,
            other_ns,
        }
    });
    Cell {
        dataset: d,
        algo,
        src,
        how,
        wall_s,
        total_ns: r.total_ns,
        values_hash: hash_values(&r.values),
        correct: oracles.get(d, algo, src).accepts(&r.values),
        insns: totals.instructions,
        launches: r.launches,
        mem_tx: totals.mem_transactions,
        active_lanes: totals.active_lane_instructions,
        engine,
        shard: None,
        races: RaceCounters::between(&before, after),
    }
}

/// One timed pass over every cell of the setup.
pub struct Pass {
    pub cells: Vec<Cell>,
    /// Host time of the whole pass, s.
    pub wall_s: f64,
    /// State-pool hits across the pass's sessions.
    pub pool_hits: u64,
}

/// One pass over every cell; `record_trace` turns on the engine's
/// per-iteration trace for every run (the traced pass).
pub fn run_pass(spec: &Spec, inputs: &Inputs, oracles: &Oracles, record_trace: bool) -> Pass {
    let mut resident = Resident::build(spec, &inputs.graphs);
    let t = Instant::now();
    let mut cells = Vec::new();
    for (i, (d, _)) in inputs.graphs.iter().enumerate() {
        let session = &mut resident.sessions[i];
        // Adaptive runs first: a device's clock is a running sum, so this
        // order lets a repeat of the adaptive runs alone reproduce their
        // modeled times bit for bit.
        for algo in ALGOS {
            for src in sources(spec, algo) {
                let key = (*d, algo, src, How::Adaptive);
                cells.push(single_cell(session, key, oracles, record_trace));
            }
        }
        for algo in [Algo::Bfs, Algo::Sssp] {
            for src in sources(spec, algo) {
                for &v in &spec.statics {
                    let key = (*d, algo, src, How::Static(v));
                    cells.push(single_cell(session, key, oracles, record_trace));
                }
            }
        }
        if let Some((_, sg)) = resident.shards.iter_mut().find(|(j, _)| *j == i) {
            for algo in [Algo::Bfs, Algo::Sssp] {
                for src in sources(spec, algo) {
                    let before = sg.race_summary();
                    let t = Instant::now();
                    let r = sg
                        .run(query(algo, src), &options(How::Shard2, record_trace))
                        .expect("sharded run");
                    let wall_s = secs(t);
                    let after = sg.race_summary();
                    // Sharded must be bit-identical to the single-device
                    // adaptive run of the same pass, with exact accounting.
                    let single = find(&cells, *d, algo, src, How::Adaptive)
                        .expect("single-device run precedes the sharded one");
                    let values_hash = hash_values(&r.values);
                    let correct = values_hash == single.values_hash && r.accounting_gap() == 0.0;
                    cells.push(Cell {
                        dataset: *d,
                        algo,
                        src,
                        how: How::Shard2,
                        wall_s,
                        total_ns: r.total_ns,
                        values_hash,
                        correct,
                        insns: 0,
                        launches: r.per_shard.iter().map(|s| s.launches).sum(),
                        mem_tx: 0,
                        active_lanes: 0,
                        engine: None,
                        shard: Some(ShardCounters {
                            exchange_ns: r.exchange_ns,
                            overlap_saved_ns: r.overlap_saved_ns,
                            cut_fraction: r.cut_fraction,
                        }),
                        races: RaceCounters::between(&before, &after),
                    });
                }
            }
        }
    }
    let wall_s = secs(t);
    Pass {
        cells,
        wall_s,
        pool_hits: resident.sessions.iter().map(|s| s.pool_stats().hits).sum(),
    }
}

/// True when every cell of `repeat` has a cell in `reference` with the
/// same bit-identical modeled total and answer: the modeled clock is
/// deterministic, so repeats over the same inputs must agree exactly.
pub fn pinned(reference: &Pass, repeat: &Pass) -> bool {
    repeat.cells.iter().all(|c| {
        find(&reference.cells, c.dataset, c.algo, c.src, c.how).is_some_and(|r| {
            r.total_ns.to_bits() == c.total_ns.to_bits() && r.values_hash == c.values_hash
        })
    })
}

/// Host time of one pass over `timed`'s calls, each call taken at its
/// median over every pass that ran it: a few seconds of a slower host
/// then touch one execution of a call rather than the total.
pub fn median_call_wall(passes: &[&Pass], timed: &Pass) -> f64 {
    timed
        .cells
        .iter()
        .map(|c| {
            let walls: Vec<f64> = passes
                .iter()
                .filter_map(|p| find(&p.cells, c.dataset, c.algo, c.src, c.how))
                .map(|x| x.wall_s)
                .collect();
            median(&walls)
        })
        .sum()
}

/// Modeled summary metrics of a pass.
pub struct Modeled {
    pub modeled_ms: f64,
    pub adaptive_regret: f64,
    pub speedup_vs_cpu: f64,
    pub shard_speedup: f64,
    pub cpu_ms: f64,
}

fn find(cells: &[Cell], d: Dataset, algo: Algo, src: u32, how: How) -> Option<&Cell> {
    cells
        .iter()
        .find(|c| c.dataset == d && c.algo == algo && c.src == src && c.how == how)
}

pub fn modeled(spec: &Spec, pass: &Pass, oracles: &Oracles) -> Modeled {
    let adaptive: Vec<&Cell> = pass
        .cells
        .iter()
        .filter(|c| c.how == How::Adaptive)
        .collect();
    let modeled_ms = geomean(adaptive.iter().map(|c| c.total_ns / 1e6));
    let speedup_vs_cpu = geomean(
        adaptive
            .iter()
            .map(|c| oracles.get(c.dataset, c.algo, c.src).cpu_ns / c.total_ns),
    );
    let cpu_ms = geomean(
        adaptive
            .iter()
            .map(|c| oracles.get(c.dataset, c.algo, c.src).cpu_ns / 1e6),
    );
    let mut regrets = Vec::new();
    let mut shard_gains = Vec::new();
    for &d in &spec.datasets {
        for algo in [Algo::Bfs, Algo::Sssp] {
            for &src in &spec.sources {
                let a = find(&pass.cells, d, algo, src, How::Adaptive).expect("adaptive cell");
                let best = Variant::UNORDERED
                    .iter()
                    .filter_map(|&v| find(&pass.cells, d, algo, src, How::Static(v)))
                    .map(|c| c.total_ns)
                    .fold(f64::INFINITY, f64::min);
                regrets.push(a.total_ns / best);
                if let Some(s) = find(&pass.cells, d, algo, src, How::Shard2) {
                    shard_gains.push(a.total_ns / s.total_ns);
                }
            }
        }
    }
    Modeled {
        modeled_ms,
        adaptive_regret: geomean(regrets),
        speedup_vs_cpu,
        shard_speedup: geomean(shard_gains),
        cpu_ms,
    }
}

/// Simulated warp instructions of a pass's single-device calls and the
/// host seconds spent in them.
pub fn sim_rate(pass: &Pass) -> (u64, f64) {
    let single = pass.cells.iter().filter(|c| c.how != How::Shard2);
    let (insns, wall) = single.fold((0u64, 0.0), |(i, w), c| (i + c.insns, w + c.wall_s));
    (insns, wall)
}

/// Simulator throughput: the median over single-device calls of
/// millions of simulated warp instructions per host second. A median
/// over calls rather than one ratio of sums, so that a few seconds of a
/// slower host, or one heavy call, do not decide it.
pub fn sim_minsn_per_s(passes: &[Pass]) -> f64 {
    let rates: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cells.iter())
        .filter(|c| c.how != How::Shard2)
        .map(|c| c.insns as f64 / c.wall_s / 1e6)
        .collect();
    median(&rates)
}

/// Modeled device latency of every call in a pass, ms.
pub fn latencies_ms(pass: &Pass) -> Vec<f64> {
    pass.cells.iter().map(|c| c.total_ns / 1e6).collect()
}

pub fn race_totals(pass: &Pass) -> RaceCounters {
    pass.cells.iter().fold(RaceCounters::default(), |mut t, c| {
        t.launches_checked += c.races.launches_checked;
        t.benign_words += c.races.benign_words;
        t.harmful_words += c.races.harmful_words;
        t
    })
}

/// Per-layer metrics of the engine, kernels, session, simulator, shard
/// and CPU layers, read from one pass's reports.
pub fn layer_metrics(pass: &Pass, modeled: &Modeled, out: &mut Report) {
    let adaptive: Vec<&Cell> = pass.cells.iter().filter(|c| c.engine.is_some()).collect();
    for algo in ALGOS {
        let walls: Vec<f64> = adaptive
            .iter()
            .filter(|c| c.algo == algo)
            .map(|c| c.wall_s * 1e3)
            .collect();
        out.push(
            format!("session.run_ms.{}", algo_name(algo)),
            "ms",
            Clock::Wall,
            median(&walls),
        );
    }
    out.push(
        "session.pool_hits",
        "count",
        Clock::None,
        pass.pool_hits as f64,
    );
    let single: Vec<&Cell> = pass.cells.iter().filter(|c| c.how != How::Shard2).collect();
    let (insns, wall) = sim_rate(pass);
    let lanes: u64 = single.iter().map(|c| c.active_lanes).sum();
    out.push(
        "sim.host_ns_per_insn",
        "ns",
        Clock::Wall,
        wall * 1e9 / insns.max(1) as f64,
    );
    out.push("sim.warp_insns", "count", Clock::None, insns as f64);
    out.push(
        "sim.launches",
        "count",
        Clock::None,
        single.iter().map(|c| c.launches).sum::<u64>() as f64,
    );
    out.push(
        "sim.mem_transactions",
        "count",
        Clock::None,
        single.iter().map(|c| c.mem_tx).sum::<u64>() as f64,
    );
    out.push(
        "sim.simt_eff",
        "fraction",
        Clock::None,
        lanes as f64 / (insns.max(1) * 32) as f64,
    );
    let sum = |f: fn(&EngineCounters) -> f64| -> f64 {
        adaptive
            .iter()
            .map(|c| f(c.engine.as_ref().expect("adaptive cell")))
            .sum()
    };
    out.push(
        "engine.iterations",
        "count",
        Clock::None,
        sum(|e| e.iterations as f64),
    );
    out.push(
        "engine.switches",
        "count",
        Clock::None,
        sum(|e| e.switches as f64),
    );
    out.push(
        "engine.census_launches",
        "count",
        Clock::None,
        sum(|e| e.census_launches as f64),
    );
    out.push(
        "engine.inspector_ms",
        "ms",
        Clock::Modeled,
        sum(|e| e.inspector_ns) / 1e6,
    );
    out.push(
        "engine.setup_ms",
        "ms",
        Clock::Modeled,
        sum(|e| e.setup_ns) / 1e6,
    );
    out.push(
        "engine.iter_ms",
        "ms",
        Clock::Modeled,
        sum(|e| e.iter_ns) / 1e6,
    );
    out.push(
        "engine.teardown_ms",
        "ms",
        Clock::Modeled,
        sum(|e| e.teardown_ns) / 1e6,
    );
    for d in CELL_DATASETS {
        for algo in ALGOS {
            // Geomean over sources; 0 when the workload does not run
            // this dataset.
            let v = geomean(
                adaptive
                    .iter()
                    .filter(|c| c.dataset == d && c.algo == algo)
                    .map(|c| c.total_ns / 1e6),
            );
            out.push(
                format!("engine.modeled_ms.{}.{}", dataset_key(d), algo_name(algo)),
                "ms",
                Clock::Modeled,
                v,
            );
        }
    }
    out.push(
        "kernels.workset_gen_ms",
        "ms",
        Clock::Modeled,
        sum(|e| e.workset_gen_ns) / 1e6,
    );
    out.push(
        "kernels.compute_ms",
        "ms",
        Clock::Modeled,
        sum(|e| e.compute_ns) / 1e6,
    );
    out.push(
        "kernels.census_ms",
        "ms",
        Clock::Modeled,
        sum(|e| e.census_ns) / 1e6,
    );
    out.push(
        "kernels.other_ms",
        "ms",
        Clock::Modeled,
        sum(|e| e.other_ns) / 1e6,
    );
    let sharded: Vec<ShardCounters> = pass.cells.iter().filter_map(|c| c.shard).collect();
    out.push(
        "shard.exchange_ms",
        "ms",
        Clock::Modeled,
        sharded.iter().map(|s| s.exchange_ns).sum::<f64>() / 1e6,
    );
    out.push(
        "shard.overlap_saved_ms",
        "ms",
        Clock::Modeled,
        sharded.iter().map(|s| s.overlap_saved_ns).sum::<f64>() / 1e6,
    );
    out.push(
        "shard.cut_frac",
        "fraction",
        Clock::None,
        if sharded.is_empty() {
            0.0
        } else {
            sharded.iter().map(|s| s.cut_fraction).sum::<f64>() / sharded.len() as f64
        },
    );
    out.push("cpu.modeled_ms", "ms", Clock::Modeled, modeled.cpu_ms);
}
